"""The layers the traced run hooks, and the per-layer metrics it reports.

Metric names follow <module>.<function>.<stat>. busy_s is summed over
threads. Definitions that are not a plain sum:

- client.queue_wait_s: time from entering LlmClient.complete_many to the
  start of each job's cached_complete, summed (p50 and p90 also given).
- client.inflight_util: mean backend calls in flight divided by
  max_in_flight, over the time the main thread spends in the client.
- experiments.self_s: main-thread wall time not covered by any traced call,
  which is orchestration plus artifact writing.
- experiments.failed_ratio (added by worker.py): failed trials, baseline
  cells and importance requests over those attempted, from the artifacts;
  unlike the run's failed count, it includes LR cells refused on a
  rank-deficient fold.
- trace.wall_s and trace.overhead_s (added by run.py): the traced pass's
  wall time, the base for the busy times above, and that minus the median
  untraced wall time of the same run.
"""

from __future__ import annotations

import statistics
import threading
from time import perf_counter

from tracer import Tracer

FUNCTIONS = [
    # (module, function, label)
    ("travelsat.baselines", "fit_gbdt", "baselines.fit_gbdt"),
    ("travelsat.baselines", "fit_ols", "baselines.fit_ols"),
    ("travelsat.baselines", "predict_gbdt", "baselines.predict_gbdt"),
    ("travelsat.encoding", "encode_matrix", "encoding.encode_matrix"),
    ("travelsat.encoding", "design_matrix", "encoding.design_matrix"),
    ("travelsat.selection", "rank_support", "selection.rank_support"),
    ("travelsat.selection", "representativeness_report",
     "selection.representativeness_report"),
    ("travelsat.prompting", "render_zero_shot", "prompting.render"),
    ("travelsat.prompting", "render_few_shot", "prompting.render"),
    ("travelsat.prompting", "parse_response", "prompting.parse_response"),
    ("travelsat.evaluation", "evaluate", "evaluation.evaluate"),
    ("travelsat.evaluation", "compare_importances",
     "evaluation.compare_importances"),
    ("travelsat.dataset", "load_survey", "dataset.load_survey"),
]

METHODS = [
    # (module, class, method, label)
    ("travelsat.mock", "ScriptedMock", "complete", "mock.complete"),
    ("travelsat.client", "ResponseCache", "get", "client.cache.get"),
    ("travelsat.client", "ResponseCache", "put", "client.cache.put"),
    ("travelsat.client", "LlmClient", "complete", "client.complete"),
    ("travelsat.client", "LlmClient", "cached_complete", "client.cached_complete"),
    ("travelsat.client", "LlmClient", "complete_many", "client.complete_many"),
]

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = [
    ("baselines.fit_gbdt.calls", "count", "lower"),
    ("baselines.fit_gbdt.busy_s", "s", "lower"),
    ("baselines.fit_gbdt.failures", "count", "lower"),
    ("baselines.fit_ols.calls", "count", "lower"),
    ("baselines.fit_ols.busy_s", "s", "lower"),
    ("baselines.fit_ols.failures", "count", "lower"),
    ("baselines.predict_gbdt.busy_s", "s", "lower"),
    ("encoding.encode_matrix.calls", "count", "lower"),
    ("encoding.encode_matrix.rows", "count", "lower"),
    ("encoding.encode_matrix.busy_s", "s", "lower"),
    ("encoding.design_matrix.busy_s", "s", "lower"),
    ("selection.rank_support.calls", "count", "lower"),
    ("selection.rank_support.busy_s", "s", "lower"),
    ("selection.representativeness_report.calls", "count", "lower"),
    ("selection.representativeness_report.busy_s", "s", "lower"),
    ("prompting.render.calls", "count", "lower"),
    ("prompting.render.bytes", "B", "lower"),
    ("prompting.render.busy_s", "s", "lower"),
    ("prompting.parse_response.calls", "count", "lower"),
    ("prompting.parse_response.failures", "count", "lower"),
    ("prompting.parse_response.busy_s", "s", "lower"),
    ("mock.complete.calls", "count", "lower"),
    ("mock.complete.busy_s", "s", "lower"),
    ("client.requests", "count", "lower"),
    ("client.retries", "count", "lower"),
    ("client.cache.hits", "count", "higher"),
    ("client.cache.misses", "count", "lower"),
    ("client.cache.hit_ratio", "ratio", "higher"),
    ("client.cache.get.busy_s", "s", "lower"),
    ("client.cache.put.busy_s", "s", "lower"),
    ("client.queue_wait_s", "s", "lower"),
    ("client.queue_wait_p50_s", "s", "lower"),
    ("client.queue_wait_p90_s", "s", "lower"),
    ("client.inflight_util", "ratio", "higher"),
    ("client.injected_wait_s", "s", "lower"),
    ("evaluation.evaluate.busy_s", "s", "lower"),
    ("evaluation.compare_importances.busy_s", "s", "lower"),
    ("dataset.load_survey.busy_s", "s", "lower"),
    ("experiments.self_s", "s", "lower"),
    ("experiments.failed_ratio", "ratio", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class LayerProbe:
    """Installs the tracer on every layer and turns its counts into metrics."""

    def __init__(self):
        self.tracer = Tracer()
        self.rows = 0
        self.render_bytes = 0
        self.hits = 0
        self.misses = 0
        self.queue_waits: list[float] = []
        self._entered: dict[int, float] = {}
        self._lock = threading.Lock()
        self._main = threading.main_thread()

    def install(self) -> None:
        hooks = {
            "encoding.encode_matrix": {"after": self._count_rows},
            "prompting.render": {"after": self._count_bytes},
            "client.cache.get": {"after": self._count_lookup},
            "client.complete_many": {"before": self._enter_many},
            "client.cached_complete": {"before": self._start_job},
        }
        for module, name, label in FUNCTIONS:
            self.tracer.wrap_function(module, name, label, **hooks.get(label, {}))
        for module, cls, name, label in METHODS:
            self.tracer.wrap_method(module, cls, name, label, **hooks.get(label, {}))

    # -- hooks ---------------------------------------------------------------

    def _count_rows(self, args, kwargs, result, start):
        with self._lock:
            self.rows += len(result)

    def _count_bytes(self, args, kwargs, result, start):
        size = len(result.as_bytes())
        with self._lock:
            self.render_bytes += size

    def _count_lookup(self, args, kwargs, result, start):
        with self._lock:
            if result is None:
                self.misses += 1
            else:
                self.hits += 1

    def _enter_many(self, args):
        # args[0] is the LlmClient; its jobs start on pool threads
        self._entered[id(args[0])] = perf_counter()

    def _start_job(self, args):
        if threading.current_thread() is self._main:
            return
        entered = self._entered.get(id(args[0]))
        if entered is not None:
            wait = perf_counter() - entered
            with self._lock:
                self.queue_waits.append(wait)

    # -- metrics -------------------------------------------------------------

    def metrics(self, wall_s: float, clients, backends, max_in_flight: int) -> dict:
        stats = self.tracer.stats
        out: dict[str, float] = {}
        for name, _, _ in PER_LAYER:
            label, _, stat = name.rpartition(".")
            if label in stats and stat in ("calls", "failures", "busy_s"):
                out[name] = getattr(stats[label], stat)
        out["encoding.encode_matrix.rows"] = self.rows
        out["prompting.render.bytes"] = self.render_bytes

        requests = sum(c.transport_calls for c in clients)
        out["client.requests"] = requests
        out["client.retries"] = requests - stats["client.complete"].calls
        out["client.cache.hits"] = self.hits
        out["client.cache.misses"] = self.misses
        lookups = self.hits + self.misses
        out["client.cache.hit_ratio"] = self.hits / lookups if lookups else 0.0
        waits = self.queue_waits
        out["client.queue_wait_s"] = sum(waits)
        deciles = (statistics.quantiles(waits, n=10) if len(waits) >= 2
                   else [sum(waits)] * 9)
        out["client.queue_wait_p50_s"] = deciles[4]
        out["client.queue_wait_p90_s"] = deciles[8]
        client_s = (stats["client.complete_many"].main_top_s
                    + stats["client.cached_complete"].main_top_s)
        area = sum(b.inflight_area for b in backends)
        out["client.inflight_util"] = (area / (max_in_flight * client_s)
                                       if client_s else 0.0)
        out["client.injected_wait_s"] = sum(b.injected_wait_s for b in backends)
        out["experiments.self_s"] = wall_s - self.tracer.main_covered_s
        return out
