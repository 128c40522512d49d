"""Experiment orchestration: sweeps, artifacts, and reports.

Every runner hands _run a body(config, dataset) that executes its protocol
and returns a RunResult (summary text, CSV tables in write order, reasoning
archive) without file I/O. _run, the one writer of a run directory, loads
or synthesizes the dataset, calls the body, and writes each table,
summary.txt, reasoning/ when there is text to archive, and provenance.json
with the config and schema hashes. With the scripted mock backend,
identical configs produce byte-identical artifacts run after run.

The LLM runners share one path. Plan: list every trial (support, query
batches, cache slot) without rendering a prompt; zero-shot is the k = 0
plan over the whole dataset, similarity support is ranked once per split,
each k taking a prefix, and the importance study asks one batch per trial.
Execute: _execute, the one place a run's requests are made, builds the
client and sends every batch of every trial through one
LlmClient.complete_many call that renders each prompt as the pool takes it,
joining traveler blocks that the run writes once each, and re-sends replies
that fail to parse once, at slot + 1. Evaluate: turn each trial's outcomes
into metrics, a reasoning archive and table rows. The baseline sweep sends
nothing, so it builds no client.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from .baselines import (
    GbdtHyper,
    fit_gbdt,  # noqa: F401  perfbench/tests expects this module to bind it
    fit_gbdt_repeats,
    fraction_sweep,
    importance_gbdt,
)
from .client import HttpChatBackend, LlmClient, LlmParams
from .dataset import Dataset, RespondentRecord, load_survey, split
from .encoding import encode_matrix, fit_encoding
from .errors import DatasetError, ParseError, TravelSatError
from .evaluation import (
    MetricPair,
    aggregate_repeats,
    compare_importances,
    evaluate,
    format_cell,
)
from .mock import ScriptedMock
from .prompting import (
    DEFAULT_BATCH_SIZE,
    Blocks,
    Prompt,
    batched,
    parse_response,
    render_few_shot,
    render_zero_shot,
)
from .schema import VariableSchema, default_schema, load_schema, read_json, spec_from_dict
from .selection import (
    random_support,
    rank_order,
    rank_support,
    representativeness_report,
    summarize_ks_repeats,
    top_support,
)
from .synthesize import default_marginals, load_marginals, synthesize

logger = logging.getLogger(__name__)

DEFAULT_SUPPORT_SIZES = (0, 3, 6, 9, 12, 15, 18)
DEFAULT_FRACTIONS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


@dataclass(frozen=True)
class SyntheticSpec:
    n: int = 200
    seed: int = 7
    label_rule: str = "linear"
    noise: float = 0.2
    marginals_path: str | None = None


@dataclass(frozen=True)
class MockSpec:
    rule: str = "linear"
    mode: str = "nn"
    noise_seed: int = 0
    noise_scale: float = 0.0


@dataclass(frozen=True)
class ExperimentConfig:
    data_path: str | None = None
    synthetic: SyntheticSpec = field(default_factory=SyntheticSpec)
    schema_path: str | None = None
    support_sizes: tuple[int, ...] = DEFAULT_SUPPORT_SIZES
    repeats: int = 3
    train_fraction: float = 0.8
    fractions: tuple[float, ...] = DEFAULT_FRACTIONS
    seed: int = 0
    vary_split: bool = False
    batch_size: int = DEFAULT_BATCH_SIZE
    best_k: int = 6
    llm: LlmParams = field(default_factory=LlmParams)
    # None talks to the real endpoint; experiments are offline by default
    mock: MockSpec | None = field(default_factory=MockSpec)
    max_in_flight: int = 4
    gbdt: GbdtHyper = field(default_factory=GbdtHyper)
    # importance repeats need fit variation, so the study subsamples rows
    importance_subsample: float = 0.8
    cache_dir: str | None = None
    out_dir: str = "runs/out"

    def __post_init__(self):
        if self.seed < 0:
            raise DatasetError("seed must be non-negative")
        for name in ("max_in_flight", "repeats", "batch_size", "best_k"):
            if getattr(self, name) < 1:
                raise DatasetError(f"{name} must be at least 1")
        if not 0.0 < self.train_fraction < 1.0:
            raise DatasetError("train_fraction must be in (0, 1)")
        if any(k < 0 for k in self.support_sizes):
            raise DatasetError("support sizes must be non-negative")
        # a repeated grid point writes its rows twice, and its later trials
        # overwrite the earlier ones' reasoning archives
        for name in ("support_sizes", "fractions"):
            grid = getattr(self, name)
            if not grid or len(set(grid)) != len(grid):
                raise DatasetError(f"{name} must be non-empty, without repeats: "
                                   f"{list(grid)}")
        if not 0.0 < self.importance_subsample <= 1.0:
            raise DatasetError("importance_subsample must be in (0, 1]")

    def semantic_dict(self) -> dict:
        """Config as a dict, minus fields that do not affect results."""
        d = dataclasses.asdict(self)
        d.pop("out_dir")
        d.pop("cache_dir")
        d.pop("max_in_flight")
        return d

    def content_hash(self) -> str:
        payload = json.dumps(self.semantic_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def config_from_dict(d) -> ExperimentConfig:
    return spec_from_dict(ExperimentConfig, d, DatasetError, "config")


def load_config(path) -> ExperimentConfig:
    return config_from_dict(read_json(path, "config", DatasetError))


def load_dataset(config: ExperimentConfig) -> Dataset:
    schema = load_schema(config.schema_path) if config.schema_path else default_schema()
    if config.data_path:
        return load_survey(config.data_path, schema=schema)
    spec = config.synthetic
    marginals = (load_marginals(spec.marginals_path) if spec.marginals_path
                 else default_marginals())
    return synthesize(spec.n, seed=spec.seed, label_rule=spec.label_rule,
                      noise=spec.noise, marginals=marginals, schema=schema)


def make_client(config: ExperimentConfig, schema: VariableSchema) -> LlmClient:
    if config.mock is not None:
        backend = ScriptedMock(rule=config.mock.rule, mode=config.mock.mode,
                               schema=schema, noise_seed=config.mock.noise_seed,
                               noise_scale=config.mock.noise_scale)
    else:
        backend = HttpChatBackend()
    return LlmClient(backend, config.llm, cache_dir=config.cache_dir,
                     max_in_flight=config.max_in_flight)


# -- plan, execute, evaluate ----------------------------------------------


@dataclass
class Trial:
    """One trial of a plan, not yet rendered: its support, its query batches
    (one request each) and its cache slot; then its outcome."""

    condition: str
    repeat: int
    support: tuple[RespondentRecord, ...]
    batches: list[tuple[RespondentRecord, ...]]
    slot: int
    importance: bool = False
    status: str = "ok"
    metrics: MetricPair | None = None
    reasoning: str = ""

    def render(self, queries: Sequence[RespondentRecord], schema: VariableSchema,
               blocks: Blocks) -> Prompt:
        """One batch's prompt, its traveler blocks taken from or added to blocks."""
        if self.support:
            return render_few_shot(self.support, queries, schema,
                                   want_importance=self.importance, blocks=blocks)
        return render_zero_shot(queries, schema, want_importance=self.importance,
                                blocks=blocks)


def _plan_trials(config: ExperimentConfig, support_sizes: Sequence[int],
                 splits: Sequence[tuple[Dataset, Dataset]],
                 pick: Callable[[Dataset, Dataset, int, int],
                                tuple[RespondentRecord, ...]] | None
                 ) -> list[Trial]:
    """Every (k, repeat) trial and its query batches, k-major; renders nothing.

    splits holds one (train, test) pair per repeat; the test records are the
    queries, and pick(train, test, k, repeat) chooses support for k > 0.
    """
    trials = []
    for k_index, k in enumerate(support_sizes):
        for repeat, (train, test) in enumerate(splits, start=1):
            support = pick(train, test, k, repeat) if k else ()
            trials.append(Trial(_condition_label(k), repeat, support,
                                [tuple(b) for b in batched(test.records, config.batch_size)],
                                (k_index * 1000 + repeat) * 10))
    return trials


def _execute(config: ExperimentConfig, schema: VariableSchema,
             trials: Sequence[Trial]) -> list[list]:
    """Send every query batch of every trial; per trial, in plan order, each
    batch's (response, parsed) or the TravelSatError that failed it.

    The one place a run's requests are made: it builds the client with
    make_client, looked up at call time so a caller may substitute its own
    factory, and hands it every request in one complete_many call, which
    renders each prompt only as the pool takes it. Replies that fail to
    parse are re-sent once, at slot + 1, in a second call whose outcome is
    final. Both calls build their prompts from one Blocks, so each traveler
    block is written once.
    """
    client = make_client(config, schema)
    outcomes: list[list] = [[None] * len(trial.batches) for trial in trials]
    todo = [(t, b) for t, trial in enumerate(trials) for b in range(len(trial.batches))]
    blocks = Blocks()
    for offset in (0, 1):
        if offset:
            logger.warning("%d replies failed to parse, re-sending once", len(todo))
        jobs = ((trials[t].render(trials[t].batches[b], schema, blocks),
                 trials[t].slot + offset) for t, b in todo)
        for (t, b), reply in zip(todo, client.complete_many(jobs)):
            if not isinstance(reply, TravelSatError):
                ids = [q.record_id for q in trials[t].batches[b]]
                names = schema.names if trials[t].importance else None
                try:
                    reply = (reply, parse_response(reply.content, ids, names))
                except ParseError as exc:
                    reply = exc
            outcomes[t][b] = reply
        todo = [(t, b) for t, b in todo if isinstance(outcomes[t][b], ParseError)]
        if not todo:
            break
    return outcomes


def _evaluate_trial(trial: Trial, outcomes: Sequence, labels: dict[str, float]) -> None:
    """Score one trial from its batches' outcomes; the earliest failed
    batch fails the trial."""
    failed = next((o for o in outcomes if isinstance(o, TravelSatError)), None)
    if failed is not None:
        trial.status = f"failed: {failed}"
        return
    scores: dict[str, float] = {}
    parts = []
    for response, parsed in outcomes:
        scores.update(parsed.scores)
        part = ""
        if response.reasoning:
            part += "[reasoning channel]\n" + response.reasoning + "\n"
        part += "[response commentary]\n" + (parsed.reasoning or "(none)")
        parts.append(part)
    trial.metrics = evaluate([labels[i] for i in scores], [scores[i] for i in scores])
    trial.reasoning = "\n\n".join(parts)


# -- the run directory -----------------------------------------------------


@dataclass
class RunResult:
    """Everything a run writes besides provenance, built without file I/O."""

    summary: str
    # (file name, header, rows) per CSV, in write order
    tables: list[tuple[str, Sequence[str], Sequence[Sequence]]]
    # reasoning/ file name -> text
    reasoning: dict[str, str] = field(default_factory=dict)


def _run(config: ExperimentConfig, experiment: str,
         body: Callable[[ExperimentConfig, Dataset], RunResult]) -> str:
    """Load the dataset, run body, and write its result: the one writer of
    a run directory. Returns the summary text."""
    dataset = load_dataset(config)
    # before the body, so no request is paid for that cannot be written
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result = body(config, dataset)
    for name, header, rows in result.tables:
        with open(out / name, "w", newline="", encoding="utf-8") as fh:
            # quotes only the cells that need it, such as a status with commas
            table = csv.writer(fh, lineterminator="\n")
            table.writerow(header)
            table.writerows(rows)
    (out / "summary.txt").write_text(result.summary, encoding="utf-8")
    if result.reasoning:
        (out / "reasoning").mkdir(exist_ok=True)
    for name, text in result.reasoning.items():
        (out / "reasoning" / name).write_text(text, encoding="utf-8")
    provenance = {
        "experiment": experiment,
        "config_hash": config.content_hash(),
        "config": config.semantic_dict(),
        "schema_fingerprint": dataset.schema.fingerprint(),
        "dataset": {
            "n": len(dataset),
            "dropped_rows": dataset.dropped,
            "source": config.data_path or "synthetic",
        },
    }
    (out / "provenance.json").write_text(
        json.dumps(provenance, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return result.summary


# -- tables ----------------------------------------------------------------


def _fmt(x: float | None) -> str:
    return "" if x is None else f"{x:.6f}"


def _render_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells):
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()
    return "\n".join([line(headers), line(["-" * w for w in widths])]
                     + [line(row) for row in rows])


# the aggregate CSV columns that _group_rows fills after the key
_AGGREGATE_COLUMNS = ["repeats_ok", "failures", "mse_mean", "mse_std",
                      "mape_mean", "mape_std"]


def _group_rows(key: Sequence, metrics: Sequence[MetricPair | None]) -> tuple[list, list]:
    """One group of repeats as an aggregate CSV row and a summary table row.

    Both start with key. The aggregate row adds repeats_ok, failures, then
    mean and std of MSE and of MAPE; the table row adds MSE and MAPE cells,
    "mean (std)", or "failed" when no repeat succeeded.
    """
    ok = [m for m in metrics if m is not None]
    failures = len(metrics) - len(ok)
    if not ok:
        return [*key, 0, failures, "", "", "", ""], [*key, "failed", "failed"]
    report = aggregate_repeats(ok)
    aggregate = [*key, report.repeats, failures]
    table = list(key)
    for mean, std in ((report.mse_mean, report.mse_std),
                      (report.mape_mean, report.mape_std)):
        # a single repeat has no spread to report; never claim 0
        aggregate += [_fmt(mean), "n/a" if std is None else _fmt(std)]
        table.append(format_cell(mean, std))
    return aggregate, table


def _condition_label(k: int) -> str:
    return "0 (zero-shot)" if k == 0 else str(k)


def _archive_name(condition: str, repeat: int) -> str:
    safe = condition.replace(" ", "_").replace("(", "").replace(")", "")
    return f"{safe}_rep{repeat}.txt"


# -- runners ---------------------------------------------------------------


def _sweep_result(config: ExperimentConfig, dataset: Dataset, title: str,
                  trials: list[Trial], with_ks: bool) -> RunResult:
    """Execute and evaluate a plan's trials into the sweep tables.

    Trials come k-major, config.repeats per condition. with_ks screens each
    non-empty support set against the full dataset into ks.csv and a K-S
    column.
    """
    labels = {r.record_id: r.satisfaction for r in dataset}
    for trial, outcomes in zip(trials, _execute(config, dataset.schema, trials)):
        _evaluate_trial(trial, outcomes, labels)
    agg_rows: list[list] = []
    table_rows: list[list[str]] = []
    ks_rows: list[Sequence] = []
    for group in batched(trials, config.repeats):
        aggregate, table = _group_rows([group[0].condition], [t.metrics for t in group])
        if with_ks:
            screened = [(t, representativeness_report(t.support, dataset))
                        for t in group if t.support]
            ks_rows += [[t.condition, t.repeat, r.variable, f"{r.d:.6f}",
                         f"{r.p_value:.6f}", r.stars]
                        for t, results in screened for r in results]
            cell = (summarize_ks_repeats([results for _, results in screened])
                    if screened else "n/a")
            aggregate.append(cell)
            table.append(cell)
        agg_rows.append(aggregate)
        table_rows.append(table)

    tables = [
        ("report.csv", ["condition", "repeat", "status", "n", "mse", "mape"],
         [[t.condition, t.repeat, t.status,
           t.metrics.n if t.metrics else "",
           _fmt(t.metrics.mse if t.metrics else None),
           _fmt(t.metrics.mape if t.metrics else None)] for t in trials]),
        ("aggregate.csv",
         ["condition", *_AGGREGATE_COLUMNS] + (["ks_flags"] if with_ks else []), agg_rows),
    ]
    if with_ks:
        tables.append(("ks.csv", ["condition", "repeat", "variable", "d", "p_value",
                                  "stars"], ks_rows))
    headers = ["k", "MSE", "MAPE"] + (["K-S vs full data"] if with_ks else [])
    summary = title + "\n\n" + _render_table(headers, table_rows) + "\n"
    failures = sum(1 for t in trials if t.metrics is None)
    if failures:
        summary += f"\nFailed trials: {failures} (see report.csv)\n"
    return RunResult(summary, tables,
                     {_archive_name(t.condition, t.repeat): t.reasoning + "\n"
                      for t in trials if t.reasoning})


def run_zero_shot(config: ExperimentConfig) -> str:
    """Score every record in the dataset with no labeled examples: the k = 0
    plan with the whole dataset as the queries."""
    def body(config, dataset):
        # k = 0 never draws support, so the train side of each split is unused
        trials = _plan_trials(config, (0,), [(dataset, dataset)] * config.repeats, None)
        return _sweep_result(config, dataset, "Zero-shot prediction", trials,
                             with_ks=False)
    return _run(config, "zeroshot", body)


def _run_support_sweep(config: ExperimentConfig, selection: str) -> str:
    """Shared few-shot sweep over support sizes.

    selection "similarity" ranks support by mean similarity to the query
    set, once per split, taking each k as a prefix of that ranking;
    "random" draws it uniformly per repeat and adds per-variable K-S
    screening against the full dataset.
    """
    def body(config, dataset):
        if config.vary_split:
            splits = [split(dataset, config.train_fraction, seed=config.seed + repeat)
                      for repeat in range(1, config.repeats + 1)]
        else:
            splits = [split(dataset, config.train_fraction, seed=config.seed)] * config.repeats
        if selection == "similarity":
            spec = fit_encoding(dataset)
            orders: dict[int, list[int]] = {}

            def pick(train, test, k, repeat):
                if id(train) not in orders:
                    orders[id(train)] = rank_order(train, test, spec)
                return top_support(train, orders[id(train)], k)

            title = "Few-shot sweep (similarity-ranked support)"
        else:
            def pick(train, test, k, repeat):
                return random_support(train, k, seed=config.seed * 10007 + k * 101 + repeat)

            title = "Few-shot sweep (random support)"
        trials = _plan_trials(config, config.support_sizes, splits, pick)
        return _sweep_result(config, dataset, title, trials,
                             with_ks=selection == "random")
    experiment = "fewshot" if selection == "similarity" else "random-fewshot"
    return _run(config, experiment, body)


def run_few_shot_sweep(config: ExperimentConfig) -> str:
    return _run_support_sweep(config, "similarity")


def run_random_sweep(config: ExperimentConfig) -> str:
    return _run_support_sweep(config, "random")


def _baseline_result(config: ExperimentConfig, dataset: Dataset) -> RunResult:
    all_rows: list[Sequence] = []
    agg_rows: list[Sequence] = []
    table_rows: list[Sequence[str]] = []
    for kind in ("lr", "gbdt"):
        results = fraction_sweep(dataset, config.fractions, kind,
                                 seed=config.seed, repeats=config.repeats,
                                 hyper=config.gbdt)
        all_rows += [[kind, format(r.fraction, "g"), r.repeat, r.status,
                      _fmt(r.metrics.mse if r.metrics else None),
                      _fmt(r.metrics.mape if r.metrics else None)] for r in results]
        # fraction-major, config.repeats cells per fraction
        for cell in batched(results, config.repeats):
            aggregate, table = _group_rows([kind, format(cell[0].fraction, "g")],
                                           [r.metrics for r in cell])
            agg_rows.append(aggregate)
            table_rows.append(table)
    rendered = _render_table(["model", "fraction", "MSE", "MAPE"], table_rows)
    return RunResult(f"Baseline sweep over train fractions\n\n{rendered}\n", [
        ("baseline.csv", ["model", "fraction", "repeat", "status", "mse", "mape"], all_rows),
        ("baseline_aggregate.csv", ["model", "fraction", *_AGGREGATE_COLUMNS], agg_rows)])


def run_baseline_sweep(config: ExperimentConfig) -> str:
    """LR and GBDT across train fractions, repeats aggregated per cell."""
    return _run(config, "baseline-sweep", _baseline_result)


def _importance_result(config: ExperimentConfig, dataset: Dataset) -> RunResult:
    spec = fit_encoding(dataset)
    train, test = split(dataset, config.train_fraction, seed=config.seed)
    probe = tuple(test.records[:config.batch_size])
    support = rank_support(train, test, spec, config.best_k)
    repeats = range(1, config.repeats + 1)
    # one single-batch trial per (repeat, prompt kind); cache slots
    # repeat * 10 and 100000 + repeat * 10
    asked = {"zero_shot": ((), 0), "few_shot": (support, 10000)}
    trials = [Trial(name, repeat, support_set, [probe], (base + repeat) * 10,
                    importance=True)
              for repeat in repeats for name, (support_set, base) in asked.items()]

    vectors: dict[str, list[dict[str, float]]] = {
        "zero_shot": [], "few_shot": [], "gbdt": []}
    failures: list[str] = []
    for trial, (outcome,) in zip(trials, _execute(config, dataset.schema, trials)):
        if isinstance(outcome, TravelSatError):
            failures.append(f"{trial.condition} repeat {trial.repeat}: {outcome}")
        else:
            vectors[trial.condition].append(outcome[1].importances)
    hyper = dataclasses.replace(config.gbdt, subsample=config.importance_subsample)
    gains = fit_gbdt_repeats(encode_matrix(train, spec), train.labels(),
                             [config.seed + repeat for repeat in repeats], hyper=hyper)
    labels = spec.column_variables()
    vectors["gbdt"] = [importance_gbdt(column_gains, labels) for column_gains in gains]

    usable = {m: v for m, v in vectors.items() if len(v) >= 2}
    skipped = sorted(set(vectors) - set(usable))
    comparison = compare_importances(usable) if len(usable) >= 2 else None

    tables = [("importance.csv", ["model", "repeat", "variable", "weight"],
               [[model, i + 1, var, f"{vec[var]:.6f}"]
                for model, vecs in vectors.items()
                for i, vec in enumerate(vecs)
                for var in vec])]
    lines = ["Variable importance study", ""]
    if comparison is not None:
        test_rows = []
        for (model_a, model_b), grid in comparison.tests.items():
            for var in comparison.variables:
                t = grid[var]
                test_rows.append([model_a, model_b, var,
                                  f"{t.mean_a:.6f}", f"{t.mean_b:.6f}",
                                  _fmt(t.t), _fmt(t.p_value), t.stars, t.note])
        tables.append(("importance_tests.csv",
                       ["model_a", "model_b", "variable", "mean_a", "mean_b",
                        "t", "p_value", "stars", "note"], test_rows))
        mean_rows = [[var] + [f"{comparison.model_means[m][var]:.4f}"
                              for m in usable] for var in comparison.variables]
        lines.append(_render_table(["variable", *usable], mean_rows))
        lines.append("")
        for (model_a, model_b), grid in comparison.tests.items():
            flagged = [f"{v}{grid[v].stars}" for v in comparison.variables
                       if grid[v].stars]
            noted = [v for v in comparison.variables if grid[v].note]
            lines.append(f"{model_a} vs {model_b}: "
                         + ("; ".join(flagged) if flagged else "no significant differences")
                         + (f" (deterministic difference: {', '.join(noted)})" if noted else ""))
    if skipped:
        lines.append("insufficient repeats for: " + ", ".join(skipped))
    if failures:
        lines.append("")
        lines.append("Failed importance requests:")
        lines.extend(f"  {f}" for f in failures)
    return RunResult("\n".join(lines) + "\n", tables)


def run_importance_study(config: ExperimentConfig) -> str:
    """Variable-importance comparison: zero-shot and few-shot LLM weights
    against GBDT split gains, with pairwise Welch tests per variable."""
    if config.repeats < 2:
        raise DatasetError("importance study needs repeats >= 2")
    return _run(config, "importance", _importance_result)


def write_plot_script(out: Path) -> Path | None:
    """Emit a gnuplot script for baseline_aggregate.csv, when present."""
    source = out / "baseline_aggregate.csv"
    if not source.exists():
        return None
    script = "\n".join([
        "set datafile separator ','",
        "set xlabel 'train fraction'",
        "set ylabel 'MSE'",
        "set key outside",
        "plot '< grep ^lr baseline_aggregate.csv' using 2:5 with linespoints title 'LR', \\",
        "     '< grep ^gbdt baseline_aggregate.csv' using 2:5 with linespoints title 'GBDT'",
    ]) + "\n"
    path = out / "plot.gp"
    path.write_text(script, encoding="utf-8")
    return path


def render_report(out_dir) -> str:
    """Re-read artifacts in a run directory and return its summary text."""
    out = Path(out_dir)
    summary = out / "summary.txt"
    if not summary.exists():
        raise DatasetError(f"{out}: no summary.txt; not a run directory?")
    write_plot_script(out)
    return summary.read_text(encoding="utf-8")
