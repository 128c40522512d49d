"""Self-tests for the benchmark's own machinery.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import time
import types

import pytest

from conftest import BENCH, REPO

import run
import worker
from backend import CountingBackend
from layers import FUNCTIONS, METHODS, PER_LAYER, LayerProbe
from tracer import TraceError, Tracer

import travelsat.experiments  # noqa: F401  (loads every layer module)


def _bindings(obj):
    return [(name, attr) for name, mod in list(sys.modules.items())
            if name == "travelsat" or name.startswith("travelsat.")
            for attr, value in vars(mod).items() if value is obj]


def test_tracer_replaces_every_binding():
    originals = {(m, f): getattr(sys.modules[m], f) for m, f, _ in FUNCTIONS}
    # experiments imports these by name; a wrap of the defining module alone
    # would miss its calls
    assert len(_bindings(originals["travelsat.baselines", "fit_gbdt"])) >= 2
    probe = LayerProbe()
    probe.install()
    try:
        for (module, name), original in originals.items():
            assert _bindings(original) == [], f"{module}.{name} still bound"
            wrapped = getattr(sys.modules[module], name)
            assert wrapped.__wrapped__ is original
        exp = sys.modules["travelsat.experiments"]
        assert exp.fit_gbdt is sys.modules["travelsat.baselines"].fit_gbdt
        for module, cls, name, _ in METHODS:
            method = vars(getattr(sys.modules[module], cls))[name]
            assert hasattr(method, "__wrapped__"), f"{cls}.{name} not wrapped"
    finally:
        probe.tracer.uninstall()
    for (module, name), original in originals.items():
        assert getattr(sys.modules[module], name) is original


def test_missing_name_fails_the_trace():
    tracer = Tracer()
    with pytest.raises(TraceError):
        tracer.wrap_function("travelsat.baselines", "no_such_function", "x")
    with pytest.raises(TraceError):
        tracer.wrap_method("travelsat.client", "LlmClient", "no_such_method", "x")
    with pytest.raises(TraceError):
        tracer.wrap_method("travelsat.client", "NoSuchClass", "get", "x")


def test_tracer_times_a_known_sleep(monkeypatch):
    fake = types.ModuleType("sleepers")
    fake.nap = lambda seconds: time.sleep(seconds)
    monkeypatch.setitem(sys.modules, "sleepers", fake)
    tracer = Tracer(package="sleepers")
    assert tracer.wrap_function("sleepers", "nap", "sleepers.nap") == 1
    for _ in range(3):
        fake.nap(0.05)
    stat = tracer.stats["sleepers.nap"]
    assert stat.calls == 3
    assert 0.15 <= stat.busy_s < 0.15 + 0.05
    assert stat.main_top_s == stat.busy_s == tracer.main_covered_s


def test_counting_backend_injects_fixed_latency():
    class Prompt:
        token_estimate = 7

    class Inner:
        def complete(self, prompt, params):
            return "ok"

    backend = CountingBackend(Inner(), delay_s=0.02)
    assert [backend.complete(Prompt(), None) for _ in range(5)] == ["ok"] * 5
    assert backend.calls == 5
    assert backend.prompt_tokens == 35
    assert backend.injected_wait_s == pytest.approx(5 * 0.02, rel=0.25)
    assert backend.inflight_area == pytest.approx(backend.injected_wait_s, rel=0.25)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == [tuple(m) for m in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [tuple(m) for m in PER_LAYER]


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_tiny_smoke_run(name, monkeypatch):
    monkeypatch.chdir(REPO)
    result = run.run_workload(name, seed=1, seconds=0, trace=True, n=40)
    assert result["correct"], result["problems"]
    assert 0 <= result["failed"] <= result["attempted"]
    if name != "baselines":
        # at n=40 every LR cell is short of rows, so baselines fails some
        assert result["failed"] == 0
    assert set(result["metrics"]) == {m for m, _, _ in run.END_TO_END}
    assert set(result["layers"]) == {m for m, _, _ in PER_LAYER}
    assert all(v > 0 for k, v in result["metrics"].items())
    layers = result["layers"]
    if name == "llm-latency":
        assert layers["client.injected_wait_s"] == pytest.approx(
            run.LATENCY_S * layers["client.requests"], rel=0.05)
    if name == "llm-rerun":
        assert layers["client.requests"] == 0
        assert layers["client.cache.hit_ratio"] == 1.0
    json.loads(run.contract_line(result, trace=True))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "baselines",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_only_justified_rank_refusals_are_not_failures(tmp_path, monkeypatch):
    from travelsat.dataset import save_survey
    from travelsat.experiments import ExperimentConfig
    from travelsat.synthesize import synthesize
    monkeypatch.chdir(tmp_path)
    save_survey(synthesize(874, seed=0, label_rule="linear", noise=0.2),
                tmp_path / "survey.csv")
    out = tmp_path / "baseline-sweep"
    out.mkdir()
    refused = "failed: design matrix is rank deficient; dependent columns: x"
    # at seed 0 the LR design of the 0.1 fold is rank deficient, that of
    # the 0.9 fold is not
    rows = [("lr", "0.1", refused, "", ""), ("lr", "0.9", refused, "", ""),
            ("gbdt", "0.1", refused, "", ""), ("gbdt", "0.9", "ok", "0.5", "0.2")]
    (out / "baseline.csv").write_text(
        "model,fraction,repeat,status,mse,mape\n"
        + "".join(f"{m},{f},0,{st},{mse},{mape}\n" for m, f, st, mse, mape in rows))
    tally = worker.Tally()
    worker.check_outputs("baseline-sweep", out, ExperimentConfig(data_path="survey.csv"),
                         874, tally)
    assert (tally.attempted, tally.ok, tally.refused, tally.failed) == (4, 1, 1, 2)
    assert tally.items == 2
