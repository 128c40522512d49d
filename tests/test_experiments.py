import csv
import dataclasses
import json
from pathlib import Path

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from travelsat.baselines import GbdtHyper, fraction_sweep
from travelsat.client import API_KEY_ENV, LlmClient, LlmParams, LlmResponse
from travelsat.errors import DatasetError
from travelsat.experiments import (
    DEFAULT_FRACTIONS,
    DEFAULT_SUPPORT_SIZES,
    ExperimentConfig,
    MockSpec,
    SyntheticSpec,
    config_from_dict,
    load_config,
    load_dataset,
    render_report,
    run_baseline_sweep,
    run_few_shot_sweep,
    run_importance_study,
    run_random_sweep,
    run_zero_shot,
)
from travelsat.mock import ScriptedMock
from travelsat.prompting import LABEL_LINE


def _fast_config(tmp_path, name, **overrides):
    base = dict(
        synthetic=SyntheticSpec(n=60, seed=7, noise=0.2),
        support_sizes=(0, 3, 6),
        repeats=2,
        seed=1,
        gbdt=dataclasses.replace(ExperimentConfig().gbdt, n_trees=20),
        fractions=(0.5, 0.8),
        out_dir=str(tmp_path / name),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _read_csv(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_config_defaults():
    config = ExperimentConfig()
    assert config.support_sizes == DEFAULT_SUPPORT_SIZES == (0, 3, 6, 9, 12, 15, 18)
    assert config.fractions == DEFAULT_FRACTIONS
    assert config.repeats == 3
    assert config.llm.temperature == 0.7
    assert config.mock == MockSpec()  # offline by default
    assert config.mock.mode == "nn"


def test_config_validation():
    for bad in (dict(repeats=0), dict(train_fraction=0.0), dict(train_fraction=1.0),
                dict(support_sizes=(-1,)), dict(batch_size=0), dict(best_k=0),
                dict(importance_subsample=0.0), dict(support_sizes=()),
                dict(support_sizes=(3, 3)), dict(fractions=()), dict(fractions=(0.5, 0.5))):
        with pytest.raises(DatasetError):
            ExperimentConfig(**bad)


def test_config_round_trip_through_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "synthetic": {"n": 50, "seed": 3},
        "support_sizes": [0, 6],
        "repeats": 2,
        "mock": {"rule": "linear", "mode": "rule"},
        "llm": {"temperature": 0.9},
        "gbdt": {"n_trees": 10},
        "out_dir": "somewhere",
    }), encoding="utf-8")
    config = load_config(path)
    assert config.synthetic.n == 50
    assert config.support_sizes == (0, 6)
    assert config.mock.mode == "rule"
    assert config.llm.temperature == 0.9
    assert config.gbdt.n_trees == 10


def test_config_live_when_mock_null(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"mock": None}), encoding="utf-8")
    assert load_config(path).mock is None


def test_config_unknown_key_rejected():
    with pytest.raises(DatasetError) as excinfo:
        config_from_dict({"surprise": 1})
    assert "surprise" in str(excinfo.value)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=2)),
    max_leaves=6)


def _json_object(cls, values):
    names = [f.name for f in dataclasses.fields(cls)]
    return st.dictionaries(st.sampled_from(names), values, max_size=len(names))


SPEC_OBJECTS = st.one_of(*(_json_object(cls, JSON_VALUES) for cls in
                           (SyntheticSpec, MockSpec, LlmParams, GbdtHyper)))


@settings(max_examples=300, deadline=None)
@given(payload=_json_object(ExperimentConfig, JSON_VALUES | SPEC_OBJECTS))
def test_config_from_any_json_builds_or_raises_dataset_error(payload):
    try:
        config = config_from_dict(payload)
    except DatasetError as exc:
        assert str(exc).startswith("config")
    else:
        assert isinstance(config, ExperimentConfig)
        assert config.content_hash() == config_from_dict(payload).content_hash()


def test_config_bad_json_and_bad_fields(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{nope", encoding="utf-8")
    with pytest.raises(DatasetError):
        load_config(broken)
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"synthetic": {"n": 10, "bogus": 1}}),
                     encoding="utf-8")
    with pytest.raises(DatasetError):
        load_config(wrong)


def test_content_hash_ignores_environment_knobs(tmp_path):
    a = _fast_config(tmp_path, "a")
    b = dataclasses.replace(a, out_dir="elsewhere", cache_dir="also_elsewhere",
                            max_in_flight=9)
    assert a.content_hash() == b.content_hash()
    c = dataclasses.replace(a, seed=99)
    assert c.content_hash() != a.content_hash()


def test_load_dataset_synthetic_and_file(tmp_path):
    config = _fast_config(tmp_path, "x")
    synthetic = load_dataset(config)
    assert len(synthetic) == 60
    from travelsat.dataset import save_survey
    csv_path = tmp_path / "survey.csv"
    save_survey(synthetic, csv_path)
    from_file = load_dataset(dataclasses.replace(config, data_path=str(csv_path)))
    assert from_file.records == synthetic.records


def test_zero_shot_artifacts(tmp_path):
    config = _fast_config(tmp_path, "zs")
    run_zero_shot(config)
    out = Path(config.out_dir)
    rows = _read_csv(out / "report.csv")
    assert len(rows) == 2  # one per repeat
    assert all(r["condition"] == "0 (zero-shot)" and r["status"] == "ok"
               for r in rows)
    agg = _read_csv(out / "aggregate.csv")
    assert len(agg) == 1
    assert agg[0]["repeats_ok"] == "2"
    summary = (out / "summary.txt").read_text("utf-8")
    assert "Zero-shot prediction" in summary
    assert (out / "provenance.json").exists()
    reasoning = sorted(p.name for p in (out / "reasoning").iterdir())
    assert reasoning == ["0_zero-shot_rep1.txt", "0_zero-shot_rep2.txt"]


def _archives(conditions, repeats=2):
    return {f"reasoning/{c}_rep{r}.txt" for c in conditions
            for r in range(1, repeats + 1)}


# every file each subcommand writes under --out, as the README lists them
MANIFESTS = {
    "zeroshot": (run_zero_shot,
                 {"report.csv", "aggregate.csv", "summary.txt", "provenance.json"}
                 | _archives(["0_zero-shot"])),
    "fewshot": (run_few_shot_sweep,
                {"report.csv", "aggregate.csv", "summary.txt", "provenance.json"}
                | _archives(["0_zero-shot", "3", "6"])),
    "random-fewshot": (run_random_sweep,
                       {"report.csv", "aggregate.csv", "ks.csv", "summary.txt",
                        "provenance.json"} | _archives(["0_zero-shot", "3", "6"])),
    "baseline-sweep": (run_baseline_sweep,
                       {"baseline.csv", "baseline_aggregate.csv", "summary.txt",
                        "provenance.json"}),
    "importance": (run_importance_study,
                   {"importance.csv", "importance_tests.csv", "summary.txt",
                    "provenance.json"}),
}


@pytest.mark.parametrize("subcommand", sorted(MANIFESTS))
def test_run_writes_exactly_its_manifest(tmp_path, subcommand):
    run, expected = MANIFESTS[subcommand]
    config = _fast_config(tmp_path, subcommand)
    summary = run(config)
    out = Path(config.out_dir)
    assert summary == (out / "summary.txt").read_text("utf-8")
    written = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
    assert written == expected
    provenance = json.loads((out / "provenance.json").read_text("utf-8"))
    assert provenance["experiment"] == subcommand


def test_run_with_nothing_to_archive_has_no_reasoning_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(ScriptedMock, "complete",
                        lambda self, prompt, params: LlmResponse(content="no scores here"))
    config = _fast_config(tmp_path, "allfail", repeats=1)
    run_zero_shot(config)
    out = Path(config.out_dir)
    assert [r["status"][:7] for r in _read_csv(out / "report.csv")] == ["failed:"]
    assert not (out / "reasoning").exists()


def test_zero_shot_single_repeat_has_na_std(tmp_path):
    config = _fast_config(tmp_path, "zs1", repeats=1)
    run_zero_shot(config)
    agg = _read_csv(Path(config.out_dir) / "aggregate.csv")
    assert agg[0]["mse_std"] == "n/a"
    assert agg[0]["mape_std"] == "n/a"
    summary = (Path(config.out_dir) / "summary.txt").read_text("utf-8")
    assert "(n/a)" in summary


def test_few_shot_sweep_artifacts(tmp_path):
    config = _fast_config(tmp_path, "fs")
    run_few_shot_sweep(config)
    out = Path(config.out_dir)
    rows = _read_csv(out / "report.csv")
    assert len(rows) == 3 * 2  # conditions x repeats
    agg = _read_csv(out / "aggregate.csv")
    assert [r["condition"] for r in agg] == ["0 (zero-shot)", "3", "6"]
    assert "ks_flags" not in agg[0]
    assert not (out / "ks.csv").exists()
    # nn mock: labeled examples must help
    by_condition = {r["condition"]: float(r["mse_mean"]) for r in agg}
    assert by_condition["6"] < by_condition["0 (zero-shot)"]


def test_few_shot_provenance(tmp_path):
    config = _fast_config(tmp_path, "prov")
    run_few_shot_sweep(config)
    payload = json.loads((Path(config.out_dir) / "provenance.json").read_text("utf-8"))
    assert payload["experiment"] == "fewshot"
    assert payload["config_hash"] == config.content_hash()
    assert payload["dataset"]["n"] == 60
    assert payload["dataset"]["source"] == "synthetic"
    assert "out_dir" not in payload["config"]
    assert len(payload["schema_fingerprint"]) == 64


def test_random_sweep_adds_ks_screening(tmp_path):
    config = _fast_config(tmp_path, "rnd")
    run_random_sweep(config)
    out = Path(config.out_dir)
    agg = _read_csv(out / "aggregate.csv")
    assert agg[0]["condition"] == "0 (zero-shot)"
    assert agg[0]["ks_flags"] == "n/a"
    for row in agg[1:]:
        assert row["ks_flags"] == "ns" or row["ks_flags"].endswith(")")
    ks = _read_csv(out / "ks.csv")
    # 2 non-zero conditions x 2 repeats x 17 predictors
    assert len(ks) == 2 * 2 * 17
    assert {r["condition"] for r in ks} == {"3", "6"}
    for r in ks:
        assert 0.0 <= float(r["d"]) <= 1.0
        assert 0.0 <= float(r["p_value"]) <= 1.0
    summary = (out / "summary.txt").read_text("utf-8")
    assert "K-S vs full data" in summary


def test_sweep_artifacts_are_reproducible(tmp_path):
    config_a = _fast_config(tmp_path, "rep_a")
    config_b = dataclasses.replace(config_a, out_dir=str(tmp_path / "rep_b"))
    run_few_shot_sweep(config_a)
    run_few_shot_sweep(config_b)
    a, b = Path(config_a.out_dir), Path(config_b.out_dir)
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def test_vary_split_changes_repeat_draws(tmp_path):
    fixed = _fast_config(tmp_path, "fixed", support_sizes=(0,))
    run_few_shot_sweep(fixed)
    rows = _read_csv(Path(fixed.out_dir) / "report.csv")
    assert rows[0]["mse"] == rows[1]["mse"]  # same split, deterministic mock

    varied = _fast_config(tmp_path, "varied", support_sizes=(0,), vary_split=True)
    run_few_shot_sweep(varied)
    rows = _read_csv(Path(varied.out_dir) / "report.csv")
    assert rows[0]["mse"] != rows[1]["mse"]


def test_cache_warm_run_issues_no_backend_calls(tmp_path, monkeypatch):
    calls = {"n": 0}
    original = ScriptedMock.complete

    def counting(self, prompt, params):
        calls["n"] += 1
        return original(self, prompt, params)

    monkeypatch.setattr(ScriptedMock, "complete", counting)
    cache_dir = str(tmp_path / "cache")
    first = _fast_config(tmp_path, "cold", cache_dir=cache_dir)
    run_few_shot_sweep(first)
    cold_calls = calls["n"]
    assert cold_calls > 0

    second = dataclasses.replace(first, out_dir=str(tmp_path / "warm"))
    run_few_shot_sweep(second)
    assert calls["n"] == cold_calls  # every response came from the cache

    # and the warm run writes the same artifacts
    cold_summary = (Path(first.out_dir) / "summary.txt").read_bytes()
    warm_summary = (Path(second.out_dir) / "summary.txt").read_bytes()
    assert cold_summary == warm_summary


def test_run_writes_each_block_once_and_renders_once_per_request(tmp_path, monkeypatch):
    import travelsat.client as client_module
    import travelsat.experiments as experiments
    import travelsat.prompting as prompting

    cache_dir = str(tmp_path / "cache")
    cold = _fast_config(tmp_path, "cold", cache_dir=cache_dir)
    run_few_shot_sweep(cold)
    # warm: every reply comes from the cache, so the mock, which re-writes
    # each block it reads, writes none; every block written is a render's
    written: list = []
    renders = {"n": 0}
    requests = {"n": 0}
    write_block = prompting._write_block

    def counting_write(record, layout, label):
        written.append((record, any(var is label for _, var, _ in layout)))
        return write_block(record, layout, label)

    def counting(render):
        def wrapper(*args, **kwargs):
            renders["n"] += 1
            return render(*args, **kwargs)
        return wrapper

    # the client computes one cache key per request, as it looks the request up
    key = client_module.cache_key

    def counting_request(params, prompt, trial_index):
        requests["n"] += 1
        return key(params, prompt, trial_index)

    monkeypatch.setattr(prompting, "_write_block", counting_write)
    monkeypatch.setattr(experiments, "render_few_shot", counting(prompting.render_few_shot))
    monkeypatch.setattr(experiments, "render_zero_shot", counting(prompting.render_zero_shot))
    monkeypatch.setattr(client_module, "cache_key", counting_request)
    monkeypatch.setattr(ScriptedMock, "complete", None)
    warm = dataclasses.replace(cold, out_dir=str(tmp_path / "warm"))
    run_few_shot_sweep(warm)
    assert renders["n"] == requests["n"] > 0
    keys = [(id(record), with_label) for record, with_label in written]
    assert len(keys) == len(set(keys))
    assert {with_label for _, with_label in written} == {False, True}
    assert (Path(warm.out_dir) / "summary.txt").read_bytes() == \
        (Path(cold.out_dir) / "summary.txt").read_bytes()


def _first_query_id(config):
    from travelsat.dataset import split
    _, test = split(load_dataset(config), config.train_fraction, seed=config.seed)
    return test.records[0].record_id


def test_unparseable_reply_is_resent_at_next_slot(tmp_path, monkeypatch):
    config = _fast_config(tmp_path, "resend", support_sizes=(0, 3), repeats=1)
    target = f"Traveler {_first_query_id(config)}\n"
    original = ScriptedMock.complete
    served: list[str] = []

    def garbled_once(self, prompt, params):
        if target in prompt.user_text and prompt.user_text not in served:
            served.append(prompt.user_text)
            return LlmResponse(content="no scores here")
        return original(self, prompt, params)

    slots = []
    complete_many = LlmClient.complete_many

    def recording(self, jobs):
        def seen():
            for prompt, trial_index in jobs:
                if target in prompt.user_text:
                    slots.append(trial_index)
                yield prompt, trial_index
        return complete_many(self, seen())

    monkeypatch.setattr(ScriptedMock, "complete", garbled_once)
    monkeypatch.setattr(LlmClient, "complete_many", recording)
    run_few_shot_sweep(config)
    rows = _read_csv(Path(config.out_dir) / "report.csv")
    assert [r["status"] for r in rows] == ["ok", "ok"]
    # k = 0 sends at slot 10, k = 3 (k_index 1) at 10010; each retry at slot + 1
    assert sorted(slots) == [10, 11, 10010, 10011]


def test_failing_batch_fails_only_its_trial(tmp_path, monkeypatch):
    config = _fast_config(tmp_path, "onefail", support_sizes=(0, 3, 6), repeats=1)
    target = f"Traveler {_first_query_id(config)}\n"
    original = ScriptedMock.complete
    calls = {"bad": 0}

    def broken_at_k3(self, prompt, params):
        if target in prompt.user_text and prompt.user_text.count(LABEL_LINE) == 3:
            calls["bad"] += 1
            return LlmResponse(content="no scores here")
        return original(self, prompt, params)

    monkeypatch.setattr(ScriptedMock, "complete", broken_at_k3)
    summary = run_few_shot_sweep(config)
    rows = _read_csv(Path(config.out_dir) / "report.csv")
    assert [r["condition"] for r in rows] == ["0 (zero-shot)", "3", "6"]
    assert rows[1]["status"].startswith("failed:")
    assert rows[0]["status"] == rows[2]["status"] == "ok"
    assert calls["bad"] == 2  # the batch and its one retry
    assert "Failed trials: 1" in summary


def test_baseline_sweep_artifacts(tmp_path):
    config = _fast_config(tmp_path, "base")
    run_baseline_sweep(config)
    out = Path(config.out_dir)
    rows = _read_csv(out / "baseline.csv")
    assert len(rows) == 2 * 2 * 2  # models x fractions x repeats
    assert {r["model"] for r in rows} == {"lr", "gbdt"}
    agg = _read_csv(out / "baseline_aggregate.csv")
    assert len(agg) == 2 * 2
    assert [r["fraction"] for r in agg] == ["0.5", "0.8", "0.5", "0.8"]
    summary = (out / "summary.txt").read_text("utf-8")
    assert "Baseline sweep over train fractions" in summary
    assert (out / "provenance.json").exists()


def test_baseline_sweep_reports_failed_cells(tmp_path, dense_marginals_file):
    # 45-column design cannot fit on 0.1 * 150 = 15 rows: cell fails, sweep runs
    config = _fast_config(
        tmp_path, "basefail", fractions=(0.1, 0.8), repeats=1,
        synthetic=SyntheticSpec(n=150, seed=7, noise=0.2,
                                marginals_path=str(dense_marginals_file)))
    run_baseline_sweep(config)
    agg = _read_csv(Path(config.out_dir) / "baseline_aggregate.csv")
    lr = {r["fraction"]: r for r in agg if r["model"] == "lr"}
    assert set(lr) == {"0.1", "0.8"}
    assert lr["0.1"]["failures"] == "1" and lr["0.1"]["mse_mean"] == ""
    assert lr["0.8"]["failures"] == "0"
    summary = (Path(config.out_dir) / "summary.txt").read_text("utf-8")
    assert "failed" in summary


def test_refused_lr_cell_reads_back_as_one_cell(tmp_path):
    # 60 training rows miss some rare categorical levels: LR is refused with
    # a RankError whose status names several columns, commas between them
    config = _fast_config(tmp_path, "rank", fractions=(0.3,), repeats=1,
                          synthetic=SyntheticSpec(n=200, seed=7, noise=0.2))
    run_baseline_sweep(config)
    with open(Path(config.out_dir) / "baseline.csv", newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    assert all(len(row) == len(header) for row in rows)
    lr = [dict(zip(header, row)) for row in rows if row[0] == "lr"]
    [expected] = fraction_sweep(load_dataset(config), (0.3,), "lr", seed=config.seed,
                                repeats=1)
    assert expected.status.startswith("failed: design matrix is rank deficient")
    assert expected.status.count(",") >= 2
    assert [r["status"] for r in lr] == [expected.status]
    assert lr[0]["mse"] == lr[0]["mape"] == ""


def test_importance_study_artifacts(tmp_path):
    config = _fast_config(tmp_path, "imp", repeats=2)
    run_importance_study(config)
    out = Path(config.out_dir)
    imp = _read_csv(out / "importance.csv")
    assert {r["model"] for r in imp} == {"zero_shot", "few_shot", "gbdt"}
    assert len(imp) == 3 * 2 * 17  # models x repeats x variables
    tests = _read_csv(out / "importance_tests.csv")
    assert {(r["model_a"], r["model_b"]) for r in tests} == {
        ("zero_shot", "few_shot"), ("zero_shot", "gbdt"), ("few_shot", "gbdt")}
    assert len(tests) == 3 * 17
    summary = (out / "summary.txt").read_text("utf-8")
    assert "Variable importance study" in summary
    assert "zero_shot vs few_shot" in summary


def test_misnamed_importance_reply_fails_only_its_requests(tmp_path, monkeypatch):
    original = ScriptedMock.complete

    def misnaming(self, prompt, params):
        response = original(self, prompt, params)
        return dataclasses.replace(response, content=response.content.replace(
            "\ncommuting time=", "\ncommute time="))

    monkeypatch.setattr(ScriptedMock, "complete", misnaming)
    config = _fast_config(tmp_path, "misnamed", repeats=2)
    summary = run_importance_study(config)
    failed = summary.split("Failed importance requests:\n")[1].splitlines()
    assert [line.split(":")[0] for line in failed] == [
        "  zero_shot repeat 1", "  few_shot repeat 1",
        "  zero_shot repeat 2", "  few_shot repeat 2"]
    assert all("variable mismatch" in line and "commute_time" in line for line in failed)
    assert "insufficient repeats for: few_shot, zero_shot" in summary
    out = Path(config.out_dir)
    assert {r["model"] for r in _read_csv(out / "importance.csv")} == {"gbdt"}
    assert not (out / "importance_tests.csv").exists()


def test_importance_study_requires_repeats(tmp_path):
    config = _fast_config(tmp_path, "imp1", repeats=1)
    with pytest.raises(DatasetError):
        run_importance_study(config)


def test_render_report_round_trip(tmp_path):
    config = _fast_config(tmp_path, "rr")
    summary = run_baseline_sweep(config)
    rendered = render_report(config.out_dir)
    assert rendered == summary
    assert (Path(config.out_dir) / "plot.gp").exists()
    with pytest.raises(DatasetError):
        render_report(tmp_path / "not_a_run")


def test_render_report_skips_plot_without_baselines(tmp_path):
    config = _fast_config(tmp_path, "rrz")
    run_zero_shot(config)
    render_report(config.out_dir)
    assert not (Path(config.out_dir) / "plot.gp").exists()


class _SurrogateReply:
    status_code = 200

    def json(self):
        # valid JSON that decodes to a lone surrogate, which no file can hold
        return json.loads('{"choices": [{"message": {"content": "\\ud800"}}]}')


@pytest.mark.parametrize("cached", [False, True])
def test_live_reply_without_utf8_form_fails_its_trials(tmp_path, monkeypatch, cached):
    monkeypatch.setenv(API_KEY_ENV, "sk-test")
    monkeypatch.setattr(requests, "post", lambda *args, **kwargs: _SurrogateReply())
    config = _fast_config(tmp_path, "live", mock=None, repeats=1,
                          cache_dir=str(tmp_path / "cache") if cached else None)
    run_zero_shot(config)
    [row] = _read_csv(Path(config.out_dir) / "report.csv")
    assert row["status"].startswith("failed: malformed API response: ")
    assert not (Path(config.out_dir) / "reasoning").exists()
