import json
from pathlib import Path

import pytest

from travelsat.cli import _build_config, build_parser, main
from travelsat.client import HttpChatBackend
from travelsat.dataset import load_survey
from travelsat.experiments import make_client
from travelsat.mock import ScriptedMock
from travelsat.schema import default_schema, spec_to_dict


def _shared_args(tmp_path, name, *extra):
    return ["--out", str(tmp_path / name), "--seed", "1", "--repeats", "2",
            "--batch-size", "20", *extra]


@pytest.fixture()
def survey_csv(tmp_path):
    path = tmp_path / "survey.csv"
    assert main(["synth", "--n", "60", "--seed", "7", "--out", str(path)]) == 0
    return path


def test_synth_writes_csv(tmp_path, capsys):
    out = tmp_path / "deep" / "survey.csv"  # parent directory is created
    assert main(["synth", "--n", "25", "--seed", "3", "--out", str(out)]) == 0
    assert "wrote 25 records" in capsys.readouterr().out
    dataset = load_survey(out)
    assert len(dataset) == 25


def test_synth_rule_flag(tmp_path):
    out = tmp_path / "thresh.csv"
    assert main(["synth", "--n", "20", "--rule", "threshold", "--noise", "0.0",
                 "--out", str(out)]) == 0
    dataset = load_survey(out)
    from travelsat.rules import threshold_rule
    for record in dataset:
        assert record.satisfaction == min(7.0, max(1.0, threshold_rule(record.values)))


def test_zeroshot_command(tmp_path, survey_csv, capsys):
    code = main(["zeroshot", "--data", str(survey_csv),
                 *_shared_args(tmp_path, "zs")])
    assert code == 0
    printed = capsys.readouterr().out
    assert "Zero-shot prediction" in printed
    assert f"artifacts in {tmp_path / 'zs'}" in printed
    assert (tmp_path / "zs" / "report.csv").exists()


def test_fewshot_command(tmp_path, survey_csv):
    code = main(["fewshot", "--data", str(survey_csv),
                 *_shared_args(tmp_path, "fs")])
    assert code == 0
    summary = (tmp_path / "fs" / "summary.txt").read_text("utf-8")
    assert "similarity-ranked support" in summary


def test_random_fewshot_command(tmp_path, survey_csv):
    code = main(["random-fewshot", "--data", str(survey_csv),
                 *_shared_args(tmp_path, "rnd")])
    assert code == 0
    assert (tmp_path / "rnd" / "ks.csv").exists()


def test_baseline_sweep_command(tmp_path, survey_csv):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"fractions": [0.5, 0.8],
                                  "gbdt": {"n_trees": 20}}), encoding="utf-8")
    code = main(["baseline-sweep", "--config", str(config),
                 "--data", str(survey_csv), *_shared_args(tmp_path, "base")])
    assert code == 0
    assert (tmp_path / "base" / "baseline_aggregate.csv").exists()


def test_importance_command(tmp_path, survey_csv):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"gbdt": {"n_trees": 20}}), encoding="utf-8")
    code = main(["importance", "--config", str(config),
                 "--data", str(survey_csv), *_shared_args(tmp_path, "imp")])
    assert code == 0
    assert (tmp_path / "imp" / "importance_tests.csv").exists()


def test_report_command(tmp_path, survey_csv, capsys):
    main(["zeroshot", "--data", str(survey_csv), *_shared_args(tmp_path, "zs")])
    capsys.readouterr()
    assert main(["report", "--out", str(tmp_path / "zs")]) == 0
    assert "Zero-shot prediction" in capsys.readouterr().out


def test_cli_errors_exit_2(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{nope", encoding="utf-8")
    code = main(["fewshot", "--config", str(broken),
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert "error:" in capsys.readouterr().err

    code = main(["report", "--out", str(tmp_path / "missing")])
    assert code == 2


def test_cli_missing_data_file_exit_2(tmp_path, capsys):
    code = main(["zeroshot", "--data", str(tmp_path / "ghost.csv"),
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_missing_config_and_schema_exit_2(tmp_path, capsys):
    assert main(["fewshot", "--config", str(tmp_path / "ghost.json"),
                 "--out", str(tmp_path / "x")]) == 2
    assert main(["zeroshot", "--schema", str(tmp_path / "ghost.json"),
                 "--out", str(tmp_path / "x")]) == 2
    assert main(["synth", "--marginals", str(tmp_path / "ghost.json"),
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err.count("error:") == 3


@pytest.mark.parametrize("args", [
    ["synth", "--n", "20", "--out", "{dir}"],
    ["zeroshot", "--out", "{file}"],
    ["zeroshot", "--cache", "{file}", "--out", "{dir}/run"],
], ids=["synth-out-is-a-directory", "out-is-a-file", "cache-is-a-file"])
def test_unwritable_output_path_exits_2(tmp_path, capsys, args):
    taken = tmp_path / "taken"
    taken.write_text("kept", encoding="utf-8")
    assert main([arg.format(dir=tmp_path, file=taken) for arg in args]) == 2
    assert "error:" in capsys.readouterr().err
    assert taken.read_text(encoding="utf-8") == "kept"


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("payload, where", [
    ({"llm": {"temperature": 9}}, "config.llm:"),
    ({"max_in_flight": 0}, "config:"),
    ({"synthetic": None}, "config.synthetic:"),
    ({"llm": None}, "config.llm:"),
    ({"gbdt": None}, "config.gbdt:"),
    ({"seed": -1}, "config:"),
    ({"synthetic": {"seed": -1}}, "seed must be non-negative"),
    ({"synthetic": {"n": "x"}}, "config.synthetic.n:"),
    ({"repeats": 2.5}, "config.repeats:"),
    ({"support_sizes": [0, 3.5]}, "config.support_sizes[1]:"),
    ({"batch_size": 2.5}, "config.batch_size:"),
    ({"fractions": [NAN]}, "config.fractions[0]:"),
    ({"llm": {"request_timeout": NAN}}, "config.llm.request_timeout:"),
    ({"llm": {"max_output_tokens": INF}}, "config.llm.max_output_tokens:"),
    ({"synthetic": {"noise": NAN}}, "config.synthetic.noise:"),
    ({"seed": 1.5}, "config.seed:"),
    ({"vary_split": 1}, "config.vary_split:"),
    ({"mock": {"rule": "linear", "surprise": 1}}, "config.mock:"),
    ([0, 3], "config:"),
], ids=["temperature", "max_in_flight", "null-synthetic", "null-llm", "null-gbdt",
        "negative-seed", "negative-synthetic-seed", "string-n", "float-repeats",
        "float-support-size", "float-batch-size", "nan-fraction", "nan-timeout",
        "infinite-max-tokens", "nan-noise", "float-seed", "int-flag",
        "unknown-nested-key", "not-an-object"])
def test_bad_config_values_exit_2(tmp_path, capsys, payload, where):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload), encoding="utf-8")
    code = main(["zeroshot", "--config", str(config), *_shared_args(tmp_path, "bad")])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and where in err


def _shipped(name):
    from importlib import resources
    return json.loads(resources.files("travelsat").joinpath(f"resources/{name}")
                      .read_text("utf-8"))


def _schema_with(**age):
    schema = _shipped("default_schema.json")
    schema["predictors"][1].update(age)
    return schema


def _education_with(category):
    # replaces [2, "middle school"], the second of education_level's codes
    schema = _shipped("default_schema.json")
    schema["predictors"][3]["categories"][1] = category
    return schema


def _gender_with(**spec):
    schema = _shipped("default_schema.json")
    schema["predictors"][0].update(spec)
    return schema


def _schema_without(name):
    schema = _shipped("default_schema.json")
    schema["predictors"] = [v for v in schema["predictors"] if v["name"] != name]
    return schema


def _marginals_with(name, **spec):
    marginals = _shipped("default_marginals.json")
    marginals[name].update(spec)
    return marginals


@pytest.mark.parametrize("flag, payload, where", [
    ("--schema", _schema_with(maximun=5), "schema.predictors[1]: unknown keys"),
    ("--schema", _schema_with(minimum="zero"), "schema.predictors[1].minimum:"),
    ("--schema", _schema_with(exclusive_minimum=1), "schema.predictors[1].exclusive_minimum:"),
    ("--schema", _schema_with(minimum=NAN), "schema.predictors[1].minimum:"),
    ("--schema", {"label_name": "travel_satisfaction"}, "schema:"),
    ("--schema", _education_with([2, "primary school"]),
     "schema.predictors[3]: duplicate category labels for education_level"),
    ("--schema", _education_with([1, "middle school"]),
     "schema.predictors[3]: duplicate category codes for education_level"),
    ("--schema", _schema_with(minimum=90.0, maximum=10.0),
     "schema.predictors[1]: age: minimum 90.0 is above maximum 10.0"),
    ("--schema", _schema_with(minimum=40.0, maximum=40.0), "schema.predictors[1]:"),
    ("--schema", _schema_with(minimum=40.0, maximum=80.0), "synthesized age:"),
    ("--schema", _schema_with(name="eating out"), "schema.predictors[1]:"),
    ("--schema", _schema_with(unit="years\n"),
     "schema.predictors[1]: line break in a unit or category label of age: ['years\\n']"),
    ("--schema", _schema_with(kind="ordinal"),
     "schema.predictors[1]: unknown kind 'ordinal' for age"),
    ("--schema", _schema_with(categories=[[0, "young"], [1, "old"]]),
     "schema.predictors[1]: numeric age must not define categories"),
    ("--schema", {**_shipped("default_schema.json"), "predictors": []},
     "schema needs at least one predictor"),
    ("--schema", _gender_with(dimension="label"),
     "schema: predictors in the label dimension: ['gender']"),
    ("--schema", _schema_without("commuting_mode"),
     "rule 'linear' reads variables the schema lacks: ['commuting_mode']"),
    ("--marginals", _marginals_with("age", clip_min="12"), "marginals.age.clip_min:"),
    ("--marginals", _marginals_with("age", mena=3), "marginals.age: unknown keys"),
    ("--marginals", _marginals_with("age", std=INF), "marginals.age.std:"),
    ("--marginals", _marginals_with("age", kind="cauchy"), "marginals.age:"),
    ("--marginals", _marginals_with("gender", probs={"a": 1}), "marginals.gender.probs:"),
    ("--marginals", _marginals_with("gender", probs=[54.71, 45.29]),
     "marginals.gender.probs:"),
    ("--marginals", _marginals_with("gender", probs={"0": NAN, "1": 1}),
     "marginals.gender.probs[0][1]:"),
    ("--marginals", _marginals_with("gender", probs={"0": -1, "1": 2}),
     "marginals.gender:"),
    ("--marginals", [], "marginals:"),
    ("--marginals", _marginals_with("age", std=-1), "marginals.age: normal marginal with std"),
    ("--marginals", _marginals_with("income", sigma=-0.5),
     "marginals.income: lognormal marginal needs"),
    ("--marginals", _marginals_with("income", mean=-5),
     "marginals.income: lognormal marginal needs"),
    ("--marginals", _marginals_with("age", kind="uniform", low=5, high=1),
     "marginals.age: uniform marginal with low"),
    ("--marginals", _marginals_with("age", clip_min=50, clip_max=10),
     "marginals.age: clip_min 50 > clip_max 10"),
    ("--marginals", {**_shipped("default_marginals.json"),
                     "age": {"kind": "categorical", "probs": {"30": 1}}},
     "age: numeric variable needs a numeric marginal"),
], ids=["misspelt-key", "string-minimum", "int-flag", "nan-minimum", "no-predictors",
        "collided-label", "duplicate-code", "inverted-range", "empty-range", "narrowed-range",
        "space-in-name", "line-break-in-unit", "unknown-variable-kind", "numeric-with-categories",
        "empty-predictors", "predictor-in-label-dimension", "unscorable-schema",
        "string-clip", "misspelt-marginal-key", "infinite-std", "unknown-kind",
        "letter-code", "probs-list", "nan-weight", "negative-weight", "not-an-object",
        "negative-std", "negative-sigma", "negative-lognormal-mean", "inverted-uniform",
        "inverted-clip", "categorical-for-numeric"])
def test_bad_schema_and_marginals_exit_2(tmp_path, capsys, flag, payload, where):
    path = tmp_path / "settings.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    code = main(["synth", "--n", "20", flag, str(path), "--out", str(tmp_path / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and where in err


@pytest.fixture()
def no_requests(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a request was sent")
    monkeypatch.setattr(ScriptedMock, "complete", refuse)


@pytest.mark.parametrize("data, mode, where", [
    (False, "nn", "rule 'linear' reads"),
    (True, "nn", "rule 'misaligned_prior' reads"),
    (True, "rule", "rule 'linear' reads"),
], ids=["synthetic", "nn", "rule"])
def test_zeroshot_on_a_schema_the_scorer_cannot_read_exits_2(
        tmp_path, survey_csv, no_requests, capsys, data, mode, where):
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(_schema_without("commuting_mode")), encoding="utf-8")
    args = ["--data", str(survey_csv)] if data else []
    assert main(["zeroshot", *args, "--schema", str(schema), "--mock-mode", mode,
                 "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and f"{where} variables the schema lacks: ['commuting_mode']" in err


def test_baseline_sweep_fits_a_schema_the_mock_cannot_read(tmp_path, survey_csv,
                                                          no_requests):
    # the baselines send nothing, so the mock's schema check must not refuse them
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(_schema_without("commuting_mode")), encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"fractions": [0.5, 0.8],
                                  "gbdt": {"n_trees": 20}}), encoding="utf-8")
    assert main(["baseline-sweep", "--config", str(config), "--data", str(survey_csv),
                 "--schema", str(schema), *_shared_args(tmp_path, "base")]) == 0
    assert (tmp_path / "base" / "baseline_aggregate.csv").exists()


def test_importance_on_a_schema_without_income_fails_no_request(tmp_path, survey_csv):
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(_schema_without("income")), encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"gbdt": {"n_trees": 20}}), encoding="utf-8")
    assert main(["importance", "--config", str(config), "--data", str(survey_csv),
                 "--schema", str(schema), *_shared_args(tmp_path, "imp")]) == 0
    summary = (tmp_path / "imp" / "summary.txt").read_text("utf-8")
    assert "Failed importance requests" not in summary
    assert "insufficient repeats" not in summary


@pytest.fixture()
def clients(monkeypatch):
    # every client the run builds, so a test can count the requests sent
    import travelsat.experiments as experiments
    built = []
    build = experiments.make_client

    def keeping(config, schema):
        built.append(build(config, schema))
        return built[-1]

    monkeypatch.setattr(experiments, "make_client", keeping)
    return built


def test_a_schema_file_with_a_label_object_sends_no_request(tmp_path, survey_csv,
                                                            clients, capsys):
    # all labels 0: a label range widened to 0 would reach a MAPE they leave undefined
    payload = {**_shipped("default_schema.json"),
               "label": {"name": "travel_satisfaction", "dimension": "label",
                         "kind": "numeric", "minimum": 0.0, "maximum": 7.0}}
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(payload), encoding="utf-8")
    lines = survey_csv.read_text("utf-8").splitlines()
    data = tmp_path / "survey.csv"
    zeros = [line.rsplit(",", 1)[0] + ",0" for line in lines[1:]]
    data.write_text("\n".join([lines[0], *zeros]) + "\n", encoding="utf-8")
    code = main(["fewshot", "--data", str(data), "--schema", str(schema),
                 *_shared_args(tmp_path, "fs")])
    assert code == 2
    assert "error: schema: unknown keys: ['label']" in capsys.readouterr().err
    assert sum(client.transport_calls for client in clients) == 0


@pytest.mark.parametrize("payload", [
    {**_shipped("default_schema.json"), "predictors": [
        *_shipped("default_schema.json")["predictors"],
        {"name": "record_id", "dimension": "socioeconomics", "kind": "numeric"}]},
    {**_shipped("default_schema.json"), "label_name": "record_id"},
], ids=["predictor", "label"])
def test_a_variable_named_record_id_exits_2(tmp_path, survey_csv, clients, capsys, payload):
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(payload), encoding="utf-8")
    code = main(["zeroshot", "--data", str(survey_csv), "--schema", str(schema),
                 "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert "error: schema: variable name 'record_id' is the survey's id column" in err
    assert clients == []


def test_code_the_linear_rule_has_no_offset_for_exits_2(tmp_path, survey_csv,
                                                        no_requests, capsys):
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(_gender_with(
        categories=[[0, "male"], [1, "female"], [2, "other"]])), encoding="utf-8")
    data = tmp_path / "survey.csv"
    lines = survey_csv.read_text("utf-8").splitlines()
    header = lines[0].split(",")
    cells = lines[1].split(",")
    cells[header.index("gender")] = "2"
    data.write_text("\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n",
                    encoding="utf-8")
    code = main(["zeroshot", "--data", str(data), "--schema", str(schema),
                 "--mock-mode", "rule", "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "rule 'linear' has no offset for gender codes [2]" in err


@pytest.mark.parametrize("command", ["synth", "fewshot", "baseline-sweep"])
def test_negative_seed_flag_exits_2(tmp_path, capsys, command):
    code = main([command, "--seed", "-1", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "seed must be non-negative" in capsys.readouterr().err


def test_out_of_range_temperature_flag_exits_2(tmp_path, survey_csv, capsys):
    code = main(["zeroshot", "--data", str(survey_csv), "--temperature", "5",
                 *_shared_args(tmp_path, "hot")])
    assert code == 2
    assert "temperature" in capsys.readouterr().err


def test_temperature_and_mock_overrides_reach_provenance(tmp_path, survey_csv):
    code = main(["fewshot", "--data", str(survey_csv),
                 "--temperature", "0.9", "--mock", "linear",
                 "--mock-mode", "rule", *_shared_args(tmp_path, "tweak")])
    assert code == 0
    payload = json.loads((tmp_path / "tweak" / "provenance.json").read_text("utf-8"))
    assert payload["config"]["llm"]["temperature"] == 0.9
    assert payload["config"]["mock"]["mode"] == "rule"


def test_cache_flag_populates_cache(tmp_path, survey_csv):
    cache = tmp_path / "cache"
    code = main(["zeroshot", "--data", str(survey_csv), "--cache", str(cache),
                 *_shared_args(tmp_path, "cached")])
    assert code == 0
    assert len(list(cache.glob("*.json"))) > 0


def test_live_flag_builds_an_http_backend_without_sending(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a request was sent")
    monkeypatch.setattr(HttpChatBackend, "complete", refuse)
    config = _build_config(build_parser().parse_args(["zeroshot", "--live"]))
    assert config.mock is None
    assert type(make_client(config, default_schema()).backend) is HttpChatBackend


def test_parser_lists_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for name in ("synth", "zeroshot", "fewshot", "random-fewshot",
                 "baseline-sweep", "importance", "report"):
        assert name in text


def test_vary_split_flag(tmp_path, survey_csv):
    code = main(["fewshot", "--data", str(survey_csv), "--vary-split",
                 *_shared_args(tmp_path, "vary")])
    assert code == 0
    payload = json.loads((tmp_path / "vary" / "provenance.json").read_text("utf-8"))
    assert payload["config"]["vary_split"] is True


@pytest.mark.parametrize("args, key, stored", [
    (["--data", "survey.csv"], "data_path", "survey.csv"),
    (["--schema", "schema.json"], "schema_path", "schema.json"),
    (["--seed", "0"], "seed", 0),
    (["--out", "flagged"], "out_dir", "flagged"),
    (["--out", ""], "out_dir", "configured"),
    (["--cache", "cache"], "cache_dir", "cache"),
    (["--batch-size", "7"], "batch_size", 7),
    (["--repeats", "1"], "repeats", 1),
    (["--vary-split"], "vary_split", True),
], ids=["data", "schema", "seed-0", "out", "empty-out", "cache", "batch-size",
        "repeats", "vary-split"])
def test_shared_flag_overrides_config_file(tmp_path, monkeypatch, args, key, stored):
    # every override differs from the config file's value; an empty string
    # leaves the file's value in place
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--n", "40", "--seed", "7", "--out", "survey.csv"]) == 0
    Path("schema.json").write_text(json.dumps(spec_to_dict(default_schema())),
                                   encoding="utf-8")
    Path("config.json").write_text(json.dumps({
        "synthetic": {"n": 40}, "support_sizes": [0, 3], "seed": 5,
        "batch_size": 20, "repeats": 2, "vary_split": False,
        "out_dir": "configured"}), encoding="utf-8")
    assert main(["fewshot", "--config", "config.json", *args]) == 0
    run_dir = Path(stored if key == "out_dir" else "configured")
    config = json.loads((run_dir / "provenance.json").read_text("utf-8"))["config"]
    if key == "cache_dir":
        assert list(Path(stored).glob("*.json"))
    elif key != "out_dir":
        assert config[key] == stored
