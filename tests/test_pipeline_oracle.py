"""End-to-end oracle for the LLM runners on the scripted mock.

Recomputes report.csv and aggregate.csv of zeroshot, fewshot and
random-fewshot from the protocol alone, without the request path: the
split comes from dataset.split, the similarity ranking from
selection.rank_order (checked against brute force by acceptance criterion
2), and the mock's answer is written out here as a plain loop. A query with
labeled examples gets the label of its nearest one in the mock's
reference-scale encoding, the first on ties; without examples it gets
misaligned_prior. Every ks.csv row of random-fewshot is recomputed with
scipy's two-sample statistic and its asymptotic Kolmogorov p-value.

The importance study is recomputed the same way: the LLM vectors are the
mock's rule weights as its reply carries them, the GBDT vectors are
importance_gbdt of the column gains of models fitted here on the split's
train rows, and every importance_tests.csv row is scipy's Welch test of
those vectors.

Fault injection (ROADMAP item 8) wraps the backend of each run through
experiments.make_client: a reply garbled once, a reply garbled twice, and a
transient transport failure on every first attempt. The same oracle gives
the expected tables, with the one failed trial where a reply is garbled
twice. Nothing is imported from prompting, client, mock or experiments
besides the runners and their config, and the make_client and LlmClient
that the fault tests wrap.
"""

import csv
import dataclasses
import functools
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from travelsat import experiments
from travelsat.baselines import fit_gbdt, importance_gbdt
from travelsat.client import LlmClient
from travelsat.dataset import split
from travelsat.encoding import encode_matrix, fit_encoding
from travelsat.errors import TransientTransportError
from travelsat.experiments import (
    ExperimentConfig,
    SyntheticSpec,
    run_few_shot_sweep,
    run_importance_study,
    run_random_sweep,
    run_zero_shot,
)
from travelsat.rules import REFERENCE_SCALE, clamp, misaligned_prior, rule_importance
from travelsat.schema import CATEGORICAL
from travelsat.selection import (
    random_support,
    rank_order,
    representativeness_report,
    summarize_ks_repeats,
)
from travelsat.synthesize import synthesize

RUNNERS = {"zeroshot": run_zero_shot, "fewshot": run_few_shot_sweep,
           "random-fewshot": run_random_sweep}


def _mock_vector(record, schema) -> np.ndarray:
    """The record as the mock sees it: read back from a prompt, which writes
    each value at six significant digits, then numerics centered and scaled
    by the rules' reference constants and one indicator per category code."""
    vector = []
    for var in schema.predictors:
        value = float(format(record.values[var.name], ".6g"))
        if var.kind == CATEGORICAL:
            vector += [1.0 if int(value) == code else 0.0 for code in var.codes]
        else:
            center, scale = REFERENCE_SCALE.get(var.name, (0.0, 1.0))
            vector.append((value - center) / scale)
    return np.array(vector)


def _mock_score(query, examples, vectors) -> float:
    """The mock's score for query; vectors maps each record id to its
    _mock_vector."""
    if not examples:
        return misaligned_prior({name: float(format(value, ".6g"))
                                 for name, value in query.values.items()})
    target = vectors[query.record_id]
    label, best = None, -math.inf
    for example in examples:
        gap = target - vectors[example.record_id]
        similarity = 1.0 / math.sqrt(float(gap @ gap) + 1.0)
        if similarity > best:  # strictly: the first of equal examples wins
            label, best = example.satisfaction, similarity
    return clamp(label)


def _trials(config: ExperimentConfig, dataset, experiment: str):
    """(condition, repeat, support, queries) per trial, k-major."""
    if experiment == "zeroshot":
        return [("0 (zero-shot)", repeat, (), dataset.records)
                for repeat in range(1, config.repeats + 1)]
    repeats = range(1, config.repeats + 1)
    splits = {repeat: split(dataset, config.train_fraction,
                            seed=config.seed + repeat if config.vary_split else config.seed)
              for repeat in repeats}
    spec = fit_encoding(dataset)
    orders = ({repeat: rank_order(*splits[repeat], spec) for repeat in repeats}
              if experiment == "fewshot" else {})
    trials = []
    for k in config.support_sizes:
        for repeat in repeats:
            train, test = splits[repeat]
            if k == 0:
                support = ()
            elif experiment == "fewshot":
                support = tuple(train[i] for i in sorted(orders[repeat][:k]))
            else:
                support = random_support(train, k, seed=config.seed * 10007 + k * 101 + repeat)
            trials.append(("0 (zero-shot)" if k == 0 else str(k), repeat, support,
                           test.records))
    return trials


def _std(values):
    mean = sum(values) / len(values)
    return math.sqrt(sum((v - mean) ** 2 for v in values) / (len(values) - 1))


def _read_csv(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _assert_printed(cell: str, value: float, where: str):
    # the runners print six decimals
    assert abs(float(cell) - value) <= 5e-7 + 1e-12, (where, cell, value)


@functools.cache
def _survey(synthetic: SyntheticSpec):
    """The dataset a run on synthetic data loads, and each record's
    _mock_vector by id."""
    dataset = synthesize(synthetic.n, seed=synthetic.seed, label_rule=synthetic.label_rule,
                         noise=synthetic.noise)
    return dataset, {r.record_id: _mock_vector(r, dataset.schema) for r in dataset}


def _check_run(config: ExperimentConfig, experiment: str,
               failed: dict[int, str] | None = None):
    """Run experiment and check its tables; failed maps the index of each
    trial expected to fail, in _trials order, to its expected status."""
    failed = failed or {}
    RUNNERS[experiment](config)
    out = Path(config.out_dir)
    dataset, vectors = _survey(config.synthetic)
    trials = _trials(config, dataset, experiment)
    report = _read_csv(out / "report.csv")
    assert [(row["condition"], int(row["repeat"]), row["status"]) for row in report] == \
        [(condition, repeat, failed.get(i, "ok"))
         for i, (condition, repeat, _, _) in enumerate(trials)]
    metrics = []
    for i, (row, (_, _, support, queries)) in enumerate(zip(report, trials)):
        where = f"{row['condition']} repeat {row['repeat']}"
        if i in failed:
            assert (row["n"], row["mse"], row["mape"]) == ("", "", ""), where
            metrics.append(None)
            continue
        pairs = [(q.satisfaction, _mock_score(q, support, vectors)) for q in queries]
        mse = sum((y - p) ** 2 for y, p in pairs) / len(pairs)
        mape = sum(abs(y - p) / abs(y) for y, p in pairs) / len(pairs)
        assert int(row["n"]) == len(queries), where
        _assert_printed(row["mse"], mse, where)
        _assert_printed(row["mape"], mape, where)
        metrics.append((mse, mape))

    aggregate = _read_csv(out / "aggregate.csv")
    assert len(aggregate) * config.repeats == len(trials)
    for index, row in enumerate(aggregate):
        group = range(index * config.repeats, (index + 1) * config.repeats)
        ok = [metrics[i] for i in group if metrics[i] is not None]
        assert row["condition"] == trials[group[0]][0]
        assert (row["repeats_ok"], row["failures"]) == \
            (str(len(ok)), str(config.repeats - len(ok)))
        for column, values in (("mse", [m[0] for m in ok]), ("mape", [m[1] for m in ok])):
            where = f"{row['condition']} {column}"
            if not values:
                assert row[f"{column}_mean"] == row[f"{column}_std"] == "", where
                continue
            _assert_printed(row[f"{column}_mean"], sum(values) / len(values), where)
            if len(values) == 1:
                assert row[f"{column}_std"] == "n/a", where
            else:
                _assert_printed(row[f"{column}_std"], _std(values), where)
        if experiment == "random-fewshot":
            screened = [representativeness_report(trials[i][2], dataset)
                        for i in group if trials[i][2]]
            assert row["ks_flags"] == (summarize_ks_repeats(screened) if screened
                                       else "n/a")
        else:
            assert "ks_flags" not in row
    if experiment == "random-fewshot":
        _check_ks(_read_csv(out / "ks.csv"), trials, dataset)


def _stars(p: float) -> str:
    return "**" if p < 0.01 else "*" if p < 0.05 else ""


def _check_ks(rows, trials, dataset):
    """ks.csv: one row per variable of each trial with support, in trial
    order; D by scipy, p from the asymptotic Kolmogorov distribution at the
    effective size n1 * n2 / (n1 + n2)."""
    expected = [(condition, repeat, var.name, support)
                for condition, repeat, support, _ in trials if support
                for var in dataset.schema.predictors]
    assert [(row["condition"], int(row["repeat"]), row["variable"]) for row in rows] == \
        [key[:3] for key in expected]
    for row, (_, _, name, support) in zip(rows, expected):
        sample = [r.values[name] for r in support]
        population = dataset.column(name)
        d = stats.ks_2samp(sample, population).statistic
        n1, n2 = len(sample), len(population)
        p = stats.kstwobign.sf(math.sqrt(n1 * n2 / (n1 + n2)) * d)
        where = f"ks {row['condition']} repeat {row['repeat']} {name}"
        _assert_printed(row["d"], d, where)
        _assert_printed(row["p_value"], p, where)
        assert row["stars"] == _stars(p), where


def test_sweeps_match_the_oracle_at_paper_scale(tmp_path):
    for experiment in RUNNERS:
        _check_run(ExperimentConfig(synthetic=SyntheticSpec(n=874, seed=0),
                                    out_dir=str(tmp_path / experiment)), experiment)


@st.composite
def sweep_configs(draw):
    n = draw(st.integers(20, 60))
    # every support size fits the train side: round(0.8 * n) >= 16 rows
    sizes = draw(st.lists(st.integers(0, 16), min_size=1, max_size=3, unique=True))
    return ExperimentConfig(
        synthetic=SyntheticSpec(n=n, seed=draw(st.integers(0, 3))),
        support_sizes=tuple(sizes),
        repeats=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 5)),
        vary_split=draw(st.booleans()),
        batch_size=draw(st.integers(1, 25)),
        max_in_flight=draw(st.integers(1, 4)))


@settings(max_examples=20, deadline=None)
@given(config=sweep_configs(), experiment=st.sampled_from(sorted(RUNNERS)))
def test_sweeps_match_the_oracle(config, experiment):
    with tempfile.TemporaryDirectory() as tmp:
        _check_run(dataclasses.replace(config, out_dir=tmp), experiment)


# -- fault injection -------------------------------------------------------


class _Faulty:
    """A run's backend, wrapped. Calls are counted from 0 in the order they
    arrive: a call in garble gets the reply with its text replaced by prose
    that no reply reader accepts, and with transient every even call raises
    TransientTransportError. With one request in flight the calls arrive in
    request order, then the re-sends of replies that failed to parse, in the
    same order; so with transient each request's first attempt fails."""

    def __init__(self, garble=(), transient=False):
        self.backend = None  # the run's own, set by make_client
        self.garble = set(garble)
        self.transient = transient
        self.calls = 0
        # the client's retry delays, recorded instead of slept
        self.sleeps: list[float] = []

    def complete(self, prompt, params):
        call, self.calls = self.calls, self.calls + 1
        if self.transient and call % 2 == 0:
            raise TransientTransportError("HTTP 503")
        reply = self.backend.complete(prompt, params)
        if call in self.garble:
            return dataclasses.replace(reply, content="no scores here")
        return reply


@pytest.fixture
def faulty(monkeypatch):
    """install(**kwargs) wraps each run's backend in a _Faulty(**kwargs),
    through experiments.make_client, and returns it."""
    build = experiments.make_client

    def install(**kwargs):
        faults = _Faulty(**kwargs)

        def make_client(config, schema):
            client = build(config, schema)
            faults.backend = client.backend
            return LlmClient(faults, client.params, cache_dir=config.cache_dir,
                             max_in_flight=client.max_in_flight, sleep=faults.sleeps.append)

        monkeypatch.setattr(experiments, "make_client", make_client)
        return faults

    return install


def _fault_config(tmp_path) -> ExperimentConfig:
    # 3 repeats, so the middle and last trials of zero-shot differ too
    return ExperimentConfig(synthetic=SyntheticSpec(n=30, seed=1), support_sizes=(0, 3, 6),
                            repeats=3, batch_size=4, max_in_flight=1,
                            out_dir=str(tmp_path / "out"), cache_dir=str(tmp_path / "cache"))


def _first_requests(config: ExperimentConfig, experiment: str) -> list[int]:
    """The index of each trial's first request, then the number of requests:
    trials in _trials order, each one request per batch of its queries."""
    dataset, _ = _survey(config.synthetic)
    starts = [0]
    for _, _, _, queries in _trials(config, dataset, experiment):
        starts.append(starts[-1] + -(-len(queries) // config.batch_size))
    return starts


@pytest.mark.parametrize("experiment", sorted(RUNNERS))
def test_reply_garbled_once_is_resent_at_the_next_slot(tmp_path, faulty, experiment):
    config = _fault_config(tmp_path)
    starts = _first_requests(config, experiment)
    middle, last = (len(starts) - 1) // 2, len(starts) - 2
    # the second batch of two trials; in the sweeps they share their queries
    faults = faulty(garble={starts[middle] + 1, starts[last] + 1})
    _check_run(config, experiment)
    requests = starts[-1]
    assert faults.calls == requests + 2
    # a re-send at the same slot would read the garbled reply back from here
    assert len(list(Path(config.cache_dir).glob("*.json"))) == requests + 2
    assert faults.sleeps == []


@pytest.mark.parametrize("experiment", sorted(RUNNERS))
def test_reply_garbled_twice_fails_exactly_its_trial(tmp_path, faulty, experiment):
    config = _fault_config(tmp_path)
    starts = _first_requests(config, experiment)
    middle, requests = (len(starts) - 1) // 2, starts[-1]
    # the re-send of the one garbled reply is the first call after every request
    faults = faulty(garble={starts[middle] + 1, requests})
    _check_run(config, experiment,
               failed={middle: "failed: response has no ```scores block"})
    assert faults.calls == requests + 1


@pytest.mark.parametrize("experiment", sorted(RUNNERS))
def test_transient_failures_are_retried_to_the_clean_result(tmp_path, faulty, experiment):
    config = _fault_config(tmp_path)
    requests = _first_requests(config, experiment)[-1]
    faults = faulty(transient=True)
    _check_run(config, experiment)
    assert faults.calls == 2 * requests
    assert faults.sleeps == [1.0] * requests


def _reply_weights(config: ExperimentConfig, schema) -> dict[str, float]:
    """The mock's rule weights as a reply carries them, at six decimals,
    renormalized to sum 1 as the reply reader does."""
    weights = rule_importance(config.mock.rule)
    printed = {var.name: float(f"{weights.get(var.name, 0.0):.6f}")
               for var in schema.predictors}
    total = sum(printed.values())
    return {name: weight / total for name, weight in printed.items()}


def _welch_row(a, b):
    """(t, p_value, stars, note) cells of one importance_tests.csv row: scipy's
    Welch test, or the degenerate cases of two zero-variance samples."""
    if np.var(a, ddof=1) == 0.0 and np.var(b, ddof=1) == 0.0:
        if np.mean(a) == np.mean(b):
            return 0.0, 1.0, "", ""
        return None, None, "", "degenerate: deterministic difference"
    result = stats.ttest_ind(a, b, equal_var=False)
    return result.statistic, result.pvalue, _stars(result.pvalue), ""


# scipy warns of a sample with no spread: each LLM side repeats one vector
@pytest.mark.filterwarnings("ignore:Precision loss occurred:RuntimeWarning")
def test_importance_matches_the_oracle_at_paper_scale(tmp_path):
    config = ExperimentConfig(synthetic=SyntheticSpec(n=874, seed=0),
                              out_dir=str(tmp_path / "importance"))
    run_importance_study(config)
    out = Path(config.out_dir)
    dataset, _ = _survey(config.synthetic)
    repeats = range(1, config.repeats + 1)
    train, _ = split(dataset, config.train_fraction, seed=config.seed)
    spec = fit_encoding(dataset)
    hyper = dataclasses.replace(config.gbdt, subsample=config.importance_subsample)
    X = encode_matrix(train, spec)
    llm = _reply_weights(config, dataset.schema)
    vectors = {
        "zero_shot": [llm for _ in repeats],
        "few_shot": [llm for _ in repeats],
        "gbdt": [importance_gbdt(fit_gbdt(X, train.labels(), hyper=hyper,
                                          seed=config.seed + repeat).column_gains,
                                 spec.column_variables())
                 for repeat in repeats],
    }
    names = [var.name for var in dataset.schema.predictors]

    rows = _read_csv(out / "importance.csv")
    assert [(row["model"], int(row["repeat"]), row["variable"]) for row in rows] == \
        [(model, i, name) for model in vectors for i in repeats for name in names]
    for row in rows:
        weight = vectors[row["model"]][int(row["repeat"]) - 1][row["variable"]]
        _assert_printed(row["weight"], weight, f"{row['model']} {row['repeat']}")

    tests = _read_csv(out / "importance_tests.csv")
    pairs = [("zero_shot", "few_shot"), ("zero_shot", "gbdt"), ("few_shot", "gbdt")]
    assert [(row["model_a"], row["model_b"], row["variable"]) for row in tests] == \
        [(a, b, name) for a, b in pairs for name in names]
    for row in tests:
        a = [vec[row["variable"]] for vec in vectors[row["model_a"]]]
        b = [vec[row["variable"]] for vec in vectors[row["model_b"]]]
        where = f"{row['model_a']} vs {row['model_b']} {row['variable']}"
        _assert_printed(row["mean_a"], float(np.mean(a)), where)
        _assert_printed(row["mean_b"], float(np.mean(b)), where)
        t, p, stars, note = _welch_row(a, b)
        for column, value in (("t", t), ("p_value", p)):
            if value is None:
                assert row[column] == "", where
            else:
                _assert_printed(row[column], value, where)
        assert (row["stars"], row["note"]) == (stars, note), where
