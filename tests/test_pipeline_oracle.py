"""End-to-end oracle for the LLM sweeps on the scripted mock.

Recomputes report.csv and aggregate.csv of zeroshot, fewshot and
random-fewshot from the protocol alone, without the request path: the
split comes from dataset.split, the similarity ranking from
selection.rank_order (checked against brute force by acceptance criterion
2), and the mock's answer is written out here as a plain loop. A query with
labeled examples gets the label of its nearest one in the mock's
reference-scale encoding, the first on ties; without examples it gets
misaligned_prior. Nothing is imported from prompting, client, mock or
experiments besides the runners and their config.
"""

import csv
import dataclasses
import functools
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from travelsat.dataset import split
from travelsat.encoding import fit_encoding
from travelsat.experiments import (
    ExperimentConfig,
    SyntheticSpec,
    run_few_shot_sweep,
    run_random_sweep,
    run_zero_shot,
)
from travelsat.rules import REFERENCE_SCALE, clamp, misaligned_prior
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


def _check_run(config: ExperimentConfig, experiment: str):
    RUNNERS[experiment](config)
    out = Path(config.out_dir)
    dataset, vectors = _survey(config.synthetic)
    trials = _trials(config, dataset, experiment)
    report = _read_csv(out / "report.csv")
    assert [(row["condition"], int(row["repeat"]), row["status"]) for row in report] == \
        [(condition, repeat, "ok") for condition, repeat, _, _ in trials]
    metrics = []
    for row, (_, _, support, queries) in zip(report, trials):
        pairs = [(q.satisfaction, _mock_score(q, support, vectors)) for q in queries]
        mse = sum((y - p) ** 2 for y, p in pairs) / len(pairs)
        mape = sum(abs(y - p) / abs(y) for y, p in pairs) / len(pairs)
        where = f"{row['condition']} repeat {row['repeat']}"
        assert int(row["n"]) == len(queries), where
        _assert_printed(row["mse"], mse, where)
        _assert_printed(row["mape"], mape, where)
        metrics.append((mse, mape))

    aggregate = _read_csv(out / "aggregate.csv")
    assert len(aggregate) * config.repeats == len(trials)
    for index, row in enumerate(aggregate):
        group = range(index * config.repeats, (index + 1) * config.repeats)
        assert row["condition"] == trials[group[0]][0]
        assert (row["repeats_ok"], row["failures"]) == (str(config.repeats), "0")
        for column, values in (("mse", [metrics[i][0] for i in group]),
                               ("mape", [metrics[i][1] for i in group])):
            where = f"{row['condition']} {column}"
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
