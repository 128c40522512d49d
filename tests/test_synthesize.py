import numpy as np
import pytest

from travelsat.dataset import load_survey, save_survey
from travelsat.errors import DatasetError, SchemaError
from travelsat.rules import linear_rule, threshold_rule
from travelsat.schema import CATEGORICAL, NUMERIC, default_schema
from travelsat.synthesize import (
    CategoricalMarginal,
    NumericMarginal,
    default_marginals,
    marginals_from_dict,
    synthesize,
)


def test_gender_share_near_reference():
    dataset = synthesize(874, seed=0)
    share = np.mean(dataset.column("gender") == 0.0)
    assert abs(share - 0.5471) < 0.05


def test_same_seed_identical_bytes(tmp_path):
    a = synthesize(60, seed=42, noise=0.3)
    b = synthesize(60, seed=42, noise=0.3)
    assert a.records == b.records
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    save_survey(a, path_a)
    save_survey(b, path_b)
    assert path_a.read_bytes() == path_b.read_bytes()


def test_different_seed_differs():
    a = synthesize(60, seed=1)
    b = synthesize(60, seed=2)
    assert a.records != b.records


def test_zero_noise_labels_match_rule_exactly(noiseless_dataset):
    for record in noiseless_dataset:
        assert record.satisfaction == linear_rule(record.values)


def test_threshold_rule_labels():
    dataset = synthesize(50, seed=9, label_rule="threshold", noise=0.0)
    for record in dataset:
        assert record.satisfaction == threshold_rule(record.values)


def test_marginal_means_within_three_standard_errors():
    dataset = synthesize(10_000, seed=123)
    marginals = default_marginals()
    for var in default_schema().predictors:
        column = dataset.column(var.name)
        marginal = marginals[var.name]
        if var.kind == NUMERIC:
            se = column.std(ddof=1) / np.sqrt(len(column))
            assert abs(column.mean() - marginal.mean) < 3 * se, var.name
        else:
            for code in var.codes:
                p = dict(marginal.probs)[code]
                se = np.sqrt(p * (1 - p) / len(column)) if 0 < p < 1 else 0.0
                observed = np.mean(column == float(code))
                assert abs(observed - p) <= 3 * se + 1e-12, (var.name, code)


def test_round_trip_via_csv(tmp_path):
    dataset = synthesize(30, seed=77, noise=0.1)
    path = tmp_path / "synth.csv"
    save_survey(dataset, path)
    loaded = load_survey(path)
    for a, b in zip(loaded, dataset):
        assert a.values == b.values
        assert a.satisfaction == b.satisfaction


def test_labels_stay_on_scale():
    dataset = synthesize(2000, seed=5, noise=1.5)
    labels = dataset.labels()
    assert labels.min() >= 1.0 and labels.max() <= 7.0


def test_missing_marginal_rejected():
    marginals = default_marginals()
    marginals.pop("income")
    with pytest.raises(SchemaError) as err:
        synthesize(10, seed=0, marginals=marginals)
    assert "income" in str(err.value)


def test_kind_mismatch_rejected():
    marginals = default_marginals()
    marginals["gender"] = NumericMarginal(kind="normal", mean=0.5)
    with pytest.raises(SchemaError):
        synthesize(10, seed=0, marginals=marginals)


def test_unknown_codes_rejected():
    marginals = default_marginals()
    marginals["gender"] = CategoricalMarginal(probs=((0, 0.5), (7, 0.5)))
    with pytest.raises(SchemaError):
        synthesize(10, seed=0, marginals=marginals)


def test_unknown_rule_rejected():
    with pytest.raises(SchemaError) as err:
        synthesize(10, seed=0, label_rule="mystery")
    assert "linear" in str(err.value)


def test_bad_arguments_rejected():
    with pytest.raises(DatasetError):
        synthesize(0, seed=0)
    with pytest.raises(DatasetError):
        synthesize(10, seed=0, noise=-0.1)
    for noise in (float("nan"), float("inf")):
        with pytest.raises(DatasetError, match="finite"):
            synthesize(10, seed=0, noise=noise)


def test_marginal_parsing_rejects_unknown_kind():
    with pytest.raises(SchemaError):
        marginals_from_dict({"age": {"kind": "cauchy"}})


def test_categorical_probs_normalized():
    marginal = CategoricalMarginal(probs=((0, 60.0), (1, 40.0)))
    assert dict(marginal.probs)[0] == pytest.approx(0.6)
    assert sum(p for _, p in marginal.probs) == pytest.approx(1.0)
