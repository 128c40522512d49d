import numpy as np
import pytest
from scipy import stats

from travelsat.errors import DatasetError
from travelsat.evaluation import (
    MetricPair,
    RunReport,
    aggregate_repeats,
    compare_importances,
    evaluate,
    format_cell,
    mape,
    mse,
    welch_t,
)


def test_mse_hand_case():
    assert mse([1.0, 2.0, 3.0], [2.0, 4.0, 3.0]) == pytest.approx(5.0 / 3.0, abs=1e-15)


def test_mape_hand_case():
    # |1-2|/1 = 1, |2-4|/2 = 1, |3-3|/3 = 0 -> mean 2/3, kept as a fraction
    assert mape([1.0, 2.0, 3.0], [2.0, 4.0, 3.0]) == pytest.approx(2.0 / 3.0, abs=1e-15)


def loop_mse(actual, predicted):
    total = 0.0
    for a, p in zip(actual, predicted):
        total += (a - p) ** 2
    return total / len(actual)


def loop_mape(actual, predicted):
    total = 0.0
    for a, p in zip(actual, predicted):
        total += abs(a - p) / abs(a)
    return total / len(actual)


def test_metrics_match_loop_oracle():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        actual = rng.uniform(1.0, 7.0, size=n)
        predicted = rng.uniform(1.0, 7.0, size=n)
        assert mse(actual, predicted) == pytest.approx(loop_mse(actual, predicted),
                                                       abs=1e-12)
        assert mape(actual, predicted) == pytest.approx(loop_mape(actual, predicted),
                                                        abs=1e-12)


def test_mse_scale_property():
    rng = np.random.default_rng(12)
    actual = rng.uniform(1.0, 7.0, size=30)
    predicted = rng.uniform(1.0, 7.0, size=30)
    scaled = mse(actual * 2.0, predicted * 2.0)
    assert scaled == pytest.approx(4.0 * mse(actual, predicted), rel=1e-12)


def test_metrics_zero_for_perfect_prediction():
    values = np.array([2.0, 3.0, 4.0])
    assert mse(values, values) == 0.0
    assert mape(values, values) == 0.0


def test_metric_errors():
    with pytest.raises(DatasetError):
        mse([1.0, 2.0], [1.0])
    with pytest.raises(DatasetError):
        mse([], [])
    with pytest.raises(DatasetError):
        mape([0.0, 1.0], [1.0, 1.0])
    for bad in (float("nan"), float("inf"), -float("inf")):
        for metric in (mse, mape, evaluate):
            with pytest.raises(DatasetError, match="finite"):
                metric([2.0, bad], [2.0, 3.0])
            with pytest.raises(DatasetError, match="finite"):
                metric([2.0, 3.0], [bad, 3.0])


def test_evaluate_bundles_both():
    pair = evaluate([1.0, 2.0], [2.0, 2.0])
    assert pair == MetricPair(mse=0.5, mape=0.5, n=2)


def test_aggregate_repeats_hand_case():
    pairs = [MetricPair(1.0, 0.1, 5), MetricPair(2.0, 0.2, 5), MetricPair(3.0, 0.3, 5)]
    report = aggregate_repeats(pairs)
    assert report.repeats == 3
    assert report.mse_mean == pytest.approx(2.0, abs=1e-15)
    assert report.mse_std == pytest.approx(1.0, abs=1e-15)  # ddof=1
    assert report.mape_mean == pytest.approx(0.2, abs=1e-15)
    assert report.mape_std == pytest.approx(0.1, abs=1e-15)


def test_aggregate_single_repeat_has_no_std():
    report = aggregate_repeats([MetricPair(1.5, 0.25, 8)])
    assert report.mse_std is None and report.mape_std is None


def test_aggregate_requires_pairs():
    with pytest.raises(DatasetError):
        aggregate_repeats([])


def test_format_cell():
    assert format_cell(1.23456, 0.04567) == "1.235 (0.046)"
    assert format_cell(1.23456, None) == "1.235 (n/a)"
    assert format_cell(0.5, 0.0) == "0.500 (0.000)"


def test_welch_hand_case():
    result = welch_t([1.0, 2.0, 3.0], [4.0, 5.0, 6.0], variable="v")
    assert result.t == pytest.approx(-3.674234614174767, abs=1e-12)
    expected = stats.ttest_ind([1.0, 2.0, 3.0], [4.0, 5.0, 6.0], equal_var=False)
    assert result.p_value == pytest.approx(expected.pvalue, abs=1e-12)


def test_welch_matches_scipy():
    rng = np.random.default_rng(13)
    for _ in range(40):
        a = rng.normal(size=int(rng.integers(2, 30)))
        b = rng.normal(loc=rng.normal(), size=int(rng.integers(2, 30)))
        ours = welch_t(a, b)
        ref = stats.ttest_ind(a, b, equal_var=False)
        assert ours.t == pytest.approx(ref.statistic, abs=1e-10)
        assert ours.p_value == pytest.approx(ref.pvalue, abs=1e-10)


def test_welch_symmetry():
    a = [1.0, 2.0, 4.0]
    b = [2.0, 5.0, 9.0]
    forward = welch_t(a, b)
    backward = welch_t(b, a)
    assert forward.t == pytest.approx(-backward.t, abs=1e-15)
    assert forward.p_value == pytest.approx(backward.p_value, abs=1e-15)


def test_welch_degenerate_equal_constant():
    result = welch_t([2.0, 2.0], [2.0, 2.0])
    assert result.t == 0.0 and result.p_value == 1.0
    assert result.stars == ""


def test_welch_degenerate_distinct_constant():
    result = welch_t([2.0, 2.0], [3.0, 3.0])
    assert result.t is None and result.p_value is None
    assert "deterministic difference" in result.note
    assert result.stars == ""


def test_welch_stars():
    rng = np.random.default_rng(14)
    a = rng.normal(loc=0.0, scale=0.1, size=20)
    b = rng.normal(loc=5.0, scale=0.1, size=20)
    assert welch_t(a, b).stars == "**"


def test_welch_needs_two_samples():
    with pytest.raises(DatasetError):
        welch_t([1.0], [2.0, 3.0])


def _importance_runs(offset: float):
    return [
        {"age": 0.5 + offset, "income": 0.5 - offset},
        {"age": 0.52 + offset, "income": 0.48 - offset},
        {"age": 0.48 + offset, "income": 0.52 - offset},
    ]


def test_compare_importances_hand_grid():
    comparison = compare_importances({
        "zero_shot": _importance_runs(0.0),
        "few_shot": _importance_runs(0.3),
    })
    assert comparison.variables == ("age", "income")
    assert comparison.model_means["zero_shot"]["age"] == pytest.approx(0.5, abs=1e-12)
    assert comparison.model_means["few_shot"]["age"] == pytest.approx(0.8, abs=1e-12)
    grid = comparison.tests[("zero_shot", "few_shot")]
    ref = stats.ttest_ind([0.5, 0.52, 0.48], [0.8, 0.82, 0.78], equal_var=False)
    assert grid["age"].t == pytest.approx(ref.statistic, abs=1e-10)
    assert grid["age"].p_value == pytest.approx(ref.pvalue, abs=1e-10)
    assert grid["age"].mean_a == pytest.approx(0.5, abs=1e-12)
    assert grid["age"].mean_b == pytest.approx(0.8, abs=1e-12)


def test_compare_importances_three_models_pairs():
    comparison = compare_importances({
        "zero_shot": _importance_runs(0.0),
        "few_shot": _importance_runs(0.1),
        "gbdt": _importance_runs(0.2),
    })
    assert set(comparison.tests) == {
        ("zero_shot", "few_shot"), ("zero_shot", "gbdt"), ("few_shot", "gbdt")}
    for grid in comparison.tests.values():
        assert set(grid) == {"age", "income"}


def test_compare_importances_requires_two_models():
    with pytest.raises(DatasetError):
        compare_importances({"zero_shot": _importance_runs(0.0)})


def test_compare_importances_requires_two_repeats():
    with pytest.raises(DatasetError):
        compare_importances({
            "zero_shot": _importance_runs(0.0)[:1],
            "few_shot": _importance_runs(0.1),
        })


def test_compare_importances_requires_matching_variables():
    runs = _importance_runs(0.0)
    mismatched = [{"age": 1.0}, {"age": 1.0}]
    with pytest.raises(DatasetError):
        compare_importances({"zero_shot": runs, "few_shot": mismatched})


def test_run_report_shape():
    RunReport(repeats=2, mse_mean=1.0, mse_std=0.1, mape_mean=0.2, mape_std=0.01)
