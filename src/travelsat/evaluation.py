"""Prediction metrics, repeat aggregation, and significance tests."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.special import stdtr

from .errors import DatasetError


def _pairs(metric: str, actual: Sequence[float],
           predicted: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """actual and predicted as float arrays, checked to be matching,
    non-empty, 1-d and finite; an error names metric."""
    y = np.asarray(actual, dtype=float)
    yhat = np.asarray(predicted, dtype=float)
    if y.shape != yhat.shape or y.ndim != 1:
        raise DatasetError(f"{metric} needs matching 1-d arrays, got {y.shape} vs {yhat.shape}")
    if len(y) == 0:
        raise DatasetError(f"{metric} needs at least one pair")
    if not (np.isfinite(y).all() and np.isfinite(yhat).all()):
        raise DatasetError(f"{metric} needs finite values")
    return y, yhat


def mse(actual: Sequence[float], predicted: Sequence[float]) -> float:
    """Mean squared error."""
    y, yhat = _pairs("mse", actual, predicted)
    return float(np.mean((y - yhat) ** 2))


def mape(actual: Sequence[float], predicted: Sequence[float]) -> float:
    """Mean absolute percentage error, as a fraction (0.15 means 15%)."""
    y, yhat = _pairs("mape", actual, predicted)
    if np.any(y == 0):
        raise DatasetError("mape undefined: actual value of 0 present")
    return float(np.mean(np.abs(y - yhat) / np.abs(y)))


@dataclass(frozen=True)
class MetricPair:
    mse: float
    mape: float
    n: int


def evaluate(actual: Sequence[float], predicted: Sequence[float]) -> MetricPair:
    return MetricPair(mse=mse(actual, predicted), mape=mape(actual, predicted),
                      n=len(actual))


@dataclass(frozen=True)
class RunReport:
    """Aggregated metrics for one experimental condition across repeats.

    Standard deviations are None (rendered "n/a") when only one repeat
    contributed; they are never reported as 0 in that case.
    """

    repeats: int
    mse_mean: float
    mse_std: float | None
    mape_mean: float
    mape_std: float | None


def aggregate_repeats(pairs: Sequence[MetricPair]) -> RunReport:
    if not pairs:
        raise DatasetError("aggregate_repeats needs at least one successful repeat")
    mses = np.array([p.mse for p in pairs])
    mapes = np.array([p.mape for p in pairs])
    many = len(pairs) > 1
    return RunReport(
        repeats=len(pairs),
        mse_mean=float(np.mean(mses)),
        mse_std=float(np.std(mses, ddof=1)) if many else None,
        mape_mean=float(np.mean(mapes)),
        mape_std=float(np.std(mapes, ddof=1)) if many else None,
    )


def format_cell(mean: float, std: float | None) -> str:
    """Render "mean (std)" table cells, e.g. "0.762 (0.114)" or "0.762 (n/a)"."""
    if std is None:
        return f"{mean:.3f} (n/a)"
    return f"{mean:.3f} ({std:.3f})"


def significance_stars(p_value: float | None) -> str:
    """Significance marks: ** below p = 0.01, * below 0.05, none otherwise
    or without a p-value."""
    if p_value is None:
        return ""
    return "**" if p_value < 0.01 else "*" if p_value < 0.05 else ""


@dataclass(frozen=True)
class TTestResult:
    variable: str
    mean_a: float
    mean_b: float
    t: float | None
    p_value: float | None
    note: str = ""

    @property
    def stars(self) -> str:
        return significance_stars(self.p_value)


def welch_t(a: Sequence[float], b: Sequence[float], variable: str = "") -> TTestResult:
    """Two-sided Welch t-test (unequal variances).

    Degenerate inputs are reported, not raised: two zero-variance samples
    with equal means give t=0, p=1; with different means the comparison is
    deterministic and gets a note instead of a statistic.
    """
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if len(x) < 2 or len(y) < 2:
        raise DatasetError("welch_t needs at least two observations per side")
    ma, mb = float(np.mean(x)), float(np.mean(y))
    va, vb = float(np.var(x, ddof=1)), float(np.var(y, ddof=1))
    if va == 0.0 and vb == 0.0:
        if ma == mb:
            return TTestResult(variable, ma, mb, t=0.0, p_value=1.0)
        return TTestResult(variable, ma, mb, t=None, p_value=None,
                           note="degenerate: deterministic difference")
    sa, sb = va / len(x), vb / len(y)
    t = (ma - mb) / math.sqrt(sa + sb)
    df = (sa + sb) ** 2 / (sa ** 2 / (len(x) - 1) + sb ** 2 / (len(y) - 1))
    p = 2.0 * float(stdtr(df, -abs(t)))
    return TTestResult(variable, ma, mb, t=float(t), p_value=min(1.0, max(0.0, p)))


@dataclass(frozen=True)
class ImportanceComparison:
    variables: tuple[str, ...]
    model_means: dict[str, dict[str, float]]
    # (model_a, model_b) -> variable -> test
    tests: dict[tuple[str, str], dict[str, TTestResult]]


def compare_importances(
    per_model: Mapping[str, Sequence[Mapping[str, float]]]
) -> ImportanceComparison:
    """Pairwise Welch tests of per-variable importance across models.

    per_model maps a model name to its repeat-level importance vectors. All
    vectors must share one variable set and every model needs at least two
    repeats.
    """
    if len(per_model) < 2:
        raise DatasetError("compare_importances needs at least two models")
    names = list(per_model)
    first = per_model[names[0]]
    if not first:
        raise DatasetError(f"model {names[0]!r} has no importance vectors")
    variables = tuple(first[0])
    for model, vectors in per_model.items():
        if len(vectors) < 2:
            raise DatasetError(f"model {model!r} needs at least two repeats")
        for vec in vectors:
            missing = [v for v in variables if v not in vec]
            extra = [v for v in vec if v not in variables]
            if missing or extra:
                raise DatasetError(
                    f"model {model!r}: importance keys differ from {names[0]!r} "
                    f"(missing {missing}, extra {extra})"
                )
    model_means = {
        model: {v: float(np.mean([vec[v] for vec in vectors])) for v in variables}
        for model, vectors in per_model.items()
    }
    tests = {}
    for model_a, model_b in itertools.combinations(names, 2):
        grid = {}
        for v in variables:
            grid[v] = welch_t([vec[v] for vec in per_model[model_a]],
                              [vec[v] for vec in per_model[model_b]], variable=v)
        tests[(model_a, model_b)] = grid
    return ImportanceComparison(variables=variables, model_means=model_means,
                                tests=tests)
