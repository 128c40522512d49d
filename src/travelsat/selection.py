"""Support-set selection and representativeness checks.

Support records for few-shot prompts are picked from the training pool
either by mean similarity to the query set or uniformly at random. The
similarity between two encoded vectors is 1 / sqrt(squared distance + 1),
which is 1 exactly for identical vectors and falls toward 0 with distance.
Random draws are screened with two-sample Kolmogorov-Smirnov tests per
variable against the full dataset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.random import default_rng
from scipy.spatial.distance import cdist
from scipy.special import kolmogorov

from .dataset import Dataset, RespondentRecord
from .encoding import EncodingSpec, encode_matrix
from .errors import DatasetError
from .evaluation import significance_stars


def similarity_matrix(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Pairwise similarities between the rows of A and the rows of B:
    1 / sqrt(||a - b||^2 + 1) for rows a and b."""
    d2 = cdist(np.asarray(A, dtype=float), np.asarray(B, dtype=float), "sqeuclidean")
    return 1.0 / np.sqrt(d2 + 1.0)


def _check_k(train: Dataset, k: int) -> None:
    if k < 0:
        raise DatasetError("k must be non-negative")
    if k > len(train):
        raise DatasetError(f"k={k} exceeds training pool size {len(train)}")


def rank_order(train: Dataset, query: Dataset, spec: EncodingSpec) -> list[int]:
    """Training indices by descending mean similarity to the whole query set.

    Ties break toward the lower training index. The top-k support for every
    k is a prefix of this one order (see top_support).
    """
    sims = similarity_matrix(encode_matrix(train, spec), encode_matrix(query, spec))
    scores = sims.mean(axis=1)
    return sorted(range(len(train)), key=lambda i: (-scores[i], i))


def _support(train: Dataset, indices: Sequence[int]) -> tuple[RespondentRecord, ...]:
    """The training records at indices, in training order."""
    return tuple(train[int(i)] for i in sorted(indices))


def top_support(train: Dataset, order: Sequence[int], k: int) -> tuple[RespondentRecord, ...]:
    """The first k training records of a rank_order ranking, in training order."""
    _check_k(train, k)
    return _support(train, order[:k])


def rank_support(train: Dataset, query: Dataset, spec: EncodingSpec,
                 k: int) -> tuple[RespondentRecord, ...]:
    """Top-k training records by mean similarity to the whole query set.

    Ties break toward the lower training index. k = 0 gives no records
    (the zero-context case).
    """
    return top_support(train, rank_order(train, query, spec), k)


def random_support(train: Dataset, k: int, seed: int) -> tuple[RespondentRecord, ...]:
    """k training records drawn uniformly without replacement."""
    _check_k(train, k)
    return _support(train, default_rng(seed).choice(len(train), size=k, replace=False))


@dataclass(frozen=True)
class KsResult:
    variable: str
    d: float
    p_value: float

    @property
    def stars(self) -> str:
        return significance_stars(self.p_value)


def ks_two_sample(sample: Sequence[float], population: Sequence[float],
                  variable: str = "") -> KsResult:
    """Two-sample Kolmogorov-Smirnov test.

    D is the largest absolute gap between the two empirical CDFs; the
    p-value uses the asymptotic Kolmogorov distribution with effective size
    n1*n2 / (n1 + n2).
    """
    a = np.sort(np.asarray(sample, dtype=float))
    b = np.sort(np.asarray(population, dtype=float))
    n1, n2 = len(a), len(b)
    if n1 == 0 or n2 == 0:
        raise DatasetError("ks_two_sample needs non-empty samples")
    xs = np.concatenate([a, b])
    cdf1 = np.searchsorted(a, xs, side="right") / n1
    cdf2 = np.searchsorted(b, xs, side="right") / n2
    d = float(np.max(np.abs(cdf1 - cdf2)))
    effective = n1 * n2 / (n1 + n2)
    p = float(kolmogorov(math.sqrt(effective) * d))
    return KsResult(variable=variable, d=d, p_value=min(1.0, max(0.0, p)))


def representativeness_report(support: Sequence[RespondentRecord],
                              full: Dataset) -> list[KsResult]:
    """Per-variable K-S comparison of the support records against the full
    dataset. Categorical variables are compared on their numeric codes."""
    if not support:
        raise DatasetError("representativeness needs a non-empty support set")
    results = []
    for var in full.schema.predictors:
        sample = [r.values[var.name] for r in support]
        results.append(ks_two_sample(sample, full.column(var.name), variable=var.name))
    return results


def summarize_ks_repeats(per_repeat: Sequence[Sequence[KsResult]]) -> str:
    """Collapse repeat-level K-S results into one report cell.

    "ns" when no repeat flagged anything; otherwise each flagged variable
    with its strongest star level and the number of repeats that flagged it,
    e.g. "public_transit_station* (1)".
    """
    counts: dict[str, int] = {}
    stars: dict[str, str] = {}
    for results in per_repeat:
        for r in results:
            if r.stars:
                counts[r.variable] = counts.get(r.variable, 0) + 1
                if len(r.stars) > len(stars.get(r.variable, "")):
                    stars[r.variable] = r.stars
    if not counts:
        return "ns"
    parts = [f"{name}{stars[name]} ({counts[name]})" for name in sorted(counts)]
    return "; ".join(parts)
