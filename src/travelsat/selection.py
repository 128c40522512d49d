"""Support-set selection and representativeness checks.

Support records for few-shot prompts are picked from the training pool
either by mean similarity to the query set or uniformly at random. The
similarity between two encoded vectors is 1 / sqrt(squared distance + 1),
which is 1 exactly for identical vectors and falls toward 0 with distance.
Random draws are screened with two-sample Kolmogorov-Smirnov tests per
variable against the full dataset.

Nothing here calls BLAS. similarity_matrix counts the 0/1 columns in which
two encoded records differ by a byte XOR per column, not by a product of
matrices. The count is an exact integer either way, but numpy hands a
product of float matrices to BLAS, whose worker threads spin on after it
returns and take CPU from the rest of the run, and the offline mock calls
similarity_matrix for every few-shot prompt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.random import default_rng

from .dataset import Dataset, RespondentRecord
from .encoding import EncodingSpec, encode_matrix
from .errors import DatasetError
from .evaluation import significance_stars


def similarity_matrix(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Pairwise similarities between the rows of A and the rows of B:
    1 / sqrt(||a - b||^2 + 1) for rows a and b.

    Each pair's squared differences are added in column order, as a loop
    over pairs adds them (einsum and .sum(-1) regroup the terms, which
    changes the last bits), through one term buffer. A run of columns whose
    values in A and B are all 0 or 1, such as one-hot indicators, is added
    at once: a pair's term in such a column is 1 where the two rows differ
    and 0 elsewhere, and adding 0 changes nothing, so the run adds 1 once
    per differing column, in turn. The differing columns are counted into a
    byte per pair by XOR of the run's columns cast to uint8, one column at
    a time.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[1]:
        raise ValueError(f"rows of different widths: {A.shape} vs {B.shape}")
    binary = (((A == 0.0) | (A == 1.0)).all(axis=0)
              & ((B == 0.0) | (B == 1.0)).all(axis=0))
    d2 = np.zeros((len(A), len(B)))
    term = np.empty_like(d2)
    mask = np.empty(d2.shape, dtype=bool)
    count = np.empty(d2.shape, dtype=np.uint8)
    differ = np.empty_like(count)
    j, width = 0, A.shape[1]
    while j < width:
        if not binary[j]:
            np.subtract(A[:, j, None], B[None, :, j], out=term)
            np.multiply(term, term, out=term)
            d2 += term
            j += 1
            continue
        # a run ends at 255 columns, so that a pair's count fits in a byte
        end = j + 1
        while end < width and end - j < 255 and binary[end]:
            end += 1
        a = A[:, j:end].astype(np.uint8)
        b = B[:, j:end].astype(np.uint8)
        count.fill(0)
        for k in range(end - j):
            count += np.bitwise_xor(a[:, k, None], b[None, :, k], out=differ)
        for c in range(1, int(count.max(initial=0)) + 1):
            d2 += np.greater_equal(count, c, out=mask)
        j = end
    d2 += 1.0
    np.sqrt(d2, out=d2)
    return np.divide(1.0, d2, out=d2)


def _check_k(train: Dataset, k: int) -> None:
    if k < 0:
        raise DatasetError("k must be non-negative")
    if k > len(train):
        raise DatasetError(f"k={k} exceeds training pool size {len(train)}")


# training rows per similarity_matrix call in rank_order
_RANK_BLOCK = 256


def rank_order(train: Dataset, query: Dataset, spec: EncodingSpec) -> list[int]:
    """Training indices by descending mean similarity to the whole query set.

    Ties break toward the lower training index. The top-k support for every
    k is a prefix of this one order (see top_support).

    The scores are computed for _RANK_BLOCK (256) training rows at a time,
    so the similarity buffers (two float and three byte arrays the shape of
    the matrix, 19 bytes per pair) hold at most 256 x query pairs: 0.85 MB
    at 175 queries, against 2.3 MB for the whole 699 x 175 matrix, which
    grows with the square of the survey size. The scores are bit for bit
    those of one whole matrix: similarity_matrix adds each pair's terms in
    column order, so an entry depends on its two rows only (a run of 0/1
    columns adds the same 1s whether or not the rest of the matrix is 0/1
    there), and each row's mean reads the same row of values.
    """
    encoded = encode_matrix(train, spec)
    queries = encode_matrix(query, spec)
    scores = np.empty(len(encoded))
    for start in range(0, len(encoded), _RANK_BLOCK):
        block = slice(start, start + _RANK_BLOCK)
        scores[block] = similarity_matrix(encoded[block], queries).mean(axis=1)
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


def _kolmogorov_sf(x: float) -> float:
    """P(K > x) for the Kolmogorov distribution: one minus the Jacobi form of
    the CDF below 1, the alternating series from 1 on."""
    if x <= 0.0:
        return 1.0
    if x < 1.0:
        w = math.pi ** 2 / (8.0 * x * x)
        return 1.0 - math.sqrt(2.0 * math.pi) / x * sum(
            math.exp(-(2 * k - 1) ** 2 * w) for k in range(1, 8))
    return 2.0 * sum((-1) ** (k - 1) * math.exp(-2.0 * k * k * x * x)
                     for k in range(1, 20))


@dataclass(frozen=True)
class KsResult:
    variable: str
    d: float
    p_value: float

    @property
    def stars(self) -> str:
        return significance_stars(self.p_value)


def _ks_statistics(samples: np.ndarray, populations: np.ndarray) -> np.ndarray:
    """D of each row of samples against the same row of populations, both
    (rows, size) arrays with every row sorted ascending.

    D = sup |F1(x) - F2(x)| by the textbook rule. F1 - F2 rises only at a
    sample point, so it peaks at one, where both CDFs have stepped
    (#a <= x, #b <= x); F2 - F1 falls only at a sample point, so it peaks
    just before one (#a < x, #b < x), or at the end, where it is 0. Four
    counts per sample point, as count / size, give D in time that grows with
    the sample size and only as the log of the population size.
    """
    rows, n1 = samples.shape
    n2 = populations.shape[1]
    a_le, a_lt, b_le, b_lt = (np.empty((rows, n1), dtype=np.intp) for _ in range(4))
    for j, (a, b) in enumerate(zip(samples, populations)):
        a_le[j] = a.searchsorted(a, side="right")
        a_lt[j] = a.searchsorted(a, side="left")
        b_le[j] = b.searchsorted(a, side="right")
        b_lt[j] = b.searchsorted(a, side="left")
    return np.maximum(np.abs(a_le / n1 - b_le / n2).max(axis=1),
                      (b_lt / n2 - a_lt / n1).max(axis=1))


def _ks_result(variable: str, d: float, n1: int, n2: int) -> KsResult:
    effective = n1 * n2 / (n1 + n2)
    p = _kolmogorov_sf(math.sqrt(effective) * d)
    return KsResult(variable=variable, d=d, p_value=min(1.0, max(0.0, p)))


def ks_two_sample(sample: Sequence[float], population: Sequence[float]) -> KsResult:
    """Two-sample Kolmogorov-Smirnov test, naming no variable.

    D is the largest absolute gap between the two empirical CDFs; the
    p-value uses the asymptotic Kolmogorov distribution with effective size
    n1*n2 / (n1 + n2).
    """
    a = np.sort(np.asarray(sample, dtype=float))
    b = np.sort(np.asarray(population, dtype=float))
    if len(a) == 0 or len(b) == 0:
        raise DatasetError("ks_two_sample needs non-empty samples")
    d = float(_ks_statistics(a[None, :], b[None, :])[0])
    return _ks_result("", d, len(a), len(b))


def representativeness_report(support: Sequence[RespondentRecord],
                              full: Dataset) -> list[KsResult]:
    """Per-variable K-S comparison of the support records against the full
    dataset. Categorical variables are compared on their numeric codes.

    The population side is full.sorted_columns, sorted once per dataset,
    and every variable's D comes from one _ks_statistics call; each result's
    D and p-value are ks_two_sample(sample, full.column(name))'s.
    """
    if not support:
        raise DatasetError("representativeness needs a non-empty support set")
    names = full.schema.names
    samples = np.sort([[r.values[name] for r in support] for name in names], axis=1)
    statistics = _ks_statistics(samples, full.sorted_columns).tolist()
    return [_ks_result(name, d, len(support), len(full))
            for name, d in zip(names, statistics)]


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
