import math

import numpy as np
import pytest
from scipy import special, stats
from scipy.spatial.distance import cdist

from travelsat.dataset import Dataset, RespondentRecord
from travelsat.encoding import encode_matrix, fit_encoding
from travelsat.errors import DatasetError
from travelsat.schema import NUMERIC, Variable, VariableSchema
from travelsat.selection import (
    KsResult,
    _kolmogorov_sf,
    ks_two_sample,
    random_support,
    rank_order,
    rank_support,
    representativeness_report,
    similarity_matrix,
    summarize_ks_repeats,
)


def similarity(a, b) -> float:
    """Oracle: the similarity of two vectors by its definition, one pair at a
    time, 1 / sqrt(||a - b||^2 + 1)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    assert a.shape == b.shape
    return 1.0 / math.sqrt(float(np.sum((a - b) ** 2)) + 1.0)


def _pair(a, b) -> float:
    """similarity_matrix on one row each side."""
    return float(similarity_matrix([a], [b])[0, 0])


def test_similarity_hand_case():
    assert _pair((0.0, 0.0), (3.0, 4.0)) == pytest.approx(1 / math.sqrt(26), abs=1e-15)


def test_similarity_identity_and_range():
    rng = np.random.default_rng(2)
    for _ in range(200):
        a = rng.normal(size=5)
        b = rng.normal(size=5)
        s = _pair(a, b)
        assert 0.0 < s <= 1.0
        assert _pair(a, a) == 1.0


def test_similarity_symmetric():
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = rng.normal(size=4)
        b = rng.normal(size=4)
        assert _pair(a, b) == _pair(b, a)


def test_similarity_shape_mismatch():
    with pytest.raises(ValueError):
        similarity_matrix([(1.0, 2.0)], [(1.0, 2.0, 3.0)])


def test_similarity_matrix_matches_pairwise():
    rng = np.random.default_rng(4)
    A = rng.normal(size=(6, 3))
    B = rng.normal(size=(4, 3))
    M = similarity_matrix(A, B)
    for i in range(6):
        for j in range(4):
            assert M[i, j] == pytest.approx(similarity(A[i], B[j]), abs=1e-12)


def _numeric_dataset(X: np.ndarray, prefix: str) -> Dataset:
    width = X.shape[1]
    schema = VariableSchema(predictors=tuple(
        Variable(f"f{j}", "socioeconomics", NUMERIC) for j in range(width)))
    records = tuple(
        RespondentRecord(f"{prefix}{i}", {f"f{j}": float(X[i, j]) for j in range(width)}, 4.0)
        for i in range(len(X)))
    return Dataset(schema=schema, records=records)


def _identity_spec(dataset: Dataset):
    # constant-free encoding: center 0 scale 1 is enough for ranking tests
    spec = fit_encoding(dataset)
    return spec


def brute_force_rank(train_X: np.ndarray, query_X: np.ndarray, k: int) -> set[int]:
    """Independent top-k: plain python loops, full sort, index tie-break."""
    scores = []
    for i, t in enumerate(train_X):
        total = 0.0
        for q in query_X:
            d2 = sum((float(a) - float(b)) ** 2 for a, b in zip(t, q))
            total += 1.0 / math.sqrt(d2 + 1.0)
        scores.append((i, total / len(query_X)))
    ordered = sorted(scores, key=lambda pair: (-pair[1], pair[0]))
    return {i for i, _ in ordered[:k]}


def test_rank_support_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(5, 51))
        m = int(rng.integers(2, 10))
        width = int(rng.integers(1, 5))
        k = int(rng.integers(1, n + 1))
        train_X = rng.normal(size=(n, width))
        query_X = rng.normal(size=(m, width))
        train = _numeric_dataset(train_X, "t")
        query = _numeric_dataset(query_X, "q")
        spec = fit_encoding(train)
        chosen = rank_support(train, query, spec, k)
        encoded_train = encode_matrix(train, spec)
        encoded_query = encode_matrix(query, spec)
        expected = brute_force_rank(encoded_train, encoded_query, k)
        got = {int(r.record_id[1:]) for r in chosen}
        assert got == expected


def test_rank_support_prefix_property(small_dataset):
    from travelsat.dataset import split
    spec = fit_encoding(small_dataset)
    train, test = split(small_dataset, 0.8, seed=0)
    order = rank_order(train, test, spec)
    assert sorted(order) == list(range(len(train)))
    previous: set[str] = set()
    for k in range(0, len(train) + 1):
        support = rank_support(train, test, spec, k)
        assert previous <= {r.record_id for r in support}
        previous = {r.record_id for r in support}
        # every top-k is the first k of the one ranking, in training order
        assert support == tuple(train[i] for i in sorted(order[:k]))


def test_rank_support_tie_breaks_to_lower_index():
    X = np.array([[1.0], [1.0], [1.0]])
    train = _numeric_dataset(X, "t")
    query = _numeric_dataset(np.array([[0.0]]), "q")
    spec = fit_encoding(train)
    support = rank_support(train, query, spec, 2)
    assert [r.record_id for r in support] == ["t0", "t1"]


def test_rank_support_bounds(small_dataset):
    from travelsat.dataset import split
    spec = fit_encoding(small_dataset)
    train, test = split(small_dataset, 0.8, seed=0)
    assert len(rank_support(train, test, spec, 0)) == 0
    assert len(rank_support(train, test, spec, len(train))) == len(train)
    with pytest.raises(DatasetError):
        rank_support(train, test, spec, len(train) + 1)
    with pytest.raises(DatasetError):
        rank_support(train, test, spec, -1)


def test_random_support_deterministic(small_dataset):
    a = random_support(small_dataset, 6, seed=5)
    b = random_support(small_dataset, 6, seed=5)
    assert [r.record_id for r in a] == [r.record_id for r in b]
    assert len({r.record_id for r in a}) == 6
    c = random_support(small_dataset, 6, seed=6)
    assert [r.record_id for r in c] != [r.record_id for r in a]


def test_random_support_uniform():
    X = np.arange(4, dtype=float).reshape(-1, 1)
    pool = _numeric_dataset(X, "t")
    counts = {f"t{i}": 0 for i in range(4)}
    for seed in range(10_000):
        counts[random_support(pool, 1, seed=seed)[0].record_id] += 1
    for record_id, count in counts.items():
        assert abs(count - 2500) <= 150, (record_id, count)


def test_random_support_bounds(small_dataset):
    assert len(random_support(small_dataset, 0, seed=0)) == 0
    with pytest.raises(DatasetError):
        random_support(small_dataset, len(small_dataset) + 1, seed=0)


def _ks_series_oracle(d: float, n1: int, n2: int) -> float:
    """Independent asymptotic p: 2 sum (-1)^(k-1) exp(-2 k^2 lambda^2)."""
    lam = math.sqrt(n1 * n2 / (n1 + n2)) * d
    if lam == 0:
        return 1.0
    total = 0.0
    for k in range(1, 101):
        total += (-1) ** (k - 1) * math.exp(-2.0 * k * k * lam * lam)
    return max(0.0, min(1.0, 2.0 * total))


def test_ks_hand_cases():
    identical = ks_two_sample([1, 2, 3], [1, 2, 3])
    assert identical.d == 0.0 and identical.p_value == 1.0
    disjoint = ks_two_sample([1, 2, 3, 4], [5, 6, 7, 8])
    assert disjoint.d == 1.0
    interleaved = ks_two_sample([1, 3], [2, 4])
    assert interleaved.d == 0.5


def test_ks_statistic_matches_scipy():
    rng = np.random.default_rng(6)
    for _ in range(30):
        a = rng.normal(size=int(rng.integers(5, 80)))
        b = rng.normal(size=int(rng.integers(5, 80)))
        ours = ks_two_sample(a, b)
        assert ours.d == pytest.approx(stats.ks_2samp(a, b).statistic, abs=1e-14)


def test_ks_p_matches_series_oracle():
    rng = np.random.default_rng(8)
    for _ in range(30):
        a = rng.normal(size=int(rng.integers(10, 120)))
        b = rng.normal(size=int(rng.integers(10, 400)))
        ours = ks_two_sample(a, b)
        oracle = _ks_series_oracle(ours.d, len(a), len(b))
        assert ours.p_value == pytest.approx(oracle, abs=1e-9)


def test_ks_invariant_under_monotone_transform():
    rng = np.random.default_rng(9)
    a = rng.normal(size=40)
    b = rng.normal(size=60)
    before = ks_two_sample(a, b).d
    after = ks_two_sample(np.exp(a), np.exp(b)).d
    assert before == after


def test_ks_stars_thresholds():
    assert KsResult("x", 0.5, 0.20).stars == ""
    assert KsResult("x", 0.5, 0.049).stars == "*"
    assert KsResult("x", 0.5, 0.009).stars == "**"


def test_representativeness_identical_sample(small_dataset):
    results = representativeness_report(small_dataset.records, small_dataset)
    assert len(results) == 17
    for r in results:
        assert r.d == 0.0 and r.p_value == 1.0 and r.stars == ""


def test_representativeness_refuses_empty_support(small_dataset):
    with pytest.raises(DatasetError, match="non-empty support set"):
        representativeness_report((), small_dataset)


def test_representativeness_flags_skewed_support(small_dataset):
    order = np.argsort(small_dataset.column("commuting_time"))[-12:]
    support = tuple(small_dataset[int(i)] for i in order)
    results = {r.variable: r for r in representativeness_report(support, small_dataset)}
    assert results["commuting_time"].stars


def test_summarize_ks_repeats_ns():
    quiet = [KsResult("age", 0.1, 0.9)]
    assert summarize_ks_repeats([quiet, quiet, quiet]) == "ns"


def test_summarize_ks_repeats_counts():
    flagged = [KsResult("parking_lot", 0.6, 0.03)]
    quiet = [KsResult("parking_lot", 0.1, 0.8)]
    assert summarize_ks_repeats([flagged, quiet, quiet]) == "parking_lot* (1)"
    strong = [KsResult("parking_lot", 0.8, 0.004)]
    assert summarize_ks_repeats([flagged, strong, quiet]) == "parking_lot** (2)"


def test_summarize_ks_repeats_multiple_variables():
    repeat = [KsResult("age", 0.5, 0.02), KsResult("income", 0.7, 0.005)]
    assert summarize_ks_repeats([repeat]) == "age* (1); income** (1)"


def test_similarity_matrix_equals_cdist_bit_for_bit():
    rng = np.random.default_rng(31)
    for _ in range(200):
        m, n, p = (int(v) for v in rng.integers(1, 40, size=3))
        scale = 10.0 ** rng.uniform(-3, 3)
        A = rng.normal(size=(m, p)) * scale
        B = rng.normal(size=(n, p)) * scale
        expected = 1.0 / np.sqrt(cdist(A, B, "sqeuclidean") + 1.0)
        assert similarity_matrix(A, B).tobytes() == expected.tobytes()


def test_kolmogorov_sf_matches_scipy():
    grid = np.concatenate([np.linspace(0.0, 4.0, 4001), [-1.0, 1e-3, 6.0, 10.0],
                           1.0 + np.arange(-20, 21) * 1e-9,
                           [np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)]])
    for x in grid:
        assert abs(_kolmogorov_sf(float(x)) - special.kolmogorov(x)) <= 1e-14, x
