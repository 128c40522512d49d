import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import default_rng
from scipy import linalg

from travelsat import baselines
from travelsat.baselines import (
    FractionResult,
    GbdtHyper,
    _Node,
    _tree_predict,
    fit_gbdt,
    fit_gbdt_repeats,
    fit_ols,
    fraction_sweep,
    importance_gbdt,
    predict_gbdt,
    predict_ols,
)
from travelsat.dataset import split
from travelsat.encoding import design_matrix, encode_matrix, fit_encoding
from travelsat.errors import DatasetError, RankError
from travelsat.evaluation import evaluate
from travelsat.synthesize import synthesize


def normal_equation_fit(X, y):
    """Independent OLS oracle: solve (A'A) w = A'y directly."""
    A = np.hstack([np.ones((len(X), 1)), X])
    return np.linalg.solve(A.T @ A, A.T @ y)


def test_ols_exact_line():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = 2.0 * X[:, 0] + 1.0
    model = fit_ols(X, y)
    assert model.intercept == pytest.approx(1.0, abs=1e-12)
    assert model.coefficients[0] == pytest.approx(2.0, abs=1e-12)
    assert predict_ols(model, X) == pytest.approx(y, abs=1e-12)


def test_ols_matches_normal_equations():
    rng = np.random.default_rng(21)
    for _ in range(30):
        n = int(rng.integers(10, 60))
        p = int(rng.integers(1, 6))
        X = rng.normal(size=(n, p))
        y = rng.normal(size=n)
        model = fit_ols(X, y)
        w = normal_equation_fit(X, y)
        assert model.intercept == pytest.approx(w[0], rel=1e-8, abs=1e-10)
        assert model.coefficients == pytest.approx(w[1:], rel=1e-8, abs=1e-10)


def test_ols_prediction_bits_do_not_depend_on_layout():
    # BLAS sums a matrix-vector product in an order set by the memory layout
    rng = np.random.default_rng(23)
    X = rng.normal(size=(200, 40))
    model = fit_ols(X, rng.normal(size=200))
    by_rows = predict_ols(model, np.ascontiguousarray(X))
    by_columns = predict_ols(model, np.asfortranarray(X))
    assert by_rows.tobytes() == by_columns.tobytes()


def test_ols_residuals_orthogonal_to_design():
    rng = np.random.default_rng(22)
    X = rng.normal(size=(40, 4))
    y = rng.normal(size=40)
    model = fit_ols(X, y)
    residual = y - predict_ols(model, X)
    A = np.hstack([np.ones((40, 1)), X])
    assert np.abs(A.T @ residual).max() < 1e-9


def test_ols_duplicate_column_raises_rank_error():
    rng = np.random.default_rng(23)
    base = rng.normal(size=(30, 2))
    X = np.hstack([base, base[:, [0]]])  # third column repeats the first
    with pytest.raises(RankError) as excinfo:
        fit_ols(X, rng.normal(size=30), columns=("a", "b", "a_copy"))
    message = str(excinfo.value)
    assert "rank deficient" in message
    assert "a" in message or "a_copy" in message


def test_ols_constant_column_conflicts_with_intercept():
    X = np.hstack([np.ones((20, 1)), np.random.default_rng(1).normal(size=(20, 1))])
    with pytest.raises(RankError):
        fit_ols(X, np.arange(20.0), columns=("all_ones", "noise"))


def test_ols_names_each_column_in_the_span_of_earlier_ones():
    rng = np.random.default_rng(24)
    a, b, c = rng.normal(size=(3, 30))
    X = np.column_stack([a, b, a, c, a + b, np.full(30, 2.0)])
    with pytest.raises(RankError) as excinfo:
        fit_ols(X, rng.normal(size=30), columns=("a", "b", "a_copy", "c", "a_plus_b", "twos"))
    assert str(excinfo.value) == ("design matrix is rank deficient; dependent columns: "
                                  "a_copy, a_plus_b, twos")


def _random_design(rng):
    """A small design whose columns may copy, combine or repeat earlier ones,
    be constant (the intercept's span) or be sparse indicators."""
    p = int(rng.integers(1, 12))
    n = int(rng.integers(p + 2, 3 * p + 6))
    columns = []
    for _ in range(p):
        kind = int(rng.integers(0, 6))
        if kind == 0 and columns:
            columns.append(columns[int(rng.integers(len(columns)))].copy())
        elif kind == 1 and len(columns) >= 2:
            i, k = rng.choice(len(columns), 2, replace=False)
            columns.append(columns[i] * float(rng.integers(-3, 4)) - 2.0 * columns[k])
        elif kind == 2:
            columns.append(np.full(n, float(rng.integers(-2, 3))))
        elif kind == 3:
            columns.append((rng.integers(0, 3, size=n) == 0).astype(float))
        else:
            columns.append(rng.normal(size=n) * 10.0 ** rng.uniform(-2, 2))
    return np.column_stack(columns), rng.normal(size=n)


def _survey_designs():
    """Train-side design matrices of synthetic surveys, as a sweep builds
    them: small folds miss rare levels, large ones have full rank."""
    for seed in range(12):
        for n in (60, 120, 874):
            dataset = synthesize(n, seed=seed)
            spec = fit_encoding(dataset)
            for fraction in (0.5, 0.9):
                train, _ = split(dataset, fraction, seed=seed)
                X, _, _ = design_matrix(train, spec)
                if len(X) >= X.shape[1] + 2:
                    yield X, train.labels()


def test_ols_refuses_exactly_the_rank_deficient_designs():
    rng = np.random.default_rng(25)
    designs = [_random_design(rng) for _ in range(1500)] + list(_survey_designs())
    refused = fitted = 0
    for X, y in designs:
        A = np.hstack([np.ones((len(X), 1)), X])
        deficient = np.linalg.matrix_rank(A) < A.shape[1]
        try:
            model = fit_ols(X, y)
        except RankError:
            assert deficient, X.shape
            refused += 1
            continue
        assert not deficient, X.shape
        fitted += 1
        reference = linalg.lstsq(A, y)[0]
        ours = np.concatenate([[model.intercept], model.coefficients])
        assert np.abs(ours - reference).max() <= 1e-9 * max(1.0, np.abs(reference).max())
    assert refused > 100 and fitted > 100


def test_ols_shape_errors():
    with pytest.raises(DatasetError):
        fit_ols(np.zeros((5, 2)), np.zeros(4))
    with pytest.raises(DatasetError):
        fit_ols(np.zeros(5), np.zeros(5))
    with pytest.raises(DatasetError):
        fit_ols(np.zeros((3, 2)), np.zeros(3))  # too few rows for p + 2
    with pytest.raises(DatasetError):
        fit_ols(np.zeros((6, 2)), np.zeros(6), columns=("only_one",))
    model = fit_ols(np.arange(8.0).reshape(-1, 1), np.arange(8.0))
    with pytest.raises(DatasetError):
        predict_ols(model, np.zeros((4, 3)))


def test_gbdt_constant_target():
    X = np.random.default_rng(3).normal(size=(30, 2))
    model = fit_gbdt(X, np.full(30, 4.2), GbdtHyper(n_trees=20))
    assert predict_gbdt(model, X) == pytest.approx(np.full(30, 4.2), abs=1e-12)
    assert model.train_losses[0] < 1e-28
    for wrong in (X[:, :1], np.hstack([X, X]), X[0]):
        with pytest.raises(DatasetError, match="but model expects 2 columns"):
            predict_gbdt(model, wrong)


def test_gbdt_learns_step_function():
    X = np.linspace(0.0, 1.0, 60).reshape(-1, 1)
    y = np.where(X[:, 0] < 0.5, 1.0, 5.0)
    model = fit_gbdt(X, y, GbdtHyper(n_trees=200, max_depth=2, learning_rate=0.1))
    assert model.train_losses[-1] < 1e-3
    assert predict_gbdt(model, X) == pytest.approx(y, abs=0.05)


def test_gbdt_train_loss_monotone():
    rng = np.random.default_rng(24)
    for trial in range(5):
        X = rng.normal(size=(50, 3))
        y = X[:, 0] * 2.0 + rng.normal(scale=0.3, size=50)
        model = fit_gbdt(X, y, GbdtHyper(n_trees=80), seed=trial)
        losses = np.array(model.train_losses)
        assert len(losses) == 81
        assert np.all(np.diff(losses) <= 1e-12)


def test_gbdt_invariant_to_monotone_feature_transform():
    """Tree splits depend only on feature order, so squashing a feature
    through a monotone map cannot change train-point predictions."""
    rng = np.random.default_rng(25)
    X = rng.uniform(0.5, 3.0, size=(40, 2))
    y = np.sin(X[:, 0]) + X[:, 1]
    hyper = GbdtHyper(n_trees=30, max_depth=2)
    plain = predict_gbdt(fit_gbdt(X, y, hyper), X)
    warped = X.copy()
    warped[:, 0] = np.log(warped[:, 0])
    warped_model = fit_gbdt(warped, y, hyper)
    assert predict_gbdt(warped_model, warped) == pytest.approx(plain, abs=1e-9)


def test_gbdt_deterministic_with_subsample():
    rng = np.random.default_rng(26)
    X = rng.normal(size=(60, 3))
    y = X[:, 1] + rng.normal(scale=0.2, size=60)
    hyper = GbdtHyper(n_trees=40, subsample=0.7)
    a = predict_gbdt(fit_gbdt(X, y, hyper, seed=5), X)
    b = predict_gbdt(fit_gbdt(X, y, hyper, seed=5), X)
    c = predict_gbdt(fit_gbdt(X, y, hyper, seed=6), X)
    assert a == pytest.approx(b, abs=0.0)
    assert np.max(np.abs(a - c)) > 0.0


def test_gbdt_importance_single_feature():
    rng = np.random.default_rng(27)
    X = rng.normal(size=(80, 3))
    y = 3.0 * X[:, 1]
    model = fit_gbdt(X, y, GbdtHyper(n_trees=50))
    imp = importance_gbdt(model.column_gains, ("x0", "x1", "x2"))
    assert imp["x1"] > 0.99
    assert sum(imp.values()) == pytest.approx(1.0, abs=1e-12)


def test_gbdt_importance_finds_signal_among_noise():
    rng = np.random.default_rng(28)
    X = rng.normal(size=(1000, 5))
    y = 2.0 * X[:, 2] + rng.normal(scale=0.1, size=1000)
    model = fit_gbdt(X, y, GbdtHyper(n_trees=60, max_depth=2))
    imp = importance_gbdt(model.column_gains, [f"x{j}" for j in range(5)])
    assert imp["x2"] > 0.95
    for j in (0, 1, 3, 4):
        assert imp[f"x{j}"] < 0.05


def test_gbdt_importance_aggregates_to_parent_variables():
    rng = np.random.default_rng(29)
    X = rng.normal(size=(100, 4))
    y = X[:, 0] + X[:, 1] - X[:, 2]
    model = fit_gbdt(X, y, GbdtHyper(n_trees=40))
    imp = importance_gbdt(model.column_gains, ("mode", "mode", "mode", "age"))
    assert set(imp) == {"mode", "age"}
    assert imp["mode"] + imp["age"] == pytest.approx(1.0, abs=1e-12)
    assert imp["mode"] > imp["age"]


def test_gbdt_importance_uniform_when_no_splits():
    X = np.zeros((20, 3))  # nothing to split on
    model = fit_gbdt(X, np.arange(20.0), GbdtHyper(n_trees=5))
    with pytest.warns(UserWarning):
        imp = importance_gbdt(model.column_gains, ("x0", "x1", "x2"))
    assert imp == {"x0": pytest.approx(1 / 3), "x1": pytest.approx(1 / 3),
                   "x2": pytest.approx(1 / 3)}


def test_gbdt_hyper_validation():
    for bad in (dict(n_trees=0), dict(max_depth=0), dict(learning_rate=0.0),
                dict(learning_rate=1.5), dict(min_leaf=0), dict(subsample=0.0),
                dict(subsample=1.1)):
        with pytest.raises(DatasetError):
            GbdtHyper(**bad)


def test_gbdt_shape_errors():
    with pytest.raises(DatasetError):
        fit_gbdt(np.zeros((5, 2)), np.zeros(4))
    with pytest.raises(DatasetError):
        fit_gbdt(np.zeros((4, 2)), np.zeros(4), GbdtHyper(min_leaf=5))
    model = fit_gbdt(np.zeros((30, 2)), np.zeros(30), GbdtHyper(n_trees=1))
    with pytest.raises(DatasetError, match="2 columns but 1 column labels"):
        importance_gbdt(model.column_gains, ("a",))


def reference_best_split(X, residual, min_leaf):
    """Independent split oracle: stable argsort of every column at every
    node, gains at every left size, non-candidates masked to -inf."""
    n, p = X.shape
    sizes = np.arange(min_leaf, n - min_leaf + 1)
    if sizes.size == 0:
        return None
    order = np.argsort(X, axis=0, kind="stable")
    cs = np.take_along_axis(X, order, axis=0)
    prefix = np.cumsum(residual[order], axis=0)
    total = prefix[-1, :]
    left = prefix[sizes - 1, :]
    gains = (left ** 2 / sizes[:, None]
             + (total - left) ** 2 / (n - sizes)[:, None]
             - total ** 2 / n)
    gains[cs[sizes - 1, :] >= cs[sizes, :]] = -np.inf
    feature, offset = divmod(int(np.argmax(gains.T)), len(sizes))
    gain = float(gains[offset, feature])
    if gain <= 1e-12 or not np.isfinite(gain):
        return None
    i = int(sizes[offset])
    threshold = float((cs[i - 1, feature] + cs[i, feature]) / 2.0)
    return gain, feature, threshold


def reference_build_tree(X, residual, depth, hyper, gains_out):
    n, p = X.shape
    if depth == 0 or n < 2 * hyper.min_leaf:
        return _Node(value=float(np.mean(residual)))
    best = reference_best_split(X, residual, hyper.min_leaf)
    if best is None:
        return _Node(value=float(np.mean(residual)))
    gain, feature, threshold = best
    gains_out[feature] += gain
    mask = X[:, feature] <= threshold
    return _Node(
        feature=feature,
        threshold=threshold,
        left=reference_build_tree(X[mask], residual[mask], depth - 1, hyper, gains_out),
        right=reference_build_tree(X[~mask], residual[~mask], depth - 1, hyper, gains_out),
    )


def reference_fit(X, y, hyper, seed):
    """(trees, column gains, train losses, predictions) of the boosting
    loop over the per-node oracle, drawing subsamples as fit_gbdt does."""
    rng = default_rng(seed)
    n, p = X.shape
    prediction = np.full(n, float(np.mean(y)))
    gains = np.zeros(p)
    trees = []
    losses = [float(np.mean((y - prediction) ** 2))]
    for _ in range(hyper.n_trees):
        residual = y - prediction
        if hyper.subsample < 1.0:
            size = max(2 * hyper.min_leaf, int(round(hyper.subsample * n)))
            rows = np.sort(rng.choice(n, size=min(size, n), replace=False))
        else:
            rows = np.arange(n)
        tree = reference_build_tree(X[rows], residual[rows], hyper.max_depth,
                                    hyper, gains)
        trees.append(tree)
        prediction = prediction + hyper.learning_rate * _tree_predict(tree, X)
        losses.append(float(np.mean((y - prediction) ** 2)))
    return trees, gains, losses, prediction


def tree_bits(node):
    """A tree as nested tuples with every float spelled out exactly."""
    if node.left is None:
        return float(node.value).hex()
    return (node.feature, float(node.threshold).hex(),
            tree_bits(node.left), tree_bits(node.right))


def assert_matches_reference(X, y, hyper, seed=0):
    model = fit_gbdt(X, y, hyper, seed=seed)
    trees, gains, losses, prediction = reference_fit(X, y, hyper, seed)
    assert [tree_bits(t) for t in model.trees] == [tree_bits(t) for t in trees]
    assert model.column_gains.tobytes() == gains.tobytes()
    assert [v.hex() for v in model.train_losses] == [v.hex() for v in losses]
    assert predict_gbdt(model, X).tobytes() == prediction.tobytes()
    return model


def tie_heavy_matrix(rng, n):
    """Numeric and one-hot columns, with a duplicated numeric column and a
    complementary one-hot pair: equal gains that only the tie-break orders."""
    numeric = rng.normal(size=(n, 3))
    onehot = (rng.random(size=(n, 3)) < 0.3).astype(float)
    X = np.hstack([numeric, numeric[:, [1]], onehot, 1.0 - onehot[:, [0]],
                   np.round(numeric[:, [2]])])
    y = numeric[:, 1] + 2.0 * onehot[:, 0] + rng.normal(scale=0.3, size=n)
    return X, y


def test_gbdt_matches_per_node_sort_oracle_on_ties():
    rng = np.random.default_rng(30)
    for n in (40, 97, 250):
        X, y = tie_heavy_matrix(rng, n)
        model = assert_matches_reference(X, y, GbdtHyper(n_trees=25))
        # an exact duplicate (column 3 of column 1) ties exactly and never
        # wins; the complement's gains differ from column 4's by rounding
        assert model.column_gains[3] == 0.0


def test_gbdt_matches_oracle_with_constant_column():
    rng = np.random.default_rng(31)
    X = np.hstack([np.full((60, 1), 2.5), rng.normal(size=(60, 2))])
    y = X[:, 2] + rng.normal(scale=0.1, size=60)
    model = assert_matches_reference(X, y, GbdtHyper(n_trees=20))
    assert model.column_gains[0] == 0.0


@pytest.mark.parametrize("extra", [0, 1, 2])
def test_gbdt_matches_oracle_at_minimum_rows(extra):
    rng = np.random.default_rng(32)
    hyper = GbdtHyper(n_trees=10, min_leaf=5)
    n = 2 * hyper.min_leaf + extra
    X, y = tie_heavy_matrix(rng, n)
    assert_matches_reference(X, y, hyper)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_gbdt_matches_oracle_with_subsample(seed):
    rng = np.random.default_rng(33 + seed)
    X, y = tie_heavy_matrix(rng, 120)
    assert_matches_reference(X, y, GbdtHyper(n_trees=30, subsample=0.8),
                             seed=seed)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_gbdt_matches_oracle_on_small_integer_matrices(data):
    n = data.draw(st.integers(4, 30))
    p = data.draw(st.integers(1, 4))
    cells = st.lists(st.integers(-2, 2), min_size=n * p, max_size=n * p)
    X = np.array(data.draw(cells), dtype=float).reshape(n, p)
    y = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)),
                 dtype=float)
    min_leaf = data.draw(st.integers(1, n // 2))
    hyper = GbdtHyper(n_trees=3, max_depth=data.draw(st.integers(1, 3)),
                      min_leaf=min_leaf,
                      subsample=data.draw(st.sampled_from([1.0, 0.7])))
    assert_matches_reference(X, y, hyper, seed=data.draw(st.integers(0, 3)))


def test_fraction_sweep_smoke(small_dataset):
    results = fraction_sweep(small_dataset, (0.5, 0.8), kind="gbdt", seed=1,
                             hyper=GbdtHyper(n_trees=30))
    assert [r.fraction for r in results] == [0.5, 0.8]
    for r in results:
        assert r.status == "ok"
        assert r.metrics.mse >= 0.0


def test_fraction_sweep_lr_beats_gbdt_everywhere(dense_dataset):
    """On linear-rule data with dense category coverage the linear model
    should win at every train fraction; the boosted trees need more data
    than any of these splits provide."""
    fractions = (0.2, 0.4, 0.6, 0.8)
    lr = fraction_sweep(dense_dataset, fractions, kind="lr", seed=2)
    gbdt = fraction_sweep(dense_dataset, fractions, kind="gbdt", seed=2,
                          hyper=GbdtHyper(n_trees=100))
    for lr_cell, gbdt_cell in zip(lr, gbdt):
        assert lr_cell.status == "ok" and gbdt_cell.status == "ok"
        assert lr_cell.metrics.mse < gbdt_cell.metrics.mse


def test_fraction_sweep_records_cell_failures(dense_dataset):
    # 5% of 500 rows cannot support the 45-column linear design; the cell
    # must fail in place instead of aborting the sweep
    results = fraction_sweep(dense_dataset, (0.05, 0.8), kind="lr", seed=1)
    by_fraction = {r.fraction: r for r in results}
    assert by_fraction[0.05].metrics is None
    assert by_fraction[0.05].status.startswith("failed:")
    assert by_fraction[0.8].status == "ok"


def test_fraction_sweep_reports_rank_failures_by_column(small_dataset):
    # rare category codes leave all-zero one-hot columns in small splits;
    # the failure message names them
    results = fraction_sweep(small_dataset, (0.8,), kind="lr", seed=1)
    assert results[0].metrics is None
    assert "rank deficient" in results[0].status


def test_fraction_sweep_repeats(small_dataset):
    results = fraction_sweep(small_dataset, (0.6,), kind="gbdt", seed=3,
                             repeats=3, hyper=GbdtHyper(n_trees=20))
    assert [r.repeat for r in results] == [0, 1, 2]
    mses = {r.metrics.mse for r in results}
    assert len(mses) > 1  # different splits, different numbers


def test_fraction_sweep_rejects_degenerate_fraction(small_dataset):
    with pytest.raises(DatasetError):
        fraction_sweep(small_dataset, (0.0,), kind="lr")
    with pytest.raises(DatasetError):
        fraction_sweep(small_dataset, (1.0,), kind="lr")
    with pytest.raises(DatasetError):
        fraction_sweep(small_dataset, (0.5,), kind="tree")
    with pytest.raises(DatasetError):
        fraction_sweep(small_dataset, (0.5,), kind="lr", repeats=0)


def test_fraction_result_shape():
    cell = FractionResult(fraction=0.5, repeat=0, metrics=None, status="failed: x")
    assert cell.metrics is None


def per_cell_sweep(dataset, fractions, kind, seed, repeats, hyper):
    """fraction_sweep as it was written before it encoded the dataset once:
    every cell splits the records and encodes both sides afresh."""
    spec = fit_encoding(dataset)
    results = []
    for fraction in fractions:
        for repeat in range(repeats):
            train, test = split(dataset, fraction, seed=seed + repeat)
            try:
                if kind == "lr":
                    X_train, names, _ = design_matrix(train, spec)
                    model = fit_ols(X_train, train.labels(), columns=names)
                    predicted = predict_ols(model, design_matrix(test, spec)[0])
                else:
                    model = fit_gbdt(encode_matrix(train, spec), train.labels(),
                                     hyper=hyper, seed=seed + repeat)
                    predicted = predict_gbdt(model, encode_matrix(test, spec))
            except (RankError, DatasetError) as exc:
                results.append(FractionResult(fraction, repeat, None, f"failed: {exc}"))
                continue
            results.append(FractionResult(fraction, repeat,
                                          evaluate(test.labels(), predicted)))
    return results


@pytest.mark.parametrize("kind", ["lr", "gbdt"])
def test_fraction_sweep_matches_per_cell_encoding(dense_dataset, kind):
    # 0.05 of 500 rows is 25, too few for either model, so failed cells are
    # compared as well as fitted ones
    fractions = (0.05, 0.5, 0.8)
    hyper = GbdtHyper(n_trees=10, min_leaf=13, subsample=0.8)
    expected = per_cell_sweep(dense_dataset, fractions, kind, 4, 2, hyper)
    got = fraction_sweep(dense_dataset, fractions, kind, seed=4, repeats=2, hyper=hyper)
    assert got == expected
    assert [r.status == "ok" for r in got] == [False, False, True, True, True, True]


def pool_sweep(dataset, monkeypatch, cpus, hyper, fractions=(0.1, 0.5, 0.8)):
    monkeypatch.setattr(baselines, "_cpu_count", lambda: cpus)
    return fraction_sweep(dataset, fractions, kind="gbdt", seed=2, repeats=2,
                          hyper=hyper)


def test_fraction_sweep_pooled_equals_inline(small_dataset, monkeypatch):
    hyper = GbdtHyper(n_trees=20, subsample=0.8)
    inline = pool_sweep(small_dataset, monkeypatch, 1, hyper)
    pooled = pool_sweep(small_dataset, monkeypatch, 2, hyper)
    assert [(r.fraction, r.repeat) for r in pooled] == [
        (f, r) for f in (0.1, 0.5, 0.8) for r in (0, 1)]
    assert all(r.status == "ok" for r in pooled)
    assert pooled == inline


def test_fraction_sweep_pooled_records_cell_failure(small_dataset, monkeypatch):
    # 0.1 of 120 rows is 12, short of the 2 * min_leaf a tree needs: the
    # worker's DatasetError becomes that cell's status
    pooled = pool_sweep(small_dataset, monkeypatch, 2, GbdtHyper(n_trees=5, min_leaf=10))
    for r in pooled:
        if r.fraction == 0.1:
            assert r.metrics is None
            assert r.status == "failed: need at least 20 rows, got 12"
        else:
            assert r.status == "ok"


@pytest.mark.skipif(baselines._pool_context().get_start_method() != "fork",
                    reason="the patched fit reaches workers only when they fork")
def test_fraction_sweep_pooled_reraises_unexpected_errors(small_dataset, monkeypatch):
    def broken_fit(*args, **kwargs):
        raise ZeroDivisionError(f"boom in process {os.getpid()}")

    monkeypatch.setattr(baselines, "fit_gbdt", broken_fit)
    with pytest.raises(ZeroDivisionError, match="boom in process") as info:
        pool_sweep(small_dataset, monkeypatch, 2, GbdtHyper(n_trees=5))
    assert str(info.value) != f"boom in process {os.getpid()}"


def test_fit_gbdt_repeats_pooled_equals_inline(small_dataset, monkeypatch):
    spec = fit_encoding(small_dataset)
    X, y = encode_matrix(small_dataset, spec), small_dataset.labels()
    hyper = GbdtHyper(n_trees=20, subsample=0.8)
    fits = {}
    for cpus in (1, 2):
        monkeypatch.setattr(baselines, "_cpu_count", lambda: cpus)
        fits[cpus] = fit_gbdt_repeats(X, y, [3, 4, 5], hyper=hyper)
    labels = spec.column_variables()
    # only the gains leave a worker: the fit_gbdt oracles cover the trees,
    # and test_fraction_sweep_pooled_equals_inline a pooled fit's predictions
    for inline, pooled in zip(fits[1], fits[2], strict=True):
        for gains in (inline, pooled):
            assert isinstance(gains, np.ndarray)
            assert gains.dtype == float and gains.shape == (X.shape[1],)
        assert pooled.tobytes() == inline.tobytes()
        assert importance_gbdt(pooled, labels) == importance_gbdt(inline, labels)
    assert fits[1][0].tobytes() != fits[1][1].tobytes()
