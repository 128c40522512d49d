"""Statistical baselines: linear regression and boosted regression trees.

Both models are written out in full here. OLS solves the least-squares
problem by unpivoted QR, with a rank check that names the dependent
columns. Its predictions are the same bits for every memory layout of X:
BLAS sums a matrix-vector product in an order that depends on the layout,
so predict_ols always multiplies X column-major.
The GBDT fits squared-loss gradient boosting with greedy variance-reduction
splits on midpoints between distinct sorted values; with subsample = 1 (the
default) the fit is fully deterministic. A fitted model knows its columns
only by index: importance_gbdt takes each column's parent variable from its
caller (EncodingSpec.column_variables), so no fit or worker carries labels.

Split finding is exact greedy over presorted column blocks (the layout of
XGBoost's exact split finder, Chen & Guestrin 2016, sections 3.1 and 4.1):
each column is sorted once per fit, stably, and every tree and node keeps
its rows in that sorted order by filtering its parent's block, so no node
sorts again. Because a filtered stable order equals a stable sort of the
node's own rows, the trees, gains and predictions are bit for bit those of
sorting every column at every node, ties included: the lowest column wins,
then the smallest threshold.

The GBDT fits of a sweep (fraction_sweep) and of an importance study
(fit_gbdt_repeats) are independent, so they run in a process pool with one
worker per CPU this process may use, capped at the number of fits; with one
CPU or one fit they run in this process. There is no setting: every fit is
bit for bit the same wherever it runs. The data is encoded once and reaches
each worker once, through the pool initializer; a task carries only its row
indices, seed and hyperparameters. A fit refused with RankError or
DatasetError becomes its cell's status inside the worker. LR cells stay in
this process: each takes milliseconds, and pooled they oversubscribe the
CPUs with BLAS threads.

On Linux the workers are forked, which saves pickling the arrays and
re-importing numpy in every worker. Forking a process that has threads
(BLAS keeps an idle pool) is safe here because a worker runs only
fit_gbdt, predict_gbdt and evaluate on the arrays it inherited: none of
them calls BLAS, takes a lock, logs, or touches an LLM client, so no lock
or thread state copied from the parent is ever used. Elsewhere the
platform's default start method is used.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.random import default_rng

from .dataset import Dataset, split_indices
from .encoding import design_matrix, encode_matrix, fit_encoding
from .errors import DatasetError, RankError
from .evaluation import MetricPair, evaluate


@dataclass(frozen=True)
class LinearModel:
    intercept: float
    coefficients: np.ndarray


def fit_ols(X: np.ndarray, y: np.ndarray,
            columns: Sequence[str] | None = None) -> LinearModel:
    """Least-squares fit of y on X plus an intercept.

    Raises RankError when the design (with intercept) is rank deficient,
    naming in design order each column that lies in the span of the columns
    before it: its |diag R| in the unpivoted QR factorization is at or below
    max(n, p + 1) * eps * max |diag R|.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or len(X) != len(y):
        raise DatasetError(f"bad shapes for fit_ols: X {X.shape}, y {y.shape}")
    n, p = X.shape
    names = tuple(columns) if columns is not None else tuple(f"x{j}" for j in range(p))
    if len(names) != p:
        raise DatasetError(f"{p} columns but {len(names)} column names")
    if n < p + 2:
        raise DatasetError(f"need at least {p + 2} rows to fit {p} predictors, got {n}")
    A = np.hstack([np.ones((n, 1)), X])
    Q, R = np.linalg.qr(A)
    diag = np.abs(np.diag(R))
    tol = max(A.shape) * np.finfo(float).eps * diag.max()
    dependent = [name for name, d in zip(("intercept", *names), diag) if d <= tol]
    if dependent:
        raise RankError("design matrix is rank deficient; dependent columns: "
                        + ", ".join(dependent))
    w = np.linalg.solve(R, Q.T @ y)
    return LinearModel(intercept=float(w[0]), coefficients=w[1:])


def predict_ols(model: LinearModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != len(model.coefficients):
        raise DatasetError(f"X has {X.shape} but model expects "
                           f"{len(model.coefficients)} columns")
    # BLAS sums in an order that depends on the memory layout
    return model.intercept + np.asfortranarray(X) @ model.coefficients


@dataclass(frozen=True)
class GbdtHyper:
    n_trees: int = 200
    max_depth: int = 3
    learning_rate: float = 0.05
    min_leaf: int = 5
    subsample: float = 1.0

    def __post_init__(self):
        for name in ("n_trees", "max_depth", "min_leaf"):
            if getattr(self, name) < 1:
                raise DatasetError(f"{name} must be at least 1")
        if not 0.0 < self.learning_rate <= 1.0:
            raise DatasetError("learning_rate must be in (0, 1]")
        if not 0.0 < self.subsample <= 1.0:
            raise DatasetError("subsample must be in (0, 1]")


@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    value: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None


@dataclass
class GbdtModel:
    base_prediction: float
    trees: list
    hyper: GbdtHyper
    column_gains: np.ndarray
    # training MSE before any tree and after each boosting step
    train_losses: list[float] = field(default_factory=list)


def _best_split(values: np.ndarray, prefix: np.ndarray, min_leaf: int):
    """Best (gain, feature, threshold) across all columns of one node, or None.

    values is the node's presorted column block: row j holds column j's
    values in ascending order, ties in ascending row order (what a stable
    sort of the node's rows would give). prefix holds the cumulative sums of
    the residuals in the same order. Gain is the reduction in sum of squared
    errors from splitting after the first s sorted rows; it is computed only
    at candidates, the left sizes where the sorted value changes and both
    sides keep at least min_leaf rows, all columns in one pass. The threshold
    is the midpoint of the two values around the change. Candidates are
    found in flat C order, so the first maximum resolves ties to the lowest
    column index, then the smallest threshold. The caller ensures
    n >= 2 * min_leaf.
    """
    p, n = values.shape
    width = n - 2 * min_leaf + 1
    lo = min_leaf - 1
    # left size s may split sorted positions s - 1 and s; "not >=" rather
    # than "<" keeps the candidate rule of sorting per node for NaN too
    changes = ~(values[:, lo:lo + width] >= values[:, lo + 1:lo + 1 + width])
    flat = np.flatnonzero(changes)
    if flat.size == 0:
        return None
    features, offsets = np.divmod(flat, width)
    sizes = offsets + min_leaf
    total = prefix[:, -1].take(features)
    left = prefix.take(features * n + sizes - 1)
    gains = left ** 2 / sizes + (total - left) ** 2 / (n - sizes) - total ** 2 / n
    best = int(np.argmax(gains))
    gain = float(gains[best])
    if gain <= 1e-12 or not np.isfinite(gain):
        return None
    feature, i = int(features[best]), int(sizes[best])
    threshold = float((values[feature, i - 1] + values[feature, i]) / 2.0)
    return gain, feature, threshold


def _filter_block(order: np.ndarray, values: np.ndarray, member: np.ndarray):
    """The entries of a column block whose row id is marked in member (one
    bool per row of X), each column keeping its sorted order."""
    keep = np.flatnonzero(member.take(order))
    shape = (len(order), -1)
    return order.take(keep).reshape(shape), values.take(keep).reshape(shape)


def _build_tree(X: np.ndarray, rows: np.ndarray, order: np.ndarray,
                values: np.ndarray, residual: np.ndarray, depth: int,
                hyper: GbdtHyper, gains_out: np.ndarray) -> _Node:
    """Grow one tree over rows (ascending ids into X); depth >= 1 and
    len(rows) >= 2 * min_leaf, so the node may split.

    order and values are the node's presorted column block, (p, len(rows))
    row ids and their values. A child that may split again receives the
    block filtered to its rows, never re-sorted, so the sorted order and its
    tie order carry down the tree. Gains accumulate depth-first, left child
    before right.
    """
    prefix = np.cumsum(residual.take(order), axis=1)
    best = _best_split(values, prefix, hyper.min_leaf)
    if best is None:
        return _Node(value=float(np.mean(residual[rows])))
    gain, feature, threshold = best
    gains_out[feature] += gain
    goes_left = X[:, feature] <= threshold
    children = []
    for side in (goes_left, ~goes_left):
        child_rows = rows[side.take(rows)]
        if depth == 1 or len(child_rows) < 2 * hyper.min_leaf:
            child = _Node(value=float(np.mean(residual[child_rows])))
        else:
            child = _build_tree(X, child_rows, *_filter_block(order, values, side),
                                residual, depth - 1, hyper, gains_out)
        children.append(child)
    left, right = children
    return _Node(feature=feature, threshold=threshold, left=left, right=right)


def _tree_predict(root: _Node, X: np.ndarray) -> np.ndarray:
    out = np.empty(len(X))
    stack = [(root, np.arange(len(X)))]
    while stack:
        node, idx = stack.pop()
        if len(idx) == 0:
            continue
        if node.left is None:
            out[idx] = node.value
        else:
            mask = X[idx, node.feature] <= node.threshold
            stack.append((node.left, idx[mask]))
            stack.append((node.right, idx[~mask]))
    return out


def fit_gbdt(X: np.ndarray, y: np.ndarray, hyper: GbdtHyper | None = None,
             seed: int = 0) -> GbdtModel:
    """Squared-loss gradient boosting with per-column split-gain tracking."""
    hyper = hyper or GbdtHyper()
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or len(X) != len(y):
        raise DatasetError(f"bad shapes for fit_gbdt: X {X.shape}, y {y.shape}")
    n, p = X.shape
    if n < 2 * hyper.min_leaf:
        raise DatasetError(f"need at least {2 * hyper.min_leaf} rows, got {n}")

    rng = default_rng(seed)
    base = float(np.mean(y))
    prediction = np.full(n, base)
    gains = np.zeros(p)
    trees = []
    losses = [float(np.mean((y - prediction) ** 2))]
    # the column block: each column sorted once, stably, for the whole fit
    all_order = np.argsort(X.T, axis=1, kind="stable")
    all_values = np.take_along_axis(X.T, all_order, axis=1)
    for _ in range(hyper.n_trees):
        residual = y - prediction
        if hyper.subsample < 1.0:
            size = max(2 * hyper.min_leaf, int(round(hyper.subsample * n)))
            rows = np.sort(rng.choice(n, size=min(size, n), replace=False))
            drawn = np.zeros(n, dtype=bool)
            drawn[rows] = True
            order, values = _filter_block(all_order, all_values, drawn)
        else:
            rows, order, values = np.arange(n), all_order, all_values
        tree = _build_tree(X, rows, order, values, residual, hyper.max_depth,
                           hyper, gains)
        trees.append(tree)
        prediction = prediction + hyper.learning_rate * _tree_predict(tree, X)
        losses.append(float(np.mean((y - prediction) ** 2)))
    return GbdtModel(base_prediction=base, trees=trees, hyper=hyper,
                     column_gains=gains, train_losses=losses)


def predict_gbdt(model: GbdtModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != len(model.column_gains):
        raise DatasetError(f"X has {X.shape} but model expects "
                           f"{len(model.column_gains)} columns")
    out = np.full(len(X), model.base_prediction)
    for tree in model.trees:
        out = out + model.hyper.learning_rate * _tree_predict(tree, X)
    return out


def importance_gbdt(model: GbdtModel, column_variables: Sequence[str]) -> dict[str, float]:
    """Split-gain importance, aggregated to parent variables and normalized
    to sum 1. column_variables names the parent variable of each column of
    the fitted X, as EncodingSpec.column_variables gives it. A model that
    never split yields a uniform vector (with a warning)."""
    gains = model.column_gains
    if len(column_variables) != len(gains):
        raise DatasetError(f"{len(gains)} columns but {len(column_variables)} column labels")
    totals = dict.fromkeys(column_variables, 0.0)
    for parent, gain in zip(column_variables, gains):
        totals[parent] += float(gain)
    grand = sum(totals.values())
    if grand <= 0.0:
        warnings.warn("model contains no splits; importance is uniform")
        return {k: 1.0 / len(totals) for k in totals}
    return {k: v / grand for k, v in totals.items()}


@dataclass(frozen=True)
class FractionResult:
    fraction: float
    repeat: int
    metrics: MetricPair | None
    status: str = "ok"


# see the module docstring for why fork, and why it is safe here
_POOL_CONTEXT = multiprocessing.get_context(
    "fork" if sys.platform.startswith("linux") else None)

# what _map_cells hands every cell ahead of its task, set in each pool worker
# by the initializer
_shared: tuple = ()


def _share(*shared) -> None:
    global _shared
    _shared = shared


def _run_shared(cell: Callable, task: tuple):
    return cell(*_shared, *task)


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_cells(cell: Callable, shared: tuple, tasks: Sequence[tuple],
               cost: Sequence[float] | None = None) -> list:
    """[cell(*shared, *task) for task in tasks], one worker process per CPU.

    shared reaches each worker once, through the pool initializer; a task
    carries only its own arguments. Tasks are submitted in decreasing cost,
    so the longest start first, and results come back in task order. An
    exception a cell raises re-raises here, with its type and message. With
    fewer than two workers or tasks, the cells run in this process.
    """
    workers = min(_cpu_count(), len(tasks))
    if workers < 2:
        return [cell(*shared, *task) for task in tasks]
    order = (range(len(tasks)) if cost is None
             else sorted(range(len(tasks)), key=lambda i: -cost[i]))
    with ProcessPoolExecutor(max_workers=workers, mp_context=_POOL_CONTEXT,
                             initializer=_share, initargs=shared) as pool:
        futures = {i: pool.submit(_run_shared, cell, tasks[i]) for i in order}
        try:
            return [futures[i].result() for i in range(len(tasks))]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def _cell(X: np.ndarray, y: np.ndarray, columns: Sequence[str] | None, kind: str,
          train: np.ndarray, test: np.ndarray, seed: int,
          hyper: GbdtHyper | None) -> tuple[MetricPair | None, str]:
    """Fit one sweep cell on rows train of X, y and score it on rows test:
    (metrics, "ok"), or (None, "failed: ...") if fit or metrics refuse.
    columns names X's columns for an LR cell's RankError."""
    X_train, X_test = X[train], X[test]
    try:
        if kind == "lr":
            model = fit_ols(X_train, y[train], columns=columns)
            predicted = predict_ols(model, X_test)
        else:
            model = fit_gbdt(X_train, y[train], hyper=hyper, seed=seed)
            predicted = predict_gbdt(model, X_test)
        return evaluate(y[test], predicted), "ok"
    except (RankError, DatasetError) as exc:
        return None, f"failed: {exc}"


def fraction_sweep(dataset: Dataset, fractions: Sequence[float], kind: str,
                   seed: int = 0, repeats: int = 1,
                   hyper: GbdtHyper | None = None) -> list[FractionResult]:
    """Train/evaluate one model kind over a grid of train fractions.

    The dataset is encoded once; each cell takes its train and test rows
    from that matrix. Fit failures are recorded per cell so one bad
    configuration does not abort the sweep; degenerate fractions raise up
    front. GBDT cells run in worker processes (see the module docstring).
    """
    if kind not in ("lr", "gbdt"):
        raise DatasetError(f"unknown model kind {kind!r}")
    if repeats < 1:
        raise DatasetError("repeats must be at least 1")
    cells = [(fraction, repeat) for fraction in fractions for repeat in range(repeats)]
    tasks = [(*split_indices(len(dataset), fraction, seed + repeat), seed + repeat, hyper)
             for fraction, repeat in cells]
    spec = fit_encoding(dataset)
    y = dataset.labels()
    if kind == "lr":
        X, names, _ = design_matrix(dataset, spec)
        # in this process, see the module docstring
        outcomes = [_cell(X, y, names, kind, *task) for task in tasks]
    else:
        outcomes = _map_cells(_cell, (encode_matrix(dataset, spec), y, None, kind),
                              tasks, cost=[len(train) for train, *_ in tasks])
    return [FractionResult(fraction=fraction, repeat=repeat, metrics=metrics,
                           status=status)
            for (fraction, repeat), (metrics, status) in zip(cells, outcomes)]


def fit_gbdt_repeats(X: np.ndarray, y: np.ndarray, seeds: Sequence[int],
                     hyper: GbdtHyper | None = None) -> list[GbdtModel]:
    """One fit_gbdt on X, y per seed, in seed order, in worker processes
    (see the module docstring). The models carry no column labels: pass
    them to importance_gbdt."""
    return _map_cells(fit_gbdt, (X, y), [(hyper, seed) for seed in seeds])
