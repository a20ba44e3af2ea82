"""Comparison estimators: naive benchmarks, bag-of-words, trees, forests,
nearest-neighbour retrieval, least squares, lasso selection, and the
hand-crafted issue feature encoding."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import Vocabulary
from .parallel import Pool, area_batches, run, shard_bounds


class BaselineError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Naive benchmarks
# ---------------------------------------------------------------------------

def mean_effort(train_points) -> float:
    """Mean story points of past issues."""
    pts = list(train_points)
    if not pts:
        raise BaselineError("no past issues")
    return float(sum(pts) / len(pts))


def median_effort(train_points) -> float:
    """Median story points of past issues (mean of middles for even n)."""
    pts = sorted(train_points)
    if not pts:
        raise BaselineError("no past issues")
    n = len(pts)
    if n % 2 == 1:
        return float(pts[n // 2])
    return float((pts[n // 2 - 1] + pts[n // 2]) / 2)


def random_guess(train_points, rng: np.random.Generator) -> float:
    """Story points of one uniformly chosen past issue."""
    pts = list(train_points)
    if not pts:
        raise BaselineError("no past issues")
    return float(pts[rng.integers(len(pts))])


# ---------------------------------------------------------------------------
# Bag of words
# ---------------------------------------------------------------------------

def bow_vectorize(tokens: list[str], vocab: Vocabulary) -> np.ndarray:
    """Token counts over the vocabulary; unknown tokens count under unk.

    The end-of-sequence sentinel is a tokenizer artifact, not a word, so it
    is left out of the counts.
    """
    ids = np.array(vocab.encode(tokens), dtype=np.intp)
    return np.bincount(ids[ids != vocab.eos_id], minlength=len(vocab)).astype(np.float64)


# ---------------------------------------------------------------------------
# Regression trees and forests
# ---------------------------------------------------------------------------

# Padded cells (nodes x candidate features x longest node) per _best_splits
# call, so that a call's temporaries stay in a core's L2 cache: on the
# benchmark's bow-rf split searches 1 << 18 took half as long again.
SPLIT_AREA = 1 << 16


def _padded_columns(x, y):
    """x.T with an extra +inf column and y with an extra 0.0: the arrays
    _best_splits reads, where index len(y) pads a node's rows. A stable
    sort puts +inf after every (finite) value, and a 0.0 target leaves
    every prefix sum over a node's own rows unchanged."""
    n, p = x.shape
    xt = np.empty((p, n + 1))
    xt[:, :n] = x.T
    xt[:, n] = np.inf
    return xt, np.append(y, 0.0)


def _best_splits(xt, yp, nodes, min_leaf_size: int) -> list:
    """The lowest-SSE split (feature, threshold) of each node (rows, feats),
    or None where it has no legal split; xt, yp as _padded_columns gives
    them, and every node with as many candidate features.

    One pass covers every candidate column of every node: each node's rows,
    padded to the longest node's, are gathered per candidate, the columns
    that vary on their node are sorted together, and the SSE of every
    threshold comes from prefix sums of the sorted targets. A threshold is
    legal when it leaves at least min_leaf_size rows on each side and falls
    between two distinct values. A node's legal candidates are ranked in
    (feature, threshold) order, and a later one replaces the best only when
    its SSE is lower by more than 1e-12, so near-ties keep the first
    candidate and the tree is deterministic. No node's answer depends on
    the other nodes of the call.

    The gather is the only step that reads xt. Node by node it is two
    contiguous takes, which measured faster than one fancy index over the
    whole call.
    """
    lengths = np.array([len(rows) for rows, _ in nodes])
    width = int(lengths.max())
    n_feats = len(nodes[0][1])
    real = np.arange(width) < lengths[:, None]
    rows = np.full((len(nodes), width), len(yp) - 1)
    rows[real] = np.concatenate([node_rows for node_rows, _ in nodes])
    xs = np.empty((len(nodes), n_feats, width))
    for k, (_, feats) in enumerate(nodes):
        xt.take(feats, 0).take(rows[k], 1, out=xs[k], mode="clip")  # "raise" buffers out
    xs = xs.reshape(-1, width)  # one row per (node, candidate feature)
    # padding differs from every real value, so a column varies on its
    # node when more cells than the padding differ from its first one
    changes = np.count_nonzero(xs != xs[:, :1], axis=1)
    cand = np.flatnonzero(changes > np.repeat(width - lengths, n_feats))
    xs, node = xs[cand], cand // n_feats
    n = lengths[node]
    order = np.argsort(xs, axis=1, kind="stable")
    order += (np.arange(len(cand)) * width)[:, None]  # flat indices: take beats take_along_axis
    xs_sorted = xs.take(order)
    # legal candidates as (column, last left row) pairs in (node, feature, threshold) order
    lo, hi = min_leaf_size - 1, width - min_leaf_size
    legal = xs_sorted[:, lo:hi] != xs_sorted[:, lo + 1:hi + 1]
    legal &= np.arange(hi - lo) < (n - 2 * min_leaf_size + 1)[:, None]
    col, t = np.nonzero(legal)
    splits = [None] * len(nodes)
    if not col.size:
        return splits
    last = t + lo
    ys_sorted = yp[rows][node].take(order)
    csum = np.cumsum(ys_sorted, axis=1)
    csq = np.cumsum(ys_sorted**2, axis=1)
    total_at = n[col] - 1
    total_sum, total_sq = csum[col, total_at], csq[col, total_at]
    cs, cq = csum[col, last], csq[col, last]
    nl = last + 1.0
    nr = n[col] - nl
    # float_power squares with libm pow, as a scalar `v ** 2` does; an array
    # `** 2` multiplies, which differs in the last bit for about one value in
    # 1000 and can change which of two equal partitions wins
    sse = (total_sq - cq - np.float_power(total_sum - cs, 2) / nr) + (
        cq - np.float_power(cs, 2) / nl
    )
    # Each node's candidates fill one row of an +inf-padded table. Only a
    # strict prefix minimum can beat every earlier candidate by 1e-12; fmin
    # skips a NaN SSE (an overflow) the way the `<` below does.
    owner = node[col]
    counts = np.bincount(owner, minlength=len(nodes))
    first = np.cumsum(counts) - counts
    table = np.full((len(nodes), counts.max()), np.inf)
    table[owner, np.arange(len(col)) - first[owner]] = sse
    prefix_min = np.fmin.accumulate(table, axis=1)
    better_node, better_at = np.nonzero(table[:, 1:] < prefix_min[:, :-1])
    scores = sse.tolist()
    best = first.tolist()
    for k, j in zip(better_node.tolist(), (first[better_node] + better_at + 1).tolist()):
        if scores[j] < scores[best[k]] - 1e-12:
            best[k] = j
    split_nodes = np.flatnonzero(counts)
    j = np.array(best)[split_nodes]
    c, i = col[j], last[j]
    thresholds = ((xs_sorted[c, i] + xs_sorted[c, i + 1]) / 2.0).tolist()
    for k, at, threshold in zip(split_nodes.tolist(), (cand[c] % n_feats).tolist(), thresholds):
        splits[k] = (int(nodes[k][1][at]), threshold)
    return splits


def _grow_forest(x, y, roots, rngs, n_features, min_leaf_size) -> list[list[tuple]]:
    """The tree grown on x[rows], y[rows] for each `rows` of roots, as its
    nodes' records (value, count, feature, threshold) in preorder, feature
    None at a leaf. The tree of roots[i] draws n_features candidate
    features per split from rngs[i], or takes all p for None or
    n_features >= p.

    Each tree grows its nodes from its own explicit stack in preorder, left
    subtree first, so its rng draws come in the same order at any depth and
    whatever trees grow beside it. The trees grow in lockstep: on each
    step every unfinished tree records leaves until it reaches a node it
    may split, and the split search for those nodes, one per tree, runs in
    the area_batches of padded area SPLIT_AREA.
    """
    xt, yp = _padded_columns(x, y)
    p = xt.shape[0]
    every = np.arange(p)
    records = [[] for _ in roots]
    todo = [[rows] for rows in roots]
    while True:
        nodes, owners = [], []
        for tree, stack in enumerate(todo):
            while stack:
                rows = stack.pop()
                yr = y[rows]
                n = len(rows)
                value = float(yr.sum() / n)  # the bits of yr.mean()
                if n < 2 * min_leaf_size or (yr == yr[0]).all():
                    records[tree].append((value, n, None, 0.0))
                    continue
                if n_features is None or n_features >= p:
                    feats = every
                else:
                    feats = np.sort(rngs[tree].choice(p, size=n_features, replace=False))
                records[tree].append((value, n))  # completed once its split is known
                nodes.append((rows, feats))
                owners.append(tree)
                break
        if not nodes:
            return records
        lengths = [len(rows) for rows, _ in nodes]
        splits = [None] * len(nodes)
        for batch in area_batches(lengths, SPLIT_AREA // len(nodes[0][1])):
            found = _best_splits(xt, yp, [nodes[i] for i in batch], min_leaf_size)
            for i, split in zip(batch.tolist(), found):
                splits[i] = split
        for tree, (rows, _), split in zip(owners, nodes, splits):
            value, n = records[tree][-1]
            if split is None:
                records[tree][-1] = (value, n, None, 0.0)
                continue
            feature, threshold = split
            records[tree][-1] = (value, n, feature, threshold)
            go_left = xt[feature, rows] <= threshold
            todo[tree] += [rows[~go_left], rows[go_left]]


def _tree_walk(tree: list[tuple]) -> tuple[list[int], list[int]]:
    """Each record's depth, and the index of its right child (a leaf's is
    its own index); a split's left child is the next record."""
    depth, right = [0] * len(tree), list(range(len(tree)))
    open_splits = []  # splits still missing their right child
    for i, (_, _, feature, _) in enumerate(tree):
        if open_splits:
            parent = open_splits[-1]
            if parent != i - 1:  # not the left child, so the right one
                right[open_splits.pop()] = i
            depth[i] = depth[parent] + 1
        if feature is not None:
            open_splits.append(i)
    return depth, right


def prune_tree(tree: list[tuple], levels: int) -> list[tuple]:
    """Collapse the deepest level of the tree `levels` times. Each collapse
    lowers the height by one, so this keeps the records down to depth
    height - levels and makes leaves of those at that depth."""
    if not _is_count(levels, 0):
        raise BaselineError(f"levels must be an integer >= 0, got {levels!r}")
    depth, _ = _tree_walk(tree)
    cut = max(0, max(depth) - levels)
    return [(value, count, None, 0.0) if d == cut else (value, count, feature, threshold)
            for (value, count, feature, threshold), d in zip(tree, depth) if d <= cut]


def _is_count(value, least: int) -> bool:
    """Whether value is an integer (a bool is not) of at least `least`."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= least


def _training_arrays(features, targets):
    """The training set as float64 arrays (float64 input is not copied);
    raises BaselineError if it is unusable."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
        raise BaselineError("features must be a 2-D matrix with one row per target")
    if x.shape[0] < 1:
        raise BaselineError("need at least one training row")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise BaselineError("features and targets must be finite")
    return x, y


def cart_fit(features, targets, min_leaf_size: int = 5, prune_level: int = 5) -> list[tuple]:
    """Grow a variance-reduction regression tree on every training row and
    every feature, then prune its deepest levels. Splits never create a
    leaf smaller than min_leaf_size. The tree is its _grow_forest records."""
    x, y = _training_arrays(features, targets)
    if not _is_count(min_leaf_size, 1):
        raise BaselineError(f"min_leaf_size must be an integer >= 1, got {min_leaf_size!r}")
    if not _is_count(prune_level, 0):
        raise BaselineError(f"prune_level must be an integer >= 0, got {prune_level!r}")
    [tree] = _grow_forest(x, y, [np.arange(x.shape[0])], [None], None, min_leaf_size)
    return prune_tree(tree, prune_level)


def cart_predict(tree: list[tuple], x):
    """The tree's prediction, as rf_predict gives it for a one-tree forest:
    a float for one row, a list of floats for a matrix of rows."""
    return rf_predict(Forest([tree]), x)


@dataclass
class Forest:
    trees: list[list[tuple]] = field(default_factory=list)  # _grow_forest records


def _grow_trees(features, targets, seeds, bootstrap, n_features, min_leaf_size):
    """One rf_fit task: the _grow_forest records of the tree of each seed,
    grown together on one padded copy of the training arrays."""
    y = np.asarray(targets, dtype=np.float64)
    rngs = [np.random.default_rng(int(seed)) for seed in seeds]
    roots = [rng.integers(0, len(y), size=len(y)) if bootstrap else np.arange(len(y))
             for rng in rngs]
    return _grow_forest(np.asarray(features, dtype=np.float64), y, roots, rngs,
                        n_features, min_leaf_size)


def rf_fit(features, targets, n_trees: int = 100,
           rng: np.random.Generator | None = None, bootstrap: bool = True,
           n_features: int | str | None = "sqrt", min_leaf_size: int = 1,
           pool: Pool | None = None) -> Forest:
    """Random forest of unpruned regression trees.

    Each tree sees a bootstrap resample and considers n_features features
    per split: sqrt(p) for "sqrt" (the default), all p for None, or a
    count. Per-tree seeds derive from rng so the forest is reproducible
    regardless of training order. Every tree indexes its
    resample into the shared training arrays instead of copying it, and
    the arrays are validated once for the whole forest.

    The seeds are cut into the contiguous shard_bounds slices of unit
    lengths, whatever the process count, and run on `pool` (created with
    `features, targets`) or, without one, here; the trees come back in
    seed order.
    """
    x, _ = _training_arrays(features, targets)
    if not _is_count(n_trees, 1):
        raise BaselineError(f"n_trees must be an integer >= 1, got {n_trees!r}")
    if not _is_count(min_leaf_size, 1):
        raise BaselineError(f"min_leaf_size must be an integer >= 1, got {min_leaf_size!r}")
    if rng is None:
        rng = np.random.default_rng(0)
    if n_features == "sqrt":
        n_features = max(1, round(math.sqrt(x.shape[1])))
    elif n_features is not None and not _is_count(n_features, 1):
        raise BaselineError(
            f"n_features must be 'sqrt', None or an integer >= 1, got {n_features!r}")
    tree_seeds = rng.integers(0, 2**63 - 1, size=n_trees)
    tasks = [(tree_seeds[a:b], bootstrap, n_features, min_leaf_size)
             for a, b in shard_bounds([1] * n_trees)]
    grown = run(_grow_trees, tasks, features, targets, pool=pool)
    return Forest([tree for trees in grown for tree in trees])


def _forest_arrays(trees: list[list[tuple]]):
    """Every record of the trees as flat arrays, numbered tree after tree:
    (feature, threshold, value, left, right, roots). A leaf is its own left
    and right child, so a walk that reaches it stays there."""
    feature, threshold, value, left, right, roots = [], [], [], [], [], []
    for tree in trees:
        start = len(value)
        roots.append(start)
        value += [record[0] for record in tree]
        feature += [0 if record[2] is None else record[2] for record in tree]
        threshold += [record[3] for record in tree]
        left += [start + i + (record[2] is not None) for i, record in enumerate(tree)]
        right += [start + i for i in _tree_walk(tree)[1]]
    return (np.array(feature, dtype=np.intp), np.array(threshold, dtype=np.float64),
            np.array(value, dtype=np.float64), np.array(left, dtype=np.intp),
            np.array(right, dtype=np.intp), np.array(roots, dtype=np.intp))


def rf_predict(forest: Forest, x):
    """Mean of the trees' predictions: a float for one row, a list of
    floats for a matrix of rows.

    All rows walk all trees together, one level per step, and each row's
    (rows, trees) leaf values are averaged as np.mean averages that row's
    list of per-tree values, so the bits do not depend on how many rows
    come in one call.
    """
    rows = np.asarray(x, dtype=np.float64)
    grid = rows.reshape(-1, rows.shape[-1])
    feature, threshold, value, left, right, roots = _forest_arrays(forest.trees)
    node = np.tile(roots, (len(grid), 1))
    row = np.arange(len(grid))[:, None]
    while True:
        step = np.where(grid[row, feature[node]] <= threshold[node], left[node], right[node])
        if np.array_equal(step, node):
            break
        node = step
    means = value[node].mean(axis=1).tolist()
    return means[0] if rows.ndim == 1 else means


# ---------------------------------------------------------------------------
# Case-based reasoning (k nearest neighbours)
# ---------------------------------------------------------------------------

def cbr_estimate(train_features, train_points, x, k: int = 3) -> float:
    """Mean story points of the k nearest past issues (Euclidean distance).

    Distance ties break by training index, so repeated calls and copied
    training sets give identical answers.
    """
    feats, pts = _training_arrays(train_features, train_points)
    if not 1 <= k <= len(pts):
        raise BaselineError(f"k={k} outside 1..{len(pts)}")
    dists = np.sqrt(((feats - np.asarray(x, dtype=np.float64)) ** 2).sum(axis=1))
    nearest = np.argsort(dists, kind="stable")[:k]
    return float(pts[nearest].mean())


# ---------------------------------------------------------------------------
# Linear models
# ---------------------------------------------------------------------------

@dataclass
class LinearModel:
    intercept: float
    coef: np.ndarray

    def predict(self, features) -> np.ndarray:
        x = np.atleast_2d(np.asarray(features, dtype=np.float64))
        return x @ self.coef + self.intercept


RIDGE_DAMPING = 1e-8


def ols_fit(features, targets) -> LinearModel:
    """Ordinary least squares via the normal equations on centered columns.

    Centering keeps the intercept out of the coefficient system, so
    rank-deficient feature blocks fall back to a tiny ridge term without
    contaminating the intercept (a constant column gets coefficient 0).
    """
    x, y = _training_arrays(features, targets)
    x_mean = x.mean(axis=0)
    y_mean = float(y.mean())
    xc = x - x_mean
    gram = xc.T @ xc
    if np.linalg.matrix_rank(gram) < gram.shape[0]:
        gram = gram + RIDGE_DAMPING * np.eye(gram.shape[0])
    coef = np.linalg.solve(gram, xc.T @ (y - y_mean)) if gram.size else np.zeros(0)
    return LinearModel(intercept=y_mean - float(coef @ x_mean), coef=coef)


@dataclass
class LassoModel(LinearModel):
    budget: float
    lam: float
    selected: list[int]


LASSO_GRID_SIZE = 30  # penalties tried when neither a budget nor a penalty is given
CD_MAX_ITER = 20000
CD_TOL = 1e-12


def _coordinate_descent(xs: np.ndarray, yc: np.ndarray, lam: float) -> np.ndarray:
    """Solve min ||yc - xs b||^2 + lam * ||b||_1 on standardized columns."""
    n, p = xs.shape
    z = (xs**2).sum(axis=0)
    b = np.zeros(p)
    resid = yc.copy()
    for _ in range(CD_MAX_ITER):
        max_step = 0.0
        for j in range(p):
            if z[j] == 0.0:
                continue
            rho = xs[:, j] @ resid + z[j] * b[j]
            new = np.sign(rho) * max(abs(rho) - lam / 2.0, 0.0) / z[j]
            if new != b[j]:
                resid += xs[:, j] * (b[j] - new)
                max_step = max(max_step, abs(new - b[j]))
                b[j] = new
        if max_step < CD_TOL * max(1.0, float(np.max(np.abs(b)))):
            break
    return b


def lasso_fit(features, targets, s: float | None = None, lam: float | None = None,
              valid_features=None, valid_targets=None) -> LassoModel:
    """L1-constrained least squares with feature selection.

    Exactly one mode applies: a budget `s` on the L1 norm of the
    coefficients (solved by bisecting the equivalent penalty), a direct
    penalty `lam`, or neither, in which case each penalty of a grid is
    fitted once and the model that scores best on the validation rows wins.
    Features are standardized internally and coefficients are reported on
    the original scale; exact zeros define the selected feature set.
    """
    x, y = _training_arrays(features, targets)
    if s is not None and lam is not None:
        raise BaselineError("pass either a budget s or a penalty lam, not both")
    if s is None and lam is None and valid_features is None:
        raise BaselineError("pass a budget s, a penalty lam, or validation rows")
    mu = x.mean(axis=0)
    sd = x.std(axis=0)
    sd = np.where(sd > 0, sd, 1.0)
    xs = (x - mu) / sd
    y_mean = float(y.mean())
    yc = y - y_mean

    def model_at(lam_value: float) -> LassoModel:
        b_std = _coordinate_descent(xs, yc, lam_value)
        coef = b_std / sd
        intercept = y_mean - float(coef @ mu)
        return LassoModel(
            intercept=intercept, coef=coef,
            budget=float(np.abs(coef).sum()), lam=lam_value,
            selected=[int(j) for j in np.flatnonzero(coef)],
        )

    if lam is not None:
        return model_at(lam)

    lam_max = 2.0 * float(np.max(np.abs(xs.T @ yc))) if x.shape[1] else 0.0
    if s is not None:
        if s <= 0:  # fully binding constraint: intercept-only model
            return LassoModel(intercept=y_mean, coef=np.zeros(x.shape[1]),
                              budget=float(s), lam=lam_max, selected=[])
        ols = ols_fit(x, y)
        if float(np.abs(ols.coef).sum()) <= s:
            return LassoModel(
                intercept=ols.intercept, coef=ols.coef, budget=float(s), lam=0.0,
                selected=[int(j) for j in np.flatnonzero(ols.coef)],
            )
        lo, hi = 0.0, lam_max
        best = model_at(hi)
        for _ in range(100):
            mid = (lo + hi) / 2.0
            candidate = model_at(mid)
            if candidate.budget <= s:
                hi = mid
                best = candidate
            else:
                lo = mid
        best.budget = float(s)
        return best

    vx, vy = _training_arrays(valid_features, valid_targets)
    grid = lam_max * np.logspace(0.0, -4.0, LASSO_GRID_SIZE) if lam_max > 0 else [0.0]
    best, best_err = None, None
    for lam_value in grid:
        model = model_at(float(lam_value))
        err = float(np.mean((vy - model.predict(vx)) ** 2))
        if best_err is None or err < best_err - 1e-12:
            best, best_err = model, err
    return best


# ---------------------------------------------------------------------------
# Hand-crafted issue features
# ---------------------------------------------------------------------------

ISSUE_TYPES = (
    "bug", "task", "new feature", "improvement", "documentation", "epic",
    "sub-task", "story", "ux story", "technical story", "third-party issue",
)
PRIORITIES = ("blocker", "critical", "major", "minor", "trivial", "to be reviewed")

COUNT_FIELDS = (
    "n_subtasks", "n_issue_links", "n_blocking", "n_blocked_by",
    "n_affect_versions", "n_fix_versions", "n_components",
    "n_description_changes", "n_priority_changes",
)
REPORTER_FIELDS = ("reporter_tested", "reporter_reviewed", "reporter_resolved")
ASSIGNEE_FIELDS = ("assignee_tested", "assignee_reviewed", "assignee_resolved")
ESTIMATOR_FIELDS = ("estimator_tested", "estimator_reviewed", "estimator_resolved")


@dataclass
class IssueFeatureInput:
    """Raw per-issue inputs to the hand-crafted encoding. Assignee counts are
    None when no assignee existed at estimation time."""

    issue_type: str = ""
    priority: str = ""
    n_subtasks: int = 0
    n_issue_links: int = 0
    n_blocking: int = 0
    n_blocked_by: int = 0
    n_affect_versions: int = 0
    n_fix_versions: int = 0
    n_components: int = 0
    n_description_changes: int = 0
    n_priority_changes: int = 0
    reporter_opened: int = 0
    reporter_opened_fixed: int = 0
    reporter_tested: int = 0
    reporter_reviewed: int = 0
    reporter_resolved: int = 0
    assignee_tested: int | None = None
    assignee_reviewed: int | None = None
    assignee_resolved: int | None = None
    estimator_tested: int = 0
    estimator_reviewed: int = 0
    estimator_resolved: int = 0


@dataclass
class FeatureVector:
    names: list[str]
    values: np.ndarray
    missing: np.ndarray  # boolean, aligned with values


def reporter_reputation(opened: int, opened_and_fixed: int) -> float:
    """Share of a reporter's opened issues they also fixed, damped by +1 so
    new reporters score 0 rather than dividing by zero."""
    if opened < 0 or not 0 <= opened_and_fixed <= opened:
        raise BaselineError("need 0 <= opened_and_fixed <= opened")
    return opened_and_fixed / (opened + 1)


def _one_hot(value: str, categories: tuple[str, ...]) -> list[float]:
    normalized = value.strip().lower()
    hot = [1.0 if normalized == cat else 0.0 for cat in categories]
    hot.append(0.0 if any(hot) else 1.0)  # "other" bucket
    return hot


def feature_names() -> list[str]:
    names = [f"type_{t.replace(' ', '_')}" for t in ISSUE_TYPES] + ["type_other"]
    names += [f"priority_{p.replace(' ', '_')}" for p in PRIORITIES] + ["priority_other"]
    names += list(COUNT_FIELDS)
    names += ["reporter_reputation"]
    names += list(REPORTER_FIELDS)
    names += list(ASSIGNEE_FIELDS)
    names += list(ESTIMATOR_FIELDS)
    return names


def assemble_features(record: IssueFeatureInput) -> FeatureVector:
    """Encode one issue's raw fields into the fixed-order numeric vector.

    Unknown type/priority strings land in the "other" bucket. Missing
    assignee data is marked in the mask instead of being conflated with 0.
    """
    values = _one_hot(record.issue_type, ISSUE_TYPES)
    values += _one_hot(record.priority, PRIORITIES)
    values += [float(getattr(record, f)) for f in COUNT_FIELDS]
    values += [reporter_reputation(record.reporter_opened, record.reporter_opened_fixed)]
    values += [float(getattr(record, f)) for f in REPORTER_FIELDS]
    assignee_missing = any(getattr(record, f) is None for f in ASSIGNEE_FIELDS)
    if assignee_missing:
        values += [0.0, 0.0, 0.0]
    else:
        values += [float(getattr(record, f)) for f in ASSIGNEE_FIELDS]
    values += [float(getattr(record, f)) for f in ESTIMATOR_FIELDS]
    names = feature_names()
    missing = np.zeros(len(names), dtype=bool)
    if assignee_missing:
        for f in ASSIGNEE_FIELDS:
            missing[names.index(f)] = True
    return FeatureVector(names=names, values=np.array(values), missing=missing)


def feature_matrix(vectors: list[FeatureVector], impute: str = "mean",
                   train_vectors: list[FeatureVector] | None = None) -> np.ndarray:
    """Stack feature vectors into a matrix, one row each, resolving missing entries.

    impute="mean" substitutes per-feature means of the non-missing training
    values (linear models); impute="zero" leaves zeros in place and appends
    the missing-indicator columns (tree models).
    """
    shape = (len(vectors), len(feature_names()))
    values = np.array([v.values for v in vectors], dtype=np.float64).reshape(shape)
    missing = np.array([v.missing for v in vectors], dtype=bool).reshape(shape)
    if impute == "zero":
        return np.hstack([values, missing.astype(np.float64)])
    if impute != "mean":
        raise BaselineError(f"unknown imputation {impute!r}")
    ref_vals = values if train_vectors is None else np.stack([v.values for v in train_vectors])
    ref_miss = missing if train_vectors is None else np.stack([v.missing for v in train_vectors])
    for j in range(values.shape[1]):
        present = ~ref_miss[:, j]
        fill = ref_vals[present, j].mean() if present.any() else 0.0
        values[missing[:, j], j] = fill
    return values
