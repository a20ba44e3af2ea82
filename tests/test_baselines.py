import copy
import pickle

import numpy as np
import pytest
from oracles import tree_height

from storypoint import baselines
from storypoint.baselines import (
    BaselineError,
    IssueFeatureInput,
    assemble_features,
    bow_vectorize,
    cart_fit,
    cart_predict,
    cbr_estimate,
    feature_matrix,
    lasso_fit,
    mean_effort,
    median_effort,
    ols_fit,
    prune_tree,
    random_guess,
    reporter_reputation,
    rf_fit,
    rf_predict,
)
from storypoint.corpus import (EOS_TOKEN, build_vocabulary, compose_document,
                               load_bundled_corpus, tokenize)
from storypoint.numerics import make_rng


class TestNaiveBenchmarks:
    def test_mean_and_median_basic(self):
        assert mean_effort([1, 2, 3]) == 2
        assert median_effort([1, 2, 3]) == 2

    def test_median_robust_to_outlier(self):
        assert mean_effort([1, 2, 9]) == 4
        assert median_effort([1, 2, 9]) == 2

    def test_singleton(self):
        assert mean_effort([5]) == 5
        assert median_effort([5]) == 5

    def test_even_median_averages_middles(self):
        assert median_effort([1, 2, 3, 10]) == 2.5

    def test_median_permutation_invariant(self):
        rng = make_rng(0)
        pts = list(rng.integers(1, 20, size=15).astype(float))
        base = median_effort(pts)
        for _ in range(10):
            rng.shuffle(pts)
            assert median_effort(pts) == base

    def test_empty_rejected(self):
        for fn in (mean_effort, median_effort):
            with pytest.raises(BaselineError):
                fn([])
        with pytest.raises(BaselineError):
            random_guess([], make_rng(0))

    def test_random_guess_constant_input(self):
        assert random_guess([3, 3, 3], make_rng(1)) == 3

    def test_random_guess_support(self):
        pts = [1.0, 5.0, 8.0]
        rng = make_rng(2)
        for _ in range(200):
            assert random_guess(pts, rng) in pts

    def test_random_guess_uniform(self):
        rng = make_rng(3)
        draws = [random_guess([1.0, 2.0], rng) for _ in range(10**5)]
        assert np.mean(draws) == pytest.approx(1.5, abs=0.01)


class TestBagOfWords:
    def test_counts_at_token_positions(self):
        vocab = build_vocabulary([["standardize", "xd", "logging"]], min_count=1)
        vec = bow_vectorize(["standardize", "xd", "logging", EOS_TOKEN], vocab)
        assert vec.sum() == 3
        for tok in ("standardize", "xd", "logging"):
            assert vec[vocab.index[tok]] == 1

    def test_empty_tokens_zero_vector(self):
        vocab = build_vocabulary([["a"]], min_count=1)
        vec = bow_vectorize([EOS_TOKEN], vocab)
        np.testing.assert_array_equal(vec, np.zeros(len(vocab)))

    def test_repeated_token_counts(self):
        vocab = build_vocabulary([["a", "b"]], min_count=1)
        vec = bow_vectorize(["a"] * 4 + [EOS_TOKEN], vocab)
        assert vec[vocab.index["a"]] == 4

    def test_oov_lands_on_unk(self):
        vocab = build_vocabulary([["a"]], min_count=1)
        vec = bow_vectorize(["mystery", "a"], vocab)
        assert vec[vocab.unk_id] == 1

    def test_counts_equal_those_of_a_token_loop(self):
        docs = [tokenize(compose_document(r)) for r in load_bundled_corpus()]
        vocab = build_vocabulary(docs[:40], min_count=1)  # later issues hold unknown words
        for doc in docs:
            want = np.zeros(len(vocab))
            for tok in doc:
                if tok != EOS_TOKEN:
                    want[vocab.index.get(tok, vocab.unk_id)] += 1.0
            np.testing.assert_array_equal(bow_vectorize(doc, vocab), want)


def oracle_cart(x, y, rows, min_leaf):
    """Independent exhaustive-split reference: recompute child SSE directly
    for every (feature, threshold) candidate."""
    sub_y = y[rows]
    if len(rows) < 2 * min_leaf or np.all(sub_y == sub_y[0]):
        return ("leaf", float(sub_y.mean()))
    best = None
    for j in range(x.shape[1]):
        values = sorted(set(x[rows, j]))
        for lo, hi in zip(values, values[1:]):
            thr = (lo + hi) / 2
            left = rows[x[rows, j] <= thr]
            right = rows[x[rows, j] > thr]
            if len(left) < min_leaf or len(right) < min_leaf:
                continue
            sse = float(((y[left] - y[left].mean()) ** 2).sum()) + float(
                ((y[right] - y[right].mean()) ** 2).sum()
            )
            if best is None or sse < best[0] - 1e-12:
                best = (sse, j, thr, left, right)
    if best is None:
        return ("leaf", float(sub_y.mean()))
    _, j, thr, left, right = best
    return ("split", j, thr, oracle_cart(x, y, left, min_leaf), oracle_cart(x, y, right, min_leaf))


def oracle_predict(node, x):
    while node[0] == "split":
        node = node[3] if x[node[1]] <= node[2] else node[4]
    return node[1]


def nested(tree):
    """The preorder records as oracle_cart's nested tuples, each node's
    value and count appended: ("leaf", value, count) or
    ("split", feature, threshold, left, right, value, count)."""
    records = iter(tree)

    def node():
        value, count, feature, threshold = next(records)
        if feature is None:
            return ("leaf", value, count)
        left = node()
        return ("split", feature, threshold, left, node(), value, count)

    return node()


def nested_height(node):
    return 0 if node[0] == "leaf" else 1 + max(nested_height(node[3]), nested_height(node[4]))


def oracle_prune(node, levels):
    """Independent pruning reference: collapse the deepest level of the
    nested tree `levels` times, one level at a time, by making a leaf of
    every split whose children are at the bottom."""
    for _ in range(levels):
        bottom = nested_height(node)
        if bottom == 0:
            break

        def collapse(n, depth):
            if n[0] == "leaf":
                return n
            if depth == bottom - 1:
                return ("leaf", n[5], n[6])
            return n[:3] + (collapse(n[3], depth + 1), collapse(n[4], depth + 1)) + n[5:]

        node = collapse(node, 0)
    return node


def leaves(node):
    return [node] if node[0] == "leaf" else leaves(node[3]) + leaves(node[4])


class TestCart:
    def test_constant_targets_single_leaf(self):
        tree = cart_fit([[1.0], [2.0], [3.0]], [7.0, 7.0, 7.0], min_leaf_size=1)
        assert tree == [(7.0, 3, None, 0.0)]

    def test_leaf_count_bound(self):
        x = np.arange(20.0)[:, None]
        tree = cart_fit(x, np.arange(20.0), min_leaf_size=5, prune_level=0)
        leaf_counts = [count for _, count, feature, _ in tree if feature is None]
        assert len(leaf_counts) <= 4
        assert min(leaf_counts) >= 5
        assert [n[2] for n in leaves(nested(tree))] == leaf_counts

    def test_matches_exhaustive_oracle(self):
        rng = make_rng(4)
        for trial in range(5):
            x = rng.normal(size=(12, 2))
            y = rng.normal(size=12)
            tree = cart_fit(x, y, min_leaf_size=2, prune_level=0)
            oracle = oracle_cart(x, y, np.arange(12), 2)
            probes = rng.normal(size=(30, 2))
            for probe, got in zip(probes, cart_predict(tree, probes)):
                assert cart_predict(tree, probe) == got
                assert got == pytest.approx(oracle_predict(oracle, probe), rel=1e-12)

    def test_prune_collapses_deepest_levels(self):
        x = np.arange(8.0)[:, None]
        y = np.array([0.0, 0, 1, 1, 4, 4, 9, 9])
        full = cart_fit(x, y, min_leaf_size=1, prune_level=0)
        h = nested_height(nested(full))
        assert h >= 2
        assert tree_height(full) == h
        pruned = cart_fit(x, y, min_leaf_size=1, prune_level=1)
        assert nested_height(nested(pruned)) == h - 1
        stump = cart_fit(x, y, min_leaf_size=1, prune_level=h)
        assert len(stump) == 1 and stump[0][2] is None
        assert stump[0][0] == pytest.approx(y.mean())

    def test_prune_tree_keeps_subtree_means(self):
        x = np.arange(8.0)[:, None]
        y = np.array([0.0, 0, 1, 1, 4, 4, 9, 9])
        tree = cart_fit(x, y, min_leaf_size=1, prune_level=0)
        pruned = prune_tree(tree, 99)
        assert pruned == [(tree[0][0], 8, None, 0.0)]

    def test_prune_matches_level_by_level_oracle(self):
        rng = make_rng(35)
        heights = set()
        for _ in range(20):
            n = int(rng.integers(20, 120))
            x = rng.normal(size=(n, 3))
            y = rng.choice([1.0, 2.0, 3.0, 5.0, 8.0], size=n)
            tree = cart_fit(x, y, min_leaf_size=1, prune_level=0)
            heights.add(tree_height(tree))
            for levels in range(13):
                pruned = prune_tree(tree, levels)
                assert nested(pruned) == oracle_prune(nested(tree), levels), levels
                assert sum(leaf[2] for leaf in leaves(nested(pruned))) == pruned[0][1] == n
        assert min(heights) < 12 < max(heights)  # pruned to a stump, and not

    def test_length_mismatch(self):
        with pytest.raises(BaselineError):
            cart_fit([[1.0], [2.0]], [1.0])

    @pytest.mark.parametrize("name, bad", [
        ("prune_level", -3), ("prune_level", -1), ("prune_level", 1.5), ("prune_level", None),
        ("min_leaf_size", 0), ("min_leaf_size", 2.5), ("min_leaf_size", True),
    ])
    def test_bad_arguments_rejected(self, name, bad):
        with pytest.raises(BaselineError, match=name):
            cart_fit(np.arange(8.0)[:, None], np.arange(8.0), **{name: bad})

    @pytest.mark.parametrize("levels", [-1, 0.5])
    def test_prune_tree_rejects_bad_levels(self, levels):
        tree = cart_fit(np.arange(8.0)[:, None], np.arange(8.0), min_leaf_size=1, prune_level=0)
        with pytest.raises(BaselineError, match="levels"):
            prune_tree(tree, levels)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        x = np.arange(12.0).reshape(6, 2)
        y = np.arange(6.0)
        x_bad, y_bad = x.copy(), y.copy()
        x_bad[3, 1] = bad
        y_bad[2] = bad
        with pytest.raises(BaselineError, match="finite"):
            cart_fit(x_bad, y, min_leaf_size=1)
        with pytest.raises(BaselineError, match="finite"):
            cart_fit(x, y_bad, min_leaf_size=1)

    def test_rows_index_shared_matrix(self):
        rng = make_rng(34)
        x = rng.normal(size=(10, 3))
        y = rng.normal(size=10)
        rows = np.array([4, 4, 0, 9, 2, 2, 7])
        # rf_fit grows each tree on its bootstrap rows of the shared matrix
        [tree] = baselines._grow_forest(x, y, [rows], [None], None, 1)
        assert [tree] == baselines._grow_forest(
            x[rows], y[rows], [np.arange(len(rows))], [None], None, 1
        )
        # and a tree grown beside others is the tree grown alone
        together = baselines._grow_forest(x, y, [rows, np.arange(10), rows[:4]],
                                          [None] * 3, None, 1)
        assert together[0] == tree
        assert together[1] == baselines._grow_forest(x, y, [np.arange(10)], [None], None, 1)[0]

    def test_chain_deeper_than_the_recursion_limit(self):
        # each split peels off the row with the largest target, so the tree
        # is a chain more levels deep than Python's default recursion limit
        n = 1100
        x = np.arange(float(n))[:, None]
        y = 100 * 0.5 ** np.arange(n)
        tree = cart_fit(x, y, min_leaf_size=1, prune_level=0)
        height = tree_height(tree)
        assert height > 1000
        assert cart_predict(tree, x) == list(y)
        assert cart_predict(tree, x[-1]) == y[-1]
        assert tree_height(prune_tree(tree, 5)) == height - 5

    def test_deep_tree_pickles_compares_and_prints(self):
        # the chain again, from a forest: trees far deeper than the
        # recursion limit of a recursive pickle, == or repr
        n = 600
        x = np.arange(float(n))[:, None]
        y = 100 * 0.5 ** np.arange(n)
        tree = max(rf_fit(x, y, n_trees=4, rng=make_rng(0)).trees, key=tree_height)
        height = tree_height(tree)
        assert height > 300
        back = pickle.loads(pickle.dumps(tree))
        assert back == tree and back is not tree
        changed = copy.deepcopy(tree)
        value, *rest = changed[-1]  # the last record in preorder is a leaf
        changed[-1] = (value + 1.0, *rest)
        assert changed != tree and tree_height(changed) == height
        # one tuple per record, and no numpy scalar in any of them
        assert repr(tree).count("(") == len(tree)


def reference_best_split(x, y, rows, feat_ids, min_leaf_size):
    """Sequential threshold scan, one feature and one threshold at a time.

    This is the reference for each node of baselines._best_splits: same sorts,
    same prefix sums, same per-candidate arithmetic, so the two must agree
    exactly.
    """
    best = None
    best_sse = None
    for j in feat_ids:
        xs = x[rows, j]
        order = np.argsort(xs, kind="stable")
        xs_sorted = xs[order]
        ys_sorted = y[rows][order]
        csum = np.cumsum(ys_sorted)
        csq = np.cumsum(ys_sorted**2)
        total_sum, total_sq = csum[-1], csq[-1]
        n = len(rows)
        for i in range(min_leaf_size - 1, n - min_leaf_size):
            if xs_sorted[i] == xs_sorted[i + 1]:
                continue
            nl = i + 1
            nr = n - nl
            sse = (total_sq - csq[i] - (total_sum - csum[i]) ** 2 / nr) + (
                csq[i] - csum[i] ** 2 / nl
            )
            if best_sse is None or sse < best_sse - 1e-12:
                best_sse = sse
                best = (j, (xs_sorted[i] + xs_sorted[i + 1]) / 2.0)
    return best


def reference_best_splits(xt, yp, nodes, min_leaf_size):
    """reference_best_split of each node, on the arrays _best_splits reads."""
    return [reference_best_split(xt[:, :-1].T, yp[:-1], rows, feats, min_leaf_size)
            for rows, feats in nodes]


def best_splits(x, y, nodes, min_leaf_size):
    """baselines._best_splits of the nodes (rows, feats) of x, y."""
    xt, yp = baselines._padded_columns(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    return baselines._best_splits(xt, yp, nodes, min_leaf_size)


def split_cases(seed):
    """Seeded (x, y) pairs: tied integer, 0/1 sparse, constant and dense
    columns, each with tied story-point and continuous targets."""
    rng = make_rng(seed)
    for n, p in ((6, 3), (15, 8), (40, 25)):
        columns = {
            "tied": rng.integers(0, 3, size=(n, p)).astype(float),
            "sparse": (rng.random((n, p)) < 0.15).astype(float),
            "constant": np.repeat(rng.integers(0, 3, size=(1, p)), n, axis=0).astype(float),
            "dense": rng.normal(size=(n, p)),
        }
        mixed = np.hstack([columns["tied"][:, :2], columns["constant"][:, :2],
                           columns["sparse"], columns["dense"][:, :2]])
        for x in (*columns.values(), mixed):
            yield x, rng.choice([1.0, 2.0, 3.0, 5.0, 8.0], size=n)
            yield x, rng.normal(loc=3.0, scale=2.0, size=n)


class TestBestSplit:
    def test_matches_sequential_reference(self):
        # every call mixes node lengths, each node with its own candidates
        rng = make_rng(30)
        checked = splits = 0
        for x, y in split_cases(31):
            n, p = x.shape
            for n_feats in sorted({1, max(1, p // 2), p}):
                nodes = [(rows, sorted(rng.choice(p, size=n_feats, replace=False)))
                         for rows in (np.arange(n), rng.integers(0, n, size=n),
                                      rng.choice(n, size=max(1, n // 2), replace=False),
                                      rng.integers(0, n, size=3), np.arange(n)[::-1])]
                for min_leaf in range(1, 6):
                    got = best_splits(x, y, nodes, min_leaf)
                    want = [reference_best_split(x, y, rows, feats, min_leaf)
                            for rows, feats in nodes]
                    assert got == want, (x.shape, n_feats, min_leaf, got, want)
                    for node, answer in zip(nodes, want):  # alone, as in a call of its own
                        assert best_splits(x, y, [node], min_leaf) == [answer]
                    checked += len(want)
                    splits += sum(w is not None for w in want)
        assert checked // 3 < splits < checked  # the legal and the no-split cases both occur

    def test_constant_columns_have_no_split(self):
        x = np.repeat([[1.0, 0.0, 4.0]], 8, axis=0)
        y = np.arange(8.0)
        assert best_splits(x, y, [(np.arange(8), range(3))], 1) == [None]
        # nor beside a node that splits
        x[:4, 1] = 1.0
        nodes = [(np.arange(8), [0, 2]), (np.arange(8), [0, 1]), (np.arange(2, 8), [0, 2])]
        assert best_splits(x, y, nodes, 1) == [None, (1, 0.5), None]

    def test_near_tie_keeps_first_candidate(self):
        # Both columns split rows {0,1,2} from row 3, but column 0 sums the
        # left targets in another order, so its SSE ends up a few ulps higher.
        y = np.array([0.1, 0.2, 0.3, 5.0])
        x = np.array([[2.0, 0.0], [0.0, 1.0], [1.0, 2.0], [3.0, 3.0]])

        def sse(order):
            ys = y[order]
            left, right = ys[:3], ys[3:]
            total_sum, total_sq = np.cumsum(ys)[-1], np.cumsum(ys**2)[-1]
            lsum, lsq = np.cumsum(left)[-1], np.cumsum(left**2)[-1]
            return (total_sq - lsq - (total_sum - lsum) ** 2 / 1) + (lsq - lsum**2 / 3)

        first, later = sse([1, 2, 0, 3]), sse([0, 1, 2, 3])
        assert 0 < first - later < 1e-12
        rows = np.arange(4)
        assert reference_best_split(x, y, rows, range(2), 1) == (0, 2.5)
        assert best_splits(x, y, [(rows, range(2)), (rows[::-1], range(2))], 1) == [(0, 2.5)] * 2
        assert best_splits(x, y, [(rows, [1])], 1) == [(1, 2.5)]

    def test_equal_partitions_rank_by_scalar_pow_rounding(self):
        # Every column splits rows 0-3 from rows 4-7 but sums the targets in
        # its own order. Which SSE is lowest then depends on the last bit of
        # each square, which must round like the reference's scalar `** 2`.
        rng = make_rng(3738)
        y = rng.normal(size=8) * 1e4
        x = np.stack([np.concatenate([rng.permutation(4), 10 + rng.permutation(4)])
                      for _ in range(4)], axis=1).astype(float)
        want = reference_best_split(x, y, np.arange(8), range(4), 4)
        assert want == (1, 6.5)
        assert best_splits(x, y, [(np.arange(8), range(4))], 4) == [want]

    def test_tied_values_sum_in_row_order(self):
        # Both columns split the same rows, column 0 with tied values and
        # column 1 ranked in row order, so a stable sort sums the targets of
        # both in the same order and column 0 wins the tie. A sort that
        # reorders tied rows sums column 0 in another order, a few ulps off.
        for seed in range(20):
            rng = make_rng(3900 + seed)
            y = rng.normal(size=40) * 1e4
            left = np.sort(rng.choice(40, size=20, replace=False))
            x = np.ones((40, 2))
            x[:, 1] = 2.0
            x[left, 0] = 0.0
            x[left, 1] = np.arange(20) / 40
            want = reference_best_split(x, y, np.arange(40), range(2), 20)
            assert want[0] == 0
            assert best_splits(x, y, [(np.arange(40), range(2))], 20) == [want]

    def test_forest_equals_reference_forest(self, monkeypatch):
        rng = make_rng(32)
        x = rng.poisson(0.08, size=(60, 400)).astype(float)
        y = rng.choice([1.0, 2.0, 3.0, 5.0, 8.0, 13.0], size=60)
        fast = rf_fit(x, y, n_trees=20, rng=make_rng(33))
        monkeypatch.setattr(baselines, "SPLIT_AREA", 1)  # one node per call
        alone = rf_fit(x, y, n_trees=20, rng=make_rng(33))
        monkeypatch.setattr(baselines, "_best_splits", reference_best_splits)
        slow = rf_fit(x, y, n_trees=20, rng=make_rng(33))
        assert sum(t[0][2] is not None for t in fast.trees) == 20
        assert fast.trees == alone.trees == slow.trees

    @pytest.mark.parametrize("area", [None, 2000])
    def test_split_calls_stay_within_the_area(self, monkeypatch, area):
        # bow-rf's shape: sparse, mostly tied counts over many words, and
        # sqrt(p) candidates per node
        rng = make_rng(36)
        x = rng.poisson(0.05, size=(120, 900)).astype(float)
        y = rng.choice([1.0, 2.0, 3.0, 5.0, 8.0], size=120)
        if area is not None:  # below a root node's 120 rows x 30 candidates
            monkeypatch.setattr(baselines, "SPLIT_AREA", area)
        kernel, calls = baselines._best_splits, []

        def recorded(xt, yp, nodes, min_leaf_size):
            calls.append((len(nodes), len(nodes[0][1]) * max(len(rows) for rows, _ in nodes)))
            return kernel(xt, yp, nodes, min_leaf_size)

        monkeypatch.setattr(baselines, "_best_splits", recorded)
        forest = rf_fit(x, y, n_trees=30, rng=make_rng(37))
        splits = sum(record[2] is not None for tree in forest.trees for record in tree)
        assert max(k for k, _ in calls) > 1  # nodes share calls
        for k, per_node in calls:
            assert k == 1 or k * per_node <= baselines.SPLIT_AREA
        if area is None:
            assert len(calls) < splits / 5
        else:  # a node larger than the area has a call of its own
            assert any(per_node > area for _, per_node in calls)


class TestRandomForest:
    def test_row_count_mismatch_rejected(self):
        with pytest.raises(BaselineError, match="one row per target"):
            rf_fit(np.ones((3, 2)), np.arange(5.0), n_trees=2)

    def test_one_dimensional_features_rejected(self):
        with pytest.raises(BaselineError, match="2-D"):
            rf_fit(np.arange(5.0), np.arange(5.0), n_trees=2)

    @pytest.mark.parametrize("n_trees", [0, -1])
    def test_empty_forest_rejected(self, n_trees):
        with pytest.raises(BaselineError, match="n_trees"):
            rf_fit(np.ones((4, 2)), np.arange(4.0), n_trees=n_trees)

    @pytest.mark.parametrize("n_features", [0, -1, 2.5, "log2", True])
    def test_bad_n_features_rejected(self, n_features):
        with pytest.raises(BaselineError, match="n_features must be 'sqrt', None or an integer"):
            rf_fit(np.arange(8.0).reshape(4, 2), np.arange(4.0), n_trees=2, n_features=n_features)

    @pytest.mark.parametrize("n_features", ["sqrt", None, 1, np.int64(2), 5])
    def test_good_n_features_accepted(self, n_features):
        forest = rf_fit(np.arange(8.0).reshape(4, 2), np.arange(4.0), n_trees=2,
                        n_features=n_features)
        assert len(forest.trees) == 2

    @pytest.mark.parametrize("n_trees", [2.5, True])
    def test_fractional_n_trees_rejected(self, n_trees):
        with pytest.raises(BaselineError, match="n_trees"):
            rf_fit(np.ones((4, 2)), np.arange(4.0), n_trees=n_trees)

    def test_min_leaf_size_below_one_rejected(self):
        with pytest.raises(BaselineError, match="min_leaf_size"):
            rf_fit(np.arange(8.0).reshape(4, 2), np.arange(4.0), n_trees=2, min_leaf_size=0)

    def test_non_finite_rejected(self):
        x = np.arange(8.0).reshape(4, 2)
        y = np.arange(4.0)
        with pytest.raises(BaselineError, match="finite"):
            rf_fit(np.where(x == 5.0, np.nan, x), y, n_trees=2)
        with pytest.raises(BaselineError, match="finite"):
            rf_fit(x, np.where(y == 1.0, np.nan, y), n_trees=2)

    def test_identical_rows_exact_prediction(self):
        x = np.ones((6, 3))
        y = np.full(6, 4.5)
        forest = rf_fit(x, y, n_trees=10, rng=make_rng(5))
        assert rf_predict(forest, np.ones(3)) == 4.5

    def test_degenerate_forest_equals_unpruned_cart(self):
        rng = make_rng(6)
        x = rng.normal(size=(15, 3))
        y = rng.normal(size=15)
        forest = rf_fit(x, y, n_trees=1, rng=make_rng(7), bootstrap=False,
                        n_features=None, min_leaf_size=5)
        tree = cart_fit(x, y, min_leaf_size=5, prune_level=0)
        for probe in rng.normal(size=(20, 3)):
            assert rf_predict(forest, probe) == cart_predict(tree, probe)

    def test_seeded_reproducibility(self):
        rng_data = make_rng(8)
        x = rng_data.normal(size=(20, 4))
        y = rng_data.normal(size=20)
        p1 = [rf_predict(rf_fit(x, y, n_trees=12, rng=make_rng(9)), row) for row in x]
        p2 = [rf_predict(rf_fit(x, y, n_trees=12, rng=make_rng(9)), row) for row in x]
        assert p1 == p2

    def test_rows_in_one_call_average_each_rows_tree_predictions(self):
        rng = make_rng(12)
        x = rng.poisson(0.3, size=(50, 40)).astype(float)
        y = rng.choice([1.0, 2.0, 3.0, 5.0, 8.0, 13.0], size=50) * 1.1
        forest = rf_fit(x[:35], y[:35], n_trees=150, rng=make_rng(13))
        each = [float(np.mean([oracle_predict(nested(t), row) for t in forest.trees]))
                for row in x]
        assert rf_predict(forest, x) == each
        assert [rf_predict(forest, row) for row in x] == each
        assert rf_predict(forest, x[:0]) == []

    def test_prediction_within_tree_range(self):
        rng = make_rng(10)
        x = rng.normal(size=(25, 3))
        y = rng.uniform(1, 10, size=25)
        forest = rf_fit(x, y, n_trees=20, rng=make_rng(11))
        for probe in rng.normal(size=(10, 3)):
            per_tree = [cart_predict(t, probe) for t in forest.trees]
            assert min(per_tree) <= rf_predict(forest, probe) <= max(per_tree)


class TestCbr:
    def test_exact_match_k1(self):
        x = np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 1.0]])
        y = np.array([1.0, 5.0, 8.0])
        assert cbr_estimate(x, y, [5.0, 5.0], k=1) == 5.0

    def test_k_equals_n_is_mean_effort(self):
        rng = make_rng(12)
        x = rng.normal(size=(7, 3))
        y = rng.uniform(1, 9, size=7)
        assert cbr_estimate(x, y, rng.normal(size=3), k=7) == pytest.approx(mean_effort(y))

    def test_matches_bruteforce_sort_oracle(self):
        rng = make_rng(13)
        x = rng.normal(size=(10, 4))
        y = rng.uniform(1, 9, size=10)
        for _ in range(20):
            probe = rng.normal(size=4)
            dists = [(float(np.linalg.norm(row - probe)), i) for i, row in enumerate(x)]
            dists.sort()
            expected = np.mean([y[i] for _, i in dists[:3]])
            assert cbr_estimate(x, y, probe, k=3) == pytest.approx(expected, rel=1e-12)

    def test_copied_training_set_identical(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([1.0, 2.0, 3.0, 4.0])
        a = cbr_estimate(x, y, [1.2], k=3)
        b = cbr_estimate(x.copy(), y.copy(), [1.2], k=3)
        assert a == b

    def test_concatenated_duplicates_tie_break_by_index(self):
        # doubling the rows leaves k=1 answers unchanged: the first copy wins
        x = np.array([[0.0], [1.0], [2.0]])
        y = np.array([1.0, 2.0, 3.0])
        doubled_x = np.vstack([x, x])
        doubled_y = np.concatenate([y, y])
        for probe in ([0.2], [1.4], [2.9]):
            assert cbr_estimate(doubled_x, doubled_y, probe, k=1) == cbr_estimate(
                x, y, probe, k=1
            )

    def test_k_too_large(self):
        with pytest.raises(BaselineError):
            cbr_estimate(np.zeros((2, 1)), np.ones(2), [0.0], k=3)


class TestOls:
    def test_exact_line(self):
        x = np.arange(1.0, 6.0)[:, None]
        model = ols_fit(x, 2.0 * x[:, 0])
        assert model.coef[0] == pytest.approx(2.0, abs=1e-9)
        assert model.intercept == pytest.approx(0.0, abs=1e-9)

    def test_constant_feature_falls_back_to_mean(self):
        x = np.full((6, 1), 3.0)
        y = np.array([1.0, 2, 3, 4, 5, 6])
        model = ols_fit(x, y)
        assert model.coef[0] == pytest.approx(0.0, abs=1e-9)
        assert model.intercept == pytest.approx(y.mean(), abs=1e-9)

    def test_matches_normal_equation_oracle(self):
        rng = make_rng(14)
        x = rng.normal(size=(5, 2))
        y = rng.normal(size=5)
        a = np.hstack([x, np.ones((5, 1))])
        expected = np.linalg.inv(a.T @ a) @ a.T @ y
        model = ols_fit(x, y)
        np.testing.assert_allclose(model.coef, expected[:2], atol=1e-9)
        assert model.intercept == pytest.approx(expected[2], abs=1e-9)

    def test_predict_shape(self):
        model = ols_fit(np.arange(4.0)[:, None], np.arange(4.0))
        np.testing.assert_allclose(model.predict([[10.0]]), [10.0], atol=1e-8)

    @pytest.mark.parametrize("fit", [ols_fit, lambda x, y: lasso_fit(x, y, lam=1.0)])
    def test_unusable_training_sets_rejected(self, fit):
        x = np.arange(8.0).reshape(4, 2)
        for bad_x, bad_y in ((x, np.arange(3.0)), (x[:0], np.arange(0.0)),
                             (np.where(x == 5.0, np.nan, x), np.arange(4.0)),
                             (x, np.array([1.0, np.inf, 2.0, 3.0]))):
            with pytest.raises(BaselineError):
                fit(bad_x, bad_y)


class TestLasso:
    def test_huge_budget_matches_ols(self):
        rng = make_rng(15)
        x = rng.normal(size=(30, 4))
        y = x @ np.array([2.0, -1.0, 0.5, 3.0]) + rng.normal(scale=0.1, size=30)
        ols = ols_fit(x, y)
        lasso = lasso_fit(x, y, s=1e9)
        np.testing.assert_allclose(lasso.coef, ols.coef, atol=1e-6)
        assert lasso.intercept == pytest.approx(ols.intercept, abs=1e-6)

    def test_zero_budget_gives_intercept_only(self):
        rng = make_rng(16)
        x = rng.normal(size=(20, 3))
        y = rng.uniform(1, 9, size=20)
        model = lasso_fit(x, y, s=0.0)
        np.testing.assert_array_equal(model.coef, np.zeros(3))
        assert model.intercept == pytest.approx(y.mean())
        assert model.selected == []

    def test_budget_invariant_holds(self):
        rng = make_rng(17)
        x = rng.normal(size=(40, 5))
        y = x @ np.array([4.0, 0.0, -2.0, 1.0, 0.0]) + rng.normal(size=40)
        for s in (0.5, 1.0, 2.0, 4.0):
            model = lasso_fit(x, y, s=s)
            assert np.abs(model.coef).sum() <= s + 1e-8

    def test_smaller_budget_zeroes_more_coefficients(self):
        rng = make_rng(18)
        x = rng.normal(size=(50, 6))
        y = x @ np.array([5.0, 3.0, -4.0, 0.5, 0.0, 1.5]) + rng.normal(scale=0.5, size=50)
        budgets = [0.1, 0.5, 1.5, 4.0, 10.0]
        zero_counts = [
            int(np.sum(lasso_fit(x, y, s=s).coef == 0.0)) for s in budgets
        ]
        assert zero_counts == sorted(zero_counts, reverse=True)

    def test_penalty_path_norm_monotone(self):
        rng = make_rng(19)
        x = rng.normal(size=(40, 4))
        y = x @ np.array([2.0, -3.0, 1.0, 0.0]) + rng.normal(scale=0.3, size=40)
        lams = [0.1, 1.0, 5.0, 20.0, 80.0]
        norms = [np.abs(lasso_fit(x, y, lam=lam).coef).sum() for lam in lams]
        for n1, n2 in zip(norms, norms[1:]):
            assert n1 >= n2 - 1e-10

    def test_selected_are_exact_nonzeros(self):
        rng = make_rng(20)
        x = rng.normal(size=(30, 5))
        y = x @ np.array([3.0, 0.0, 0.0, 2.0, 0.0]) + rng.normal(scale=0.2, size=30)
        model = lasso_fit(x, y, s=2.0)
        assert model.selected == [int(j) for j in np.flatnonzero(model.coef)]

    def test_grid_mode_picks_low_validation_error(self):
        rng = make_rng(21)
        x = rng.normal(size=(60, 4))
        true = np.array([2.0, 0.0, -1.0, 0.0])
        y = x @ true + rng.normal(scale=0.3, size=60)
        model = lasso_fit(x[:48], y[:48], valid_features=x[48:], valid_targets=y[48:])
        preds = model.predict(x)
        assert float(np.mean((preds - y) ** 2)) < 1.0

    def test_grid_mode_needs_validation_rows(self):
        rng = make_rng(21)
        with pytest.raises(BaselineError):
            lasso_fit(rng.normal(size=(20, 3)), rng.normal(size=20))

    def test_grid_mode_fits_each_penalty_once(self, monkeypatch):
        rng = make_rng(23)
        x = rng.normal(size=(40, 4))
        y = x @ np.array([1.0, 0.0, -2.0, 0.5]) + rng.normal(scale=0.3, size=40)
        solves = []
        real = baselines._coordinate_descent

        def counting(xs, yc, lam):
            solves.append(lam)
            return real(xs, yc, lam)

        monkeypatch.setattr(baselines, "_coordinate_descent", counting)
        model = lasso_fit(x[:30], y[:30], valid_features=x[30:], valid_targets=y[30:])
        assert len(solves) == 30
        assert model.lam in solves
        np.testing.assert_array_equal(model.coef, lasso_fit(x[:30], y[:30], lam=model.lam).coef)


class TestReporterReputation:
    def test_substitution(self):
        assert reporter_reputation(4, 2) == pytest.approx(0.4)

    def test_zero_opened_guarded(self):
        assert reporter_reputation(0, 0) == 0.0

    def test_always_below_one(self):
        rng = make_rng(22)
        for _ in range(100):
            opened = int(rng.integers(0, 50))
            fixed = int(rng.integers(0, opened + 1))
            assert reporter_reputation(opened, fixed) < 1.0

    def test_invalid_counts(self):
        with pytest.raises(BaselineError):
            reporter_reputation(2, 3)
        with pytest.raises(BaselineError):
            reporter_reputation(-1, 0)


class TestAssembleFeatures:
    def test_count_passthrough(self):
        vec = assemble_features(IssueFeatureInput(n_subtasks=11, n_issue_links=12))
        assert vec.values[vec.names.index("n_subtasks")] == 11
        assert vec.values[vec.names.index("n_issue_links")] == 12

    def test_one_hot_known_and_other(self):
        vec = assemble_features(IssueFeatureInput(issue_type="Bug", priority="Blocker"))
        assert vec.values[vec.names.index("type_bug")] == 1
        assert vec.values[vec.names.index("priority_blocker")] == 1
        odd = assemble_features(IssueFeatureInput(issue_type="Weird Kind", priority=""))
        assert odd.values[odd.names.index("type_other")] == 1
        assert odd.values[odd.names.index("priority_other")] == 1

    def test_missing_assignee_masks_three_features(self):
        vec = assemble_features(IssueFeatureInput(assignee_tested=None))
        masked = [n for n, m in zip(vec.names, vec.missing) if m]
        assert masked == ["assignee_tested", "assignee_reviewed", "assignee_resolved"]

    def test_present_assignee_not_masked(self):
        vec = assemble_features(
            IssueFeatureInput(assignee_tested=1, assignee_reviewed=2, assignee_resolved=3)
        )
        assert not vec.missing.any()
        assert vec.values[vec.names.index("assignee_resolved")] == 3

    def test_reputation_embedded(self):
        vec = assemble_features(IssueFeatureInput(reporter_opened=9, reporter_opened_fixed=3))
        assert vec.values[vec.names.index("reporter_reputation")] == pytest.approx(0.3)

    def test_lengths_align(self):
        vec = assemble_features(IssueFeatureInput())
        assert len(vec.names) == len(vec.values) == len(vec.missing)


class TestFeatureMatrix:
    def test_mean_imputation_uses_train_reference(self):
        train = [
            assemble_features(IssueFeatureInput(assignee_tested=2, assignee_reviewed=0, assignee_resolved=0)),
            assemble_features(IssueFeatureInput(assignee_tested=4, assignee_reviewed=0, assignee_resolved=0)),
        ]
        test = [assemble_features(IssueFeatureInput(assignee_tested=None))]
        matrix = feature_matrix(test, impute="mean", train_vectors=train)
        col = test[0].names.index("assignee_tested")
        assert matrix[0, col] == pytest.approx(3.0)

    def test_mask_columns_appended(self):
        vecs = [assemble_features(IssueFeatureInput(assignee_tested=None))]
        matrix = feature_matrix(vecs, impute="zero")
        base = len(vecs[0].names)
        assert matrix.shape[1] == 2 * base
        assert matrix[0, base + vecs[0].names.index("assignee_tested")] == 1.0

    def test_no_vectors_give_no_rows(self):
        train = [assemble_features(IssueFeatureInput())]
        width = len(train[0].names)
        assert feature_matrix([], impute="mean", train_vectors=train).shape == (0, width)
        assert feature_matrix([], impute="zero").shape == (0, 2 * width)
