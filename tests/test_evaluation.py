import itertools
import math

import numpy as np
import pytest

from storypoint.corpus import build_vocabulary
from storypoint.evaluation import (
    EvaluationError,
    a12,
    cluster_word_embeddings,
    compare_pair,
    compare_pairs,
    compare_report,
    kmeans,
    mae,
    make_report,
    mre_pred,
    random_guess_mae,
    sa,
    dataset_fingerprint,
    wilcoxon_signed_rank,
)
from storypoint.numerics import make_rng


class TestMae:
    def test_hand_example(self):
        assert mae([3, 5], [4, 7]) == pytest.approx(1.5)

    def test_zero_when_equal(self):
        assert mae([2, 4, 8], [2, 4, 8]) == 0.0

    def test_matches_fsum_oracle(self):
        rng = make_rng(0)
        a = rng.uniform(0, 50, size=1000)
        e = rng.uniform(0, 50, size=1000)
        expected = math.fsum(abs(x - y) for x, y in zip(a, e)) / 1000
        assert abs(mae(a, e) - expected) <= 1e-9 * expected

    def test_length_mismatch(self):
        with pytest.raises(EvaluationError):
            mae([1.0], [1.0, 2.0])
        with pytest.raises(EvaluationError):
            mae([], [])


class TestSa:
    def test_perfect_model(self):
        assert sa(0.0, 2.0) == 100.0

    def test_equals_guessing(self):
        assert sa(2.0, 2.0) == 0.0

    def test_twice_as_bad(self):
        assert sa(4.0, 2.0) == -100.0

    def test_zero_rguess_rejected(self):
        with pytest.raises(EvaluationError):
            sa(1.0, 0.0)

    def test_antitone_in_model_mae(self):
        values = [sa(m, 3.0) for m in (0.5, 1.0, 2.0, 5.0)]
        assert values == sorted(values, reverse=True)


class TestRandomGuessMae:
    def test_constant_train_matching_actuals(self):
        assert random_guess_mae([3, 3], [3, 3, 3], runs=50, rng=make_rng(1)) == 0.0

    def test_constant_train_offset_actuals(self):
        assert random_guess_mae([3], [5, 5], runs=10, rng=make_rng(2)) == 2.0

    def test_converges_to_enumeration_expectation(self):
        rng = make_rng(3)
        train = rng.integers(1, 9, size=12).astype(float)
        actual = rng.integers(1, 9, size=7).astype(float)
        # exact per-issue expectation and variance over the train multiset
        per_issue_mean = np.array([np.mean(np.abs(train - a)) for a in actual])
        per_issue_var = np.array([np.var(np.abs(train - a)) for a in actual])
        expected = per_issue_mean.mean()
        run_var = per_issue_var.sum() / len(actual) ** 2
        runs = 1000
        se = math.sqrt(run_var / runs)
        observed = random_guess_mae(train, actual, runs=runs, rng=make_rng(4))
        assert abs(observed - expected) < 3 * se

    def test_two_seeds_within_three_standard_errors(self):
        rng = make_rng(5)
        train = rng.integers(1, 9, size=10).astype(float)
        actual = rng.integers(1, 9, size=9).astype(float)
        per_issue_var = np.array([np.var(np.abs(train - a)) for a in actual])
        se = math.sqrt(per_issue_var.sum() / len(actual) ** 2 / 1000)
        r1 = random_guess_mae(train, actual, runs=1000, rng=make_rng(6))
        r2 = random_guess_mae(train, actual, runs=1000, rng=make_rng(7))
        assert abs(r1 - r2) < 3 * math.sqrt(2) * se

    def test_empty_rejected(self):
        with pytest.raises(EvaluationError):
            random_guess_mae([], [1.0])

    @pytest.mark.parametrize("runs", [0, -3])
    def test_no_runs_rejected(self, runs):
        # zero rounds would average nothing: SA = nan
        with pytest.raises(EvaluationError, match="runs must be >= 1"):
            random_guess_mae([1.0, 2.0], [1.0], runs=runs)


class TestMrePred:
    def test_perfect(self):
        assert mre_pred([4, 8], [4, 8]) == (0.0, 1.0)

    def test_boundary_inclusive(self):
        mre, pred = mre_pred([4.0], [5.0], level=25)
        assert mre == pytest.approx(0.25)
        assert pred == 1.0

    def test_past_boundary(self):
        mre, pred = mre_pred([4.0], [6.0], level=25)
        assert mre == pytest.approx(0.5)
        assert pred == 0.0

    def test_zero_actual_rejected(self):
        with pytest.raises(EvaluationError):
            mre_pred([0.0], [1.0])

    @pytest.mark.parametrize("level", [-5.0, -1e-9, math.nan, math.inf])
    def test_bad_level_rejected(self, level):
        with pytest.raises(EvaluationError, match="pred level must be finite and >= 0"):
            mre_pred([4.0], [4.0], level=level)

    def test_zero_level_counts_exact_estimates(self):
        assert mre_pred([4.0, 4.0], [4.0, 5.0], level=0) == (0.125, 0.5)


def rank_with_tie_averages(values):
    """Independent tie-averaged ranking used only as a test oracle."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for pos in range(i, j + 1):
            ranks[order[pos]] = (i + j) / 2 + 1
        i = j + 1
    return ranks


def bruteforce_wilcoxon(diffs, alternative):
    """Enumerate all 2^n sign assignments of the observed rank magnitudes."""
    diffs = [d for d in diffs if d != 0]
    ranks = rank_with_tie_averages([abs(d) for d in diffs])
    observed = sum(r for d, r in zip(diffs, ranks) if d > 0)
    count_low = count_high = 0
    total = 0
    for signs in itertools.product([0, 1], repeat=len(diffs)):
        w = sum(r for s, r in zip(signs, ranks) if s)
        count_low += w <= observed + 1e-12
        count_high += w >= observed - 1e-12
        total += 1
    if alternative == "a_less":
        return count_low / total
    return min(1.0, 2 * min(count_low / total, count_high / total))


class TestWilcoxon:
    def test_identical_samples_degenerate(self):
        result = wilcoxon_signed_rank([1, 2, 3], [1, 2, 3])
        assert result.p_value == 1.0
        assert result.degenerate

    def test_all_wins_n6_exact(self):
        a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        b = [2.0, 4.0, 6.0, 8.0, 10.0, 12.0]
        result = wilcoxon_signed_rank(a, b, alternative="a_less")
        assert result.method == "exact"
        assert result.p_value == pytest.approx(1 / 64, rel=1e-12)

    def test_exact_branch_matches_full_enumeration(self):
        rng = make_rng(8)
        for n in (5, 8, 12):
            for _ in range(4):
                a = rng.integers(0, 6, size=n).astype(float)
                b = rng.integers(0, 6, size=n).astype(float)
                if np.all(a == b):
                    continue
                for alt in ("a_less", "two_sided"):
                    got = wilcoxon_signed_rank(a, b, alternative=alt)
                    want = bruteforce_wilcoxon(list(a - b), alt)
                    assert got.p_value == pytest.approx(want, abs=1e-12), (n, alt)

    def test_exact_and_normal_agree_at_boundary(self):
        rng = make_rng(9)
        for _ in range(10):
            a = rng.uniform(0, 5, size=20)
            b = rng.uniform(0, 5, size=20)
            exact = wilcoxon_signed_rank(a, b).p_value
            # push past the exact limit with two extra tied pairs
            a2 = np.concatenate([a, [1.0, 2.0]])
            b2 = np.concatenate([b, [1.0, 2.0]])  # zero differences drop out
            again = wilcoxon_signed_rank(a2, b2)
            assert again.method == "exact"
            assert again.p_value == pytest.approx(exact)
            forced = wilcoxon_signed_rank(np.concatenate([a, a + 9]),
                                          np.concatenate([b, b + 9]))
            assert forced.method == "normal"

    def test_normal_branch_close_to_exact_at_n20(self):
        rng = make_rng(10)
        for _ in range(5):
            a = rng.uniform(0, 5, size=20)
            b = rng.uniform(0, 5, size=20)
            exact = wilcoxon_signed_rank(a, b).p_value
            diffs = a - b
            ranks = rank_with_tie_averages(list(np.abs(diffs)))
            w = sum(r for d, r in zip(diffs, ranks) if d > 0)
            mean = 20 * 21 / 4
            sd = math.sqrt(20 * 21 * 41 / 24)
            approx = 0.5 * (1 + math.erf((w + 0.5 - mean) / sd / math.sqrt(2)))
            assert abs(exact - approx) < 0.02

    def test_shift_invariance(self):
        rng = make_rng(11)
        a = rng.uniform(0, 5, size=15)
        b = rng.uniform(0, 5, size=15)
        base = wilcoxon_signed_rank(a, b).p_value
        shifted = wilcoxon_signed_rank(a + 7.5, b + 7.5).p_value
        assert shifted == pytest.approx(base, rel=1e-12)

    def test_unpaired_rejected(self):
        with pytest.raises(EvaluationError):
            wilcoxon_signed_rank([1.0], [1.0, 2.0])


class TestA12:
    def test_equal_samples(self):
        assert a12([1, 2, 3], [1, 2, 3]) == 0.5

    def test_all_wins(self):
        assert a12([1, 1, 1], [5, 5, 5], better="smaller") == 1.0
        assert a12([5, 5], [1, 1], better="larger") == 1.0

    def test_count_form_equals_rank_sum_formula(self):
        rng = make_rng(12)
        for _ in range(50):
            m = int(rng.integers(2, 12))
            n = int(rng.integers(2, 12))
            x = rng.permutation(np.arange(m + n, dtype=float) + rng.uniform(0, 0.4))[:m]
            pool = set(range(100))
            vals = rng.choice(100, size=m + n, replace=False).astype(float)
            x, y = vals[:m], vals[m:]
            ranks = rank_with_tie_averages(list(np.concatenate([x, y])))
            r1 = sum(ranks[:m])
            formula = (r1 / m - (m + 1) / 2) / n  # probability x is larger
            assert a12(x, y, better="larger") == pytest.approx(formula, rel=1e-12)
            assert a12(x, y, better="smaller") == pytest.approx(1 - formula, rel=1e-12)

    def test_complement_identity_tie_free(self):
        rng = make_rng(13)
        x = rng.choice(1000, size=8, replace=False).astype(float)
        y = rng.choice(1000, size=11, replace=False).astype(float) + 0.5
        assert a12(x, y) + a12(y, x) == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(EvaluationError):
            a12([], [1.0])


class TestReports:
    def make_two_reports(self):
        actual = np.array([2.0, 4.0, 3.0, 5.0, 1.0, 6.0])
        good = actual + np.array([0.1, -0.2, 0.1, 0.3, -0.1, 0.2])
        bad = actual + np.array([2.0, -3.0, 2.5, 1.0, -0.5, 4.0])
        rguess = 2.5
        fp = dataset_fingerprint([f"K-{i}" for i in range(6)], actual)
        return (
            make_report("sharp", actual, good, rguess, fingerprint=fp),
            make_report("blunt", actual, bad, rguess, fingerprint=fp),
        )

    def test_report_fields(self):
        sharp, _ = self.make_two_reports()
        assert sharp.n == 6
        assert sharp.mae == pytest.approx(float(np.mean(sharp.abs_errors)))
        assert sharp.mre is not None and sharp.pred is not None

    def test_single_row_table(self):
        sharp, _ = self.make_two_reports()
        table = compare_report([sharp])
        assert "sharp" in table and "*" in table

    def test_star_marks_minimum_mae(self):
        sharp, blunt = self.make_two_reports()
        table = compare_report([blunt, sharp])
        for line in table.splitlines():
            if line.startswith("sharp"):
                assert "*" in line
            if line.startswith("blunt"):
                assert "*" not in line

    def test_pairwise_lines(self):
        sharp, blunt = self.make_two_reports()
        comparisons = compare_pairs([sharp, blunt], [("sharp", "blunt")])
        table = compare_report([sharp, blunt], comparisons)
        assert "sharp vs blunt: p=" in table
        assert "[" in table.splitlines()[-1]

    def test_mismatched_sets_rejected(self):
        sharp, blunt = self.make_two_reports()
        other = make_report("other", [1.0, 2.0], [1.0, 2.0], 2.0)
        with pytest.raises(EvaluationError, match="different test sets"):
            compare_report([sharp, other])
        blunt.fingerprint = "something-else"
        with pytest.raises(EvaluationError, match="different test sets"):
            compare_report([sharp, blunt])

    def test_compare_pair_fields(self):
        sharp, blunt = self.make_two_reports()
        cmp = compare_pair(sharp, blunt)
        assert 0 <= cmp.p_value <= 1
        assert 0 <= cmp.a12 <= 1
        assert cmp.m == 6
        assert cmp.a12 > 0.5  # sharp has smaller errors

    def test_unknown_pair_name(self):
        sharp, blunt = self.make_two_reports()
        with pytest.raises(EvaluationError, match="unknown model"):
            compare_pairs([sharp, blunt], [("sharp", "nope")])


class TestKmeans:
    def test_k_equals_n_zero_inertia(self):
        rng = make_rng(14)
        pts = rng.normal(size=(6, 3))
        labels, _, inertia = kmeans(pts, k=6, rng=make_rng(15))
        assert sorted(labels) == list(range(6))
        assert inertia == pytest.approx(0.0, abs=1e-20)

    def test_two_separated_clouds(self):
        rng = make_rng(16)
        cloud_a = rng.normal(size=(12, 4)) * 0.3
        cloud_b = rng.normal(size=(12, 4)) * 0.3 + 10.0
        pts = np.vstack([cloud_a, cloud_b])
        labels, _, _ = kmeans(pts, k=2, rng=make_rng(17))
        assert len(set(labels[:12])) == 1
        assert len(set(labels[12:])) == 1
        assert labels[0] != labels[12]

    def test_seeded_determinism(self):
        rng = make_rng(18)
        pts = rng.normal(size=(40, 5))
        l1, c1, i1 = kmeans(pts, k=4, rng=make_rng(19))
        l2, c2, i2 = kmeans(pts, k=4, rng=make_rng(19))
        np.testing.assert_array_equal(l1, l2)
        np.testing.assert_array_equal(c1, c2)
        assert i1 == i2

    def test_k_bounds(self):
        with pytest.raises(EvaluationError):
            kmeans(np.zeros((3, 2)), k=4, rng=make_rng(20))

    def test_duplicate_points_still_work(self):
        pts = np.zeros((5, 2))
        labels, _, inertia = kmeans(pts, k=3, rng=make_rng(21))
        assert inertia == 0.0


class TestClusterWords:
    def build_vocab(self, n_words):
        docs = [[f"w{i}"] * (n_words - i) for i in range(n_words)]
        return build_vocabulary(docs, min_count=1)

    def test_top_words_selected_in_frequency_order(self):
        vocab = self.build_vocab(10)
        emb = make_rng(22).normal(size=(len(vocab), 4))
        pairs = cluster_word_embeddings(emb, vocab, top=5, k=2, rng=make_rng(23))
        assert [tok for tok, _ in pairs] == ["w0", "w1", "w2", "w3", "w4"]

    def test_reserved_tokens_excluded(self):
        vocab = self.build_vocab(6)
        emb = make_rng(24).normal(size=(len(vocab), 3))
        pairs = cluster_word_embeddings(emb, vocab, top=500, k=3, rng=make_rng(25))
        tokens = {tok for tok, _ in pairs}
        assert "<unk>" not in tokens and "<eos>" not in tokens

    @pytest.mark.parametrize("top", [0, -4])
    def test_top_below_one_rejected(self, top):
        # a negative top would slice off the last words instead
        vocab = self.build_vocab(6)
        emb = np.zeros((len(vocab), 2))
        with pytest.raises(EvaluationError, match="top must be >= 1"):
            cluster_word_embeddings(emb, vocab, top=top, k=1, rng=make_rng(27))

    def test_k_exceeding_words_rejected(self):
        vocab = self.build_vocab(4)
        emb = np.zeros((len(vocab), 2))
        with pytest.raises(EvaluationError):
            cluster_word_embeddings(emb, vocab, top=500, k=9, rng=make_rng(26))
