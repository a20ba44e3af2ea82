import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import dropout_scale, grad_check, log_softmax_rows, masked_sigmoid
from storypoint.pretrain import PretrainConfig
from storypoint.trainer import TrainConfig
from storypoint.numerics import (
    NumericError,
    RmsPropState,
    _run_epochs,
    dropout_keep,
    log_sigmoid,
    make_rng,
    sigmoid,
)


class TestActivations:
    def test_sigmoid_at_zero(self):
        assert sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)

    def test_softmax_uniform(self):
        out = np.exp(log_softmax_rows(np.array([[0.0, 0.0]])))
        np.testing.assert_allclose(out, [[0.5, 0.5]])

    def test_softmax_rows_sum_to_one_and_positive(self):
        rng = make_rng(1)
        x = rng.normal(scale=50, size=(30, 7))
        out = np.exp(log_softmax_rows(x))
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(out > 0)

    def test_softmax_extreme_inputs_stay_finite(self):
        out = log_softmax_rows(np.array([[1000.0, -1000.0, 0.0]]))
        assert np.all(np.isfinite(out))
        assert out[0, 0] == pytest.approx(0.0)

    def test_sigmoid_saturates_without_overflow(self):
        out = sigmoid(np.array([-800.0, 800.0]))
        assert out[0] == 0.0 and out[1] == 1.0

    def test_sigmoid_matches_masked_halves_bit_for_bit(self):
        x = np.concatenate([np.linspace(-745.0, 745.0, 2_000_001),
                            [0.0, -0.0, np.inf, -np.inf, 800.0, -800.0, np.nan]])
        out, ref = sigmoid(x), masked_sigmoid(x)
        nan = np.isnan(ref)
        np.testing.assert_array_equal(np.isnan(out), nan)
        assert out[~nan].tobytes() == ref[~nan].tobytes()

    def test_log_sigmoid_matches_log_of_sigmoid(self):
        x = np.linspace(-30, 30, 101)
        np.testing.assert_allclose(log_sigmoid(x), np.log(sigmoid(x)), atol=1e-12)


class TestRmsProp:
    def test_zero_gradient_is_identity(self):
        state = RmsPropState(0.01, 0.9, 1e-6)
        params = np.array([1.0, -2.0, 3.0])
        out = params.copy()
        state.step("param", out, np.zeros(3))
        np.testing.assert_array_equal(out, params)

    def test_single_step_hand_oracle(self):
        # ms = 0.9*0 + 0.1*1 = 0.1; delta = -0.01/sqrt(0.1 + 1e-6)
        state = RmsPropState(0.01, 0.9, 1e-6)
        out = np.array([0.0])
        state.step("param", out, np.array([1.0]))
        expected = -0.01 / np.sqrt(0.1 + 1e-6)
        assert out[0] == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(-0.0316, abs=5e-4)

    def test_mean_square_accumulates(self):
        state = RmsPropState(0.01, 0.9, 1e-6)
        p = np.array([0.0])
        for _ in range(3):
            state.step("param", p, np.array([2.0]))
        ms = state.mean_square["param"][0]
        expected = 4.0 * (0.1 + 0.9 * 0.1 + 0.81 * 0.1)
        assert ms == pytest.approx(expected)

    def test_nonfinite_gradient_rejected(self):
        state = RmsPropState(0.01, 0.9, 1e-6)
        with pytest.raises(NumericError, match="gradient blow-up"):
            state.step("param", np.array([0.0]), np.array([np.nan]))

    def test_bad_hyperparameters_rejected(self):
        with pytest.raises(ValueError):
            RmsPropState(0.01, 1.5, 1e-6)
        with pytest.raises(ValueError):
            RmsPropState(-0.01, 0.9, 1e-6)

    @pytest.mark.parametrize("rate", [np.nan, np.inf, -np.inf, 0.0])
    @pytest.mark.parametrize("make", [
        lambda rate: RmsPropState(rate, 0.9, 1e-6),
        lambda rate: TrainConfig(learning_rate=rate),
        lambda rate: PretrainConfig(learning_rate=rate),
    ])
    def test_learning_rate_must_be_finite_and_positive(self, make, rate):
        # a NaN rate passes `rate <= 0`, and training would then abort on
        # its first validation with the initial weights saved
        with pytest.raises(ValueError, match="learning_rate must be finite and positive"):
            make(rate)


class TestRowSparseRmsProp:
    """step_rows against the dense step on the same gradients, bit for bit."""

    V, D = 3000, 4

    def zipf_batches(self, rng, steps):
        """(ids, rows) of `steps` batches, ids Zipf-distributed: the head rows
        come every step, tail rows go unseen for hundreds of steps."""
        for _ in range(steps):
            ids = np.unique(np.minimum(rng.zipf(1.3, size=60), self.V) - 1)
            yield ids, rng.normal(scale=3.0, size=(len(ids), self.D))

    def test_matches_the_dense_step_across_epochs(self):
        rng = make_rng(31)
        start = rng.uniform(-0.05, 0.05, size=(self.V, self.D))
        dense, sparse = start.copy(), start.copy()
        dense_opt, sparse_opt = RmsPropState(0.02, 0.99, 1e-7), RmsPropState(0.02, 0.99, 1e-7)
        epochs, steps = 3, 150
        last_seen, longest_gap = np.full(self.V, -1), 0
        batches = self.zipf_batches(rng, epochs * steps)
        for epoch in range(epochs):
            for step in range(steps):
                ids, rows = next(batches)
                grad = np.zeros_like(dense)
                grad[ids] = rows
                dense_opt.step("emb", dense, grad)
                sparse_opt.step_rows("emb", sparse, ids, rows)
                assert np.array_equal(sparse, dense), (epoch, step)
                assert np.array_equal(sparse_opt.mean_square["emb"],
                                      dense_opt.mean_square["emb"]), (epoch, step)
                now = epoch * steps + step
                seen = ids[last_seen[ids] >= epoch * steps]  # seen earlier this epoch
                if len(seen):
                    longest_gap = max(longest_gap, int((now - last_seen[seen]).max()))
                last_seen[ids] = now
        # rows went unseen for over a hundred steps within an epoch
        assert longest_gap > 100
        assert len(np.unique(last_seen)) > 100

    def test_dense_step_after_row_steps_matches_the_dense_run(self):
        rng = make_rng(32)
        dense, sparse = np.zeros((self.V, self.D)), np.zeros((self.V, self.D))
        dense_opt, sparse_opt = RmsPropState(0.01, 0.9, 1e-6), RmsPropState(0.01, 0.9, 1e-6)
        for ids, rows in self.zipf_batches(rng, 20):
            grad = np.zeros_like(dense)
            grad[ids] = rows
            dense_opt.step("w", dense, grad)
            sparse_opt.step_rows("w", sparse, ids, rows)
        grad = rng.normal(size=dense.shape)
        dense_opt.step("w", dense, grad)
        sparse_opt.step("w", sparse, grad)
        assert np.array_equal(sparse, dense)
        assert np.array_equal(sparse_opt.mean_square["w"], dense_opt.mean_square["w"])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row_raises_before_any_change(self, bad):
        rng = make_rng(33)
        params = rng.normal(size=(50, 3))
        opt = RmsPropState(0.01, 0.9, 1e-6)
        opt.step_rows("lm_u", params, np.array([1, 7]), rng.normal(size=(2, 3)))
        before, ms_before = params.copy(), opt.mean_square["lm_u"].copy()
        rows = rng.normal(size=(3, 3))
        rows[2, 1] = bad
        with pytest.raises(NumericError, match="gradient blow-up in lm_u"):
            opt.step_rows("lm_u", params, np.array([2, 7, 40]), rows)
        assert np.array_equal(params, before)
        assert np.array_equal(opt.mean_square["lm_u"], ms_before)
        # the next step matches a dense run that never saw the failed one
        dense, dense_opt = params.copy(), RmsPropState(0.01, 0.9, 1e-6)
        dense_opt.mean_square["lm_u"] = ms_before.copy()
        rows = rng.normal(size=(1, 3))
        grad = np.zeros_like(dense)
        grad[[40]] = rows
        dense_opt.step("lm_u", dense, grad)
        opt.step_rows("lm_u", params, np.array([40]), rows)
        assert np.array_equal(params, dense)
        assert np.array_equal(opt.mean_square["lm_u"], dense_opt.mean_square["lm_u"])

    @pytest.mark.parametrize("ids", [[3, 3], [4, 2], [1]])
    def test_ids_must_be_strictly_increasing_one_per_row(self, ids):
        opt = RmsPropState(0.01, 0.9, 1e-6)
        params = np.zeros((10, 2))
        with pytest.raises(ValueError, match="strictly increasing"):
            opt.step_rows("emb", params, np.array(ids), np.ones((2, 2)))
        assert not params.any()


class _OneWeight:
    """The least params object the epoch loop drives: one tensor, `w`."""

    def __init__(self, w):
        self.w = np.array(w, dtype=np.float64, ndmin=1)

    def tensors(self):
        return {"w": self.w}

    def copy(self):
        return _OneWeight(self.w)


class TestRunEpochs:
    """The early-stopping policy `train` and `pretrain` share."""

    def run(self, scores, patience=1, best_score=float("inf"), loss=1.0):
        """Two unit-gradient batches an epoch, then the next of `scores`;
        also returns the weight each epoch was scored at."""
        params = _OneWeight(0.0)
        scores, scored_at = iter(scores), []

        def validate():
            scored_at.append(params.w[0])
            return next(scores)

        config = SimpleNamespace(epochs=10, patience=patience, learning_rate=0.01,
                                 decay=0.9, smoothing=1e-6)
        result = _run_epochs(
            params, config, lambda: [None, None], lambda _: (loss, {"w": np.array([1.0])}),
            validate, "score", best_score=best_score,
        )
        return params, scored_at, result

    def test_keeps_the_strictly_best_epoch_and_stops_after_patience(self):
        _, scored_at, (best, curve, epoch, score, aborted) = self.run(
            [3.0, 2.0, 2.0, 2.5, 1.0])
        # epoch 3 ties epoch 2's 2.0, which is no improvement; epoch 4 is the
        # second epoch without one, one more than the patience
        assert curve == [(1, 1.0, 3.0, 3.0), (2, 1.0, 2.0, 2.0), (3, 1.0, 2.0, 2.0),
                         (4, 1.0, 2.5, 2.0)]
        assert (epoch, score, aborted) == (2, 2.0, None)
        assert best.w[0] == scored_at[1] != scored_at[3]

    def test_initial_best_score_must_be_beaten(self):
        _, _, (best, curve, epoch, score, _) = self.run([5.0, 5.0], best_score=4.0)
        assert epoch == 0 and score == 4.0 and len(curve) == 2
        assert best.w[0] == 0.0

    def test_non_finite_score_aborts_with_the_best_weights(self):
        _, scored_at, (best, curve, epoch, score, aborted) = self.run([3.0, np.nan])
        assert aborted == "epoch 2: validation score is nan"
        assert len(curve) == 1 and (epoch, score) == (1, 3.0)
        assert best.w[0] == scored_at[0]

    def test_row_sparse_gradients_step_like_dense_ones(self):
        rng = make_rng(34)
        batches = [(np.unique(rng.integers(0, 30, size=5)), None) for _ in range(4)]
        batches = [(ids, rng.normal(size=(len(ids), 2))) for ids, _ in batches]
        config = SimpleNamespace(epochs=3, patience=5, learning_rate=0.01,
                                 decay=0.9, smoothing=1e-6)
        results = []
        for sparse in (False, True):
            params = _OneWeight(np.zeros((30, 2)))

            def step(batch, sparse=sparse):
                if sparse:
                    return 1.0, {"w": batch}
                grad = np.zeros((30, 2))
                grad[batch[0]] = batch[1]
                return 1.0, {"w": grad}

            best, *_ = _run_epochs(params, config, lambda: batches, step, lambda: 1.0, "score",
                                   best_score=2.0)
            results.append(params.w)
        assert np.array_equal(results[0], results[1])

    def test_an_improving_epoch_copies_into_the_one_best_set(self):
        # no batches; each validation sets the weights in place, then scores them
        params = _OneWeight(np.zeros((400, 50)))
        scores, marks = iter([2.0, 1.0, 5.0]), []

        def validate():
            marks.append(tracemalloc.get_traced_memory())  # (current, peak since the last)
            tracemalloc.reset_peak()
            params.w[...] = len(marks)
            return next(scores)

        config = SimpleNamespace(epochs=3, patience=5, learning_rate=0.01,
                                 decay=0.9, smoothing=1e-6)
        tracemalloc.start()
        try:
            best, _, epoch, *_ = _run_epochs(params, config, lambda: [], None, validate,
                                             "score")
        finally:
            tracemalloc.stop()
        # epochs 1 and 2 improve; their copies fall between two validations
        for (current, _), (_, peak) in zip(marks, marks[1:]):
            assert peak - current < params.w.nbytes
        assert epoch == 2
        assert best.w.tobytes() == np.full((400, 50), 2.0).tobytes()
        assert params.w[0, 0] == 3.0

    def test_non_finite_loss_aborts_before_stepping(self):
        params, _, (best, curve, epoch, _, aborted) = self.run([3.0], loss=np.inf)
        assert aborted == "epoch 1: training loss is inf"
        assert curve == [] and epoch == 0
        assert params.w[0] == 0.0 and best.w[0] == 0.0


class TestDropout:
    def test_rate_zero_gives_ones(self):
        mask = dropout_scale(dropout_keep((4, 5), 0.0, make_rng(0)), 0.0)
        np.testing.assert_array_equal(mask, np.ones((4, 5)))

    def test_values_are_zero_or_scaled(self):
        mask = dropout_scale(dropout_keep((100,), 0.5, make_rng(1)), 0.5)
        assert set(np.unique(mask)) <= {0.0, 2.0}

    def test_empirical_zero_fraction(self):
        mask = dropout_scale(dropout_keep((10**6,), 0.5, make_rng(2)), 0.5)
        zero_fraction = np.mean(mask == 0.0)
        assert abs(zero_fraction - 0.5) < 0.01

    def test_mask_expectation_is_one(self):
        mask = dropout_scale(dropout_keep((10**6,), 0.2, make_rng(3)), 0.2)
        assert mask.mean() == pytest.approx(1.0, abs=0.01)

    def test_seed_reproducibility(self):
        m1 = dropout_scale(dropout_keep((50, 50), 0.3, make_rng(42)), 0.3)
        m2 = dropout_scale(dropout_keep((50, 50), 0.3, make_rng(42)), 0.3)
        np.testing.assert_array_equal(m1, m2)

    def test_rate_one_rejected(self):
        with pytest.raises(ValueError):
            dropout_scale(dropout_keep((3,), 1.0, make_rng(0)), 1.0)


class TestGradCheck:
    def test_quadratic_exact(self):
        x = np.array([3.0])
        err = grad_check(lambda v: float(v[0] ** 2), x, np.array([6.0]), h=1e-4)
        assert err < 1e-6

    def test_doubled_gradient_detected(self):
        x = np.array([3.0])
        err = grad_check(lambda v: float(v[0] ** 2), x, np.array([12.0]), h=1e-4)
        assert err == pytest.approx(0.5, abs=1e-4)

    def test_multivariate(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        grad = np.cos(x)
        err = grad_check(lambda v: float(np.sum(np.sin(v))), x, grad, h=1e-5)
        assert err < 1e-6

    def test_restores_input(self):
        x = np.array([1.0, 2.0])
        grad_check(lambda v: float(v.sum()), x, np.ones(2), h=1e-4)
        np.testing.assert_array_equal(x, [1.0, 2.0])

    def test_h_out_of_range(self):
        with pytest.raises(ValueError):
            grad_check(lambda v: 0.0, np.zeros(1), np.zeros(1), h=1e-2)


class TestRngAndClipping:
    def test_identical_seed_identical_stream(self):
        a = make_rng(99).random(1000)
        b = make_rng(99).random(1000)
        np.testing.assert_array_equal(a, b)
