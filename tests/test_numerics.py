from types import SimpleNamespace

import numpy as np
import pytest

from oracles import grad_check, log_softmax_rows, masked_sigmoid
from storypoint.numerics import (
    NumericError,
    RmsPropState,
    _run_epochs,
    dropout_mask,
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


class _OneWeight:
    """The least params object the epoch loop drives: one tensor, `w`."""

    def __init__(self, w):
        self.w = np.array([w])

    def copy(self):
        return _OneWeight(self.w[0])


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

    def test_non_finite_loss_aborts_before_stepping(self):
        params, _, (best, curve, epoch, _, aborted) = self.run([3.0], loss=np.inf)
        assert aborted == "epoch 1: training loss is inf"
        assert curve == [] and epoch == 0
        assert params.w[0] == 0.0 and best.w[0] == 0.0


class TestDropout:
    def test_rate_zero_gives_ones(self):
        mask = dropout_mask((4, 5), 0.0, make_rng(0))
        np.testing.assert_array_equal(mask, np.ones((4, 5)))

    def test_values_are_zero_or_scaled(self):
        mask = dropout_mask((100,), 0.5, make_rng(1))
        assert set(np.unique(mask)) <= {0.0, 2.0}

    def test_empirical_zero_fraction(self):
        mask = dropout_mask((10**6,), 0.5, make_rng(2))
        zero_fraction = np.mean(mask == 0.0)
        assert abs(zero_fraction - 0.5) < 0.01

    def test_mask_expectation_is_one(self):
        mask = dropout_mask((10**6,), 0.2, make_rng(3))
        assert mask.mean() == pytest.approx(1.0, abs=0.01)

    def test_seed_reproducibility(self):
        m1 = dropout_mask((50, 50), 0.3, make_rng(42))
        m2 = dropout_mask((50, 50), 0.3, make_rng(42))
        np.testing.assert_array_equal(m1, m2)

    def test_rate_one_rejected(self):
        with pytest.raises(ValueError):
            dropout_mask((3,), 1.0, make_rng(0))


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
