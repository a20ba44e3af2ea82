"""Numeric substrate for the learning modules.

Everything runs on float64 numpy arrays. Randomness always flows through an
explicitly seeded generator so identical seeds give bit-identical runs.
"""

from __future__ import annotations

import numpy as np


class NumericError(ArithmeticError):
    """Raised when a computation produces non-finite values."""


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; the single entry point for randomness."""
    return np.random.default_rng(seed)


def sigmoid(x):
    """Logistic function, branch-free and without overflow: with
    e = exp(-|x|) it is 1/(1+e) where x >= 0 and e/(1+e) elsewhere, the two
    stable halves with their own operations, so every value is bit for bit
    the one they give, both saturated tails included."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def log_sigmoid(x):
    """log(sigmoid(x)) without overflow for large |x|."""
    x = np.asarray(x, dtype=np.float64)
    return -np.logaddexp(0.0, -x)


def check_learning_rate(learning_rate: float) -> None:
    """Raise ValueError unless the rate is finite and positive: a NaN rate
    passes `<= 0` and would train nothing."""
    if not (np.isfinite(learning_rate) and learning_rate > 0):
        raise ValueError(f"learning_rate must be finite and positive, got {learning_rate!r}")


class RmsPropState:
    """Per-tensor running mean of squared gradients plus step sizes.

    A tensor is stepped densely (`step`) or row-sparsely (`step_rows`), with
    the same bits: every step decays the whole mean square, then only the
    touched rows add their squared gradient and move. Where a dense gradient
    row is zero, the dense step computes ms*decay + 0.0 and p - 0.0, which
    are ms*decay and p as ms >= 0, so after every step of either kind
    `mean_square` and the params hold the dense step's values.
    """

    def __init__(self, learning_rate: float, decay: float, smoothing: float):
        if not 0 < decay < 1:
            raise ValueError("decay must lie in (0, 1)")
        check_learning_rate(learning_rate)
        if smoothing <= 0:
            raise ValueError("smoothing must be positive")
        self.learning_rate = learning_rate
        self.decay = decay
        self.smoothing = smoothing
        self.mean_square: dict[str, np.ndarray] = {}

    def step(self, name: str, params: np.ndarray, grads: np.ndarray) -> None:
        """Update params in place: ms <- d*ms + (1-d)*g^2; p -= lr*g/sqrt(ms+eps)."""
        self._update(name, params, slice(None), grads)

    def step_rows(self, name: str, params: np.ndarray, ids: np.ndarray,
                  rows: np.ndarray) -> None:
        """`step` for a gradient that is zero but for the rows `ids` (strictly
        increasing) of a (V, ...) tensor, given as `rows`."""
        ids = np.asarray(ids)
        if len(ids) != len(rows) or np.any(ids[1:] <= ids[:-1]):
            raise ValueError(f"row ids of {name} must be strictly increasing, one per row")
        self._update(name, params, ids, rows)

    def _update(self, name: str, params: np.ndarray, touched, grads: np.ndarray) -> None:
        """The step of both: `grads` are the gradient rows `touched` (an index
        of the first axis) and the gradient is zero elsewhere."""
        if not np.all(np.isfinite(grads)):
            raise NumericError(f"gradient blow-up in {name}")
        ms = self.mean_square.get(name)
        if ms is None:
            ms = self.mean_square[name] = np.zeros_like(params)
        ms *= self.decay
        block = ms[touched]
        block += (1.0 - self.decay) * grads * grads
        ms[touched] = block
        params[touched] -= self.learning_rate * grads / np.sqrt(block + self.smoothing)


def _run_epochs(params, config, batches, step, validate, label: str,
                best_score: float = float("inf")):
    """The early-stopping loop of `train` and `pretrain`, RMSprop included.

    `config` gives epochs, patience, learning_rate, decay and smoothing. Each
    epoch steps the weights with `loss, grads = step(batch)` for every batch
    of `batches()` (a gradient is a dense array, or row-sparse (ids, rows)
    for RmsPropState.step_rows), then
    scores `validate()`, lower being better. The weights are copied into
    the one best-weights set whenever the score beats the best so far
    (`best_score` at first) strictly; more than `patience` epochs without
    that end the run, and so does a non-finite loss, gradient or score,
    keeping the best weights.
    Returns (best weights, curve rows (epoch, mean train loss, score, best
    score), best epoch, best score, abort reason "epoch N: ..." or None).
    """
    opt = RmsPropState(config.learning_rate, config.decay, config.smoothing)
    best_params, best_epoch, bad_epochs, curve = params.copy(), 0, 0, []
    for epoch in range(1, config.epochs + 1):
        total, count = 0.0, 0
        try:
            for batch in batches():
                loss, grads = step(batch)
                if not np.isfinite(loss):
                    raise NumericError(f"training loss is {loss}")
                for name, grad in grads.items():
                    if isinstance(grad, tuple):  # row-sparse: (ids, rows)
                        opt.step_rows(name, getattr(params, name), *grad)
                    else:
                        opt.step(name, getattr(params, name), grad)
                total += loss
                count += 1
            score = validate()
            if not np.isfinite(score):
                raise NumericError(f"validation {label} is {score}")
        except NumericError as exc:
            return best_params, curve, best_epoch, best_score, f"epoch {epoch}: {exc}"
        if score < best_score:
            for name, best in best_params.tensors().items():
                np.copyto(best, getattr(params, name))
            best_epoch, best_score, bad_epochs = epoch, score, 0
        else:
            bad_epochs += 1
        curve.append((epoch, total / max(count, 1), score, best_score))
        if bad_epochs > config.patience:
            break
    return best_params, curve, best_epoch, best_score, None


def dropout_keep(shape, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Keep bits of an inverted-dropout mask: each entry True with
    probability 1 - rate. Rate 0 keeps everything and draws nothing."""
    if not 0 <= rate < 1:
        raise ValueError("dropout rate must lie in [0, 1)")
    if rate == 0:
        return np.ones(shape, dtype=bool)
    return rng.random(shape) >= rate
