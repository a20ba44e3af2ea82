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


class RmsPropState:
    """Per-tensor running mean of squared gradients plus step sizes."""

    def __init__(self, learning_rate: float, decay: float, smoothing: float):
        if not 0 < decay < 1:
            raise ValueError("decay must lie in (0, 1)")
        if learning_rate <= 0 or smoothing <= 0:
            raise ValueError("learning_rate and smoothing must be positive")
        self.learning_rate = learning_rate
        self.decay = decay
        self.smoothing = smoothing
        self.mean_square: dict[str, np.ndarray] = {}

    def step(self, name: str, params: np.ndarray, grads: np.ndarray) -> None:
        """Update params in place: ms <- d*ms + (1-d)*g^2; p -= lr*g/sqrt(ms+eps)."""
        if not np.all(np.isfinite(grads)):
            raise NumericError(f"gradient blow-up in {name}")
        ms = self.mean_square.get(name)
        if ms is None:
            ms = np.zeros_like(params)
            self.mean_square[name] = ms
        ms *= self.decay
        ms += (1.0 - self.decay) * grads * grads
        params -= self.learning_rate * grads / np.sqrt(ms + self.smoothing)


def _run_epochs(params, config, batches, step, validate, label: str,
                best_score: float = float("inf")):
    """The early-stopping loop of `train` and `pretrain`, RMSprop included.

    `config` gives epochs, patience, learning_rate, decay and smoothing. Each
    epoch steps the weights with `loss, grads = step(batch)` for every batch
    of `batches()`, then scores `validate()`, lower being better. The weights
    are copied whenever the score beats the best so far (`best_score` at
    first) strictly; more than `patience` epochs without that end the run,
    and so does a non-finite loss, gradient or score, keeping the best weights.
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
                    opt.step(name, getattr(params, name), grad)
                total += loss
                count += 1
            score = validate()
            if not np.isfinite(score):
                raise NumericError(f"validation {label} is {score}")
        except NumericError as exc:
            return best_params, curve, best_epoch, best_score, f"epoch {epoch}: {exc}"
        if score < best_score:
            best_params, best_epoch, best_score, bad_epochs = params.copy(), epoch, score, 0
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


def dropout_scale(keep: np.ndarray, rate: float) -> np.ndarray:
    """The mask of some keep bits: 1/(1-rate) where kept, else 0."""
    return keep.astype(np.float64) / (1.0 - rate)


def dropout_mask(shape, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted dropout mask: entries are 0 with probability rate, else 1/(1-rate).

    Scaling at train time means inference uses the weights unchanged.
    """
    return dropout_scale(dropout_keep(shape, rate, rng), rate)
