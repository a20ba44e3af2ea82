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
    the same bits. Where a dense gradient row is zero, the dense step
    computes ms*decay + 0.0 and p - 0.0: only the decay of ms changes
    anything. The row-sparse step defers those decays and replays them, one
    multiply per skipped step, when a row is next touched or at `catch_up`.
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
        # row-sparse tensors: (steps taken, per row the step its ms is decayed to)
        self._lazy: dict[str, tuple[int, np.ndarray]] = {}

    def _mean_square(self, name: str, params: np.ndarray) -> np.ndarray:
        ms = self.mean_square.get(name)
        if ms is None:
            ms = np.zeros_like(params)
            self.mean_square[name] = ms
        return ms

    def step(self, name: str, params: np.ndarray, grads: np.ndarray) -> None:
        """Update params in place: ms <- d*ms + (1-d)*g^2; p -= lr*g/sqrt(ms+eps)."""
        if not np.all(np.isfinite(grads)):
            raise NumericError(f"gradient blow-up in {name}")
        if name in self._lazy:
            self.catch_up(name)
        ms = self._mean_square(name, params)
        ms *= self.decay
        ms += (1.0 - self.decay) * grads * grads
        params -= self.learning_rate * grads / np.sqrt(ms + self.smoothing)

    def step_rows(self, name: str, params: np.ndarray, ids: np.ndarray,
                  rows: np.ndarray) -> None:
        """`step` for a gradient that is zero but for the rows `ids` (strictly
        increasing) of a (V, ...) tensor, given as `rows`; the other rows'
        decays wait for their next touch or `catch_up`. Params are always
        those of the dense step, mean squares once caught up."""
        if not np.all(np.isfinite(rows)):
            raise NumericError(f"gradient blow-up in {name}")
        ids = np.asarray(ids)
        if len(ids) != len(rows) or np.any(ids[1:] <= ids[:-1]):
            raise ValueError(f"row ids of {name} must be strictly increasing, one per row")
        steps, decayed_to = self._lazy.get(name, (0, None))
        if decayed_to is None:
            decayed_to = np.zeros(len(params), dtype=np.int64)
        order = np.argsort(decayed_to[ids], kind="stable")  # most decays owed first
        ids, rows = ids[order], rows[order]
        steps += 1
        self._lazy[name] = (steps, decayed_to)
        ms = self._mean_square(name, params)
        block = self._decayed(ms, ids, steps - decayed_to[ids])
        block += (1.0 - self.decay) * rows * rows
        ms[ids] = block
        decayed_to[ids] = steps
        params[ids] -= self.learning_rate * rows / np.sqrt(block + self.smoothing)

    def catch_up(self, name: str | None = None) -> None:
        """Replay the decays the row-sparse steps of `name` (of every tensor
        when None) still owe, so mean_square holds the dense step's values.
        Bounds the replay: no row owes more decays than steps since this."""
        for key in [name] if name is not None else list(self._lazy):
            steps, decayed_to = self._lazy.pop(key, (0, None))
            if decayed_to is None:
                continue
            ids = np.flatnonzero(decayed_to < steps)
            ids = ids[np.argsort(decayed_to[ids], kind="stable")]
            ms = self.mean_square[key]
            ms[ids] = self._decayed(ms, ids, steps - decayed_to[ids])

    def _decayed(self, ms: np.ndarray, ids: np.ndarray, owed: np.ndarray) -> np.ndarray:
        """ms[ids] with row i multiplied by decay owed[i] times, rounding after
        every multiply as the dense steps do; owed must be non-increasing."""
        block = ms[ids]
        rising = -owed
        for k in range(owed[0] if len(owed) else 0):
            block[: np.searchsorted(rising, -k)] *= self.decay  # the rows owing > k
        return block


def _run_epochs(params, config, batches, step, validate, label: str,
                best_score: float = float("inf")):
    """The early-stopping loop of `train` and `pretrain`, RMSprop included.

    `config` gives epochs, patience, learning_rate, decay and smoothing. Each
    epoch steps the weights with `loss, grads = step(batch)` for every batch
    of `batches()` (a gradient is a dense array, or row-sparse (ids, rows)
    for RmsPropState.step_rows), catches the row-sparse tensors up, then
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
            opt.catch_up()
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
