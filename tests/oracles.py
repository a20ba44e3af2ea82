"""Reference oracles for the tests: one prediction at a time, written for
clarity rather than speed, so the batched library code can be checked
against them."""

import numpy as np

from storypoint.numerics import log_sigmoid, sigmoid
from storypoint.pretrain import PretrainError


def log_softmax_rows(x):
    x = np.asarray(x, dtype=np.float64)
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def grad_check(f, x: np.ndarray, analytic_grad: np.ndarray, h: float = 1e-5) -> float:
    """Max relative error between analytic_grad and central differences of f.

    f must be a scalar function of x; x is perturbed in place and restored,
    so f may close over the same array.
    """
    if not 1e-6 <= h <= 1e-3:
        raise ValueError("h must lie in [1e-6, 1e-3]")
    flat = x.reshape(-1)
    worst = 0.0
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        numeric = (fp - fm) / (2.0 * h)
        analytic = analytic_grad.reshape(-1)[i]
        denom = max(abs(analytic), abs(numeric), 1e-8)
        worst = max(worst, abs(analytic - numeric) / denom)
    return worst


def next_token_logprob(h: np.ndarray, u: np.ndarray, k: int) -> float:
    """Exact log P(next token = k | state h) under the softmax output layer."""
    if not 0 <= k < u.shape[0]:
        raise PretrainError("token id out of range")
    logits = u @ np.asarray(h, dtype=np.float64)
    return float(log_softmax_rows(logits[None])[0, k])


def nce_loss(h: np.ndarray, u: np.ndarray, target: int, noise_ids,
             noise_dist: np.ndarray):
    """Noise-contrastive loss for one prediction and its sparse gradients.

    Classifies the target against len(noise_ids) sampled noise tokens.
    Returns (loss, d_loss/d_h, {row_id: d_loss/d_u_row}); rows of u outside
    the target and noise sample get no gradient at all.
    """
    h = np.asarray(h, dtype=np.float64)
    noise_ids = np.asarray(noise_ids, dtype=np.int64)
    m = len(noise_ids)
    delta_t = float(u[target] @ h) - float(np.log(m * noise_dist[target]))
    delta_n = u[noise_ids] @ h - np.log(m * noise_dist[noise_ids])
    loss = -float(log_sigmoid(delta_t)) - float(np.sum(log_sigmoid(-delta_n)))
    dd_t = float(sigmoid(delta_t)) - 1.0
    dd_n = sigmoid(delta_n)
    dh = dd_t * u[target] + dd_n @ u[noise_ids]
    du_rows: dict[int, np.ndarray] = {int(target): dd_t * h}
    for j, row in enumerate(noise_ids):
        row = int(row)
        contrib = dd_n[j] * h
        if row in du_rows:
            du_rows[row] = du_rows[row] + contrib
        else:
            du_rows[row] = contrib
    return loss, dh, du_rows
