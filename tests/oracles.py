"""Reference oracles for the tests: one prediction at a time, written for
clarity rather than speed, so the batched library code can be checked
against them."""

import unicodedata
from dataclasses import fields

import numpy as np

from storypoint.baselines import _tree_walk
from storypoint.corpus import EOS_TOKEN
from storypoint.model import (DropoutMasks, ModelParams, _highway_backward, _highway_forward,
                              _lstm_forward, _run_shards, embed, pad_batch)
from storypoint.numerics import dropout_keep, log_sigmoid, sigmoid
from storypoint.parallel import shard_bounds
from storypoint.pretrain import PretrainError


def masked_sigmoid(x):
    """The logistic function evaluated as two masked halves: 1/(1+exp(-x))
    where x >= 0 and exp(x)/(1+exp(x)) elsewhere."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class ArrayInputs:
    """LSTM inputs given as a (B, T, d) array, with the at(t) and mask of
    the encoder's own inputs, so the cores can run on any x."""

    def __init__(self, x, mask=None):
        self.x = x
        self.mask = np.ones(x.shape[:2]) if mask is None else mask

    def at(self, t=None):
        return self.x if t is None else self.x[:, t]


def run_lstm(x, params, forward=None, mask=None):
    """Run an LSTM core (model._lstm_forward by default) over the array x
    (B, T, d); returns the states (B, T, d), the cache and the inputs."""
    inputs = ArrayInputs(x, mask)
    states = np.empty(x.shape)

    def emit(t, h):
        states[:, t] = h

    cache = (forward or _lstm_forward)(inputs, params, emit)
    return states, cache, inputs


def lstm_forward_steps(inputs, params, emit):
    """The LSTM one step at a time, each gate on its own slice, each step's
    input made by inputs.at(t) and projected on its own, keeping per-step
    lists of every intermediate; hands each h_t to emit(t, h_t)."""
    (batch, steps), d = inputs.mask.shape, params.dim
    gi, gf, go, gc = (slice(k * d, (k + 1) * d) for k in range(4))
    h = np.zeros((batch, d))
    c = np.zeros((batch, d))
    cache = {"i": [], "f": [], "o": [], "g": [], "c": [], "tc": [], "h_prev": []}
    for t in range(steps):
        pre = inputs.at(t) @ params.lstm_wx + h @ params.lstm_wh + params.lstm_b
        i_t = masked_sigmoid(pre[:, gi])
        f_t = masked_sigmoid(pre[:, gf])
        o_t = masked_sigmoid(pre[:, go])
        g_t = np.tanh(pre[:, gc])
        cache["h_prev"].append(h)
        c = f_t * c + i_t * g_t
        tc = np.tanh(c)
        h = o_t * tc
        emit(t, h)
        for key, val in (("i", i_t), ("f", f_t), ("o", o_t), ("g", g_t), ("c", c), ("tc", tc)):
            cache[key].append(val)
    return cache


def lstm_backward_steps(d_state, cache, inputs, params, grads):
    """Backprop through time for lstm_forward_steps, one step at a time,
    given d_state(t), the gradient w.r.t. h_t; returns the gradient w.r.t.
    the inputs, time-major (T, B, d) as the core returns it."""
    mask = inputs.mask
    (batch, steps), d = mask.shape, params.dim
    gi, gf, go, gc = (slice(k * d, (k + 1) * d) for k in range(4))
    dx = np.zeros((steps, batch, d))
    dh_next = np.zeros((batch, d))
    dc_next = np.zeros((batch, d))
    for t in range(steps - 1, -1, -1):
        i_t, f_t, o_t, g_t = cache["i"][t], cache["f"][t], cache["o"][t], cache["g"][t]
        tc = cache["tc"][t]
        c_prev = cache["c"][t - 1] if t > 0 else np.zeros((batch, d))
        dh = d_state(t) + dh_next
        dc = dc_next + dh * o_t * (1.0 - tc * tc)
        dpre = np.empty((batch, 4 * d))
        dpre[:, gi] = dc * g_t * i_t * (1.0 - i_t)
        dpre[:, gf] = dc * c_prev * f_t * (1.0 - f_t)
        dpre[:, go] = dh * tc * o_t * (1.0 - o_t)
        dpre[:, gc] = dc * i_t * (1.0 - g_t * g_t)
        dpre *= mask[:, t : t + 1]
        grads["lstm_wx"] += inputs.at(t).T @ dpre
        grads["lstm_wh"] += cache["h_prev"][t].T @ dpre
        grads["lstm_b"] += dpre.sum(axis=0)
        dx[t] = dpre @ params.lstm_wx.T
        dh_next = dpre @ params.lstm_wh.T
        dc_next = dc * f_t
    return dx


def initial_draws(vocab_size, d, rng):
    """Every initial tensor, the pre-training head lm_u last, each drawn
    Uniform(-0.05, 0.05) straight after the one before: the stream that
    init_params, which skips the head's draws, and init_language_model,
    which goes back for them, must keep between them."""
    shapes = {"emb": (vocab_size, d), "lstm_wx": (d, 4 * d), "lstm_wh": (d, 4 * d),
              "lstm_b": (4 * d,), "hw_gate_w": (d, d), "hw_gate_b": (d,), "hw_trans_w": (d, d),
              "hw_trans_b": (d,), "reg_w": (d,), "reg_b": (1,), "lm_u": (vocab_size, d)}
    return {name: rng.uniform(-0.05, 0.05, shape) for name, shape in shapes.items()}


def whole_array_dropout_masks(batch, steps, config, rng):
    """make_dropout_masks drawing each mask as one whole float array."""
    d = config.embedding_dim
    return DropoutMasks(
        lstm_in=np.packbits(dropout_keep((batch, steps, d), config.dropout_lstm, rng), axis=-1),
        lstm_out=np.packbits(dropout_keep((batch, steps, d), config.dropout_lstm, rng), axis=-1),
        highway=np.packbits(dropout_keep((batch, d), config.dropout_highway, rng), axis=-1),
    )


def dropout_scale(keep, rate):
    """The float mask of some keep bits: 1/(1-rate) where kept, else 0."""
    return keep.astype(np.float64) / (1.0 - rate)


def masked_loss_and_grads(sequences, targets, params, config, masks):
    """batch_loss_and_grads(..., masks=masks, emb_rows=True) with float
    dropout masks: each shard unpacks its keep bits into dropout_scale
    masks and multiplies them in out of place, and the per-step LSTM above
    keeps tanh(c). The shards are those of shard_bounds, summed in the same
    order, so the bits are comparable."""
    batch = len(sequences)
    y = np.asarray(targets, dtype=np.float64)
    tasks = [(sequences[a:b], y[a:b], batch, masks.rows(a, b))
             for a, b in shard_bounds([len(s) for s in sequences])]
    loss, grads, results = _run_shards(_masked_shard, tasks, params, config)
    return loss / batch, np.concatenate([result[1] for result in results]), grads


def _masked_shard(params, config, sequences, targets, batch_size, keep):
    ids, mask = pad_batch(sequences)
    steps, d = ids.shape[1], config.embedding_dim
    lstm_in, lstm_out = (
        dropout_scale(np.unpackbits(bits[:, :steps], axis=-1, count=d).view(bool),
                      config.dropout_lstm) for bits in (keep.lstm_in, keep.lstm_out))
    highway = dropout_scale(np.unpackbits(keep.highway, axis=-1, count=d).view(bool),
                            config.dropout_highway)
    x = embed(ids, params.emb) * mask[:, :, None] * lstm_in
    states, lstm_cache, inputs = run_lstm(x, params, lstm_forward_steps, mask)
    consumed = states * lstm_out
    lengths = mask.sum(axis=1)
    pooled = (consumed * mask[:, :, None]).sum(axis=1) / lengths[:, None]
    deep, hw_cache = _highway_forward(pooled, params, config.highway_depth)
    deep_out = deep * highway
    yhat = deep_out @ params.reg_w + params.reg_b[0]
    diff = yhat - targets
    dyhat = 2.0 * diff / batch_size
    grads = {field.name: np.zeros_like(getattr(params, field.name))
             for field in fields(ModelParams) if field.name != "emb"}
    grads["reg_w"] += deep_out.T @ dyhat
    grads["reg_b"] += dyhat.sum(keepdims=True)
    d_deep = dyhat[:, None] * params.reg_w[None, :] * highway
    d_pooled = _highway_backward(d_deep, hw_cache, params, grads)
    d_states = d_pooled[:, None, :] * (mask / lengths[:, None])[:, :, None] * lstm_out
    dx = lstm_backward_steps(lambda t: d_states[:, t], lstm_cache, inputs, params,
                             grads).transpose(1, 0, 2) * lstm_in
    dx *= mask[:, :, None]
    ids, inverse = np.unique(ids, return_inverse=True)
    rows = np.zeros((len(ids), d))
    np.add.at(rows, inverse.reshape(-1), dx.reshape(-1, d))
    return float(np.sum(diff * diff)), yhat, {"emb": (ids, rows), **grads}


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


def densified(grads, params):
    """A gradient dict with each row-sparse (ids, rows) entry scattered into
    a zero array of its tensor's shape: the dense form it stands for."""
    out = {}
    for name, grad in grads.items():
        if isinstance(grad, tuple):
            ids, rows = grad
            grad = np.zeros_like(getattr(params, name))
            grad[ids] = rows
        out[name] = grad
    return out


def reference_tokenize(text: str) -> list[str]:
    """Word-mode tokenize with every word's edges checked by unicodedata:
    lowercase, split on whitespace, strip P* characters off both ends of
    each word, drop words left empty, append the sentinel."""
    tokens = []
    for word in text.lower().split():
        start, end = 0, len(word)
        while start < end and unicodedata.category(word[start]).startswith("P"):
            start += 1
        while end > start and unicodedata.category(word[end - 1]).startswith("P"):
            end -= 1
        if start < end:
            tokens.append(word[start:end])
    return tokens + [EOS_TOKEN]


def tree_height(tree: list[tuple]) -> int:
    """Depth of the deepest record of a tree of preorder records; 0 for a
    lone leaf."""
    return max(_tree_walk(tree)[0])
