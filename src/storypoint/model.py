"""Recurrent story-point regressor.

The network embeds the issue text, runs an LSTM over the token sequence,
mean-pools the output states into a document vector, refines that vector
with a stack of gated highway layers sharing one parameter set, and reads
the estimate off a linear regressor. Gradients are derived by hand;
tests/test_model.py checks every tensor against central differences.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .numerics import NumericError, dropout_keep, sigmoid
from .parallel import Pool, area_batches, run, shard_bounds

CHECKPOINT_MAGIC = b"SPCKPT01"

INIT_SCALE = 0.05

# Padded area, rows times longest sequence, of one inference batch. The
# (T, B, 4d) gate buffer of a batch is then at most 32 * d * 4096 bytes,
# 6.5 MB at d = 50, whatever the batch's lengths.
INFERENCE_ROW_STEPS = 4096


class ModelError(ValueError):
    """Raised for malformed checkpoints or mismatched shapes."""


@dataclass
class ModelConfig:
    embedding_dim: int = 50
    highway_depth: int = 10
    dropout_lstm: float = 0.2
    dropout_highway: float = 0.5

    def __post_init__(self):
        if self.embedding_dim < 1:
            raise ValueError("embedding_dim must be >= 1")
        if self.highway_depth < 1:
            raise ValueError("highway_depth must be >= 1")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "ModelConfig":
        # older checkpoints also name the tokenizer mode, which their
        # vocabulary hash already fixes
        return cls(**{key: value for key, value in obj.items() if key != "tokenizer_mode"})


@dataclass
class ModelParams:
    """All learnable tensors. Hidden widths equal the embedding width."""

    emb: np.ndarray        # (V, d) token embeddings
    lstm_wx: np.ndarray    # (d, 4d) input maps, gate order input/forget/output/candidate
    lstm_wh: np.ndarray    # (d, 4d) recurrent maps
    lstm_b: np.ndarray     # (4d,)
    hw_gate_w: np.ndarray  # (d, d) highway gate
    hw_gate_b: np.ndarray  # (d,)
    hw_trans_w: np.ndarray # (d, d) highway transform
    hw_trans_b: np.ndarray # (d,)
    reg_w: np.ndarray      # (d,)
    reg_b: np.ndarray      # (1,)

    def tensors(self) -> dict[str, np.ndarray]:
        """Every tensor by name, in field order."""
        return {field.name: getattr(self, field.name) for field in fields(self)}

    @property
    def vocab_size(self) -> int:
        return self.emb.shape[0]

    @property
    def dim(self) -> int:
        return self.emb.shape[1]

    def copy(self) -> "ModelParams":
        return type(self)(**{k: v.copy() for k, v in self.tensors().items()})


def expected_shapes(vocab_size: int, d: int) -> dict[str, tuple]:
    return {
        "emb": (vocab_size, d),
        "lstm_wx": (d, 4 * d),
        "lstm_wh": (d, 4 * d),
        "lstm_b": (4 * d,),
        "hw_gate_w": (d, d),
        "hw_gate_b": (d,),
        "hw_trans_w": (d, d),
        "hw_trans_b": (d,),
        "reg_w": (d,),
        "reg_b": (1,),
    }


def init_params(vocab_size: int, config: ModelConfig, rng: np.random.Generator) -> ModelParams:
    """Uniform(-0.05, 0.05) initialization for every tensor, in field order.

    The generator then skips the V*d draws of a (V, d) tensor, where the
    pre-training head is drawn (pretrain.init_language_model). So whatever
    is drawn next, such as the dropout masks of training, comes from the
    same place in the stream with or without the head."""
    shapes = expected_shapes(vocab_size, config.embedding_dim)
    params = ModelParams(
        **{k: rng.uniform(-INIT_SCALE, INIT_SCALE, s) for k, s in shapes.items()}
    )
    rng.bit_generator.advance(vocab_size * config.embedding_dim)
    return params


def zero_params(vocab_size: int, config: ModelConfig) -> ModelParams:
    shapes = expected_shapes(vocab_size, config.embedding_dim)
    return ModelParams(**{k: np.zeros(s) for k, s in shapes.items()})


def embed(token_ids, emb: np.ndarray) -> np.ndarray:
    """Look up embedding rows. Callers map out-of-vocabulary ids to unk first."""
    ids = np.asarray(token_ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= emb.shape[0]):
        raise ModelError("id out of range")
    return emb[ids]


@dataclass
class DropoutMasks:
    """Fixed dropout masks so forward and backward see the same pattern,
    as the keep bits they are made from, packed eight to a byte along the
    last axis: a sixty-fourth of the bytes of float masks to send to a
    worker. for_steps unpacks them."""

    lstm_in: np.ndarray   # (B, T, ceil(d / 8))
    lstm_out: np.ndarray  # (B, T, ceil(d / 8))
    highway: np.ndarray   # (B, ceil(d / 8))

    def rows(self, start: int, stop: int) -> "DropoutMasks":
        return DropoutMasks(self.lstm_in[start:stop], self.lstm_out[start:stop],
                            self.highway[start:stop])

    def for_steps(self, mask: np.ndarray, config: ModelConfig) -> "KeepBits":
        """The keep bits of a padded batch with this (B, T) 0/1 mask,
        unpacked, the LSTM's cleared at padding, with the scales
        1 / (1 - rate)."""
        d, steps = config.embedding_dim, mask.shape[1]
        lstm_in, lstm_out, highway = (
            np.unpackbits(bits, axis=-1, count=d).view(bool)
            for bits in (self.lstm_in[:, :steps], self.lstm_out[:, :steps], self.highway))
        live = mask[:, :, None] > 0
        lstm_in &= live
        lstm_out &= live
        return KeepBits(lstm_in, lstm_out, highway, 1.0 / (1.0 - config.dropout_lstm),
                        1.0 / (1.0 - config.dropout_highway))


@dataclass
class KeepBits:
    """A shard's dropout keep bits, one bool per cell, and the scales of
    inverted dropout. _drop applies them to an array in place, so no float
    mask as large as the array is ever made. The LSTM's bits are cleared
    at padding, so one multiply applies the mask and the dropout."""

    lstm_in: np.ndarray   # (B, T, d) bool
    lstm_out: np.ndarray  # (B, T, d) bool
    highway: np.ndarray   # (B, d) bool
    lstm_scale: float     # 1 / (1 - dropout_lstm)
    highway_scale: float  # 1 / (1 - dropout_highway)


def _drop(a: np.ndarray, keep: np.ndarray, scale: float,
          out: np.ndarray | None = None) -> np.ndarray:
    """Mask a with keep bits and their scale, in place or into `out`, and
    return the result. The bits are those of a times the float mask
    keep / (1 - rate): a kept cell is a * scale, a dropped one a * 0.0 (a
    signed zero, or NaN for inf and NaN). A scale of 1.0 is not multiplied
    in: it changes no bit."""
    out = np.multiply(a, keep, out=a if out is None else out)
    if scale != 1.0:
        out *= scale
    return out


def _packed_keep(shape: tuple, rate: float, rng: np.random.Generator) -> np.ndarray:
    """dropout_keep(shape, rate, rng) packed along the last axis, drawn
    INFERENCE_ROW_STEPS rows of the last axis at a time: the same stream in
    the same order, so the same bits and the same next draw, with no
    float array larger than a block."""
    d = shape[-1]
    rows = math.prod(shape[:-1])
    packed = np.empty((rows, -(-d // 8)), dtype=np.uint8)
    for start in range(0, rows, INFERENCE_ROW_STEPS):
        stop = min(start + INFERENCE_ROW_STEPS, rows)
        packed[start:stop] = np.packbits(dropout_keep((stop - start, d), rate, rng), axis=-1)
    return packed.reshape(*shape[:-1], packed.shape[1])


def make_dropout_masks(batch: int, steps: int, config: ModelConfig,
                       rng: np.random.Generator) -> DropoutMasks:
    """Keep bits of a batch's three dropout masks, drawn in a fixed order
    and packed along the last axis."""
    d = config.embedding_dim
    return DropoutMasks(
        lstm_in=_packed_keep((batch, steps, d), config.dropout_lstm, rng),
        lstm_out=_packed_keep((batch, steps, d), config.dropout_lstm, rng),
        highway=_packed_keep((batch, d), config.dropout_highway, rng),
    )


def pad_batch(sequences: list[list[int]], pad_id: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Stack variable-length id lists into (ids, mask) arrays."""
    if not sequences:
        raise ModelError("empty batch")
    if any(len(s) == 0 for s in sequences):
        raise ModelError("empty token sequence in batch")
    steps = max(len(s) for s in sequences)
    ids = np.full((len(sequences), steps), pad_id, dtype=np.int64)
    mask = np.zeros((len(sequences), steps), dtype=np.float64)
    for i, seq in enumerate(sequences):
        ids[i, : len(seq)] = seq
        mask[i, : len(seq)] = 1.0
    return ids, mask


def length_batches(lengths, batch_size: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Group indices of similar length into training batches of at most
    batch_size. The indices are shuffled before the stable sort, so ties
    keep the shuffled order, and the batch order is shuffled too: epochs
    differ while padding waste stays low."""
    lengths = np.asarray(lengths)
    order = rng.permutation(len(lengths))
    order = order[np.argsort(lengths[order], kind="stable")]
    batches = np.split(order, range(batch_size, len(order), batch_size)) if len(order) else []
    return [batches[i] for i in rng.permutation(len(batches))]


@dataclass
class _LstmInputs:
    """The LSTM inputs of a padded batch, kept as what makes them instead
    of as a (B, T, d) array: the embedding rows of ids times keep bits (the
    0/1 mask, or dropout bits cleared at padding) and their scale. at(t)
    makes one step with the multiplies of the whole array, so its bits are
    those of the whole array's step t."""

    ids: np.ndarray   # (B, T)
    mask: np.ndarray  # (B, T) 0/1
    emb: np.ndarray   # (V, d)
    keep: np.ndarray  # (B, T, d) or (B, T, 1) bool
    scale: float

    def at(self, t: int | None = None) -> np.ndarray:
        """The inputs of step t (B, d), or of every step (B, T, d) when t
        is None; only the latter checks the ids."""
        if t is None:
            return _drop(embed(self.ids, self.emb), self.keep, self.scale)
        return _drop(self.emb[self.ids[:, t]], self.keep[:, t], self.scale)


def _lstm_forward(inputs: _LstmInputs, params: ModelParams, emit) -> dict:
    """Run the LSTM over the inputs, handing each output state h_t (B, d)
    to emit(t, h_t) in t order; returns the cache _lstm_backward needs.
    h_t lives in one buffer that the next step overwrites, so emit copies
    what it keeps.

    The work is time-major. One stacked matmul writes the input projection
    of every step into a (T, B, 4d) gate buffer, and the inputs are then
    released: the backward pass rebuilds each step's. Each step adds its
    recurrent term and bias to its slot, rounding exactly as
    x_t @ W_x + h @ W_h + b, and then refills the slot with the gate
    activations as four contiguous (B, d) blocks, input/forget/output/
    candidate, so the elementwise work runs on contiguous memory. Cell
    states go to a (T, B, d) array, the cache with the gate buffer; tanh(c_t)
    and h_t go to (B, d) buffers, which the backward pass recomputes from
    the same cell states and output gates.
    """
    x = inputs.at()
    batch, steps, d = x.shape
    gates = np.matmul(x.transpose(1, 0, 2), params.lstm_wx)
    del x
    cells = np.empty((steps, batch, d))
    pre = np.empty((4, batch, d))
    tanh_c = np.empty((batch, d))
    h = np.zeros((batch, d))
    c = np.zeros((batch, d))
    for t in range(steps):
        g = gates[t]
        g += h @ params.lstm_wh
        g += params.lstm_b
        pre[...] = g.reshape(batch, 4, d).transpose(1, 0, 2)
        act = g.reshape(4, batch, d)
        act[:3] = sigmoid(pre[:3])
        np.tanh(pre[3], out=act[3])
        c = np.multiply(act[1], c, out=cells[t])
        c += act[0] * act[3]
        np.multiply(act[2], np.tanh(c, out=tanh_c), out=h)
        emit(t, h)
    return {"gates": gates, "c": cells}


def _lstm_backward(d_state, cache: dict, inputs: _LstmInputs, params: ModelParams,
                   grads: dict[str, np.ndarray]) -> np.ndarray:
    """Backprop through time, given d_state(t), the gradient w.r.t. the
    output state h_t (B, d), which may be overwritten once used. Returns
    the gradient w.r.t. the inputs, time-major (T, B, d).

    Each step takes tanh(c_t) from the step before it in this loop, and
    recomputes tanh(c_{t-1}) and h_{t-1} = o_{t-1} * tanh(c_{t-1}) from the
    cached cell states and output gates, and its input x_t from `inputs`:
    the same operations on the same values, so the same bits. It then
    overwrites its slot of the gate buffer with the (B, 4d) gradient of the
    gate pre-activations, so the input gradient of all steps is one stacked
    matmul after the loop, one GEMM per step, written over the spent cell
    states. The weight gradients stay one GEMM per step in descending t:
    summed over all B*T rows at once, BLAS splits the reduction by thread
    count and the bits would follow it.
    """
    gates, cells = cache["gates"], cache["c"]
    steps, batch, d = cells.shape
    zeros = np.zeros((batch, d))
    dh_next = zeros
    dc_next = zeros
    dpre = np.empty((4, batch, d))
    tc = np.tanh(cells[steps - 1])
    tc_prev = np.empty((batch, d))
    h_prev = np.empty((batch, d))
    for t in range(steps - 1, -1, -1):
        g = gates[t]
        act = g.reshape(4, batch, d)
        i_t, f_t, o_t, g_t = act
        dh = d_state(t) + dh_next
        dc = dc_next + dh * o_t * (1.0 - tc * tc)
        # sigmoid gates: (upstream * gate) * (1 - gate), one block for all three
        np.multiply(dc, g_t, out=dpre[0])
        np.multiply(dc, cells[t - 1] if t > 0 else zeros, out=dpre[1])
        np.multiply(dh, tc, out=dpre[2])
        dpre[:3] *= act[:3]
        dpre[:3] *= 1.0 - act[:3]
        np.multiply(dc, i_t, out=dpre[3])
        dpre[3] *= 1.0 - g_t * g_t
        dpre *= inputs.mask[:, t][:, None]  # padded steps contribute nothing
        dc_next = dc * f_t  # f_t is a view into g: read it before g is overwritten
        g.reshape(batch, 4, d)[...] = dpre.transpose(1, 0, 2)
        if t > 0:
            np.tanh(cells[t - 1], out=tc_prev)
            np.multiply(gates[t - 1].reshape(4, batch, d)[2], tc_prev, out=h_prev)
        grads["lstm_wx"] += inputs.at(t).T @ g
        grads["lstm_wh"] += (h_prev if t > 0 else zeros).T @ g
        grads["lstm_b"] += g.sum(axis=0)
        dh_next = g @ params.lstm_wh.T
        tc, tc_prev = tc_prev, tc
    return np.matmul(gates, params.lstm_wx.T, out=cells)


def _highway_forward(v: np.ndarray, params: ModelParams, depth: int) -> tuple[np.ndarray, dict]:
    """Apply the shared-parameter gated layer `depth` times to v (B, d)."""
    cache = {"v": [v], "a": [], "s": []}
    for _ in range(depth):
        a = sigmoid(v @ params.hw_gate_w + params.hw_gate_b)
        s = np.tanh(v @ params.hw_trans_w + params.hw_trans_b)
        v = a * v + (1.0 - a) * s
        cache["a"].append(a)
        cache["s"].append(s)
        cache["v"].append(v)
    return v, cache


def _highway_backward(dv: np.ndarray, cache: dict, params: ModelParams,
                      grads: dict[str, np.ndarray]) -> np.ndarray:
    depth = len(cache["a"])
    for l in range(depth - 1, -1, -1):
        v_prev, a, s = cache["v"][l], cache["a"][l], cache["s"][l]
        da = dv * (v_prev - s)
        ds = dv * (1.0 - a)
        dpre_t = ds * (1.0 - s * s)
        dpre_g = da * a * (1.0 - a)
        grads["hw_trans_w"] += v_prev.T @ dpre_t
        grads["hw_trans_b"] += dpre_t.sum(axis=0)
        grads["hw_gate_w"] += v_prev.T @ dpre_g
        grads["hw_gate_b"] += dpre_g.sum(axis=0)
        dv = dv * a + dpre_t @ params.hw_trans_w.T + dpre_g @ params.hw_gate_w.T
    return dv


def encode(ids: np.ndarray, mask: np.ndarray, params: ModelParams,
           masks: KeepBits | None = None, pooled: bool = False) -> tuple[np.ndarray, dict]:
    """Embed a padded batch and run the LSTM over it: the encoder shared by
    the regressor and the language model. Returns the output and the cache
    encode_backward needs. The output is the states, batch-major (B, T, d),
    or with `pooled` their mean over each row's steps (B, d), each state
    times its dropout keep bits first when masks are given.

    Neither the inputs nor, when pooled, the states are kept: the pooled
    sum adds each step's term to a zero (B, d) array in t order, the bits
    of the (B, T, d) terms' sum(axis=1) for d >= 2 (numpy sums a
    (B, T, 1) array pairwise, so at d = 1 the last bits may differ)."""
    if masks is None:
        live = (mask > 0)[:, :, None]
        keep_in, keep_out, scale = live, live, 1.0
    else:
        keep_in, keep_out, scale = masks.lstm_in, masks.lstm_out, masks.lstm_scale
    inputs = _LstmInputs(ids, mask, params.emb, keep_in, scale)
    batch, steps = ids.shape
    if pooled:
        out = np.zeros((batch, params.dim))
        term = np.empty_like(out)

        def emit(t, h):
            np.add(out, _drop(h, keep_out[:, t], scale, out=term), out=out)
    else:
        out = np.empty((batch, steps, params.dim))

        def emit(t, h):
            out[:, t] = h
    lstm_cache = _lstm_forward(inputs, params, emit)
    if pooled:
        out /= mask.sum(axis=1)[:, None]
    return out, {"inputs": inputs, "keep_out": keep_out, "lstm": lstm_cache}


def encode_backward(d_out: np.ndarray, cache: dict, params: ModelParams,
                    grads: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Accumulate the LSTM gradients of d(loss)/d(output) into grads and
    return the embedding gradient row-sparse: the batch's unique ids and a
    (U, d) array of their rows. d_out has the shape of encode's output:
    (B, T, d) per position, or (B, d) for the pooled mean, whose per-step
    gradients are made one step at a time. Each row adds its positions'
    terms in position order from zero, as a scatter into a zero (V, d)
    array would. The input gradient is written over the spent cell
    states, so the cache is used up."""
    inputs, keep_out = cache["inputs"], cache["keep_out"]
    if d_out.ndim == 2:
        weights = inputs.mask / inputs.mask.sum(axis=1)[:, None]
        term = np.empty_like(d_out)

        def d_state(t):
            np.multiply(d_out, weights[:, t, None], out=term)
            return _drop(term, keep_out[:, t], inputs.scale)
    else:
        def d_state(t):
            return d_out[:, t]
    dx = _lstm_backward(d_state, cache["lstm"], inputs, params, grads).transpose(1, 0, 2)
    _drop(dx, inputs.keep, inputs.scale)
    ids, inverse = np.unique(inputs.ids, return_inverse=True)
    return ids, scatter_rows(inverse.reshape(-1), dx, len(ids))


def scatter_rows(index: np.ndarray, terms: np.ndarray, count: int) -> np.ndarray:
    """The (count, d) sums of the rows of terms (..., d), taken in C order,
    by index: row i adds the terms[j] with index[j] == i from zero in j
    order, the bits of np.add.at(np.zeros((count, d)), index, terms). One
    bincount per column, not one index of every cell, which would be as
    large as terms."""
    rows = np.empty((count, terms.shape[-1]))
    for j in range(terms.shape[-1]):
        rows[:, j] = np.bincount(index, weights=terms[..., j].reshape(-1), minlength=count)
    return rows


def batch_forward(ids: np.ndarray, mask: np.ndarray, params: ModelParams,
                  config: ModelConfig, masks: KeepBits | None = None):
    """Forward pass over a padded batch; returns estimates and a cache."""
    pooled, enc_cache = encode(ids, mask, params, masks, pooled=True)
    deep, hw_cache = _highway_forward(pooled, params, config.highway_depth)
    deep_out = deep if masks is None else _drop(deep.copy(), masks.highway,
                                                masks.highway_scale)
    yhat = deep_out @ params.reg_w + params.reg_b[0]
    cache = {"masks": masks, "encoder": enc_cache, "hw": hw_cache, "deep_out": deep_out}
    return yhat, cache


def batch_backward(dyhat: np.ndarray, cache: dict, params: ModelParams):
    """Gradients of a scalar loss given d(loss)/d(yhat) for the cached batch:
    a dict with every ModelParams tensor, emb row-sparse as the (ids, rows)
    of encode_backward. Uses the cache up."""
    grads = {field.name: np.zeros_like(getattr(params, field.name))
             for field in fields(ModelParams) if field.name != "emb"}
    masks = cache["masks"]
    grads["reg_w"] += cache["deep_out"].T @ dyhat
    grads["reg_b"] += dyhat.sum(keepdims=True)
    d_deep = dyhat[:, None] * params.reg_w[None, :]
    if masks is not None:
        _drop(d_deep, masks.highway, masks.highway_scale)
    d_pooled = _highway_backward(d_deep, cache["hw"], params, grads)
    return {"emb": encode_backward(d_pooled, cache["encoder"], params, grads), **grads}


def shard_loss_and_grads(params: ModelParams, config: ModelConfig,
                         sequences: list[list[int]], targets, batch_size: int,
                         masks: DropoutMasks | None = None):
    """Summed squared error, estimates and gradients of one row shard of a
    batch of batch_size rows: the gradients are those of the batch's mean
    squared error through this shard's rows.

    masks holds the shard's rows of the batch's keep bits, over at least as
    many steps as the shard's longest sequence.
    Returns (sse, yhat, grads), grads as batch_backward gives them.
    """
    ids, mask = pad_batch(sequences)
    if masks is not None:
        masks = masks.for_steps(mask, config)
    yhat, cache = batch_forward(ids, mask, params, config, masks)
    diff = yhat - np.asarray(targets, dtype=np.float64)
    with np.errstate(over="ignore"):  # overflow is detected, not a bug
        sse = float(np.sum(diff * diff))
    if not np.isfinite(sse):
        raise NumericError("numeric overflow in forward pass")
    return sse, yhat, batch_backward(2.0 * diff / batch_size, cache, params)


def _sum_rows(parts: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Sum row-sparse gradients (ids, rows), each with unique ids, in the
    given order: the sorted union of the ids and their rows, each row
    adding its parts from zero as scatters into a zero (V, d) array would."""
    ids = np.unique(np.concatenate([part_ids for part_ids, _ in parts]))
    rows = np.zeros((len(ids), parts[0][1].shape[1]))
    for part_ids, part_rows in parts:
        rows[np.searchsorted(ids, part_ids)] += part_rows
    return ids, rows


def sum_shards(parts: list[dict]) -> dict:
    """Sum the gradient dicts of a batch's row shards in shard order: dense
    arrays are added (into the first shard's), row-sparse (ids, rows)
    pairs merged by _sum_rows."""
    grads = {}
    for name, first in parts[0].items():
        if isinstance(first, tuple):
            grads[name] = _sum_rows([part[name] for part in parts])
        else:
            grads[name] = first
            for part in parts[1:]:
                grads[name] += part[name]
    return grads


def _run_shards(fn, tasks: list[tuple], *shared, pool: Pool | None = None):
    """fn(*shared, *task) for the row-shard tasks of one batch, on `pool`
    (created with `shared`) or here. Returns (loss, grads, results): the
    results in shard order, their first items (losses) added in shard
    order from 0.0 and their last items (gradient dicts) summed by
    sum_shards, so the bits do not depend on the process count."""
    results = run(fn, tasks, *shared, pool=pool)
    loss = 0.0
    for result in results:
        loss += result[0]
    return loss, sum_shards([result[-1] for result in results]), results


def batch_loss_and_grads(sequences: list[list[int]], targets, params: ModelParams,
                         config: ModelConfig, masks: DropoutMasks | None = None,
                         pool: Pool | None = None, emb_rows: bool = False):
    """Mean squared-error loss, estimates and gradients over a batch of
    token sequences.

    Pass masks (the keep bits of make_dropout_masks) to train or check
    gradients under a fixed dropout pattern; pass none for the
    inference-mode loss. The batch runs as the row shards of shard_bounds,
    on `pool` (created with (params, config)) or here, and their losses and
    gradients are summed in shard order, so the bits do not depend on the
    process count. grads["emb"] is a dense (V, d) array, or with emb_rows
    row-sparse, the (ids, rows) that RmsPropState.step_rows takes.
    """
    if not sequences:
        raise ModelError("empty batch")
    batch = len(sequences)
    y = np.asarray(targets, dtype=np.float64)
    tasks = [(sequences[a:b], y[a:b], batch, None if masks is None else masks.rows(a, b))
             for a, b in shard_bounds([len(s) for s in sequences])]
    loss, grads, results = _run_shards(shard_loss_and_grads, tasks, params, config, pool=pool)
    if not np.isfinite(loss):
        raise NumericError("numeric overflow in forward pass")
    if not emb_rows:
        ids, rows = grads["emb"]
        grads["emb"] = np.zeros_like(params.emb)
        grads["emb"][ids] = rows
    yhat = np.concatenate([result[1] for result in results])
    return loss / batch, yhat, grads


def inference_batches(lengths) -> list[np.ndarray]:
    """Indices of sequences with these lengths cut into the area_batches of
    padded area rows * longest <= INFERENCE_ROW_STEPS: ascending length,
    depending on the lengths alone."""
    return area_batches(lengths, INFERENCE_ROW_STEPS)


def _length_batch_rows(fn, sequences: list[list[int]], out: np.ndarray,
                       *shared, pool: Pool | None = None) -> np.ndarray:
    """Fill out with fn(*shared, batch) over the inference_batches of
    sequences, on `pool` (created with `shared`) or here, each batch's rows
    scattered back to input order. Each batch is computed whole, so the
    bits do not depend on the process count."""
    batches = inference_batches([len(s) for s in sequences])
    results = run(fn, [([sequences[i] for i in idx],) for idx in batches], *shared, pool=pool)
    for idx, rows in zip(batches, results):
        out[idx] = rows
    return out


def document_vectors(sequences: list[list[int]], params: ModelParams,
                     pool: Pool | None = None) -> np.ndarray:
    """Mean-pooled LSTM output states per sequence: the frozen text features
    consumed by external regressors instead of the highway/regressor head.
    Inference batches go to `pool` (one created with params) or run here."""
    return _length_batch_rows(_vector_batch, sequences,
                              np.empty((len(sequences), params.dim)), params, pool=pool)


def _vector_batch(params: ModelParams, sequences: list[list[int]]) -> np.ndarray:
    return encode(*pad_batch(sequences), params, pooled=True)[0]


# ---------------------------------------------------------------------------
# Checkpoint container: magic, u64 header length, JSON header, raw tensors.
# Plain little-endian float64 payloads keep the bytes reproducible.
# ---------------------------------------------------------------------------

# The encoder a pre-training checkpoint holds and `train --pretrained`
# starts from. pretrain also writes its softmax head lm_u there, which no
# ModelParams holds; a model checkpoint holds every ModelParams tensor.
PRETRAIN_TENSORS = ("emb", "lstm_wx", "lstm_wh", "lstm_b")


@dataclass
class Checkpoint:
    kind: str  # "model" or "pretrain"
    config: ModelConfig
    vocab_hash: str
    tensors: dict[str, np.ndarray]

    def to_params(self) -> ModelParams:
        """The checkpoint's ModelParams: tensors it lacks (the highway and
        regressor of a pre-training checkpoint) are zeros, and a head lm_u,
        not a ModelParams tensor, is left out."""
        params = zero_params(self.tensors["emb"].shape[0], self.config)
        for name, tensor in params.tensors().items():
            if name in self.tensors:
                tensor[...] = self.tensors[name]
        return params


def save_checkpoint(path: str | Path, kind: str, config: ModelConfig, vocab_hash: str,
                    tensors: dict[str, np.ndarray]) -> None:
    names = sorted(tensors)
    header = {
        "kind": kind,
        "config": config.to_dict(),
        "vocab_hash": vocab_hash,
        "tensors": [{"name": n, "shape": list(tensors[n].shape)} for n in names],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with Path(path).open("wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(len(blob).to_bytes(8, "big"))
        fh.write(blob)
        for name in names:
            fh.write(np.ascontiguousarray(tensors[name], dtype="<f8").tobytes())


def load_checkpoint(path: str | Path) -> Checkpoint:
    data = Path(path).read_bytes()
    if data[:8] != CHECKPOINT_MAGIC:
        raise ModelError(f"{path} is not a checkpoint file")
    offset = 16 + int.from_bytes(data[8:16], "big")
    if offset > len(data):
        raise ModelError(f"{path}: header length exceeds the file size")
    try:
        header = json.loads(data[16:offset].decode("utf-8"))
        config = ModelConfig.from_dict(header["config"])
        kind, vocab_hash = header["kind"], header["vocab_hash"]
        layout = [(entry["name"], tuple(entry["shape"])) for entry in header["tensors"]]
    except (ValueError, KeyError, TypeError) as exc:  # ValueError covers bad UTF-8 and JSON
        raise ModelError(f"{path}: corrupt header ({exc!r})") from exc
    tensors = {}
    for name, shape in layout:
        if not isinstance(name, str) or not all(isinstance(n, int) and n >= 0 for n in shape):
            raise ModelError(f"{path}: invalid tensor entry {name!r} {shape}")
        end = offset + 8 * math.prod(shape)
        if end > len(data):
            raise ModelError(f"{path} is truncated")
        tensors[name] = np.frombuffer(data[offset:end], dtype="<f8").reshape(shape).copy()
        offset = end
    if offset != len(data):
        raise ModelError(f"{path} has {len(data) - offset} trailing bytes")
    if kind not in ("model", "pretrain"):
        raise ModelError(f"{path}: unknown checkpoint kind {kind!r}")
    required = PRETRAIN_TENSORS if kind == "pretrain" else [f.name for f in fields(ModelParams)]
    missing = [name for name in required if name not in tensors]
    if missing:
        raise ModelError(f"{path}: {kind} checkpoint lacks {', '.join(missing)}")
    expected = expected_shapes(tensors["emb"].shape[0], config.embedding_dim)
    expected["lm_u"] = expected["emb"]  # the head pretrain writes; older model checkpoints too
    for name, value in tensors.items():
        if name not in expected:
            raise ModelError(f"{path}: unknown tensor {name!r}")
        if value.shape != expected[name]:
            raise ModelError(
                f"{path}: tensor {name} has shape {value.shape}, expected {expected[name]}"
            )
        if not np.all(np.isfinite(value)):
            raise ModelError(f"{path}: tensor {name} has a non-finite value")
    return Checkpoint(kind=kind, config=config, vocab_hash=vocab_hash, tensors=tensors)
