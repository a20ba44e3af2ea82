"""Unsupervised pre-training of the embedding and LSTM layers.

Trains a next-token language model over unlabeled issue text, either with
the exact softmax objective or with noise-contrastive estimation, which
scores the true next token against a handful of sampled noise tokens and
so costs M instead of |V| per position. Model selection uses validation
perplexity computed with the full softmax regardless of the training
objective.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .model import (INIT_SCALE, PRETRAIN_TENSORS, ModelConfig, ModelParams, _run_shards, encode,
                    encode_backward, inference_batches, init_params, length_batches, pad_batch,
                    scatter_rows)
from .numerics import _run_epochs, check_learning_rate, log_sigmoid, make_rng, sigmoid
from .parallel import Pool, run, shard_bounds, share


class PretrainError(ValueError):
    pass


OBJECTIVES = ("nce", "softmax")  # softmax is exact and slow: the reference route


@dataclass
class PretrainConfig:
    epochs: int = 100
    batch_size: int = 50
    learning_rate: float = 0.02
    nce_samples: int = 100
    patience: int = 10
    objective: str = field(default="nce", metadata={"choices": OBJECTIVES})
    decay: ClassVar[float] = 0.99
    smoothing: ClassVar[float] = 1e-7
    noise_power: ClassVar[float] = 0.75
    validation_fraction: ClassVar[float] = 0.1

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("epochs must be >= 0 and batch_size >= 1")
        if self.patience < 0:
            raise ValueError("patience must be >= 0")
        if self.nce_samples < 1:
            raise ValueError("nce_samples must be >= 1")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown pre-training objective {self.objective!r}")
        check_learning_rate(self.learning_rate)


LSTM_TENSORS = ("lstm_wx", "lstm_wh", "lstm_b")


@dataclass
class LanguageModelParams(ModelParams):
    """ModelParams and the language model's softmax head. Pre-training
    trains the head and the encoder, PRETRAIN_TENSORS; the highway and
    regressor tensors ride along untouched."""

    lm_u: np.ndarray  # (V, d) output word vectors

    def checkpoint_tensors(self) -> dict[str, np.ndarray]:
        """What pretrain.ckpt holds: the encoder and the head."""
        return {name: getattr(self, name) for name in (*PRETRAIN_TENSORS, "lm_u")}


def init_language_model(vocab_size: int, config: ModelConfig,
                        rng: np.random.Generator) -> LanguageModelParams:
    """The weights pretrain starts from: init_params, and the head drawn
    from the V*d values init_params skips, so the generator ends where
    init_params leaves it."""
    params = init_params(vocab_size, config, rng)
    rng.bit_generator.advance(-vocab_size * config.embedding_dim)
    lm_u = rng.uniform(-INIT_SCALE, INIT_SCALE, (vocab_size, config.embedding_dim))
    return LanguageModelParams(**params.tensors(), lm_u=lm_u)


def unigram_noise_distribution(sequences: list[list[int]], vocab_size: int,
                               power: float = 0.75) -> np.ndarray:
    """Smoothed, power-flattened unigram distribution for noise sampling.

    Add-one smoothing keeps every vocabulary entry sampleable so targets
    absent from the noise-fitting corpus still get a finite noise odds term.
    """
    ids = np.fromiter(itertools.chain.from_iterable(sequences), dtype=np.int64)
    weights = (np.bincount(ids, minlength=vocab_size) + 1.0) ** power
    return weights / weights.sum()


def _prediction_batches(sequences: list[list[int]], batches):
    """Yield padded (inputs, targets, mask) arrays for each batch of indices
    into sequences, every one at least two tokens long; position t predicts
    token t+1."""
    for idx in batches:
        ids, mask = pad_batch([sequences[i][:-1] for i in idx])
        targets, _ = pad_batch([sequences[i][1:] for i in idx])
        yield ids, targets, mask


# Byte budget of one block of float64 logits in the exact softmax, near a
# core's L2 cache: peak memory of `perplexity` and of the softmax objective is
# a few blocks, whatever B and T.
SOFTMAX_CHUNK_BYTES = 4 * 2**20
# BLAS computes the logits of the vocabulary rows in whole tiles of this many;
# the rest are summed by numpy. In a ragged last row tile a BLAS kernel may
# round by the block's row count and the BLAS thread count (OpenBLAS's
# SkylakeX dgemm does, for the last V mod 8 logits); in a whole tile it does
# not. OpenBLAS also hands products of at most about 6e4 multiply-adds to a
# small-matrix kernel that rounds by the block's row count, so while the whole
# tiles times d stay under 2**16 (twice that, for a two-row block) the logits
# come from numpy's einsum loop, which calls no BLAS.
VOCAB_TILE = 16


def _softmax_chunks(h: np.ndarray, tgt: np.ndarray, lm_u: np.ndarray):
    """Exact full softmax of the rows of h, a bounded number of rows at a time.

    Yields (rows, shifted, lse, target_logp) per block of rows, as many as
    fit in SOFTMAX_CHUNK_BYTES of logits and two at least:
    `rows` slices h and tgt, `shifted` is the block's h @ lm_u.T minus its
    row max, `lse` is log(sum(exp(shifted))) per row and `target_logp` is
    log P(tgt). A row's values do not depend on the block it is in: every
    reduction over V is per row, and the product is a matrix-matrix one over
    whole vocabulary tiles (an einsum loop for a tiny vocabulary). A one-row
    block would be a matrix-vector product, which rounds differently, so
    every block has two rows at least: a one-row tail joins the block before
    it, and a lone row is computed paired with a copy of itself. The logits
    and their exp live in two buffers made once per call (fresh pages for
    every block cost about as much as the block's exp), so the caller may
    overwrite `shifted` but is done with it when it asks for the next block.
    """
    vocab = lm_u.shape[0]
    tiled = vocab - vocab % VOCAB_TILE
    step = max(2, SOFTMAX_CHUNK_BYTES // (8 * vocab))
    starts = list(range(0, len(h), step))
    if len(starts) > 1 and len(h) - starts[-1] == 1:
        starts.pop()
    logits = np.empty((min(step + 1, max(2, len(h))), vocab))
    exp = np.empty_like(logits)
    for start, stop in zip(starts, starts[1:] + [len(h)]):
        rows, n = slice(start, stop), stop - start
        block = h[rows] if n > 1 else np.repeat(h[rows], 2, axis=0)
        out = logits[:len(block)]
        if tiled * lm_u.shape[1] < 2**16:
            np.einsum("nd,vd->nv", block, lm_u, out=out)
        else:
            np.matmul(block, lm_u[:tiled].T, out=out[:, :tiled])
            np.sum(block[:, None, :] * lm_u[tiled:], axis=2, out=out[:, tiled:])
        shifted = out[:n]
        shifted -= shifted.max(axis=1, keepdims=True)
        lse = np.log(np.exp(shifted, out=exp[:n]).sum(axis=1))
        yield rows, shifted, lse, shifted[np.arange(n), tgt[rows]] - lse


def _target_logp(params: LanguageModelParams, h: np.ndarray, tgt: np.ndarray) -> np.ndarray:
    """log P(tgt) of the rows of h, block by block."""
    return np.concatenate([logp for *_, logp in _softmax_chunks(h, tgt, params.lm_u)])


def perplexity(params: LanguageModelParams, sequences: list[list[int]],
               pool: Pool | None = None) -> float:
    """exp(mean negative log-likelihood per predicted token), full softmax
    over the live (unpadded) positions only.

    The sequences run as the model.inference_batches of their input
    lengths. Each batch is encoded here, and its live positions go out as
    the shard_bounds spans of unit lengths, dealt to the processes of
    `pool` (one created with params) or run here. Whole batches are not
    dealt, as predict_points deals them: the held-out set is often one
    batch, and its softmax, not its encoding, is most of the work. A row's
    log-probability does not depend on the span or block it is computed in
    (_softmax_chunks), a batch sums them on its padded (B, T) grid and the
    total adds the batches in batch order, so the value depends neither on
    the process count nor on SOFTMAX_CHUNK_BYTES.
    """
    usable = [s for s in sequences if len(s) >= 2]
    batches = inference_batches([len(s) - 1 for s in usable])
    total_nll = 0.0
    total_count = 0
    for ids, targets, mask in _prediction_batches(usable, batches):
        states = encode(ids, mask, params)[0]
        live = mask > 0
        h, tgt = states[live], targets[live]
        tasks = [(h[a:b], tgt[a:b]) for a, b in shard_bounds([1] * len(h))]
        # Summed on the padded (B, T) grid, zeros at padding, so the total
        # rounds exactly as a sum over the dense (B, T, V) form would.
        picked = np.zeros(mask.shape)
        picked[live] = np.concatenate(run(_target_logp, tasks, params, pool=pool))
        total_nll -= float(picked.sum())
        total_count += int(live.sum())
    if total_count == 0:
        raise PretrainError("empty corpus")
    with np.errstate(over="ignore"):  # a mean NLL above ~709 reads as inf
        return float(np.exp(total_nll / total_count))


def _nce_batch_step(ids, targets, mask, params, noise_dist, n_samples, rng,
                    pool: Pool | None = None):
    """Mean NCE loss of a batch and its gradients, emb and lm_u row-sparse.

    The noise ids are drawn here, from rng. The batch runs as the row
    shards of shard_bounds, each trimmed to its longest sequence, on `pool`
    (one created with params) or here, and their losses and gradients are
    summed in shard order, so the bits do not depend on the process count.
    """
    noise = rng.choice(len(noise_dist), size=n_samples, p=noise_dist)
    positions = mask.sum()
    lengths = (mask > 0).sum(axis=1)
    target_offset = np.log(n_samples * noise_dist[targets])
    noise_offset = np.log(n_samples * noise_dist[noise])
    tasks = []
    for a, b in shard_bounds(lengths):
        rows = (slice(a, b), slice(0, lengths[a:b].max()))
        tasks.append((ids[rows], targets[rows], mask[rows], target_offset[rows],
                      noise, noise_offset, positions))
    loss, grads, _ = _run_shards(_nce_shard, tasks, params, pool=pool)
    return float(loss / positions), grads


def _nce_shard(params, ids, targets, mask, target_offset, noise, noise_offset, positions):
    """Summed NCE loss and gradients of one row shard of a batch with
    `positions` live positions; target_offset and noise_offset are the
    log(M * q) of its targets and of the noise ids."""
    states, cache = encode(ids, mask, params)  # batch-major, as the einsums below want
    u_tgt = params.lm_u[targets]                      # (B, T, d)
    u_noise = params.lm_u[noise]                      # (M, d)
    delta_t = np.einsum("btd,btd->bt", states, u_tgt) - target_offset
    delta_n = states @ u_noise.T - noise_offset
    loss = -(log_sigmoid(delta_t) * mask).sum()
    loss -= (log_sigmoid(-delta_n) * mask[:, :, None]).sum()
    dd_t = (sigmoid(delta_t) - 1.0) * mask / positions
    dd_n = sigmoid(delta_n) * mask[:, :, None] / positions
    # lm_u rows: the target terms in position order (zero at padding), then
    # the noise terms, as scatters into a zero (V, d) array would add them
    lm_ids, inverse = np.unique(np.concatenate([targets.reshape(-1), noise]),
                                return_inverse=True)
    lm_rows = scatter_rows(inverse[: targets.size],
                           (dd_t[:, :, None] * states).reshape(-1, states.shape[2]), len(lm_ids))
    np.add.at(lm_rows, inverse[targets.size:], np.einsum("btm,btd->md", dd_n, states))
    d_states = dd_t[:, :, None] * u_tgt + dd_n @ u_noise
    lstm = {name: np.zeros_like(getattr(params, name)) for name in LSTM_TENSORS}
    emb = encode_backward(d_states, cache, params, lstm)
    return float(loss), {"emb": emb, **lstm, "lm_u": (lm_ids, lm_rows)}


def _softmax_batch_step(ids, targets, mask, params):
    """Mean softmax loss of a batch and its gradients, emb row-sparse; every
    row of lm_u has a gradient, so that one stays dense."""
    positions = mask.sum()
    states, cache = encode(ids, mask, params)
    live = mask > 0
    h, tgt = states[live], targets[live]
    lm_u = np.zeros_like(params.lm_u)
    d_h = np.empty_like(h)
    loss = 0.0
    for rows, dlogits, lse, logp in _softmax_chunks(h, tgt, params.lm_u):
        loss -= float(logp.sum())
        dlogits -= lse[:, None]                       # log-probabilities
        np.exp(dlogits, out=dlogits)                  # probabilities
        dlogits[np.arange(len(lse)), tgt[rows]] -= 1.0
        dlogits *= 1.0 / positions
        lm_u += dlogits.T @ h[rows]
        d_h[rows] = dlogits @ params.lm_u
    d_states = np.zeros_like(states)
    d_states[live] = d_h
    lstm = {name: np.zeros_like(getattr(params, name)) for name in LSTM_TENSORS}
    emb = encode_backward(d_states, cache, params, lstm)
    return float(loss / positions), {"emb": emb, **lstm, "lm_u": lm_u}


@dataclass
class PretrainResult:
    params: LanguageModelParams
    curve: list[dict]
    best_epoch: int
    best_perplexity: float
    aborted: str | None


def pretrain(sequences: list[list[int]], vocab_size: int, model_config: ModelConfig,
             config: PretrainConfig, seed: int = 42) -> PretrainResult:
    """Train the language model and return the best weights by validation
    perplexity (early stopping and aborts: `numerics._run_epochs`).

    Story-point labels never enter here: the input is token-id sequences
    only. The last validation_fraction of the sequences (file order) are
    held out for model selection.
    """
    usable = [list(s) for s in sequences if len(s) >= 2]
    if len(usable) < 2:
        raise PretrainError("need at least two sequences of length >= 2")
    if config.nce_samples > vocab_size:
        raise PretrainError("nce_samples may not exceed the vocabulary size")
    n_valid = max(1, int(round(config.validation_fraction * len(usable))))
    n_valid = min(n_valid, len(usable) - 1)
    train_seqs = usable[: len(usable) - n_valid]
    valid_seqs = usable[len(usable) - n_valid :]

    rng = make_rng(seed)
    params = init_language_model(vocab_size, model_config, rng)
    noise_dist = unigram_noise_distribution(train_seqs, vocab_size, config.noise_power)
    lengths = [len(s) - 1 for s in train_seqs]

    # Workers fork once and read the parameters from shared memory, which
    # the optimizer updates in place.
    share(params)
    with Pool(params) as pool:
        def step(batch):
            if config.objective == "nce":
                return _nce_batch_step(*batch, params, noise_dist, config.nce_samples, rng,
                                       pool=pool)
            return _softmax_batch_step(*batch, params)

        best_params, curve, best_epoch, best_ppl, aborted = _run_epochs(
            params, config, lambda: _prediction_batches(
                train_seqs, length_batches(lengths, config.batch_size, rng)),
            step, lambda: perplexity(params, valid_seqs, pool=pool), "perplexity",
            best_score=perplexity(params, valid_seqs, pool=pool),
        )
    return PretrainResult(
        params=best_params,
        curve=[dict(zip(("epoch", "train_loss", "valid_perplexity", "best_perplexity"), row))
               for row in curve],
        best_epoch=best_epoch, best_perplexity=best_ppl, aborted=aborted,
    )
