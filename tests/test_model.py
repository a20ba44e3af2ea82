import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oracles import (dropout_scale, grad_check, lstm_backward_steps, lstm_forward_steps,
                     masked_loss_and_grads, masked_sigmoid, run_lstm, whole_array_dropout_masks)
from storypoint import model as model_module
from storypoint import pretrain as pretrain_module
from storypoint.model import (
    PRETRAIN_TENSORS,
    ModelConfig,
    ModelError,
    batch_forward,
    batch_loss_and_grads,
    document_vectors,
    embed,
    encode,
    expected_shapes,
    inference_batches,
    init_params,
    length_batches,
    load_checkpoint,
    make_dropout_masks,
    pad_batch,
    save_checkpoint,
    scatter_rows,
    shard_loss_and_grads,
    zero_params,
)
from storypoint.model import _drop, _highway_forward, _lstm_backward
from storypoint.numerics import dropout_keep, make_rng, sigmoid
from storypoint.pretrain import init_language_model, perplexity
from storypoint.trainer import predict_points

LSTM_TENSORS = ("lstm_wx", "lstm_wh", "lstm_b")


def small_params(seed=0, v=8, d=5, scale=0.3):
    rng = make_rng(seed)
    params = init_params(v, ModelConfig(embedding_dim=d, highway_depth=1), rng)
    for t in params.tensors().values():
        t[...] = rng.uniform(-scale, scale, t.shape)
    return params


class TestEmbed:
    def test_zero_matrix_gives_zero_vectors(self):
        out = embed([0, 1, 2], np.zeros((5, 3)))
        np.testing.assert_array_equal(out, np.zeros((3, 3)))

    def test_repeated_id_identical_rows(self):
        m = make_rng(0).normal(size=(6, 4))
        out = embed([2, 2, 2], m)
        assert np.all(out[0] == out[1]) and np.all(out[1] == out[2])

    def test_one_hot_matmul_equivalence(self):
        rng = make_rng(1)
        m = rng.normal(size=(9, 4))
        ids = [3, 0, 8, 3]
        one_hot = np.zeros((len(ids), 9))
        one_hot[np.arange(len(ids)), ids] = 1.0
        np.testing.assert_allclose(embed(ids, m), one_hot @ m)

    def test_out_of_range_rejected(self):
        with pytest.raises(ModelError, match="out of range"):
            embed([5], np.zeros((5, 2)))


class TestLstmEncode:
    def test_zero_params_give_zero_states(self):
        params = zero_params(8, ModelConfig(embedding_dim=5))
        x = make_rng(0).normal(size=(7, 5))
        states = run_lstm(x[None], params)[0][0]
        np.testing.assert_array_equal(states, np.zeros((7, 5)))

    def test_single_step_matches_cell_oracle(self):
        params = small_params(seed=3)
        d = params.dim
        x = make_rng(4).normal(size=(1, d))
        # one explicit cell application, written out gate by gate
        pre = x[0] @ params.lstm_wx + params.lstm_b
        i = sigmoid(pre[:d])
        f = sigmoid(pre[d : 2 * d])
        o = sigmoid(pre[2 * d : 3 * d])
        g = np.tanh(pre[3 * d :])
        c = i * g  # c_0 = 0, so the forget path contributes nothing
        expected = o * np.tanh(c)
        np.testing.assert_allclose(run_lstm(x[None], params)[0][0, 0], expected, atol=1e-12)

    def test_sum_of_states_gradients_pass_grad_check(self):
        params = small_params(seed=5)
        x = make_rng(6).normal(size=(1, 6, params.dim)) * 0.5
        mask = np.ones((1, 6))

        states, cache, inputs = run_lstm(x, params, mask=mask)
        grads = {name: np.zeros_like(getattr(params, name)) for name in LSTM_TENSORS}
        _lstm_backward(lambda t: np.ones_like(states[:, t]), cache, inputs, params, grads)
        for name in LSTM_TENSORS:
            def f(_):
                return float(run_lstm(x, params)[0].sum())
            err = grad_check(f, getattr(params, name), grads[name], h=1e-4)
            assert err < 1e-4, f"{name}: {err}"


def ragged_batch(lengths, d, seed, dropout):
    """Random weights, LSTM inputs and upstream state gradients for a padded
    batch of the given lengths, masked as encode and batch_backward mask them."""
    rng = make_rng(seed)
    config = ModelConfig(embedding_dim=d, highway_depth=1)
    params = init_params(60, config, rng)
    for t in params.tensors().values():
        t[...] = rng.uniform(-0.5, 0.5, t.shape)
    ids, mask = pad_batch([list(rng.integers(0, 60, size=n)) for n in lengths])
    x = embed(ids, params.emb) * mask[:, :, None]
    d_states = rng.normal(size=x.shape) * mask[:, :, None]
    if dropout:
        masks = make_dropout_masks(len(lengths), ids.shape[1], config, rng).for_steps(
            mask, config)
        _drop(x, masks.lstm_in, masks.lstm_scale)
        _drop(d_states, masks.lstm_out, masks.lstm_scale)
    return params, x, mask, d_states


LENGTHS = {
    "ascending": [1, 2, 3, 5, 8],
    "descending": [8, 5, 3, 2, 1],
    "shuffled": [3, 8, 1, 5, 2],
    "one-row": [7],
    "one-step": [1, 1, 1],
    "one-row-one-step": [1],
    # large enough for OpenBLAS to thread the GEMMs
    "B100-d50": list(make_rng(99).permutation(np.arange(100) % 60 + 1)),
}


class TestLstmCoreMatchesPerStepOracle:
    """The time-major core does the per-step arithmetic of the oracle in
    tests/oracles.py bit for bit: states, weight gradients and dx."""

    @pytest.mark.parametrize("dropout", [False, True], ids=["plain", "dropout"])
    @pytest.mark.parametrize("case", list(LENGTHS))
    def test_bit_identical(self, case, dropout):
        d = 50 if case == "B100-d50" else 6
        params, x, mask, d_states = ragged_batch(LENGTHS[case], d, 31, dropout)
        states, cache, inputs = run_lstm(x, params, mask=mask)
        ref_states, ref_cache, _ = run_lstm(x, params, lstm_forward_steps, mask)
        grads = {name: np.zeros_like(getattr(params, name)) for name in LSTM_TENSORS}
        ref_grads = {name: np.zeros_like(getattr(params, name)) for name in LSTM_TENSORS}
        dx = _lstm_backward(lambda t: d_states[:, t], cache, inputs, params, grads)
        ref_dx = lstm_backward_steps(lambda t: d_states[:, t], ref_cache, inputs, params,
                                     ref_grads)
        assert np.array_equal(states, ref_states)
        assert np.array_equal(dx, ref_dx)
        for name in LSTM_TENSORS:
            assert np.array_equal(grads[name], ref_grads[name]), name

    @pytest.mark.parametrize("dropout", [False, True], ids=["plain", "dropout"])
    def test_full_stack_bit_identical(self, dropout, monkeypatch):
        rng = make_rng(32)
        config = ModelConfig(embedding_dim=50, highway_depth=3)
        params = init_params(300, config, rng)
        seqs = [list(rng.integers(0, 300, size=n)) for n in LENGTHS["B100-d50"]]
        targets = rng.uniform(1.0, 13.0, size=len(seqs))
        ids, _ = pad_batch(seqs)
        masks = make_dropout_masks(len(seqs), ids.shape[1], config, rng) if dropout else None
        loss, yhat, grads = batch_loss_and_grads(seqs, targets, params, config, masks=masks)
        monkeypatch.setattr(model_module, "_lstm_forward", lstm_forward_steps)
        monkeypatch.setattr(model_module, "_lstm_backward", lstm_backward_steps)
        monkeypatch.setattr(model_module, "sigmoid", masked_sigmoid)
        ref_loss, ref_yhat, ref_grads = batch_loss_and_grads(seqs, targets, params, config,
                                                             masks=masks)
        assert loss == ref_loss and np.array_equal(yhat, ref_yhat)
        assert grads.keys() == ref_grads.keys()
        for name in grads:
            assert np.array_equal(grads[name], ref_grads[name]), name


class TestMaskedStepMatchesFloatMaskOracle:
    """Keep bits applied in place give the bits of float masks multiplied in
    out of place (masked_loss_and_grads in tests/oracles.py): the loss, the
    estimates and every gradient, emb's row ids and rows included."""

    @pytest.mark.parametrize("rates", [(0.2, 0.5), (0.0, 0.0)], ids=["dropout", "rate-0"])
    @pytest.mark.parametrize("d", [5, 8, 50])
    @pytest.mark.parametrize("case", list(LENGTHS))
    def test_bit_identical(self, case, d, rates):
        rng = make_rng(33)
        config = ModelConfig(embedding_dim=d, highway_depth=3, dropout_lstm=rates[0],
                             dropout_highway=rates[1])
        params = init_params(60, config, rng)
        for t in params.tensors().values():
            t[...] = rng.uniform(-0.5, 0.5, t.shape)
        seqs = [list(rng.integers(0, 60, size=n)) for n in LENGTHS[case]]
        targets = rng.uniform(1.0, 13.0, size=len(seqs))
        masks = make_dropout_masks(len(seqs), max(LENGTHS[case]), config, rng)
        loss, yhat, grads = batch_loss_and_grads(seqs, targets, params, config, masks=masks,
                                                 emb_rows=True)
        ref_loss, ref_yhat, ref_grads = masked_loss_and_grads(seqs, targets, params, config,
                                                              masks)
        assert loss == ref_loss and yhat.tobytes() == ref_yhat.tobytes()
        assert grads.keys() == ref_grads.keys()
        for name in grads:
            pairs = zip(grads[name], ref_grads[name]) if name == "emb" else [
                (grads[name], ref_grads[name])]  # emb is (ids, rows)
            for got, want in pairs:
                assert got.dtype == want.dtype and got.shape == want.shape, name
                assert got.tobytes() == want.tobytes(), name


# One (B, T, d) float64 array of the shard below: B = 31 rows of T = 432
# steps at d = 50, the area of the benchmark's largest training shard.
SHARD_ARRAY_BYTES = 31 * 432 * 50 * 8


def test_training_shard_keeps_few_arrays_per_padded_slot():
    """A training shard peaks at 6 (B, T, d) float64 arrays at most, plus
    1 MiB for the arrays that do not grow with T (weight gradients,
    highway cache, per-step buffers): the (T, B, 4d) gate buffer and the
    cell states, with the keep bits at one byte a cell, and the inputs
    only until their projection. A stored input, stored outputs or a
    (B, T, d) state gradient would each take it past the bound (8.5 arrays
    with all three, 13.2 with float masks, a stored tanh(c) and an input
    gradient beside the spent inputs as well)."""
    rng = make_rng(34)
    config = ModelConfig(embedding_dim=50, highway_depth=10)
    params = init_params(500, config, rng)
    seqs = [list(rng.integers(0, 500, size=432)) for _ in range(31)]
    targets = rng.uniform(1.0, 13.0, size=31)
    masks = make_dropout_masks(31, 432, config, rng)
    tracemalloc.start()
    try:
        shard_loss_and_grads(params, config, seqs, targets, 31, masks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * SHARD_ARRAY_BYTES + 2**20, peak / SHARD_ARRAY_BYTES


# Runs in a child process, whose BLAS thread count is fixed at start-up. The
# lengths are those of one length bucket: with mostly padding, a GEMM summed
# over all B*T rows happens to round the same on 1 and 2 threads here. The
# second digest covers the NCE step's own GEMMs and einsums.
THREAD_PROBE = """
import hashlib
from storypoint.model import ModelConfig, batch_loss_and_grads, make_dropout_masks
from storypoint.numerics import make_rng
from storypoint.pretrain import init_language_model
rng = make_rng(5)
config = ModelConfig(embedding_dim=50, highway_depth=10)
params = init_language_model(2000, config, rng)
lengths = rng.integers(50, 61, size=100)
lengths[0] = 60
seqs = [list(rng.integers(0, 2000, size=n)) for n in lengths]
masks = make_dropout_masks(100, max(lengths), config, rng)
_, _, grads = batch_loss_and_grads(seqs, rng.uniform(1, 13, size=100), params, config,
                                   masks=masks)
digest = hashlib.sha256()
for name in sorted(grads):
    digest.update(grads[name].tobytes())
print(digest.hexdigest())

# one NCE pre-training step on a batch of the same shape, M = 100 noise rows,
# run as its two row shards; emb and lm_u come back row-sparse, (ids, rows)
from storypoint.parallel import shard_bounds
from storypoint.model import inference_batches
from storypoint.pretrain import _nce_batch_step, _prediction_batches, unigram_noise_distribution
noise = unigram_noise_distribution(seqs, 2000)
(batch,) = list(_prediction_batches(seqs[:50], inference_batches(lengths[:50] - 1)))
assert len(shard_bounds(batch[2].sum(axis=1))) == 2
loss, grads = _nce_batch_step(*batch, params, noise, 100, rng)
digest = hashlib.sha256(repr(loss).encode())
for name in sorted(grads):
    for part in grads[name] if isinstance(grads[name], tuple) else [grads[name]]:
        digest.update(part.tobytes())
print(digest.hexdigest())

# full-softmax log-probabilities over a vocabulary of 2003, which ends in a
# ragged BLAS row tile, in blocks of 261 rows and a last one of 178
from types import SimpleNamespace
from storypoint.pretrain import _target_logp
rng = make_rng(5)
head = SimpleNamespace(lm_u=rng.normal(scale=0.5, size=(2003, 50)))
logp = _target_logp(head, rng.normal(size=(700, 50)), rng.integers(0, 2003, size=700))
print(hashlib.sha256(logp.tobytes()).hexdigest())
"""


def test_gradients_do_not_depend_on_blas_thread_count():
    src = str(Path(__file__).resolve().parent.parent / "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", THREAD_PROBE], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-3000:]
        digests.append(proc.stdout.strip())
    assert digests[0] == digests[1]


class TestScatterRows:
    def test_bits_of_add_at_on_repeated_ids(self):
        rng = make_rng(9)
        index = rng.integers(0, 6, size=200)
        terms = rng.normal(size=(200, 5))
        # signed zeros and infinities, also at the first term of a row and
        # where +inf and -inf meet in one cell
        terms[rng.integers(0, 200, size=60), rng.integers(0, 5, size=60)] = -0.0
        terms[rng.integers(0, 200, size=30), rng.integers(0, 5, size=30)] = 0.0
        terms[rng.integers(0, 200, size=6), rng.integers(0, 5, size=6)] = np.inf
        terms[rng.integers(0, 200, size=6), rng.integers(0, 5, size=6)] = -np.inf
        terms[np.flatnonzero(index == 1)[0]] = -0.0
        terms[np.flatnonzero(index == 3)[:2], 2] = [np.inf, -np.inf]
        index[index == 5] = 4  # row 5 gets no term
        expected = np.zeros((6, 5))
        with np.errstate(invalid="ignore"):  # inf + -inf
            np.add.at(expected, index, terms)
            got = scatter_rows(index, terms, 6)
        assert got.shape == (6, 5)
        assert got.tobytes() == expected.tobytes()
        assert np.isnan(got[3, 2]) and not got[5].any()


class TestMeanPool:
    def test_singleton(self):
        params = small_params(seed=22)
        (vec,) = document_vectors([[3]], params)
        states = run_lstm(embed([3], params.emb)[None], params)[0]
        np.testing.assert_array_equal(vec, states[0, 0])

    def test_empty_rejected(self):
        with pytest.raises(ModelError):
            document_vectors([[1, 2], []], small_params())


class TestHighway:
    def test_saturated_gate_copies_input_any_depth(self):
        params = small_params(seed=7)
        params.hw_gate_b[...] = 60.0  # sigmoid(60) rounds to exactly 1.0
        h = make_rng(8).normal(size=params.dim)
        for depth in (1, 3, 10, 50):
            np.testing.assert_array_equal(_highway_forward(h[None], params, depth)[0][0], h)

    def test_zero_params_single_layer_halves_input(self):
        params = zero_params(8, ModelConfig(embedding_dim=5))
        h = make_rng(9).normal(size=5)
        np.testing.assert_allclose(_highway_forward(h[None], params, 1)[0][0], 0.5 * h, atol=1e-15)

    def test_parameter_count_independent_of_depth(self):
        shapes = expected_shapes(vocab_size=30, d=10)
        hw_size = sum(
            np.prod(s) for n, s in shapes.items() if n.startswith("hw_")
        )
        assert hw_size == 2 * (10 * 10 + 10)  # no depth term anywhere


class TestForward:
    def test_zero_params_output_is_regressor_bias(self):
        params = zero_params(8, ModelConfig(embedding_dim=5, highway_depth=3))
        params.reg_b[0] = 2.75
        config = ModelConfig(embedding_dim=5, highway_depth=3)
        assert batch_forward(*pad_batch([[1, 2, 3]]), params, config)[0][0] == pytest.approx(2.75)

    def test_inference_is_deterministic(self):
        params = small_params(seed=10)
        config = ModelConfig(embedding_dim=params.dim, highway_depth=2)
        ids = [1, 4, 2, 2, 7]
        a = batch_forward(*pad_batch([ids]), params, config)[0][0]
        b = batch_forward(*pad_batch([ids]), params, config)[0][0]
        assert a == b

    def test_empty_tokens_rejected(self):
        with pytest.raises(ModelError):
            batch_forward(*pad_batch([[]]), small_params(), ModelConfig(embedding_dim=5))

    def test_full_stack_gradients_with_and_without_dropout(self):
        rng = make_rng(11)
        config = ModelConfig(embedding_dim=6, highway_depth=2)
        params = init_params(10, config, rng)
        for t in params.tensors().values():
            t[...] = rng.uniform(-0.3, 0.3, t.shape)
        seqs = [[1, 3, 4, 2, 1], [5, 6, 1]]
        targets = [1.5, 2.0]
        ids, mask = pad_batch(seqs)
        fixed = make_dropout_masks(ids.shape[0], ids.shape[1], config, make_rng(12))
        for masks in (None, fixed):
            _, _, grads = batch_loss_and_grads(seqs, targets, params, config, masks=masks)
            for name, tensor in params.tensors().items():
                def f(_):
                    loss, _, _g = batch_loss_and_grads(seqs, targets, params, config, masks=masks)
                    return loss
                err = grad_check(f, tensor, grads[name], h=1e-4)
                assert err < 1e-4, f"{name} (masks={masks is not None}): {err}"


class TestDropoutKeepBits:
    @pytest.mark.parametrize("d", [5, 8, 50])
    def test_packed_bits_give_the_masks_of_the_bits_drawn(self, d):
        # d = 5 and 50 leave the last byte of each row part-filled
        config = ModelConfig(embedding_dim=d, highway_depth=1)
        keep = make_dropout_masks(3, 7, config, make_rng(2))
        assert keep.lstm_in.shape == (3, 7, -(-d // 8)) and keep.highway.shape == (3, -(-d // 8))
        rng = make_rng(2)
        drawn = [dropout_keep((3, 7, d), config.dropout_lstm, rng),
                 dropout_keep((3, 7, d), config.dropout_lstm, rng),
                 dropout_keep((3, d), config.dropout_highway, rng)]
        for steps in (7, 4):
            mask = np.ones((2, steps))
            mask[1, steps - 2:] = 0.0  # padding clears the LSTM's bits
            masks = keep.rows(1, 3).for_steps(mask, config)
            live = mask[:, :, None] > 0
            want = [drawn[0][1:3, :steps] & live, drawn[1][1:3, :steps] & live, drawn[2][1:3]]
            got = (masks.lstm_in, masks.lstm_out, masks.highway)
            for g, w in zip(got, want):
                assert g.dtype == bool and g.shape == w.shape and np.array_equal(g, w)
            assert masks.lstm_scale == 1.0 / (1.0 - config.dropout_lstm) == 1.25
            assert masks.highway_scale == 1.0 / (1.0 - config.dropout_highway) == 2.0

    @pytest.mark.parametrize("rate", [0.0, 0.2, 0.5])
    @pytest.mark.parametrize("d", [5, 8, 50])
    def test_row_blocks_draw_the_bits_of_whole_arrays(self, monkeypatch, d, rate):
        # 100 x 50 = 5000 slots: two blocks of INFERENCE_ROW_STEPS, then 17
        # blocks of 300, the last part-filled; the highway draws 100 rows
        config = ModelConfig(embedding_dim=d, highway_depth=1, dropout_lstm=rate,
                             dropout_highway=rate)
        want_rng = make_rng(3)
        want = whole_array_dropout_masks(100, 50, config, want_rng)
        for block in (model_module.INFERENCE_ROW_STEPS, 300):
            monkeypatch.setattr(model_module, "INFERENCE_ROW_STEPS", block)
            rng = make_rng(3)
            got = make_dropout_masks(100, 50, config, rng)
            for name in ("lstm_in", "lstm_out", "highway"):
                g, w = getattr(got, name), getattr(want, name)
                assert g.dtype == w.dtype and g.shape == w.shape, name
                assert g.tobytes() == w.tobytes(), name
            assert rng.bit_generator.state == want_rng.bit_generator.state  # the next draw

    def test_draw_holds_one_block_of_doubles(self):
        """The (100, 432, 50) masks of the benchmark's longest batch, drawn
        whole, took 18.8 MiB (a float64 array, its bool compare and the
        first mask); in blocks of INFERENCE_ROW_STEPS rows of d doubles
        the draw needs 1.8 MiB above the 0.6 MiB of masks it returns."""
        config = ModelConfig(embedding_dim=50, highway_depth=1)
        tracemalloc.start()
        try:
            masks = make_dropout_masks(100, 432, config, make_rng(4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = masks.lstm_in.nbytes + masks.lstm_out.nbytes + masks.highway.nbytes
        assert peak - kept <= 2 * 2**20, (peak - kept) / 2**20

    def test_applied_in_place_with_the_bits_of_the_float_mask(self):
        # finite values of both signs, signed zeros, infinities and NaN
        rng = make_rng(3)
        a = rng.normal(size=(4, 9, 6))
        a.flat[:6] = [0.0, -0.0, np.inf, -np.inf, np.nan, -3.5]
        keep = dropout_keep(a.shape, 0.5, rng)
        keep.flat[:6] = [False, False, False, True, False, False]
        for rate in (0.0, 0.2, 0.5, 0.7):
            got = a.copy()
            with np.errstate(invalid="ignore"):  # inf * 0.0
                want = a * dropout_scale(keep, rate)
                assert _drop(got, keep, 1.0 / (1.0 - rate)) is got
            assert got.tobytes() == want.tobytes(), rate


class TestLoss:
    def test_zero_at_match(self):
        config = ModelConfig(embedding_dim=4, highway_depth=1)
        params = zero_params(9, config)
        params.reg_b[0] = 3.0
        loss, _, grads = batch_loss_and_grads([[1, 2]], [3.0], params, config)
        assert loss == 0.0 and grads["reg_b"][0] == 0.0

    def test_hand_example(self):
        # zero weights make the estimate the bias: loss (5-3)^2, gradient 2*(5-3)
        config = ModelConfig(embedding_dim=4, highway_depth=1)
        params = zero_params(9, config)
        params.reg_b[0] = 5.0
        loss, _, grads = batch_loss_and_grads([[1, 2]], [3.0], params, config)
        assert loss == 4.0 and grads["reg_b"][0] == 4.0

    def test_batch_loss_is_mean_of_per_issue_losses(self):
        params = small_params(seed=13)
        config = ModelConfig(embedding_dim=params.dim, highway_depth=1)
        seqs = [[1, 2], [3], [4, 5, 6]]
        targets = [2.0, 3.0, 4.0]
        loss, yhat, _ = batch_loss_and_grads(seqs, targets, params, config)
        per_issue = [(batch_forward(*pad_batch([s]), params, config)[0][0] - t) ** 2
                     for s, t in zip(seqs, targets)]
        assert loss == pytest.approx(sum(per_issue) / len(per_issue), rel=1e-12)


class TestBackward:
    def test_zero_loss_batch_gives_zero_gradients(self):
        config = ModelConfig(embedding_dim=4, highway_depth=2)
        params = zero_params(9, config)
        params.reg_b[0] = 5.0
        _, _, grads = batch_loss_and_grads([[1, 2], [3]], [5.0, 5.0], params, config)
        for name, g in grads.items():
            np.testing.assert_array_equal(g, np.zeros_like(g), err_msg=name)

    def test_batch_order_invariance(self):
        params = small_params(seed=14)
        config = ModelConfig(embedding_dim=params.dim, highway_depth=2)
        seqs = [[1, 2, 3], [4, 5], [6], [7, 1, 2, 3]]
        targets = [1.0, 2.0, 3.0, 4.0]
        _, _, g1 = batch_loss_and_grads(seqs, targets, params, config)
        order = [2, 0, 3, 1]
        _, _, g2 = batch_loss_and_grads(
            [seqs[i] for i in order], [targets[i] for i in order], params, config
        )
        for name in g1:
            np.testing.assert_allclose(g1[name], g2[name], atol=1e-12, err_msg=name)

    def test_absent_tokens_get_zero_embedding_gradient(self):
        params = small_params(seed=15)
        config = ModelConfig(embedding_dim=params.dim, highway_depth=1)
        _, _, grads = batch_loss_and_grads([[1, 2, 2]], [4.0], params, config)
        used = {1, 2}
        for row in range(params.vocab_size):
            if row not in used:
                np.testing.assert_array_equal(grads["emb"][row], 0.0)


class TestDocumentVectors:
    def test_matches_composed_single_sequence_path(self):
        params = small_params(seed=16)
        seqs = [[1, 2, 3], [4, 5], [1]]
        vecs = document_vectors(seqs, params)
        for seq, vec in zip(seqs, vecs):
            expected = run_lstm(embed(seq, params.emb)[None], params)[0][0].mean(axis=0)
            np.testing.assert_allclose(vec, expected, atol=1e-12)

    def test_order_preserved_across_buckets(self, monkeypatch):
        # an area of 6 cuts the lengths into batches [7], [6], [3, 3], [1, 2]
        monkeypatch.setattr(model_module, "INFERENCE_ROW_STEPS", 6)
        params = small_params(seed=23)
        seqs = [[1, 2, 3, 4, 5, 6], [7], [2, 3, 4], [5, 6], [1, 7, 2, 6, 3, 5, 4], [4, 4, 4]]
        vecs = document_vectors(seqs, params)
        for seq, vec in zip(seqs, vecs):
            expected = run_lstm(embed(seq, params.emb)[None], params)[0][0].mean(axis=0)
            np.testing.assert_allclose(vec, expected, atol=1e-12)


class TestLengthBatches:
    def test_with_rng_shuffles_sorts_then_shuffles_batches(self):
        # the draw sequence seeded training runs depend on
        lengths = np.array([4, 9, 1, 4, 7, 2, 2, 9, 5, 3])
        got = length_batches(lengths, 3, make_rng(5))
        rng = make_rng(5)
        perm = rng.permutation(len(lengths))
        perm = perm[np.argsort(lengths[perm], kind="stable")]
        chunks = [perm[i : i + 3] for i in range(0, len(perm), 3)]
        want = [chunks[i] for i in rng.permutation(len(chunks))]
        assert [b.tolist() for b in got] == [c.tolist() for c in want]

    def test_empty(self):
        assert length_batches([], 4, make_rng(0)) == []


class TestInferenceBatches:
    def test_cut_by_padded_area_from_the_longest(self, monkeypatch):
        monkeypatch.setattr(model_module, "INFERENCE_ROW_STEPS", 8)
        lengths = [5, 1, 3, 3, 8, 2, 1, 20]
        got = inference_batches(lengths)
        # 20 and 8 alone (20 is over the area), 5 alone, two 3s, the rest
        assert [b.tolist() for b in got] == [[1, 6, 5], [2, 3], [0], [4], [7]]

    def test_empty(self):
        assert inference_batches([]) == []

    @pytest.mark.parametrize("infer", [
        lambda params, config, seqs: predict_points(params, config, seqs),
        lambda params, config, seqs: document_vectors(seqs, params),
        lambda params, config, seqs: perplexity(params, seqs),
    ], ids=["predict_points", "document_vectors", "perplexity"])
    def test_every_forward_only_encode_is_area_capped(self, monkeypatch, infer):
        # 70 rows of 60 to 200 tokens: 64 rows times the longest would be
        # about three times the cap
        rng = make_rng(40)
        config = ModelConfig(embedding_dim=6, highway_depth=2)
        params = init_language_model(30, config, rng)
        seqs = [list(rng.integers(0, 30, size=n)) for n in rng.integers(60, 201, size=70)]
        assert 64 * max(len(s) for s in seqs) > 2 * model_module.INFERENCE_ROW_STEPS
        slots = []

        def spy(ids, mask, *args, **kwargs):
            slots.append((ids.size, ids.shape[1]))
            return encode(ids, mask, *args, **kwargs)

        monkeypatch.setattr(model_module, "encode", spy)
        monkeypatch.setattr(pretrain_module, "encode", spy)
        infer(params, config, seqs)
        assert len(slots) > 1
        for area, longest in slots:
            assert area <= max(model_module.INFERENCE_ROW_STEPS, longest)


class TestCheckpoints:
    def test_roundtrip(self, tmp_path):
        params = small_params(seed=17)
        config = ModelConfig(embedding_dim=params.dim, highway_depth=4)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, "model", config, "hash123", params.tensors())
        loaded = load_checkpoint(path)
        assert loaded.kind == "model"
        assert loaded.config == config
        assert loaded.vocab_hash == "hash123"
        for name, tensor in params.tensors().items():
            np.testing.assert_array_equal(loaded.tensors[name], tensor)

    def test_bytes_deterministic(self, tmp_path):
        params = small_params(seed=18)
        config = ModelConfig(embedding_dim=params.dim)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, "model", config, "h", params.tensors())
        save_checkpoint(p2, "model", config, "h", params.tensors())
        assert p1.read_bytes() == p2.read_bytes()

    def test_shape_mismatch_rejected(self, tmp_path):
        params = small_params(seed=19)
        config = ModelConfig(embedding_dim=params.dim + 1)  # wrong d
        path = tmp_path / "bad.ckpt"
        save_checkpoint(path, "model", config, "h", params.tensors())
        with pytest.raises(ModelError, match="shape"):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        params = small_params(seed=20)
        config = ModelConfig(embedding_dim=params.dim)
        path = tmp_path / "trunc.ckpt"
        save_checkpoint(path, "model", config, "h", params.tensors())
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(ModelError, match="truncated"):
            load_checkpoint(path)

    def test_partial_checkpoint_fills_missing_tensors(self, tmp_path):
        params = small_params(seed=21)
        config = ModelConfig(embedding_dim=params.dim)
        subset = {k: v for k, v in params.tensors().items() if k in PRETRAIN_TENSORS}
        path = tmp_path / "pre.ckpt"
        save_checkpoint(path, "pretrain", config, "h", subset)
        loaded = load_checkpoint(path)
        restored = loaded.to_params()
        for name, tensor in restored.tensors().items():
            if name in PRETRAIN_TENSORS:
                np.testing.assert_array_equal(tensor, params.tensors()[name])
            else:
                np.testing.assert_array_equal(tensor, np.zeros_like(params.tensors()[name]))

    @pytest.mark.parametrize("kind, names, message", [
        ("model", ("emb",), "model checkpoint lacks lstm_wx, lstm_wh, lstm_b, hw_gate_w, "
                            "hw_gate_b, hw_trans_w, hw_trans_b, reg_w, reg_b"),
        ("model", (*PRETRAIN_TENSORS, "lm_u", "hw_gate_w", "hw_gate_b", "hw_trans_w",
                   "hw_trans_b"), "model checkpoint lacks reg_w, reg_b"),
        ("pretrain", ("emb", "lstm_wx", "lstm_wh", "lm_u"), "pretrain checkpoint lacks lstm_b"),
        ("pretrain", ("lstm_wx", "lstm_wh", "lstm_b", "lm_u"), "pretrain checkpoint lacks emb"),
    ], ids=["model-emb-only", "model-no-regressor", "pretrain-no-bias", "pretrain-no-emb"])
    def test_incomplete_checkpoint_rejected(self, tmp_path, kind, names, message):
        params = small_params(seed=26)
        tensors = {**params.tensors(), "lm_u": params.emb}
        path = tmp_path / "part.ckpt"
        save_checkpoint(path, kind, ModelConfig(embedding_dim=params.dim), "h",
                        {name: tensors[name] for name in names})
        with pytest.raises(ModelError, match=message):
            load_checkpoint(path)

    def test_unknown_kind_rejected(self, tmp_path):
        params = small_params(seed=27)
        path = tmp_path / "odd.ckpt"
        save_checkpoint(path, "optimizer", ModelConfig(embedding_dim=params.dim), "h",
                        params.tensors())
        with pytest.raises(ModelError, match="unknown checkpoint kind 'optimizer'"):
            load_checkpoint(path)

    def test_head_loads_but_leaves_the_params(self, tmp_path):
        # pretrain writes the head lm_u beside the encoder, and model
        # checkpoints once held it too: it loads with its shape checked, and
        # to_params leaves it out
        params = small_params(seed=28)
        config = ModelConfig(embedding_dim=params.dim)
        head = make_rng(29).uniform(-0.3, 0.3, params.emb.shape)
        for kind in ("model", "pretrain"):
            path = tmp_path / f"{kind}.ckpt"
            save_checkpoint(path, kind, config, "h", {**params.tensors(), "lm_u": head})
            loaded = load_checkpoint(path)
            np.testing.assert_array_equal(loaded.tensors["lm_u"], head)
            restored = loaded.to_params()
            assert list(restored.tensors()) == list(params.tensors())
            for name, tensor in params.tensors().items():
                np.testing.assert_array_equal(restored.tensors()[name], tensor)
        save_checkpoint(path, "pretrain", config, "h", {**params.tensors(), "lm_u": head[1:]})
        with pytest.raises(ModelError, match="tensor lm_u has shape"):
            load_checkpoint(path)

    def test_non_finite_tensor_rejected(self, tmp_path):
        params = small_params(seed=25)
        params.reg_w[2] = np.nan
        path = tmp_path / "nan.ckpt"
        save_checkpoint(path, "model", ModelConfig(embedding_dim=params.dim), "h",
                        params.tensors())
        with pytest.raises(ModelError, match="tensor reg_w has a non-finite value"):
            load_checkpoint(path)

    def _saved(self, tmp_path):
        params = small_params(seed=24)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, "model", ModelConfig(embedding_dim=params.dim), "h",
                        params.tensors())
        data = path.read_bytes()
        return path, data, int.from_bytes(data[8:16], "big")

    def test_trailing_bytes_rejected(self, tmp_path):
        path, data, _ = self._saved(tmp_path)
        path.write_bytes(data + b"\0" * 8)
        with pytest.raises(ModelError, match="trailing"):
            load_checkpoint(path)

    def test_header_length_beyond_file_rejected(self, tmp_path):
        path, data, _ = self._saved(tmp_path)
        path.write_bytes(data[:8] + (len(data) + 1).to_bytes(8, "big") + data[16:])
        with pytest.raises(ModelError, match="header length"):
            load_checkpoint(path)

    def test_header_length_into_payload_rejected(self, tmp_path):
        path, data, header_len = self._saved(tmp_path)
        # the header now swallows float64 payload bytes, which are not UTF-8 JSON
        path.write_bytes(data[:8] + (header_len + 64).to_bytes(8, "big") + data[16:])
        with pytest.raises(ModelError, match="corrupt header"):
            load_checkpoint(path)

    def test_header_missing_field_rejected(self, tmp_path):
        path, data, header_len = self._saved(tmp_path)
        header = json.loads(data[16 : 16 + header_len])
        del header["vocab_hash"]
        blob = json.dumps(header).encode()
        path.write_bytes(data[:8] + len(blob).to_bytes(8, "big") + blob + data[16 + header_len :])
        with pytest.raises(ModelError, match="corrupt header"):
            load_checkpoint(path)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"definitely not a checkpoint")
        with pytest.raises(ModelError):
            load_checkpoint(path)
