import tracemalloc
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import (densified, grad_check, initial_draws, log_softmax_rows, nce_loss,
                     next_token_logprob, run_lstm)
from storypoint import model as model_module
from storypoint import pretrain as pretrain_module
from storypoint.corpus import build_vocabulary, tokenize
from storypoint.model import (ModelConfig, ModelParams, embed, encode, encode_backward,
                              init_params, pad_batch)
from storypoint.numerics import make_rng
from storypoint.pretrain import (
    PRETRAIN_TENSORS,
    PretrainConfig,
    PretrainError,
    _nce_batch_step,
    _nce_shard,
    _prediction_batches,
    _softmax_batch_step,
    _target_logp,
    init_language_model,
    perplexity,
    pretrain,
    unigram_noise_distribution,
)


def periodic_corpus(copies=45, periods=10):
    docs = [tokenize(("a b c " * periods).strip(), "word") for _ in range(copies)]
    vocab = build_vocabulary(docs, min_count=1)
    return vocab, [vocab.encode(d) for d in docs]


class TestNextTokenLogprob:
    def test_zero_weights_give_uniform(self):
        u = np.zeros((12, 4))
        h = make_rng(0).normal(size=4)
        for k in range(12):
            assert next_token_logprob(h, u, k) == pytest.approx(np.log(1 / 12))

    def test_probabilities_sum_to_one(self):
        rng = make_rng(1)
        u = rng.normal(size=(9, 5))
        h = rng.normal(size=5)
        total = sum(np.exp(next_token_logprob(h, u, k)) for k in range(9))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_matches_bruteforce_softmax(self):
        rng = make_rng(2)
        u = rng.normal(size=(7, 3))
        h = rng.normal(size=3)
        logits = np.array([u[k] @ h for k in range(7)])
        probs = np.exp(logits) / np.exp(logits).sum()
        for k in range(7):
            assert next_token_logprob(h, u, k) == pytest.approx(np.log(probs[k]), rel=1e-10)

    def test_bad_id(self):
        with pytest.raises(PretrainError):
            next_token_logprob(np.zeros(3), np.zeros((5, 3)), 5)


class TestNceLoss:
    def test_gradients_pass_grad_check(self):
        rng = make_rng(3)
        d, v = 5, 11
        u = rng.normal(size=(v, d)) * 0.5
        h = rng.normal(size=d) * 0.5
        q = unigram_noise_distribution([[1, 2, 3, 4, 5, 6, 1, 2]], v)
        noise = [2, 7, 9, 2]  # includes a repeat on purpose
        loss, dh, du_rows = nce_loss(h, u, target=4, noise_ids=noise, noise_dist=q)

        err = grad_check(
            lambda x: nce_loss(x, u, 4, noise, q)[0], h, dh, h=1e-4
        )
        assert err < 1e-4
        for row, grad in du_rows.items():
            err = grad_check(
                lambda x: nce_loss(h, u, 4, noise, q)[0], u[row], grad, h=1e-4
            )
            assert err < 1e-4, f"row {row}: {err}"

    def test_gradient_touches_only_target_and_noise_rows(self):
        rng = make_rng(4)
        u = rng.normal(size=(11, 5))
        h = rng.normal(size=5)
        q = np.full(11, 1 / 11)
        _, _, du_rows = nce_loss(h, u, target=3, noise_ids=[1, 8], noise_dist=q)
        assert set(du_rows) == {3, 1, 8}

    def test_batched_step_matches_single_position(self):
        rng = make_rng(5)
        v, d, m = 9, 4, 3
        config = ModelConfig(embedding_dim=d, highway_depth=1)
        params = init_language_model(v, config, make_rng(6))
        q = unigram_noise_distribution([[2, 3, 4]], v)
        ids = np.array([[2]])
        targets = np.array([[5]])
        mask = np.ones((1, 1))
        noise = make_rng(7).choice(v, size=m, p=q)
        loss_batch, grads = _nce_batch_step(ids, targets, mask, params, q, m, make_rng(7))
        grads = densified(grads, params)
        # recompute via the single-position form on the same state and noise
        states = run_lstm(embed(ids, params.emb), params)[0]
        loss_single, _, du_rows = nce_loss(states[0, 0], params.lm_u, 5, noise, q)
        assert loss_batch == pytest.approx(loss_single)
        for row, grad in du_rows.items():
            np.testing.assert_allclose(grads["lm_u"][row], grad, atol=1e-12)

    def test_batched_rows_outside_sample_get_exact_zero(self):
        rng = make_rng(8)
        v, d, m = 13, 4, 2
        params = init_language_model(v, ModelConfig(embedding_dim=d), make_rng(9))
        q = np.full(v, 1 / v)
        ids = np.array([[1, 2]])
        targets = np.array([[2, 3]])
        mask = np.ones((1, 2))
        noise_preview = make_rng(10).choice(v, size=m, p=q)
        _, grads = _nce_batch_step(ids, targets, mask, params, q, m, make_rng(10))
        grads = densified(grads, params)
        touched = set(targets.ravel()) | set(int(x) for x in noise_preview)
        for row in range(v):
            if row not in touched:
                np.testing.assert_array_equal(grads["lm_u"][row], 0.0)


    def test_shard_keeps_few_arrays_per_padded_slot(self):
        """An NCE shard of B = 25 rows of T = 150 positions at d = 50 with
        M = 100 noise rows peaks at 15.5 (B, T, d) float64 arrays at most:
        the gate buffer and cell states (5 arrays), the outputs, the target
        rows of lm_u, the state gradient and the (B, T, M) noise terms (two
        arrays each at M = 100). A stored input or a contiguous copy of the
        outputs would take it past the bound (17 arrays with both)."""
        rng = make_rng(26)
        v, m = 13_000, 100
        params = init_language_model(v, ModelConfig(embedding_dim=50), rng)
        seqs = [list(rng.integers(0, v, size=151)) for _ in range(25)]
        q = unigram_noise_distribution(seqs, v)
        ids, targets, mask = next(_prediction_batches(seqs, [np.arange(25)]))
        noise = rng.choice(v, size=m, p=q)
        task = (ids, targets, mask, np.log(m * q[targets]), noise, np.log(m * q[noise]),
                mask.sum())
        tracemalloc.start()
        try:
            _nce_shard(params, *task)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        array_bytes = 25 * 150 * 50 * 8
        assert peak <= 15.5 * array_bytes, peak / array_bytes


def hand_perplexity(params, seqs):
    """Token-weighted perplexity of seqs, one softmax per position."""
    nll, count = 0.0, 0
    for seq in seqs:
        states = run_lstm(embed(seq[:-1], params.emb)[None], params)[0][0]
        for t, target in enumerate(seq[1:]):
            logits = params.lm_u @ states[t]
            probs = np.exp(logits - logits.max())
            probs /= probs.sum()
            nll -= np.log(probs[target])
            count += 1
    return np.exp(nll / count)


class TestPerplexity:
    def test_uniform_model_equals_vocab_size(self):
        v = 70
        config = ModelConfig(embedding_dim=6)
        params = init_language_model(v, config, make_rng(11))
        for t in params.tensors().values():
            t[...] = 0.0
        assert perplexity(params, [[1, 2, 3, 4], [5, 6]]) == pytest.approx(v, rel=1e-12)

    def test_matches_hand_summation_oracle(self):
        params = init_language_model(6, ModelConfig(embedding_dim=4), make_rng(12))
        seq = [3, 1, 4, 2, 5]
        assert perplexity(params, [seq]) == pytest.approx(hand_perplexity(params, [seq]),
                                                         rel=1e-10)

    def test_token_weighted_across_buckets(self, monkeypatch):
        params = init_language_model(9, ModelConfig(embedding_dim=4), make_rng(17))
        seqs = [[1, 2, 3, 4, 5, 6], [7, 8], [2, 2, 3], [8, 1, 5, 6, 7, 3, 4, 2], [4, 6, 1, 3],
                [5], [3, 7, 7]]
        usable = [s for s in seqs if len(s) >= 2]  # one token makes no prediction
        nll = sum((len(s) - 1) * np.log(perplexity(params, [s])) for s in usable)
        expected = np.exp(nll / sum(len(s) - 1 for s in usable))
        # an area of 8 cuts the input lengths into batches [1, 2], [2, 3], [5], [7]
        monkeypatch.setattr(model_module, "INFERENCE_ROW_STEPS", 8)
        assert perplexity(params, seqs) == pytest.approx(expected, abs=1e-12)

    def test_at_least_one(self):
        params = init_language_model(8, ModelConfig(embedding_dim=5), make_rng(13))
        assert perplexity(params, [[1, 2, 3]]) >= 1.0

    def test_empty_corpus_rejected(self):
        params = init_language_model(8, ModelConfig(embedding_dim=5), make_rng(14))
        with pytest.raises(PretrainError, match="empty"):
            perplexity(params, [])
        with pytest.raises(PretrainError, match="empty"):
            perplexity(params, [[1]])  # one token makes no prediction

    def test_peak_memory_bounded_by_the_inference_cut(self):
        # 20 held-out issues of 600 input tokens: as one batch, the (T, B, 4d)
        # gate buffer alone would be 19 MB. Cut at INFERENCE_ROW_STEPS slots,
        # one batch's encoder arrays (the embedded inputs until their
        # projection, the gate buffer, cells and the outputs: 56 * d bytes a
        # slot), the outputs and live states of the batch before (16 * d) and
        # the softmax's two logit blocks stay under this bound.
        d, v = 50, 500
        params = init_language_model(v, ModelConfig(embedding_dim=d), make_rng(24))
        rng = make_rng(25)
        seqs = [list(rng.integers(0, v, size=601)) for _ in range(20)]
        bound = (3 * 32 * d * model_module.INFERENCE_ROW_STEPS
                 + 2 * pretrain_module.SOFTMAX_CHUNK_BYTES)
        tracemalloc.start()
        try:
            perplexity(params, seqs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, f"peak {peak / 2**20:.1f} MiB"


def dense_softmax_step(ids, targets, mask, params):
    """The softmax objective over the whole padded (B, T, V) logits array."""
    positions = mask.sum()
    states, cache = encode(ids, mask, params)
    logp = log_softmax_rows(states @ params.lm_u.T)
    picked = np.take_along_axis(logp, targets[:, :, None], axis=2)[:, :, 0]
    loss = -float((picked * mask).sum())
    dlogits = np.exp(logp)
    np.add.at(dlogits, (*np.indices(targets.shape), targets), -1.0)
    dlogits *= (mask / positions)[:, :, None]
    grads = {name: np.zeros_like(getattr(params, name)) for name in (*PRETRAIN_TENSORS, "lm_u")}
    grads["lm_u"] += np.einsum("btv,btd->vd", dlogits, states)
    emb_ids, emb_rows = encode_backward(dlogits @ params.lm_u, cache, params, grads)
    grads["emb"][emb_ids] = emb_rows
    return loss / positions, grads


def prediction_batch(seqs):
    ids, mask = pad_batch([s[:-1] for s in seqs])
    targets, _ = pad_batch([s[1:] for s in seqs])
    return ids, targets, mask


class TestChunkedSoftmax:
    V, D = 6, 4
    # 9 live positions on a padded (3, 4) grid
    SEQS = [[3, 1, 4, 2, 5], [0, 2, 5], [1, 5, 3, 3]]

    def params(self, seed):
        params = init_language_model(self.V, ModelConfig(embedding_dim=self.D, highway_depth=1),
                                     make_rng(seed))
        for t in params.tensors().values():
            t += make_rng(seed + 1).normal(scale=0.5, size=t.shape)
        return params

    @pytest.mark.parametrize("rows", [1, 2, 4, 8, 9])
    def test_perplexity_matches_hand_summation_across_chunks(self, monkeypatch, rows):
        # 4 rows per block would give 4 + 4 + 1, 8 would give 8 + 1: the
        # one-row tail joins the block before it
        monkeypatch.setattr(pretrain_module, "SOFTMAX_CHUNK_BYTES", 8 * self.V * rows)
        params = self.params(20)
        expected = hand_perplexity(params, self.SEQS)
        assert perplexity(params, self.SEQS) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("rows", [1, 2, 4, 8, 9])
    def test_softmax_step_matches_dense_reference(self, monkeypatch, rows):
        monkeypatch.setattr(pretrain_module, "SOFTMAX_CHUNK_BYTES", 8 * self.V * rows)
        params = self.params(21)
        batch = prediction_batch(self.SEQS)
        loss, grads = _softmax_batch_step(*batch, params)
        grads = densified(grads, params)
        ref_loss, ref_grads = dense_softmax_step(*batch, params)
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        assert set(grads) == set(ref_grads)
        for name, ref in ref_grads.items():
            np.testing.assert_allclose(grads[name], ref, rtol=1e-12,
                                       atol=1e-12 * np.abs(ref).max(), err_msg=name)

    # (V, d, rows): 9 rows, so blocks of 4 and 8 would leave a one-row
    # tail; a vocabulary that ends in a ragged BLAS row tile, with blocks
    # on both sides of 12 rows, where OpenBLAS's SkylakeX dgemm changes path;
    # and tiny vocabularies, whose products OpenBLAS would give its
    # small-matrix kernel
    @pytest.mark.parametrize("shape", [(6, 4, 9), (1003, 50, 41), (40, 50, 41),
                                       (200, 50, 41), (600, 50, 41)])
    def test_target_logp_does_not_depend_on_the_block(self, monkeypatch, shape):
        v, d, n = shape
        rng = make_rng(v)
        params = SimpleNamespace(lm_u=rng.normal(scale=0.5, size=(v, d)))
        h, tgt = rng.normal(size=(n, d)), rng.integers(0, v, size=n)
        monkeypatch.setattr(pretrain_module, "SOFTMAX_CHUNK_BYTES", 8 * v * n)
        whole = _target_logp(params, h, tgt)
        assert whole.shape == (n,)
        for rows in range(1, 10):
            monkeypatch.setattr(pretrain_module, "SOFTMAX_CHUNK_BYTES", 8 * v * rows)
            assert _target_logp(params, h, tgt).tobytes() == whole.tobytes(), rows
        for i in range(n):  # a single live position
            assert _target_logp(params, h[i:i + 1], tgt[i:i + 1]).tobytes() == \
                whole[i:i + 1].tobytes(), i

    def test_peak_memory_bounded_at_large_vocabulary(self):
        # A dense (4, 60, 50k) float64 logits array alone is 96 MB. Here: two
        # buffers of an 11-row block of logits (4.2 MiB each) and, in the
        # softmax step, the dense gradient of lm_u and a block's term of it
        # (3.1 MiB each).
        v, bound = 50_000, 16 * 2**20
        params = init_language_model(v, ModelConfig(embedding_dim=8), make_rng(22))
        seqs = [list(make_rng(23 + i).integers(0, v, size=61)) for i in range(4)]
        batch = prediction_batch(seqs)
        for call in (lambda: perplexity(params, seqs),
                     lambda: _softmax_batch_step(*batch, params)):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, f"peak {peak / 2**20:.0f} MB"


class TestInitialization:
    @pytest.mark.parametrize("v, d", [(9, 4), (300, 50)])
    def test_draws_keep_their_place_in_the_stream(self, v, d):
        # init_params leaves the generator where drawing the head too would,
        # and init_language_model's head is the draw init_params skips
        config = ModelConfig(embedding_dim=d)
        reference = make_rng(5)
        expected = initial_draws(v, d, reference)
        for build in (init_params, init_language_model):
            rng = make_rng(5)
            params = build(v, config, rng)
            assert rng.bit_generator.state == reference.bit_generator.state, build.__name__
            names = list(expected) if build is init_language_model else list(expected)[:-1]
            assert list(params.tensors()) == names
            for name, tensor in params.tensors().items():
                assert tensor.tobytes() == expected[name].tobytes(), (build.__name__, name)
        assert [f.name for f in fields(ModelParams)] == list(expected)[:-1]


class TestPretrain:
    def test_zero_epochs_returns_initial_weights(self):
        vocab, seqs = periodic_corpus(copies=10, periods=2)
        config = ModelConfig(embedding_dim=5)
        initial = init_language_model(len(vocab), config, make_rng(1))
        result = pretrain(seqs, len(vocab), config,
                          PretrainConfig(epochs=0, nce_samples=2), seed=1)
        for name, tensor in initial.tensors().items():
            np.testing.assert_array_equal(result.params.tensors()[name], tensor)
        assert result.curve == []

    def test_same_seed_same_weights(self):
        vocab, seqs = periodic_corpus(copies=12, periods=2)
        config = ModelConfig(embedding_dim=5)
        cfg = PretrainConfig(epochs=4, batch_size=4, nce_samples=2, patience=10)
        r1 = pretrain(seqs, len(vocab), config, cfg, seed=7)
        r2 = pretrain(seqs, len(vocab), config, cfg, seed=7)
        for name in r1.params.tensors():
            np.testing.assert_array_equal(
                r1.params.tensors()[name], r2.params.tensors()[name]
            )

    def test_periodic_corpus_perplexity_drops(self):
        vocab, seqs = periodic_corpus()
        cfg = PretrainConfig(epochs=200, batch_size=16, nce_samples=4, patience=60)
        result = pretrain(seqs, len(vocab), ModelConfig(embedding_dim=8), cfg, seed=42)
        assert result.best_perplexity < 1.5  # entropy bound is 1.0
        assert result.best_perplexity >= 1.0

    def test_selection_never_worse_than_initial(self):
        vocab, seqs = periodic_corpus(copies=10, periods=2)
        config = ModelConfig(embedding_dim=5)
        initial = init_language_model(len(vocab), config, make_rng(2))
        initial_ppl = perplexity(initial, seqs[-1:])
        result = pretrain(seqs, len(vocab), config,
                          PretrainConfig(epochs=3, batch_size=4, nce_samples=2), seed=2)
        assert result.best_perplexity <= initial_ppl

    def test_early_stopping_bounded_by_patience(self):
        vocab, seqs = periodic_corpus(copies=12, periods=2)
        cfg = PretrainConfig(epochs=50, batch_size=4, nce_samples=2, patience=2)
        result = pretrain(seqs, len(vocab), ModelConfig(embedding_dim=5), cfg, seed=3)
        assert len(result.curve) <= result.best_epoch + cfg.patience + 1

    def test_nce_sample_cap(self):
        vocab, seqs = periodic_corpus(copies=6, periods=2)
        with pytest.raises(PretrainError, match="nce_samples"):
            pretrain(seqs, len(vocab), ModelConfig(embedding_dim=4),
                     PretrainConfig(nce_samples=len(vocab) + 1), seed=0)

    def test_noise_distribution_covers_everything(self):
        q = unigram_noise_distribution([[2, 2, 2]], 5)
        assert q.sum() == pytest.approx(1.0)
        assert np.all(q > 0)
        assert q[2] > q[3]

    def test_noise_distribution_is_that_of_add_one_counts(self):
        seqs = [[2, 2, 7], [], np.array([0, 9, 2]), [9]]
        counts = np.ones(10)
        for seq in seqs:
            np.add.at(counts, np.asarray(seq, dtype=np.int64), 1.0)
        weights = counts**0.75
        np.testing.assert_array_equal(unigram_noise_distribution(seqs, 10),
                                      weights / weights.sum())
        np.testing.assert_array_equal(unigram_noise_distribution([], 4), np.full(4, 0.25))

    def test_numeric_blow_up_aborts_with_best_weights(self):
        vocab, seqs = periodic_corpus(copies=10, periods=2)
        config = ModelConfig(embedding_dim=5)
        initial = init_language_model(len(vocab), config, make_rng(1))
        for objective in ("nce", "softmax"):
            cfg = PretrainConfig(epochs=5, batch_size=4, nce_samples=2,
                                 learning_rate=1e200, objective=objective)
            with np.errstate(all="ignore"):
                result = pretrain(seqs, len(vocab), config, cfg, seed=1)
            assert result.aborted is not None and result.aborted.startswith("epoch ")
            assert len(result.curve) < cfg.epochs  # stopped by the abort, not patience
            # no epoch beat the initial weights, so those are what comes back
            assert result.best_epoch == 0
            for name, tensor in initial.tensors().items():
                np.testing.assert_array_equal(result.params.tensors()[name], tensor)

    def test_infinite_validation_perplexity_aborts_with_best_weights(self):
        # a step this large saturates the weights without overflowing them:
        # every loss stays finite, but the held-out perplexity reads inf
        vocab, seqs = periodic_corpus(copies=10, periods=2)
        config = ModelConfig(embedding_dim=5)
        initial = init_language_model(len(vocab), config, make_rng(1))
        for objective in ("nce", "softmax"):
            cfg = PretrainConfig(epochs=5, batch_size=4, nce_samples=2,
                                 learning_rate=1e6, objective=objective)
            with np.errstate(all="ignore"):
                result = pretrain(seqs, len(vocab), config, cfg, seed=1)
            assert result.aborted is not None
            assert result.aborted.startswith("epoch 1: validation perplexity")
            assert result.curve == [] and result.best_epoch == 0
            for name, tensor in initial.tensors().items():
                np.testing.assert_array_equal(result.params.tensors()[name], tensor)
