"""The fork pool and the sharded, dealt computations that run on it.

Process counts are set by monkeypatching parallel.process_count, so the
two-process paths run whatever the CPU count of the host.
"""

import functools
import hashlib
import multiprocessing
import os
import signal
from contextlib import contextmanager

import numpy as np
import pytest
from oracles import densified, tree_height

from storypoint import baselines
from storypoint import model as model_module
from storypoint import parallel
from storypoint import pretrain as pretrain_module
from storypoint import trainer as trainer_module
from storypoint.cli import main
from storypoint.corpus import (build_vocabulary, load_bundled_corpus, split_chronological,
                               tokenize, write_corpus)
from storypoint.model import (ModelConfig, batch_forward, batch_loss_and_grads, document_vectors,
                              encode, inference_batches, init_params, make_dropout_masks,
                              pad_batch)
from storypoint.numerics import NumericError, make_rng
from storypoint.pretrain import (PretrainConfig, _nce_batch_step, _prediction_batches,
                                 _softmax_chunks, init_language_model, perplexity, pretrain,
                                 unigram_noise_distribution)
from storypoint.trainer import TrainConfig, predict_points, train

MC = ModelConfig(embedding_dim=10, highway_depth=2)


def processes(monkeypatch, count):
    monkeypatch.setattr(parallel, "process_count", lambda: count)


@contextmanager
def deadline(seconds):
    """Fail the test instead of hanging when a wait never returns."""
    def expire(*_):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def add(offset, x):
    return offset + x, os.getpid()


def fail_on(bad, x):
    if x in bad:
        raise NumericError(f"task {x}")
    return x


def read_shared(params, _):
    return params.emb.copy()


def pid_of(_):
    return os.getpid()


class TestPool:
    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_results_in_task_order(self, monkeypatch, count):
        # 3 processes: more than SHARDS and more workers than this host may
        # have cores; the worker pipes must still close cleanly
        processes(monkeypatch, count)
        with deadline(60), parallel.Pool(100) as pool:
            results = pool.map(add, [(x,) for x in range(7)], 100)
            again = pool.map(add, [(x,) for x in range(3)], 100)
        assert [r for r, _ in results] == list(range(100, 107))
        assert [r for r, _ in again] == [100, 101, 102]
        pids = {pid for _, pid in results + again}
        if count == 1:
            assert pids == {os.getpid()}
        else:  # this process and a worker both ran tasks
            assert os.getpid() in pids and 1 < len(pids) <= count
        assert multiprocessing.active_children() == []

    def test_one_process_forks_nothing(self, monkeypatch):
        processes(monkeypatch, 1)
        with parallel.Pool() as pool:
            pids = pool.map(pid_of, [(x,) for x in range(4)])
        assert pids == [os.getpid()] * 4

    @pytest.mark.parametrize("bad,raised", [({1}, "task 1"), ({0, 1}, "task 0")])
    def test_worker_exception_is_raised_here_and_pool_stays_usable(self, monkeypatch,
                                                                   bad, raised):
        processes(monkeypatch, 2)
        with deadline(60), parallel.Pool(bad) as pool:
            # of two tasks the worker runs the last and this process the
            # first; when both fail, the first in task order is raised
            with pytest.raises(NumericError, match=raised):
                pool.map(fail_on, [(0,), (1,)], bad)
            assert pool.map(fail_on, [(2,), (3,)], bad) == [2, 3]

    def test_other_shared_objects_rejected(self, monkeypatch):
        processes(monkeypatch, 1)
        with parallel.Pool([1]) as pool:
            with pytest.raises(ValueError):
                pool.map(add, [(1,)], [1])

    def test_shared_params_updates_reach_workers(self, monkeypatch):
        processes(monkeypatch, 2)
        params = init_params(20, MC, make_rng(0))
        before = params.emb.copy()
        parallel.share(params)
        assert np.array_equal(params.emb, before)
        with deadline(60), parallel.Pool(params) as pool:
            first = pool.map(read_shared, [(0,), (1,)], params)[1]
            params.emb += 1.0  # in place, as the optimizer step updates
            second = pool.map(read_shared, [(0,), (1,)], params)[1]
        assert np.array_equal(first, before)
        assert np.array_equal(second, before + 1.0)

    def test_killed_worker_raises_instead_of_hanging(self, monkeypatch):
        processes(monkeypatch, 2)
        with deadline(60), parallel.Pool() as pool:
            victim = pool._workers[0][0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(10)
            with pytest.raises(parallel.WorkerError):
                pool.map(pid_of, [(0,), (1,)])
        assert multiprocessing.active_children() == []

    def test_worker_killed_during_a_task_raises(self, monkeypatch):
        processes(monkeypatch, 2)
        here = os.getpid()
        with deadline(60), parallel.Pool(here) as pool:
            with pytest.raises(parallel.WorkerError):
                pool.map(killed_in_worker, [(0,), (1,)], here)
            with pytest.raises(parallel.WorkerError):  # a broken pool stays broken
                pool.map(add, [(0,), (1,)], here)

    @pytest.mark.parametrize("inside", ["map", "with"])
    def test_pool_left_on_an_exception_leaves_no_process(self, monkeypatch, inside):
        processes(monkeypatch, 2)
        bad = {1}
        with deadline(60), pytest.raises(NumericError):
            with parallel.Pool(bad) as pool:
                assert pool.map(fail_on, [(0,), (2,)], bad) == [0, 2]
                if inside == "with":
                    raise NumericError("outside a task")
                pool.map(fail_on, [(0,), (1,)], bad)
        assert multiprocessing.active_children() == []


def sequences(seed, n, vocab=40, longest=30):
    rng = make_rng(seed)
    return [list(rng.integers(1, vocab, size=k)) for k in rng.integers(2, longest, size=n)]


def test_without_a_pool_everything_runs_here(monkeypatch):
    # pool=None means this process at every dispatch site: only the code
    # that owns a run (train, pretrain, estimate, baseline) creates a pool
    processes(monkeypatch, 2)

    def no_pool(*_):
        raise AssertionError("a pool was created")

    monkeypatch.setattr(parallel.Pool, "__init__", no_pool)
    monkeypatch.setattr(model_module, "INFERENCE_ROW_STEPS", 8 * 29)
    params = init_language_model(40, MC, make_rng(3))
    seqs = sequences(4, 37)
    assert len(inference_batches([len(s) for s in seqs])) >= 3
    with deadline(60):
        assert predict_points(params, MC, seqs).shape == (37,)
        assert document_vectors(seqs, params).shape == (37, MC.embedding_dim)
        assert predict_points(params, MC, []).shape == (0,)
        assert document_vectors([], params).shape == (0, MC.embedding_dim)
        assert np.isfinite(perplexity(params, seqs))
        loss, _, _ = batch_loss_and_grads(seqs[:9], np.ones(9), params, MC)
        assert np.isfinite(loss)
        (batch,) = list(_prediction_batches(seqs, [range(len(seqs))]))
        loss, _ = _nce_batch_step(*batch, params, unigram_noise_distribution(seqs, 40), 7,
                                  make_rng(4))
        assert np.isfinite(loss)


class TestInferenceArea:
    """A long-tail input: 300 short sequences, four of 400 tokens and one
    longer than INFERENCE_ROW_STEPS. Every inference batch fits the padded
    area or holds one row, and the results keep input order and bytes."""

    @pytest.fixture
    def params(self):
        return init_params(40, MC, make_rng(3))

    @pytest.fixture
    def seqs(self):
        rng = make_rng(11)
        lengths = [*rng.integers(3, 40, size=300), 400, 400, 400, 400,
                   model_module.INFERENCE_ROW_STEPS + 404]
        seqs = [list(rng.integers(1, 40, size=lengths[i]))
                for i in rng.permutation(len(lengths))]
        assert len({tuple(s) for s in seqs}) == len(seqs)  # rows name their index
        return seqs

    @pytest.mark.parametrize("module, batch_fn, shared", [
        (trainer_module, "_predict_batch", lambda params: (params, MC)),
        (model_module, "_vector_batch", lambda params: (params,)),
    ], ids=["predict_points", "document_vectors"])
    def test_batches_bounded_and_results_in_order(self, monkeypatch, params, seqs,
                                                  module, batch_fn, shared):
        shared = shared(params)

        def infer(pool=None):
            if batch_fn == "_predict_batch":
                return predict_points(params, MC, seqs, pool=pool)
            return document_vectors(seqs, params, pool=pool)

        batches = []
        real = getattr(module, batch_fn)

        def spy(*args):
            rows = real(*args)
            batches.append((args[-1], rows))
            return rows

        with monkeypatch.context() as patch:
            patch.setattr(module, batch_fn, spy)
            got = infer()
        index = {tuple(s): i for i, s in enumerate(seqs)}
        seen, want = [], np.empty_like(got)
        for batch, rows in batches:
            longest = max(len(s) for s in batch)
            assert len(batch) * longest <= model_module.INFERENCE_ROW_STEPS or len(batch) == 1
            for seq, row in zip(batch, rows):
                seen.append(index[tuple(seq)])
                want[seen[-1]] = row
        assert sorted(seen) == list(range(len(seqs)))
        assert len(batches) > 2
        if batch_fn == "_predict_batch":
            want = np.maximum(want, 0.0)
        assert got.tobytes() == want.tobytes()
        for count in (1, 2):
            processes(monkeypatch, count)
            with deadline(60), parallel.Pool(*shared) as pool:
                assert infer(pool).tobytes() == got.tobytes()


class TestDealtInferenceBytes:
    """Dealt batches are computed whole: the same bytes as the in-process
    loop over inference_batches, at one process and at two."""

    @pytest.fixture
    def params(self):
        return init_language_model(40, MC, make_rng(3))

    @pytest.mark.parametrize("count", [1, 2])
    def test_predict_points(self, monkeypatch, params, count):
        monkeypatch.setattr(model_module, "INFERENCE_ROW_STEPS", 8 * 29)
        seqs = sequences(4, 37)
        expected = np.empty(len(seqs))
        for idx in inference_batches([len(s) for s in seqs]):
            ids, mask = pad_batch([seqs[i] for i in idx])
            expected[idx] = batch_forward(ids, mask, params, MC)[0]
        processes(monkeypatch, count)
        with deadline(60), parallel.Pool(params, MC) as pool:
            got = predict_points(params, MC, seqs, pool=pool)
        assert got.tobytes() == np.maximum(expected, 0.0).tobytes()

    @pytest.mark.parametrize("count", [1, 2])
    def test_document_vectors(self, monkeypatch, params, count):
        monkeypatch.setattr(model_module, "INFERENCE_ROW_STEPS", 6 * 29)
        seqs = sequences(5, 29)
        expected = np.empty((len(seqs), MC.embedding_dim))
        for idx in inference_batches([len(s) for s in seqs]):
            ids, mask = pad_batch([seqs[i] for i in idx])
            states, _ = encode(ids, mask, params)
            expected[idx] = (states * mask[:, :, None]).sum(axis=1) / mask.sum(axis=1)[:, None]
        processes(monkeypatch, count)
        with deadline(60), parallel.Pool(params) as pool:
            got = document_vectors(seqs, params, pool=pool)
        assert got.tobytes() == expected.tobytes()

    @staticmethod
    def in_process_perplexity(params, seqs):
        total_nll, total_count = 0.0, 0
        batches = inference_batches([len(s) - 1 for s in seqs])
        for ids, targets, mask in _prediction_batches(seqs, batches):
            states, _ = encode(ids, mask, params)
            live = mask > 0
            picked = np.zeros(mask.shape)
            picked[live] = np.concatenate(
                [logp for *_, logp in _softmax_chunks(states[live], targets[live], params.lm_u)])
            total_nll -= float(picked.sum())
            total_count += int(live.sum())
        return float(np.exp(total_nll / total_count))

    @pytest.mark.parametrize("count", [1, 2])
    def test_perplexity(self, monkeypatch, params, count):
        monkeypatch.setattr(model_module, "INFERENCE_ROW_STEPS", 5 * 28)
        seqs = sequences(6, 23)
        assert len(inference_batches([len(s) - 1 for s in seqs])) >= 3
        expected = self.in_process_perplexity(params, seqs)
        processes(monkeypatch, count)
        with deadline(60), parallel.Pool(params) as pool:
            got = perplexity(params, seqs, pool=pool)
        assert got == expected

    @pytest.mark.parametrize("count", [1, 2])
    @pytest.mark.parametrize("rows", [1, 3, 7])
    def test_single_batch_perplexity_chunks(self, monkeypatch, params, count, rows):
        # one length batch of 12 sequences, its live rows cut into the
        # shard_bounds spans of unit lengths and each span's softmax into
        # blocks of `rows` rows; the expected value takes them all as one span
        monkeypatch.setattr(pretrain_module, "SOFTMAX_CHUNK_BYTES", 8 * 40 * rows)
        seqs = sequences(7, 12)
        expected = self.in_process_perplexity(params, seqs)
        processes(monkeypatch, count)
        with deadline(60), parallel.Pool(params) as pool:
            got = perplexity(params, seqs, pool=pool)
        assert got == expected
        assert perplexity(params, seqs) == expected
        assert perplexity(params, seqs, pool=pool) == expected  # closed: runs here


class TestShards:
    def test_bounds_split_the_padded_area_evenly(self):
        assert parallel.shard_bounds([5] * 100) == [(0, 50), (50, 100)]
        assert parallel.shard_bounds([5] * 99) == [(0, 49), (49, 99)]
        assert parallel.shard_bounds([3]) == [(0, 1)]
        # unit lengths, as perplexity spans and forest seeds cut them: n // 2
        assert parallel.shard_bounds([1]) == [(0, 1)]
        assert parallel.shard_bounds([1] * 2) == [(0, 1), (1, 2)]
        assert parallel.shard_bounds([1] * 3) == [(0, 1), (1, 3)]
        assert parallel.shard_bounds([1] * 99) == [(0, 49), (49, 99)]
        assert parallel.shard_bounds([1] * 100) == [(0, 50), (50, 100)]
        # a long tail: 30 rows up to 400 long go alone, 70 rows up to 160 together
        tail = list(range(91, 161)) + list(range(371, 401))
        assert parallel.shard_bounds(tail) == [(0, 70), (70, 100)]

    def batch(self):
        rng = make_rng(8)
        config = ModelConfig(embedding_dim=6, highway_depth=2)
        params = init_params(50, config, rng)
        seqs = sorted(sequences(9, 37, vocab=50), key=len)
        return params, config, seqs, rng.uniform(1, 13, size=len(seqs))

    @staticmethod
    def keep_bits(seqs, config, seed):
        return make_dropout_masks(len(seqs), max(len(s) for s in seqs), config, make_rng(seed))

    def test_pool_gives_the_in_process_bytes(self, monkeypatch):
        params, config, seqs, y = self.batch()
        masks = self.keep_bits(seqs, config, 1)
        expected = batch_loss_and_grads(seqs, y, params, config, masks=masks)
        processes(monkeypatch, 2)
        with deadline(60), parallel.Pool(params, config) as pool:
            got = batch_loss_and_grads(seqs, y, params, config, masks=masks, pool=pool)
        assert got[0] == expected[0] and got[1].tobytes() == expected[1].tobytes()
        assert list(got[2]) == list(expected[2])
        for name in expected[2]:
            assert got[2][name].tobytes() == expected[2][name].tobytes(), name

    def test_shards_sum_to_the_whole_batch(self, monkeypatch):
        params, config, seqs, y = self.batch()
        masks = self.keep_bits(seqs, config, 2)
        sharded = batch_loss_and_grads(seqs, y, params, config, masks=masks)
        monkeypatch.setattr(model_module, "shard_bounds", lambda lengths: [(0, len(lengths))])
        whole = batch_loss_and_grads(seqs, y, params, config, masks=masks)
        assert sharded[0] == pytest.approx(whole[0], rel=1e-13)
        np.testing.assert_allclose(sharded[1], whole[1], rtol=1e-13)
        for name, grad in whole[2].items():
            np.testing.assert_allclose(sharded[2][name], grad, rtol=1e-10, atol=1e-15,
                                       err_msg=name)


def grad_bytes(grad):
    return b"".join(part.tobytes() for part in (grad if isinstance(grad, tuple) else (grad,)))


class TestNceShards:
    def batch(self):
        params = init_language_model(50, MC, make_rng(10))
        seqs = sequences(11, 30, vocab=50)
        (batch,) = list(_prediction_batches(seqs, inference_batches([len(s) - 1 for s in seqs])))
        return params, batch, unigram_noise_distribution(seqs, 50)

    def test_shards_sum_to_the_whole_batch(self, monkeypatch):
        params, batch, noise = self.batch()
        assert len(parallel.shard_bounds(batch[2].sum(axis=1))) == 2
        sharded = _nce_batch_step(*batch, params, noise, 7, make_rng(3))
        monkeypatch.setattr(pretrain_module, "shard_bounds", lambda lengths: [(0, len(lengths))])
        whole = _nce_batch_step(*batch, params, noise, 7, make_rng(3))
        assert sharded[0] == pytest.approx(whole[0], rel=1e-13)
        got, expected = densified(sharded[1], params), densified(whole[1], params)
        assert list(got) == list(expected)
        for name, grad in expected.items():
            np.testing.assert_allclose(got[name], grad, rtol=1e-10, atol=1e-15, err_msg=name)

    def test_pool_gives_the_in_process_bytes(self, monkeypatch):
        params, batch, noise = self.batch()
        expected = _nce_batch_step(*batch, params, noise, 7, make_rng(4))
        processes(monkeypatch, 2)
        with deadline(60), parallel.Pool(params) as pool:
            got = _nce_batch_step(*batch, params, noise, 7, make_rng(4), pool=pool)
        assert got[0] == expected[0] and list(got[1]) == list(expected[1])
        for name, grad in expected[1].items():
            assert grad_bytes(got[1][name]) == grad_bytes(grad), name


@pytest.fixture(scope="module")
def split64():
    return split_chronological(load_bundled_corpus())


def in_worker(parent_pid):
    return os.getpid() != parent_pid


# The pool sends a task's function by import path, so the stand-ins patched
# over model.shard_loss_and_grads are module-level functions.
SHARD = model_module.shard_loss_and_grads
# Calls made in workers, counted across them: a test sets a fresh
# multiprocessing.Value here before its pool forks, so the count does not
# depend on which worker ran which shard.
WORKER_CALLS = None


def worker_calls(monkeypatch):
    monkeypatch.setitem(globals(), "WORKER_CALLS", multiprocessing.Value("i", 0))


def worker_call_number(parent_pid):
    """1, 2, ... for the calls made in workers; 0 for a call made here."""
    if not in_worker(parent_pid):
        return 0
    with WORKER_CALLS.get_lock():
        WORKER_CALLS.value += 1
        return WORKER_CALLS.value


def shard_failing_in_worker(parent_pid, fail_after, *args):
    if worker_call_number(parent_pid) > fail_after:
        raise NumericError("overflow in a worker")
    return SHARD(*args)


def killed_in_worker(parent_pid, x):
    if in_worker(parent_pid):
        os.kill(os.getpid(), signal.SIGKILL)
    return x


def shard_killing_worker(parent_pid, *args):
    if in_worker(parent_pid):
        os.kill(os.getpid(), signal.SIGKILL)
    return SHARD(*args)


class TestShardedTraining:
    def test_worker_numeric_error_aborts_with_best_weights(self, monkeypatch, split64):
        # 38 training issues in batches of 16: three batches an epoch, and
        # the worker computes the second shard of each
        cfg = TrainConfig(epochs=4, batch_size=16, seed=5)
        processes(monkeypatch, 2)
        one_epoch = train(split64, MC, TrainConfig(epochs=1, batch_size=16, seed=5))
        worker_calls(monkeypatch)
        monkeypatch.setattr(model_module, "shard_loss_and_grads",
                            functools.partial(shard_failing_in_worker, os.getpid(), 3))
        with deadline(120):
            result = train(split64, MC, cfg)
        assert result.aborted == "epoch 2: overflow in a worker"
        assert result.best_epoch == 1 and len(result.curve) == 1
        assert result.curve == one_epoch.curve
        for name, tensor in one_epoch.checkpoint.tensors.items():
            assert np.array_equal(result.checkpoint.tensors[name], tensor), name

    def test_killed_worker_makes_train_raise(self, monkeypatch, split64):
        processes(monkeypatch, 2)
        monkeypatch.setattr(model_module, "shard_loss_and_grads",
                            functools.partial(shard_killing_worker, os.getpid()))
        with deadline(60), pytest.raises(parallel.WorkerError, match="exited with code -9"):
            train(split64, MC, TrainConfig(epochs=3, batch_size=16, seed=5))


NCE_SHARD = pretrain_module._nce_shard


def nce_shard_failing_in_worker(parent_pid, fail_after, params, *task):
    if worker_call_number(parent_pid) > fail_after:
        raise NumericError("overflow in a worker")
    return NCE_SHARD(params, *task)


def test_worker_numeric_error_aborts_pretrain_with_best_weights(monkeypatch):
    # "a b c" repeated: 41 training sequences of one length in batches of
    # 16, three an epoch, each cut in two shards; the worker computes the
    # second shard of each. At this seed epoch 4 is the first to beat the
    # initial held-out perplexity.
    docs = [tokenize(("a b c " * 10).strip(), "word") for _ in range(45)]
    vocab = build_vocabulary(docs, min_count=1)
    seqs = [vocab.encode(d) for d in docs]
    config = ModelConfig(embedding_dim=8, highway_depth=1)
    processes(monkeypatch, 2)
    with deadline(120):
        four_epochs = pretrain(seqs, len(vocab), config,
                               PretrainConfig(epochs=4, batch_size=16, nce_samples=4), seed=5)
        assert four_epochs.best_epoch == 4
        worker_calls(monkeypatch)
        monkeypatch.setattr(pretrain_module, "_nce_shard",
                            functools.partial(nce_shard_failing_in_worker, os.getpid(), 12))
        result = pretrain(seqs, len(vocab), config,
                          PretrainConfig(epochs=8, batch_size=16, nce_samples=4), seed=5)
    assert result.aborted == "epoch 5: overflow in a worker"
    assert result.best_epoch == 4 and result.curve == four_epochs.curve
    for name, tensor in four_epochs.params.tensors().items():
        assert np.array_equal(result.params.tensors()[name], tensor), name


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_cli_artifacts_identical_at_one_and_two_processes(monkeypatch, tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(load_bundled_corpus(), corpus)
    split = tmp_path / "split"
    assert run_cli("prepare", "--in", corpus, "--out-dir", split, "--min-project-size", 0) == 0
    # small softmax chunks, so perplexity deals several to the worker
    monkeypatch.setattr(pretrain_module, "SOFTMAX_CHUNK_BYTES", 2**16)
    digests = []
    for count in (1, 2):
        processes(monkeypatch, count)
        out = tmp_path / f"p{count}"
        with deadline(120):
            assert run_cli("pretrain", "--corpus", split / "train.jsonl", "--vocab",
                           split / "vocab.txt", "--out-dir", out, "--dim", 8, "--depth", 2,
                           "--epochs", 3, "--batch-size", 16, "--nce-samples", 5,
                           "--seed", 3) == 0
            assert run_cli("train", "--split-dir", split, "--out-dir", out, "--dim", 8,
                           "--depth", 2, "--epochs", 4, "--batch-size", 16, "--seed", 3,
                           "--pretrained", out / "pretrain.ckpt") == 0
            assert run_cli("estimate", "--checkpoint", out / "model.ckpt", "--vocab",
                           out / "vocab.txt", "--in", split / "test.jsonl",
                           "--out", out / "estimates.csv") == 0
            for forest in ("bow-rf", "lstm-rf"):
                assert run_cli("baseline", "--model", forest, "--split-dir", split,
                               "--in", split / "test.jsonl", "--out", out / f"{forest}.csv",
                               "--checkpoint", out / "model.ckpt") == 0
        digests.append({name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                        for name in ("pretrain.ckpt", "pretrain_log.csv", "model.ckpt",
                                     "train_log.csv", "estimates.csv", "bow-rf.csv",
                                     "lstm-rf.csv")})
    assert digests[0] == digests[1]


def test_cli_commands_leave_no_process(monkeypatch, tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(load_bundled_corpus(), corpus)
    split, out = tmp_path / "split", tmp_path / "out"
    assert run_cli("prepare", "--in", corpus, "--out-dir", split, "--min-project-size", 0) == 0
    processes(monkeypatch, 2)
    commands = [
        ("pretrain", "--corpus", split / "train.jsonl", "--vocab", split / "vocab.txt",
         "--out-dir", out, "--dim", 8, "--depth", 2, "--epochs", 1, "--batch-size", 16,
         "--nce-samples", 5),
        ("train", "--split-dir", split, "--out-dir", out, "--dim", 8, "--depth", 2,
         "--epochs", 1, "--batch-size", 16, "--pretrained", out / "pretrain.ckpt"),
        ("estimate", "--checkpoint", out / "model.ckpt", "--vocab", out / "vocab.txt",
         "--in", split / "test.jsonl", "--out", out / "estimates.csv"),
        *(("baseline", "--model", forest, "--split-dir", split, "--in", split / "test.jsonl",
           "--out", out / f"{forest}.csv", "--checkpoint", out / "model.ckpt")
          for forest in ("bow-rf", "lstm-rf")),
    ]
    for argv in commands:
        with deadline(120):
            assert run_cli(*argv) == 0
        assert multiprocessing.active_children() == [], argv[0]


def forest_data(kind):
    rng = make_rng(41)
    if kind == "bow":  # sparse, mostly tied counts, as bag-of-words rows
        x = rng.poisson(0.08, size=(40, 300)).astype(float)
    else:
        x = rng.normal(size=(40, 12))
    return x, rng.choice([1.0, 2.0, 3.0, 5.0, 8.0], size=40)


@pytest.mark.parametrize("kind", ["bow", "dense"])
@pytest.mark.parametrize("n_trees", [1, 2, 7, 100])
@pytest.mark.parametrize("count", [1, 2, 3])
def test_dealt_forest_equals_forest_grown_here(monkeypatch, count, n_trees, kind):
    x, y = forest_data(kind)
    here = baselines.rf_fit(x, y, n_trees=n_trees, rng=make_rng(7))
    processes(monkeypatch, count)
    task_counts = []

    def counted_run(fn, tasks, *shared, pool=None):
        task_counts.append(len(tasks))
        return parallel.run(fn, tasks, *shared, pool=pool)

    monkeypatch.setattr(baselines, "run", counted_run)
    with deadline(120), parallel.Pool(x, y) as pool:
        dealt = baselines.rf_fit(x, y, n_trees=n_trees, rng=make_rng(7), pool=pool)
    assert task_counts == [min(n_trees, 2)]  # one tree is one task
    assert len(dealt.trees) == n_trees
    assert dealt.trees == here.trees


def test_deep_forest_is_the_same_at_one_and_two_processes(monkeypatch):
    # every split peels off the row with the largest target, so the trees
    # are chains deeper than the recursion limit
    n = 600
    x = np.arange(float(n))[:, None]
    y = 100 * 0.5 ** np.arange(n)
    forests = []
    for count in (1, 2):
        processes(monkeypatch, count)
        with deadline(120), parallel.Pool(x, y) as pool:
            forests.append(baselines.rf_fit(x, y, n_trees=4, rng=make_rng(0), pool=pool))
    assert max(tree_height(t) for t in forests[0].trees) > 300
    assert forests[0].trees == forests[1].trees
