import numpy as np
import pytest

from storypoint import model as model_module
from storypoint import trainer as trainer_module
from storypoint.corpus import (
    Vocabulary,
    load_bundled_corpus,
    split_chronological,
    tokenize,
)
from storypoint.model import (PRETRAIN_TENSORS, ModelConfig, batch_forward, init_params,
                              load_checkpoint, pad_batch, save_checkpoint, zero_params)
from storypoint.numerics import make_rng
from storypoint.trainer import (
    TrainConfig,
    TrainerError,
    cross_project_train,
    encode_issue,
    estimate,
    predict_points,
    train,
)

MC = ModelConfig(embedding_dim=10, highway_depth=2)


@pytest.fixture(scope="module")
def corpus64():
    return load_bundled_corpus()


@pytest.fixture(scope="module")
def split64(corpus64):
    return split_chronological(corpus64)


@pytest.fixture(scope="module")
def trained(split64):
    cfg = TrainConfig(epochs=120, batch_size=16, patience=120, seed=42)
    return train(split64, MC, cfg)


def train_mae(result, split):
    params = result.checkpoint.to_params()
    seqs = [encode_issue(r, result.vocab) for r in split.train]
    actual = np.array([r.story_points for r in split.train])
    return float(np.mean(np.abs(predict_points(params, MC, seqs) - actual)))


class TestTrain:
    def test_keyword_corpus_overfits(self, corpus64, split64):
        # 16-issue variant: story points are decided by one title token, so
        # the network should drive training error near zero
        split = split_chronological(corpus64[:16])
        cfg = TrainConfig(epochs=300, batch_size=10, patience=300, seed=42)
        result = train(split, MC, cfg)
        assert train_mae(result, split) < 0.5

    def test_identical_seeds_identical_curves_and_weights(self, split64):
        cfg = TrainConfig(epochs=6, batch_size=16, patience=10, seed=9)
        r1 = train(split64, MC, cfg)
        r2 = train(split64, MC, cfg)
        assert r1.curve == r2.curve
        for name, tensor in r1.checkpoint.tensors.items():
            np.testing.assert_array_equal(tensor, r2.checkpoint.tensors[name])

    def test_checkpoint_bytes_reproducible(self, split64, tmp_path):
        cfg = TrainConfig(epochs=4, batch_size=16, seed=5)
        paths = []
        for run in range(2):
            r = train(split64, MC, cfg)
            path = tmp_path / f"run{run}.ckpt"
            save_checkpoint(path, "model", MC, r.checkpoint.vocab_hash, r.checkpoint.tensors)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_own_vocabulary_trains_as_the_same_vocabulary_given(self, split64):
        # with no vocabulary, train encodes the documents it built one from;
        # with one given, it encodes each issue: the same sequences
        cfg = TrainConfig(epochs=2, batch_size=16, seed=5)
        built = train(split64, MC, cfg)
        given = train(split64, MC, cfg, vocab=built.vocab)
        assert built.curve == given.curve
        for name, tensor in built.checkpoint.tensors.items():
            assert tensor.tobytes() == given.checkpoint.tensors[name].tobytes(), name

    def test_best_checkpoint_tracks_curve_minimum(self, trained):
        curve_maes = [row["valid_mae"] for row in trained.curve]
        assert trained.best_valid_mae == pytest.approx(min(curve_maes))
        assert all(trained.best_valid_mae <= m for m in curve_maes)

    def test_patience_zero_stops_one_epoch_past_improvement(self, split64):
        cfg = TrainConfig(epochs=200, batch_size=16, patience=0, seed=1)
        result = train(split64, MC, cfg)
        *improving, last = result.curve
        best = float("inf")
        for row in improving:
            assert row["valid_mae"] < best
            best = row["valid_mae"]
        if len(result.curve) < cfg.epochs:
            assert last["valid_mae"] >= best

    def test_vocabulary_never_sees_test_tokens(self, split64, trained):
        test_only = set()
        for r in split64.test:
            test_only.update(tokenize(r.title, "word"))
        for r in split64.train + split64.valid:
            test_only.difference_update(tokenize(r.title, "word"))
        assert test_only  # the construction leaves some test-only tokens
        for tok in test_only:
            assert tok not in trained.vocab.index

    def test_test_partition_never_influences_training(self, split64, corpus64):
        cfg = TrainConfig(epochs=4, batch_size=16, seed=3)
        r1 = train(split64, MC, cfg)
        mangled = split_chronological(corpus64)
        for r in mangled.test:
            r.title = "completely different text now"
            r.story_points = 77.0
        r2 = train(mangled, MC, cfg)
        for name, tensor in r1.checkpoint.tensors.items():
            np.testing.assert_array_equal(tensor, r2.checkpoint.tensors[name])

    def test_abort_on_numeric_overflow_keeps_last_good_weights(self, split64):
        cfg = TrainConfig(epochs=10, batch_size=16, seed=2, learning_rate=1e154)
        result = train(split64, MC, cfg)
        assert result.aborted is not None
        for tensor in result.checkpoint.tensors.values():
            assert np.all(np.isfinite(tensor))

    def test_non_finite_validation_mae_aborts_with_best_weights(self, split64, monkeypatch):
        monkeypatch.setattr(trainer_module, "predict_points",
                            lambda params, config, seqs, pool=None: np.full(len(seqs), np.nan))
        cfg = TrainConfig(epochs=5, batch_size=16, seed=2)
        result = train(split64, MC, cfg)
        assert result.aborted == "epoch 1: validation MAE is nan"
        assert result.curve == [] and result.best_epoch == 0
        # the initial weights come back, drawn as train draws them
        initial = init_params(len(result.vocab), MC, make_rng(cfg.seed))
        for name, tensor in initial.tensors().items():
            np.testing.assert_array_equal(result.checkpoint.tensors[name], tensor)

    def test_curve_rows_have_log_fields(self, trained):
        row = trained.curve[0]
        assert set(row) == {"epoch", "train_loss", "valid_mae", "best_valid_mae"}

    def test_empty_valid_rejected(self, split64):
        from storypoint.corpus import SplitDataset

        bad = SplitDataset(train=split64.train, valid=[], test=split64.test)
        with pytest.raises(TrainerError):
            train(bad, MC, TrainConfig(epochs=1))


class TestEstimate:
    def test_empty_issue_list(self, trained):
        assert estimate(trained.checkpoint, trained.vocab, []) == []

    def test_same_issue_twice_identical(self, trained, split64):
        issue = split64.test[0]
        twice = estimate(trained.checkpoint, trained.vocab, [issue, issue])
        assert twice[0][1] == twice[1][1]

    def test_order_preserved_and_clamped(self, trained, split64):
        ests = estimate(trained.checkpoint, trained.vocab, split64.test)
        assert [k for k, _ in ests] == [r.issue_key for r in split64.test]
        assert all(v >= 0 for _, v in ests)

    def test_predict_points_matches_forward_issue_across_buckets(self, monkeypatch):
        # an area of 8 cuts the lengths into batches [8], [7], [3, 4], [1, 2]
        monkeypatch.setattr(model_module, "INFERENCE_ROW_STEPS", 8)
        rng = make_rng(3)
        params = init_params(12, MC, rng)
        for t in params.tensors().values():
            t[...] = rng.uniform(-0.5, 0.5, t.shape)
        seqs = [[1, 2, 3, 4, 5, 6, 7], [8], [2, 9, 11, 3], [5, 5], [10, 1, 4, 7, 2, 6, 8, 9],
                [3, 11, 0]]
        # shifting the bias puts half the raw estimates below zero
        params.reg_b[0] -= np.median([batch_forward(*pad_batch([s]), params, MC)[0][0]
                                      for s in seqs])
        expected = [max(batch_forward(*pad_batch([s]), params, MC)[0][0], 0.0) for s in seqs]
        assert 0 < expected.count(0.0) < len(seqs)
        np.testing.assert_allclose(predict_points(params, MC, seqs), expected,
                                   atol=1e-12)

    def test_zero_checkpoint_gives_bias_everywhere(self, split64, trained):
        params = zero_params(len(trained.vocab), MC)
        params.reg_b[0] = 3.25
        from storypoint.model import Checkpoint

        ckpt = Checkpoint(kind="model", config=MC,
                          vocab_hash=trained.vocab.content_hash(),
                          tensors=params.tensors())
        for _, value in estimate(ckpt, trained.vocab, split64.test):
            assert value == pytest.approx(3.25)

    def test_vocab_mismatch_rejected(self, trained, split64):
        other = Vocabulary(tokens=["<unk>", "<eos>", "zzz"], mode="word")
        with pytest.raises(TrainerError, match="vocabulary"):
            estimate(trained.checkpoint, other, split64.test)


class TestPretrainedHandoff:
    def test_pretrained_tensors_are_loaded(self, split64, tmp_path, trained):
        donor = trained.checkpoint
        partial = {k: donor.tensors[k] for k in PRETRAIN_TENSORS}
        partial["lm_u"] = make_rng(5).uniform(-0.05, 0.05, donor.tensors["emb"].shape)
        path = tmp_path / "pre.ckpt"
        save_checkpoint(path, "pretrain", MC, donor.vocab_hash, partial)
        cfg = TrainConfig(epochs=1, batch_size=16, seed=4)
        result = train(split64, MC, cfg, vocab=trained.vocab,
                       pretrained=load_checkpoint(path))
        assert result.best_epoch == 1

    def test_train_starts_from_the_encoder_alone(self, split64, tmp_path, trained,
                                                 monkeypatch):
        # a checkpoint with every tensor of a trained model and a head: train
        # takes PRETRAIN_TENSORS from it and draws the rest as without one.
        # A NaN validation MAE aborts epoch 1, so the initial weights come back.
        monkeypatch.setattr(trainer_module, "predict_points",
                            lambda params, config, seqs, pool=None: np.full(len(seqs), np.nan))
        donor = trained.checkpoint
        head = make_rng(6).uniform(-0.05, 0.05, donor.tensors["emb"].shape)
        path = tmp_path / "pre.ckpt"
        save_checkpoint(path, "pretrain", MC, donor.vocab_hash, {**donor.tensors, "lm_u": head})
        cfg = TrainConfig(epochs=3, batch_size=16, seed=4)
        result = train(split64, MC, cfg, vocab=trained.vocab, pretrained=load_checkpoint(path))
        assert result.aborted == "epoch 1: validation MAE is nan"
        drawn = init_params(len(trained.vocab), MC, make_rng(cfg.seed)).tensors()
        assert list(result.checkpoint.tensors) == list(drawn)
        for name, tensor in result.checkpoint.tensors.items():
            source = donor.tensors if name in PRETRAIN_TENSORS else drawn
            assert not np.array_equal(donor.tensors[name], drawn[name]), name
            np.testing.assert_array_equal(tensor, source[name], err_msg=name)

    def test_pretrained_vocab_hash_must_match(self, split64, tmp_path):
        params = zero_params(5, MC)
        path = tmp_path / "pre.ckpt"
        save_checkpoint(path, "pretrain", MC, "not-the-right-hash", params.tensors())
        with pytest.raises(TrainerError, match="vocabulary"):
            train(split64, MC, TrainConfig(epochs=1), pretrained=load_checkpoint(path))


class TestCrossProject:
    def test_source_equals_target_reduces_to_within_project(self, split64):
        cfg = TrainConfig(epochs=4, batch_size=16, seed=6)
        direct = train(split64, MC, cfg)
        direct_est = estimate(direct.checkpoint, direct.vocab, split64.test)
        cross = cross_project_train(split64, split64.test, MC, cfg)
        assert cross.estimates == direct_est

    def test_shared_rule_keeps_cross_error_comparable(self, corpus64):
        split_a = split_chronological(corpus64[:32])
        split_b = split_chronological(corpus64[32:])
        cfg = TrainConfig(epochs=120, batch_size=16, patience=120, seed=42)
        within = cross_project_train(split_b, split_b.test, MC, cfg)
        cross = cross_project_train(split_a, split_b.test, MC, cfg)
        assert cross.abs_errors.mean() <= 2 * within.abs_errors.mean()

    def test_unlabeled_target_rejected(self, split64):
        target = [split64.test[0]]
        target[0].story_points = None
        try:
            with pytest.raises(TrainerError):
                cross_project_train(split64, target, MC, TrainConfig(epochs=1))
        finally:
            target[0].story_points = 8.0
