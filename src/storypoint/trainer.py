"""Supervised training loop: batching, RMSprop, early stopping, estimation.

The loop only ever reads the train and validation partitions; scoring a
test set happens through `estimate` after training is done.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .corpus import IssueRecord, SplitDataset, Vocabulary, build_vocabulary, compose_document, tokenize
from .model import (
    PRETRAIN_TENSORS,
    Checkpoint,
    ModelConfig,
    ModelParams,
    _length_batch_rows,
    batch_forward,
    batch_loss_and_grads,
    init_params,
    length_batches,
    make_dropout_masks,
    pad_batch,
)
from .numerics import _run_epochs, check_learning_rate, make_rng
from .parallel import Pool, share


class TrainerError(ValueError):
    pass


@dataclass
class TrainConfig:
    epochs: int = 1000
    batch_size: int = 100
    learning_rate: float = 0.01
    patience: int = 50
    seed: int = 42
    decay: ClassVar[float] = 0.9
    smoothing: ClassVar[float] = 1e-6

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.patience < 0:
            raise ValueError("patience must be >= 0")
        check_learning_rate(self.learning_rate)


def encode_issue(issue: IssueRecord, vocab: Vocabulary) -> list[int]:
    return vocab.encode(tokenize(compose_document(issue), vocab.mode))


def predict_points(params: ModelParams, config: ModelConfig,
                   sequences: list[list[int]], pool: Pool | None = None) -> np.ndarray:
    """Deterministic inference over token-id sequences, clamped at zero.

    The sequences run as model.inference_batches, dealt to the processes
    of `pool` (one created with (params, config)) or run here; each batch
    is computed whole, so the bits do not depend on the process count.
    Results come back in input order.
    """
    out = _length_batch_rows(_predict_batch, sequences, np.empty(len(sequences)),
                             params, config, pool=pool)
    return np.maximum(out, 0.0)


def _predict_batch(params: ModelParams, config: ModelConfig,
                   sequences: list[list[int]]) -> np.ndarray:
    ids, mask = pad_batch(sequences)
    yhat, _ = batch_forward(ids, mask, params, config, masks=None)
    return yhat


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    vocab: Vocabulary
    curve: list[dict]
    best_epoch: int
    best_valid_mae: float
    aborted: str | None


def train(split: SplitDataset, model_config: ModelConfig, config: TrainConfig,
          vocab: Vocabulary | None = None,
          pretrained: Checkpoint | None = None) -> TrainResult:
    """Fit the regressor on split.train, keeping the weights of the epoch
    with the best validation MAE (early stopping and aborts: `numerics._run_epochs`).

    Without `vocab`, a word-mode vocabulary is built from train+valid text
    only; pass one to train in its tokenizer mode or to reuse the vocabulary
    a pre-training run was built on (the hashes must match the pretrained
    checkpoint, whose PRETRAIN_TENSORS the run starts from).
    """
    if not split.train or not split.valid:
        raise TrainerError("split must have non-empty train and valid partitions")
    if any(r.story_points is None for r in split.train + split.valid):
        raise TrainerError("training requires labeled issues")
    if vocab is None:
        docs = [tokenize(compose_document(r)) for r in split.train + split.valid]
        vocab = build_vocabulary(docs)
        seqs = [vocab.encode(doc) for doc in docs]
    else:
        seqs = [encode_issue(r, vocab) for r in split.train + split.valid]
    vocab_hash = vocab.content_hash()

    rng = make_rng(config.seed)
    params = init_params(len(vocab), model_config, rng)
    if pretrained is not None:
        if pretrained.vocab_hash != vocab_hash:
            raise TrainerError("pretrained checkpoint was built on a different vocabulary")
        if pretrained.config.embedding_dim != model_config.embedding_dim:
            raise TrainerError("pretrained checkpoint has a different embedding size")
        for name in PRETRAIN_TENSORS:  # the encoder starts from the checkpoint's
            getattr(params, name)[...] = pretrained.tensors[name]

    train_seqs, valid_seqs = seqs[:len(split.train)], seqs[len(split.train):]
    train_y = np.array([r.story_points for r in split.train])
    valid_y = np.array([r.story_points for r in split.valid])
    lengths = np.array([len(s) for s in train_seqs])

    # Workers fork once and read the parameters from shared memory, which
    # the optimizer updates in place.
    share(params)
    with Pool(params, model_config) as pool:
        def step(batch_idx):
            masks = make_dropout_masks(len(batch_idx), lengths[batch_idx].max(), model_config, rng)
            loss, _, grads = batch_loss_and_grads(
                [train_seqs[i] for i in batch_idx], train_y[batch_idx],
                params, model_config, masks=masks, pool=pool, emb_rows=True,
            )
            return loss, grads

        best_params, curve, best_epoch, best_mae, aborted = _run_epochs(
            params, config, lambda: length_batches(lengths, config.batch_size, rng), step,
            lambda: float(np.mean(np.abs(
                predict_points(params, model_config, valid_seqs, pool=pool) - valid_y))),
            "MAE",
        )
    return TrainResult(
        checkpoint=Checkpoint(kind="model", config=model_config, vocab_hash=vocab_hash,
                              tensors=best_params.tensors()),
        vocab=vocab,
        curve=[dict(zip(("epoch", "train_loss", "valid_mae", "best_valid_mae"), row))
               for row in curve],
        best_epoch=best_epoch, best_valid_mae=best_mae, aborted=aborted,
    )


def estimate(checkpoint: Checkpoint, vocab: Vocabulary,
             issues: list[IssueRecord]) -> list[tuple[str, float]]:
    """Score issues with a trained checkpoint; order is preserved.

    The vocabulary must be the one the checkpoint was trained against, and
    the checkpoint a trained model: a pre-training checkpoint has no
    highway or regressor weights to score with.
    """
    if checkpoint.kind != "model":
        raise TrainerError(f"estimate needs a trained model checkpoint, "
                           f"not a {checkpoint.kind!r} one")
    if vocab.content_hash() != checkpoint.vocab_hash:
        raise TrainerError("vocabulary does not match the checkpoint")
    if not issues:
        return []
    params = checkpoint.to_params()
    sequences = [encode_issue(r, vocab) for r in issues]
    with Pool(params, checkpoint.config) as pool:
        points = predict_points(params, checkpoint.config, sequences, pool=pool)
    return [(r.issue_key, float(p)) for r, p in zip(issues, points)]


@dataclass
class CrossProjectResult:
    train_result: TrainResult
    estimates: list[tuple[str, float]]
    actuals: np.ndarray
    abs_errors: np.ndarray


def cross_project_train(source: SplitDataset, target_test: list[IssueRecord],
                        model_config: ModelConfig, config: TrainConfig,
                        vocab: Vocabulary | None = None,
                        pretrained: Checkpoint | None = None) -> CrossProjectResult:
    """Train on a source project's train+valid data (with `vocab` as train
    takes it) and score another project's test issues, returning per-issue
    absolute errors."""
    if any(r.story_points is None for r in target_test):
        raise TrainerError("target test issues must be labeled")
    result = train(source, model_config, config, vocab=vocab, pretrained=pretrained)
    estimates = estimate(result.checkpoint, result.vocab, target_test)
    actuals = np.array([r.story_points for r in target_test])
    predicted = np.array([p for _, p in estimates])
    return CrossProjectResult(
        train_result=result,
        estimates=estimates,
        actuals=actuals,
        abs_errors=np.abs(actuals - predicted),
    )
