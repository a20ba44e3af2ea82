"""Command-line pipeline: ingest, prepare, pretrain, train, estimate,
baseline, evaluate, cross-project, cluster-words.

A JSON config file (--config) stands for flags written ahead of the given
ones, each key a long flag of the subcommand with dashes or underscores;
a given flag wins, and a key that names no flag is a bad flag. Artifacts
are deterministic given identical inputs, flags, and seed. Exit codes: 0
success, 1 runtime or transport failure, 2 bad flags.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import baselines, evaluation
from .corpus import (
    DEFAULT_MIN_PROJECT_SIZE,
    TOKENIZER_MODES,
    CorpusError,
    build_vocabulary,
    compose_document,
    dataset_stats,
    escape_token,
    filter_issues,
    load_vocabulary,
    read_corpus,
    read_utf8,
    record_to_json,
    save_vocabulary,
    split_chronological,
    tokenize,
    write_corpus,
    write_lines,
    SplitDataset,
)
from .jira_ingest import IngestConfig, IngestError, fetch_issues
from .model import (
    ModelConfig,
    ModelError,
    document_vectors,
    load_checkpoint,
    save_checkpoint,
)
from .numerics import NumericError, make_rng
from .parallel import Pool, WorkerError
from .pretrain import PretrainConfig, PretrainError, pretrain
from .trainer import TrainConfig, TrainerError, cross_project_train, encode_issue, estimate, train

TOKEN_ENV_VAR = "STORYPOINT_JIRA_TOKEN"
# The training flags, one per config field. The fields are read at import,
# so the names TrainConfig and PretrainConfig are looked up only where a
# command builds its config, and a wrapper bound to them sees every build.
TRAIN_FIELDS = dataclasses.fields(TrainConfig)
PRETRAIN_FIELDS = dataclasses.fields(PretrainConfig)


class CliError(RuntimeError):
    pass


def _add_model_flags(parser):
    parser.add_argument("--dim", type=int, default=50, help="embedding size")
    parser.add_argument("--depth", type=int, default=10, help="highway layer count")


def _model_config(args) -> ModelConfig:
    return ModelConfig(embedding_dim=args.dim, highway_depth=args.depth)


def _add_config_flags(parser, fields):
    """A --field-name flag per config field, typed and defaulted by the
    field's default, with the `choices` of the field's metadata."""
    for f in fields:
        parser.add_argument("--" + f.name.replace("_", "-"), type=type(f.default),
                            default=f.default, choices=f.metadata.get("choices"))


def _add_training_flags(parser):
    """The flags train and cross-project share."""
    parser.add_argument("--vocab", type=Path, default=None,
                        help="defaults to the split's vocab.txt")
    parser.add_argument("--pretrained", type=Path, default=None)
    _add_model_flags(parser)
    _add_config_flags(parser, TRAIN_FIELDS)


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False everywhere: an abbreviated or removed flag must not
    # parse as another one (--mode as --model)
    parser = argparse.ArgumentParser(
        prog="storypoint", description="Story-point estimation pipeline", allow_abbrev=False
    )
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON object of flags, read ahead of the given ones")
    add_parser = functools.partial(
        parser.add_subparsers(dest="command", required=True).add_parser, allow_abbrev=False)

    p = add_parser("ingest", help="fetch issues from a JIRA server")
    p.add_argument("--base-url", required=True)
    p.add_argument("--jql", required=True)
    p.add_argument("--sp-field", required=True, help="story-point custom field id")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--page-size", type=int, default=50)
    p.add_argument("--max-issues", type=int, default=None)
    p.add_argument("--rate-limit", type=float, default=2.0)

    p = add_parser("prepare", help="filter, split, and summarize a corpus")
    p.add_argument("--in", dest="input", type=Path, required=True)
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--min-project-size", type=int, default=DEFAULT_MIN_PROJECT_SIZE)
    p.add_argument("--mode", choices=TOKENIZER_MODES, default="word")
    p.add_argument("--vocab-min-count", type=int, default=1)
    p.add_argument("--vocab-max-size", type=int, default=50000)

    p = add_parser("pretrain", help="language-model pre-training")
    p.add_argument("--corpus", type=Path, required=True, help="issues for unsupervised training")
    p.add_argument("--vocab", type=Path, required=True)
    p.add_argument("--out-dir", type=Path, required=True)
    _add_model_flags(p)
    _add_config_flags(p, PRETRAIN_FIELDS)
    p.add_argument("--seed", type=int, default=42)

    p = add_parser("train", help="supervised training on a prepared split")
    p.add_argument("--split-dir", type=Path, required=True)
    p.add_argument("--out-dir", type=Path, required=True)
    _add_training_flags(p)

    p = add_parser("estimate", help="score issues with a trained checkpoint")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--vocab", type=Path, required=True)
    p.add_argument("--in", dest="input", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)

    p = add_parser("baseline", help="fit a baseline and score issues")
    p.add_argument("--model", choices=BASELINES, required=True)
    p.add_argument("--split-dir", type=Path, required=True)
    p.add_argument("--in", dest="input", type=Path, required=True,
                   help="issues to score (labels are not read)")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--features", type=Path, default=None,
                   help="feature table (required for cbr/cart/ols/lasso)")
    p.add_argument("--checkpoint", type=Path, default=None,
                   help="text-feature checkpoint (required for lstm-rf)")
    p.add_argument("--seed", type=int, default=42)

    p = add_parser("evaluate", help="compare estimate files on the test split")
    p.add_argument("--split-dir", type=Path, required=True)
    p.add_argument("--estimates", nargs="+", required=True, metavar="NAME=PATH")
    p.add_argument("--pairs", default="", help="comma-separated NAME:NAME pairs")
    p.add_argument("--runs", type=int, default=1000, help="random-guess rounds for SA")
    p.add_argument("--pred-level", type=float, default=25.0)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", type=Path, default=None, help="also write rows as CSV")

    p = add_parser("cross-project", help="train on one project, test on another")
    p.add_argument("--source-dir", type=Path, required=True)
    p.add_argument("--target-dir", type=Path, required=True)
    p.add_argument("--out-dir", type=Path, required=True)
    _add_training_flags(p)

    p = add_parser("cluster-words", help="k-means clusters of learned embeddings")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--vocab", type=Path, required=True)
    p.add_argument("--top", type=int, default=500)
    p.add_argument("--k", type=int, default=9)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", type=Path, required=True)
    return parser


def _load_split(split_dir: Path, with_test: bool = True) -> SplitDataset:
    # only evaluate/cross-project may read the test manifest
    return SplitDataset(
        train=read_corpus(split_dir / "train.jsonl"),
        valid=read_corpus(split_dir / "valid.jsonl"),
        test=read_corpus(split_dir / "test.jsonl") if with_test else [],
    )


def _cell(value) -> str:
    """A numeric CSV cell: the repr of a plain float, which float() reads
    back exactly, whatever numpy scalar type the value has."""
    return repr(float(value))


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_estimates(path: Path, estimates, column: str = "estimate") -> None:
    """(issue key, value) pairs under the header issue_key,<column>."""
    _write_csv(path, ["issue_key", column], [(key, _cell(value)) for key, value in estimates])


def _read_estimates(path: Path, keys) -> list[tuple[str, float]]:
    """(issue_key, estimate) rows of an estimates CSV of the issues `keys`.
    A missing column, a row with more cells than the header, an estimate
    that is not a finite number, a repeated issue_key and one not in `keys`
    are refused, naming the file and the line."""
    pairs, seen = [], set()
    with io.StringIO(read_utf8(path, newline=""), newline="") as fh:
        reader = csv.DictReader(fh)
        for column in ("issue_key", "estimate"):
            if column not in (reader.fieldnames or []):
                raise CliError(f"{path}: no {column} column")
        for row in reader:
            where = f"{path} line {reader.line_num}"
            if None in row:  # DictReader's key for the cells past the header's
                raise CliError(f"{where}: more than the header's {len(reader.fieldnames)} cells")
            key, cell = row["issue_key"], row["estimate"]
            try:
                value = float(cell)
            except (TypeError, ValueError):  # TypeError: a row short of cells
                raise CliError(f"{where}: estimate {cell!r} is not a number") from None
            if not np.isfinite(value):
                raise CliError(f"{where}: estimate {cell!r} is not finite")
            if key in seen:
                raise CliError(f"{where}: issue_key {key!r} is repeated")
            if key not in keys:
                raise CliError(f"{where}: issue_key {key!r} is not in the test split")
            seen.add(key)
            pairs.append((key, value))
    return pairs


def _write_curve(path: Path, header: list[str], curve: list[dict]) -> None:
    """One CSV row per epoch: the epoch, then the row's other values."""
    _write_csv(path, header, [[epoch, *map(_cell, values)]
                              for epoch, *values in map(dict.values, curve)])


def cmd_ingest(args) -> int:
    cfg = IngestConfig(
        base_url=args.base_url, jql=args.jql, story_point_field=args.sp_field,
        page_size=args.page_size, max_issues=args.max_issues,
        auth_token=os.environ.get(TOKEN_ENV_VAR), rate_limit=args.rate_limit,
    )
    result = fetch_issues(cfg)
    count = write_corpus(result.records, args.out)
    skipped = sum(result.skipped.values())
    reasons = ", ".join(f"{n} {reason}" for reason, n in sorted(result.skipped.items()))
    print(f"ingest: wrote {count} issues to {args.out} ({skipped} skipped"
          f"{': ' + reasons if reasons else ''}; {result.requests_made} requests)")
    return 0


def cmd_prepare(args) -> int:
    raw = read_corpus(args.input)
    kept, stats = filter_issues(raw, args.min_project_size)
    labeled = [r for r in kept if r.story_points is not None]
    unlabeled = [r for r in kept if r.story_points is None]
    out = args.out_dir
    out.mkdir(parents=True, exist_ok=True)
    line = {r.issue_key: record_to_json(r) + "\n" for r in kept}  # each record goes to two files

    def write(name, records):
        write_lines([line[r.issue_key] for r in records], out / f"{name}.jsonl")

    write("filtered", kept)
    write("unlabeled", unlabeled)
    split = split_chronological(labeled)
    for name in ("train", "valid", "test"):
        write(name, getattr(split, name))
    docs = [tokenize(compose_document(r), args.mode) for r in split.train + split.valid]
    vocab = build_vocabulary(docs, args.vocab_min_count, args.vocab_max_size, mode=args.mode)
    lengths = None  # word counts; the vocabulary pass has those of train and valid
    if args.mode == "word":
        lengths = [len(doc) - 1 for doc in docs] + [
            len(tokenize(compose_document(r), "word")) - 1 for r in split.test]
    save_vocabulary(vocab, out / "vocab.txt")
    report = {
        "input": stats.input_count,
        "removed": stats.removed,
        "removed_fraction": round(stats.removed_fraction, 6),
        "removed_bad_points": stats.removed_bad_points,
        "removed_small_project": stats.removed_small_project,
        "labeled": len(labeled),
        "unlabeled": len(unlabeled),
        "split": {"train": len(split.train), "valid": len(split.valid), "test": len(split.test)},
        "vocabulary": len(vocab),
        "story_points": dataset_stats(split.train + split.valid + split.test, lengths),
    }
    (out / "stats.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def cmd_pretrain(args) -> int:
    vocab = load_vocabulary(args.vocab)
    records = read_corpus(args.corpus)
    sequences = [encode_issue(r, vocab) for r in records]
    config = PretrainConfig(**{f.name: getattr(args, f.name) for f in PRETRAIN_FIELDS})
    result = pretrain(sequences, len(vocab), _model_config(args), config, seed=args.seed)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    ckpt_path = args.out_dir / "pretrain.ckpt"
    save_checkpoint(ckpt_path, "pretrain", _model_config(args), vocab.content_hash(),
                    result.params.checkpoint_tensors())
    _write_curve(args.out_dir / "pretrain_log.csv",
                 ["epoch", "train_loss", "valid_perplexity", "best_perplexity"], result.curve)
    note = f" (aborted: {result.aborted})" if result.aborted else ""
    print(f"pretrain: best perplexity {result.best_perplexity:.4f} at epoch "
          f"{result.best_epoch}; checkpoint {ckpt_path}{note}")
    return 0


def _split_vocabulary(split_dir: Path, path: Path | None = None):
    """The vocabulary to train with: `path`, else the split's vocab.txt, which
    alone may be absent (None: train then builds a word-mode one)."""
    vocab_path = path or split_dir / "vocab.txt"
    return load_vocabulary(vocab_path) if path or vocab_path.exists() else None


def _training_inputs(args, split_dir: Path) -> tuple[SplitDataset, dict]:
    """What train and cross-project read alike: the split (no test manifest)
    and the keyword arguments `train` takes beside it."""
    split = _load_split(split_dir, with_test=False)
    return split, dict(vocab=_split_vocabulary(split_dir, args.vocab),
                       pretrained=load_checkpoint(args.pretrained) if args.pretrained else None,
                       model_config=_model_config(args),
                       config=TrainConfig(**{f.name: getattr(args, f.name) for f in TRAIN_FIELDS}))


def cmd_train(args) -> int:
    split, inputs = _training_inputs(args, args.split_dir)
    result = train(split, **inputs)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    ckpt_path = args.out_dir / "model.ckpt"
    save_checkpoint(ckpt_path, "model", result.checkpoint.config,
                    result.checkpoint.vocab_hash, result.checkpoint.tensors)
    save_vocabulary(result.vocab, args.out_dir / "vocab.txt")
    _write_curve(args.out_dir / "train_log.csv",
                 ["epoch", "train_loss", "valid_mae", "best_so_far"], result.curve)
    note = f" (aborted: {result.aborted})" if result.aborted else ""
    print(f"train: best validation MAE {result.best_valid_mae:.4f} at epoch "
          f"{result.best_epoch}; checkpoint {ckpt_path}{note}")
    return 0


def cmd_estimate(args) -> int:
    checkpoint = load_checkpoint(args.checkpoint)
    vocab = load_vocabulary(args.vocab)
    issues = read_corpus(args.input)
    pairs = estimate(checkpoint, vocab, issues)
    _write_estimates(args.out, pairs)
    print(f"estimate: wrote {len(pairs)} estimates to {args.out}")
    return 0


def _read_feature_table(path: Path) -> dict[str, baselines.IssueFeatureInput]:
    """Feature CSV: issue_key column plus IssueFeatureInput fields, one cell
    each and a new issue_key per row; empty assignee cells mean missing."""
    table = {}
    fields = baselines.IssueFeatureInput.__dataclass_fields__
    int_fields = {f for f in fields if f not in ("issue_type", "priority")}
    with io.StringIO(read_utf8(path, newline=""), newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        if "issue_key" not in header:
            raise CliError(f"{path}: no issue_key column")
        for field in header:
            if field != "issue_key" and field not in fields:
                raise CliError(f"{path}: unknown feature column {field!r}")
        for row in reader:
            where = f"{path} line {reader.line_num}"
            if None in row or None in row.values():  # more or fewer cells than the header
                raise CliError(f"{where}: not the header's {len(header)} cells")
            key = row.pop("issue_key")
            if key in table:
                raise CliError(f"{where}: issue_key {key!r} is repeated")
            kwargs = {}
            for field, value in row.items():
                if field not in int_fields:
                    kwargs[field] = value
                elif not value.strip():
                    kwargs[field] = None if field.startswith("assignee_") else 0
                else:
                    try:
                        kwargs[field] = int(value)
                    except ValueError:
                        raise CliError(
                            f"{where}: column {field}: {value!r} is not an integer") from None
            table[key] = baselines.IssueFeatureInput(**kwargs)
    return table


class Baseline(NamedTuple):
    """A baseline's rows step turns each list of issues into the rows its fit
    and predict read. Its fit takes the training rows, their story points and
    the run's rng, and returns a predict from rows to estimates. Both look up
    `baselines.*` and `document_vectors` when they run, not at import."""
    rows: Callable
    fit: Callable
    tuned_on_valid: bool = False  # fit also takes (rows, points) of the valid partition


def _issues(args, partitions):  # mean, median and random read no features
    return partitions


def _bow_rows(args, partitions):
    vocab = load_vocabulary(args.split_dir / "vocab.txt")
    return [np.array([baselines.bow_vectorize(tokenize(compose_document(r), vocab.mode), vocab)
                      for r in records]).reshape(len(records), len(vocab))
            for records in partitions]


def _lstm_rows(args, partitions):
    if args.checkpoint is None:
        raise CliError("lstm-rf needs --checkpoint (text-feature weights)")
    checkpoint = load_checkpoint(args.checkpoint)
    vocab = load_vocabulary(args.split_dir / "vocab.txt")
    if vocab.content_hash() != checkpoint.vocab_hash:
        raise CliError("checkpoint vocabulary does not match the split vocabulary")
    params = checkpoint.to_params()
    with Pool(params) as pool:
        return [document_vectors([encode_issue(r, vocab) for r in records], params, pool=pool)
                for records in partitions]


def _hand_crafted_rows(impute: str):  # imputation refers to the first, training partition
    def rows(args, partitions):
        if args.features is None:
            raise CliError(f"{args.model} needs --features (issue feature table)")
        table = _read_feature_table(args.features)
        missing = [r.issue_key for records in partitions for r in records
                   if r.issue_key not in table]
        if missing:
            raise CliError(f"feature table lacks rows for: {', '.join(missing[:5])}")
        vectors = [[baselines.assemble_features(table[r.issue_key]) for r in records]
                   for records in partitions]
        return [baselines.feature_matrix(v, impute, train_vectors=vectors[0]) for v in vectors]
    return rows


def _repeat(value):
    return lambda rows: [value] * len(rows)


def _forest(x, y, rng):
    with Pool(x, y) as pool:
        forest = baselines.rf_fit(x, y, n_trees=100, rng=rng, pool=pool)
    return lambda rows: baselines.rf_predict(forest, rows)


BASELINES = {
    "mean": Baseline(_issues, lambda x, y, rng: _repeat(baselines.mean_effort(y))),
    "median": Baseline(_issues, lambda x, y, rng: _repeat(baselines.median_effort(y))),
    "random": Baseline(_issues, lambda x, y, rng: lambda rows: [
        baselines.random_guess(y, rng) for _ in rows]),
    "bow-rf": Baseline(_bow_rows, _forest),
    "lstm-rf": Baseline(_lstm_rows, _forest),
    "cbr": Baseline(_hand_crafted_rows("mean"), lambda x, y, rng: lambda rows: [
        baselines.cbr_estimate(x, y, row, k=min(3, len(x))) for row in rows]),
    "cart": Baseline(_hand_crafted_rows("zero"), lambda x, y, rng: functools.partial(
        baselines.cart_predict, baselines.cart_fit(x, y, min_leaf_size=5, prune_level=5))),
    "ols": Baseline(_hand_crafted_rows("mean"), lambda x, y, rng: baselines.ols_fit(x, y).predict),
    "lasso": Baseline(_hand_crafted_rows("mean"), lambda x, y, rng, valid: baselines.lasso_fit(
        x, y, valid_features=valid[0], valid_targets=valid[1]).predict, tuned_on_valid=True),
}


def _clamp(estimate) -> float:
    if not np.isfinite(estimate):
        raise baselines.BaselineError(f"non-finite estimate {float(estimate)}")
    return max(0.0, float(estimate))


def cmd_baseline(args) -> int:
    split = _load_split(args.split_dir, with_test=False)
    targets = read_corpus(args.input)
    baseline = BASELINES[args.model]
    # the valid partition is reserved for model selection: only a tuned fit reads it
    fitted = [split.train, split.valid] if baseline.tuned_on_valid else [split.train]
    *fitted_x, target_x = baseline.rows(args, fitted + [targets])
    (x, y), *valid = [(x, np.array([r.story_points for r in records]))
                      for x, records in zip(fitted_x, fitted)]
    predict = baseline.fit(x, y, make_rng(args.seed), *valid)
    estimates = [(r.issue_key, _clamp(v)) for r, v in zip(targets, predict(target_x))]
    _write_estimates(args.out, estimates)
    print(f"baseline {args.model}: wrote {len(estimates)} estimates to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    split = _load_split(args.split_dir)
    past_points = [r.story_points for r in split.train]
    actual_by_key = {r.issue_key: r.story_points for r in split.test}
    actuals = np.array([r.story_points for r in split.test])
    fingerprint = evaluation.dataset_fingerprint(
        [r.issue_key for r in split.test], actuals
    )
    mae_rguess = evaluation.random_guess_mae(
        past_points, actuals, runs=args.runs, rng=make_rng(args.seed)
    )
    reports = []
    for spec_item in args.estimates:
        if "=" not in spec_item:
            raise CliError(f"--estimates entries look like NAME=PATH, got {spec_item!r}")
        name, _, path = spec_item.partition("=")
        if any(r.model_name == name for r in reports):
            raise CliError(f"--estimates names {name!r} twice")
        pairs = _read_estimates(Path(path), actual_by_key)
        by_key = dict(pairs)
        missing = [k for k in actual_by_key if k not in by_key]
        if missing:
            raise CliError(f"{name} lacks estimates for: {', '.join(missing[:5])}")
        ordered = [by_key[r.issue_key] for r in split.test]
        reports.append(
            evaluation.make_report(name, actuals, ordered, mae_rguess,
                                   pred_level=args.pred_level, fingerprint=fingerprint)
        )
    pair_list = []
    if args.pairs:
        for chunk in args.pairs.split(","):
            a, _, b = chunk.partition(":")
            if not a or not b:
                raise CliError(f"--pairs entries look like NAME:NAME, got {chunk!r}")
            pair_list.append((a, b))
    comparisons = evaluation.compare_pairs(reports, pair_list)
    table = evaluation.compare_report(reports, comparisons)
    print(f"evaluate: {len(reports)} models on {len(actuals)} test issues "
          f"(random-guess MAE {mae_rguess:.4f})")
    print(table)
    if args.out:
        rows = [[r.model_name, _cell(r.mae), _cell(r.sa),
                 _cell(r.mre) if r.mre is not None else "",
                 _cell(r.pred) if r.pred is not None else "", r.n] for r in reports]
        rows += [[f"{cmp.model_a} vs {cmp.model_b}", _cell(cmp.p_value), _cell(cmp.a12),
                  "", "", cmp.m] for cmp in comparisons]
        _write_csv(args.out, ["model", "mae", "sa", "mre", "pred", "n"], rows)
    return 0


def cmd_cross_project(args) -> int:
    source, inputs = _training_inputs(args, args.source_dir)
    result = cross_project_train(source, read_corpus(args.target_dir / "test.jsonl"), **inputs)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    _write_estimates(args.out_dir / "estimates.csv", result.estimates)
    keys = [key for key, _ in result.estimates]
    _write_estimates(args.out_dir / "abs_errors.csv", zip(keys, result.abs_errors), "abs_error")
    cross_mae = float(result.abs_errors.mean())
    print(f"cross-project: MAE {cross_mae:.4f} over {len(result.abs_errors)} target issues")
    return 0


def cmd_cluster_words(args) -> int:
    checkpoint = load_checkpoint(args.checkpoint)
    vocab = load_vocabulary(args.vocab)
    if vocab.content_hash() != checkpoint.vocab_hash:
        raise CliError("checkpoint vocabulary does not match --vocab")
    pairs = evaluation.cluster_word_embeddings(
        checkpoint.tensors["emb"], vocab, top=args.top, k=args.k, rng=make_rng(args.seed)
    )
    with args.out.open("w", encoding="utf-8") as fh:
        for token, cluster in pairs:
            fh.write(f"{escape_token(token)}\t{cluster}\n")
    print(f"cluster-words: wrote {len(pairs)} tokens in {args.k} clusters to {args.out}")
    return 0


COMMANDS = {
    "ingest": cmd_ingest,
    "prepare": cmd_prepare,
    "pretrain": cmd_pretrain,
    "train": cmd_train,
    "estimate": cmd_estimate,
    "baseline": cmd_baseline,
    "evaluate": cmd_evaluate,
    "cross-project": cmd_cross_project,
    "cluster-words": cmd_cluster_words,
}


def _config_flags(parser, sub, command: str, path: Path, given: list[str]) -> list[str]:
    """The flags a --config file stands for, to go ahead of those `given`:
    a --flag=value token per key (a long flag of `sub`, with dashes or
    underscores), a list's values for an nargs="+" flag, none for a null."""
    try:
        text = read_utf8(path)
    except (OSError, CorpusError) as exc:
        parser.error(f"cannot read config file: {exc}")
    try:  # objects as tuples of pairs, so a repeated key is seen; floats as written
        pairs = json.loads(text, object_pairs_hook=tuple, parse_float=str)
    except json.JSONDecodeError as exc:
        parser.error(f"cannot read config file: {path}: {exc}")
    if not isinstance(pairs, tuple):
        parser.error(f"config file must hold a JSON object, not {type(json.loads(text)).__name__}")
    flags = {option[2:].replace("-", "_"): action for action in sub._actions
             if action.dest != "help" for option in action.option_strings
             if option.startswith("--")}
    tokens, named = [], set()
    for key, value in pairs:
        action = flags.get(key.replace("-", "_"))
        if action is None:
            sub.error(f"config file key {key!r} names no flag of {command}")
        flag = action.option_strings[0]
        if action in named:
            sub.error(f"config file key {key!r} names {flag} a second time")
        named.add(action)
        if value is not None:
            values = value if action.nargs == "+" and isinstance(value, list) else [value]
            for v in values:
                if v is None or isinstance(v, (list, tuple)):
                    kind = {list: "list", tuple: "object"}.get(type(v), "null")
                    sub.error(f"config file key {key!r}: {flag} takes no {kind}")
            texts = [v if isinstance(v, str) else json.dumps(v) for v in values]
            tokens += [flag, *texts] if isinstance(value, list) else [f"{flag}={texts[0]}"]
        elif action.default is not None and flag not in {t.split("=")[0] for t in given}:
            sub.error(f"argument {flag}: null in the config file, "
                      "which only a flag that defaults to none takes")
    return tokens


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    # the top-level flags end at the subcommand, which takes the rest of argv
    probe = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    probe.add_argument("--config", type=Path, default=None)
    probe.add_argument("command", nargs="?")
    probe.add_argument("rest", nargs=argparse.REMAINDER)
    pre, _ = probe.parse_known_args(argv)
    sub = parser._subparsers._group_actions[0].choices.get(pre.command)
    if pre.config is not None and sub is not None:
        at = len(argv) - len(pre.rest)  # just past the subcommand
        argv[at:at] = _config_flags(parser, sub, pre.command, pre.config, pre.rest)
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (IngestError, CliError, CorpusError, ModelError, TrainerError, PretrainError,
            NumericError, WorkerError, evaluation.EvaluationError, baselines.BaselineError,
            OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
