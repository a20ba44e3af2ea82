"""Seeded synthetic issue corpus at the scale of the paper's projects.

Everything here derives from one integer seed, so the same seed gives the
same bytes. Where each constant comes from is listed in perfbench/README.md
("Corpus constants"); those without a source are named there as
assumptions. The corpus has:

- a Zipfian vocabulary over 20k word types, with the exponent set so that
  about 13.5k distinct types show up in 2.4k training+validation issues;
- issue lengths from a lognormal with a mean of 65 words. Within each block
  of issues that the pipeline treats as one partition (the chronological
  train/valid/test thirds of the labeled issues, and the training and
  held-out parts of the unlabeled issues) the lengths are the block's
  lognormal quantiles at (i + 0.5) / n in a fixed order. The tail is not
  clipped: the longest of 600 issues has about 360 words. Every seed gets the
  same lengths in the same places, so the padded shapes (and with them the
  cost and the peak memory of every batch, the full-softmax perplexity's
  included) do not swing from seed to seed while words, labels and
  features do;
- Fibonacci-like story points read off a latent complexity that also
  raises the rate of 40 "complexity" words and, weakly, the length, so the
  text carries a weak signal and `valid_mae` reacts to broken math. The
  complexities are stratified per block like the lengths, so every seed
  has the same story-point multiset in each partition;
- chronological timestamps and keys, labeled and unlabeled issues
  interleaved;
- a feature table covering every `IssueFeatureInput` field, with empty
  assignee cells for about 30% of issues.
"""

from __future__ import annotations

import csv
import json
from datetime import datetime, timedelta, timezone
from pathlib import Path
from statistics import NormalDist

import numpy as np

N_TYPES = 20_000
ZIPF_EXPONENT = 1.08   # V ~ 13.5k over 2.4k issues of 65 words
MEAN_WORDS = 65.0
LENGTH_SIGMA = 0.6     # 76% padding in predict_points' 256-wide chunks
LENGTH_POINTS_CORRELATION = 0.3
SIGNAL_WORDS = 40
SIGNAL_RANK_START = 300  # mid-frequency types carry the signal
# mean 3.11, median 3, variance 5.88: the published Mesos figures (3.09,
# 3, 5.87) on a Fibonacci scale
POINT_SCALE = (1.0, 2.0, 3.0, 5.0, 8.0, 13.0)
POINT_SHARES = (0.28, 0.21, 0.27, 0.14, 0.08, 0.02)
ISSUE_TYPES = ("Bug", "Task", "Improvement", "Story", "New Feature", "Sub-task",
               "Documentation", "Epic", "Wish")  # "Wish" lands in the other bucket
PRIORITIES = ("Major", "Minor", "Critical", "Blocker", "Trivial", "Unset")
COUNT_MEAN = 1.0      # issue link, version, component and change counts
HISTORY_MEAN = 10.0   # per-person opened/tested/reviewed/resolved counts
START = datetime(2013, 1, 1, tzinfo=timezone.utc)
MEAN_GAP_HOURS = 6.0

# IssueFeatureInput fields, in declaration order; the workload checks this
# list against the dataclass so a new field cannot go unfilled.
FEATURE_FIELDS = (
    "issue_type", "priority", "n_subtasks", "n_issue_links", "n_blocking",
    "n_blocked_by", "n_affect_versions", "n_fix_versions", "n_components",
    "n_description_changes", "n_priority_changes", "reporter_opened",
    "reporter_opened_fixed", "reporter_tested", "reporter_reviewed",
    "reporter_resolved", "assignee_tested", "assignee_reviewed",
    "assignee_resolved", "estimator_tested", "estimator_reviewed",
    "estimator_resolved",
)


def _word_types() -> list[str]:
    """20k distinct lowercase pseudo-words: two syllables, then three."""
    syllables = [c + v for c in "bcdfghjklmnprstvwxz" + "q" for v in "aeiou"]
    words = [a + b for a in syllables for b in syllables]
    words += [a + b + c for a in syllables for b in syllables for c in syllables[:20]]
    return words[:N_TYPES]


WORDS = _word_types()
_ZIPF_CDF = np.cumsum(1.0 / np.arange(1, N_TYPES + 1) ** ZIPF_EXPONENT)
_ZIPF_CDF /= _ZIPF_CDF[-1]


def normal_quantiles(n: int) -> np.ndarray:
    """Standard normal quantiles at (i + 0.5) / n, ascending."""
    return np.array([NormalDist().inv_cdf((i + 0.5) / n) for i in range(n)])


def stratified_lengths(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Lognormal quantile lengths (mean MEAN_WORDS) for a block of n issues,
    with their standard normal scores.

    The order is a fixed permutation of n, the same for every seed, so the
    padded batch shapes the pipeline builds do not depend on the seed.
    """
    mu = np.log(MEAN_WORDS) - LENGTH_SIGMA**2 / 2
    order = np.random.default_rng(n).permutation(n)
    z = normal_quantiles(n)[order]
    lengths = np.maximum(1, np.round(np.exp(mu + LENGTH_SIGMA * z))).astype(np.int64)
    return lengths, z


def stratified_complexity(z_length: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A block's complexities: the normal quantiles of its size, ranked by a
    key that mixes length and noise, so points track length weakly."""
    n = len(z_length)
    key = LENGTH_POINTS_CORRELATION * z_length + np.sqrt(
        1 - LENGTH_POINTS_CORRELATION**2) * rng.standard_normal(n)
    out = np.empty(n)
    out[np.argsort(key, kind="stable")] = normal_quantiles(n)
    return out


def _points(complexity: np.ndarray) -> np.ndarray:
    edges = np.array([NormalDist().inv_cdf(c) for c in np.cumsum(POINT_SHARES)[:-1]])
    return np.array(POINT_SCALE)[np.searchsorted(edges, complexity)]


def _text(rng: np.random.Generator, n_words: int, complexity: float) -> tuple[str, str]:
    ids = np.searchsorted(_ZIPF_CDF, rng.random(n_words))
    signal_rate = 0.03 * (1.0 + np.tanh(complexity))
    signal = rng.random(n_words) < signal_rate
    ids[signal] = SIGNAL_RANK_START + rng.integers(0, SIGNAL_WORDS, signal.sum())
    words = [WORDS[i] for i in ids]
    # sentence punctuation and capitals exercise the tokenizer's normalisation
    for j in range(0, n_words, 12):
        words[j] = words[j].capitalize()
        end = min(j + 11, n_words - 1)
        words[end] += "."
    for j in rng.integers(0, n_words, n_words // 20):
        if not words[j].endswith("."):
            words[j] += ","
    n_title = min(n_words, int(rng.integers(4, 13)))
    return " ".join(words[:n_title]), " ".join(words[n_title:])


def _blocks(total: int, fractions: tuple[float, ...]) -> list[int]:
    """Block sizes matching split_chronological's 60/20/20 rounding."""
    sizes = [int(f * total + 0.5) for f in fractions[:-1]]
    return sizes + [total - sum(sizes)]


def generate(out_dir: Path, seed: int, project: str, n_labeled: int,
             n_unlabeled: int = 0) -> dict:
    """Write corpus.jsonl and features.csv to out_dir; return a summary.

    The labeled issues depend only on (seed, n_labeled), so two workloads
    with the same seed and labeled count share them, vocabulary included.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    labeled_seq, unlabeled_seq, layout_seq = np.random.SeedSequence(seed).spawn(3)

    rng = np.random.default_rng(labeled_seq)
    complexity, labeled_lengths = [], []
    for size in _blocks(n_labeled, (0.6, 0.2, 0.2)):
        lengths, z_length = stratified_lengths(size)
        labeled_lengths.append(lengths)
        complexity.append(stratified_complexity(z_length, rng))
    complexity = np.concatenate(complexity)
    labeled_lengths = np.concatenate(labeled_lengths)
    points = _points(complexity)
    labeled = [_text(rng, int(n), float(c)) + (float(p),)
               for n, c, p in zip(labeled_lengths, complexity, points)]

    rng = np.random.default_rng(unlabeled_seq)
    # pretrain holds out the last round(0.1 * n) unlabeled issues in file order
    n_heldout = max(1, int(round(0.1 * n_unlabeled))) if n_unlabeled >= 2 else 0
    unlabeled_complexity = rng.standard_normal(n_unlabeled)
    unlabeled_lengths = np.concatenate([
        stratified_lengths(n)[0] for n in (n_unlabeled - n_heldout, n_heldout) if n
    ]) if n_unlabeled else np.empty(0, dtype=np.int64)
    unlabeled = [_text(rng, int(n), float(c)) + (None,)
                 for n, c in zip(unlabeled_lengths, unlabeled_complexity)]

    # interleave: each stream keeps its own order, so blocks stay chronological
    rng = np.random.default_rng(layout_seq)
    total = n_labeled + n_unlabeled
    is_unlabeled = np.zeros(total, dtype=bool)
    is_unlabeled[rng.choice(total, size=n_unlabeled, replace=False)] = True
    gaps = rng.exponential(MEAN_GAP_HOURS * 3600.0, size=total)
    seconds = np.cumsum(np.maximum(1.0, np.round(gaps)))
    streams = {False: iter(labeled), True: iter(unlabeled)}
    corpus_path = out_dir / "corpus.jsonl"
    labeled_keys = []
    with corpus_path.open("w", encoding="utf-8", newline="\n") as fh:
        for i in range(total):
            title, description, sp = next(streams[bool(is_unlabeled[i])])
            record = {
                "project": project,
                "issue_key": f"{project}-{i + 1}",
                "created_at": (START + timedelta(seconds=float(seconds[i])))
                .strftime("%Y-%m-%dT%H:%M:%SZ"),
                "title": title,
                "description": description,
            }
            if sp is not None:
                record["story_points"] = sp
                labeled_keys.append(record["issue_key"])
            fh.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")

    features_path = out_dir / "features.csv"
    write_features(features_path, labeled_keys, complexity,
                   np.random.default_rng(seed + 1))
    return {
        "labeled": n_labeled,
        "unlabeled": n_unlabeled,
        "unlabeled_heldout": n_heldout,
        "max_words": int(max(labeled_lengths.max(initial=0), unlabeled_lengths.max(initial=0))),
        "mean_words": float(np.concatenate([labeled_lengths, unlabeled_lengths]).mean()),
    }


def write_features(path: Path, keys: list[str], complexity: np.ndarray,
                   rng: np.random.Generator) -> None:
    """One row per labeled issue with every IssueFeatureInput field.

    Counts rise weakly with complexity; reporter_opened_fixed never exceeds
    reporter_opened; about 30% of rows have no assignee (empty cells).
    """
    n = len(keys)
    lift = np.exp(0.3 * complexity)
    columns = {
        "issue_type": np.array(ISSUE_TYPES)[rng.integers(0, len(ISSUE_TYPES), n)],
        "priority": np.array(PRIORITIES)[rng.integers(0, len(PRIORITIES), n)],
    }
    for field in FEATURE_FIELDS[2:11]:  # n_subtasks .. n_priority_changes
        columns[field] = rng.poisson(COUNT_MEAN * lift)
    for field in FEATURE_FIELDS[11:]:
        columns[field] = rng.poisson(HISTORY_MEAN, n)
    columns["reporter_opened_fixed"] = rng.binomial(columns["reporter_opened"], 0.6)
    no_assignee = rng.random(n) < 0.3
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("issue_key",) + FEATURE_FIELDS)
        for i, key in enumerate(keys):
            row = [key]
            for field in FEATURE_FIELDS:
                value = columns[field][i]
                if field.startswith("assignee_") and no_assignee[i]:
                    row.append("")
                else:
                    row.append(str(value))
            writer.writerow(row)
