"""Accuracy metrics, nonparametric tests, reports, and embedding clusters.

This module is the only place that reads test-set labels: everything else
in the pipeline works from train/validation partitions and hands per-issue
estimates over for scoring.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .corpus import Vocabulary


class EvaluationError(ValueError):
    pass


def mae(actual, estimated) -> float:
    """Mean absolute error between actual and estimated story points."""
    a = np.asarray(actual, dtype=np.float64)
    e = np.asarray(estimated, dtype=np.float64)
    if a.shape != e.shape or a.size == 0:
        raise EvaluationError("need equal, non-empty actual/estimated lists")
    return float(np.mean(np.abs(a - e)))


def sa(mae_model: float, mae_rguess: float) -> float:
    """Standardized accuracy: percent improvement over random guessing."""
    if mae_rguess <= 0:
        raise EvaluationError("random-guess MAE must be positive")
    return (1.0 - mae_model / mae_rguess) * 100.0


def random_guess_mae(train_points, test_actuals, runs: int = 1000,
                     rng: np.random.Generator | None = None) -> float:
    """Mean MAE over `runs` rounds of guessing a past issue's points for
    every test issue, the denominator of standardized accuracy."""
    train = np.asarray(train_points, dtype=np.float64)
    actual = np.asarray(test_actuals, dtype=np.float64)
    if train.size == 0 or actual.size == 0:
        raise EvaluationError("need non-empty train points and test actuals")
    if runs < 1:
        raise EvaluationError(f"runs must be >= 1, got {runs}")
    if rng is None:
        rng = np.random.default_rng(0)
    draws = train[rng.integers(0, train.size, size=(runs, actual.size))]
    return float(np.mean(np.abs(draws - actual[None, :])))


def mre_pred(actual, estimated, level: float = 25.0) -> tuple[float, float]:
    """Mean magnitude of relative error and Pred(level).

    Pred counts estimates whose relative error is at most level percent,
    boundary included; the level must be finite and >= 0.
    """
    if not (math.isfinite(level) and level >= 0):
        raise EvaluationError(f"pred level must be finite and >= 0, got {level!r}")
    a = np.asarray(actual, dtype=np.float64)
    e = np.asarray(estimated, dtype=np.float64)
    if a.shape != e.shape or a.size == 0:
        raise EvaluationError("need equal, non-empty actual/estimated lists")
    if np.any(a <= 0):
        raise EvaluationError("relative error needs positive actuals")
    rel = np.abs(a - e) / a
    return float(rel.mean()), float(np.mean(rel <= level / 100.0))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


@dataclass
class WilcoxonResult:
    p_value: float
    statistic: float  # rank sum of positive differences
    n_effective: int
    method: str
    degenerate: bool = False


EXACT_LIMIT = 20


def _exact_tail_counts(doubled_ranks: list[int]) -> np.ndarray:
    """counts[s] = number of sign assignments whose doubled rank sum is s."""
    total = sum(doubled_ranks)
    counts = np.zeros(total + 1, dtype=np.float64)
    counts[0] = 1.0
    for r in doubled_ranks:
        counts[r:] += counts[: total + 1 - r].copy()
    return counts


def _normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def wilcoxon_signed_rank(errors_a, errors_b, alternative: str = "a_less") -> WilcoxonResult:
    """Paired signed-rank test on two error lists.

    Zero differences are dropped and tied magnitudes share average ranks.
    The null distribution is enumerated exactly up to 20 effective pairs
    and approximated normally (with continuity correction) above that.
    "a_less" asks whether the first sample's errors are smaller.
    """
    a = np.asarray(errors_a, dtype=np.float64)
    b = np.asarray(errors_b, dtype=np.float64)
    if a.shape != b.shape or a.size == 0:
        raise EvaluationError("need paired samples of equal non-zero length")
    if alternative not in ("a_less", "two_sided"):
        raise EvaluationError(f"unknown alternative {alternative!r}")
    diff = a - b
    diff = diff[diff != 0]
    n = diff.size
    if n == 0:
        return WilcoxonResult(1.0, 0.0, 0, "degenerate", degenerate=True)
    ranks = _average_ranks(np.abs(diff))
    w_plus = float(ranks[diff > 0].sum())

    if n <= EXACT_LIMIT:
        doubled = [int(round(2 * r)) for r in ranks]
        counts = _exact_tail_counts(doubled)
        total = 2.0**n
        w2 = int(round(2 * w_plus))
        p_low = float(counts[: w2 + 1].sum()) / total
        p_high = float(counts[w2:].sum()) / total
        method = "exact"
    else:
        mean = n * (n + 1) / 4.0
        tie_term = 0.0
        _, tie_counts = np.unique(np.abs(diff), return_counts=True)
        for t in tie_counts:
            tie_term += (t**3 - t) / 48.0
        sd = math.sqrt(n * (n + 1) * (2 * n + 1) / 24.0 - tie_term)
        p_low = _normal_cdf((w_plus + 0.5 - mean) / sd)
        p_high = 1.0 - _normal_cdf((w_plus - 0.5 - mean) / sd)
        method = "normal"

    if alternative == "a_less":
        p = p_low
    else:
        p = min(1.0, 2.0 * min(p_low, p_high))
    return WilcoxonResult(p, w_plus, n, method)


def a12(sample_m, sample_n, better: str = "smaller") -> float:
    """Probability that a draw from the first sample beats one from the
    second, ties counted half: (#wins + 0.5 #ties) / (m*n)."""
    x = np.asarray(sample_m, dtype=np.float64)
    y = np.asarray(sample_n, dtype=np.float64)
    if x.size == 0 or y.size == 0:
        raise EvaluationError("samples must be non-empty")
    if better not in ("smaller", "larger"):
        raise EvaluationError(f"unknown direction {better!r}")
    diff = x[:, None] - y[None, :]
    wins = np.count_nonzero(diff < 0) if better == "smaller" else np.count_nonzero(diff > 0)
    ties = np.count_nonzero(diff == 0)
    return float((wins + 0.5 * ties) / (x.size * y.size))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def dataset_fingerprint(issue_keys, actuals) -> str:
    h = hashlib.sha256()
    for key, val in zip(issue_keys, actuals):
        h.update(f"{key}:{float(val)!r};".encode("utf-8"))
    return h.hexdigest()


@dataclass
class EvalReport:
    model_name: str
    abs_errors: np.ndarray
    mae: float
    sa: float
    n: int
    mre: float | None = None
    pred: float | None = None
    fingerprint: str | None = None


def make_report(model_name: str, actuals, estimates, mae_rguess: float,
                pred_level: float = 25.0, fingerprint: str | None = None) -> EvalReport:
    """Score one model's estimates against the test actuals."""
    a = np.asarray(actuals, dtype=np.float64)
    e = np.asarray(estimates, dtype=np.float64)
    errors = np.abs(a - e)
    model_mae = mae(a, e)
    report = EvalReport(
        model_name=model_name, abs_errors=errors, mae=model_mae,
        sa=sa(model_mae, mae_rguess), n=len(errors), fingerprint=fingerprint,
    )
    if np.all(a > 0):
        report.mre, report.pred = mre_pred(a, e, pred_level)
    return report


@dataclass
class PairwiseComparison:
    model_a: str
    model_b: str
    p_value: float
    a12: float
    m: int  # paired test: both models scored the same m issues


def compare_pair(report_a: EvalReport, report_b: EvalReport,
                 alternative: str = "a_less") -> PairwiseComparison:
    test = wilcoxon_signed_rank(report_a.abs_errors, report_b.abs_errors, alternative)
    return PairwiseComparison(
        model_a=report_a.model_name, model_b=report_b.model_name,
        p_value=test.p_value,
        a12=a12(report_a.abs_errors, report_b.abs_errors, better="smaller"),
        m=report_a.n,
    )


def compare_pairs(reports: list[EvalReport],
                  pairs: list[tuple[str, str]]) -> list[PairwiseComparison]:
    """compare_pair for each (name_a, name_b) pair, looked up by model name."""
    by_name = {r.model_name: r for r in reports}
    out = []
    for name_a, name_b in pairs:
        if name_a not in by_name or name_b not in by_name:
            raise EvaluationError(f"unknown model in pair {name_a}:{name_b}")
        out.append(compare_pair(by_name[name_a], by_name[name_b]))
    return out


def compare_report(reports: list[EvalReport],
                   comparisons: list[PairwiseComparison] | None = None) -> str:
    """Aligned comparison table; the best (lowest) MAE is starred.

    Each comparison (see compare_pairs) adds its Wilcoxon p-value with the
    effect size in brackets.
    """
    if not reports:
        raise EvaluationError("no reports to compare")
    sizes = {r.n for r in reports}
    prints = {r.fingerprint for r in reports if r.fingerprint is not None}
    if len(sizes) > 1 or len(prints) > 1:
        raise EvaluationError("reports cover different test sets")
    best_mae = min(r.mae for r in reports)
    name_width = max(len(r.model_name) for r in reports) + 2
    lines = [f"{'model':<{name_width}}{'MAE':>10}{'SA':>10}{'MRE':>10}{'Pred':>10}"]
    for r in reports:
        mae_text = f"*{r.mae:.3f}*" if r.mae == best_mae else f"{r.mae:.3f}"
        mre_text = f"{r.mre:.3f}" if r.mre is not None else "-"
        pred_text = f"{r.pred:.3f}" if r.pred is not None else "-"
        lines.append(
            f"{r.model_name:<{name_width}}{mae_text:>10}{r.sa:>10.2f}"
            f"{mre_text:>10}{pred_text:>10}"
        )
    for cmp in comparisons or []:
        p_text = "<0.001" if cmp.p_value < 0.001 else f"{cmp.p_value:.3f}"
        lines.append(f"{cmp.model_a} vs {cmp.model_b}: p={p_text} [{cmp.a12:.2f}]")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# K-means over learned embeddings
# ---------------------------------------------------------------------------

def kmeans(points: np.ndarray, k: int, rng: np.random.Generator,
           max_iter: int = 300, tol: float = 1e-6):
    """Plain K-means with k-means++ seeding and Euclidean distances.

    Stops after max_iter rounds or when no centroid moves more than tol.
    Returns (labels, centers, inertia).
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if not 1 <= k <= n:
        raise EvaluationError(f"k={k} outside 1..{n}")
    centers = np.empty((k, pts.shape[1]))
    chosen = [int(rng.integers(n))]
    centers[0] = pts[chosen[0]]
    d2 = ((pts - centers[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:  # all remaining points coincide with a center
            idx = next(j for j in range(n) if j not in chosen)
        else:
            idx = int(rng.choice(n, p=d2 / total))
        chosen.append(idx)
        centers[i] = pts[idx]
        d2 = np.minimum(d2, ((pts - centers[i]) ** 2).sum(axis=1))
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(max_iter):
        dists = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = dists.argmin(axis=1)
        new_centers = centers.copy()
        for c in range(k):
            members = pts[labels == c]
            if len(members):
                new_centers[c] = members.mean(axis=0)
            else:  # re-seed an empty cluster on the farthest point
                new_centers[c] = pts[dists.min(axis=1).argmax()]
        movement = np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max()
        centers = new_centers
        if movement < tol:
            break
    dists = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    labels = dists.argmin(axis=1)
    inertia = float(dists[np.arange(n), labels].sum())
    return labels, centers, inertia


def cluster_word_embeddings(emb: np.ndarray, vocab: Vocabulary, top: int = 500,
                            k: int = 9, rng: np.random.Generator | None = None):
    """Cluster the embeddings of the most frequent words.

    The vocabulary is frequency-ordered, so the top words are simply the
    first entries after the two reserved tokens. Returns (token, cluster)
    pairs in vocabulary order.
    """
    if top < 1:
        raise EvaluationError(f"top must be >= 1, got {top}")
    if rng is None:
        rng = np.random.default_rng(0)
    words = vocab.tokens[2 : 2 + top]
    if not words:
        raise EvaluationError("vocabulary has no word entries")
    if k > len(words):
        raise EvaluationError(f"k={k} exceeds the {len(words)} available words")
    ids = np.array(vocab.encode(words))
    labels, _, _ = kmeans(emb[ids], k, rng)
    return list(zip(words, (int(c) for c in labels)))
