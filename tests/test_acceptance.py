"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -s` to see the
lines as they complete."""

import itertools
import math
import os
import time

import numpy as np
import pytest

from oracles import run_lstm
from storypoint import baselines, evaluation
from storypoint.corpus import (
    build_vocabulary,
    load_bundled_corpus,
    read_corpus,
    split_chronological,
    tokenize,
    write_corpus,
)
from storypoint.model import (
    ModelConfig,
    _highway_forward,
    batch_forward,
    batch_loss_and_grads,
    init_params,
    pad_batch,
    zero_params,
)
from storypoint.numerics import make_rng
from storypoint.pretrain import PretrainConfig, pretrain
from storypoint.trainer import TrainConfig, encode_issue, estimate, predict_points, train


def report(criterion, description, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"criterion {criterion}: {status} — {description} {detail}".rstrip())
    assert passed, f"criterion {criterion} failed: {description} {detail}"


def best_central_difference_error(loss_fn, tensor, analytic):
    """Per-coordinate relative error against central differences, letting
    each coordinate use the better of two step sizes (small h is noise-bound
    on near-zero gradients, large h is truncation-bound elsewhere)."""
    flat = tensor.reshape(-1)
    grad = analytic.reshape(-1)
    worst = 0.0
    for i in range(flat.size):
        orig = flat[i]
        best = None
        for h in (1e-4, 1e-3):
            flat[i] = orig + h
            f_plus = loss_fn()
            flat[i] = orig - h
            f_minus = loss_fn()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2 * h)
            err = abs(grad[i] - numeric) / max(abs(grad[i]), abs(numeric), 1e-8)
            best = err if best is None else min(best, err)
            if best < 1e-5:
                break
        worst = max(worst, best)
    return worst


def test_criterion_1_gradient_suite():
    start = time.monotonic()
    worst = 0.0
    for trial in range(20):
        rng = make_rng(1000 + trial)
        d = int(rng.integers(5, 11))
        depth = int(rng.integers(1, 4))
        vocab_size = int(rng.integers(8, 20))
        config = ModelConfig(embedding_dim=d, highway_depth=depth)
        params = init_params(vocab_size, config, rng)
        for tensor in params.tensors().values():
            tensor[...] = rng.uniform(-0.3, 0.3, tensor.shape)
        n_seq = int(rng.integers(1, 4))
        seqs = [list(rng.integers(0, vocab_size, size=int(rng.integers(1, 21))))
                for _ in range(n_seq)]
        targets = rng.uniform(1.0, 2.5, size=n_seq)
        ids, mask = pad_batch(seqs)

        def loss_fn():
            yhat, _ = batch_forward(ids, mask, params, config, None)
            return float(np.mean((yhat - targets) ** 2))

        _, _, grads = batch_loss_and_grads(seqs, targets, params, config)
        for name, tensor in params.tensors().items():
            worst = max(worst, best_central_difference_error(loss_fn, tensor, grads[name]))
    elapsed = time.monotonic() - start
    report(1, "full-stack gradients match central differences",
           worst <= 1e-4 and elapsed < 60,
           f"(max rel err {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_forced_algebra():
    config = ModelConfig(embedding_dim=6, highway_depth=4)
    params = zero_params(10, config)
    rng = make_rng(2)

    states = run_lstm(rng.normal(size=(9, 6))[None], params)[0]
    lstm_zero = bool(np.all(states == 0.0))

    h = rng.normal(size=6)
    halved = bool(np.allclose(_highway_forward(h[None], params, 1)[0][0], 0.5 * h, atol=1e-15))

    params.reg_b[0] = 4.5
    bias_out = batch_forward(*pad_batch([[1, 2, 3]]), params, config)[0][0] == pytest.approx(4.5)

    saturated = init_params(10, config, make_rng(3))
    saturated.hw_gate_b[...] = 60.0
    copy_through = all(
        np.array_equal(_highway_forward(h[None], saturated, depth)[0][0], h)
        for depth in (1, 2, 10, 100)
    )
    report(2, "all-zero and saturated-gate algebra is exact",
           lstm_zero and halved and bias_out and copy_through)


def test_criterion_3_overfit_and_beat_baselines():
    start = time.monotonic()
    split = split_chronological(load_bundled_corpus())
    config = ModelConfig(embedding_dim=10, highway_depth=2)
    result = train(split, config, TrainConfig(epochs=300, batch_size=100,
                                              patience=300, seed=42))
    params = result.checkpoint.to_params()
    train_seqs = [encode_issue(r, result.vocab) for r in split.train]
    train_actual = np.array([r.story_points for r in split.train])
    train_mae = float(np.mean(np.abs(
        predict_points(params, config, train_seqs) - train_actual
    )))
    test_actual = np.array([r.story_points for r in split.test])
    predicted = np.array([v for _, v in estimate(result.checkpoint, result.vocab, split.test)])
    test_mae = float(np.mean(np.abs(predicted - test_actual)))

    past = [r.story_points for r in split.train]
    mean_mae = float(np.mean(np.abs(baselines.mean_effort(past) - test_actual)))
    median_mae = float(np.mean(np.abs(baselines.median_effort(past) - test_actual)))
    elapsed = time.monotonic() - start
    ok = (
        train_mae < 0.5
        and mean_mae == pytest.approx(3.5)
        and median_mae == pytest.approx(3.5)
        and test_mae <= 0.5 * mean_mae
        and test_mae <= 0.5 * median_mae
        and elapsed < 180
    )
    report(3, "network overfits the keyword corpus and beats mean/median by >= 50%",
           ok, f"(train MAE {train_mae:.3f}, test MAE {test_mae:.3f}, {elapsed:.1f}s)")


def test_criterion_4_pretraining_periodic_corpus():
    docs = [tokenize(("a b c " * 10).strip(), "word") for _ in range(45)]
    vocab = build_vocabulary(docs, min_count=1)
    seqs = [vocab.encode(d) for d in docs]
    config = ModelConfig(embedding_dim=8, highway_depth=1)
    results = {}
    for objective in ("nce", "softmax"):
        cfg = PretrainConfig(epochs=200, batch_size=16, nce_samples=4,
                             patience=60, objective=objective)
        results[objective] = pretrain(seqs, len(vocab), config, cfg, seed=42).best_perplexity
    ratio = max(results.values()) / min(results.values())
    ok = results["nce"] < 1.5 and results["nce"] >= 1.0 and ratio <= 1.15
    report(4, "periodic-corpus perplexity beats 1.5 and NCE tracks the exact softmax",
           ok, f"(nce {results['nce']:.4f}, softmax {results['softmax']:.4f})")


def test_criterion_5_metric_oracles():
    rng = make_rng(5)
    actual = rng.uniform(1, 40, size=400)
    estimated = rng.uniform(0, 40, size=400)

    mae_oracle = math.fsum(abs(a - e) for a, e in zip(actual, estimated)) / len(actual)
    mae_ok = abs(evaluation.mae(actual, estimated) - mae_oracle) <= 1e-9 * mae_oracle

    sa_oracle = (1 - mae_oracle / 2.5) * 100
    sa_ok = abs(evaluation.sa(mae_oracle, 2.5) - sa_oracle) <= 1e-9 * abs(sa_oracle)

    mre_oracle = math.fsum(abs(a - e) / a for a, e in zip(actual, estimated)) / len(actual)
    pred_oracle = sum(abs(a - e) / a <= 0.25 for a, e in zip(actual, estimated)) / len(actual)
    mre, pred = evaluation.mre_pred(actual, estimated, level=25)
    mre_ok = abs(mre - mre_oracle) <= 1e-9 * mre_oracle and pred == pytest.approx(pred_oracle)

    train_pts = rng.integers(1, 9, size=12).astype(float)
    test_pts = rng.integers(1, 9, size=7).astype(float)
    per_issue_mean = np.array([np.mean(np.abs(train_pts - a)) for a in test_pts])
    per_issue_var = np.array([np.var(np.abs(train_pts - a)) for a in test_pts])
    expectation = float(per_issue_mean.mean())
    se = math.sqrt(per_issue_var.sum() / len(test_pts) ** 2 / 1000)
    observed = evaluation.random_guess_mae(train_pts, test_pts, runs=1000, rng=make_rng(6))
    rg_ok = abs(observed - expectation) < 3 * se

    report(5, "metrics match brute-force oracles; random-guess MAE converges",
           mae_ok and sa_ok and mre_ok and rg_ok,
           f"(random-guess |obs-exp| {abs(observed - expectation):.2e} < 3se {3*se:.2e})")


def full_enumeration_wilcoxon(diffs):
    diffs = [d for d in diffs if d != 0]
    mags = [abs(d) for d in diffs]
    order = sorted(range(len(mags)), key=lambda i: mags[i])
    ranks = [0.0] * len(mags)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and mags[order[j + 1]] == mags[order[i]]:
            j += 1
        for pos in range(i, j + 1):
            ranks[order[pos]] = (i + j) / 2 + 1
        i = j + 1
    observed = sum(r for d, r in zip(diffs, ranks) if d > 0)
    hits = sum(
        sum(r for s, r in zip(signs, ranks) if s) <= observed + 1e-12
        for signs in itertools.product([0, 1], repeat=len(diffs))
    )
    return hits / 2 ** len(diffs)


def test_criterion_6_statistics_oracles():
    rng = make_rng(7)
    exact_ok = True
    for n in (5, 8, 10, 12):
        for _ in range(3):
            a = rng.integers(0, 6, size=n).astype(float)
            b = rng.integers(0, 6, size=n).astype(float)
            if np.all(a == b):
                continue
            got = evaluation.wilcoxon_signed_rank(a, b, alternative="a_less").p_value
            want = full_enumeration_wilcoxon(list(a - b))
            exact_ok = exact_ok and got == pytest.approx(want, abs=1e-12)

    all_wins = evaluation.wilcoxon_signed_rank(
        [1.0, 2, 3, 4, 5, 6], [3.0, 5, 7, 9, 11, 13], alternative="a_less"
    ).p_value
    all_wins_ok = all_wins == pytest.approx(1 / 64, rel=1e-12)

    a12_ok = True
    for _ in range(50):
        m, n = int(rng.integers(2, 10)), int(rng.integers(2, 10))
        values = rng.choice(10_000, size=m + n, replace=False).astype(float)
        x, y = values[:m], values[m:]
        combined = np.concatenate([x, y])
        ranks = combined.argsort().argsort() + 1.0
        r1 = float(ranks[:m].sum())
        formula = (r1 / m - (m + 1) / 2) / n
        a12_ok = a12_ok and evaluation.a12(x, y, better="larger") == pytest.approx(formula)

    identical_ok = evaluation.a12([2.0, 3.0], [2.0, 3.0]) == 0.5
    dominant_ok = evaluation.a12([1.0, 1.0], [9.0, 9.0], better="smaller") == 1.0
    report(6, "Wilcoxon exact branch and both A-hat-12 forms agree with enumeration",
           exact_ok and all_wins_ok and a12_ok and identical_ok and dominant_ok,
           f"(all-wins p {all_wins:.6f})")


def test_criterion_7_baseline_oracles():
    from test_baselines import oracle_cart, oracle_predict

    rng = make_rng(8)
    cart_ok = True
    for _ in range(3):
        x = rng.normal(size=(12, 2))
        y = rng.normal(size=12)
        tree = baselines.cart_fit(x, y, min_leaf_size=2, prune_level=0)
        oracle = oracle_cart(x, y, np.arange(12), 2)
        for probe in rng.normal(size=(20, 2)):
            cart_ok = cart_ok and baselines.cart_predict(tree, probe) == pytest.approx(
                oracle_predict(oracle, probe), rel=1e-12
            )

    x = rng.normal(size=(15, 3))
    y = rng.normal(size=15)
    forest = baselines.rf_fit(x, y, n_trees=1, rng=make_rng(9), bootstrap=False,
                              n_features=None, min_leaf_size=5)
    tree = baselines.cart_fit(x, y, min_leaf_size=5, prune_level=0)
    rf_ok = all(
        baselines.rf_predict(forest, probe) == baselines.cart_predict(tree, probe)
        for probe in rng.normal(size=(15, 3))
    )

    feats = rng.normal(size=(10, 4))
    points = rng.uniform(1, 9, size=10)
    cbr_ok = True
    for _ in range(10):
        probe = rng.normal(size=4)
        dists = sorted((float(np.linalg.norm(row - probe)), i) for i, row in enumerate(feats))
        want = float(np.mean([points[i] for _, i in dists[:3]]))
        cbr_ok = cbr_ok and baselines.cbr_estimate(feats, points, probe, k=3) == pytest.approx(want)

    lx = rng.normal(size=(30, 4))
    ly = lx @ np.array([2.0, -1.0, 0.5, 3.0]) + rng.normal(scale=0.1, size=30)
    ols = baselines.ols_fit(lx, ly)
    relaxed = baselines.lasso_fit(lx, ly, s=1e9)
    lasso_inf_ok = bool(np.allclose(relaxed.coef, ols.coef, atol=1e-6)) and (
        relaxed.intercept == pytest.approx(ols.intercept, abs=1e-6)
    )
    binding = baselines.lasso_fit(lx, ly, s=0.0)
    lasso_zero_ok = bool(np.all(binding.coef == 0.0))
    zero_counts = [
        int(np.sum(baselines.lasso_fit(lx, ly, s=s).coef == 0.0))
        for s in (0.2, 1.0, 3.0, 8.0)
    ]
    path_ok = zero_counts == sorted(zero_counts, reverse=True)

    report(7, "tree/forest/neighbour/lasso baselines match their oracles",
           cart_ok and rf_ok and cbr_ok and lasso_inf_ok and lasso_zero_ok and path_ok,
           f"(lasso zero-count path {zero_counts})")


def test_criterion_8_pipeline_determinism(tmp_path):
    from storypoint.cli import main

    corpus_path = tmp_path / "corpus.jsonl"
    write_corpus(load_bundled_corpus(), corpus_path)
    artifacts = []
    for run_dir in (tmp_path / "run1", tmp_path / "run2"):
        split_dir = run_dir / "split"
        assert main(["prepare", "--in", str(corpus_path), "--out-dir", str(split_dir),
                     "--min-project-size", "0"]) == 0
        assert main(["pretrain", "--corpus", str(split_dir / "train.jsonl"),
                     "--vocab", str(split_dir / "vocab.txt"),
                     "--out-dir", str(run_dir), "--dim", "8", "--depth", "2",
                     "--epochs", "3", "--batch-size", "16", "--nce-samples", "5",
                     "--seed", "11"]) == 0
        assert main(["train", "--split-dir", str(split_dir), "--out-dir", str(run_dir),
                     "--dim", "8", "--depth", "2", "--epochs", "5",
                     "--batch-size", "16", "--seed", "11",
                     "--pretrained", str(run_dir / "pretrain.ckpt")]) == 0
        assert main(["estimate", "--checkpoint", str(run_dir / "model.ckpt"),
                     "--vocab", str(split_dir / "vocab.txt"),
                     "--in", str(split_dir / "test.jsonl"),
                     "--out", str(run_dir / "est.csv")]) == 0
        assert main(["baseline", "--model", "random", "--split-dir", str(split_dir),
                     "--in", str(split_dir / "test.jsonl"),
                     "--out", str(run_dir / "rand.csv"), "--seed", "11"]) == 0
        assert main(["evaluate", "--split-dir", str(split_dir),
                     "--estimates", f"net={run_dir / 'est.csv'}",
                     f"random={run_dir / 'rand.csv'}", "--pairs", "net:random",
                     "--seed", "11", "--out", str(run_dir / "report.csv")]) == 0
        artifacts.append({
            name: (run_dir / name).read_bytes()
            for name in ("pretrain.ckpt", "model.ckpt", "est.csv", "rand.csv",
                         "report.csv", "train_log.csv")
        })
    same = {name: artifacts[0][name] == artifacts[1][name] for name in artifacts[0]}
    report(8, "two identically seeded pipeline runs produce identical bytes",
           all(same.values()), f"({sum(same.values())}/{len(same)} artifacts identical)")


MESOS_ENV = "STORYPOINT_MESOS_CORPUS"


@pytest.mark.skipif(MESOS_ENV not in os.environ,
                    reason=f"set {MESOS_ENV} to a JIRA-exported Apache Mesos corpus")
def test_criterion_9_mesos_descriptive_statistics():
    from storypoint.corpus import dataset_stats, filter_issues

    records = read_corpus(os.environ[MESOS_ENV])
    kept, _ = filter_issues(records, min_project_size=300)
    labeled = [r for r in kept if r.story_points is not None]
    stats = dataset_stats(labeled)
    ok = (
        stats["count"] == 1680
        and stats["mean_sp"] == pytest.approx(3.09, abs=0.005)
        and stats["median_sp"] == pytest.approx(3.0)
        and stats["var_sp"] == pytest.approx(5.87, abs=0.005)
    )
    report(9, "real Apache Mesos corpus reproduces the reference statistics", ok,
           f"(count {stats['count']}, mean {stats['mean_sp']:.3f}, var {stats['var_sp']:.3f})")
