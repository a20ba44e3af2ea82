"""One benchmark child process: build a workload's inputs, then drive the
pipeline through `storypoint.cli.main`, timing every stage.

Run by run.py as `python3 perfbench/workload.py SPEC.json` with `src` on
PYTHONPATH and the BLAS thread count fixed in the environment. The spec
names the workload, its sizes, the seed, how many seconds to measure, the
role ("main" measures; "probe" reruns the BLAS-sensitive stages under
another thread count) and where to write the result JSON.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import dataclasses
import hashlib
import json
import math
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import corpus_gen
import tracing
from storypoint import cli
from storypoint.baselines import IssueFeatureInput
from storypoint.corpus import build_vocabulary, load_vocabulary, tokenize
from storypoint.model import (ModelConfig, batch_loss_and_grads, init_params, make_dropout_masks,
                              pad_batch, save_checkpoint)
from storypoint.pretrain import PRETRAIN_TENSORS, PretrainConfig, pretrain

PROJECT = "BENCH"
MIN_PASSES = 2  # the same-seed byte comparison needs two
PAIRS = "bow-rf:lstm-rf,bow-rf:cart,lstm-rf:cart,cbr:ols,ols:cart"
# baselines whose arithmetic goes through BLAS/LAPACK (document vectors,
# least squares); the probe reruns these and reuses the other estimates
PROBE_BASELINES = ("lstm-rf", "ols")
# The quality numbers of a short paper-scale run barely react to a broken
# gradient (dropping the LSTM cell-state gradient moved error_ratio by under
# 0.1% on supervised and 4% on pretrain), so the gate also checks learning
# directly, on inputs small enough to cost well under a second.
MAX_GRADIENT_ERROR = 1e-4
MAX_PERIODIC_PERPLEXITY = 1.5  # a next-token model of "a b c a b c ..."


def _run_stage(argv: list[str], tracer: tracing.Tracer | None) -> tuple[float, str | None]:
    """Call cli.main once; return (seconds, error or None)."""
    error = None
    span = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with span:
            rc = cli.main(argv)
        if rc != 0:
            error = f"exit code {rc}"
    except SystemExit as exc:  # argparse rejects flags this way
        error = f"exit code {exc.code}"
    except Exception:  # a crash in one stage is a failed operation, not a crash here
        error = traceback.format_exc(limit=3)
    return time.perf_counter() - start, error


def _stages(spec: dict, split: Path, out: Path, probe: bool) -> list[tuple[str, list[str]]]:
    """(label, argv) for one pass of the workload."""
    sizes = spec["sizes"]
    model = ["--dim", str(sizes["dim"]), "--depth", str(sizes["depth"])]
    epochs = str(sizes["epochs"])
    name = spec["workload"]
    if name == "supervised":
        stages = [("train", ["train", "--split-dir", str(split), "--out-dir", str(out),
                             "--epochs", epochs, "--patience", epochs, *model])]
        if not probe:
            stages.append(("estimate", [
                "estimate", "--checkpoint", str(out / "model.ckpt"),
                "--vocab", str(out / "vocab.txt"), "--in", str(split / "test.jsonl"),
                "--out", str(out / "estimates.csv")]))
        return stages
    if name == "pretrain":
        return [("pretrain", ["pretrain", "--corpus", str(split / "unlabeled.jsonl"),
                              "--vocab", str(split / "vocab.txt"), "--out-dir", str(out),
                              "--epochs", epochs, "--patience", epochs,
                              "--objective", "nce", *model])]
    models = list(spec["baselines"])
    stages = []
    for m in models:
        if probe and m not in PROBE_BASELINES:
            continue
        argv = ["baseline", "--model", m, "--split-dir", str(split),
                "--in", str(split / "test.jsonl"), "--out", str(out / f"{m}.csv")]
        if m == "lstm-rf":
            argv += ["--checkpoint", str(Path(spec["work"]) / "lstm_features.ckpt")]
        elif m in ("cart", "cbr", "ols", "lasso"):
            argv += ["--features", str(Path(spec["work"]) / "input" / "features.csv")]
        stages.append((f"baseline {m}", argv))
    stages.append(("evaluate", [
        "evaluate", "--split-dir", str(split),
        "--estimates", *[f"{m}={out / (m + '.csv')}" for m in models],
        "--pairs", PAIRS, "--out", str(out / "report.csv")]))
    return stages


def _hash_dir(path: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.iterdir()) if p.is_file()}


def _read_points(path: Path) -> np.ndarray:
    with path.open(encoding="utf-8") as fh:
        return np.array([json.loads(line)["story_points"] for line in fh if line.strip()])


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _check_estimates(path: Path, expected: int, errors: list[str]) -> None:
    rows = _read_csv(path)
    values = np.array([float(r["estimate"]) for r in rows])
    if len(rows) != expected:
        errors.append(f"{path.name}: {len(rows)} estimates for {expected} issues")
    if not np.all(np.isfinite(values)) or np.any(values < 0):
        errors.append(f"{path.name}: non-finite or negative estimate")


def check_outputs(spec: dict, split: Path, out: Path) -> tuple[dict, list[str]]:
    """Correctness gate on one pass's artifacts; returns (quality, errors).

    Quality numbers are deterministic for a seed: `valid_mae` or
    `valid_perplexity` as the workload reports it, and `error_ratio`, the
    model error over a naive reference on the same data.
    """
    errors = []
    quality = {}
    name = spec["workload"]
    epochs = spec["sizes"]["epochs"]
    if name == "supervised":
        log = _read_csv(out / "train_log.csv")
        if len(log) != epochs:  # a numeric abort stops early and exits 0
            errors.append(f"train ran {len(log)} of {epochs} epochs")
        valid_mae = float(log[-1]["best_so_far"]) if log else math.nan
        train_y, valid_y = _read_points(split / "train.jsonl"), _read_points(split / "valid.jsonl")
        naive = float(np.mean(np.abs(valid_y - train_y.mean())))
        quality = {"valid_mae": valid_mae, "error_ratio": valid_mae / naive}
        _check_estimates(out / "estimates.csv", len(_read_points(split / "test.jsonl")), errors)
    elif name == "pretrain":
        log = _read_csv(out / "pretrain_log.csv")
        if len(log) != epochs:
            errors.append(f"pretrain ran {len(log)} of {epochs} epochs")
        ppl = float(log[-1]["valid_perplexity"]) if log else math.nan
        vocab_size = len(load_vocabulary(split / "vocab.txt"))
        # held-out cross-entropy per token over that of a uniform guess
        # (log V); perplexity itself swings by 1.6x between seeds here
        quality = {"valid_perplexity": ppl,
                   "error_ratio": math.log(ppl) / math.log(vocab_size)}
    else:
        test_y = _read_points(split / "test.jsonl")
        for m in spec["baselines"]:
            _check_estimates(out / f"{m}.csv", len(test_y), errors)
        report = {r["model"]: float(r["mae"]) for r in _read_csv(out / "report.csv")}
        missing = [m for m in spec["baselines"] if m not in report]
        missing += [p.replace(":", " vs ") for p in PAIRS.split(",")
                    if p.replace(":", " vs ") not in report]
        if missing:
            errors.append(f"report.csv lacks rows {missing}")
        naive = float(np.mean(np.abs(test_y - _read_points(split / "train.jsonl").mean())))
        maes = [report.get(m, math.nan) for m in spec["baselines"]]
        quality = {"test_mae_" + m: v for m, v in zip(spec["baselines"], maes)}
        quality["error_ratio"] = float(np.mean(maes)) / naive
    for key, value in quality.items():
        if not math.isfinite(value):
            errors.append(f"{key} is not finite")
    return quality, errors


def gradient_error() -> float:
    """Worst relative error between batch_loss_and_grads and central
    differences of its loss, on a tiny model with fixed dropout masks."""
    rng = np.random.default_rng(7)
    config = ModelConfig(embedding_dim=4, highway_depth=2)
    params = init_params(9, config, rng)
    for tensor in params.tensors().values():
        tensor[...] = rng.uniform(-0.3, 0.3, tensor.shape)
    seqs, targets = [[1, 3, 4, 2, 1], [5, 6, 8]], [1.5, 2.0]
    ids, _ = pad_batch(seqs)
    masks = make_dropout_masks(ids.shape[0], ids.shape[1], config, rng)

    def loss() -> float:
        return batch_loss_and_grads(seqs, targets, params, config, masks=masks)[0]

    _, _, grads = batch_loss_and_grads(seqs, targets, params, config, masks=masks)
    worst, h = 0.0, 1e-4
    for name, tensor in params.tensors().items():
        if name == "lm_u":  # the pre-training head; the supervised loss ignores it
            continue
        flat, analytic = tensor.reshape(-1), grads[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss()
            flat[i] = orig - h
            down = loss()
            flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            worst = max(worst, abs(analytic[i] - numeric)
                        / max(abs(analytic[i]), abs(numeric), 1e-8))
    return worst


def periodic_perplexity() -> float:
    """Best held-out perplexity of NCE pre-training on "a b c" repeated."""
    docs = [tokenize(("a b c " * 10).strip(), "word") for _ in range(45)]
    vocab = build_vocabulary(docs, min_count=1)
    config = PretrainConfig(epochs=200, batch_size=16, nce_samples=4, patience=60)
    return pretrain([vocab.encode(d) for d in docs], len(vocab),
                    ModelConfig(embedding_dim=8, highway_depth=1), config, seed=42).best_perplexity


def learning_checks(workload: str) -> tuple[dict, list[str]]:
    """Gate on the training math the workload drives; returns (values, errors)."""
    values = {"gradient_error": gradient_error()}
    errors = []
    if not values["gradient_error"] <= MAX_GRADIENT_ERROR:
        errors.append(f"gradients differ from central differences by "
                      f"{values['gradient_error']:.2e}")
    if workload == "pretrain":
        values["periodic_perplexity"] = periodic_perplexity()
        if not values["periodic_perplexity"] < MAX_PERIODIC_PERPLEXITY:
            errors.append(f"NCE pre-training reaches perplexity "
                          f"{values['periodic_perplexity']:.3f} on a periodic corpus")
    return values, errors


def _prepare_argv(spec: dict, out: Path) -> list[str]:
    return ["prepare", "--in", str(Path(spec["work"]) / "input" / "corpus.jsonl"),
            "--out-dir", str(out),
            "--min-project-size", str(spec["sizes"]["min_project_size"])]


def setup(spec: dict) -> dict:
    """Generate the corpus, then time `prepare` several times (the median
    is setup_s). The lstm-rf feature checkpoint is built here with
    init_params and save_checkpoint, so no training happens in set-up."""
    work = Path(spec["work"])
    sizes = spec["sizes"]
    generated = corpus_gen.generate(work / "input", spec["seed"], PROJECT,
                                    sizes["labeled"], sizes["unlabeled"])
    fields = tuple(f.name for f in dataclasses.fields(IssueFeatureInput))
    learning, errors = learning_checks(spec["workload"])
    if fields != corpus_gen.FEATURE_FIELDS:
        errors.append(f"feature table covers {corpus_gen.FEATURE_FIELDS}, program has {fields}")
    argv = _prepare_argv(spec, work / "split")
    times = []
    failed = 0
    while len(times) < 5 or (sum(times) < 2.0 and len(times) < 40):
        seconds, error = _run_stage(argv, None)
        times.append(seconds)
        if error:
            errors.append(f"prepare: {error}")
            failed = 1
            break
    if spec["workload"] == "baselines" and not errors:
        vocab = load_vocabulary(work / "split" / "vocab.txt")
        config = ModelConfig(embedding_dim=sizes["dim"], highway_depth=sizes["depth"])
        params = init_params(len(vocab), config, np.random.default_rng(spec["seed"]))
        save_checkpoint(work / "lstm_features.ckpt", "pretrain", config, vocab.content_hash(),
                        {n: getattr(params, n) for n in PRETRAIN_TENSORS})
    test_issues = len(_read_points(work / "split" / "test.jsonl")) if not errors else 0
    return {"generated": generated, "learning": learning, "setup_times": times,
            "prepare_argv": argv,
            "errors": errors, "test_issues": test_issues,
            "attempted": len(times), "failed": failed}


def run_pass(spec: dict, out: Path, probe: bool = False,
             tracer: tracing.Tracer | None = None) -> dict:
    split = Path(spec["work"]) / "split"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    if probe and spec["workload"] == "baselines":
        for m in spec["baselines"]:
            if m not in PROBE_BASELINES:
                shutil.copy(Path(spec["work"]) / "pass" / f"{m}.csv", out / f"{m}.csv")
    stages = []
    start = time.perf_counter()
    for label, argv in _stages(spec, split, out, probe):
        seconds, error = _run_stage(argv, tracer)
        stages.append({"label": label, "seconds": seconds, "error": error})
        if error:
            break
    return {"seconds": time.perf_counter() - start, "stages": stages,
            "failed": sum(1 for s in stages if s["error"]),
            "hashes": _hash_dir(out)}


def blas_info() -> dict:
    """BLAS library from numpy's build config, and the thread count the
    loaded OpenBLAS reports (None where it cannot be asked)."""
    config = np.show_config(mode="dicts") or {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    threads = None
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
        if threads is not None:
            break
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": threads}


def _traced_pass(spec: dict, out: Path, tracer: tracing.Tracer,
                 with_prepare: bool) -> tuple[dict, str | None]:
    """One pass with every public function wrapped; returns (pass, prepare error)."""
    uninstall = tracing.install(tracer)
    try:
        prepare_error = None
        if with_prepare:  # spans for the corpus layer; the timed set-up stays untraced
            _, prepare_error = _run_stage(
                _prepare_argv(spec, Path(spec["work"]) / "split_traced"), tracer)
        return run_pass(spec, out, tracer=tracer), prepare_error
    finally:
        uninstall()


def main_role(spec: dict) -> dict:
    """Set up, then repeat passes until --seconds have passed. With tracing,
    untraced and traced passes alternate, so trace.overhead_s compares
    passes from the same stretch of the run; the first traced pass gives the
    spans, later ones only times."""
    result = setup(spec)
    result["machine"] = blas_info()
    errors = result["errors"]
    work = Path(spec["work"])
    passes, traced = [], []
    tracer = None
    if not errors:
        start = time.perf_counter()
        while True:
            if passes:
                # one more set-up sample per pass spreads them over the run
                seconds, error = _run_stage(result["prepare_argv"], None)
                result["setup_times"].append(seconds)
                result["attempted"] += 1
                if error:
                    errors.append(f"prepare: {error}")
                    result["failed"] += 1
                    break
            if spec["trace"] and len(traced) < len(passes):
                first = tracer is None
                current = tracing.Tracer()
                done, prepare_error = _traced_pass(spec, work / "pass", current, first)
                traced.append(done)
                if first:
                    tracer = current
                    result["attempted"] += 1
                    if prepare_error:
                        errors.append(f"traced prepare: {prepare_error}")
                        result["failed"] += 1
                        break
                label = f"traced pass {len(traced)}"
            else:
                done = run_pass(spec, work / "pass")
                passes.append(done)
                label = f"pass {len(passes)}"
            if done["failed"]:
                errors.append(f"{label}: {done['stages'][-1]['error']}")
                break
            if done["hashes"] != passes[0]["hashes"]:
                errors.append(f"{label} artifacts differ from pass 1 (same seed)")
            if len(passes) == 1 and not traced:
                quality, gate = check_outputs(spec, work / "split", work / "pass")
                result["quality"] = quality
                errors.extend(gate)
            if (len(passes) >= MIN_PASSES
                    and len(traced) == (len(passes) if spec["trace"] else 0)
                    and time.perf_counter() - start >= spec["seconds"]):
                break
    result["passes"] = passes
    result["attempted"] += sum(len(p["stages"]) for p in passes + traced)
    result["failed"] += sum(p["failed"] for p in passes + traced)
    if tracer is not None and not errors:
        tracing.measure_peaks(tracer)  # after the timed passes, outside any span
        result["layers"] = tracing.summarize(tracer)
        result["traced_passes"] = traced
        result["span_count"] = len(tracer.spans)
        tracing.write_spans(tracer, work / "spans.tsv")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def probe_role(spec: dict) -> dict:
    """Rerun the BLAS-sensitive stages on the main child's inputs."""
    done = run_pass(spec, Path(spec["work"]) / "probe", probe=True)
    errors = [f"probe: {s['error']}" for s in done["stages"] if s["error"]]
    return {"hashes": done["hashes"], "errors": errors, "machine": blas_info(),
            "attempted": len(done["stages"]), "failed": done["failed"]}


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    result = (probe_role if spec["role"] == "probe" else main_role)(spec)
    Path(spec["result"]).write_text(json.dumps(result, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
