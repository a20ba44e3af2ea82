"""Spans around every call into the public functions of the storypoint
modules, installed from outside the package.

`install` replaces each public function (and each public method, through its
class) with a wrapper that records a span: name, parent span, start and end.
The wrapper goes into the defining module and into every module that imported
the function by name, so `trainer.batch_forward` and `model.batch_forward`
are one layer. Private helpers (leading underscore) stay unwrapped; their
time shows up as self time of the public caller. `jira_ingest` is not
wrapped: its time belongs to the remote server and its rate limiter.

Spans stay in memory and are written out by `write_spans` at the end. A few
wrappers also record counts at the same boundary: padded and real slots from
`model.pad_batch` and embedding rows touched by `numerics.RmsPropState.step`.
The `pretrain.perplexity` wrapper keeps the arguments of its first call;
`measure_peaks` replays that call once under tracemalloc after the traced
pass, so tracemalloc's cost never lands in a timed span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
import tracemalloc
from collections import defaultdict

import numpy as np

LAYERS = ("corpus", "model", "numerics", "trainer", "pretrain", "baselines",
          "evaluation", "cli")
PACKAGE = "storypoint"


class Tracer:
    """In-memory span recorder. One instance per traced run."""

    def __init__(self):
        self.spans = []   # (id, parent id, name, start, end, self seconds)
        self.counters = defaultdict(lambda: defaultdict(float))  # span id -> counts
        self.replays = {}  # span name -> (function, args, kwargs) of its first call
        self.peaks = {}    # span name -> tracemalloc peak of the replayed call, MB
        self._stack = []  # open frames: [id, name, start, child seconds]
        self._next_id = 1

    def open(self, name: str) -> list:
        frame = [self._next_id, name, 0.0, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def close(self, frame: list) -> None:
        end = time.perf_counter()
        span_id, name, start, child = frame
        self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append((span_id, parent[0] if parent else 0, name, start, end,
                           duration - child))

    def count_open(self, key: str, value: float) -> None:
        """Add to a counter of every open span."""
        for frame in self._stack:
            self.counters[frame[0]][key] += value

    @contextlib.contextmanager
    def span(self, name: str):
        frame = self.open(name)
        try:
            yield
        finally:
            self.close(frame)


def _wrap(tracer: Tracer, fn, name: str):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(frame)

    return traced


def _wrap_pad_batch(tracer: Tracer, fn, name: str):
    # padding is counted on every open span, so predict_points,
    # document_vectors and batch_loss_and_grads each see their own batches
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = tracer.open(name)
        try:
            ids, mask = fn(*args, **kwargs)
        finally:
            tracer.close(frame)
        tracer.count_open("slots", float(mask.size))
        tracer.count_open("real_slots", float(mask.sum()))
        return ids, mask

    return traced


def _wrap_rmsprop_step(tracer: Tracer, fn, name: str):
    @functools.wraps(fn)
    def traced(self, tensor_name, params, grads):
        touched = None
        if tensor_name == "emb":  # measured before the span opens
            touched = np.count_nonzero(np.any(grads != 0, axis=1)) / grads.shape[0]
        frame = tracer.open(name)
        try:
            return fn(self, tensor_name, params, grads)
        finally:
            tracer.close(frame)
            if touched is not None:
                tracer.counters[frame[0]]["emb_steps"] += 1
                tracer.counters[frame[0]]["emb_rows_touched_fraction"] += touched

    return traced


def _wrap_perplexity(tracer: Tracer, fn, name: str):
    # every call evaluates the same held-out set, so one replay gives the peak
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.replays.setdefault(name, (fn, args, kwargs))
        frame = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(frame)

    return traced


def measure_peaks(tracer: Tracer) -> None:
    """Replay each recorded call once under tracemalloc, untimed."""
    for name, (fn, args, kwargs) in tracer.replays.items():
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            tracer.peaks[name] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()


SPECIAL = {
    "model.pad_batch": _wrap_pad_batch,
    "numerics.RmsPropState.step": _wrap_rmsprop_step,
    "pretrain.perplexity": _wrap_perplexity,
}


def _public_functions(module, short: str):
    """(owner, attribute, function, span name) for every public function
    defined in the module, and every public method of its classes."""
    found = []
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            found.append((module, attr, obj, f"{short}.{attr}"))
        elif inspect.isclass(obj):
            for meth, member in vars(obj).items():
                if meth.startswith("_"):
                    continue
                raw = member.__func__ if isinstance(member, (classmethod, staticmethod)) else member
                if inspect.isfunction(raw):
                    found.append((obj, meth, member, f"{short}.{attr}.{meth}"))
    return found


def install(tracer: Tracer, layers=LAYERS):
    """Wrap the layers' public functions; returns an undo callable.

    The cli layer's own functions are not wrapped: the caller opens one
    root span, cli.<subcommand>, around each cli.main call instead.
    """
    modules = {short: importlib.import_module(f"{PACKAGE}.{short}") for short in layers}
    replaced = {}  # id(original function) -> (original, wrapper)
    undo = []
    for short, module in modules.items():
        if short == "cli":
            continue
        for owner, attr, member, name in _public_functions(module, short):
            factory = SPECIAL.get(name, _wrap)
            if isinstance(member, (classmethod, staticmethod)):
                wrapper = type(member)(factory(tracer, member.__func__, name))
            else:
                wrapper = factory(tracer, member, name)
                replaced[id(member)] = (member, wrapper)
            undo.append((owner, attr, member))
            setattr(owner, attr, wrapper)
    # rebind names imported elsewhere, e.g. trainer.batch_forward, cli.train
    for module in modules.values():
        for attr, obj in list(vars(module).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                undo.append((module, attr, obj))
                setattr(module, attr, hit[1])

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def summarize(tracer: Tracer) -> dict:
    """Per-span-name totals: calls, inclusive seconds (outermost calls
    only, so recursion is not counted twice), self seconds and counters."""
    by_id = {s[0]: s for s in tracer.spans}
    stats = defaultdict(lambda: defaultdict(float))
    for span_id, parent, name, start, end, self_s in tracer.spans:
        entry = stats[name]
        entry["calls"] += 1
        entry["self_s"] += self_s
        ancestor = by_id.get(parent)
        nested = False
        while ancestor is not None:
            if ancestor[2] == name:
                nested = True
                break
            ancestor = by_id.get(ancestor[1])
        if not nested:
            entry["s"] += end - start
        for key, value in tracer.counters.get(span_id, {}).items():
            entry[key] += value
    out = {}
    for name, entry in stats.items():
        row = dict(entry)
        if row.get("slots"):
            row["padding_fraction"] = 1.0 - row["real_slots"] / row["slots"]
        if row.get("emb_steps"):
            row["emb_rows_touched_fraction"] /= row["emb_steps"]
        if name in tracer.peaks:
            row["peak_mb"] = tracer.peaks[name]
        out[name] = row
    return out


def write_spans(tracer: Tracer, path) -> None:
    """Tab-separated spans: id, parent id, name, start and end in
    nanoseconds relative to the first span."""
    if not tracer.spans:
        path.write_text("")
        return
    t0 = min(s[3] for s in tracer.spans)
    with path.open("w") as fh:
        fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
        for span_id, parent, name, start, end, _ in sorted(tracer.spans):
            fh.write(f"{span_id}\t{parent}\t{name}\t{int((start - t0) * 1e9)}"
                     f"\t{int((end - t0) * 1e9)}\n")
