"""Fork-based execution of independent tasks on the CPUs of this host.

A Pool runs tasks in this process and in forked worker processes, one pipe
each. The objects a pool is created with reach the workers through the
fork, not through a pipe, and go to every task ahead of its own arguments,
so a task that reads the model parameters never pickles a V x d array.
`share` moves a parameter set into anonymous shared memory first, so the
in-place updates this process makes between tasks (the optimizer step) are
seen by the workers too.

Which process runs a task changes the speed, never the result: callers cut
their work into tasks that do not depend on the process count and combine
the results in task order. Every fixed task list is cut by shard_bounds:
the row shards of a training batch, and over unit lengths the spans of a
perplexity batch and the tree seeds of a forest. Items of uneven length are
batched by area_batches: inference batches, and the split searches of a
forest step.
"""

from __future__ import annotations

import mmap
import os
from multiprocessing import get_all_start_methods, get_context
from multiprocessing.connection import wait

import numpy as np

# Tasks of a shard_bounds cut, and so the most processes a pool runs.
SHARDS = 2


def shard_bounds(lengths) -> list[tuple[int, int]]:
    """(start, stop) rows of the contiguous row shards of a batch whose
    sequences have these lengths: SHARDS shards, or one for one row. Over
    unit lengths, n rows split at n // 2.

    A shard's work grows with its padded area, rows times its longest
    sequence, so the cut goes where the larger of the two areas is least,
    the first such row on ties. Length-sorted batches then split near the
    middle, and a batch with a long tail gives its long rows fewer company.
    """
    lengths = np.asarray(lengths)
    if len(lengths) < 2:
        return [(0, len(lengths))]
    rows = np.arange(1, len(lengths))
    head = rows * np.maximum.accumulate(lengths)[:-1]
    tail = rows[::-1] * np.maximum.accumulate(lengths[::-1])[-2::-1]
    cut = int(rows[np.argmin(np.maximum(head, tail))])
    return [(0, cut), (cut, len(lengths))]


def area_batches(lengths, area: int) -> list[np.ndarray]:
    """Indices of items with these lengths cut into batches of padded area
    rows * longest <= area, or of one row.

    The indices are sorted by length, ties in index order, and cut walking
    down from the longest, so each batch takes as many rows as fit under
    its own longest item. The batches come in ascending length and depend
    on the lengths alone.
    """
    lengths = np.asarray(lengths)
    order = np.argsort(lengths, kind="stable")
    batches = []
    stop = len(order)
    while stop:
        start = max(0, stop - max(1, area // max(1, lengths[order[stop - 1]])))
        batches.append(order[start:stop])
        stop = start
    return batches[::-1]


class WorkerError(RuntimeError):
    """A worker process died or could not send its result back."""


def process_count() -> int:
    """Processes a pool runs: min(SHARDS, CPUs this process may run on),
    or 1 where processes cannot be forked."""
    if "fork" not in get_all_start_methods():
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    return max(1, min(SHARDS, cpus))


def share(params) -> None:
    """Rebind every tensor of params to a view of one anonymous MAP_SHARED
    mapping, values unchanged. Processes forked afterwards see the in-place
    updates this process makes to them; copies stay private."""
    tensors = params.tensors()
    buffer = mmap.mmap(-1, max(1, sum(t.nbytes for t in tensors.values())))
    offset = 0
    for name, tensor in tensors.items():
        view = np.frombuffer(buffer, dtype=tensor.dtype, count=tensor.size, offset=offset)
        view = view.reshape(tensor.shape)
        view[...] = tensor
        setattr(params, name, view)
        offset += tensor.nbytes


def _serve(conn, shared, others) -> None:
    """Worker loop: run (fn, args) messages until the parent closes the pipe."""
    for other in others:  # the parent's pipe ends: end of file comes when it closes its own
        other.close()
    while True:
        try:
            fn, args = conn.recv()
        except EOFError:
            return
        try:
            reply = (True, fn(*shared, *args))
        except Exception as exc:  # raised again in the parent
            reply = (False, exc)
        try:
            conn.send(reply)
        except Exception as exc:  # a result or exception that does not pickle
            conn.send((False, WorkerError(f"cannot send back {reply[1]!r}: {exc!r}")))


class Pool:
    """Runs fn(*shared, *task) tasks in this process and in
    process_count() - 1 workers forked at creation. With one process,
    nothing is forked. Use it as a context manager: leaving it closes the
    pipes and joins the workers (kills them when leaving on an exception).
    """

    def __init__(self, *shared):
        self.shared = shared
        self._workers = []  # (process, connection)
        context = get_context("fork")
        for _ in range(process_count() - 1):
            ours, theirs = context.Pipe()
            others = [ours, *(conn for _, conn in self._workers)]
            process = context.Process(target=_serve, args=(theirs, shared, others), daemon=True)
            process.start()
            theirs.close()
            self._workers.append((process, ours))

    def __enter__(self) -> "Pool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        for process, conn in self._workers:
            if exc_type is not None:
                process.kill()
            conn.close()
        for process, _ in self._workers:
            process.join()
        self._workers = []

    def map(self, fn, tasks: list[tuple], *shared) -> list:
        """fn(*shared, *task) for every task; results in task order.

        `shared` must be the objects the pool was created with. Tasks are
        dealt from the last to the first, to whichever process is free;
        workers take one while at least two are left, this process takes
        the next. Callers that list tasks by ascending cost (length
        batches, the row shards of a length-sorted batch) so start the
        longest first. If tasks fail, the first failed one in task order
        raises its exception, once every task handed out is back.
        """
        if len(shared) != len(self.shared) or any(a is not b for a, b in zip(shared, self.shared)):
            raise ValueError("pool tasks must use the objects the pool was created with")
        results = [None] * len(tasks)
        errors = {}
        todo = list(range(len(tasks)))
        idle = list(self._workers)
        busy = {}  # connection -> (process, task index)
        while busy or (todo and not errors):
            while idle and len(todo) > 1 and not errors:
                process, conn = idle.pop()
                i = todo.pop()
                try:
                    conn.send((fn, tasks[i]))
                except OSError as exc:
                    raise WorkerError(f"worker {process.pid} is gone: {exc}") from exc
                busy[conn] = (process, i)
            if todo and not errors:
                i = todo.pop()
                try:
                    results[i] = fn(*shared, *tasks[i])
                except Exception as exc:  # the busy workers' results are collected first
                    errors[i] = exc
                timeout = 0
            else:
                timeout = None
            for conn in self._replies(busy, timeout):
                process, i = busy.pop(conn)
                try:
                    ok, value = conn.recv()
                except (EOFError, OSError) as exc:
                    process.join()
                    raise WorkerError(f"worker {process.pid} exited with code "
                                      f"{process.exitcode} during a task") from exc
                if ok:
                    results[i] = value
                else:
                    errors[i] = value
                idle.append((process, conn))
        if errors:
            raise errors[min(errors)]
        return results

    @staticmethod
    def _replies(busy: dict, timeout: float | None) -> list:
        """Connections of busy workers with a reply (or end of file) waiting;
        raises WorkerError for a worker that ended without one."""
        if not busy:
            return []
        ready = set(wait([*busy, *(process.sentinel for process, _ in busy.values())], timeout))
        for conn, (process, _) in busy.items():
            if conn not in ready and process.sentinel in ready:
                process.join()
                raise WorkerError(f"worker {process.pid} exited with code {process.exitcode} "
                                  "during a task")
        return [conn for conn in busy if conn in ready]


def run(fn, tasks: list[tuple], *shared, pool: Pool | None = None) -> list:
    """fn(*shared, *task) for every task, results in task order: on `pool`
    when given (created with `shared`), else in this process. The code
    that owns a run creates the pool and holds it for the whole run."""
    if pool is not None:
        return pool.map(fn, tasks, *shared)
    return [fn(*shared, *task) for task in tasks]
