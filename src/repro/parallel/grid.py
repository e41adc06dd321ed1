"""Parallel grid execution: one configuration per worker.

The experiment sweeps (figure1 defense curves, ablation knob grids) are
embarrassingly parallel: each grid cell trains and evaluates an independent
classifier.  :func:`parallel_map` fans a function over the grid on a
standard-library :class:`~concurrent.futures.ProcessPoolExecutor` with the
**fork** start method.  The function and any state it closes over (a
:class:`~repro.experiments.runner.ClassifierPool`, datasets) reach the
workers through fork, never through pickle; only the per-item inputs and
results are pickled (pass knob values in, return accuracies/curves out,
not live models).

Each worker starts by capping numpy's OpenBLAS at one thread and the
conv and pool kernels at one lane (:mod:`repro.autograd._lanes`), so N
workers put N busy threads on the cores instead of N times the default.
The fork hooks registered by :mod:`repro.runtime.workspace` and
:mod:`repro.telemetry` give every worker a fresh buffer pool and clean
telemetry locks.  With telemetry on, a worker collects the span and event
records of each call and returns them with its result; the parent passes
them to its own sinks, so the workers' spans land in the one run record.

Results come back in input order and are computed by the same code as the
serial loop (same seeds, same kernels — just a different process).  A
parallel sweep reproduces the serial sweep's numbers exactly when the
serial parent, like the workers, runs numpy's OpenBLAS on one thread
(``OPENBLAS_NUM_THREADS=1``); at OpenBLAS's default thread count in the
parent, a conv weight gradient can round differently in the last bits.
"""

from __future__ import annotations

import os
from typing import Callable, List, Optional, Sequence, TypeVar

from .. import telemetry as tel
from ..autograd._lanes import _openblas, set_lanes
from ..telemetry import core as telcore

__all__ = ["WorkerCrash", "parallel_map", "resolve_workers"]

T = TypeVar("T")
R = TypeVar("R")

# Set in each worker by _init_worker; never touched in the parent.
_worker_fn = None
_worker_traced = False


def resolve_workers(workers: Optional[int] = None) -> int:
    """Resolve a worker count: explicit value, else ``REPRO_WORKERS``, else 1.

    ``None``/``0`` defer to the environment; anything below 1 after
    resolution raises.
    """
    if workers in (None, 0):
        raw = os.environ.get("REPRO_WORKERS", "").strip()
        workers = int(raw) if raw else 1
    workers = int(workers)
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    return workers


class WorkerCrash(RuntimeError):
    """A grid worker process died before every item finished."""


def _init_worker(fn, traced) -> None:
    """Start a worker: one BLAS thread, one kernel lane, the caller's
    telemetry flag."""
    global _worker_fn, _worker_traced
    # A numpy built on another BLAS has no such library or symbol; the
    # cap is then a no-op.
    set_threads = getattr(
        _openblas(), "scipy_openblas_set_num_threads64_", None
    )
    if set_threads is not None:
        set_threads(1)
    set_lanes(1)
    _worker_fn, _worker_traced = fn, traced


def _run(item):
    """One call in a worker: the bare result, or ``(result, records)``."""
    if not _worker_traced:
        return _worker_fn(item)
    sink = tel.InMemorySink()
    tel.add_sink(sink)
    try:
        result = _worker_fn(item)
    finally:
        tel.remove_sink(sink)
    return result, sink.records


def _unpack(outcome, traced: bool):
    """Pass a worker's records to this process's sinks; return its result."""
    if not traced:
        return outcome
    result, records = outcome
    for record in records:
        telcore._dispatch(record)
    return result


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    num_workers: Optional[int] = None,
) -> List[R]:
    """Apply ``fn`` to every item across forked workers; preserve order.

    Parameters
    ----------
    fn:
        Callable executed in the worker processes.  Inherited through
        fork, so closures over parent state are fine; its return values
        are pickled back and must be picklable.
    items:
        Work items, pickled to the workers one per task.
    num_workers:
        Worker count; ``None``/``0`` resolves ``REPRO_WORKERS`` (default 1).
        With one worker (or one item) the map degrades to a plain serial
        loop in the calling process.

    An exception raised by ``fn`` propagates as itself, exactly as in the
    serial loop (its ``__cause__`` holds the worker's traceback).  A
    worker that dies aborts the map with :class:`WorkerCrash`, naming the
    items that had not finished — grid cells are expensive, so the caller
    decides whether to re-run.

    With telemetry enabled, each item's span and event records reach this
    process's sinks in input order, before its result is returned.  The
    records of every finished item are passed on before
    :class:`WorkerCrash` is raised; those of an item whose worker died or
    whose call raised are lost.
    """
    items = list(items)
    num_workers = min(resolve_workers(num_workers), len(items))
    if num_workers <= 1:
        return [fn(item) for item in items]

    import multiprocessing
    from concurrent.futures.process import (
        BrokenProcessPool,
        ProcessPoolExecutor,
    )

    traced = tel.enabled()
    executor = ProcessPoolExecutor(
        num_workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker,
        initargs=(fn, traced),
    )
    futures = []
    results = []
    try:
        # A loop, not a comprehension: submit raises once the pool has
        # broken, and the futures made so far still name their items.
        for item in items:
            futures.append(executor.submit(_run, item))
        for future in futures:
            results.append(_unpack(future.result(), traced))
        return results
    except BrokenProcessPool as exc:
        # Which future breaks first is racy, so name every item without
        # a result rather than guess the one whose worker died.
        unfinished = []
        for index, item in enumerate(items):
            if index >= len(futures) or futures[index].exception() is not None:
                unfinished.append(item)
            elif index >= len(results):
                _unpack(futures[index].result(), traced)
        raise WorkerCrash(
            f"a grid worker died; unfinished grid items: {unfinished!r}"
        ) from exc
    finally:
        executor.shutdown(cancel_futures=True)
