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

Each worker starts by capping numpy's OpenBLAS at one thread, so N
workers put N BLAS threads on the cores instead of N times the default.
The fork hooks registered by :mod:`repro.runtime.workspace` and
:mod:`repro.telemetry` give every worker a fresh buffer pool and clean
telemetry locks.

Results come back in input order and are computed exactly as the serial
loop would compute them (same seeds, same kernels — just a different
process), so a parallel sweep reproduces the serial sweep's numbers.
"""

from __future__ import annotations

import ctypes
import glob
import os
from typing import Callable, List, Optional, Sequence, TypeVar

import numpy as np

from .. import telemetry as tel
from ..telemetry import trace as teltrace

__all__ = ["WorkerCrash", "parallel_map", "resolve_workers"]

T = TypeVar("T")
R = TypeVar("R")

# Set in each worker by _init_worker; never touched in the parent.
_worker_fn = None
_worker_ctx = None


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


def _openblas():
    """numpy's bundled OpenBLAS as a ctypes handle, or ``None``."""
    libs = os.path.join(
        os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs"
    )
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        try:
            return ctypes.CDLL(path)
        except OSError:
            pass
    return None


def _init_worker(fn, ctx, spool) -> None:
    """Start a worker: one BLAS thread, the run's spool, the caller's trace."""
    global _worker_fn, _worker_ctx
    # A numpy built on another BLAS has no such library or symbol; the
    # cap is then a no-op.
    set_threads = getattr(
        _openblas(), "scipy_openblas_set_num_threads64_", None
    )
    if set_threads is not None:
        set_threads(1)
    if spool is not None:
        teltrace.ensure_spool(spool)
    _worker_fn, _worker_ctx = fn, ctx


def _run(item):
    with tel.trace_context(_worker_ctx):
        return _worker_fn(item)


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

    if tel.enabled():
        ctx, spool = tel.current_context(), teltrace.spool_dir()
    else:
        ctx = spool = None
    executor = ProcessPoolExecutor(
        num_workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker,
        initargs=(fn, ctx, spool),
    )
    futures = []
    try:
        # A loop, not a comprehension: submit raises once the pool has
        # broken, and the futures made so far still name their items.
        for item in items:
            futures.append(executor.submit(_run, item))
        return [future.result() for future in futures]
    except BrokenProcessPool as exc:
        # Which future breaks first is racy, so name every item without
        # a result rather than guess the one whose worker died.
        unfinished = [
            item
            for index, item in enumerate(items)
            if index >= len(futures) or futures[index].exception() is not None
        ]
        raise WorkerCrash(
            f"a grid worker died; unfinished grid items: {unfinished!r}"
        ) from exc
    finally:
        executor.shutdown(cancel_futures=True)
