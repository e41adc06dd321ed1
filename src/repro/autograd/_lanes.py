"""Kernel lanes: the per-block loops of the conv and max-pool kernels run
on one lane per usable CPU while BLAS runs one thread.

A lane is a worker thread; the calling thread is lane 0.  :func:`map_blocks`
runs a kernel's per-lane function on every lane, and the lanes share out
the kernel's image blocks between them.  numpy's copies and ufuncs and the
BLAS calls release the GIL, so the lanes overlap.  Each lane allocates its
own block scratch, and every block writes only its own part of the output
(and its own partial of a summed gradient), so what a kernel computes does
not depend on the lane count or on which lane ran which block.

Lanes and a multi-threaded BLAS do not mix: on two cores with numpy's
OpenBLAS at its default two threads, a ``proposed`` ``mnist_cnn`` epoch
took 170 ms on two lanes against 150 ms on one (on one BLAS thread, 122 ms
on two lanes against 170 ms on one).  So by default the kernels run on
several lanes only while numpy's OpenBLAS runs one thread, and inline
otherwise (also when numpy is built on a BLAS whose thread count cannot be
read).  Nothing here changes the BLAS thread count.

The lane threads are started on first use.  A grid worker runs one lane
(:func:`set_lanes`), so N workers put N busy threads on the cores, and a
forked child starts without the parent's (dead) lane threads.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import queue
import threading

import numpy as np

__all__ = ["lane_count", "set_lanes", "map_blocks"]


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


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


@functools.lru_cache(maxsize=None)
def _blas_thread_getter():
    return getattr(_openblas(), "scipy_openblas_get_num_threads64_", None)


def _blas_threads():
    """Threads numpy's OpenBLAS runs one call on, read from the library
    (so a cap set at run time counts); ``None`` for another BLAS."""
    get_threads = _blas_thread_getter()
    return None if get_threads is None else get_threads()


_count = None  # lanes set by set_lanes; None: the default (lane_count)
_cpus = None  # usable CPUs, read on first use
_tasks = None  # queue of (run, indices, done) for lanes 1..; None until used
_threads = []  # lanes 1.., started on first use
_lock = threading.Lock()


def lane_count() -> int:
    """Number of lanes the kernels run on: the count set by
    :func:`set_lanes`, else one per usable CPU while numpy's OpenBLAS runs
    one thread, else one."""
    global _cpus
    if _count is not None:
        return _count
    if _blas_threads() != 1:
        return 1
    if _cpus is None:
        _cpus = _usable_cpus()
    return _cpus


def set_lanes(count=None) -> None:
    """Run the kernels on ``count`` lanes (``None``: the default, see
    :func:`lane_count`)."""
    global _count
    if count is not None and int(count) < 1:
        raise ValueError(f"lane count must be >= 1, got {count}")
    _count = None if count is None else int(count)


def _serve(tasks) -> None:
    """A lane's thread: run tasks, report each one's exception or ``None``
    on the task's own queue."""
    while True:
        run, indices, done = tasks.get()
        try:
            run(indices)
            error = None
        except BaseException as caught:
            error = caught
        # Dropped before reporting: ``run`` holds the kernel's batch-sized
        # arrays, which would otherwise outlive the call until the next
        # task (peak RSS rose 7 MB on an mnist_cnn epoch).
        del run, indices
        done.put(error)
        del done, error


def _start(threads: int):
    """The task queue of lanes 1.., with at least ``threads`` lanes started.
    Plain threads rather than ``concurrent.futures``, which would load
    ``logging`` into every process that runs a kernel on two lanes."""
    global _tasks
    with _lock:
        if _tasks is None:
            _tasks = queue.SimpleQueue()
        while len(_threads) < threads:
            thread = threading.Thread(
                target=_serve, args=(_tasks,), daemon=True,
                name=f"repro-lane-{len(_threads) + 1}",
            )
            thread.start()
            _threads.append(thread)
        return _tasks


class _Blocks:
    """The block indices ``0 .. blocks - 1`` of one call, shared by its
    lanes: each index is handed out once, under a lock, so also on a
    Python without a GIL."""

    def __init__(self, blocks: int):
        self._next = iter(range(blocks)).__next__
        self._lock = threading.Lock()

    def __iter__(self):
        return self

    def __next__(self) -> int:
        with self._lock:
            return self._next()


def map_blocks(run, blocks: int) -> None:
    """Call ``run(indices)`` once per lane, the caller being lane 0.

    Every lane iterates the same :class:`_Blocks`, so each block runs
    exactly once, on whichever lane takes it next: a lane that starts late,
    or loses its core for a while, takes fewer blocks instead of holding up
    the others.

    A call runs on at most one lane per two blocks: handing a lane one
    block costs a thread wake-up and, while other Python threads run (a
    server's request threads), a wait for the GIL, which one block does
    not repay.  Serving ``small_cnn`` in micro-batches of 32 (two blocks
    per conv and pool) lost about 10% of its throughput on two lanes.

    Returns after every lane has finished.  If a lane raises, the caller's
    exception, else the first one another lane reports, propagates, but
    only once all lanes are done, so none is still writing into an array
    the caller has handed on.
    """
    lanes = min(lane_count(), blocks // 2)
    if lanes <= 1:
        run(range(blocks))
        return
    tasks = _start(lanes - 1)
    indices, done = _Blocks(blocks), queue.SimpleQueue()
    for _ in range(lanes - 1):
        tasks.put((run, indices, done))
    try:
        run(indices)
    finally:
        errors = [done.get() for _ in range(lanes - 1)]
    for error in errors:
        if error is not None:
            raise error


def _reset_after_fork() -> None:
    """Drop the inherited lanes: their threads do not exist in the child,
    so a task queued for them would never run."""
    global _tasks, _threads, _lock
    _tasks, _threads = None, []
    _lock = threading.Lock()


os.register_at_fork(after_in_child=_reset_after_fork)
