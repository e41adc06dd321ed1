"""Reusable scratch-buffer pool backing the hot-path kernels.

The convolution/pooling kernels and the autograd engine allocate the same
handful of large, identically-shaped buffers on every training step: the
im2col column matrix, the zero-padded image used by ``col2im``, and the
gradient-accumulation buffers of multi-consumer graph nodes.  Allocating
(and for zero-filled buffers, memsetting) them anew each step is pure
overhead, so this module provides a per-thread :class:`Workspace` pool that
recycles them across steps.

Ownership contract
------------------
``acquire`` hands out a buffer with **undefined contents** (``np.empty``
semantics) that the caller owns exclusively.  When the caller can prove the
buffer is dead — nothing else references it and it never escaped into a
result the engine or user code holds — it calls ``release`` to return it to
the pool.  Buffers that escape (layer outputs, gradients handed to the
engine) are simply never released; they are garbage-collected as usual, so
forgetting to release is a missed optimisation, never a bug.
"""

from __future__ import annotations

import os
import threading

import numpy as np

__all__ = [
    "Workspace",
    "get_workspace",
    "clear_workspace",
]


class Workspace:
    """A pool of reusable scratch buffers keyed by ``(shape, dtype)``.

    Parameters
    ----------
    max_per_key:
        Maximum number of free buffers retained per ``(shape, dtype)`` key;
        releases beyond the cap drop the buffer (it is garbage-collected).

    Attributes
    ----------
    hits / misses:
        Number of ``acquire`` calls served from the pool vs. freshly
        allocated.  The allocation-regression tests assert that a warmed
        training step acquires every buffer from the pool (``misses`` does
        not move).
    high_water_bytes:
        Largest number of bytes the free pool has ever held — the
        ``workspace.pool.high_water_bytes`` telemetry gauge.
    """

    __slots__ = (
        "_free", "hits", "misses", "max_per_key", "_cached_bytes",
        "high_water_bytes",
    )

    def __init__(self, max_per_key: int = 16) -> None:
        self._free: dict = {}
        self.hits = 0
        self.misses = 0
        self.max_per_key = int(max_per_key)
        self._cached_bytes = 0
        self.high_water_bytes = 0

    @staticmethod
    def _key(shape, dtype):
        # np.dtype objects hash and compare by value, so the dtype itself
        # is a valid dict key — no need to render its .str descriptor.
        return (tuple(shape), np.dtype(dtype))

    def acquire(self, shape, dtype) -> np.ndarray:
        """Return an exclusively-owned buffer with undefined contents."""
        bucket = self._free.get(self._key(shape, dtype))
        if bucket:
            self.hits += 1
            buffer = bucket.pop()
            self._cached_bytes -= buffer.nbytes
            return buffer
        self.misses += 1
        return np.empty(shape, dtype=dtype)

    def release(self, array) -> None:
        """Return a dead buffer to the pool.

        Only base, C-contiguous ndarrays are pooled; anything else (views,
        non-arrays) is ignored, so callers can release unconditionally.
        """
        if (
            not isinstance(array, np.ndarray)
            or array.base is not None
            or not array.flags["C_CONTIGUOUS"]
        ):
            return
        key = self._key(array.shape, array.dtype)
        bucket = self._free.setdefault(key, [])
        if len(bucket) >= self.max_per_key:
            return
        if any(buffered is array for buffered in bucket):
            return  # guard against double release handing one buffer out twice
        bucket.append(array)
        self._cached_bytes += array.nbytes
        if self._cached_bytes > self.high_water_bytes:
            self.high_water_bytes = self._cached_bytes

    def clear(self) -> None:
        """Drop every pooled buffer and reset the hit/miss counters."""
        self._free.clear()
        self.hits = 0
        self.misses = 0
        self._cached_bytes = 0
        self.high_water_bytes = 0

    @property
    def cached_buffers(self) -> int:
        """Number of free buffers currently held by the pool."""
        return sum(len(bucket) for bucket in self._free.values())

    @property
    def cached_bytes(self) -> int:
        """Total size in bytes of the free buffers held by the pool.

        Tracked incrementally on acquire/release so telemetry can read it
        every epoch without walking the buckets.
        """
        return self._cached_bytes

    def telemetry_gauges(self) -> dict:
        """Pool statistics keyed by their telemetry gauge names."""
        return {
            "workspace.pool.hits": self.hits,
            "workspace.pool.misses": self.misses,
            "workspace.pool.bytes": self._cached_bytes,
            "workspace.pool.high_water_bytes": self.high_water_bytes,
            "workspace.pool.buffers": self.cached_buffers,
        }


class _WorkspaceState(threading.local):
    """Per-thread pool (mirrors the precision-policy stack)."""

    def __init__(self) -> None:
        self.workspace = Workspace()


_state = _WorkspaceState()


def _reset_after_fork() -> None:
    """Give a forked child a fresh, empty pool.

    The buffers in an inherited pool are copy-on-write copies of the
    parent's scratch memory — recycling them in the child would silently
    double the process's resident set and break the pool's accounting
    (hits/bytes describing buffers the child never allocated).
    """
    _state.workspace = Workspace()


# Worker processes (repro.parallel) are forked mid-run; never let them
# inherit a populated pool.
os.register_at_fork(after_in_child=_reset_after_fork)


def get_workspace() -> Workspace:
    """The calling thread's scratch-buffer pool."""
    return _state.workspace


def clear_workspace() -> None:
    """Drop the calling thread's pooled buffers (tests, memory pressure)."""
    _state.workspace.clear()
