"""Minibatch loader over shard-based data sources.

Unlike a torch ``DataLoader`` there are no worker *processes* — numpy
slicing is already the bottleneck-free path here — but the interface
(iterate to get ``(x_batch, y_batch, indices)``) is familiar, and an
optional background prefetch *thread* overlaps shard generation with
training compute for streaming sources.

The loader no longer assumes the dataset fits in memory.  It consumes a
:class:`~repro.data.source.DataSource` (plain datasets are wrapped in a
single-shard :class:`~repro.data.source.TensorSource`, which reproduces
the legacy in-memory batch stream bit-for-bit) and assembles batches by
gathering rows from shards held in a byte-budgeted
:class:`~repro.data.source.ShardCache`.

Shuffling is shard-local: the cross-shard visit order and each shard's
internal order are independent deterministic permutations of the loader
rng, so a pass touches shards one at a time (bounded residency) while
every example still appears exactly once per pass.  With a single shard
this degenerates to exactly the legacy global ``rng.permutation(n)``.

Batches also expose the *dataset indices* of their examples.  The
proposed defense (epoch-wise adversarial training) needs those to persist
and re-use per-example adversarial perturbations across epochs.
"""

from __future__ import annotations

import queue as queue_module
import threading
import time
from typing import Iterator, List, NamedTuple, Optional

import numpy as np

from .. import telemetry as tel
from ..runtime import compute_dtype
from ..runtime.workspace import get_workspace
from ..utils.rng import RngLike, ensure_rng
from .source import DataSource, ShardCache, as_source

__all__ = ["Batch", "DataLoader"]


class Batch(NamedTuple):
    """A minibatch: examples, integer labels and their dataset indices."""

    x: np.ndarray
    y: np.ndarray
    indices: np.ndarray


class _PrefetchFailure:
    """Exception raised in the prefetch thread, carried to the consumer."""

    __slots__ = ("error",)

    def __init__(self, error: BaseException) -> None:
        self.error = error


_DONE = object()


class DataLoader:
    """Iterate a dataset or streaming source in minibatches.

    Parameters
    ----------
    data:
        A :class:`~repro.data.dataset.Dataset` (wrapped in a
        :class:`~repro.data.source.TensorSource`) or any
        :class:`~repro.data.source.DataSource`.
    batch_size:
        Number of examples per batch.
    shuffle:
        Reshuffle example order at the start of every iteration pass.
    drop_last:
        Drop the trailing partial batch.
    rng:
        Seed or generator controlling the shuffle order.
    budget_bytes:
        Byte budget for resident shard payloads; ``None`` is unbounded.
        When the budget binds, least-recently-used shards are evicted and
        their buffers recycled through the workspace pool.
    prefetch:
        Gather batches on a background thread, double-buffered through a
        bounded queue.  Default: enabled whenever the source has more
        than one shard (single-shard in-memory iteration gains nothing).

    Notes
    -----
    Batches are emitted in the ambient compute dtype, re-checked at the
    start of **every** iteration pass (a loader built under one precision
    policy and iterated under another follows the policy, it does not
    serve stale casts).  Concurrent iteration of one loader instance is
    not supported — the shard cache is not synchronised.
    """

    def __init__(
        self,
        data,
        batch_size: int = 64,
        shuffle: bool = True,
        drop_last: bool = False,
        rng: RngLike = None,
        budget_bytes: Optional[int] = None,
        prefetch: Optional[bool] = None,
    ) -> None:
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.source: DataSource = as_source(data)
        if len(self.source) == 0:
            raise ValueError("cannot iterate an empty dataset")
        # Kept for callers that introspect the underlying dataset; purely
        # streaming sources have none.
        self.dataset = getattr(self.source, "dataset", None)
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.drop_last = drop_last
        self._rng = ensure_rng(rng)
        self.prefetch = (
            self.source.num_shards > 1 if prefetch is None else bool(prefetch)
        )
        self.cache = ShardCache(
            budget_bytes=budget_bytes, on_evict=self._dispose_shard
        )
        self._pass_dtype: Optional[np.dtype] = None

    # -- shape ----------------------------------------------------------
    @property
    def shard_size(self) -> int:
        return self.source.shard_size

    @property
    def num_shards(self) -> int:
        return self.source.num_shards

    def __len__(self) -> int:
        n = len(self.source)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    # -- shard residency ------------------------------------------------
    @staticmethod
    def _dispose_shard(key, value) -> None:
        # Views into source-owned storage are ignored by the pool; owned
        # buffers (synthetic shards, cast copies) are genuinely recycled.
        workspace = get_workspace()
        x, y = value
        workspace.release(x)
        workspace.release(y)

    def _fetch_shard(self, shard_id: int, dtype: np.dtype):
        key = (shard_id, dtype)
        cached = self.cache.get(key)
        if cached is not None:
            return cached
        source = self.source
        if source.owns_shards or source.dtype != dtype:
            # Evict ahead of generation: old buffers return to the
            # workspace pool before the new shard allocates, so the peak
            # resident bytes stay under budget and the pool recycles.
            start, stop = source.shard_bounds(shard_id)
            row = int(np.prod(source.example_shape)) * dtype.itemsize
            row += np.dtype(source.label_dtype).itemsize
            self.cache.reserve((stop - start) * row)
        x, y = self.source.shard(shard_id)
        if x.dtype != dtype:
            cast = get_workspace().acquire(x.shape, dtype)
            np.copyto(cast, x, casting="unsafe")
            if self.source.owns_shards:
                get_workspace().release(x)
            x = cast
        # Only bytes this loader owns count against the budget — slice
        # views into a TensorSource's arrays cost nothing extra.
        nbytes = (x.nbytes if x.base is None else 0) + (
            y.nbytes if y.base is None else 0
        )
        self.cache.put(key, (x, y), nbytes)
        return x, y

    # -- ordering -------------------------------------------------------
    def _pass_order(self) -> np.ndarray:
        """Deterministic example order for one pass.

        Single shard: the legacy global permutation (bit-for-bit the old
        loader's shuffle stream).  Multiple shards: a permutation of the
        shard visit order, then an independent permutation inside each
        shard — examples from one shard stay contiguous, so residency is
        one shard (plus read-ahead) regardless of dataset size.
        """
        source = self.source
        n = len(source)
        if not self.shuffle:
            return np.arange(n)
        if source.num_shards == 1:
            return self._rng.permutation(n)
        parts: List[np.ndarray] = []
        for shard_id in self._rng.permutation(source.num_shards):
            start, stop = source.shard_bounds(int(shard_id))
            parts.append(start + self._rng.permutation(stop - start))
        return np.concatenate(parts)

    def _batch_slices(self, order: np.ndarray) -> Iterator[np.ndarray]:
        n = len(order)
        for start in range(0, n, self.batch_size):
            idx = order[start : start + self.batch_size]
            if self.drop_last and len(idx) < self.batch_size:
                return
            yield idx

    # -- batch assembly -------------------------------------------------
    def _gather(self, idx: np.ndarray, dtype: np.dtype) -> Batch:
        source = self.source
        x = np.empty((len(idx), *source.example_shape), dtype=dtype)
        y = np.empty(len(idx), dtype=source.label_dtype)
        shard_ids = idx // source.shard_size
        for shard_id in np.unique(shard_ids):
            rows = np.flatnonzero(shard_ids == shard_id)
            shard_x, shard_y = self._fetch_shard(int(shard_id), dtype)
            local = idx[rows] - int(shard_id) * source.shard_size
            x[rows] = shard_x[local]
            y[rows] = shard_y[local]
        return Batch(x=x, y=y, indices=idx)

    # -- iteration ------------------------------------------------------
    def __iter__(self) -> Iterator[Batch]:
        # Re-resolve the precision policy every pass (it is thread-local
        # and scoped); a dtype change invalidates cached casts wholesale.
        dtype = np.dtype(compute_dtype())
        if self._pass_dtype is not None and dtype != self._pass_dtype:
            self.cache.clear()
        self._pass_dtype = dtype
        order = self._pass_order()
        if self.prefetch:
            yield from self._iter_prefetched(order, dtype)
        else:
            for idx in self._batch_slices(order):
                batch = self._gather(idx, dtype)
                self._count_batch(len(idx))
                yield batch
        if tel.enabled():
            for name, value in self.cache.telemetry_gauges().items():
                tel.gauge(name, value)

    @staticmethod
    def _count_batch(n: int) -> None:
        if tel.enabled():
            tel.counter("data.batches")
            tel.counter("data.examples", n)

    def _iter_prefetched(
        self, order: np.ndarray, dtype: np.dtype
    ) -> Iterator[Batch]:
        """Produce batches on a background thread, consume them here.

        Double-buffered: the bounded queue lets the producer stay one
        batch ahead while the trainer works on the current one.  The
        producer checks ``stop`` on every blocked put, so abandoning the
        iterator (or an exception in the trainer) tears it down promptly.
        Counters are emitted from the consumer thread (span stacks are
        thread-local); the producer records the background gather work in
        its own root ``data.prefetch`` span.
        """
        out: "queue_module.Queue" = queue_module.Queue(maxsize=2)
        stop = threading.Event()
        # Captured on the consumer thread, adopted by the producer: the
        # enabled flag is thread-local, so without this handoff a fresh
        # producer thread records nothing.
        traced = tel.enabled()

        def put(item) -> bool:
            while not stop.is_set():
                try:
                    out.put(item, timeout=0.05)
                    return True
                except queue_module.Full:
                    continue
            return False

        def produce() -> None:
            try:
                if traced:
                    tel.set_enabled(True)  # thread-local; thread is ours
                with tel.span(
                    "data.prefetch", thread="producer"
                ) as prefetch_span:
                    produced = 0
                    for idx in self._batch_slices(order):
                        if not put(self._gather(idx, dtype)):
                            return
                        produced += 1
                    prefetch_span.note(batches=produced)
                put(_DONE)
            except BaseException as error:  # surfaced in the consumer
                put(_PrefetchFailure(error))

        worker = threading.Thread(
            target=produce, name="repro-data-prefetch", daemon=True
        )
        worker.start()
        try:
            while True:
                began = time.perf_counter()
                item = out.get()
                stalled = time.perf_counter() - began
                if item is _DONE:
                    return
                if isinstance(item, _PrefetchFailure):
                    raise item.error
                if tel.enabled():
                    tel.counter("data.prefetch.batches")
                    tel.observe("data.prefetch.stall_s", stalled)
                    tel.gauge("data.prefetch.queue_depth", out.qsize())
                    self._count_batch(len(item.indices))
                yield item
        finally:
            stop.set()
            while True:  # unblock a producer waiting on a full queue
                try:
                    out.get_nowait()
                except queue_module.Empty:
                    break
            worker.join(timeout=5.0)
