"""Shard-based streaming data sources and the byte-budgeted shard cache.

The rest of the stack used to assume the whole dataset is one in-memory
array; this module removes that assumption.  A :class:`DataSource` exposes
a dataset as a sequence of fixed-size **shards** — contiguous blocks of
``shard_size`` examples — whose content is a pure function of the source's
configuration and the shard id:

* :class:`TensorSource` wraps an existing in-memory dataset; shards are
  zero-copy views into its arrays, so the legacy fits-in-memory path pays
  nothing for the abstraction.
* :class:`SyntheticSource` regenerates shards on the fly from the
  synthetic example renderers registered in
  :mod:`repro.data.synthetic.registry`, deterministically keyed by
  ``(seed, shard_id)`` — dataset size is unbounded and nothing is ever
  materialised beyond the shards currently resident.
* :class:`ShardCache` keeps recently used shard payloads under a
  configurable **byte budget** (LRU eviction via
  :class:`repro.utils.lru.LRUCache`), invoking a disposal callback so
  evicted buffers return to the workspace pool instead of churning the
  allocator.

The :class:`~repro.data.loader.DataLoader` composes these into batches;
:class:`~repro.defenses.delta.DeltaStore` reuses :class:`ShardCache` for
the epochwise defense's carried perturbations.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from ..runtime import compute_dtype
from ..runtime.workspace import get_workspace
from ..utils.lru import LRUCache
from .dataset import Dataset, TensorDataset

__all__ = [
    "DataSource",
    "TensorSource",
    "SyntheticSource",
    "ShardCache",
    "as_source",
    "DEFAULT_SHARD_SIZE",
]

# Default shard granularity for streaming sources: large enough that the
# per-shard generation/gather overhead amortises, small enough that a few
# shards fit in a tight memory budget (512 * 28*28 float64 ~ 3.2 MB).
DEFAULT_SHARD_SIZE = 512


class DataSource:
    """Abstract shard-addressable dataset.

    Subclasses define ``__len__`` plus :meth:`shard`, and set the
    attributes below.  Shards are contiguous index ranges: shard ``s``
    covers global indices ``[s * shard_size, min((s+1) * shard_size, N))``,
    so ``index // shard_size`` recovers the owning shard — the property
    the loader's gather and the epochwise delta store's shard-aligned
    blocks both rely on.

    Attributes
    ----------
    shard_size:
        Examples per shard (the final shard may be smaller).
    example_shape:
        Shape of one example (e.g. ``(1, 28, 28)``).
    dtype:
        Dtype shards are produced in (the loader casts per-pass to the
        ambient precision policy when they differ).
    label_dtype:
        Dtype of the label arrays.
    owns_shards:
        True when :meth:`shard` builds fresh buffers each call (safe to
        recycle into the workspace pool on cache eviction); False when it
        returns views into longer-lived storage.
    """

    shard_size: int
    example_shape: Tuple[int, ...]
    dtype: np.dtype
    label_dtype: np.dtype = np.dtype(np.int64)
    owns_shards: bool = False

    def __len__(self) -> int:
        raise NotImplementedError

    @property
    def num_shards(self) -> int:
        """Number of shards covering the source."""
        n = len(self)
        return max(1, -(-n // self.shard_size))

    def shard_bounds(self, shard_id: int) -> Tuple[int, int]:
        """Global ``[start, stop)`` index range of one shard."""
        if not 0 <= shard_id < self.num_shards:
            raise IndexError(
                f"shard {shard_id} out of range (have {self.num_shards})"
            )
        start = shard_id * self.shard_size
        return start, min(start + self.shard_size, len(self))

    def shard(self, shard_id: int) -> Tuple[np.ndarray, np.ndarray]:
        """Build (or view) one shard as ``(examples, labels)`` arrays."""
        raise NotImplementedError

    def materialize(self) -> TensorDataset:
        """Concatenate every shard into an in-memory :class:`TensorDataset`.

        The bridge back to the fits-in-memory world — used by equivalence
        tests and anywhere random access to the full array is genuinely
        required.  Copies shard payloads, so the result owns its memory.
        """
        xs, ys = [], []
        for shard_id in range(self.num_shards):
            x, y = self.shard(shard_id)
            xs.append(np.array(x, copy=True))
            ys.append(np.array(y, copy=True))
            if self.owns_shards:
                workspace = get_workspace()
                workspace.release(x)
                workspace.release(y)
        return TensorDataset(np.concatenate(xs), np.concatenate(ys))


class TensorSource(DataSource):
    """Shard view over an in-memory dataset.

    Parameters
    ----------
    dataset:
        Any :class:`~repro.data.dataset.Dataset`; its arrays are
        materialised once (exactly as the legacy loader did).
    shard_size:
        Shard granularity; ``None`` uses one shard covering the whole
        dataset, which preserves the legacy loader's global-shuffle batch
        stream bit-for-bit.
    """

    owns_shards = False

    def __init__(
        self, dataset: Dataset, shard_size: Optional[int] = None
    ) -> None:
        if isinstance(dataset, DataSource):
            raise TypeError(
                "TensorSource wraps a Dataset; got a DataSource "
                f"({type(dataset).__name__})"
            )
        self.dataset = dataset
        self._x, self._y = dataset.arrays()
        n = len(self._x)
        if shard_size is None:
            shard_size = max(n, 1)
        if shard_size <= 0:
            raise ValueError(
                f"shard_size must be positive, got {shard_size}"
            )
        self.shard_size = int(shard_size)
        self.example_shape = tuple(self._x.shape[1:])
        self.dtype = self._x.dtype
        self.label_dtype = self._y.dtype

    def __len__(self) -> int:
        return len(self._x)

    def shard(self, shard_id: int) -> Tuple[np.ndarray, np.ndarray]:
        start, stop = self.shard_bounds(shard_id)
        return self._x[start:stop], self._y[start:stop]


class SyntheticSource(DataSource):
    """Regenerate synthetic shards on demand — unbounded N, zero residency.

    Each shard is rendered example-by-example from the dataset's
    registered renderer using a generator seeded by ``(seed, shard_id)``
    (a :class:`numpy.random.SeedSequence` spawn key), so any shard can be
    re-produced independently, in any order, in any process, with no
    global state.  Labels cycle through the classes by global index, which
    keeps every shard (and therefore every budget-bounded working set)
    class-balanced.

    Parameters
    ----------
    name:
        Registered dataset name (``"digits"`` / ``"fashion"``).
    num_examples:
        Virtual dataset length.  Nothing of that size is ever allocated.
    shard_size:
        Examples per generated shard.
    seed:
        Stream seed; two sources with equal ``(name, num_examples,
        shard_size, seed, size, render_kwargs)`` are identical.
    size:
        Image side length.
    dtype:
        Dtype shards are emitted in; ``None`` pins the ambient
        :func:`~repro.runtime.compute_dtype` at construction.
    render_kwargs:
        Extra keyword arguments for the example renderer (e.g.
        ``noise_std``).
    """

    owns_shards = True

    def __init__(
        self,
        name: str,
        num_examples: int,
        shard_size: int = DEFAULT_SHARD_SIZE,
        seed: int = 0,
        size: int = 28,
        dtype=None,
        **render_kwargs,
    ) -> None:
        from .synthetic.registry import dataset_num_classes, example_renderer

        if num_examples <= 0:
            raise ValueError(
                f"num_examples must be positive, got {num_examples}"
            )
        if shard_size <= 0:
            raise ValueError(f"shard_size must be positive, got {shard_size}")
        self.name = name
        self._render: Callable = example_renderer(name)
        self.num_classes = dataset_num_classes(name)
        self.num_examples = int(num_examples)
        self.shard_size = int(shard_size)
        self.seed = int(seed)
        self.size = int(size)
        self.render_kwargs = dict(render_kwargs)
        self.example_shape = (1, self.size, self.size)
        self.dtype = np.dtype(compute_dtype() if dtype is None else dtype)

    def __len__(self) -> int:
        return self.num_examples

    def shard_rng(self, shard_id: int) -> np.random.Generator:
        """The deterministic generator that renders one shard."""
        sequence = np.random.SeedSequence(
            entropy=self.seed, spawn_key=(int(shard_id),)
        )
        return np.random.default_rng(sequence)

    def shard(self, shard_id: int) -> Tuple[np.ndarray, np.ndarray]:
        start, stop = self.shard_bounds(shard_id)
        n = stop - start
        # Draw the shard buffer through the workspace pool: after warmup a
        # budget-bounded stream recycles the buffers its cache just
        # evicted instead of allocating fresh ones every shard.
        x = get_workspace().acquire((n, *self.example_shape), self.dtype)
        y = (start + np.arange(n, dtype=np.int64)) % self.num_classes
        rng = self.shard_rng(shard_id)
        for row in range(n):
            x[row, 0] = self._render(
                int(y[row]), rng, size=self.size, **self.render_kwargs
            )
        return x, y


def as_source(data) -> DataSource:
    """Coerce a dataset-or-source to a :class:`DataSource`.

    An existing source passes through unchanged; a plain dataset becomes
    a single-shard :class:`TensorSource`.
    """
    if isinstance(data, DataSource):
        return data
    return TensorSource(data)


class ShardCache:
    """Byte-budgeted LRU cache over shard payloads.

    A thin policy layer over :class:`repro.utils.lru.LRUCache`: entries
    carry an explicit byte weight, and inserts evict from the LRU tail
    until the total weight is back under ``budget_bytes``.  The most
    recently inserted entry is never evicted (callers are still reading
    it), so the budget is honoured whenever it can hold at least one
    shard and degrades to single-shard residency otherwise.

    Parameters
    ----------
    budget_bytes:
        Total byte budget; ``None`` disables eviction (unbounded).
    on_evict:
        ``callback(key, value)`` invoked for every entry evicted by
        budget pressure or disposed by :meth:`clear` — the hook that
        returns shard buffers to the workspace pool.

    The ``evictions`` / ``peak_bytes`` attributes feed the
    ``data.shard_cache.*`` telemetry gauges and the streaming benchmark's
    peak-residency assertion.
    """

    # LRUCache needs a count capacity; the byte budget is the real bound.
    _UNBOUNDED_ENTRIES = 1 << 30

    def __init__(
        self,
        budget_bytes: Optional[int] = None,
        on_evict: Optional[Callable[[object, object], None]] = None,
    ) -> None:
        if budget_bytes is not None and budget_bytes <= 0:
            raise ValueError(
                f"budget_bytes must be positive or None, got {budget_bytes}"
            )
        self.budget_bytes = budget_bytes
        self.on_evict = on_evict
        self.bytes = 0
        self.peak_bytes = 0
        self.evictions = 0
        self._lru = LRUCache(capacity=self._UNBOUNDED_ENTRIES)
        self._weights: dict = {}

    # -- reads -----------------------------------------------------------
    def get(self, key, default=None):
        """Return the cached value (bumping recency), or ``default``."""
        return self._lru.get(key, default)

    def peek(self, key, default=None):
        """Read without updating recency or the hit/miss counters."""
        return self._lru.peek(key, default)

    def items(self):
        """Iterator over ``(key, value)``, LRU first; recency untouched."""
        return self._lru.items()

    def __contains__(self, key) -> bool:
        return key in self._lru

    def __len__(self) -> int:
        return len(self._lru)

    @property
    def hits(self) -> int:
        return self._lru.hits

    @property
    def misses(self) -> int:
        return self._lru.misses

    # -- writes ----------------------------------------------------------
    def put(self, key, value, nbytes: int) -> None:
        """Insert an entry weighing ``nbytes``, then shrink to budget."""
        previous = self._weights.pop(key, None)
        if previous is not None:
            self.bytes -= previous
        self._lru.put(key, value)
        self._weights[key] = int(nbytes)
        self.bytes += int(nbytes)
        if self.bytes > self.peak_bytes:
            self.peak_bytes = self.bytes
        self._shrink()

    def reserve(self, nbytes: int) -> None:
        """Evict ahead of an insert weighing ``nbytes``.

        Called *before* the caller builds the new entry's buffers, so the
        eviction hook can return old buffers to the workspace pool in
        time for the new allocation to recycle them — and so peak
        residency never transiently exceeds the budget by one shard.
        """
        budget = self.budget_bytes
        if budget is None:
            return
        while self.bytes + int(nbytes) > budget and len(self._lru) > 0:
            self._evict_one()

    def _shrink(self) -> None:
        budget = self.budget_bytes
        if budget is None:
            return
        while self.bytes > budget and len(self._lru) > 1:
            self._evict_one()

    def _evict_one(self) -> None:
        key, value = next(iter(self._lru.items()))
        self._lru.pop(key)
        self.bytes -= self._weights.pop(key, 0)
        self.evictions += 1
        if self.on_evict is not None:
            self.on_evict(key, value)

    def clear(self, dispose: bool = True) -> None:
        """Drop every entry; with ``dispose`` the eviction hook runs."""
        if dispose and self.on_evict is not None:
            for key, value in list(self._lru.items()):
                self.on_evict(key, value)
        self._lru.clear()
        self._weights.clear()
        self.bytes = 0

    # -- diagnostics -----------------------------------------------------
    def telemetry_gauges(self, prefix: str = "data.shard_cache") -> dict:
        """Cache statistics keyed by their telemetry gauge names."""
        return {
            f"{prefix}.bytes": self.bytes,
            f"{prefix}.peak_bytes": self.peak_bytes,
            f"{prefix}.entries": len(self._lru),
            f"{prefix}.evictions": self.evictions,
            f"{prefix}.hits": self.hits,
            f"{prefix}.misses": self.misses,
        }

    def __repr__(self) -> str:
        budget = self.budget_bytes
        return (
            f"ShardCache(bytes={self.bytes}, "
            f"budget={'∞' if budget is None else budget}, "
            f"entries={len(self._lru)}, evictions={self.evictions})"
        )
