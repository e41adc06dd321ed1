"""Shared bounded LRU cache with hit/miss counters and eviction callback.

Two subsystems keep a small most-recently-used working set of expensive
values: the serving layer caches predictions per input digest
(:mod:`repro.serving`), and the streaming data layer keeps rendered shards
resident (:class:`repro.data.source.ShardCache`, which layers a byte
budget on top).  Beyond a plain ``OrderedDict`` they need a capacity
bound enforced on insert, observable hit/miss counters for diagnostics,
and a disposal hook so evicted values can release pooled resources
instead of leaking them.

The cache is deliberately **not** thread-safe — a caller that shares an
instance across threads guards it with its own lock, as the serving layer
does — so the common path stays free of lock overhead.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Iterator, Optional, Tuple

__all__ = ["LRUCache"]

_MISSING = object()


class LRUCache:
    """Bounded mapping with least-recently-used eviction.

    Parameters
    ----------
    capacity:
        Maximum number of entries; inserting beyond it evicts the least
        recently used entry.  Must be at least 1.
    on_evict:
        Optional ``callback(key, value)`` invoked for every entry removed
        by *capacity pressure* (not by :meth:`pop` or a plain
        :meth:`clear`, whose callers own the value's disposal).

    :meth:`get` and :meth:`put` maintain recency; :meth:`get` also counts
    hits and misses.  :meth:`peek` reads without touching either.
    """

    __slots__ = ("capacity", "on_evict", "hits", "misses", "_data")

    def __init__(
        self,
        capacity: int,
        on_evict: Optional[Callable[[object, object], None]] = None,
    ) -> None:
        capacity = int(capacity)
        if capacity < 1:
            raise ValueError(f"capacity must be at least 1, got {capacity}")
        self.capacity = capacity
        self.on_evict = on_evict
        self.hits = 0
        self.misses = 0
        self._data: OrderedDict = OrderedDict()

    # -- reads -----------------------------------------------------------
    def get(self, key, default=None):
        """Return the cached value, bumping recency and the hit counter."""
        value = self._data.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return default
        self.hits += 1
        self._data.move_to_end(key)
        return value

    def peek(self, key, default=None):
        """Read without updating recency or the hit/miss counters."""
        value = self._data.get(key, _MISSING)
        return default if value is _MISSING else value

    def __contains__(self, key) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def values(self):
        """View of the cached values, least recently used first."""
        return self._data.values()

    def items(self) -> Iterator[Tuple[object, object]]:
        """Iterator over ``(key, value)`` pairs, least recently used first."""
        return iter(self._data.items())

    # -- writes ----------------------------------------------------------
    def put(self, key, value) -> None:
        """Insert or update an entry, evicting the LRU tail past capacity."""
        data = self._data
        if key in data:
            data[key] = value
            data.move_to_end(key)
            return
        data[key] = value
        while len(data) > self.capacity:
            old_key, old_value = data.popitem(last=False)
            if self.on_evict is not None:
                self.on_evict(old_key, old_value)

    def pop(self, key, default=None):
        """Remove and return an entry (no eviction callback)."""
        return self._data.pop(key, default)

    def clear(self) -> None:
        """Drop every entry without invoking the eviction callback.

        Callers that must dispose of the values (the shard cache returning
        its buffers to the workspace pool) iterate them first.
        """
        self._data.clear()

    # -- diagnostics -----------------------------------------------------
    @property
    def stats(self) -> dict:
        """Hit/miss/size counters for tests and the metrics endpoint."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": len(self._data),
            "capacity": self.capacity,
        }

    def reset_stats(self) -> None:
        """Zero the hit/miss counters (entries are untouched)."""
        self.hits = 0
        self.misses = 0

    def __repr__(self) -> str:
        return (
            f"LRUCache(capacity={self.capacity}, size={len(self._data)}, "
            f"hits={self.hits}, misses={self.misses})"
        )
