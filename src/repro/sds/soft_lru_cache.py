"""SoftLRUCache: recency-aware soft cache.

Section 3.2 notes an SDS engineer "may choose a different policy, e.g.,
one that prioritizes infrequently-accessed elements for reclamation" —
this is that structure. A bounded (or unbounded) key-value cache whose
entries are soft allocations, evicting least-recently-used both for
capacity and for reclamation demands.
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.core.context import ReclaimCallback
from repro.core.pointer import SoftPtr
from repro.core.sma import SoftMemoryAllocator
from repro.sds.base import SoftDataStructure

_MISSING = object()


class SoftLRUCache(SoftDataStructure):
    """LRU key-value cache with soft entry storage.

    ``max_entries`` bounds the cache (None = unbounded; reclamation is
    then the only shrinking force). Hit/miss counters make the cache
    usable directly in the diurnal and ML-cache experiments.
    """

    def __init__(
        self,
        sma: SoftMemoryAllocator,
        name: str = "soft-lru",
        priority: int = 0,
        callback: ReclaimCallback | None = None,
        entry_size: int = 64,
        max_entries: int | None = None,
    ) -> None:
        super().__init__(sma, name, priority, callback)
        if entry_size <= 0:
            raise ValueError(f"entry_size must be positive: {entry_size}")
        if max_entries is not None and max_entries <= 0:
            raise ValueError(f"max_entries must be positive: {max_entries}")
        self._entry_size = entry_size
        self._max_entries = max_entries
        #: key -> ptr in recency order (first = LRU, last = MRU)
        self._entries: dict[Hashable, SoftPtr] = {}
        self.hits = 0
        self.misses = 0

    # -- cache API ----------------------------------------------------------

    def put(
        self, key: Hashable, value: Any, size: int | None = None
    ) -> SoftPtr:
        old = self._entries.pop(key, None)
        if old is not None and old.valid:
            self._free(old)
        if (
            self._max_entries is not None
            and len(self._entries) >= self._max_entries
        ):
            self._evict_lru_for_capacity()
        ptr = self._alloc(size or self._entry_size, (key, value))
        self._entries[key] = ptr
        return ptr

    def get(self, key: Hashable, default: Any = _MISSING) -> Any:
        """Lookup; hits refresh recency, misses count toward refills."""
        ptr = self._entries.get(key)
        if ptr is None:
            self.misses += 1
            return None if default is _MISSING else default
        # refresh recency: move to MRU end
        del self._entries[key]
        self._entries[key] = ptr
        self.hits += 1
        __, value = ptr.deref()
        return value

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def delete(self, key: Hashable) -> bool:
        ptr = self._entries.pop(key, None)
        if ptr is None:
            return False
        self._free(ptr)
        return True

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def _evict_lru_for_capacity(self) -> None:
        """Capacity eviction (normal free path; no reclamation callback)."""
        key = next(iter(self._entries))
        ptr = self._entries.pop(key)
        self._free(ptr)

    # -- reclaim policy: least recently used first ----------------------------

    def evict_one(self) -> bool:
        for key, ptr in self._entries.items():
            if not ptr.pinned:
                del self._entries[key]
                self._reclaim_ptr(ptr)
                return True
        return False

    def __repr__(self) -> str:
        return (
            f"<SoftLRUCache {self.name!r} entries={len(self._entries)} "
            f"hit_rate={self.hit_rate:.2f}>"
        )
