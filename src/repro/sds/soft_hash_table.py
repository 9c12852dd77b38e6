"""SoftHashTable: chained hash table with soft entries.

The shape of the paper's Redis integration: buckets and the key index
are traditional memory; each *entry* (key-value record) is one soft
allocation. A reclaimed entry simply vanishes from the table — lookups
answer "not found", exactly the cache semantics section 5 describes.

Reclamation policy: oldest entries first (global insertion order),
skipping pinned entries. For recency-aware eviction use
:class:`~repro.sds.soft_lru_cache.SoftLRUCache`.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterator

from repro.core.context import ReclaimCallback
from repro.core.pointer import SoftPtr
from repro.core.sma import SoftMemoryAllocator
from repro.sds.base import SoftDataStructure


class SoftHashTable(SoftDataStructure):
    """Mapping with soft entry storage.

    ``entry_size`` charges each entry's soft allocation; pass ``size=``
    to :meth:`put` for per-entry sizes (e.g. actual key+value bytes).
    """

    def __init__(
        self,
        sma: SoftMemoryAllocator,
        name: str = "soft-table",
        priority: int = 0,
        callback: ReclaimCallback | None = None,
        entry_size: int = 64,
    ) -> None:
        super().__init__(sma, name, priority, callback)
        if entry_size <= 0:
            raise ValueError(f"entry_size must be positive: {entry_size}")
        self._entry_size = entry_size
        #: key -> entry pointer; insertion-ordered (= age order)
        self._index: dict[Hashable, SoftPtr] = {}
        #: lookups that missed because reclamation removed the key
        self.reclaim_misses = 0
        self._evicted_keys: set[Hashable] = set()

    # -- mapping API ------------------------------------------------------

    def put(
        self, key: Hashable, value: Any, size: int | None = None
    ) -> SoftPtr:
        """Insert or overwrite ``key``; the entry is (re)allocated soft."""
        old = self._index.pop(key, None)
        if old is not None and old.valid:
            self._free(old)
        ptr = self._alloc(size or self._entry_size, (key, value))
        self._index[key] = ptr
        self._evicted_keys.discard(key)
        return ptr

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Lookup; reclaimed or absent keys return ``default``."""
        ptr = self._index.get(key)
        if ptr is None:
            if key in self._evicted_keys:
                self.reclaim_misses += 1
            return default
        __, value = ptr.deref()
        return value

    def __contains__(self, key: Hashable) -> bool:
        return key in self._index

    def delete(self, key: Hashable) -> bool:
        """Remove ``key``; True if it was present."""
        ptr = self._index.pop(key, None)
        if ptr is None:
            return False
        self._free(ptr)
        return True

    def __len__(self) -> int:
        return len(self._index)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(list(self._index))

    def items(self) -> Iterator[tuple[Hashable, Any]]:
        for key, ptr in list(self._index.items()):
            __, value = ptr.deref()
            yield key, value

    def clear(self) -> None:
        for ptr in self._index.values():
            self._free(ptr)
        self._index.clear()
        self._evicted_keys.clear()

    # -- reclaim policy: oldest entry first --------------------------------

    def evict_one(self) -> bool:
        for key, ptr in self._index.items():
            if not ptr.pinned:
                del self._index[key]
                self._evicted_keys.add(key)
                self._reclaim_ptr(ptr)
                return True
        return False

    def __repr__(self) -> str:
        return (
            f"<SoftHashTable {self.name!r} entries={len(self._index)} "
            f"evictions={self.evictions}>"
        )
