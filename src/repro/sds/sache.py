"""Sache: a space-aware cache with transparent recomputation.

Nunez et al.'s "Saches" (cited as [15] in the paper) realize soft
memory's key use-case inside a garbage-collected runtime: caches whose
entries the system may evict eagerly under space pressure, with the
application recomputing on demand. This class provides the same
contract over our soft memory runtime:

* ``get(key)`` **always** returns a value — if the entry was reclaimed
  (or never computed), the compute function runs and the result is
  re-cached;
* reclamation clears entries through the
  :class:`~repro.core.softref.SoftReference` machinery, so the
  application never sees dangling state, only recomputation cost;
* the ``recomputations`` counter is the price the process paid for
  having given its memory away — the quantity the SMD's policy
  discussion wants to balance against killing processes.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable

from repro.core.context import ReclaimCallback
from repro.core.sma import SoftMemoryAllocator
from repro.core.softref import ReferenceQueue, SoftReference
from repro.sds.base import SoftDataStructure


class Sache(SoftDataStructure):
    """Compute-through cache with soft entry storage.

    ``compute`` maps a key to its value (the expensive function being
    cached). ``entry_size`` charges each cached value's soft bytes;
    pass ``size_of`` for per-value sizing.
    """

    def __init__(
        self,
        sma: SoftMemoryAllocator,
        compute: Callable[[Hashable], Any],
        name: str = "sache",
        priority: int = 0,
        callback: ReclaimCallback | None = None,
        entry_size: int = 64,
        size_of: Callable[[Any], int] | None = None,
    ) -> None:
        super().__init__(sma, name, priority, callback)
        if entry_size <= 0:
            raise ValueError(f"entry_size must be positive: {entry_size}")
        self._compute = compute
        self._entry_size = entry_size
        self._size_of = size_of
        #: key -> reference (insertion order = age order for reclaim)
        self._entries: dict[Hashable, SoftReference] = {}
        self._cleared = ReferenceQueue()
        self.hits = 0
        self.recomputations = 0

    # -- cache API ----------------------------------------------------------

    def get(self, key: Hashable) -> Any:
        """Value for ``key``; recomputes (and re-caches) after reclaim.

        ``None`` is a legitimate cached value: liveness is judged by
        the reference's cleared flag, never by the payload.
        """
        self._sweep_cleared()
        ref = self._entries.get(key)
        if ref is not None:
            if not ref.cleared:
                self.hits += 1
                return ref.get()
            del self._entries[key]
        value = self._compute(key)
        self.recomputations += 1
        self._insert(key, value)
        return value

    def peek(self, key: Hashable) -> Any | None:
        """Cached value or ``None`` — never computes."""
        ref = self._entries.get(key)
        return ref.get() if ref is not None else None

    def invalidate(self, key: Hashable) -> bool:
        """Drop a cached entry (e.g. the underlying data changed)."""
        ref = self._entries.pop(key, None)
        if ref is None or ref.cleared:
            return ref is not None
        self._free(ref.ptr)
        return True

    def __contains__(self, key: Hashable) -> bool:
        ref = self._entries.get(key)
        return ref is not None and not ref.cleared

    def __len__(self) -> int:
        self._sweep_cleared()
        return len(self._entries)

    def _insert(self, key: Hashable, value: Any) -> None:
        size = self._size_of(value) if self._size_of else self._entry_size
        ptr = self._alloc(size, value)
        self._entries[key] = self._sma.soft_reference(
            ptr, queue=self._cleared, tag=key
        )

    def _sweep_cleared(self) -> None:
        """Lazily drop index entries whose referents were reclaimed."""
        for ref in self._cleared.drain():
            current = self._entries.get(ref.tag)
            if current is ref:
                del self._entries[ref.tag]

    # -- reclaim contract: oldest entries first --------------------------------

    def evict_one(self) -> bool:
        for key, ref in self._entries.items():
            if ref.cleared:
                continue
            if not ref.ptr.pinned:
                del self._entries[key]
                self._reclaim_ptr(ref.ptr)
                return True
        return False

    def __repr__(self) -> str:
        return (
            f"<Sache {self.name!r} entries={len(self._entries)} "
            f"recomputations={self.recomputations}>"
        )
