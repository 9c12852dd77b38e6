"""SoftQueue: a FIFO request queue in soft memory.

Section 1 lists "temporary request queues" among the natural soft-memory
uses: losing a queued item costs a retry, not correctness. Reclamation
sheds the *oldest* queued items first — the ones most likely to have
timed out anyway; the application callback can record them for
re-submission.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.core.context import ReclaimCallback
from repro.core.pointer import SoftPtr
from repro.core.sma import SoftMemoryAllocator
from repro.sds.base import SoftDataStructure


class SoftQueue(SoftDataStructure):
    """FIFO queue whose items are soft allocations."""

    def __init__(
        self,
        sma: SoftMemoryAllocator,
        name: str = "soft-queue",
        priority: int = 0,
        callback: ReclaimCallback | None = None,
        item_size: int = 64,
    ) -> None:
        super().__init__(sma, name, priority, callback)
        if item_size <= 0:
            raise ValueError(f"item_size must be positive: {item_size}")
        self._item_size = item_size
        self._items: deque[SoftPtr] = deque()
        #: items lost to reclamation before being dequeued
        self.dropped = 0

    def enqueue(self, value: Any, size: int | None = None) -> SoftPtr:
        ptr = self._alloc(size or self._item_size, value)
        self._items.append(ptr)
        return ptr

    def dequeue(self) -> Any:
        """Pop the oldest surviving item; raises IndexError when empty."""
        while self._items:
            ptr = self._items.popleft()
            if ptr.valid:
                value = ptr.deref()
                self._free(ptr)
                return value
            # reclaimed while queued: already counted in evict_one
        raise IndexError("dequeue from empty SoftQueue")

    def __len__(self) -> int:
        """Surviving items (reclaimed-but-unpopped ones are excluded)."""
        return sum(1 for ptr in self._items if ptr.valid)

    def __bool__(self) -> bool:
        return any(ptr.valid for ptr in self._items)

    def peek(self) -> Any:
        for ptr in self._items:
            if ptr.valid:
                return ptr.deref()
        raise IndexError("peek into empty SoftQueue")

    # -- reclaim policy: oldest queued first --------------------------------

    def evict_one(self) -> bool:
        for ptr in self._items:
            if ptr.valid and not ptr.pinned:
                self._reclaim_ptr(ptr)
                self.dropped += 1
                self._compact()
                return True
        return False

    def _compact(self) -> None:
        """Drop leading dead pointers so the deque cannot grow unbounded."""
        while self._items and not self._items[0].valid:
            self._items.popleft()

    def __repr__(self) -> str:
        return f"<SoftQueue {self.name!r} len={len(self)} dropped={self.dropped}>"
