"""Thread-safe soft memory (section 7's concurrency question).

"With concurrency, the SMA's reclamation of a soft allocation can race
with another thread that is accessing the memory."

Two mechanisms compose to make that safe here:

* :class:`LockedSoftMemoryAllocator` serializes every allocator entry
  point (malloc, free, reclamation, budget traffic) behind one
  re-entrant lock — reclamation demands arriving from the daemon thread
  cannot interleave with application mallocs mid-bookkeeping;
* :class:`~repro.core.pointer.DerefScope` pins allocations while a
  thread reads them, so a reclamation that *does* run concurrently
  skips anything in active use (AIFM's dereference-scope idea, which
  the paper names as the likely answer).

The lock is coarse-grained by design: the paper's own prototype is
single-threaded (Redis is), and AIFM's five-instruction per-deref fast
path needs hardware-level atomics a Python accounting model cannot
meaningfully reproduce. What *is* reproduced is the contract: no torn
ledgers and no reclaimed-under-your-feet accesses, under any thread
interleaving.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.core.context import ReclaimCallback, SdsContext
from repro.core.pointer import SoftPtr
from repro.core.reclaim import ReclamationStats
from repro.core.sma import SoftMemoryAllocator


class LockedSoftMemoryAllocator(SoftMemoryAllocator):
    """Drop-in SMA whose public operations are mutually exclusive.

    The lock is re-entrant because reclamation re-enters the allocator:
    a demand runs SDS handlers, which call :meth:`reclaim_free`. The
    base class is called by name: ``super()`` builds a proxy and looks
    the method up again on every call, and the allocation entry points
    run per command.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._lock = threading.RLock()

    def create_context(
        self,
        name: str,
        priority: int = 0,
        callback: ReclaimCallback | None = None,
    ) -> SdsContext:
        with self._lock:
            return SoftMemoryAllocator.create_context(
                self, name, priority, callback
            )

    def remove_context(self, context: SdsContext) -> None:
        with self._lock:
            SoftMemoryAllocator.remove_context(self, context)

    def soft_malloc(
        self, size: int, context: SdsContext, payload: Any = None
    ) -> SoftPtr:
        with self._lock:
            return SoftMemoryAllocator.soft_malloc(
                self, size, context, payload
            )

    def soft_free(self, ptr: SoftPtr) -> None:
        with self._lock:
            SoftMemoryAllocator.soft_free(self, ptr)

    def soft_resize(
        self, ptr: SoftPtr, new_size: int, payload: Any = None
    ) -> SoftPtr:
        with self._lock:
            return SoftMemoryAllocator.soft_resize(
                self, ptr, new_size, payload
            )

    def soft_demote(
        self, ptr: SoftPtr, new_size: int, payload: Any = None
    ) -> SoftPtr:
        with self._lock:
            return SoftMemoryAllocator.soft_demote(
                self, ptr, new_size, payload
            )

    def soft_promote(
        self, ptr: SoftPtr, new_size: int, payload: Any = None
    ) -> bool:
        with self._lock:
            return SoftMemoryAllocator.soft_promote(
                self, ptr, new_size, payload
            )

    def reclaim(self, demand_pages: int) -> ReclamationStats:
        with self._lock:
            return SoftMemoryAllocator.reclaim(self, demand_pages)

    def try_reclaim(
        self, demand_pages: int, timeout: float
    ) -> ReclamationStats | None:
        """Reclaim with a bounded wait for the allocator lock.

        Returns ``None`` if the lock could not be taken in ``timeout``
        seconds. The cross-process demand path uses this to break the
        distributed wait cycle: if this process's application thread is
        itself blocked on a daemon round-trip (holding the lock), the
        demand reports zero pages instead of stalling the episode.
        """
        if not self._lock.acquire(timeout=timeout):
            return None
        try:
            return SoftMemoryAllocator.reclaim(self, demand_pages)
        finally:
            self._lock.release()

    def reclaim_flexible(self, demand_pages: int) -> ReclamationStats:
        with self._lock:
            return SoftMemoryAllocator.reclaim_flexible(self, demand_pages)

    def reclaim_free(self, ptr: SoftPtr) -> None:
        with self._lock:
            SoftMemoryAllocator.reclaim_free(self, ptr)

    def reserve_budget(self, pages: int) -> int:
        with self._lock:
            return SoftMemoryAllocator.reserve_budget(self, pages)

    def return_excess(self, keep_pool_pages: int = 0) -> int:
        with self._lock:
            return SoftMemoryAllocator.return_excess(self, keep_pool_pages)

    def destroy(self) -> None:
        with self._lock:
            SoftMemoryAllocator.destroy(self)

    def check_invariants(self) -> None:
        with self._lock:
            SoftMemoryAllocator.check_invariants(self)


def pinned_read(ptr: SoftPtr) -> Any:
    """Read a soft value safely against concurrent reclamation.

    Convenience for the common single-pointer case:
    pin, copy the payload reference out, unpin.
    Raises :class:`~repro.core.errors.ReclaimedMemoryError` if the
    allocation was already gone.
    """
    from repro.core.pointer import DerefScope

    with DerefScope(ptr) as (value,):
        return value
