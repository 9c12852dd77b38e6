"""Per-SDS isolated heap.

Section 3.1: "The Soft Memory Allocator provides each SDS with its own
heap and set of memory pages. [...] a SDS receives pages from the SMA and
manages its own memory within these pages." Localizing an SDS's
allocations within its own pages is the paper's answer to the
frees-per-reclaimed-page trade-off: freeing a few allocations from one
data structure produces whole free pages quickly.

The heap is *mechanism only*: it places, frees, and harvests. Choosing
which allocations die during reclamation is SDS policy
(:mod:`repro.sds.base`), and page sourcing is the SMA's job
(:mod:`repro.core.sma`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core.pointer import SoftPtr
from repro.mem.page import Page
from repro.mem.placer import PagePlacer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.context import SdsContext


class SdsHeap:
    """Pages + live allocation count of a single soft data structure.

    A :class:`SoftPtr` is its allocation, so the heap keeps no registry
    of them: which allocation dies first is the SDS's policy, kept in
    the SDS's own age order (``SoftDict._index``), and the heap counts.
    """

    #: harvest free pages back to the process pool once this many idle
    #: (the prototype "periodically transfers free pages back")
    FREE_PAGE_SLACK = 4

    def __init__(self, name: str = "", placer: PagePlacer | None = None) -> None:
        self.name = name
        #: any object with the PagePlacer contract (e.g. the size-class
        #: slab placer in repro.mem.sizeclass)
        self._placer = placer if placer is not None else PagePlacer(
            owner=f"heap:{name}"
        )
        #: allocations made and not yet freed (a resize keeps its one)
        self.live_allocations = 0

    # -- placement ---------------------------------------------------

    def pages_needed(self, size: int) -> int:
        """Pages the SMA must supply after ``allocate(size)`` missed."""
        return self._placer.pages_needed(size)

    def add_pages(self, pages: list[Page]) -> None:
        for page in pages:
            self._placer.add_page(page)

    def allocate(
        self, size: int, context: "SdsContext", payload: Any
    ) -> SoftPtr | None:
        """Place an allocation, or return ``None`` if pages are needed."""
        placed = self._placer.place(size)
        if placed is None:
            return None
        page, offset = placed
        self.live_allocations += 1
        return SoftPtr(size, page, offset, context, payload)

    def free(self, ptr: SoftPtr) -> None:
        """Release a live allocation (normal ``soft_free`` path)."""
        if not ptr.valid:
            raise ValueError(f"allocation {ptr.alloc_id} already freed")
        if ptr.page is not None:  # else a resize holds it unplaced
            self._placer.free(ptr.page, ptr.offset, ptr.size)
        self.live_allocations -= 1
        ptr.valid = False
        ptr.payload = None

    def resize(self, ptr: SoftPtr, new_size: int, payload: Any) -> bool | None:
        """Resize a live allocation to ``new_size``, keeping it.

        In place when the page has room (the placer's ``resize``), else
        the same two placer decisions as :meth:`free` followed by
        :meth:`allocate`, in that order; the :class:`SoftPtr` (and
        every reference to it) survives and stays one live allocation.
        The placer is asked once: where it lies (its ``resize``), and
        only after that missed, where else (its ``place``). Returns
        a falsy value when the caller has to act before the new extent
        can be placed: ``None`` when idle pages are due back to the pool
        (:meth:`should_release_slack`) and no placement was tried yet,
        ``False`` when the placement missed and pages are needed. By
        then the old extent is freed and the allocation is *unplaced* —
        ``page`` is ``None``, its payload is still readable; call again
        to place it.
        """
        if new_size <= 0:
            raise ValueError(f"allocation size must be positive: {new_size}")
        if not ptr.valid:
            raise ValueError(f"allocation {ptr.alloc_id} already freed")
        placer = self._placer
        page = ptr.page
        if page is not None:
            if placer.resize(page, ptr.offset, ptr.size, new_size):
                ptr.size = new_size
                ptr.payload = payload
                return True
            placer.free(page, ptr.offset, ptr.size)
            ptr.page = None
            if placer.free_page_count >= self.FREE_PAGE_SLACK:
                return None
        placed = placer.place(new_size)
        if placed is None:
            return False
        ptr.page, ptr.offset = placed
        ptr.size = new_size
        ptr.payload = payload
        return True

    def relocate(self, ptr: SoftPtr, new_size: int, payload: Any) -> bool:
        """Move a live allocation inside the pages this heap already owns.

        To a smaller extent it cannot fail (:meth:`PagePlacer.shrink`).
        To a larger one the new extent is placed before the old one is
        freed, so ``False`` — no room without new pages — leaves all as
        it was. No unplaced state, nothing for the SMA to provision; the
        allocation keeps its handle.
        """
        placer = self._placer
        if new_size < ptr.size:
            placed = placer.shrink(ptr.page, ptr.offset, ptr.size, new_size)
        else:
            placed = placer.place(new_size)
            if placed is None:
                return False
            placer.free(ptr.page, ptr.offset, ptr.size)
        ptr.page, ptr.offset = placed
        ptr.size = new_size
        ptr.payload = payload
        return True

    # -- inspection ---------------------------------------------------

    @property
    def live_bytes(self) -> int:
        return self._placer.used_bytes

    @property
    def page_count(self) -> int:
        return self._placer.page_count

    @property
    def stranded_bytes(self) -> int:
        return self._placer.stranded_bytes

    @property
    def free_page_count(self) -> int:
        return self._placer.free_page_count

    # -- harvest ------------------------------------------------------

    def harvest_free_pages(self, max_count: int | None = None) -> list[Page]:
        """Detach entirely-free pages (for the pool or for reclamation)."""
        return self._placer.take_free_pages(max_count)

    def should_release_slack(self) -> bool:
        """True when enough idle pages accumulated to hand back to the pool."""
        return self._placer.free_page_count >= self.FREE_PAGE_SLACK

    def fragmentation(self) -> float:
        return self._placer.fragmentation()

    def check_invariants(self) -> None:
        self._placer.check_invariants()
        assert self.live_allocations >= 0, "more frees than allocations"

    def __repr__(self) -> str:
        return (
            f"<SdsHeap {self.name!r} pages={self.page_count} "
            f"allocs={self.live_allocations}>"
        )
