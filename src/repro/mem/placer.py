"""Intra-page allocation placement shared by the SMA heaps and the baseline.

A :class:`PagePlacer` owns a set of pages and decides where allocations
land: small allocations (at most one page) go into a partially-used page
via its extent map; large allocations get a dedicated run of whole pages
(the classic small/large-object split). The Soft Memory Allocator's
per-SDS heaps and the :class:`~repro.mem.sysalloc.SystemAllocator`
baseline both build on this class, so performance comparisons between
them measure only the soft-memory machinery.

The fit policy is "textbook, no optimizations" like the paper's prototype:
first-fit over a bounded window of recently-opened pages. What a miss
costs is not policy: a :class:`PagePlacer` remembers the smallest
one-page size whose scan of the window missed, and answers a later ask
of at least that size with ``None`` after one compare. An allocation
that leaves its page open only takes room, so a miss stays a miss
across it; everything that can add room or move the window forgets the
memo (see :class:`PagePlacer`).

A placer keeps no per-allocation record. :meth:`PagePlacer.place`
answers ``(page, offset)`` — a small allocation occupies ``[offset,
offset+size)`` of that one page; a large one (``size`` over a page)
owns every page of a tuple outright, at offset 0 — and the caller
hands ``page``, ``offset`` and ``size`` back to free, resize or shrink.
"""

from __future__ import annotations

from repro.mem.page import Page
from repro.util.units import PAGE_SIZE

#: an allocation's pages: the one page it lies in, or the tuple of pages
#: a large allocation owns
Pages = Page | tuple[Page, ...]

#: ``PagePlacer._missed`` when no miss is remembered: no one-page ask
#: reaches it
_NO_MISS = PAGE_SIZE + 1


class PagePlacer:
    """Places and frees allocations within an owned set of pages.

    The placer never talks to the machine: when it cannot fit an
    allocation it returns ``None`` and the caller supplies pages through
    :meth:`add_page`. This keeps page *sourcing* (free pool, budget,
    daemon) strictly outside, where the SMA implements it.

    ``_missed`` is the smallest one-page size whose scan of the window
    missed (``_NO_MISS`` when none has): no extent of that size is
    free in the window, so none of a larger one is either, and
    :meth:`place` answers such an ask with ``None`` after one compare.
    Taking room from a page that stays open cannot make a miss fit, so
    the memo survives allocations. It is forgotten by every change that
    can add room or move the window: :meth:`free`, a shrinking
    :meth:`resize`, :meth:`add_page`, and any page leaving the open
    set (a fill in :meth:`place` or in a growing :meth:`resize`, a large
    placement, :meth:`take_free_pages`, :meth:`shrink`'s re-open), which
    brings an older page into the window.
    """

    #: How many partially-used pages first-fit inspects before giving up.
    SCAN_LIMIT = 8

    def __init__(self, owner: str = "") -> None:
        self.owner = owner
        #: every page owned by this placer
        self._pages: dict[Page, None] = {}
        #: insertion-ordered pages with any free space (small-object pool)
        self._open: dict[Page, None] = {}
        #: insertion-ordered entirely-free pages (O(1) reclaim scans)
        self._free_pages: dict[Page, None] = {}
        #: smallest one-page size the window is known to miss
        self._missed = _NO_MISS

    def __len__(self) -> int:
        return len(self._pages)

    @property
    def page_count(self) -> int:
        return len(self._pages)

    @property
    def pages(self) -> list[Page]:
        return list(self._pages)

    @property
    def used_bytes(self) -> int:
        return sum(p.used_bytes for p in self._pages)

    @property
    def free_page_count(self) -> int:
        return len(self._free_pages)

    @property
    def stranded_bytes(self) -> int:
        """Free bytes in the pages that hold a live allocation."""
        return sum(p.free_bytes for p in self._pages if p.live_allocs)

    def pages_needed(self, size: int) -> int:
        """Pages the caller must add after ``place(size)`` returned ``None``.

        Asked only on a miss, and the miss already walked the scan
        window: a small allocation needs the one page the window lacks.
        """
        if size <= PAGE_SIZE:
            return 1
        return max(0, -(-size // PAGE_SIZE) - len(self._free_pages))

    def add_page(self, page: Page) -> None:
        """Hand the placer a (fully free) page to allocate from."""
        if page in self._pages:
            raise ValueError(f"page {page.page_id} already owned")
        if not page.is_free:
            raise ValueError(f"page {page.page_id} is not free")
        page.owner = self.owner
        self._pages[page] = None
        self._open[page] = None
        self._free_pages[page] = None
        self._missed = _NO_MISS

    def place(self, size: int) -> tuple[Pages, int] | None:
        """Place ``size`` bytes; ``None`` means caller must add pages."""
        if size > PAGE_SIZE:
            return self._place_large(size)
        if size >= self._missed:  # the window has missed this already
            return None
        if size <= 0:
            raise ValueError(f"allocation size must be positive: {size}")
        # first fit, newest page first. One compare passes over a page
        # too full to matter; a page that might fit has its free list
        # walked once, and the winner's accounting is done right here
        scanned = 0
        for page in reversed(self._open):
            if page.free_bytes >= size:
                offset = page.allocate(size)
                if offset is not None:
                    page.live_allocs += 1
                    if page.live_allocs == 1:
                        del self._free_pages[page]
                    if not page.free_bytes:
                        del self._open[page]
                        self._missed = _NO_MISS
                    return page, offset
            scanned += 1
            if scanned >= self.SCAN_LIMIT:
                break
        self._missed = size
        return None

    def _place_large(self, size: int) -> tuple[Pages, int] | None:
        needed = -(-size // PAGE_SIZE)
        # Dedicated whole pages: take fully-free pages out of the open set.
        if len(self._free_pages) < needed:
            return None
        chosen = list(self._free_pages)[:needed]
        self._missed = _NO_MISS
        remaining = size
        for page in chosen:
            chunk = min(PAGE_SIZE, remaining)
            offset = page.allocate(chunk)
            assert offset == 0
            page.live_allocs += 1
            remaining -= chunk
            # Dedicated pages leave the small-object pool even if the tail
            # page has slack; large objects don't share pages.
            self._open.pop(page, None)
            self._free_pages.pop(page, None)
        return tuple(chosen), 0

    def free(self, page: Pages, offset: int, size: int) -> None:
        """Undo a placement; pages regain space but stay owned."""
        if size > PAGE_SIZE:  # each owned page is a one-page free
            for one in page:
                chunk = size if size < PAGE_SIZE else PAGE_SIZE
                self.free(one, 0, chunk)
                size -= chunk
            return
        if page.live_allocs <= 0:
            raise ValueError(f"page {page.page_id} has no live allocations")
        page.free(offset, size)
        page.live_allocs -= 1
        self._open[page] = None
        self._missed = _NO_MISS
        if not page.live_allocs:
            self._free_pages[page] = None

    def resize(
        self, page: Pages, offset: int, size: int, new_size: int
    ) -> bool:
        """Resize a one-page allocation where it lies, else ``False`` (and
        nothing changed). A shrink frees the tail and re-opens the page as
        :meth:`free` does; a grow takes the free extent at the old end."""
        if size > PAGE_SIZE or new_size > PAGE_SIZE:
            return False
        if new_size < size:
            page.free(offset + new_size, size - new_size)
            self._open[page] = None
            self._missed = _NO_MISS
        elif new_size > size:
            if not page.extend(offset + size, new_size - size):
                return False
            if not page.free_bytes:
                del self._open[page]
                self._missed = _NO_MISS
        return True

    def shrink(
        self, page: Pages, offset: int, size: int, new_size: int
    ) -> tuple[Pages, int]:
        """Move an allocation to a smaller extent; cannot fail, needs no page.

        The old extent is freed, then the new one goes where
        :meth:`place` puts it, else into the first entirely-free page,
        else into the page the old extent just left. That fallback page
        is re-opened as the newest, so the shrunk extents that follow
        pack into it and the pages they leave free wholly.
        """
        self.free(page, offset, size)
        moved = self.place(new_size)
        if moved is None:  # small, and no room in the scan window
            page = next(iter(self._free_pages), page)
            self._open.pop(page, None)
            self._open[page] = None
            self._missed = _NO_MISS
            moved = self.place(new_size)
            assert moved is not None
        return moved

    def take_free_pages(self, max_count: int | None = None) -> list[Page]:
        """Remove and return up to ``max_count`` entirely-free pages.

        This is the page-granularity harvest step of reclamation: only
        pages with no live allocation can leave the placer.
        """
        harvested: list[Page] = []
        for page in list(self._free_pages):
            if max_count is not None and len(harvested) >= max_count:
                break
            del self._pages[page]
            del self._free_pages[page]
            self._open.pop(page, None)
            page.reset()
            harvested.append(page)
        self._missed = _NO_MISS
        return harvested

    def fragmentation(self) -> float:
        """Fraction of non-free-page free bytes (slack stuck in used pages)."""
        total_free = sum(p.free_bytes for p in self._pages)
        if total_free == 0:
            return 0.0
        harvestable = self.free_page_count * PAGE_SIZE
        return 1.0 - harvestable / total_free

    def check_invariants(self) -> None:
        for page in self._pages:
            page.check_invariants()
        for page in self._open:
            assert page in self._pages, "open page not owned"
            assert page.free_bytes > 0, "full page in open set"
        for page in list(reversed(self._open))[: self.SCAN_LIMIT]:
            assert page.largest_free_extent() < self._missed, "stale miss"
        for page in self._free_pages:
            assert page in self._pages, "free page not owned"
            assert page.is_free, "non-free page in free set"
        actual_free = sum(1 for p in self._pages if p.is_free)
        assert actual_free == len(self._free_pages), "free-set out of sync"
