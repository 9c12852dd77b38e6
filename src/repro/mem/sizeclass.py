"""Size-class slab placement: the "state-of-the-art allocator" core.

The paper closes its evaluation noting that the prototype "is a simple
textbook memory allocator without optimizations; adding soft memory
functionality to a state-of-the-art allocator such as jemalloc or
TCMalloc would likely further improve performance." This module tests
that conjecture: a TCMalloc-style small-object allocator — every page
is a slab of one size class, allocation is a free-slot stack pop — that
plugs into the same heap/pool/SMA machinery as the textbook
:class:`~repro.mem.placer.PagePlacer`.

The trade is the classic one: O(1) placement and freeing with zero
extent bookkeeping, against internal fragmentation from rounding sizes
up to their class.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.mem.page import Page
from repro.mem.placer import Pages
from repro.util.units import PAGE_SIZE

#: TCMalloc-style class ladder: fine-grained small classes, then
#: power-of-two-ish steps up to one page.
SIZE_CLASSES: tuple[int, ...] = (
    16, 32, 48, 64, 80, 96, 112, 128, 160, 192, 224, 256,
    320, 384, 448, 512, 640, 768, 896, 1024,
    1360, 2048, 4096,  # 1360 packs three slots per 4 KiB page
)

_LARGE = -1  # slab marker for dedicated large-object pages


def class_for(size: int) -> int:
    """Smallest size class holding ``size`` bytes (<= one page)."""
    if size <= 0:
        raise ValueError(f"size must be positive: {size}")
    if size > PAGE_SIZE:
        raise ValueError(f"{size} exceeds a page; use the large path")
    return SIZE_CLASSES[bisect_left(SIZE_CLASSES, size)]


class _Slab:
    """Per-page slab state: one size class, a stack of free offsets."""

    __slots__ = ("slot_size", "free_offsets")

    def __init__(self, slot_size: int) -> None:
        self.slot_size = slot_size
        if slot_size == _LARGE:
            self.free_offsets: list[int] = []
        else:
            slots = PAGE_SIZE // slot_size
            self.free_offsets = [
                i * slot_size for i in range(slots - 1, -1, -1)
            ]


class SizeClassPlacer:
    """Drop-in alternative to :class:`~repro.mem.placer.PagePlacer`.

    Same contract: owns pages, places/frees allocations, harvests
    entirely-free pages; the caller supplies pages via :meth:`add_page`
    when :meth:`place` returns ``None``.
    """

    def __init__(self, owner: str = "") -> None:
        self.owner = owner
        self._pages: dict[Page, None] = {}
        self._slabs: dict[Page, _Slab] = {}
        #: per-class stack of partially-used slabs
        self._partial: dict[int, list[Page]] = {}
        #: entirely-free pages (formatted or virgin), insertion-ordered
        self._free_pages: dict[Page, None] = {}
        self._used_bytes = 0

    # -- inspection (PagePlacer interface) --------------------------------

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
        """Requested (not class-rounded) bytes currently placed."""
        return self._used_bytes

    @property
    def free_page_count(self) -> int:
        return len(self._free_pages)

    @property
    def stranded_bytes(self) -> int:
        """Free slot bytes in the slabs that hold a live allocation."""
        return sum(
            len(slab.free_offsets) * slab.slot_size
            for page, slab in self._slabs.items()
            if page.live_allocs and slab.slot_size != _LARGE
        )

    def pages_needed(self, size: int) -> int:
        if size <= PAGE_SIZE:
            if self._partial.get(class_for(size)):
                return 0
            return 0 if self._free_pages else 1
        needed = -(-size // PAGE_SIZE)
        return max(0, needed - len(self._free_pages))

    # -- pages in and out ---------------------------------------------------

    def add_page(self, page: Page) -> None:
        if page in self._pages:
            raise ValueError(f"page {page.page_id} already owned")
        if not page.is_free:
            raise ValueError(f"page {page.page_id} is not free")
        page.owner = self.owner
        self._pages[page] = None
        self._free_pages[page] = None

    def take_free_pages(self, max_count: int | None = None) -> list[Page]:
        harvested: list[Page] = []
        for page in list(self._free_pages):
            if max_count is not None and len(harvested) >= max_count:
                break
            del self._pages[page]
            del self._free_pages[page]
            self._evict_slab(page)
            page.reset()
            harvested.append(page)
        return harvested

    def _evict_slab(self, page: Page) -> None:
        slab = self._slabs.pop(page, None)
        if slab is not None and slab.slot_size != _LARGE:
            stack = self._partial.get(slab.slot_size)
            if stack is not None and page in stack:
                stack.remove(page)

    def _format_page(self, cls: int) -> Page | None:
        """Turn a free page into a slab of class ``cls``."""
        if not self._free_pages:
            return None
        page = next(iter(self._free_pages))
        del self._free_pages[page]
        self._evict_slab(page)
        self._slabs[page] = _Slab(cls)
        self._partial.setdefault(cls, []).append(page)
        return page

    # -- placement ------------------------------------------------------------

    def place(self, size: int) -> tuple[Pages, int] | None:
        if size <= 0:
            raise ValueError(f"allocation size must be positive: {size}")
        if size <= PAGE_SIZE:
            return self._place_small(size)
        return self._place_large(size)

    def _place_small(self, size: int) -> tuple[Pages, int] | None:
        cls = class_for(size)
        stack = self._partial.get(cls)
        if stack:
            page = stack[-1]
        else:
            page = self._format_page(cls)
            if page is None:
                return None
        slab = self._slabs[page]
        offset = slab.free_offsets.pop()
        page.live_allocs += 1
        if not slab.free_offsets:
            self._partial[cls].remove(page)  # slab is now full
        self._used_bytes += size
        return page, offset

    def _place_large(self, size: int) -> tuple[Pages, int] | None:
        needed = -(-size // PAGE_SIZE)
        if len(self._free_pages) < needed:
            return None
        chosen: list[Page] = []
        for page in list(self._free_pages)[:needed]:
            del self._free_pages[page]
            self._evict_slab(page)
            self._slabs[page] = _Slab(_LARGE)
            page.live_allocs += 1
            chosen.append(page)
        self._used_bytes += size
        return tuple(chosen), 0

    def free(self, page: Pages, offset: int, size: int) -> None:
        if size > PAGE_SIZE:
            for one in page:
                one.live_allocs -= 1
                assert one.is_free
                del self._slabs[one]
                self._free_pages[one] = None
        else:
            slab = self._slabs[page]
            was_full = not slab.free_offsets
            slab.free_offsets.append(offset)
            page.live_allocs -= 1
            if page.is_free:
                # fully-free slab: harvestable; drop it from the
                # partial stack but keep its format for reuse
                stack = self._partial.get(slab.slot_size)
                if stack is not None and page in stack:
                    stack.remove(page)
                self._free_pages[page] = None
            elif was_full:
                self._partial.setdefault(slab.slot_size, []).append(page)
        self._used_bytes -= size

    def resize(
        self, page: Pages, offset: int, size: int, new_size: int
    ) -> bool:
        """:meth:`PagePlacer.resize`'s contract: the same slot when
        ``new_size`` is of its size class (a large slab's never is)."""
        if (
            size > PAGE_SIZE
            or new_size > PAGE_SIZE
            or class_for(new_size) != self._slabs[page].slot_size
        ):
            return False
        self._used_bytes += new_size - size
        return True

    def shrink(
        self, page: Pages, offset: int, size: int, new_size: int
    ) -> tuple[Pages, int]:
        """:meth:`PagePlacer.shrink`'s contract: cannot fail, needs no page.

        :meth:`place` already formats an entirely-free page when the new
        class has no partial slab; the last resort is the slot the old
        extent just left, whatever its class.
        """
        self.free(page, offset, size)
        moved = self.place(new_size)
        if moved is None:
            slab = self._slabs[page]
            popped = slab.free_offsets.pop()
            assert popped == offset
            page.live_allocs += 1
            if not slab.free_offsets:
                self._partial[slab.slot_size].remove(page)
            self._used_bytes += new_size
            moved = page, offset
        return moved

    # -- quality metrics ---------------------------------------------------

    def fragmentation(self) -> float:
        """Fraction of non-harvestable free bytes (slack in used slabs)."""
        total_free = 0
        stuck_free = 0
        for page, slab in self._slabs.items():
            if slab.slot_size == _LARGE:
                continue
            free_here = len(slab.free_offsets) * slab.slot_size
            total_free += free_here
            if not page.is_free:
                stuck_free += free_here
        total_free += (
            sum(1 for p in self._free_pages if p not in self._slabs)
            * PAGE_SIZE
        )
        if total_free == 0:
            return 0.0
        return stuck_free / total_free

    def check_invariants(self) -> None:
        live_slots = 0
        for page, slab in self._slabs.items():
            assert page in self._pages, "slab page not owned"
            if slab.slot_size == _LARGE:
                assert page.live_allocs in (0, 1)
                continue
            capacity = PAGE_SIZE // slab.slot_size
            used = capacity - len(slab.free_offsets)
            assert used == page.live_allocs, (
                f"slot count mismatch on page {page.page_id}"
            )
            assert len(set(slab.free_offsets)) == len(slab.free_offsets)
            live_slots += used
        for page in self._free_pages:
            assert page in self._pages
            assert page.is_free
        for cls, stack in self._partial.items():
            for page in stack:
                slab = self._slabs[page]
                assert slab.slot_size == cls
                assert slab.free_offsets, "full slab on partial stack"
                assert not page.is_free, "free slab on partial stack"
        assert self._used_bytes >= 0
