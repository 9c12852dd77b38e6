"""Tests for the TCMalloc-style size-class slab placer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem.page import Page
from repro.mem.placer import PagePlacer
from repro.mem.sizeclass import SIZE_CLASSES, SizeClassPlacer, class_for
from repro.util.units import PAGE_SIZE


def placer_with(pages: int) -> SizeClassPlacer:
    placer = SizeClassPlacer(owner="test")
    for _ in range(pages):
        placer.add_page(Page())
    return placer


class TestClassLadder:
    def test_rounding_up(self):
        assert class_for(1) == 16
        assert class_for(16) == 16
        assert class_for(17) == 32
        assert class_for(1000) == 1024
        assert class_for(PAGE_SIZE) == PAGE_SIZE

    def test_ladder_sorted_and_page_terminated(self):
        assert list(SIZE_CLASSES) == sorted(SIZE_CLASSES)
        assert SIZE_CLASSES[-1] == PAGE_SIZE

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            class_for(0)
        with pytest.raises(ValueError):
            class_for(PAGE_SIZE + 1)

    @given(st.integers(min_value=1, max_value=PAGE_SIZE))
    def test_class_covers_and_bounds_waste(self, size):
        cls = class_for(size)
        assert cls >= size
        # a size class never more than doubles the request (the 2048 ->
        # 4096 step at the top of the ladder is the worst case), modulo
        # the 16-byte minimum class
        assert cls <= max(2 * size, 16)


class TestSlabPlacement:
    def test_basic_place_free(self):
        placer = placer_with(1)
        placed = placer.place(100)
        assert placed is not None
        assert placer.used_bytes == 100
        placer.free(*placed, 100)
        assert placer.used_bytes == 0
        assert placer.free_page_count == 1
        placer.check_invariants()

    def test_slots_per_page(self):
        placer = placer_with(1)
        # 128-byte class: exactly 32 slots per page
        placements = []
        for _ in range(32):
            p = placer.place(128)
            assert p is not None
            placements.append(p)
        assert placer.place(128) is None
        offsets = {offset for __, offset in placements}
        assert len(offsets) == 32  # all distinct slots

    def test_mixed_classes_use_separate_slabs(self):
        placer = placer_with(2)
        small = placer.place(16)
        large = placer.place(2048)
        assert small[0] is not large[0]
        placer.check_invariants()

    def test_same_class_shares_slab(self):
        placer = placer_with(2)
        a = placer.place(100)
        b = placer.place(110)  # same 112-byte class
        assert a[0] is b[0]

    def test_free_page_reformats_for_new_class(self):
        placer = placer_with(1)
        placer.free(*placer.place(16), 16)
        b = placer.place(2048)
        assert b is not None
        placer.check_invariants()

    def test_none_when_out_of_pages(self):
        placer = placer_with(1)
        placer.place(2048)
        placer.place(2048)
        assert placer.place(100) is None
        assert placer.pages_needed(100) == 1

    def test_full_slab_reopens_on_free(self):
        placer = placer_with(1)
        placements = [placer.place(2048) for _ in range(2)]
        assert placer.place(2048) is None
        placer.free(*placements[0], 2048)
        assert placer.place(2048) is not None
        placer.check_invariants()

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            placer_with(1).place(0)


class TestLargeObjects:
    def test_spans_pages(self):
        placer = placer_with(3)
        placed = placer.place(2 * PAGE_SIZE + 1)
        assert placed is not None
        pages, offset = placed
        assert len(pages) == 3 and offset == 0
        placer.free(pages, offset, 2 * PAGE_SIZE + 1)
        assert placer.free_page_count == 3
        placer.check_invariants()

    def test_needs_free_pages(self):
        placer = placer_with(2)
        placer.place(16)
        assert placer.place(2 * PAGE_SIZE) is None


class TestHarvest:
    def test_take_free_pages_resets(self):
        placer = placer_with(2)
        placer.free(*placer.place(64), 64)
        taken = placer.take_free_pages()
        assert len(taken) == 2
        assert all(pg.is_free and pg.live_allocs == 0 for pg in taken)
        assert placer.page_count == 0
        placer.check_invariants()

    def test_harvest_cap(self):
        placer = placer_with(5)
        assert len(placer.take_free_pages(2)) == 2

    def test_add_duplicate_rejected(self):
        placer = SizeClassPlacer()
        page = Page()
        placer.add_page(page)
        with pytest.raises(ValueError):
            placer.add_page(page)


class TestFragmentation:
    def test_zero_when_empty(self):
        assert placer_with(3).fragmentation() == 0.0

    def test_stuck_slack_counted(self):
        placer = placer_with(1)
        placer.place(16)  # 255 free slots stuck behind one live slot
        assert placer.fragmentation() == 1.0

    def test_stranded_bytes_are_the_free_slots_of_used_slabs(self):
        placer = placer_with(3)
        slots = PAGE_SIZE // class_for(100)
        placed = [placer.place(100) for _ in range(slots + 4)]
        assert placer.stranded_bytes == (slots - 4) * class_for(100)
        for page, offset in placed[slots:]:  # the second slab empties
            placer.free(page, offset, 100)
        assert placer.stranded_bytes == 0  # the first slab is full


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.integers(min_value=1, max_value=2 * PAGE_SIZE),
        min_size=1,
        max_size=60,
    ),
    st.randoms(),
)
def test_parity_with_textbook_placer(sizes, rng):
    """Differential property: both placers satisfy the same contract —
    identical live-byte accounting and full recovery after freeing
    everything — on any workload."""
    placers = {"extent": PagePlacer("a"), "slab": SizeClassPlacer("b")}
    live = {"extent": [], "slab": []}
    order = []
    for size in sizes:
        do_free = bool(live["extent"]) and rng.random() < 0.4
        if do_free:
            index = rng.randrange(len(live["extent"]))
        for name, placer in placers.items():
            if do_free:
                placer.free(*live[name].pop(index))
            for _ in range(placer.pages_needed(size)):
                placer.add_page(Page())
            placed = placer.place(size)
            assert placed is not None
            live[name].append((*placed, size))
            placer.check_invariants()
        order.append(size)
    for name, placer in placers.items():
        assert placer.used_bytes == sum(size for __, __, size in live[name])
        for page, offset, size in live[name]:
            placer.free(page, offset, size)
        assert placer.used_bytes == 0
        assert placer.free_page_count == placer.page_count
        placer.check_invariants()
