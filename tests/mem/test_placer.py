"""Tests for intra-page placement (small/large objects, harvest)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem.page import Page
from repro.mem.placer import PagePlacer
from repro.util.units import PAGE_SIZE


def placer_with(pages: int) -> PagePlacer:
    placer = PagePlacer(owner="test")
    for _ in range(pages):
        placer.add_page(Page())
    return placer


class TestSmallObjects:
    def test_place_in_single_page(self):
        placer = placer_with(1)
        placed = placer.place(100)
        assert placed is not None
        page, offset = placed
        assert type(page) is Page  # one page, not a tuple of them

    def test_none_without_pages(self):
        placer = PagePlacer()
        assert placer.place(100) is None
        assert placer.pages_needed(100) == 1

    def test_fills_page_before_failing(self):
        placer = placer_with(1)
        for _ in range(4):
            assert placer.place(1024) is not None
        assert placer.place(1024) is None

    def test_free_reopens_page(self):
        placer = placer_with(1)
        placements = [placer.place(1024) for _ in range(4)]
        assert placer.place(1024) is None
        placer.free(*placements[0], 1024)
        assert placer.place(1024) is not None

    def test_invalid_size_rejected(self):
        placer = placer_with(1)
        with pytest.raises(ValueError):
            placer.place(0)


class TestLargeObjects:
    def test_spans_whole_pages(self):
        placer = placer_with(3)
        placed = placer.place(2 * PAGE_SIZE + 10)
        assert placed is not None
        pages, offset = placed
        assert type(pages) is tuple
        assert len(pages) == 3
        assert offset == 0

    def test_needs_fully_free_pages(self):
        placer = placer_with(2)
        placer.place(1)  # dirties one page
        assert placer.place(2 * PAGE_SIZE) is None
        assert placer.pages_needed(2 * PAGE_SIZE) == 1

    def test_free_large_restores_pages(self):
        placer = placer_with(2)
        placed = placer.place(2 * PAGE_SIZE)
        placer.free(*placed, 2 * PAGE_SIZE)
        assert placer.free_page_count == 2
        placer.check_invariants()

    def test_large_pages_not_shared_with_small(self):
        # the tail page of a large object has slack but must stay dedicated
        placer = placer_with(2)
        placer.place(PAGE_SIZE + 100)
        small = placer.place(50)
        assert small is None

    def test_exact_multiple_of_page(self):
        placer = placer_with(2)
        placement = placer.place(2 * PAGE_SIZE)
        assert placement is not None
        assert placer.free_page_count == 0


class TestHarvest:
    def test_take_free_pages(self):
        placer = placer_with(3)
        placed = placer.place(10)
        taken = placer.take_free_pages()
        assert len(taken) == 2  # the dirty page stays
        assert placer.page_count == 1
        assert all(p.is_free for p in taken)
        placer.free(*placed, 10)

    def test_take_free_pages_respects_cap(self):
        placer = placer_with(5)
        assert len(placer.take_free_pages(2)) == 2
        assert placer.page_count == 3

    def test_harvested_pages_are_reset(self):
        placer = placer_with(1)
        placer.free(*placer.place(10), 10)
        taken = placer.take_free_pages()
        assert taken[0].used_bytes == 0
        assert taken[0].live_allocs == 0

    def test_add_duplicate_page_rejected(self):
        placer = PagePlacer()
        page = Page()
        placer.add_page(page)
        with pytest.raises(ValueError):
            placer.add_page(page)

    def test_add_dirty_page_rejected(self):
        placer = PagePlacer()
        elsewhere = placer_with(1)
        page, __ = elsewhere.place(10)
        with pytest.raises(ValueError):
            placer.add_page(page)


class TestAccounting:
    def test_used_bytes(self):
        placer = placer_with(2)
        placer.place(100)
        placer.place(200)
        assert placer.used_bytes == 300

    def test_free_page_count_tracks_transitions(self):
        placer = placer_with(2)
        assert placer.free_page_count == 2
        placed = placer.place(10)
        assert placer.free_page_count == 1
        placer.free(*placed, 10)
        assert placer.free_page_count == 2

    def test_fragmentation_zero_when_all_free_harvestable(self):
        placer = placer_with(3)
        assert placer.fragmentation() == 0.0

    def test_fragmentation_grows_with_stuck_slack(self):
        placer = placer_with(1)
        placer.place(10)  # 4086 bytes of slack stuck in a used page
        assert placer.fragmentation() == 1.0


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.integers(min_value=1, max_value=3 * PAGE_SIZE),
        min_size=1,
        max_size=50,
    ),
    st.randoms(),
)
def test_placer_random_ops_invariants(sizes, rng):
    """Property: random place/free with on-demand page adds stays sound."""
    placer = PagePlacer(owner="prop")
    live = []
    for size in sizes:
        if live and rng.random() < 0.4:
            placer.free(*live.pop(rng.randrange(len(live))))
        placed = placer.place(size)
        if placed is None:
            for _ in range(placer.pages_needed(size)):
                placer.add_page(Page())
            placed = placer.place(size)
            assert placed is not None, "pages_needed promised a fit"
        live.append((*placed, size))
        placer.check_invariants()
    total = sum(size for __, __, size in live)
    assert placer.used_bytes == total
    for page, offset, size in live:
        placer.free(page, offset, size)
    assert placer.used_bytes == 0
    assert placer.free_page_count == placer.page_count
    placer.check_invariants()
