"""An overwrite that fits resizes in place, on both allocator cores.

``SdsHeap.resize`` asks its placer's ``resize`` first and falls back to
free-then-place only on ``None``. The extent placer keeps a one-page
extent where it lies when the page has room — a shrink frees the tail, a
grow takes the free extent that starts at the old end; the slab placer
keeps the slot while the new size is of the slot's class. Large
placements never resize in place. Which placement each overwrite gets is
pinned against a reference model in ``test_placement_equivalence.py``;
this file pins each branch and the invariants under a long trace.
"""

from __future__ import annotations

import random

import pytest

from repro.core.heap import SdsHeap
from repro.core.sma import SoftMemoryAllocator
from repro.mem.page import Page
from repro.mem.placer import PagePlacer
from repro.mem.sizeclass import SizeClassPlacer
from repro.util.units import PAGE_SIZE

PLACERS = {"extent": PagePlacer, "slab": SizeClassPlacer}


def extent_placer(pages: int = 1) -> PagePlacer:
    placer = PagePlacer(owner="t")
    for _ in range(pages):
        placer.add_page(Page())
    return placer


def overwrite_sizes(rng: random.Random):
    """Lognormal value sizes around 256 B, clipped to 16 B .. 8 KiB."""
    while True:
        yield min(8192, max(16, int(rng.lognormvariate(5.5, 1.0))))


def resize_or_provision(heap: SdsHeap, alloc, size: int) -> None:
    """``soft_resize``'s loop over a heap that is handed fresh pages."""
    while not heap.resize(alloc, size, size):
        if heap.should_release_slack():
            heap.harvest_free_pages()
            continue
        heap.add_pages([Page() for _ in range(heap.pages_needed(size))])


def assert_disjoint(live: list) -> None:
    """No two live placements share a byte."""
    spans: dict = {}
    for ptr in live:
        if ptr.size > PAGE_SIZE:
            for page in ptr.page:
                assert page not in spans, "a dedicated page is shared"
                spans[page] = [(0, PAGE_SIZE)]
            continue
        spans.setdefault(ptr.page, []).append(
            (ptr.offset, ptr.offset + ptr.size)
        )
    for extents in spans.values():
        extents.sort()
        for (__, end), (start, ___) in zip(extents, extents[1:]):
            assert end <= start, extents


@pytest.mark.parametrize("placer_name", sorted(PLACERS))
def test_the_overwrite_trace_keeps_every_invariant(placer_name):
    rng = random.Random(26)
    sizes = overwrite_sizes(rng)
    placer = PLACERS[placer_name](owner="trace")
    heap = SdsHeap("trace", placer)
    in_place = []
    placer_resize = placer.resize

    def counted_resize(page, offset, size, new_size):
        resized = placer_resize(page, offset, size, new_size)
        in_place.append(resized)
        return resized

    placer.resize = counted_resize
    live = []
    for _ in range(400):
        size = next(sizes)
        alloc = heap.allocate(size, None, size)
        if alloc is None:
            heap.add_pages([Page() for _ in range(heap.pages_needed(size))])
            alloc = heap.allocate(size, None, size)
        live.append(alloc)
    for _ in range(4000):
        alloc = rng.choice(live)
        size = next(sizes)
        resize_or_provision(heap, alloc, size)
        assert (alloc.size, alloc.payload) == (size, size)
        assert alloc.page is not None  # placed, not left unplaced
        heap.check_invariants()
        assert_disjoint(live)
    assert heap.live_allocations == len(live)
    assert heap.live_bytes == sum(alloc.size for alloc in live)
    # both outcomes of the placer's resize ran, many times
    assert 100 < sum(in_place) < len(in_place) - 100, sum(in_place)


# ----------------------------------------------------------------------
# PagePlacer.resize, branch by branch
# ----------------------------------------------------------------------


def test_a_shrink_frees_the_tail_and_keeps_the_offset():
    placer = extent_placer()
    placer.place(100)
    page, offset = placer.place(1000)
    assert placer.resize(page, offset, 1000, 600)
    assert offset == 100
    assert page.extents() == [(700, PAGE_SIZE - 700)]
    assert page.live_allocs == 2
    placer.check_invariants()


def test_a_shrink_reopens_a_full_page_as_the_newest():
    placer = extent_placer(2)
    page, offset = placer.place(PAGE_SIZE)
    assert page not in placer._open
    placer.resize(page, offset, PAGE_SIZE, PAGE_SIZE - 64)
    assert list(placer._open)[-1] is page
    assert page.extents() == [(PAGE_SIZE - 64, 64)]
    placer.check_invariants()


def test_an_exact_fit_grow_takes_the_whole_hole():
    placer = extent_placer()
    page, offset = placer.place(1000)
    hole = placer.place(500)
    placer.place(100)
    placer.free(*hole, 500)
    assert placer.resize(page, offset, 1000, 1500)
    assert offset == 0
    assert page.extents() == [(1600, PAGE_SIZE - 1600)]
    placer.check_invariants()


def test_a_grow_that_fills_the_page_closes_it():
    placer = extent_placer()
    page, offset = placer.place(1000)
    placer.resize(page, offset, 1000, PAGE_SIZE)
    assert page.free_bytes == 0 and page not in placer._open
    placer.check_invariants()


def test_a_grow_blocked_by_a_live_neighbour_changes_nothing():
    placer = extent_placer()
    page, offset = placer.place(1000)
    placer.place(100)
    extents = page.extents()
    assert not placer.resize(page, offset, 1000, 1001)
    assert page.extents() == extents and page.live_allocs == 2


def test_a_grow_the_hole_behind_is_too_short_for_changes_nothing():
    placer = extent_placer()
    page, offset = placer.place(1000)
    hole = placer.place(200)
    placer.place(100)
    placer.free(*hole, 200)
    extents = page.extents()
    assert not placer.resize(page, offset, 1000, 1201)
    assert page.extents() == extents


def test_a_grow_past_the_page_is_not_in_place():
    placer = extent_placer()
    page, offset = placer.place(1000)
    assert not placer.resize(page, offset, 1000, PAGE_SIZE + 1)
    assert page.extents() == [(1000, PAGE_SIZE - 1000)]


@pytest.mark.parametrize("placer_name", sorted(PLACERS))
def test_a_large_placement_is_never_resized_in_place(placer_name):
    placer = PLACERS[placer_name](owner="t")
    for _ in range(3):
        placer.add_page(Page())
    pages, offset = placer.place(2 * PAGE_SIZE)
    for new_size in (100, 2 * PAGE_SIZE - 1, 3 * PAGE_SIZE):
        assert not placer.resize(pages, offset, 2 * PAGE_SIZE, new_size)
    assert placer.used_bytes == 2 * PAGE_SIZE


# ----------------------------------------------------------------------
# SizeClassPlacer.resize
# ----------------------------------------------------------------------


def test_a_slab_resize_within_the_class_keeps_the_slot():
    placer = SizeClassPlacer(owner="t")
    placer.add_page(Page())
    page, offset = placer.place(100)  # the 112-byte class
    size = 100
    for new_size in (112, 97):
        assert placer.resize(page, offset, size, new_size)
        assert placer.used_bytes == new_size
        size = new_size
    placer.check_invariants()


def test_a_slab_resize_across_classes_changes_nothing():
    placer = SizeClassPlacer(owner="t")
    placer.add_page(Page())
    page, offset = placer.place(100)
    for new_size in (96, 113, PAGE_SIZE + 1):
        assert not placer.resize(page, offset, 100, new_size)
    assert placer.used_bytes == 100
    placer.check_invariants()


# ----------------------------------------------------------------------
# through the SMA: the ledgers see one free and one allocation
# ----------------------------------------------------------------------


def test_an_in_place_soft_resize_keeps_the_ledgers_and_refreshes_age():
    sma = SoftMemoryAllocator(name="inplace", request_batch_pages=1)
    ctx = sma.create_context("c")
    ptr, other = sma.soft_malloc(1000, ctx, 1), sma.soft_malloc(100, ctx, 2)
    sma.soft_free(other)
    where = ptr.offset, ptr.page
    mapped = sma.stats.pages_mapped
    for new_size in (3000, 10):
        assert sma.soft_resize(ptr, new_size, new_size) is ptr
        assert (ptr.offset, ptr.page) == where
        assert ptr.size == ptr.deref() == new_size
    assert (sma.stats.allocations, sma.stats.frees) == (4, 3)
    assert sma.stats.pages_mapped == mapped
    assert ctx.heap.live_allocations == 1
    assert ctx.heap.live_bytes == 10
    sma.check_invariants()
