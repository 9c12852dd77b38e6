"""Tests for per-SDS heaps."""

import sys

import pytest

from repro.core.heap import SdsHeap
from repro.core.sma import SoftMemoryAllocator
from repro.mem.page import Page
from repro.util.units import PAGE_SIZE


@pytest.fixture
def ctx():
    return SoftMemoryAllocator(name="heap-test").create_context("c")


def heap_with(pages: int) -> SdsHeap:
    heap = SdsHeap(name="h")
    heap.add_pages([Page() for _ in range(pages)])
    return heap


class TestAllocateFree:
    def test_allocate_without_pages_returns_none(self, ctx):
        heap = SdsHeap()
        assert heap.allocate(10, ctx, None) is None
        assert heap.pages_needed(10) == 1

    def test_allocate_places_and_indexes(self, ctx):
        heap = heap_with(1)
        alloc = heap.allocate(100, ctx, "payload")
        assert alloc is not None
        assert alloc.payload == "payload"
        assert heap.live_allocations == 1
        assert heap.live_bytes == 100

    def test_free_invalidates(self, ctx):
        heap = heap_with(1)
        alloc = heap.allocate(100, ctx, None)
        heap.free(alloc)
        assert not alloc.valid
        assert heap.live_allocations == 0

    def test_double_free_rejected(self, ctx):
        heap = heap_with(1)
        alloc = heap.allocate(100, ctx, None)
        heap.free(alloc)
        with pytest.raises(ValueError):
            heap.free(alloc)


class TestAgeOrder:
    """The heap keeps a count, not an age registry: which allocation
    dies first is the SDS's order (``SoftDict._index``)."""

    def test_order_survives_interior_free(self, ctx):
        heap = heap_with(2)
        allocs = [heap.allocate(10, ctx, i) for i in range(5)]
        heap.free(allocs[2])
        assert [a.payload for a in allocs if a.valid] == [0, 1, 3, 4]
        assert heap.live_allocations == 4
        heap.check_invariants()

    def test_the_heap_holds_nothing_per_allocation(self, ctx):
        heap = heap_with(4)

        def footprint() -> int:
            return sum(sys.getsizeof(value) for value in vars(heap).values())

        before = footprint()
        allocs = [heap.allocate(16, ctx, i) for i in range(500)]
        assert heap.live_allocations == 500
        assert footprint() == before, "a per-allocation registry is back"
        for alloc in allocs:
            heap.free(alloc)
        assert footprint() == before

    def test_safe_to_free_while_iterating(self, ctx):
        heap = heap_with(2)
        allocs = [heap.allocate(10, ctx, i) for i in range(5)]
        for alloc in allocs:
            heap.free(alloc)
        assert heap.live_allocations == 0
        assert heap.live_bytes == 0
        heap.check_invariants()


class TestHarvest:
    def test_harvest_only_free_pages(self, ctx):
        heap = heap_with(3)
        heap.allocate(10, ctx, None)
        harvested = heap.harvest_free_pages()
        assert len(harvested) == 2
        assert heap.page_count == 1

    def test_slack_threshold(self, ctx):
        heap = heap_with(SdsHeap.FREE_PAGE_SLACK)
        assert heap.should_release_slack()
        heap.harvest_free_pages()
        assert not heap.should_release_slack()

    def test_paper_example_two_kib_elements(self, ctx):
        """Section 3.1: freeing six 2 KiB elements (oldest-first) frees
        three whole pages."""
        heap = heap_with(0)
        allocs = []
        for i in range(100):
            alloc = heap.allocate(2048, ctx, i)
            if alloc is None:
                heap.add_pages([Page() for _ in range(heap.pages_needed(2048))])
                alloc = heap.allocate(2048, ctx, i)
            allocs.append(alloc)
        assert heap.page_count == 50
        for alloc in allocs[:6]:
            heap.free(alloc)
        assert heap.free_page_count == 3
        assert len(heap.harvest_free_pages()) == 3

    def test_invariants(self, ctx):
        heap = heap_with(2)
        a = heap.allocate(100, ctx, None)
        heap.check_invariants()
        heap.free(a)
        heap.check_invariants()

    def test_fragmentation_delegates(self, ctx):
        heap = heap_with(1)
        heap.allocate(8, ctx, None)
        assert heap.fragmentation() == 1.0
