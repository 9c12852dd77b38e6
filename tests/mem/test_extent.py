"""Tests for the free-extent map (the textbook allocator core)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem.extent import ExtentMap


class TestAllocate:
    def test_first_allocation_at_zero(self):
        em = ExtentMap(4096)
        assert em.allocate(100) == 0

    def test_sequential_allocations_are_adjacent(self):
        em = ExtentMap(4096)
        assert em.allocate(100) == 0
        assert em.allocate(50) == 100

    def test_exact_fill(self):
        em = ExtentMap(128)
        assert em.allocate(128) == 0
        assert em.free_bytes == 0
        assert em.allocate(1) is None

    def test_no_fit_returns_none(self):
        em = ExtentMap(100)
        assert em.allocate(101) is None
        assert em.free_bytes == 100  # unchanged

    def test_first_fit_prefers_lowest_offset(self):
        em = ExtentMap(300)
        a = em.allocate(100)
        b = em.allocate(100)
        em.allocate(100)
        em.free(a, 100)
        em.free(b, 100)  # coalesced hole [0, 200)
        assert em.allocate(50) == 0

    def test_invalid_sizes_rejected(self):
        em = ExtentMap(100)
        with pytest.raises(ValueError):
            em.allocate(0)
        with pytest.raises(ValueError):
            em.allocate(-5)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            ExtentMap(0)
        with pytest.raises(ValueError):  # a map covers at most one page
            ExtentMap(4097)


class TestFree:
    def test_free_restores_bytes(self):
        em = ExtentMap(1000)
        off = em.allocate(400)
        em.free(off, 400)
        assert em.free_bytes == 1000

    def test_coalesce_with_predecessor(self):
        em = ExtentMap(300)
        a = em.allocate(100)
        b = em.allocate(100)
        em.allocate(100)
        em.free(a, 100)
        em.free(b, 100)
        assert em.extents() == [(0, 200)]

    def test_coalesce_with_successor(self):
        em = ExtentMap(300)
        a = em.allocate(100)
        b = em.allocate(100)
        em.allocate(100)
        em.free(b, 100)
        em.free(a, 100)
        assert em.extents() == [(0, 200)]

    def test_coalesce_both_sides(self):
        em = ExtentMap(300)
        a = em.allocate(100)
        b = em.allocate(100)
        c = em.allocate(100)
        em.free(a, 100)
        em.free(c, 100)
        em.free(b, 100)  # bridges the two holes
        assert em.extents() == [(0, 300)]
        em.check_invariants()

    def test_double_free_detected(self):
        em = ExtentMap(100)
        off = em.allocate(50)
        em.free(off, 50)
        with pytest.raises(ValueError):
            em.free(off, 50)

    def test_overlapping_free_detected(self):
        em = ExtentMap(200)
        em.allocate(200)
        em.free(0, 100)
        with pytest.raises(ValueError):
            em.free(50, 100)

    def test_out_of_bounds_free_rejected(self):
        em = ExtentMap(100)
        with pytest.raises(ValueError):
            em.free(90, 20)
        with pytest.raises(ValueError):
            em.free(-1, 5)


class TestQueries:
    def test_largest_free_extent(self):
        em = ExtentMap(300)
        a = em.allocate(100)
        em.allocate(100)
        em.free(a, 100)
        assert em.largest_free_extent() == 100

    def test_largest_free_extent_when_full(self):
        em = ExtentMap(100)
        em.allocate(100)
        assert em.largest_free_extent() == 0

    def test_fragmentation_zero_when_contiguous(self):
        em = ExtentMap(100)
        assert em.fragmentation() == 0.0

    def test_fragmentation_positive_when_split(self):
        em = ExtentMap(300)
        a = em.allocate(100)
        em.allocate(100)
        em.free(a, 100)
        assert em.fragmentation() == pytest.approx(0.5)

    def test_fragmentation_zero_when_full(self):
        em = ExtentMap(100)
        em.allocate(100)
        assert em.fragmentation() == 0.0

    def test_used_bytes(self):
        em = ExtentMap(100)
        em.allocate(30)
        assert em.used_bytes == 30


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=600), max_size=60), st.randoms())
def test_random_alloc_free_preserves_invariants(sizes, rng):
    """Property: any alloc/free interleaving keeps the free list sound
    and conserves bytes."""
    em = ExtentMap(4096)
    live: list[tuple[int, int]] = []
    for size in sizes:
        if live and rng.random() < 0.4:
            off, sz = live.pop(rng.randrange(len(live)))
            em.free(off, sz)
        off = em.allocate(size)
        if off is not None:
            live.append((off, size))
        em.check_invariants()
        assert em.used_bytes == sum(sz for _, sz in live)
    for off, sz in live:
        em.free(off, sz)
    assert em.used_bytes == 0
    em.check_invariants()


@settings(max_examples=30, deadline=None)
@given(st.randoms())
def test_free_order_independence(rng):
    """Property: freeing in any order leaves one fully-coalesced extent."""
    em = ExtentMap(4096)
    allocs = []
    while True:
        off = em.allocate(64)
        if off is None:
            break
        allocs.append(off)
    rng.shuffle(allocs)
    for off in allocs:
        em.free(off, 64)
    assert em.extents() == [(0, 4096)]
