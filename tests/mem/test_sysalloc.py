"""Tests for the system-allocator baseline."""

import pytest

from repro.mem.errors import OutOfMemoryError
from repro.mem.physical import PhysicalMemory
from repro.mem.sysalloc import SystemAllocator
from repro.util.units import KIB, MIB, PAGE_SIZE


class TestUnbounded:
    def test_malloc_free_roundtrip(self):
        alloc = SystemAllocator()
        a = alloc.malloc(KIB)
        assert alloc.live_allocations == 1
        alloc.free(a)
        assert alloc.live_allocations == 0

    def test_unique_ids(self):
        alloc = SystemAllocator()
        assert alloc.malloc(10) != alloc.malloc(10)

    def test_double_free_rejected(self):
        alloc = SystemAllocator()
        a = alloc.malloc(10)
        alloc.free(a)
        with pytest.raises(ValueError):
            alloc.free(a)

    def test_unknown_id_rejected(self):
        alloc = SystemAllocator()
        with pytest.raises(ValueError):
            alloc.free(999999999)

    def test_grows_pages_on_demand(self):
        alloc = SystemAllocator()
        for _ in range(8):
            alloc.malloc(KIB)
        assert alloc.page_count == 2  # 4 x 1KiB per page

    def test_large_allocation(self):
        alloc = SystemAllocator()
        a = alloc.malloc(3 * PAGE_SIZE)
        assert alloc.page_count == 3
        alloc.free(a)

    def test_counters(self):
        alloc = SystemAllocator()
        a = alloc.malloc(10)
        alloc.free(a)
        assert alloc.total_allocs == 1
        assert alloc.total_frees == 1


class TestBounded:
    def test_consumes_machine_frames(self):
        pm = PhysicalMemory(MIB)
        alloc = SystemAllocator(pm)
        alloc.malloc(KIB)
        assert pm.used_frames == 1

    def test_oom_when_machine_full(self):
        pm = PhysicalMemory(4 * PAGE_SIZE)
        alloc = SystemAllocator(pm)
        for _ in range(4):
            alloc.malloc(PAGE_SIZE)
        with pytest.raises(OutOfMemoryError):
            alloc.malloc(PAGE_SIZE)

    def test_free_alone_does_not_return_frames(self):
        # like a real malloc: freed memory stays with the allocator
        pm = PhysicalMemory(MIB)
        alloc = SystemAllocator(pm)
        a = alloc.malloc(PAGE_SIZE)
        alloc.free(a)
        assert pm.used_frames == 1


class TestWorkloads:
    def test_paper_stress_shape_small(self):
        """Scaled-down version of the 977K x 1 KiB stress workload."""
        alloc = SystemAllocator()
        ids = [alloc.malloc(KIB) for _ in range(4096)]
        assert alloc.live_allocations == 4096
        assert alloc.page_count == 1024
        assert alloc.used_bytes == 4096 * KIB
        for i in ids:
            alloc.free(i)
        assert alloc.used_bytes == 0

    def test_mixed_small_large(self):
        alloc = SystemAllocator()
        ids = []
        for i in range(100):
            size = 5 * PAGE_SIZE if i % 10 == 0 else 64
            ids.append(alloc.malloc(size))
        for i in ids:
            alloc.free(i)
        assert alloc.live_allocations == 0
