"""Tests for virtual address spaces and re-backing."""

import pytest

from repro.mem.errors import FrameLeakError, OutOfMemoryError
from repro.mem.physical import PhysicalMemory
from repro.mem.virtual import VirtualAddressSpace
from repro.util.units import MIB, PAGE_SIZE


@pytest.fixture
def physical():
    return PhysicalMemory(MIB)


class TestMapping:
    def test_map_consumes_frames(self, physical):
        vas = VirtualAddressSpace(physical, name="p")
        pages = vas.map_pages(4)
        assert len(pages) == 4
        assert all(p.backed for p in pages)
        assert physical.used_frames == 4

    def test_map_zero(self, physical):
        vas = VirtualAddressSpace(physical)
        assert vas.map_pages(0) == []

    def test_map_beyond_physical_raises(self, physical):
        vas = VirtualAddressSpace(physical)
        with pytest.raises(OutOfMemoryError):
            vas.map_pages(physical.total_frames + 1)

    def test_negative_rejected(self, physical):
        vas = VirtualAddressSpace(physical)
        with pytest.raises(ValueError):
            vas.map_pages(-1)


class TestReleaseAndReback:
    def test_release_returns_frames_keeps_virtual(self, physical):
        vas = VirtualAddressSpace(physical)
        pages = vas.map_pages(4)
        vas.release(pages[:2])
        assert physical.used_frames == 2
        assert vas.unbacked_pages == 2  # address space did not shrink

    def test_released_pages_marked_unbacked(self, physical):
        vas = VirtualAddressSpace(physical)
        pages = vas.map_pages(1)
        vas.release(pages)
        assert not pages[0].backed

    def test_map_rebacks_released_pages_first(self, physical):
        # Section 4: released virtual pages are re-backed before the
        # heap extends the address space.
        vas = VirtualAddressSpace(physical)
        pages = vas.map_pages(3)
        vas.release(pages)
        new_pages = vas.map_pages(2)
        assert set(new_pages) <= set(pages)  # reused, not new
        assert vas.unbacked_pages == 1

    def test_map_grows_after_rebacking_exhausted(self, physical):
        vas = VirtualAddressSpace(physical)
        pages = vas.map_pages(1)
        vas.release(pages)
        new_pages = vas.map_pages(3)
        assert pages[0] in new_pages
        assert len(set(new_pages)) == 3
        assert vas.unbacked_pages == 0

    def test_release_unmapped_page_rejected(self, physical):
        vas1 = VirtualAddressSpace(physical)
        vas2 = VirtualAddressSpace(physical)
        pages = vas1.map_pages(1)
        with pytest.raises(FrameLeakError):
            vas2.release(pages)

    def test_double_release_rejected(self, physical):
        vas = VirtualAddressSpace(physical)
        pages = vas.map_pages(1)
        vas.release(pages)
        with pytest.raises(FrameLeakError):
            vas.release(pages)

    def test_release_any(self, physical):
        vas = VirtualAddressSpace(physical)
        vas.map_pages(5)
        released = vas.release_any(3)
        assert released == 3
        assert physical.used_frames == 2

    def test_release_any_caps_at_backed(self, physical):
        vas = VirtualAddressSpace(physical)
        vas.map_pages(2)
        assert vas.release_any(10) == 2


class TestDestroy:
    def test_destroy_frees_everything(self, physical):
        vas = VirtualAddressSpace(physical)
        pages = vas.map_pages(8)
        vas.release(pages[:3])
        vas.destroy()
        assert physical.used_frames == 0
        assert vas.unbacked_pages == 0

    def test_shared_pool_isolation(self, physical):
        a = VirtualAddressSpace(physical, name="a")
        b = VirtualAddressSpace(physical, name="b")
        a.map_pages(5)
        b.map_pages(7)
        a.destroy()
        assert physical.used_frames == 7
