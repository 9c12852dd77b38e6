"""Tests for the machine frame pool."""

import pytest

from repro.mem.errors import FrameLeakError, OutOfMemoryError
from repro.mem.physical import PhysicalMemory
from repro.util.units import MIB, PAGE_SIZE


class TestPhysicalMemory:
    def test_sizing(self):
        pm = PhysicalMemory(MIB)
        assert pm.total_frames == MIB // PAGE_SIZE
        assert pm.total_bytes == MIB
        assert pm.free_frames == pm.total_frames

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            PhysicalMemory(PAGE_SIZE - 1)

    def test_allocate_and_release(self):
        pm = PhysicalMemory(MIB)
        pm.allocate_frames(10)
        assert pm.used_frames == 10
        assert pm.free_frames == pm.total_frames - 10
        pm.release_frames(10)
        assert pm.used_frames == 0

    def test_oom_raised_with_details(self):
        pm = PhysicalMemory(PAGE_SIZE * 4)
        pm.allocate_frames(3)
        with pytest.raises(OutOfMemoryError) as exc:
            pm.allocate_frames(2)
        assert exc.value.requested_frames == 2
        assert exc.value.free_frames == 1

    def test_oom_is_a_memory_error(self):
        # Callers treating it as malloc failure can catch MemoryError.
        pm = PhysicalMemory(PAGE_SIZE)
        with pytest.raises(MemoryError):
            pm.allocate_frames(2)

    def test_failed_allocation_changes_nothing(self):
        pm = PhysicalMemory(PAGE_SIZE * 2)
        with pytest.raises(OutOfMemoryError):
            pm.allocate_frames(3)
        assert pm.used_frames == 0

    def test_over_release_detected(self):
        pm = PhysicalMemory(MIB)
        pm.allocate_frames(1)
        with pytest.raises(FrameLeakError):
            pm.release_frames(2)

    def test_peak_tracking(self):
        pm = PhysicalMemory(MIB)
        pm.allocate_frames(5)
        pm.release_frames(5)
        pm.allocate_frames(3)
        assert pm.peak_frames == 5

    def test_utilization(self):
        pm = PhysicalMemory(PAGE_SIZE * 4)
        pm.allocate_frames(1)
        assert pm.utilization == 0.25

    def test_can_allocate(self):
        pm = PhysicalMemory(PAGE_SIZE * 2)
        assert pm.can_allocate(2)
        assert not pm.can_allocate(3)

    def test_negative_counts_rejected(self):
        pm = PhysicalMemory(MIB)
        with pytest.raises(ValueError):
            pm.allocate_frames(-1)
        with pytest.raises(ValueError):
            pm.release_frames(-1)
