"""Machine-wide physical frame pool.

This is the scarce resource everything competes for. Traditional memory
and soft memory both draw frames from the same pool; the Soft Memory
Daemon's job is to keep allocations succeeding by moving *soft* frames
between processes before the pool runs dry.
"""

from __future__ import annotations

from repro.mem.errors import FrameLeakError, OutOfMemoryError
from repro.util.units import PAGE_SIZE, format_bytes


class PhysicalMemory:
    """Fixed-size pool of page frames with allocation accounting.

    Frames are counted rather than materialized — callers that need a
    page object wrap one of these counts in :class:`~repro.mem.page.Page`.
    A high-water mark is kept so experiments can report peak pressure.
    """

    def __init__(self, total_bytes: int) -> None:
        if total_bytes < PAGE_SIZE:
            raise ValueError(
                f"machine must have at least one page "
                f"({PAGE_SIZE} bytes), got {total_bytes}"
            )
        self.total_frames = total_bytes // PAGE_SIZE
        self.used_frames = 0
        self.peak_frames = 0

    def __repr__(self) -> str:
        return (
            f"<PhysicalMemory {format_bytes(self.used_bytes)}/"
            f"{format_bytes(self.total_bytes)} used>"
        )

    @property
    def total_bytes(self) -> int:
        return self.total_frames * PAGE_SIZE

    @property
    def free_frames(self) -> int:
        return self.total_frames - self.used_frames

    @property
    def free_bytes(self) -> int:
        return self.free_frames * PAGE_SIZE

    @property
    def used_bytes(self) -> int:
        return self.used_frames * PAGE_SIZE

    @property
    def utilization(self) -> float:
        """Fraction of frames currently allocated, in [0, 1]."""
        return self.used_frames / self.total_frames

    def can_allocate(self, frames: int) -> bool:
        return frames <= self.free_frames

    def allocate_frames(self, frames: int) -> None:
        """Take ``frames`` frames or raise :class:`OutOfMemoryError`."""
        if frames < 0:
            raise ValueError(f"frame count must be non-negative: {frames}")
        if frames > self.free_frames:
            raise OutOfMemoryError(frames, self.free_frames)
        self.used_frames += frames
        if self.used_frames > self.peak_frames:
            self.peak_frames = self.used_frames

    def release_frames(self, frames: int) -> None:
        """Return ``frames`` frames to the pool."""
        if frames < 0:
            raise ValueError(f"frame count must be non-negative: {frames}")
        if frames > self.used_frames:
            raise FrameLeakError(
                f"releasing {frames} frames but only "
                f"{self.used_frames} are allocated"
            )
        self.used_frames -= frames
