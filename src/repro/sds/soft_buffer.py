"""SoftBuffer: actual bytes in soft memory.

The other SDSs carry Python objects as stand-ins for content; this one
holds real bytes, making "the content is dropped" literal. It is an
append-only, segmented byte log — the shape of scratch space, spill
buffers, and request/response staging areas (§1's "temporary request
queues").

Layout: fixed-size segments, each one soft allocation whose payload is
a ``bytearray``. Reads address absolute offsets; a read overlapping a
reclaimed segment raises (or returns ``None`` via :meth:`try_read`) —
the data is *gone*, not swapped out. Reclamation drops the **oldest**
segments first, like a log rotating away under pressure; the callback
receives ``(segment_index, bytes)`` so the application can archive the
content elsewhere first.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.context import ReclaimCallback
from repro.core.errors import ReclaimedMemoryError
from repro.core.pointer import DerefScope, SoftPtr
from repro.core.sma import SoftMemoryAllocator
from repro.sds.base import SoftDataStructure
from repro.util.units import PAGE_SIZE


class SoftBuffer(SoftDataStructure):
    """Append-only byte buffer with soft segment storage."""

    def __init__(
        self,
        sma: SoftMemoryAllocator,
        name: str = "soft-buffer",
        priority: int = 0,
        callback: ReclaimCallback | None = None,
        segment_size: int = PAGE_SIZE,
    ) -> None:
        if segment_size <= 0:
            raise ValueError(f"segment_size must be positive: {segment_size}")
        super().__init__(sma, name, priority, callback)
        self.segment_size = segment_size
        #: segment index -> pointer (present only while live)
        self._segments: dict[int, SoftPtr] = {}
        #: total bytes ever written (the append cursor)
        self._length = 0

    # -- writing ------------------------------------------------------------

    def write(self, data: bytes) -> int:
        """Append ``data``; returns the absolute offset it starts at.

        If the *tail* segment was reclaimed, the append skips to the
        next segment boundary: the lost bytes must keep reading as
        reclaimed, never silently reappear as zeroes.
        """
        remaining = memoryview(data)
        if len(remaining):
            seg_index, seg_offset = divmod(self._length, self.segment_size)
            if seg_offset > 0 and not self._segment_alive(seg_index):
                self._length = (seg_index + 1) * self.segment_size
        start = self._length
        while len(remaining):
            seg_index, seg_offset = divmod(self._length, self.segment_size)
            segment = self._segment_for_write(seg_index)
            room = self.segment_size - seg_offset
            chunk = remaining[:room]
            segment[seg_offset:seg_offset + len(chunk)] = chunk
            self._length += len(chunk)
            remaining = remaining[len(chunk):]
        return start

    def _segment_alive(self, seg_index: int) -> bool:
        ptr = self._segments.get(seg_index)
        return ptr is not None and ptr.valid

    def _segment_for_write(self, seg_index: int) -> bytearray:
        ptr = self._segments.get(seg_index)
        if ptr is not None and ptr.valid:
            __, payload = ptr.deref()
            return payload
        # a brand-new tail segment (write() guarantees we only land
        # here at a segment boundary, so no lost bytes get shadowed)
        payload = bytearray(self.segment_size)
        ptr = self._alloc(self.segment_size, (seg_index, payload))
        self._segments[seg_index] = ptr
        return payload

    # -- reading ------------------------------------------------------------

    def read(self, offset: int, length: int) -> bytes:
        """Bytes at ``[offset, offset+length)``.

        Raises :class:`ReclaimedMemoryError` if any byte in the range
        was reclaimed, ``ValueError`` if the range was never written.
        """
        if offset < 0 or length < 0:
            raise ValueError("offset and length must be non-negative")
        if offset + length > self._length:
            raise ValueError(
                f"range [{offset}, {offset + length}) beyond "
                f"buffer length {self._length}"
            )
        out = bytearray()
        while length > 0:
            seg_index, seg_offset = divmod(offset, self.segment_size)
            ptr = self._segments.get(seg_index)
            if ptr is None or not ptr.valid:
                raise ReclaimedMemoryError(
                    ptr.alloc_id if ptr is not None else -1
                )
            __, payload = ptr.deref()
            take = min(length, self.segment_size - seg_offset)
            out += payload[seg_offset:seg_offset + take]
            offset += take
            length -= take
        return bytes(out)

    def try_read(self, offset: int, length: int) -> bytes | None:
        """Like :meth:`read` but returns ``None`` for reclaimed ranges."""
        try:
            return self.read(offset, length)
        except ReclaimedMemoryError:
            return None

    def pinned(self, offset: int, length: int) -> "DerefScope":
        """Pin every segment under ``[offset, offset+length)``.

        Use as a context manager; while held, reclamation cannot take
        those segments (the zero-copy access pattern AIFM's dereference
        scopes exist for).
        """
        first = offset // self.segment_size
        last = (offset + max(0, length - 1)) // self.segment_size
        ptrs = []
        for seg_index in range(first, last + 1):
            ptr = self._segments.get(seg_index)
            if ptr is None or not ptr.valid:
                raise ReclaimedMemoryError(
                    ptr.alloc_id if ptr is not None else -1
                )
            ptrs.append(ptr)
        return DerefScope(*ptrs)

    # -- geometry -------------------------------------------------------------

    def __len__(self) -> int:
        """Total bytes ever appended (offsets remain stable forever)."""
        return self._length

    @property
    def live_segments(self) -> int:
        return sum(1 for p in self._segments.values() if p.valid)

    def segments(self) -> Iterator[tuple[int, bool]]:
        """(segment index, alive?) in order."""
        for seg_index in sorted(self._segments):
            yield seg_index, self._segments[seg_index].valid

    # -- reclaim policy: oldest segments first ---------------------------------

    def evict_one(self) -> bool:
        for seg_index in sorted(self._segments):
            ptr = self._segments[seg_index]
            if ptr.valid and not ptr.pinned:
                del self._segments[seg_index]
                self._reclaim_ptr(ptr)
                return True
        return False

    def __repr__(self) -> str:
        return (
            f"<SoftBuffer {self.name!r} len={self._length} "
            f"segments={self.live_segments}>"
        )
