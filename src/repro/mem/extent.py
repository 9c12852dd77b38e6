"""Free-extent map: the textbook allocator core.

Both the per-SDS heaps of the Soft Memory Allocator and the
:class:`~repro.mem.sysalloc.SystemAllocator` baseline place allocations
inside pages with this structure, so the paper's SMA-vs-system-allocator
comparison isolates exactly the *soft machinery* overhead (contexts,
budgets, daemon traffic) rather than differences in fit policy.

The paper describes its prototype as "a simple textbook memory allocator
without optimizations"; we match that: first-fit over an address-ordered
free list with eager coalescing.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.util.units import PAGE_SIZE

#: every offset inside a page, one int object each. A free list holds
#: only these, so the offsets ``allocate`` hands out are shared by all
#: the handles of a heap instead of each holding its own int (CPython's
#: small-int cache, extended to a page)
_OFFSETS = tuple(range(PAGE_SIZE + 1))


class ExtentMap:
    """Byte-granularity free-space tracking over a region of ``capacity``
    bytes, at most one page.

    Free space is a sorted list of non-overlapping, non-adjacent
    ``(offset, length)`` extents. ``allocate`` is first-fit; ``free``
    coalesces with both neighbours.
    """

    __slots__ = ("capacity", "_free", "free_bytes")

    def __init__(self, capacity: int) -> None:
        if not 0 < capacity <= PAGE_SIZE:
            raise ValueError(
                f"capacity must be in [1, {PAGE_SIZE}], got {capacity}"
            )
        self.capacity = capacity
        #: address-ordered (offset, length) free extents
        self._free: list[tuple[int, int]] = [(0, capacity)]
        self.free_bytes = capacity

    def allocate(self, size: int) -> int | None:
        """Reserve ``size`` bytes; return the offset or ``None`` if no fit."""
        if size <= 0:
            raise ValueError(f"allocation size must be positive, got {size}")
        free = self._free
        for i, (offset, length) in enumerate(free):
            if length >= size:
                if length == size:
                    free.pop(i)
                else:
                    free[i] = (_OFFSETS[offset + size], length - size)
                self.free_bytes -= size
                return offset
        return None

    def free(self, offset: int, size: int) -> None:
        """Return the extent ``[offset, offset+size)`` to the free list."""
        if size <= 0:
            raise ValueError(f"free size must be positive, got {size}")
        end = offset + size
        if offset < 0 or end > self.capacity:
            raise ValueError(
                f"extent [{offset}, {end}) outside region "
                f"of capacity {self.capacity}"
            )
        free = self._free
        i = bisect_left(free, (offset, 0))
        # Overlap checks against the neighbours on either side (-1: no
        # neighbour there — no extent starts or ends below zero).
        nxt_off = nxt_len = prev_off = prev_len = -1
        if i < len(free):
            nxt_off, nxt_len = free[i]
            if end > nxt_off:
                raise ValueError(
                    f"double free: [{offset}, {end}) overlaps "
                    f"free extent at {nxt_off}"
                )
        if i > 0:
            prev_off, prev_len = free[i - 1]
            if prev_off + prev_len > offset:
                raise ValueError(
                    f"double free: [{offset}, {end}) overlaps "
                    f"free extent [{prev_off}, {prev_off + prev_len})"
                )
        # Coalesce with whichever neighbours touch; ``i`` is already
        # where the extent belongs, so nothing is searched for twice.
        if prev_off + prev_len == offset:
            if nxt_off == end:
                free[i - 1] = (prev_off, prev_len + size + nxt_len)
                del free[i]
            else:
                free[i - 1] = (prev_off, prev_len + size)
        elif nxt_off == end:
            free[i] = (_OFFSETS[offset], size + nxt_len)
        else:
            free.insert(i, (_OFFSETS[offset], size))
        self.free_bytes += size

    def extend(self, end: int, size: int) -> bool:
        """Reserve ``[end, end+size)`` if a long enough free extent starts
        at ``end`` — an in-place grow: one bisect, no walk."""
        free = self._free
        i = bisect_left(free, (end, 0))
        offset, length = free[i] if i < len(free) else (end, 0)
        if offset != end or length < size:
            return False
        if length == size:
            del free[i]
        else:
            free[i] = (_OFFSETS[end + size], length - size)
        self.free_bytes -= size
        return True

    @property
    def used_bytes(self) -> int:
        return self.capacity - self.free_bytes

    def largest_free_extent(self) -> int:
        """Length of the largest single free extent (0 when full)."""
        if not self._free:
            return 0
        return max(length for _, length in self._free)

    def fragmentation(self) -> float:
        """1 - largest_free/total_free; 0 when free space is contiguous."""
        if self.free_bytes == 0:
            return 0.0
        return 1.0 - self.largest_free_extent() / self.free_bytes

    def extents(self) -> list[tuple[int, int]]:
        """Snapshot of the free list (for tests and diagnostics)."""
        return list(self._free)

    def check_invariants(self) -> None:
        """Raise AssertionError if the free list is malformed."""
        total = 0
        prev_end = -1
        for offset, length in self._free:
            assert length > 0, "zero-length extent"
            assert offset > prev_end, (
                "unsorted, overlapping, or uncoalesced extents"
            )
            assert offset + length <= self.capacity, "extent out of bounds"
            total += length
            prev_end = offset + length
        assert total == self.free_bytes, "free_bytes out of sync"
