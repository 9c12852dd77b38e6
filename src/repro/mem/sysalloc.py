"""The "system allocator" baseline from section 5 of the paper.

The paper times its SMA against the system allocator over the same
977 K x 1 KiB allocation workload and reports 1.22x-1.44x. Our baseline
is the identical textbook core (:class:`~repro.mem.placer.PagePlacer`)
with *none* of the soft machinery: no SDS contexts, no budget ledger, no
daemon round-trips, no reclamation protocol. The measured ratio between
:class:`SystemAllocator` and the SMA therefore isolates exactly the cost
the paper attributes to soft memory.
"""

from __future__ import annotations

import itertools

from repro.mem.errors import OutOfMemoryError
from repro.mem.page import Page
from repro.mem.physical import PhysicalMemory
from repro.mem.placer import PagePlacer, Pages

_alloc_ids = itertools.count(1)


class SystemAllocator:
    """malloc/free over the shared textbook core.

    ``physical`` bounds the allocator to a machine's frame pool; pass
    ``None`` for an unbounded allocator (pure-speed benchmarking).
    """

    def __init__(
        self,
        physical: PhysicalMemory | None = None,
        placer: PagePlacer | None = None,
    ) -> None:
        self._physical = physical
        self._placer = placer if placer is not None else PagePlacer(
            owner="sysalloc"
        )
        #: alloc id -> (page, offset, size), what the placer frees by
        self._live: dict[int, tuple[Pages, int, int]] = {}
        self.total_allocs = 0
        self.total_frees = 0

    def malloc(self, size: int) -> int:
        """Allocate ``size`` bytes; return an allocation id.

        Raises :class:`~repro.mem.errors.OutOfMemoryError` when bounded
        and the machine is out of frames — the failure mode soft memory
        exists to avoid.
        """
        placed = self._placer.place(size)
        if placed is None:
            self._grow(self._placer.pages_needed(size))
            placed = self._placer.place(size)
            assert placed is not None, "grow did not make room"
        alloc_id = next(_alloc_ids)
        self._live[alloc_id] = (*placed, size)
        self.total_allocs += 1
        return alloc_id

    def free(self, alloc_id: int) -> None:
        """Free a live allocation by id."""
        try:
            page, offset, size = self._live.pop(alloc_id)
        except KeyError:
            raise ValueError(f"unknown or double-freed id {alloc_id}") from None
        self._placer.free(page, offset, size)
        self.total_frees += 1

    def _grow(self, pages: int) -> None:
        for _ in range(pages):
            if self._physical is not None:
                if not self._physical.can_allocate(1):
                    raise OutOfMemoryError(1, self._physical.free_frames)
                self._physical.allocate_frames(1)
            self._placer.add_page(Page())

    @property
    def live_allocations(self) -> int:
        return len(self._live)

    @property
    def page_count(self) -> int:
        return self._placer.page_count

    @property
    def used_bytes(self) -> int:
        return self._placer.used_bytes
