"""Per-process virtual pages with backed/unbacked state.

The paper's prototype, "when the memory allocator releases pages back to
the operating system upon a reclamation demand, tracks the released
virtual pages to re-back them with physical pages before extending the
heap" (section 4). This module models exactly that: a virtual page stays
part of the address space after release; its physical frame is gone until
the next :meth:`VirtualAddressSpace.map_pages` re-backs it, before any
new virtual page is minted.
"""

from __future__ import annotations

import itertools

from repro.mem.errors import FrameLeakError
from repro.mem.physical import PhysicalMemory

_vpage_ids = itertools.count(1)


class VirtualPage:
    """One virtual page; ``backed`` tells whether a frame stands behind it."""

    __slots__ = ("vpn", "backed")

    def __init__(self) -> None:
        self.vpn: int = next(_vpage_ids)
        self.backed = True

    def __repr__(self) -> str:
        state = "backed" if self.backed else "unbacked"
        return f"<VirtualPage {self.vpn} {state}>"


class VirtualAddressSpace:
    """Tracks a process's virtual pages against a shared physical pool."""

    def __init__(self, physical: PhysicalMemory, name: str = "") -> None:
        self._physical = physical
        self.name = name
        self._backed: set[VirtualPage] = set()
        self._unbacked: list[VirtualPage] = []

    def __repr__(self) -> str:
        return (
            f"<VirtualAddressSpace {self.name!r} "
            f"backed={len(self._backed)} unbacked={len(self._unbacked)}>"
        )

    @property
    def unbacked_pages(self) -> int:
        """Released virtual pages awaiting re-backing."""
        return len(self._unbacked)

    def map_pages(self, count: int) -> list[VirtualPage]:
        """Extend the address space by ``count`` freshly backed pages.

        Re-backs released virtual pages first — the prototype's rule —
        so the virtual footprint only grows when no released pages remain.
        Raises :class:`~repro.mem.errors.OutOfMemoryError` if the machine
        cannot supply the frames.
        """
        if count < 0:
            raise ValueError(f"page count must be non-negative: {count}")
        self._physical.allocate_frames(count)
        pages: list[VirtualPage] = []
        while self._unbacked and len(pages) < count:
            vpage = self._unbacked.pop()
            vpage.backed = True
            pages.append(vpage)
        for _ in range(count - len(pages)):
            pages.append(VirtualPage())
        self._backed.update(pages)
        return pages

    def release(self, pages: list[VirtualPage]) -> None:
        """Return the frames behind ``pages`` to the machine (munmap-like).

        The virtual pages remain tracked as unbacked so a later heap
        extension re-backs them instead of growing the address space.
        """
        for vpage in pages:
            if vpage not in self._backed:
                raise FrameLeakError(
                    f"virtual page {vpage.vpn} not backed in {self.name!r}"
                )
        for vpage in pages:
            self._backed.remove(vpage)
            vpage.backed = False
            self._unbacked.append(vpage)
        self._physical.release_frames(len(pages))

    def release_any(self, count: int) -> int:
        """Release ``count`` arbitrary backed pages; return how many.

        Convenience for callers that track pages themselves and only need
        the frame accounting (the SMA releases *whichever* pages went
        fully free, and identity does not matter to the machine).
        """
        count = min(count, len(self._backed))
        if count > 0:
            victims = []
            for vpage in self._backed:
                victims.append(vpage)
                if len(victims) == count:
                    break
            self.release(victims)
        return count

    def destroy(self) -> None:
        """Tear down the address space, returning all frames (process exit)."""
        self._physical.release_frames(len(self._backed))
        self._backed.clear()
        self._unbacked.clear()
