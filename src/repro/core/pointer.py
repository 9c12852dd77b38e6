"""Soft pointers and dereference scopes.

Section 7 of the paper identifies two open problems — finding all
pointers into a reclaimed allocation, and racing reclamation against
concurrent access — and sketches the fixes we implement here:

* every pointer into soft memory is a tracked handle (:class:`SoftPtr`)
  the runtime invalidates on reclamation, so stale dereferences raise
  :class:`~repro.core.errors.ReclaimedMemoryError` instead of touching
  freed memory;
* accesses are wrapped in AIFM-style :class:`DerefScope` blocks that pin
  the allocation, making the SMA's reclamation skip it while any scope
  is active.

A :class:`SoftPtr` *is* its allocation, as the prototype's one-word
pointer is one header: placement, payload and lifecycle state live in
the handle's own slots, so a live allocation costs one object.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any

from repro.core.errors import ReclaimedMemoryError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.context import SdsContext
    from repro.mem.page import Page

_alloc_ids = itertools.count(1)


class SoftPtr:
    """Handle to — and header of — one soft allocation.

    The only way application code reaches soft memory. ``deref`` returns
    the payload while the allocation is live and raises after reclamation;
    use a :class:`DerefScope` to hold the payload across operations that
    might trigger reclamation.

    ``alloc_id`` is a global monotone stamp, taken when the id is
    first read (ids are unique, and of two handles the one read first
    compares less; a resize keeps the id), so an allocation nobody asks
    about holds no int of its own. ``page`` and ``offset``
    say where the allocation lies: ``[offset, offset+size)`` of one
    :class:`~repro.mem.page.Page`, or, when ``size`` is over a page, a
    tuple of pages it owns outright (``offset`` 0). ``page`` is ``None``
    only while a resize holds the allocation unplaced. ``pins`` counts
    active :class:`DerefScope` holds. ``payload`` stands in for the
    allocation's contents (the C++ prototype would hand back raw bytes;
    the Python model carries an object). Everything but ``payload`` is
    the SMA's to write.
    """

    #: slots, not properties, because ``SoftDict.get`` reads them on
    #: every probe
    __slots__ = (
        "_alloc_id",
        "size",
        "page",
        "offset",
        "context",
        "payload",
        "pins",
        "valid",
        "group_id",
    )

    def __init__(
        self,
        size: int,
        page: Page | tuple[Page, ...],
        offset: int,
        context: "SdsContext",
        payload: Any,
    ) -> None:
        #: 0 until :attr:`alloc_id` is first read
        self._alloc_id = 0
        self.size = size
        self.page: Page | tuple[Page, ...] | None = page
        self.offset = offset
        self.context = context
        self.payload = payload
        self.pins = 0
        #: True while the allocation has not been reclaimed or freed
        self.valid = True
        self.group_id: int | None = None

    @property
    def alloc_id(self) -> int:
        """This allocation's id, stamped from the global counter on the
        first read."""
        if not self._alloc_id:
            self._alloc_id = next(_alloc_ids)
        return self._alloc_id

    @property
    def pinned(self) -> bool:
        return self.pins > 0

    def deref(self) -> Any:
        """Return the payload, or raise if the memory was reclaimed."""
        if not self.valid:
            raise ReclaimedMemoryError(self.alloc_id)
        return self.payload

    def store(self, payload: Any) -> None:
        """Overwrite the payload in place (a write through the pointer)."""
        if not self.valid:
            raise ReclaimedMemoryError(self.alloc_id)
        self.payload = payload

    def try_deref(self) -> Any | None:
        """Payload if live, ``None`` if reclaimed — the cache-lookup idiom."""
        return self.payload if self.valid else None

    def __repr__(self) -> str:
        state = "live" if self.valid else "reclaimed"
        return f"<SoftPtr {self.alloc_id} {self.size}B {state}>"


class DerefScope:
    """Pin one or more soft allocations for the duration of a block.

    While the scope is active the SMA's reclamation passes over the
    pinned allocations (they are "in use"); reclamation falls to other
    victims. Mirrors AIFM's dereference scopes, which the paper names as
    the likely concurrency answer.

    >>> # with DerefScope(ptr) as (value,):
    >>> #     consume(value)
    """

    def __init__(self, *ptrs: SoftPtr) -> None:
        self._ptrs = ptrs
        self._entered = False

    def __enter__(self) -> tuple[Any, ...]:
        values = []
        pinned: list[SoftPtr] = []
        try:
            for ptr in self._ptrs:
                values.append(ptr.deref())
                ptr.pins += 1
                pinned.append(ptr)
        except ReclaimedMemoryError:
            for ptr in pinned:
                ptr.pins -= 1
            raise
        self._entered = True
        return tuple(values)

    def __exit__(self, *exc_info: object) -> None:
        if self._entered:
            for ptr in self._ptrs:
                ptr.pins -= 1
            self._entered = False
