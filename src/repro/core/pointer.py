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
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any

from repro.core.errors import ReclaimedMemoryError
from repro.mem.placer import Placement

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.context import SdsContext

_alloc_ids = itertools.count(1)


class Allocation:
    """One live soft allocation: placement + payload + lifecycle state.

    ``alloc_id`` is a global monotone stamp (a later ``soft_malloc``
    compares greater; a resize keeps the id). ``pins`` counts active
    :class:`DerefScope` holds. ``payload`` stands in for the allocation's
    contents (the C++ prototype would hand back raw bytes; the Python
    model carries an object).
    """

    __slots__ = (
        "alloc_id",
        "size",
        "placement",
        "context",
        "payload",
        "pins",
        "valid",
        "group_id",
    )

    def __init__(
        self,
        size: int,
        placement: Placement,
        context: "SdsContext",
        payload: Any,
    ) -> None:
        self.alloc_id: int = next(_alloc_ids)
        self.size = size
        #: ``None`` only while a resize holds the allocation unplaced
        self.placement: Placement | None = placement
        self.context = context
        self.payload = payload
        self.pins = 0
        self.valid = True
        self.group_id: int | None = None

    @property
    def pinned(self) -> bool:
        return self.pins > 0

    def __repr__(self) -> str:
        state = "live" if self.valid else "reclaimed"
        return f"<Allocation {self.alloc_id} {self.size}B {state}>"


class SoftPtr:
    """Handle to a soft allocation.

    The only way application code reaches soft memory. ``deref`` returns
    the payload while the allocation is live and raises after reclamation;
    use a :class:`DerefScope` to hold the payload across operations that
    might trigger reclamation.
    """

    #: ``allocation`` is the SMA / SDS layers' accessor; a slot, not a
    #: property, because ``SoftDict.get`` reads it on every probe
    __slots__ = ("allocation",)

    def __init__(self, alloc: Allocation) -> None:
        self.allocation = alloc

    @property
    def valid(self) -> bool:
        """True while the allocation has not been reclaimed or freed."""
        return self.allocation.valid

    @property
    def alloc_id(self) -> int:
        return self.allocation.alloc_id

    @property
    def size(self) -> int:
        return self.allocation.size

    def deref(self) -> Any:
        """Return the payload, or raise if the memory was reclaimed."""
        if not self.allocation.valid:
            raise ReclaimedMemoryError(self.allocation.alloc_id)
        return self.allocation.payload

    def store(self, payload: Any) -> None:
        """Overwrite the payload in place (a write through the pointer)."""
        if not self.allocation.valid:
            raise ReclaimedMemoryError(self.allocation.alloc_id)
        self.allocation.payload = payload

    def try_deref(self) -> Any | None:
        """Payload if live, ``None`` if reclaimed — the cache-lookup idiom."""
        return self.allocation.payload if self.allocation.valid else None

    def __repr__(self) -> str:
        return f"<SoftPtr -> {self.allocation!r}>"


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
        pinned: list[Allocation] = []
        try:
            for ptr in self._ptrs:
                values.append(ptr.deref())
                ptr.allocation.pins += 1
                pinned.append(ptr.allocation)
        except ReclaimedMemoryError:
            for alloc in pinned:
                alloc.pins -= 1
            raise
        self._entered = True
        return tuple(values)

    def __exit__(self, *exc_info: object) -> None:
        if self._entered:
            for ptr in self._ptrs:
                ptr.allocation.pins -= 1
            self._entered = False
