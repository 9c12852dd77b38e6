"""SoftArray: a single contiguous soft block.

"Our soft array gives up all of its soft memory upon a reclamation
demand because an array is a single, contiguous memory block."
(section 3.2). After reclamation the array is *invalid*; callers either
check :attr:`valid` or call :meth:`rebuild` to allocate a fresh (empty)
block — the cache-rebuild idiom.
"""

from __future__ import annotations

from typing import Any

from repro.core.context import ReclaimCallback
from repro.core.errors import ReclaimedMemoryError
from repro.core.pointer import SoftPtr
from repro.core.sma import SoftMemoryAllocator
from repro.sds.base import SoftDataStructure


class SoftArray(SoftDataStructure):
    """Fixed-length array of ``length`` slots, ``slot_size`` bytes each."""

    def __init__(
        self,
        sma: SoftMemoryAllocator,
        length: int,
        slot_size: int = 8,
        name: str = "soft-array",
        priority: int = 0,
        callback: ReclaimCallback | None = None,
    ) -> None:
        super().__init__(sma, name, priority, callback)
        if length <= 0:
            raise ValueError(f"length must be positive: {length}")
        if slot_size <= 0:
            raise ValueError(f"slot_size must be positive: {slot_size}")
        self.length = length
        self.slot_size = slot_size
        self._ptr: SoftPtr = self._allocate_block()

    def _allocate_block(self) -> SoftPtr:
        slots: list[Any] = [None] * self.length
        return self._alloc(self.length * self.slot_size, slots)

    # -- array API --------------------------------------------------------

    @property
    def valid(self) -> bool:
        """False once reclamation took the backing block."""
        return self._ptr.valid

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, index: int) -> Any:
        """Read a slot; raises ReclaimedMemoryError after reclamation."""
        return self._slots()[self._check_index(index)]

    def __setitem__(self, index: int, value: Any) -> None:
        self._slots()[self._check_index(index)] = value

    def get(self, index: int, default: Any = None) -> Any:
        """Read a slot, returning ``default`` if the array was reclaimed."""
        try:
            return self[index]
        except ReclaimedMemoryError:
            return default

    def fill(self, value: Any) -> None:
        slots = self._slots()
        for i in range(self.length):
            slots[i] = value

    def rebuild(self) -> None:
        """Allocate a fresh (zeroed) block after reclamation.

        No-op while the array is still valid.
        """
        if not self._ptr.valid:
            self._ptr = self._allocate_block()

    def _slots(self) -> list[Any]:
        return self._ptr.deref()

    def _check_index(self, index: int) -> int:
        if index < 0:
            index += self.length
        if not 0 <= index < self.length:
            raise IndexError(
                f"index {index} out of range for length {self.length}"
            )
        return index

    # -- reclaim policy: everything at once --------------------------------

    def evict_one(self) -> bool:
        if not self._ptr.valid or self._ptr.pinned:
            return False
        self._reclaim_ptr(self._ptr)
        return True

    def __repr__(self) -> str:
        state = "valid" if self.valid else "reclaimed"
        return f"<SoftArray {self.name!r} len={self.length} {state}>"
