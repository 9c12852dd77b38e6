"""SoftLinkedList: the paper's flagship SDS (Listing 1).

A doubly linked list whose element storage is soft. Node objects (the
links) are traditional memory; each element's contents are one soft
allocation. Under reclamation the list "prioritizes newer entries over
older entries when giving up list elements" — victims go oldest to
newest, skipping pinned elements.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.core.context import ReclaimCallback
from repro.core.pointer import SoftPtr
from repro.core.sma import SoftMemoryAllocator
from repro.sds.base import SoftDataStructure


class _Node:
    __slots__ = ("ptr", "prev", "next")

    def __init__(self, ptr: SoftPtr) -> None:
        self.ptr = ptr
        self.prev: _Node | None = None
        self.next: _Node | None = None


class SoftLinkedList(SoftDataStructure):
    """Doubly linked list of soft elements.

    ``element_size`` is the soft bytes charged per element (the paper's
    example uses 2 KiB elements, two to a page); pass ``size=`` on
    :meth:`append` to override per element.
    """

    def __init__(
        self,
        sma: SoftMemoryAllocator,
        name: str = "soft-list",
        priority: int = 0,
        callback: ReclaimCallback | None = None,
        element_size: int = 64,
    ) -> None:
        super().__init__(sma, name, priority, callback)
        if element_size <= 0:
            raise ValueError(f"element_size must be positive: {element_size}")
        self._element_size = element_size
        self._head: _Node | None = None  # oldest
        self._tail: _Node | None = None  # newest
        self._length = 0

    # -- list API -------------------------------------------------------

    def append(self, value: Any, size: int | None = None) -> SoftPtr:
        """Add ``value`` at the tail; returns its soft pointer."""
        ptr = self._alloc(size or self._element_size, value)
        node = _Node(ptr)
        if self._tail is None:
            self._head = self._tail = node
        else:
            node.prev = self._tail
            self._tail.next = node
            self._tail = node
        self._length += 1
        return ptr

    def pop_front(self) -> Any:
        """Remove and return the oldest element's value."""
        node = self._head
        if node is None:
            raise IndexError("pop from empty SoftLinkedList")
        value = node.ptr.deref()
        self._unlink(node)
        self._free(node.ptr)
        return value

    def pop_back(self) -> Any:
        """Remove and return the newest element's value."""
        node = self._tail
        if node is None:
            raise IndexError("pop from empty SoftLinkedList")
        value = node.ptr.deref()
        self._unlink(node)
        self._free(node.ptr)
        return value

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[Any]:
        """Values oldest to newest."""
        node = self._head
        while node is not None:
            yield node.ptr.deref()
            node = node.next

    def __bool__(self) -> bool:
        return self._length > 0

    def _unlink(self, node: _Node) -> None:
        if node.prev is not None:
            node.prev.next = node.next
        else:
            self._head = node.next
        if node.next is not None:
            node.next.prev = node.prev
        else:
            self._tail = node.prev
        node.prev = node.next = None
        self._length -= 1

    # -- reclaim policy: oldest first ------------------------------------

    def evict_one(self) -> bool:
        node = self._head
        while node is not None:
            if not node.ptr.pinned:
                self._unlink(node)
                self._reclaim_ptr(node.ptr)
                return True
            node = node.next
        return False

    def __repr__(self) -> str:
        return (
            f"<SoftLinkedList {self.name!r} len={self._length} "
            f"prio={self.priority}>"
        )
