"""SoftReference: managed-language-style references over soft memory.

Section 7 ("Language Integration"): "soft-memory-like abstractions
already exist in some managed languages, e.g., in the form of Java's
WeakReference." This module provides that shape over our runtime:

* a :class:`SoftReference` answers ``get() -> value | None`` and never
  raises — the idiom for code that treats reclamation as a cache miss;
* an optional :class:`ReferenceQueue` receives every reference whose
  referent was *reclaimed* (not explicitly freed), so applications can
  react asynchronously — re-fetch, tag for recomputation, update an
  index — exactly the reaction channel Java's reference queues give
  garbage-collected caches.

The registry is the "runtime that keeps track of these pointers" the
paper sketches as the fix for dangling pointers in unmanaged code.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.core.pointer import SoftPtr


class ReferenceQueue:
    """FIFO of references cleared by reclamation."""

    def __init__(self) -> None:
        self._queue: deque[SoftReference] = deque()

    def _enqueue(self, ref: "SoftReference") -> None:
        self._queue.append(ref)

    def poll(self) -> "SoftReference | None":
        """Next cleared reference, or ``None`` when the queue is empty."""
        return self._queue.popleft() if self._queue else None

    def drain(self) -> list["SoftReference"]:
        """All currently queued references."""
        out = list(self._queue)
        self._queue.clear()
        return out

    def __len__(self) -> int:
        return len(self._queue)


class SoftReference:
    """Non-raising handle to a soft allocation.

    ``tag`` is free-form application context (a cache key, a URL, a
    recompute closure) carried to the reference queue.
    """

    __slots__ = ("_ptr", "tag", "_queue", "enqueued")

    def __init__(
        self,
        ptr: SoftPtr,
        queue: ReferenceQueue | None = None,
        tag: Any = None,
    ) -> None:
        self._ptr = ptr
        self.tag = tag
        self._queue = queue
        #: set once the reference has been delivered to its queue
        self.enqueued = False

    def get(self) -> Any | None:
        """The referent's payload, or ``None`` after reclamation/free."""
        return self._ptr.try_deref()

    @property
    def cleared(self) -> bool:
        return not self._ptr.valid

    @property
    def ptr(self) -> SoftPtr:
        return self._ptr

    def _on_reclaimed(self) -> None:
        if self._queue is not None and not self.enqueued:
            self.enqueued = True
            self._queue._enqueue(self)

    def __repr__(self) -> str:
        state = "cleared" if self.cleared else "live"
        return f"<SoftReference {state} tag={self.tag!r}>"


class ReferenceRegistry:
    """Per-SMA table of references, notified on the reclamation path."""

    def __init__(self) -> None:
        #: allocation handle -> its references; keyed by the handle
        #: itself, so no path here reads ``alloc_id``
        self._refs: dict[SoftPtr, list[SoftReference]] = {}

    def create(
        self,
        ptr: SoftPtr,
        queue: ReferenceQueue | None = None,
        tag: Any = None,
    ) -> SoftReference:
        """Make a tracked reference to a live allocation."""
        if not ptr.valid:
            raise ValueError("cannot reference a reclaimed allocation")
        ref = SoftReference(ptr, queue=queue, tag=tag)
        self._refs.setdefault(ptr, []).append(ref)
        return ref

    def notify_reclaimed(self, ptr: SoftPtr) -> None:
        """Deliver all of an allocation's references to their queues."""
        for ref in self._refs.pop(ptr, []):
            ref._on_reclaimed()

    def forget(self, ptr: SoftPtr) -> None:
        """Drop tracking on an explicit free (no queue delivery)."""
        self._refs.pop(ptr, None)

    @property
    def tracked_count(self) -> int:
        return sum(len(v) for v in self._refs.values())
