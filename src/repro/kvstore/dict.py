"""The Redis dict, with its bucket elements in soft memory.

The paper's prototype "modified this hash table to store the elements of
its buckets in soft memory, turning it into an SDS", while keys and
values stayed in traditional memory, deallocated via the reclamation
callback. The bucket index itself never held soft memory.

:class:`SoftDict` reproduces that integration in the shape
:class:`~repro.sds.soft_hash_table.SoftHashTable` has: the index is a
dict from key to the entry's soft pointer, and every entry is one soft
allocation whose payload is a traditional-memory ``(key, value)``
record. Reclamation drops the oldest entries first and the application
callback cleans up the traditional side.

With a :class:`~repro.kvstore.tier.TierConfig` enabled, eviction grows
a middle state: the oldest resident entry *demotes* — its value is
zlib-compressed and the soft allocation relocated at compressed size
via ``SoftMemoryAllocator.soft_demote``, which cannot fail — instead of
dropping. Only a later pressure wave (or the tier watermark) truly
drops compressed entries, firing the usual reclamation callback; a read
in between is served from the stub, and *promotes* the entry back to
residency only where the heap already owns the room.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterator

from repro.core.context import ReclaimCallback
from repro.core.errors import ReclaimedMemoryError
from repro.core.pointer import SoftPtr
from repro.core.sma import SoftMemoryAllocator
from repro.kvstore.tier import (
    WATERMARK_FRAC,
    TierConfig,
    TierStats,
    deflate_value,
    inflate_value,
)
from repro.kvstore.values import CompressedValue
from repro.sds.base import SoftDataStructure


class SoftDict(SoftDataStructure):
    """Mapping from key to one soft entry each, oldest reclaimed first.

    ``entry_size`` is the soft bytes charged per entry when the caller
    does not pass an explicit ``size`` (the store passes key+value+
    overhead). Keys must be ``bytes`` (like Redis keys).
    """

    def __init__(
        self,
        sma: SoftMemoryAllocator,
        name: str = "keyspace",
        priority: int = 0,
        callback: ReclaimCallback | None = None,
        entry_size: int = 80,
        tier: TierConfig | None = None,
    ) -> None:
        super().__init__(sma, name, priority, callback)
        if entry_size <= 0:
            raise ValueError(f"entry_size must be positive: {entry_size}")
        self._entry_size = entry_size
        #: key -> entry pointer: the bucket index, in traditional memory
        self._index: dict[bytes, SoftPtr] = {}
        #: alloc_id -> ptr in insertion (age) order, for oldest-first reclaim
        self._by_age: dict[int, SoftPtr] = {}
        # -- compressed second-chance tier -----------------------------
        self.tier = tier or TierConfig()
        self.tier_stats = TierStats()
        #: alloc_id -> ptr of demoted entries, oldest demotion first
        self._compressed_age: dict[int, SoftPtr] = {}
        #: owner hooks: ledger/durability reactions to tier transitions.
        #: ``on_demoted(key, compressed)`` after a demotion lands,
        #: ``on_promoted(key, value, compressed)`` after a promotion.
        self.on_demoted: Callable[[bytes, CompressedValue], None] | None = None
        self.on_promoted: (
            Callable[[bytes, Any, CompressedValue], None] | None
        ) = None
        #: observability hook: promote-path latency in seconds
        self.observe_promote: Callable[[float], None] | None = None

    # ------------------------------------------------------------------
    # mapping operations
    # ------------------------------------------------------------------

    def put(self, key: bytes, value: Any, size: int | None = None) -> SoftPtr:
        """Insert or overwrite; returns the entry's soft pointer."""
        return self.upsert(key, value, size)[0]

    def upsert(
        self, key: bytes, value: Any, size: int | None = None
    ) -> tuple[SoftPtr, Any | None]:
        """Insert or overwrite; returns ``(ptr, previous value or None)``.

        Overwriting a resident entry goes through its handle: a
        same-size write stores the new payload through the existing
        soft pointer — one pointer write, the way Redis swaps
        ``dictEntry->v`` on SET — and a size-changing write is one
        ``soft_resize``. Either way the index is untouched, the same
        :class:`SoftPtr` is returned, and like a fresh insert the
        overwrite refreshes the entry's age (re-inserting its age-index
        slot), preserving the oldest-first reclamation contract.
        """
        if type(key) is not bytes:
            self._check_key(key)
        want = size or self._entry_size
        existing = self._index.get(key)
        if existing is None:
            old_value: Any | None = None
        else:
            if not existing.valid:  # ``SoftPtr.deref``, inlined
                raise ReclaimedMemoryError(existing.alloc_id)
            old_value = existing.payload[1]
            if type(old_value) is not CompressedValue:
                if existing.size == want:
                    existing.payload = (key, value)
                else:
                    try:
                        self._sma.soft_resize(existing, want, (key, value))
                    except Exception:
                        del self._index[key]
                        del self._by_age[existing.alloc_id]
                        self._overwrite_lost(key, old_value)
                        raise
                by_age = self._by_age  # refresh age: now newest
                del by_age[existing.alloc_id]
                by_age[existing.alloc_id] = existing
                return existing, old_value
            # a demoted entry is never overwritten through its handle —
            # its soft size tracks the compressed bytes, not the incoming
            # value; the free below records it as a tier displacement
            del self._index[key]
            self._free(existing)
        try:
            ptr = self._alloc(want, (key, value))
        except Exception:
            if existing is not None:
                self._overwrite_lost(key, old_value)
            raise
        self._index[key] = ptr
        self._by_age[ptr.alloc_id] = ptr
        return ptr, old_value

    def _overwrite_lost(self, key: bytes, old_value: Any) -> None:
        """A size-changing overwrite freed the old entry and was then
        denied the new one, so the key is lost. Report the loss through
        the reclamation callback so the owner's ledgers (and any
        durability log) record that the key is gone — otherwise memory
        and disk would disagree about its existence."""
        self.evictions += 1
        if self._context.callback is not None:
            try:
                self._context.callback((key, old_value))
            except Exception:
                self._context.callback_errors += 1

    def get(self, key: bytes, default: Any = None) -> Any:
        # every GET lands here, so ``_check_key``, ``_find`` and
        # ``SoftPtr.deref`` are inlined: same probe, same liveness check
        if type(key) is not bytes:
            self._check_key(key)
        ptr = self._index.get(key)
        if ptr is None:
            return default
        if not ptr.valid:
            raise ReclaimedMemoryError(ptr.alloc_id)
        return ptr.payload[1]

    def __contains__(self, key: bytes) -> bool:
        return self._find(key) is not None

    def delete(self, key: bytes) -> bool:
        self._check_key(key)
        ptr = self._find(key)
        if ptr is None:
            return False
        del self._index[key]
        self._free(ptr)  # maintains both age indexes
        return True

    def __len__(self) -> int:
        return len(self._index)

    def keys(self) -> Iterator[bytes]:
        return iter(self._index)

    def items(self) -> Iterator[tuple[bytes, Any]]:
        for ptr in self._index.values():
            yield ptr.deref()

    def clear(self) -> None:
        for ptr in self._index.values():
            self._free(ptr)
        self._index.clear()
        self._by_age.clear()
        self._compressed_age.clear()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    @staticmethod
    def _check_key(key: bytes) -> None:
        if not isinstance(key, bytes):
            raise TypeError(f"keys must be bytes, got {type(key).__name__}")

    def _find(self, key: bytes) -> SoftPtr | None:
        """The key's live entry pointer, or ``None`` when absent."""
        ptr = self._index.get(key)
        if ptr is not None and not ptr.valid:
            raise ReclaimedMemoryError(ptr.alloc_id)
        return ptr

    # ------------------------------------------------------------------
    # reclaim contract: demote-before-drop, oldest entries first
    # ------------------------------------------------------------------

    def evict_one(self) -> bool:
        """Evict by the tier policy; the tier-off path is the paper's.

        Order with the tier enabled: (1) if the compressed tier is over
        its watermark, drop its oldest entry (a second-chance drop);
        (2) demote the oldest resident entry — or drop it outright when
        it does not compress; (3) with no resident victims left, a
        further pressure wave drops the oldest compressed entry.
        """
        tier = self.tier
        if tier.enabled:
            compressed = len(self._compressed_age)
            if compressed > WATERMARK_FRAC * len(self):
                if self._drop_oldest_compressed():
                    return True
        for ptr in self._by_age.values():
            if not ptr.pinned:
                if tier.enabled:
                    self._demote_or_drop(ptr)
                else:
                    self._drop(ptr)
                return True
        # entries recovered in compressed form stay reclaimable even
        # with the tier switched off (no-op unless such entries exist)
        return self._drop_oldest_compressed()

    def _demote_or_drop(self, ptr: SoftPtr) -> None:
        """Demote one resident victim, dropping it if compression fails."""
        key, __ = ptr.deref()
        if not self.demote(key):
            # too small / incompressible: the victim drops like before
            self.tier_stats.incompressible += 1
            self._drop(ptr)

    def _drop(self, ptr: SoftPtr) -> None:
        """Unlink one entry and free it on the reclamation path."""
        key, __ = ptr.deref()
        assert self._index[key] is ptr
        del self._index[key]
        self._by_age.pop(ptr.alloc_id, None)
        self._reclaim_ptr(ptr)

    def demote(self, key: bytes) -> bool:
        """Demote one entry into the compressed tier right now.

        Used by the eviction policy and by recovery replay of demote
        records. Returns ``True`` when the entry ends up (or already
        was) compressed; ``False`` when it stays resident (absent,
        pinned, too small, or incompressible). Never removes an entry:
        once the value compresses, ``soft_demote`` cannot fail.
        """
        ptr = self._find(key)
        if ptr is None:
            return False
        __, value = ptr.deref()
        if type(value) is CompressedValue:
            return True
        if ptr.pinned:
            return False
        compressed = deflate_value(value, self.tier)
        if compressed is None:
            return False
        new_size = ptr.size - compressed.original_bytes + len(compressed.data)
        if not 0 < new_size < ptr.size:
            return False
        self._sma.soft_demote(ptr, new_size, (key, compressed))
        self._enter_tier(ptr, compressed)
        if self.on_demoted is not None:
            # the owner's ledger/durability hook must not abort the
            # reclamation wave the demotion is servicing
            try:
                self.on_demoted(key, compressed)
            except Exception:
                self._context.callback_errors += 1
        return True

    def _drop_oldest_compressed(self) -> bool:
        for ptr in self._compressed_age.values():
            if ptr.pinned:
                continue
            __, compressed = ptr.deref()
            del self._compressed_age[ptr.alloc_id]
            self._context.compressed_bytes -= len(compressed.data)
            self.tier_stats.second_chance_drops += 1
            self._drop(ptr)
            return True
        return False

    def promote(self, key: bytes) -> Any | None:
        """Inflate a demoted entry and return its value.

        The read is served from the stub either way. The entry goes back
        to residency only if its full size fits in pages the heap
        already owns (``soft_promote``); otherwise it stays compressed
        and the denial is counted — a read never draws on the pool, the
        budget or the daemon. A write, or an extent freed later,
        re-admits it.

        Returns ``None`` if the key is absent or not compressed.
        """
        ptr = self._find(key)
        if ptr is None:
            return None
        __, compressed = ptr.deref()
        if type(compressed) is not CompressedValue:
            return None
        started = time.perf_counter()
        value = inflate_value(compressed)
        new_size = ptr.size + compressed.original_bytes - len(compressed.data)
        if self._sma.soft_promote(ptr, new_size, (key, value)):
            del self._compressed_age[ptr.alloc_id]
            self._by_age[ptr.alloc_id] = ptr
            self._context.compressed_bytes -= len(compressed.data)
            self.tier_stats.promotions += 1
            if self.on_promoted is not None:
                self.on_promoted(key, value, compressed)
        else:
            self.tier_stats.promotion_denials += 1
        if self.observe_promote is not None:
            self.observe_promote(time.perf_counter() - started)
        return value

    def register_compressed(self, key: bytes) -> bool:
        """Adopt a just-inserted, already-compressed entry into the tier.

        Recovery re-admits snapshot entries that were demoted when the
        snapshot was taken; they arrive through :meth:`upsert` carrying
        a :class:`CompressedValue` and must live in the compressed age
        index (so pressure drops them and reads promote them). Counted
        as a demotion — the entry entered the compressed tier — which
        keeps the tier conservation identity exact after a restart.
        """
        ptr = self._find(key)
        if ptr is None:
            return False
        __, value = ptr.deref()
        if type(value) is not CompressedValue:
            return False
        if ptr.alloc_id not in self._compressed_age:
            self._enter_tier(ptr, value)
        return True

    def _enter_tier(self, ptr: SoftPtr, compressed: CompressedValue) -> None:
        """Move an entry's handle from the resident to the compressed index."""
        del self._by_age[ptr.alloc_id]
        self._compressed_age[ptr.alloc_id] = ptr
        self._context.compressed_bytes += len(compressed.data)
        self.tier_stats.demotions += 1
        self.tier_stats.bytes_saved += (
            compressed.original_bytes - len(compressed.data)
        )

    @property
    def compressed_entries(self) -> int:
        return len(self._compressed_age)

    @property
    def compressed_bytes(self) -> int:
        return self._context.compressed_bytes

    def _free(self, ptr: SoftPtr) -> None:
        # Keep both age indexes consistent on every free path.
        self._by_age.pop(ptr.alloc_id, None)
        if self._compressed_age.pop(ptr.alloc_id, None) is not None:
            # a client operation (DEL, overwrite, expiry, FLUSHALL)
            # removed a compressed entry: the tier loses it without a
            # drop or a promotion — a displacement, for the identity
            # demotions == promotions + drops + displacements + held
            __, compressed = ptr.deref()
            self._context.compressed_bytes -= len(compressed.data)
            self.tier_stats.displacements += 1
        super()._free(ptr)

    def __repr__(self) -> str:
        return f"<SoftDict {self.name!r} used={len(self)}>"
