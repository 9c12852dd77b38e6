"""The Redis dict, with its bucket elements in soft memory.

The paper's prototype "modified this hash table to store the elements of
its buckets in soft memory, turning it into an SDS", while keys and
values stayed in traditional memory, deallocated via the reclamation
callback. The bucket index itself never held soft memory.

:class:`SoftDict` reproduces that integration in the shape
:class:`~repro.sds.soft_hash_table.SoftHashTable` has: the index is a
dict from key to the entry's soft pointer, and every entry is one soft
allocation whose payload is the traditional-memory value. The key is
already the index's own key, so the entry stores no record around the
two; the reclamation callback still receives ``(key, value)``, built on
the drop path alone. The index is kept in age order — an overwrite moves
its key to the newest end — so reclamation drops the oldest entries
first by walking the index itself, and the application callback cleans
up the traditional side.

With a :class:`~repro.kvstore.tier.TierConfig` enabled, eviction grows
a middle state: the oldest resident entry *demotes* — its value is
zlib-compressed and the soft allocation relocated at compressed size
via ``SoftMemoryAllocator.soft_demote``, which cannot fail — instead of
dropping, and its key moves to a second dict of demoted entries in
demotion order. Only a later pressure wave (or the tier watermark)
truly drops compressed entries, firing the usual reclamation callback;
a read in between is served from the stub, and *promotes* the entry
back to residency only where the heap already owns the room.
"""

from __future__ import annotations

import time
from itertools import chain
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
        #: key -> entry pointer of every resident entry, oldest write
        #: first: the bucket index and the reclamation order in one dict
        self._index: dict[bytes, SoftPtr] = {}
        # -- compressed second-chance tier -----------------------------
        self.tier = tier or TierConfig()
        self.tier_stats = TierStats()
        #: key -> entry pointer of demoted entries, oldest demotion first
        self._compressed_age: dict[bytes, SoftPtr] = {}
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
        same-size write stores the new value through the existing soft
        pointer — one pointer write, the way Redis swaps
        ``dictEntry->v`` on SET — and a size-changing write is one
        ``soft_resize``. Either way the same :class:`SoftPtr` is
        returned, and like a fresh insert the overwrite refreshes the
        entry's age — its key moves to the index's newest end —
        preserving the oldest-first reclamation contract.
        """
        if type(key) is not bytes:
            self._check_key(key)
        want = size or self._entry_size
        index = self._index
        existing = index.get(key)
        if existing is not None:
            if not existing.valid:  # ``SoftPtr.deref``, inlined
                raise ReclaimedMemoryError(existing.alloc_id)
            old_value = existing.payload
            if existing.size == want:
                existing.payload = value
            else:
                try:
                    self._sma.soft_resize(existing, want, value)
                except Exception:
                    del index[key]
                    self._overwrite_lost(key, old_value)
                    raise
            del index[key]  # refresh age: now newest
            index[key] = existing
            return existing, old_value
        # a demoted entry is never overwritten through its handle — its
        # soft size tracks the compressed bytes, not the incoming value
        stub = self._compressed_age.get(key)
        if stub is None:
            old_value = None
        else:
            old_value = stub.deref()
            del self._compressed_age[key]
            self._free_compressed(stub)
        try:
            ptr = self._alloc(want, value)
        except Exception:
            if stub is not None:
                self._overwrite_lost(key, old_value)
            raise
        index[key] = ptr
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
        # ``SoftPtr.deref`` are inlined: same probes, same liveness check
        if type(key) is not bytes:
            self._check_key(key)
        ptr = self._index.get(key)
        if ptr is None:
            ptr = self._compressed_age.get(key)
            if ptr is None:
                return default
        if not ptr.valid:
            raise ReclaimedMemoryError(ptr.alloc_id)
        return ptr.payload

    def __contains__(self, key: bytes) -> bool:
        return self._find(key) is not None

    def delete(self, key: bytes) -> bool:
        self._check_key(key)
        ptr = self._find(key)
        if ptr is None:
            return False
        if self._index.pop(key, None) is None:
            del self._compressed_age[key]
            self._free_compressed(ptr)
        else:
            self._free(ptr)
        return True

    def __len__(self) -> int:
        return len(self._index) + len(self._compressed_age)

    def keys(self) -> Iterator[bytes]:
        return chain(self._index, self._compressed_age)

    def items(self) -> Iterator[tuple[bytes, Any]]:
        """``(key, value)`` pairs in reclamation order: residents oldest
        write first, then demoted entries oldest demotion first."""
        for index in (self._index, self._compressed_age):
            for key, ptr in index.items():
                yield key, ptr.deref()

    def clear(self) -> None:
        for ptr in self._index.values():
            self._free(ptr)
        for ptr in self._compressed_age.values():
            self._free_compressed(ptr)
        self._index.clear()
        self._compressed_age.clear()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    @staticmethod
    def _check_key(key: bytes) -> None:
        if not isinstance(key, bytes):
            raise TypeError(f"keys must be bytes, got {type(key).__name__}")

    def _find(self, key: bytes) -> SoftPtr | None:
        """The key's live entry pointer, resident or demoted, or ``None``
        when absent."""
        ptr = self._index.get(key)
        if ptr is None:
            ptr = self._compressed_age.get(key)
            if ptr is None:
                return None
        if not ptr.valid:
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
        for key, ptr in self._index.items():
            if not ptr.pinned:
                if tier.enabled:
                    self._demote_or_drop(key, ptr)
                else:
                    self._drop(self._index, key, ptr)
                return True
        # entries recovered in compressed form stay reclaimable even
        # with the tier switched off (no-op unless such entries exist)
        return self._drop_oldest_compressed()

    def _demote_or_drop(self, key: bytes, ptr: SoftPtr) -> None:
        """Demote one resident victim, dropping it if compression fails."""
        if not self.demote(key):
            # too small / incompressible: the victim drops like before
            self.tier_stats.incompressible += 1
            self._drop(self._index, key, ptr)

    def _drop(
        self, index: dict[bytes, SoftPtr], key: bytes, ptr: SoftPtr
    ) -> None:
        """Unlink one entry from ``index`` and free it on the reclamation
        path. The callback is handed the entry's ``(key, value)`` record,
        built here: the one path where an entry leaves with its key."""
        value = ptr.deref()
        del index[key]
        ptr.payload = (key, value)
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
        value = ptr.payload
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
        self._sma.soft_demote(ptr, new_size, compressed)
        self._enter_tier(key, compressed)
        if self.on_demoted is not None:
            # the owner's ledger/durability hook must not abort the
            # reclamation wave the demotion is servicing
            try:
                self.on_demoted(key, compressed)
            except Exception:
                self._context.callback_errors += 1
        return True

    def _drop_oldest_compressed(self) -> bool:
        compressed_age = self._compressed_age
        for key, ptr in compressed_age.items():
            if ptr.pinned:
                continue
            self._context.compressed_bytes -= len(ptr.deref().data)
            self.tier_stats.second_chance_drops += 1
            self._drop(compressed_age, key, ptr)
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
        compressed = ptr.payload
        if type(compressed) is not CompressedValue:
            return None
        started = time.perf_counter()
        value = inflate_value(compressed)
        new_size = ptr.size + compressed.original_bytes - len(compressed.data)
        if self._sma.soft_promote(ptr, new_size, value):
            del self._compressed_age[key]
            self._index[key] = ptr
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
        a :class:`CompressedValue` and must live in the compressed dict
        (so pressure drops them and reads promote them). Counted as a
        demotion — the entry entered the compressed tier — which keeps
        the tier conservation identity exact after a restart.
        """
        ptr = self._find(key)
        if ptr is None:
            return False
        value = ptr.payload
        if type(value) is not CompressedValue:
            return False
        if key in self._index:
            self._enter_tier(key, value)
        return True

    def _enter_tier(self, key: bytes, compressed: CompressedValue) -> None:
        """Move a resident entry's handle into the compressed dict."""
        self._compressed_age[key] = self._index.pop(key)
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

    def _free_compressed(self, ptr: SoftPtr) -> None:
        """Free a demoted entry a client operation (DEL, overwrite,
        expiry, FLUSHALL) removed. The tier loses it without a drop or a
        promotion — a displacement, for the identity demotions ==
        promotions + drops + displacements + held."""
        self._context.compressed_bytes -= len(ptr.payload.data)
        self.tier_stats.displacements += 1
        self._free(ptr)

    def __repr__(self) -> str:
        return f"<SoftDict {self.name!r} used={len(self)}>"
