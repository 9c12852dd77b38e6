"""The key-value store: keyspace, TTLs, and soft-memory integration.

This is the "Redis side" of the paper's section 5 experiment. The
keyspace is a :class:`~repro.kvstore.dict.SoftDict` (entries soft, keys
and values traditional); the store installs the reclamation callback
that "cleans up associated traditional memory for the reclaimed
entries" — the code the paper found dominating the 3.75 s reclamation.
Lookups of reclaimed keys return "not found", the caching contract the
paper describes (clients re-fetch from the database on miss).

Values are typed like Redis: strings (``bytes``), hashes, and lists.
Mutating a hash or list re-charges the entry's soft allocation, so the
soft footprint always tracks the data actually held.
"""

from __future__ import annotations

import fnmatch
import heapq
import random
import re
import time
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Callable, Iterable, NamedTuple

from repro.core.errors import SoftMemoryDenied
from repro.core.sma import SoftMemoryAllocator
from repro.kvstore.dict import SoftDict
from repro.kvstore.persist.codec import (
    EXP_ABSOLUTE,
    EXP_KEEP,
    EXP_NONE,
    encode_delete,
    encode_demote,
    encode_expire,
    encode_flush,
    encode_persist,
    encode_tombstone,
    encode_write,
    expiry_clause,
)
from repro.kvstore.tier import TierConfig
from repro.obs.plane import (
    KvObservability,
    bind_persistence,
    bind_sma,
    bind_store,
    bind_tier,
)
from repro.kvstore.values import (
    CompressedValue,
    Value,
    expect_type,
    type_name,
    value_bytes,
)
from repro.util.units import MIB

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kvstore.cluster.state import ClusterState
    from repro.kvstore.persist.engine import Persistence
    from repro.kvstore.repl.state import ReplicationState
    from repro.rpc.agent import LoopAgent


@lru_cache(maxsize=256)
def _glob_regex(pattern: bytes) -> "re.Pattern[bytes] | None":
    """Compile a Redis glob once; ``None`` means match-everything.

    The old path called :func:`fnmatch.fnmatchcase` per key, which
    re-derives the regex for every entry of a KEYS/SCAN sweep. Matching
    is byte-wise (latin-1 round-trip keeps the translation bijective
    for all 256 byte values), which both handles binary-unsafe keys the
    utf-8 decode used to choke on and matches Redis's own semantics of
    ``?`` consuming exactly one byte.
    """
    if pattern == b"*":
        return None
    translated = fnmatch.translate(pattern.decode("latin-1"))
    return re.compile(translated.encode("latin-1"))


@dataclass
class StoreConfig:
    """Store tuning knobs.

    ``entry_overhead_bytes`` models the dictEntry + robj headers Redis
    spends per pair: with the paper's 130 K pairs in 10 MiB, each entry
    averages ~80 bytes, so the default overhead assumes short keys and
    values.
    """

    entry_overhead_bytes: int = 56
    #: clock used for TTLs; swap in a SimClock's ``now`` for simulation
    time_fn: Callable[[], float] = field(default=time.monotonic)
    #: compressed second-chance tier policy (disabled reproduces the
    #: paper's plain keep/drop reclamation)
    tier: TierConfig = field(default_factory=TierConfig)


@dataclass
class StoreStats:
    """Operation and reclamation counters (INFO output)."""

    hits: int = 0
    misses: int = 0
    keys_set: int = 0
    keys_deleted: int = 0
    expired_keys: int = 0
    #: entries removed by soft memory reclamation (not by clients)
    reclaimed_keys: int = 0
    #: writes refused because the SMA denied (or degraded) the alloc
    oom_denials: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ReplayCounts(NamedTuple):
    """What one :meth:`DataStore.replay` did, for its caller's stats."""

    #: ``W`` records re-admitted
    written: int
    #: ``W`` records the soft budget refused (future cache misses)
    denied: int
    #: ``T`` records applied
    tombstones: int


class DataStore:
    """Single-threaded keyspace with Redis semantics."""

    def __init__(
        self,
        sma: SoftMemoryAllocator,
        config: StoreConfig | None = None,
        name: str = "redis",
    ) -> None:
        self.name = name
        self.config = config or StoreConfig()
        self._sma = sma
        self._dict = SoftDict(
            sma,
            name=f"{name}-keyspace",
            callback=self._on_entry_reclaimed,
            tier=self.config.tier,
        )
        self._dict.on_demoted = self._on_entry_demoted
        self._dict.on_promoted = self._on_entry_promoted
        #: key -> absolute expiry deadline (traditional memory)
        self._expires: dict[bytes, float] = {}
        #: min-heap of (deadline, key) mirroring ``_expires``; entries go
        #: stale when a key is deleted/persisted/re-expired and are
        #: discarded lazily, so sweeps never scan the whole dict
        self._expiry_heap: list[tuple[float, bytes]] = []
        self.stats = StoreStats()
        #: bytes of keys+values held in traditional memory
        self.traditional_bytes = 0
        self._rng = random.Random(0)
        #: key whose own ``W`` or ``M`` record :meth:`replay` is applying
        self._restoring: bytes | None = None
        #: durability plane; None until :meth:`attach_persistence`
        self._persist: "Persistence | None" = None
        #: cluster topology; None (standalone) until :meth:`attach_cluster`.
        #: Public because the dispatcher reads it per command — one
        #: attribute load is the whole standalone-mode cost.
        self.cluster: "ClusterState | None" = None
        #: replication plane; None until a PSYNC is served or REPLICAOF
        #: runs. Public for the same reason as ``cluster`` — the
        #: dispatcher and the mutation taps read it per command, and
        #: one attribute load is the whole standalone-mode cost.
        self.repl: "ReplicationState | None" = None
        #: the link to a soft memory daemon (``kv_server --smd-socket``),
        #: a ``LoopAgent`` that the serving loop drives; None without one
        self.smd_agent: "LoopAgent | None" = None
        #: observability plane shared by every server wrapping this store
        self.obs = KvObservability(name=name)
        bind_store(self.obs.registry, self)
        bind_sma(self.obs.registry, sma)
        self._dict.observe_promote = bind_tier(self.obs.registry, self._dict)

    # ------------------------------------------------------------------
    # soft memory integration
    # ------------------------------------------------------------------

    def _entry_size(self, key: bytes, value: Value) -> int:
        return self.config.entry_overhead_bytes + len(key) + value_bytes(value)

    def _on_entry_reclaimed(self, payload: tuple[bytes, Value]) -> None:
        """Last-chance callback: free the traditional side of an entry.

        This mirrors the paper's Redis patch — the reclaimed soft element
        points at traditionally-allocated key and value, which must be
        released here or they leak.
        """
        key, value = payload
        self.traditional_bytes -= len(key) + value_bytes(value)
        self._expires.pop(key, None)
        if key == self._restoring:
            # the old entry of a replayed overwrite whose re-admission
            # was denied: :meth:`replay` counts the denial, and the log
            # being replayed already says what it says
            return
        self.stats.reclaimed_keys += 1
        # dropped soft data must stay dropped: across a restart (the
        # AOF's T) and across the fleet (the stream's T), so a failover
        # never resurrects it. Second-chance drops land here too.
        self.log_record(encode_tombstone, (key,))

    def _on_entry_demoted(self, key: bytes, compressed: CompressedValue) -> None:
        """Tier hook: an entry shrank to its compressed size.

        The value side of the traditional ledger shrinks with it, and
        the demotion is made durable so recovery re-admission is
        budget-gated at the *compressed* size: replay re-runs it (when
        the tier is enabled), so a recovered store carries the same
        compressed footprint. The entry's bytes were already logged by
        its ``W``. Promotions are deliberately not logged: a
        recovered-compressed entry inflates on first read exactly like
        a live one.
        """
        self.traditional_bytes -= compressed.original_bytes - len(
            compressed.data
        )
        if key == self._restoring:
            return  # a replayed M: the log being replayed already holds it
        self.log_record(encode_demote, (key,))

    def _on_entry_promoted(
        self, key: bytes, value: Value, compressed: CompressedValue
    ) -> None:
        """Tier hook: an entry inflated back to residency.

        Promotion is deliberately not logged — a recovered-compressed
        entry inflates on its first read, byte-identical to this one.
        """
        self.traditional_bytes += compressed.original_bytes - len(
            compressed.data
        )

    @property
    def soft_bytes(self) -> int:
        """Live soft bytes behind the keyspace."""
        return self._dict.soft_bytes

    @property
    def soft_pages(self) -> int:
        return self._dict.soft_pages

    @property
    def keyspace(self) -> SoftDict:
        return self._dict

    @property
    def sma(self) -> SoftMemoryAllocator:
        return self._sma

    # ------------------------------------------------------------------
    # expiry
    # ------------------------------------------------------------------

    def _now(self) -> float:
        return self.config.time_fn()

    def _set_expiry(self, key: bytes, deadline: float) -> None:
        self._expires[key] = deadline
        heapq.heappush(self._expiry_heap, (deadline, key))
        self._maybe_compact_heap()

    def _maybe_compact_heap(self) -> None:
        """Rebuild the deadline heap once stale entries dominate.

        A churny workload (SET ... EX on hot keys, deletes, persists)
        strands stale entries; rebuilding at a 4× ratio keeps the heap
        O(live TTLs) for amortized O(1) per strand.
        """
        heap = self._expiry_heap
        if len(heap) > 64 and len(heap) > 4 * len(self._expires):
            heap[:] = [(d, k) for k, d in self._expires.items()]
            heapq.heapify(heap)

    def _check_expired(self, key: bytes) -> bool:
        """Lazy expiry: delete the key if its deadline passed."""
        deadline = self._expires.get(key)
        if deadline is None or self._now() < deadline:
            return False
        self._delete_raw(key)
        self.stats.expired_keys += 1
        return True

    def sweep_expired(self, limit: int | None = None) -> int:
        """Active expiry cycle: purge keys past their deadline.

        Pops the deadline heap instead of scanning ``_expires``, so a
        sweep costs O(expired · log n) rather than O(keys-with-ttl).
        Heap entries whose key was deleted, persisted, or re-expired in
        the meantime no longer match the authoritative dict and are
        dropped on sight (lazy invalidation). ``limit`` caps the number
        of keys purged per cycle Redis-style, so a periodic sweep in a
        serving loop cannot stall traffic behind a mass expiry; internal
        full sweeps (DBSIZE, KEYS, RANDOMKEY) leave it unbounded.
        """
        expires = self._expires
        heap = self._expiry_heap
        if not expires:
            heap.clear()  # everything left in the heap is stale
            return 0
        now = self._now()
        removed = 0
        while heap and heap[0][0] <= now:
            deadline, key = heapq.heappop(heap)
            if expires.get(key) != deadline:
                continue  # stale heap entry
            self._delete_raw(key)
            self.stats.expired_keys += 1
            removed += 1
            if limit is not None and removed >= limit:
                break
        self._maybe_compact_heap()
        return removed

    # ------------------------------------------------------------------
    # typed-value internals
    # ------------------------------------------------------------------

    def _read(self, key: bytes) -> Value | None:
        """Lazy-expiring raw read with hit/miss accounting.

        A read of a demoted entry is served from its stub (and goes
        back to residency where the heap owns the room) — a hit, which
        is the hit-rate recovery the second-chance tier exists for.
        """
        if self._expires and self._check_expired(key):
            self.stats.misses += 1
            return None
        value = self._dict.get(key)
        if value is None:
            self.stats.misses += 1
            return None
        if type(value) is CompressedValue:
            value = self._dict.promote(key)
        self.stats.hits += 1
        return value

    def _peek(self, key: bytes) -> Value | None:
        """Lazy-expiring raw read without hit/miss accounting."""
        if self._check_expired(key):
            return None
        value = self._dict.get(key)
        if type(value) is CompressedValue:
            value = self._dict.promote(key)
        return value

    def _put(self, key: bytes, value: Value) -> None:
        """Insert or replace through the soft allocator, ledgers exact.

        Unlogged, like :meth:`_remove` and :meth:`_clear`: a live command
        is a primitive plus client stats plus one :meth:`log_record`,
        :meth:`replay` is the primitive alone.
        """
        # a string is its own length; only containers need the walk
        new_bytes = len(value) if type(value) is bytes else value_bytes(value)
        __, old = self._dict.upsert(
            key,
            value,
            size=self.config.entry_overhead_bytes + len(key) + new_bytes,
        )
        if old is not None:
            # same key: only the value side of the ledger moves
            self.traditional_bytes += new_bytes - (
                len(old) if type(old) is bytes else value_bytes(old)
            )
        else:
            self.traditional_bytes += len(key) + new_bytes

    def _write(
        self, key: bytes, value: Value, *, ex: float | None, keep_ttl: bool
    ) -> None:
        """Insert or replace a value, keeping all ledgers consistent."""
        self._put(key, value)
        if ex is not None:
            self._set_expiry(key, self._now() + ex)
        elif not keep_ttl:
            self._expires.pop(key, None)
        self.stats.keys_set += 1
        if self._persist is not None or self.repl is not None:
            # effect-based logging: INCR/APPEND/HSET all funnel here,
            # so the log carries resulting state and replays verbatim;
            # a store with neither sink pays no call per SET
            self.log_record(
                encode_write, (key, value, expiry_clause(ex, keep_ttl)), ex
            )

    def log_record(
        self, encoder, args: tuple, ex: float | None = None, records: int = 1
    ) -> None:
        """The one tap a mutation's record reaches both sinks through.

        ``encoder(buffer, *args)`` (a ``persist/codec.py`` encoder) runs
        once: into the AOF when it logs, else into the stream, and the
        stream copies the AOF's frame. So both carry the same bytes; a
        TTL ``ex`` (seconds) becomes one unix-ms deadline, on the clock
        of the sink that encodes. ``records`` counts a replica's
        ``copy_frames`` of its master's stream.
        """
        persist = self._persist
        frame = None
        if persist is not None:
            frame = persist.append(encoder, args, ex, records)
        repl = self.repl
        if repl is not None:
            if frame is None:
                repl.append(encoder, args, ex)
            else:
                repl.log_frame(frame)

    def _recharge(self, key: bytes, value: Value) -> None:
        """Re-charge an entry after in-place mutation of its value."""
        self._write(key, value, ex=None, keep_ttl=True)

    def _read_typed(self, key: bytes, expected: type) -> Any | None:
        value = self._read(key)
        if value is None:
            return None
        return expect_type(value, expected)

    # ------------------------------------------------------------------
    # string commands
    # ------------------------------------------------------------------

    def set(
        self,
        key: bytes,
        value: bytes,
        *,
        ex: float | None = None,
        keep_ttl: bool = False,
    ) -> None:
        """SET: store ``value`` under ``key``; optional relative expiry."""
        if (
            type(value) is not bytes or type(key) is not bytes
            or ex is not None or keep_ttl
        ):
            if type(value) is memoryview:
                # zero-copy serving hands large payloads in as views
                # over the parser's reusable buffer; the store retains
                # values beyond the batch, so bytes materialize here
                return self.set(key, bytes(value), ex=ex, keep_ttl=keep_ttl)
            self._check_types(key, value)
            self._write(key, value, ex=ex, keep_ttl=keep_ttl)
            return
        # a plain SET (bytes, no TTL) is every SET of the serving plane,
        # so ``_check_types``, ``_write`` and ``_put`` are inlined, as
        # :meth:`get` inlines ``_read``: the same checks, ledgers, expiry
        # clear and record, down to one ``SoftDict.upsert``
        size = len(value)
        __, old = self._dict.upsert(
            key, value, self.config.entry_overhead_bytes + len(key) + size
        )
        if old is None:
            self.traditional_bytes += len(key) + size
        elif type(old) is bytes:
            self.traditional_bytes += size - len(old)
        else:
            self.traditional_bytes += size - value_bytes(old)
        if self._expires:
            self._expires.pop(key, None)
        self.stats.keys_set += 1
        if self._persist is not None or self.repl is not None:
            self.log_record(encode_write, (key, value, EXP_NONE))

    def get(self, key: bytes) -> bytes | None:
        """GET: ``None`` for missing, expired, or *reclaimed* keys."""
        # :meth:`_read` inlined — every GET lands here
        stats = self.stats
        if self._expires and self._check_expired(key):
            stats.misses += 1
            return None
        value = self._dict.get(key)
        if value is None:
            stats.misses += 1
            return None
        if type(value) is bytes:
            stats.hits += 1
            return value
        if type(value) is CompressedValue:
            value = self._dict.promote(key)
        stats.hits += 1
        return expect_type(value, bytes)

    def getdel(self, key: bytes) -> bytes | None:
        """GETDEL: read and remove in one step."""
        value = self.get(key)
        if value is not None:
            self.delete(key)
        return value

    def getrange(self, key: bytes, start: int, end: int) -> bytes:
        """GETRANGE: substring with Redis's inclusive-end semantics."""
        raw = self.get(key) or b""
        if end == -1:
            return raw[start:]
        if end < -1:
            end += 1
            return raw[start:end] if end else raw[start:]
        return raw[start:end + 1]

    def setrange(self, key: bytes, offset: int, chunk: bytes) -> int:
        """SETRANGE: overwrite at ``offset``, zero-padding as needed."""
        if offset < 0:
            raise ValueError("offset is out of range")
        # the zero padding below is sized by a client's integer, before
        # the soft allocator can refuse it: cap it where Redis does
        if offset + len(chunk) > 512 * MIB:
            raise ValueError("string exceeds maximum allowed size (512MB)")
        raw = self._peek(key)
        raw = expect_type(raw, bytes) if raw is not None else b""
        if len(raw) < offset:
            raw = raw + b"\x00" * (offset - len(raw))
        combined = raw[:offset] + chunk + raw[offset + len(chunk):]
        self._recharge(key, combined)
        return len(combined)

    def incrby(self, key: bytes, delta: int) -> int:
        raw = self.get(key)
        if raw is None:
            current = 0
        else:
            try:
                current = int(raw)
            except ValueError:
                raise ValueError(
                    "value is not an integer or out of range"
                ) from None
        current += delta
        self.set(key, str(current).encode(), keep_ttl=True)
        return current

    def append(self, key: bytes, suffix: bytes) -> int:
        raw = self.get(key) or b""
        combined = raw + suffix
        self.set(key, combined, keep_ttl=True)
        return len(combined)

    def strlen(self, key: bytes) -> int:
        raw = self.get(key)
        return len(raw) if raw is not None else 0

    # ------------------------------------------------------------------
    # hash commands
    # ------------------------------------------------------------------

    def hset(self, key: bytes, mapping: dict[bytes, bytes]) -> int:
        """HSET: set fields; returns the number of *new* fields."""
        table = self._peek(key)
        if table is None:
            table = {}
        else:
            table = dict(expect_type(table, dict))
        added = sum(1 for f in mapping if f not in table)
        table.update(mapping)
        self._recharge(key, table)
        return added

    def hget(self, key: bytes, fld: bytes) -> bytes | None:
        table = self._read_typed(key, dict)
        return table.get(fld) if table is not None else None

    def hdel(self, key: bytes, *fields: bytes) -> int:
        table = self._peek(key)
        if table is None:
            return 0
        table = dict(expect_type(table, dict))
        removed = 0
        for fld in fields:
            if fld in table:
                del table[fld]
                removed += 1
        if removed:
            if table:
                self._recharge(key, table)
            else:
                self._delete_raw(key)  # Redis removes empty hashes
        return removed

    def hlen(self, key: bytes) -> int:
        table = self._read_typed(key, dict)
        return len(table) if table is not None else 0

    def hexists(self, key: bytes, fld: bytes) -> bool:
        table = self._read_typed(key, dict)
        return table is not None and fld in table

    def hkeys(self, key: bytes) -> list[bytes]:
        table = self._read_typed(key, dict)
        return list(table) if table is not None else []

    def hvals(self, key: bytes) -> list[bytes]:
        table = self._read_typed(key, dict)
        return list(table.values()) if table is not None else []

    def hgetall(self, key: bytes) -> dict[bytes, bytes]:
        table = self._read_typed(key, dict)
        return dict(table) if table is not None else {}

    def hincrby(self, key: bytes, fld: bytes, delta: int) -> int:
        table = self._peek(key)
        table = dict(expect_type(table, dict)) if table is not None else {}
        try:
            current = int(table.get(fld, b"0"))
        except ValueError:
            raise ValueError("hash value is not an integer") from None
        current += delta
        table[fld] = str(current).encode()
        self._recharge(key, table)
        return current

    # ------------------------------------------------------------------
    # list commands
    # ------------------------------------------------------------------

    def _list_for_push(self, key: bytes) -> deque:
        value = self._peek(key)
        if value is None:
            return deque()
        return deque(expect_type(value, deque))

    def lpush(self, key: bytes, *values: bytes) -> int:
        items = self._list_for_push(key)
        for value in values:
            items.appendleft(value)
        self._recharge(key, items)
        return len(items)

    def rpush(self, key: bytes, *values: bytes) -> int:
        items = self._list_for_push(key)
        items.extend(values)
        self._recharge(key, items)
        return len(items)

    def _pop(self, key: bytes, left: bool) -> bytes | None:
        value = self._read(key)
        if value is None:
            return None
        items = deque(expect_type(value, deque))
        item = items.popleft() if left else items.pop()
        if items:
            self._recharge(key, items)
        else:
            self._delete_raw(key)  # Redis removes empty lists
        return item

    def lpop(self, key: bytes) -> bytes | None:
        return self._pop(key, left=True)

    def rpop(self, key: bytes) -> bytes | None:
        return self._pop(key, left=False)

    def llen(self, key: bytes) -> int:
        value = self._read_typed(key, deque)
        return len(value) if value is not None else 0

    def lrange(self, key: bytes, start: int, stop: int) -> list[bytes]:
        """LRANGE with Redis's inclusive-stop, negative-index semantics."""
        value = self._read_typed(key, deque)
        if value is None:
            return []
        items = list(value)
        if start < 0:
            start = max(0, len(items) + start)
        if stop < 0:
            stop = len(items) + stop
        return items[start:stop + 1]

    def lindex(self, key: bytes, index: int) -> bytes | None:
        value = self._read_typed(key, deque)
        if value is None:
            return None
        items = list(value)
        try:
            return items[index]
        except IndexError:
            return None

    # ------------------------------------------------------------------
    # key management
    # ------------------------------------------------------------------

    def delete(self, *keys: bytes) -> int:
        """DEL: remove keys; returns how many existed."""
        removed = 0
        for key in keys:
            if self._check_expired(key):
                continue
            if self._delete_raw(key):
                removed += 1
                self.stats.keys_deleted += 1
        return removed

    def _remove(self, key: bytes) -> bool:
        value = self._dict.get(key)
        if value is None:
            return False
        self._dict.delete(key)
        self._expires.pop(key, None)
        self.traditional_bytes -= len(key) + value_bytes(value)
        return True

    def _delete_raw(self, key: bytes) -> bool:
        if not self._remove(key):
            return False
        # expiry-driven deletes flow through here too: an expired key is
        # propagated as a delete, the way Redis logs DEL
        self.log_record(encode_delete, (key,))
        return True

    def exists(self, *keys: bytes) -> int:
        return sum(
            1
            for key in keys
            if not self._check_expired(key) and key in self._dict
        )

    def type_of(self, key: bytes) -> bytes | None:
        """TYPE: b"string" / b"hash" / b"list", or None if missing."""
        value = self._peek(key)
        return type_name(value) if value is not None else None

    def rename(self, src: bytes, dst: bytes) -> None:
        """RENAME: move a value (and its TTL) to a new key."""
        value = self._peek(src)
        if value is None:
            raise KeyError("no such key")
        deadline = self._expires.get(src)
        self._delete_raw(src)
        ex = None if deadline is None else max(0.0, deadline - self._now())
        self._write(dst, value, ex=ex, keep_ttl=False)

    def renamenx(self, src: bytes, dst: bytes) -> bool:
        """RENAMENX: rename only if ``dst`` does not exist."""
        if self._peek(dst) is not None:
            return False
        self.rename(src, dst)
        return True

    def randomkey(self) -> bytes | None:
        """RANDOMKEY: a uniformly random live key (None when empty)."""
        self.sweep_expired()
        keys = list(self._dict.keys())
        return self._rng.choice(keys) if keys else None

    def expire(self, key: bytes, seconds: float) -> bool:
        if self._check_expired(key) or key not in self._dict:
            return False
        self._set_expiry(key, self._now() + seconds)
        self.log_record(encode_expire, (key,), seconds)
        return True

    def expireat(self, key: bytes, deadline: float) -> bool:
        """EXPIREAT: absolute deadline (store-clock seconds)."""
        if self._check_expired(key) or key not in self._dict:
            return False
        self._set_expiry(key, deadline)
        self.log_record(encode_expire, (key,), deadline - self._now())
        return True

    def ttl(self, key: bytes) -> int:
        """TTL in whole seconds; -2 missing key, -1 no expiry."""
        pttl = self.pttl(key)
        return pttl if pttl < 0 else max(0, round(pttl / 1000))

    def pttl(self, key: bytes) -> int:
        """PTTL in milliseconds; -2 missing key, -1 no expiry."""
        if self._check_expired(key) or key not in self._dict:
            return -2
        deadline = self._expires.get(key)
        if deadline is None:
            return -1
        return max(0, round((deadline - self._now()) * 1000))

    def persist(self, key: bytes) -> bool:
        if self._check_expired(key) or key not in self._dict:
            return False
        cleared = self._expires.pop(key, None) is not None
        if cleared:
            self.log_record(encode_persist, (key,))
        return cleared

    # ------------------------------------------------------------------
    # keyspace commands
    # ------------------------------------------------------------------

    def keys(self, pattern: bytes = b"*") -> list[bytes]:
        self.sweep_expired()
        regex = _glob_regex(bytes(pattern))
        if regex is None:
            return list(self._dict.keys())
        match = regex.match
        return [k for k in self._dict.keys() if match(k)]

    def scan(
        self,
        cursor: int,
        match: bytes | None = None,
        count: int = 10,
    ) -> tuple[int, list[bytes]]:
        """SCAN: cursor-based iteration over the keyspace.

        Simplified vs Redis: iterates a sorted snapshot, so keys added
        mid-scan at earlier positions may be missed (Redis makes the
        symmetric trade). Cursor 0 starts; returned cursor 0 ends.
        """
        if cursor < 0 or count <= 0:
            raise ValueError("invalid cursor or count")
        self.sweep_expired()
        ordered = sorted(self._dict.keys())
        window = ordered[cursor:cursor + count]
        next_cursor = cursor + count
        if next_cursor >= len(ordered):
            next_cursor = 0
        if match is not None:
            regex = _glob_regex(bytes(match))
            if regex is not None:
                matcher = regex.match
                window = [k for k in window if matcher(k)]
        return next_cursor, window

    def dbsize(self) -> int:
        self.sweep_expired()
        return len(self._dict)

    def _clear(self) -> None:
        self._dict.clear()
        self._expires.clear()
        self._expiry_heap.clear()
        self.traditional_bytes = 0

    def flushall(self) -> None:
        self._clear()
        self.log_record(encode_flush, ())

    # ------------------------------------------------------------------
    # durability plane
    # ------------------------------------------------------------------

    def attach_persistence(
        self, persistence: "Persistence", *, recover: bool = True
    ) -> "Persistence":
        """Bind a :class:`~repro.kvstore.persist.engine.Persistence`.

        Recovery (newest valid snapshot + AOF tail replay) runs before
        logging starts, so replayed mutations are not re-logged. After
        this returns, every mutation flows into the append-only log.
        Attach before a ``TcpKvServer`` over this store starts serving:
        its loop reads the plane once, not once a round.
        """
        if self._persist is not None:
            raise RuntimeError("a persistence plane is already attached")
        self._persist = persistence  # hooks no-op while recovery replays
        try:
            persistence.attach(self, recover=recover)
        except Exception:
            self._persist = None
            raise
        bind_persistence(self.obs.registry, persistence)
        return persistence

    @property
    def persistence(self) -> "Persistence | None":
        return self._persist

    def attach_cluster(self, state: "ClusterState") -> "ClusterState":
        """Bind this store to one shard of a hash-slot cluster.

        From here on the dispatcher answers ``MOVED`` for keys outside
        the shard's slot range; see ``repro.kvstore.cluster``.
        """
        if self.cluster is not None:
            raise RuntimeError("a cluster topology is already attached")
        self.cluster = state
        return state

    def replay(self, records: Iterable[tuple], now_ms: int) -> ReplayCounts:
        """Apply decoded codec records: the one way back into a store.

        AOF recovery, snapshot load, replica full sync and the replica
        stream all land here, and nothing else switches on a record's
        kind. ``now_ms`` is the unix-epoch instant the records' absolute
        deadlines are measured against.

        Replay runs the unlogged primitives only, so it never re-logs
        and touches no client-facing stats. A ``W`` is an overwrite
        through the soft allocator — the SMD budget gates re-admission.
        A denied one leaves the key absent with every ledger clean, like
        a reclamation, but is *counted* in the result (never raised,
        never a reclaimed key, never a tombstone): the record's own key
        is marked in ``_restoring`` while it is applied, which silences
        the callbacks for that key alone. A tap for any other key — a
        self-reclaim the write caused — is logged like at any other
        time. ``T`` and ``D`` always land.
        ``EXP_KEEP`` resolves against the key's current TTL, a ``W``
        without expiry clears it, and already-past deadlines are applied
        (a later ``P`` or rewrite may rescue the key; whoever replays a
        whole history sweeps afterwards).
        """
        now = self._now()
        soft_dict = self._dict
        upsert = soft_dict.upsert
        overhead = self.config.entry_overhead_bytes
        expires = self._expires
        written = denied = tombstones = 0
        for record in records:
            kind = record[0]
            if kind == "W":
                __, key, value, exp_kind, deadline_ms = record
                ex: float | None = None
                if exp_kind == EXP_NONE:  # a plain SET: tested first
                    pass
                elif exp_kind == EXP_ABSOLUTE:
                    ex = (deadline_ms - now_ms) / 1000.0
                elif exp_kind == EXP_KEEP:
                    kept = expires.get(key)
                    if kept is not None:
                        # carried at the log's millisecond granularity
                        ex = int((kept - now) * 1000) / 1000.0
                # :meth:`_put`, inlined as in :meth:`set`: a replica
                # applies every record of its master's stream here
                if type(value) is bytes:
                    size = len(value)
                else:
                    size = value_bytes(value)
                self._restoring = key
                try:
                    __, old = upsert(key, value, overhead + len(key) + size)
                except SoftMemoryDenied:
                    # budget exhausted (or degraded mode): a future miss
                    denied += 1
                    continue
                finally:
                    self._restoring = None
                if old is None:
                    self.traditional_bytes += len(key) + size
                elif type(old) is bytes:
                    self.traditional_bytes += size - len(old)
                else:
                    self.traditional_bytes += size - value_bytes(old)
                if type(value) is CompressedValue:
                    # a snapshot carried this entry demoted: admitted at
                    # the compressed size, it must live in the compressed
                    # tier (drop under pressure, promote on read)
                    soft_dict.register_compressed(key)
                if ex is not None:
                    self._set_expiry(key, now + ex)
                elif expires:
                    expires.pop(key, None)
                written += 1
            elif kind == "D":
                self._remove(record[1])
            elif kind == "T":
                tombstones += 1
                self._remove(record[1])
            elif kind == "E":
                __, key, deadline_ms = record
                if key in soft_dict:
                    ex = (deadline_ms - now_ms) / 1000.0
                    self._set_expiry(key, now + ex)
            elif kind == "P":
                expires.pop(record[1], None)
            elif kind == "M":
                # demotion only returns bytes to the heap, so it needs no
                # budget and cannot lose the key; with the tier off on
                # this boot the entry stays resident, which the budget
                # gate already allowed
                if soft_dict.tier.enabled:
                    keys = len(soft_dict)
                    self._restoring = record[1]
                    try:
                        soft_dict.demote(record[1])
                    finally:
                        self._restoring = None
                    assert len(soft_dict) == keys, "a replayed M dropped"
            elif kind == "F":
                self._clear()
            # "Z" seals a snapshot; its loader strips it
        return ReplayCounts(written, denied, tombstones)

    def memory_usage(self, key: bytes) -> int | None:
        """MEMORY USAGE: soft + traditional bytes of one key."""
        value = self._peek(key)
        if value is None:
            return None
        return (
            self._entry_size(key, value) + len(key) + value_bytes(value)
        )

    def info(self) -> dict[str, Any]:
        return {
            "keys": len(self._dict),
            "soft_bytes": self.soft_bytes,
            "soft_pages": self.soft_pages,
            "traditional_bytes": self.traditional_bytes,
            "hits": self.stats.hits,
            "misses": self.stats.misses,
            "hit_rate": round(self.stats.hit_rate, 4),
            "expired_keys": self.stats.expired_keys,
            "reclaimed_keys": self.stats.reclaimed_keys,
            # one dict index never rehashes; benchmarks/e2e reads the field
            "keyspace_rehashing": False,
            "evictions": self._dict.evictions,
            "compressed_entries": self._dict.compressed_entries,
            "compressed_bytes": self._dict.compressed_bytes,
        }

    @staticmethod
    def _check_types(key: bytes, value: bytes) -> None:
        if not isinstance(key, bytes) or not isinstance(value, bytes):
            raise TypeError("keys and values must be bytes")

    def __repr__(self) -> str:
        return f"<DataStore {self.name!r} keys={len(self._dict)}>"
