"""One way back into a store: ``read_records`` and ``DataStore.replay``.

Three things are pinned here.

* **The golden replay digest.** One seeded stream — all seven record
  kinds, every value type, past and future deadlines, ``EXP_KEEP``, a
  budget that denies some writes — goes through both replay callers:
  the replica batch step (``apply_stream``, fed in socket-sized chunks)
  and ``Persistence`` recovery of the same bytes. The expected digest
  and counts were generated at commit d67adf9 from the two apply paths
  that existed then (``link.apply_record`` and
  ``Persistence._apply_record``), regenerated twice since (see
  ``GOLDEN_DIGEST``), and must not move.
* **Tombstones during an apply.** A key the replica's own budget
  reclaims while a batch is applied gets its ``T`` in the local AOF,
  after the batch's raw bytes, so a restart cannot resurrect it.
* **One reader.** ``load_aof``, the snapshot loader and the replica link
  agree on where the valid prefix of a byte run ends.
"""

from __future__ import annotations

import hashlib
import os
import random
import select
import socket
import time
from collections import Counter, deque

import pytest

from repro.core.sma import SoftMemoryAllocator
from repro.daemon.policy import SelectionConfig
from repro.daemon.smd import SmdConfig, SoftMemoryDaemon
from repro.kvstore.persist.aof import load_aof
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
    encode_trailer,
    encode_write,
    frame,
    read_records,
)
from repro.kvstore.persist.engine import Persistence, PersistenceConfig
from repro.kvstore.persist.snapshot import load_snapshot_bytes
from repro.kvstore.repl import (
    ReplicaLink,
    ReplicationState,
    SyncHandshake,
    apply_stream,
)
from repro.kvstore.repl.link import _ACK_EVERY
from repro.kvstore.store import DataStore, StoreConfig
from repro.kvstore.tier import TierConfig, deflate_value
from repro.kvstore.values import CompressedValue, type_name

NOW_MS = 1_000_000_000
UNIX = lambda: NOW_MS / 1000.0  # noqa: E731 - the planes' wall clock
STORE_NOW = lambda: 5000.0  # noqa: E731 - the store's TTL clock
TIER = TierConfig(enabled=True)


def replica_of(store: DataStore, tmp_path) -> tuple[ReplicationState, Persistence]:
    """Make ``store`` a replica with its own AOF, as ``tcp.py`` would."""
    persist = Persistence(PersistenceConfig(dir=str(tmp_path)), clock=UNIX)
    store.attach_persistence(persist)
    state = ReplicationState()
    state.become_replica("127.0.0.1", 1)
    store.repl = state
    return state, persist


# ----------------------------------------------------------------------
# the golden replay digest
# ----------------------------------------------------------------------

GOLDEN_KEYS = [b"key:%03d" % i for i in range(200)]
GOLDEN_RECORDS = 6000
GOLDEN_PAGES = 60
#: identical for both callers, so one constant serves both here.
#: Generated at d67adf9 as 65d61779… with 350 denials; regenerated when
#: demotion became a relocation that cannot fail, because only demote
#: placement moved: a replayed ``M`` now frees the victim's extent
#: *before* placing the stub (it used to place first), the 648 stubs
#: land in other holes, and under the 60-page budget 17 more ``W``
#: records find no room (367). Records, kinds, tombstones, expiries and
#: the 648 demotions are as before; nothing in this stream reads, so
#: promote admission does not show here. Regenerated again (from
#: df64d406…, 367 denials, 3218 keys) when a size-changing overwrite
#: began to resize in place whenever its page has room — a shrink frees
#: its tail, a grow takes the free extent behind it — and to free then
#: place only otherwise. The stream is unchanged; only where overwrites
#: land moved. Values here swing 40 B ↔ 3 KiB under a 60-page budget
#: that binds, and a shrink kept in place leaves its page partly live
#: outside the scan window instead of draining it, so 127 more ``W``
#: records find no room (494) and 127 fewer keys survive (3091).
GOLDEN_DIGEST = "29a1cc92d2f52e6de1fee6af803a81d08c5e7e681d4772b3e33cdc56b50df40e"
GOLDEN_KINDS = {"W": 3585, "E": 490, "M": 649, "T": 486, "D": 490, "P": 298, "F": 2}
GOLDEN_DENIED = 494
GOLDEN_RECOVERED_KEYS = 3091
GOLDEN_EXPIRED_DROPPED = 16


def golden_value(rng: random.Random):
    shape = rng.random()
    if shape < 0.45:
        return bytes([rng.randrange(97, 123)]) * rng.randrange(40, 3000)
    if shape < 0.60:
        return rng.randbytes(rng.randrange(16, 1500))
    if shape < 0.75:
        return {
            b"f%d" % n: bytes([rng.randrange(65, 91)]) * rng.randrange(1, 200)
            for n in range(rng.randrange(1, 9))
        }
    if shape < 0.90:
        return deque(
            bytes([rng.randrange(48, 58)]) * rng.randrange(1, 150)
            for __ in range(rng.randrange(1, 11))
        )
    plain = bytes([rng.randrange(97, 123)]) * rng.randrange(200, 4000)
    compressed = deflate_value(plain, TIER)
    assert compressed is not None
    return compressed


def golden_stream() -> tuple[bytes, Counter]:
    rng = random.Random(20260928)
    out = bytearray()
    kinds: Counter = Counter()
    for index in range(GOLDEN_RECORDS):
        key = rng.choice(GOLDEN_KEYS)
        roll = rng.random()
        if index in (1500, 4200):
            encode_flush(out)
            kinds["F"] += 1
        elif roll < 0.60:
            value = golden_value(rng)
            clause = rng.random()
            if clause < 0.55:
                encode_write(out, key, value, EXP_NONE)
            elif clause < 0.75:
                encode_write(out, key, value, EXP_KEEP)
            elif clause < 0.90:
                encode_write(
                    out, key, value, EXP_ABSOLUTE,
                    NOW_MS + rng.randrange(1, 600_000),
                )
            else:
                encode_write(
                    out, key, value, EXP_ABSOLUTE,
                    NOW_MS - rng.randrange(0, 60_000),
                )
            kinds["W"] += 1
        elif roll < 0.68:
            encode_delete(out, key)
            kinds["D"] += 1
        elif roll < 0.76:
            encode_tombstone(out, key)
            kinds["T"] += 1
        elif roll < 0.85:
            past = rng.random() < 0.3
            delta = rng.randrange(0, 600_000)
            encode_expire(out, key, NOW_MS - delta if past else NOW_MS + delta)
            kinds["E"] += 1
        elif roll < 0.90:
            encode_persist(out, key)
            kinds["P"] += 1
        else:
            encode_demote(out, key)
            kinds["M"] += 1
    return bytes(out), kinds


def golden_store() -> DataStore:
    sma = SoftMemoryAllocator(name="golden", request_batch_pages=1)
    SoftMemoryDaemon(soft_capacity_pages=GOLDEN_PAGES).register(sma)
    return DataStore(sma, StoreConfig(tier=TIER, time_fn=STORE_NOW))


def canonical(value):
    if type(value) is CompressedValue:
        return ("C", value.kind, value.original_bytes, value.data)
    if isinstance(value, dict):
        return sorted(value.items())
    if isinstance(value, deque):
        return list(value)
    return value


def state_digest(store: DataStore) -> str:
    """SHA-256 over the swept keyspace, the ledgers and the SMA counters."""
    store.sweep_expired()  # recovery already did; the replica did not
    digest = hashlib.sha256()
    soft_dict = store.keyspace
    for key in sorted(soft_dict.keys()):
        value = soft_dict.get(key)
        digest.update(repr(
            (key, type_name(value), canonical(value), store.pttl(key))
        ).encode())
    digest.update(repr((
        store.traditional_bytes,
        store.soft_bytes,
        soft_dict.compressed_entries,
        store.sma.stats.allocations,
        store.sma.stats.frees,
    )).encode())
    store.sma.check_invariants()
    return digest.hexdigest()


@pytest.fixture(scope="module")
def golden() -> bytes:
    raw, kinds = golden_stream()
    assert dict(kinds) == GOLDEN_KINDS  # the generator itself has not moved
    return raw


def test_golden_digest_through_the_replica_batch_step(tmp_path, golden):
    store = golden_store()
    state, persist = replica_of(store, tmp_path)
    # byte-chunked like a socket: frames straddle the reads
    rng = random.Random(7)
    buf = bytearray()
    position = 0
    while position < len(golden):
        step = rng.randrange(1, 9000)
        buf += golden[position:position + step]
        position += step
        del buf[:apply_stream(store, state, bytes(buf), NOW_MS)]
    assert not buf
    persist.flush()
    assert state.applied_records == GOLDEN_RECORDS
    assert state.master_repl_offset == len(golden)
    assert state.apply_denied == GOLDEN_DENIED
    assert state.tombstones_applied == GOLDEN_KINDS["T"]
    # no budget pressure from outside and no self-reclaim: the local AOF
    # is the stream, byte for byte
    assert persist.aof_size == len(golden)
    assert persist.stats.tombstones_logged == 0
    assert store.stats.reclaimed_keys == 0
    assert store.stats.keys_set == 0
    assert state_digest(store) == GOLDEN_DIGEST
    persist.close()


def test_golden_digest_through_recovery(tmp_path, golden):
    with open(tmp_path / "incr-0.aof", "wb") as fh:
        fh.write(golden)
    store = golden_store()
    persist = Persistence(PersistenceConfig(dir=str(tmp_path)), clock=UNIX)
    store.attach_persistence(persist)
    stats = persist.stats
    assert stats.recovery_truncated_bytes == 0
    assert stats.recovered_records == GOLDEN_RECORDS
    assert stats.recovered_keys == GOLDEN_RECOVERED_KEYS
    assert stats.recovery_admission_denied == GOLDEN_DENIED
    assert stats.recovery_expired_dropped == GOLDEN_EXPIRED_DROPPED
    assert store.stats.reclaimed_keys == 0
    assert store.stats.keys_set == 0
    assert state_digest(store) == GOLDEN_DIGEST
    persist.flush()
    assert persist.aof_size == len(golden)  # replay appended nothing
    persist.close()


# ----------------------------------------------------------------------
# a key reclaimed during a replica apply keeps its tombstone
# ----------------------------------------------------------------------


def self_reclaiming_sma(pages: int) -> SoftMemoryAllocator:
    sma = SoftMemoryAllocator(name="tight", request_batch_pages=1)
    SoftMemoryDaemon(
        soft_capacity_pages=pages,
        config=SmdConfig(selection=SelectionConfig(allow_self_reclaim=True)),
    ).register(sma)
    return sma


def restarted(tmp_path, tier: TierConfig) -> DataStore:
    """Recover ``tmp_path`` under an ample budget."""
    store = DataStore(SoftMemoryAllocator(name="ample"), StoreConfig(tier=tier))
    store.attach_persistence(
        Persistence(PersistenceConfig(dir=str(tmp_path)), clock=UNIX)
    )
    return store


@pytest.mark.parametrize("tier", [TierConfig(), TIER], ids=["tier-off", "tier-on"])
def test_reclaimed_during_replica_apply_stays_dropped(tmp_path, tier):
    store = DataStore(self_reclaiming_sma(pages=8), StoreConfig(tier=tier))
    state, persist = replica_of(store, tmp_path)
    keys = [b"key-%03d" % i for i in range(200)]
    out = bytearray()
    for index, key in enumerate(keys):
        encode_write(out, key, bytes([65 + index % 26]) * 3000, EXP_NONE)
    raw = bytes(out)
    assert apply_stream(store, state, raw, NOW_MS) == len(raw)
    persist.flush()

    live = set(store.keyspace.keys())
    reclaimed = set(keys) - live
    assert state.apply_denied == 0
    assert store.stats.reclaimed_keys == len(reclaimed) > 100
    assert persist.stats.tombstones_logged == len(reclaimed)
    if not tier.enabled:
        assert len(live) == 8  # one 3000-byte entry per page
    persist.close()

    # the local AOF: the batch's raw bytes first, then what it cost
    with open(persist.aof_path, "rb") as fh:
        logged = fh.read()
    assert logged.startswith(raw)
    tail, valid = read_records(logged[len(raw):])
    assert valid == len(logged) - len(raw)
    assert {record[1] for record in tail if record[0] == "T"} == reclaimed
    assert {record[0] for record in tail} <= {"T", "M"}
    assert ("M" in {record[0] for record in tail}) == tier.enabled

    # ... so a restart with room for everything resurrects nothing
    assert set(restarted(tmp_path, tier).keyspace.keys()) == live


def test_rewritten_after_reclaim_in_one_batch_is_a_miss_after_restart(tmp_path):
    """The documented price of raw-bytes-first: the ``T`` of a key the
    batch itself wrote again lands after both of its ``W`` records, so
    a restart loses the key (a miss) rather than risk resurrecting it."""
    store = DataStore(self_reclaiming_sma(pages=2))
    state, persist = replica_of(store, tmp_path)
    out = bytearray()
    for key in (b"first", b"second", b"third", b"first"):
        encode_write(out, key, b"v" * 3000, EXP_NONE)
    assert apply_stream(store, state, bytes(out), NOW_MS) == len(out)
    persist.flush()
    assert set(store.keyspace.keys()) == {b"third", b"first"}
    persist.close()
    assert set(restarted(tmp_path, TierConfig()).keyspace.keys()) == {b"third"}


# ----------------------------------------------------------------------
# one reader: the three callers agree on the valid prefix
# ----------------------------------------------------------------------


def sealed_body() -> bytes:
    """A snapshot body: also a well-formed log and stream."""
    out = bytearray()
    encode_write(out, b"plain", b"value", EXP_NONE)
    encode_write(out, b"hash", {b"f": b"1"}, EXP_ABSOLUTE, NOW_MS + 5000)
    encode_write(out, b"list", deque([b"a", b"b"]), EXP_NONE)
    encode_trailer(out, 3, NOW_MS)
    return bytes(out)


def valid_size_seen_by_load_aof(tmp_path, data: bytes) -> int:
    path = str(tmp_path / "cut.aof")
    with open(path, "wb") as fh:
        fh.write(data)
    records, truncated = load_aof(path)
    assert os.path.getsize(path) == len(data) - truncated
    return len(data) - truncated


def valid_size_seen_by_the_link(data: bytes) -> int:
    store = DataStore(SoftMemoryAllocator(name="reader"))
    state = ReplicationState()
    state.become_replica("127.0.0.1", 1)
    valid = apply_stream(store, state, data, NOW_MS)
    assert state.master_repl_offset == valid
    return valid


def test_every_truncation_gives_all_three_callers_one_valid_size(tmp_path):
    body = sealed_body()
    boundaries = set()
    for cut in range(len(body) + 1):
        data = body[:cut]
        records, valid = read_records(data)
        assert valid <= cut
        boundaries.add(valid)
        assert valid_size_seen_by_load_aof(tmp_path, data) == valid
        assert valid_size_seen_by_the_link(data) == valid
        # a snapshot is all or nothing: valid to the last byte and sealed
        assert (load_snapshot_bytes(data) is not None) == (cut == len(body))
    assert len(boundaries) == 5  # empty + one per frame


def test_undecodable_payload_ends_the_prefix_for_all_three_callers(tmp_path):
    good = bytearray()
    encode_write(good, b"before", b"v", EXP_NONE)
    head = len(good)
    # the CRC passes, the payload does not decode
    data = bytes(good) + frame(b"Qmystery") + sealed_body()
    records, valid = read_records(data)
    assert (len(records), valid) == (1, head)
    assert valid_size_seen_by_load_aof(tmp_path, data) == head
    assert valid_size_seen_by_the_link(data) == head
    assert load_snapshot_bytes(data) is None

    # the link itself: the good prefix is applied and acked, then the
    # complete-yet-unreadable frame is corruption on the wire — resync
    store = DataStore(SoftMemoryAllocator(name="link"))
    state = ReplicationState()
    state.become_replica("127.0.0.1", 1)
    link = ReplicaLink(store, state, select.poll())
    ours, theirs = socket.socketpair()
    link.sock = ours
    try:
        theirs.sendall(data)
        with pytest.raises(ConnectionError, match="corrupt replication stream"):
            link._receive()
        assert state.master_repl_offset == head
        assert store.get(b"before") == b"v"
        assert theirs.recv(256).endswith(b"\r\n%d\r\n" % head)  # the ACK
    finally:
        ours.close()
        theirs.close()


CONTINUE = b"+CONTINUE\r\n"


class ScriptedSocket:
    """``recv`` hands out the scripted reads, then says the master left."""

    def __init__(self, reads) -> None:
        self.reads = [read for read in reads if read]
        self.acks: list[int] = []

    def recv(self, size: int) -> bytes:
        return self.reads.pop(0) if self.reads else b""

    def sendall(self, data: bytes) -> None:
        self.acks.append(int(data.split(b"\r\n")[-2]))


@pytest.mark.parametrize("leftover", [False, True])
def test_the_link_carries_a_torn_frame_over_at_every_split(leftover):
    """A read that ends mid-frame: the link applies what is whole, acks
    it, and keeps only the tail for the next read — whether the first
    piece came from a ``recv`` or was left over by the handshake."""
    body = sealed_body()
    __, whole = read_records(body)
    for cut in range(len(body) + 1):
        store = DataStore(SoftMemoryAllocator(name="carry"))
        state = ReplicationState()
        state.become_replica("127.0.0.1", 1)
        link = ReplicaLink(store, state, select.poll())
        head, tail = body[:cut], body[cut:]
        reads = [CONTINUE + head, tail] if leftover else [CONTINUE, head, tail]
        link.sock = sock = ScriptedSocket(reads)
        link._handshake = SyncHandshake()  # where the PSYNC left it
        with pytest.raises(ConnectionError, match="master closed"):
            while True:  # one readable event each
                link._receive()
        assert state.master_repl_offset == whole == len(body), cut
        assert store.get(b"plain") == b"value"
        # every ack at a frame boundary, strictly increasing; a read
        # applied inside _ACK_EVERY of the last ack owes one, which the
        # timer sends at the last applied offset
        time.sleep(_ACK_EVERY)
        link.tick()
        assert sock.acks == sorted(set(sock.acks)) and sock.acks[-1] == whole
        assert all(read_records(body[:ack])[1] == ack for ack in sock.acks)
