"""Crash-free restart recovery: snapshots + AOF replay through the store.

The soft-memory-specific contracts live here:

* reclaimed entries leave tombstones, so dropped data stays dropped
  across a restart (no resurrection from older log records);
* recovery re-admits entries only as far as the soft budget allows —
  a denied or degraded allocation skips the entry and keeps replaying;
* TTLs are logged as absolute unix deadlines, so a restart never
  extends a key's life, and keys already past deadline are dropped
  during replay.
"""

from __future__ import annotations

import os

import pytest

from repro.core.sma import SoftMemoryAllocator
from repro.daemon.smd import SoftMemoryDaemon
from repro.kvstore.persist.codec import (
    EXP_NONE,
    encode_delete,
    encode_write,
)
from repro.kvstore.persist.engine import Persistence, PersistenceConfig
from repro.kvstore.store import DataStore, StoreConfig
from repro.sim.clock import SimClock
from repro.util.units import PAGE_SIZE


class FakeUnix:
    """Controllable wall clock (seconds) for the persistence plane."""

    def __init__(self, t: float = 1_000_000.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t


def make_store(sma: SoftMemoryAllocator | None = None):
    clock = SimClock()
    sma = sma or SoftMemoryAllocator(
        name="recovery-test", request_batch_pages=1
    )
    store = DataStore(sma, StoreConfig(time_fn=lambda: clock.now))
    return store, clock


def open_persist(
    tmp_path, unix: FakeUnix, sma=None, **config
) -> tuple[DataStore, Persistence]:
    store, __ = make_store(sma)
    persist = Persistence(
        PersistenceConfig(dir=str(tmp_path), **config), clock=unix
    )
    store.attach_persistence(persist)
    return store, persist


def test_basic_round_trip(tmp_path):
    unix = FakeUnix()
    store, persist = open_persist(tmp_path, unix)
    store.set(b"s", b"string")
    store.hset(b"h", {b"f": b"1", b"g": b"2"})
    store.rpush(b"l", b"a", b"b", b"c")
    store.set(b"gone", b"x")
    store.delete(b"gone")
    persist.close()

    store2, persist2 = open_persist(tmp_path, unix)
    assert store2.get(b"s") == b"string"
    assert store2.hgetall(b"h") == {b"f": b"1", b"g": b"2"}
    assert store2.lrange(b"l", 0, -1) == [b"a", b"b", b"c"]
    assert store2.get(b"gone") is None
    assert store2.dbsize() == 3
    assert persist2.stats.recovery_truncated_bytes == 0
    persist2.close()


def test_recovery_does_not_relog_replayed_records(tmp_path):
    unix = FakeUnix()
    store, persist = open_persist(tmp_path, unix)
    for i in range(20):
        store.set(b"k%d" % i, b"v")
    persist.close()
    size_before = os.path.getsize(os.path.join(str(tmp_path), "incr-0.aof"))

    __, persist2 = open_persist(tmp_path, unix)
    persist2.flush(force_fsync=True)
    assert persist2.stats.aof_records == 0  # replay is not re-appended
    assert os.path.getsize(persist2.aof_path) == size_before
    persist2.close()


def test_ttl_is_absolute_never_extended(tmp_path):
    unix = FakeUnix(t=1_000.0)
    store, persist = open_persist(tmp_path, unix)
    store.set(b"lease", b"v", ex=50.0)
    persist.close()

    unix.t = 1_030.0  # 30 wall seconds pass while the process is down
    store2, persist2 = open_persist(tmp_path, unix)
    remaining = store2.pttl(b"lease")
    # only ~20 s of the original 50 survive the restart
    assert 19_000 <= remaining <= 20_000
    persist2.close()


def test_expired_key_dropped_during_replay(tmp_path):
    unix = FakeUnix(t=1_000.0)
    store, persist = open_persist(tmp_path, unix)
    store.set(b"dead", b"v", ex=5.0)
    store.set(b"alive", b"v", ex=500.0)
    persist.close()

    unix.t = 1_030.0
    store2, persist2 = open_persist(tmp_path, unix)
    assert store2.get(b"dead") is None
    assert store2.get(b"alive") == b"v"
    assert persist2.stats.recovery_expired_dropped == 1
    assert store2.dbsize() == 1
    persist2.close()


def test_keep_ttl_rewrite_preserves_original_deadline(tmp_path):
    unix = FakeUnix(t=1_000.0)
    store, persist = open_persist(tmp_path, unix)
    store.set(b"k", b"old", ex=100.0)
    store.set(b"k", b"new", keep_ttl=True)  # value changes, lease doesn't
    persist.close()

    unix.t = 1_030.0
    store2, persist2 = open_persist(tmp_path, unix)
    assert store2.get(b"k") == b"new"
    remaining = store2.pttl(b"k")
    assert 69_000 <= remaining <= 70_000
    persist2.close()


def test_persist_clears_ttl_durably(tmp_path):
    unix = FakeUnix(t=1_000.0)
    store, persist = open_persist(tmp_path, unix)
    store.set(b"k", b"v", ex=5.0)
    assert store.persist(b"k")
    persist.close()

    unix.t = 1_030.0  # far past the (cancelled) deadline
    store2, persist2 = open_persist(tmp_path, unix)
    assert store2.get(b"k") == b"v"
    assert store2.ttl(b"k") == -1
    persist2.close()


def test_expire_command_replays_as_deadline(tmp_path):
    unix = FakeUnix(t=1_000.0)
    store, persist = open_persist(tmp_path, unix)
    store.set(b"k", b"v")
    store.expire(b"k", 40.0)
    persist.close()

    unix.t = 1_010.0
    store2, persist2 = open_persist(tmp_path, unix)
    remaining = store2.pttl(b"k")
    assert 29_000 <= remaining <= 30_000
    persist2.close()


def test_flushall_replays(tmp_path):
    unix = FakeUnix()
    store, persist = open_persist(tmp_path, unix)
    store.set(b"before1", b"x")
    store.set(b"before2", b"x")
    store.flushall()
    store.set(b"after", b"y")
    persist.close()

    store2, persist2 = open_persist(tmp_path, unix)
    assert store2.keys() == [b"after"]
    persist2.close()


def test_tombstones_keep_reclaimed_keys_dropped(tmp_path):
    """The log must never resurrect what soft memory took away."""
    unix = FakeUnix()
    store, persist = open_persist(tmp_path, unix)
    for i in range(16):
        store.set(b"key-%02d" % i, b"v" * PAGE_SIZE)
    stats = store.sma.reclaim(store.sma.held_pages // 2)
    assert stats.allocations_freed > 0
    assert store.stats.reclaimed_keys == stats.allocations_freed
    live = set(store.keys())
    assert len(live) < 16
    persist.close()

    # restart with a fresh, unlimited SMA: plenty of room to resurrect
    store2, persist2 = open_persist(tmp_path, unix)
    assert set(store2.keys()) == live
    assert persist2.stats.recovered_keys >= len(live)
    persist2.close()


def test_reclaimed_then_rewritten_key_survives(tmp_path):
    """W → T → W must replay to the final write, not the tombstone."""
    unix = FakeUnix()
    store, persist = open_persist(tmp_path, unix)
    store.set(b"phoenix", b"first")
    store.sma.reclaim(store.sma.held_pages)  # tombstones everything
    assert store.get(b"phoenix") is None
    store.set(b"phoenix", b"second")
    persist.close()

    store2, persist2 = open_persist(tmp_path, unix)
    assert store2.get(b"phoenix") == b"second"
    persist2.close()


def test_recovery_admission_gated_by_soft_budget(tmp_path):
    """Replay into a smaller budget: skip, count, keep going."""
    unix = FakeUnix()
    store, persist = open_persist(tmp_path, unix)
    payload = b"x" * PAGE_SIZE  # one entry ≈ one page: easy to gate
    for i in range(12):
        store.set(b"big-%02d" % i, payload)
    persist.close()

    sma = SoftMemoryAllocator(name="tight", request_batch_pages=1)
    SoftMemoryDaemon(soft_capacity_pages=4).register(sma)
    store2, persist2 = open_persist(tmp_path, unix, sma=sma)
    denied = persist2.stats.recovery_admission_denied
    admitted = persist2.stats.recovered_keys
    assert denied > 0
    assert admitted + denied == 12
    assert store2.dbsize() == admitted
    # the store still serves what fit
    assert all(store2.get(k) == payload for k in store2.keys())
    persist2.close()


def test_degraded_mode_recovery_never_crashes(tmp_path):
    """Degraded SMA (RPC plane down): every re-admission fails fast."""
    unix = FakeUnix()
    store, persist = open_persist(tmp_path, unix)
    for i in range(8):
        store.set(b"k%d" % i, b"v" * PAGE_SIZE)
    persist.close()

    sma = SoftMemoryAllocator(name="degraded", request_batch_pages=1)
    sma.mark_degraded(True)  # no local budget, no daemon grants allowed
    store2, persist2 = open_persist(tmp_path, unix, sma=sma)
    assert persist2.stats.recovery_admission_denied == 8
    assert store2.dbsize() == 0
    # the store is up and serving; misses are the caching contract
    assert store2.get(b"k0") is None
    persist2.close()


def test_checkpoint_rotates_generation_and_recovers(tmp_path):
    unix = FakeUnix()
    store, persist = open_persist(tmp_path, unix)
    for i in range(5):
        store.set(b"pre-%d" % i, b"v")
    persist.checkpoint()
    gen = persist.generation
    store.set(b"post", b"w")
    persist.close()
    names = sorted(os.listdir(tmp_path))
    assert f"base-{gen}.snap" in names
    assert f"incr-{gen}.aof" in names

    store2, persist2 = open_persist(tmp_path, unix)
    assert store2.dbsize() == 6
    assert store2.get(b"post") == b"w"
    assert persist2.generation == gen
    persist2.close()


def test_a_snapshot_keeps_the_reclaim_order(tmp_path):
    """A base file lists the keyspace oldest write first, so a restart
    from it reclaims the key written least recently, not the one
    inserted first."""
    unix = FakeUnix()
    store, persist = open_persist(tmp_path, unix)
    store.set(b"a", b"first")
    store.set(b"b", b"second")
    store.set(b"a", b"third")
    persist.checkpoint()
    gen = persist.generation
    persist.close()
    assert os.path.getsize(tmp_path / f"incr-{gen}.aof") == 0  # no tail

    store2, persist2 = open_persist(tmp_path, unix)
    assert persist2.stats.recovered_keys == 2
    assert store2.keyspace.evict_one()
    assert store2.get(b"b") is None
    assert store2.get(b"a") == b"third"
    persist2.close()


def test_corrupt_newest_base_falls_back_to_older(tmp_path):
    unix = FakeUnix()
    store, persist = open_persist(tmp_path, unix)
    store.set(b"a", b"1")
    persist.checkpoint()  # base-1
    store.set(b"b", b"2")
    persist.checkpoint()  # base-2
    store.set(b"c", b"3")
    persist.close()

    newest = os.path.join(str(tmp_path), "base-2.snap")
    with open(newest, "r+b") as fh:
        fh.truncate(os.path.getsize(newest) - 3)  # torn trailer

    store2, persist2 = open_persist(tmp_path, unix)
    # base-1 + incr-1 + incr-2 reconstruct everything base-2 held
    assert store2.get(b"a") == b"1"
    assert store2.get(b"b") == b"2"
    assert store2.get(b"c") == b"3"
    assert persist2.stats.snapshots_rejected == 1
    assert not os.path.exists(newest)  # rejected files are removed
    persist2.close()


def test_mid_chain_corruption_drops_orphan_logs(tmp_path):
    """Bytes past a corruption point are unsafe — even whole later files."""
    first = bytearray()
    encode_write(first, b"ok", b"v", EXP_NONE)
    garbage = b"\xde\xad\xbe\xef" * 8
    with open(tmp_path / "incr-0.aof", "wb") as fh:
        fh.write(bytes(first) + garbage)
    orphan = bytearray()
    encode_write(orphan, b"orphan", b"v", EXP_NONE)
    encode_delete(orphan, b"ok")
    with open(tmp_path / "incr-1.aof", "wb") as fh:
        fh.write(bytes(orphan))
    orphan_size = os.path.getsize(tmp_path / "incr-1.aof")

    unix = FakeUnix()
    store, persist = open_persist(tmp_path, unix)
    assert store.get(b"ok") == b"v"  # valid prefix replayed
    assert store.get(b"orphan") is None  # orphan log discarded
    assert not os.path.exists(tmp_path / "incr-1.aof")
    assert persist.stats.recovery_truncated_bytes == (
        len(garbage) + orphan_size
    )
    persist.close()


def test_recovery_from_empty_dir(tmp_path):
    unix = FakeUnix()
    store, persist = open_persist(tmp_path, unix)
    assert store.dbsize() == 0
    assert persist.stats.recovered_records == 0
    store.set(b"k", b"v")
    persist.close()
    assert os.path.getsize(persist.aof_path) > 0


def test_stale_tmp_files_are_swept(tmp_path):
    (tmp_path / "base-7.snap.tmp").write_bytes(b"half a snapshot")
    unix = FakeUnix()
    __, persist = open_persist(tmp_path, unix)
    assert not os.path.exists(tmp_path / "base-7.snap.tmp")
    persist.close()


def test_appendonly_off_still_snapshots(tmp_path):
    unix = FakeUnix()
    store, persist = open_persist(tmp_path, unix, appendonly=False)
    store.set(b"k", b"v")
    assert not persist.aof_enabled
    persist.close(final_snapshot=True)

    store2, persist2 = open_persist(tmp_path, unix, appendonly=False)
    assert store2.get(b"k") == b"v"
    persist2.close()


def test_close_is_idempotent(tmp_path):
    unix = FakeUnix()
    store, persist = open_persist(tmp_path, unix)
    store.set(b"k", b"v")
    persist.close(final_snapshot=True)
    persist.close(final_snapshot=True)  # second close: clean no-op
    persist.close()
    assert persist.closed
