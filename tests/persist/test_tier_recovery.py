"""Second-chance tier × durability: demoted entries survive restarts.

The tier-specific contracts:

* a demoted entry is *not* lost data — it survives a restart, recovered
  back into the compressed tier (from a snapshot's ``C`` value or by
  replaying the AOF's ``M`` demote record), and a read after recovery
  is served from it exactly like before;
* recovery re-admission of a compressed entry is budget-gated at its
  *compressed* size — a budget too small for the inflated value but big
  enough for the compressed bytes keeps the entry;
* a second-chance drop is a real drop: it logs the persistence
  tombstone, so the key stays dropped across a restart;
* booting with the tier disabled still serves recovered-compressed
  entries (inflating on read) — the tier knob gates new demotions, not
  old data.
"""

from __future__ import annotations

import pytest

from repro.core.sma import SoftMemoryAllocator
from repro.daemon.smd import SoftMemoryDaemon
from repro.kvstore.persist.engine import Persistence, PersistenceConfig
from repro.kvstore.store import DataStore, StoreConfig
from repro.kvstore.tier import TierConfig
from repro.kvstore.values import CompressedValue

from tests.fleet import Node

pytestmark = pytest.mark.timeout(300)

TIER_ON = TierConfig(enabled=True)


class FakeUnix:
    def __init__(self, t: float = 1_000_000.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t


def open_persist(
    tmp_path,
    unix: FakeUnix,
    *,
    tier: TierConfig = TIER_ON,
    sma: SoftMemoryAllocator | None = None,
    **config,
) -> tuple[DataStore, Persistence]:
    sma = sma or SoftMemoryAllocator(
        name="tier-recovery", request_batch_pages=1
    )
    store = DataStore(sma, StoreConfig(tier=tier))
    persist = Persistence(
        PersistenceConfig(dir=str(tmp_path), **config), clock=unix
    )
    store.attach_persistence(persist)
    return store, persist


def demote_some(store: DataStore, pages: int = 2) -> list[bytes]:
    """Apply pressure; return the keys that ended up compressed."""
    store.sma.reclaim(pages)
    return [
        k for k, v in store._dict.items() if type(v) is CompressedValue
    ]


def test_demoted_entry_survives_restart_via_aof(tmp_path):
    unix = FakeUnix()
    store, persist = open_persist(tmp_path, unix)
    for i in range(12):
        store.set(b"k%d" % i, b"A" * 2000)
    demoted = demote_some(store)
    assert demoted
    persist.close(final_snapshot=False)  # recovery must replay M records

    store2, persist2 = open_persist(tmp_path, unix)
    # the demotions were replayed: same keys, compressed again
    assert store2._dict.compressed_entries == len(demoted)
    recovered = {
        k for k, v in store2._dict.items() if type(v) is CompressedValue
    }
    assert recovered == set(demoted)
    # a read returns the original bytes, served from the stub: the
    # entry goes back to residency only if the heap owns the room
    assert store2.get(demoted[0]) == b"A" * 2000
    ts = store2._dict.tier_stats
    assert ts.promotions + ts.promotion_denials == 1
    assert store2._dict.compressed_entries == len(demoted) - ts.promotions
    persist2.close()


def test_demoted_entry_survives_restart_via_snapshot(tmp_path):
    unix = FakeUnix()
    store, persist = open_persist(tmp_path, unix)
    for i in range(12):
        store.set(b"k%d" % i, b"B" * 2000)
    demoted = demote_some(store)
    assert demoted
    persist.close(final_snapshot=True)  # W records carry C values

    store2, persist2 = open_persist(tmp_path, unix)
    assert store2._dict.compressed_entries == len(demoted)
    # the tier conservation identity is exact right after recovery
    ts = store2._dict.tier_stats
    assert ts.demotions == store2._dict.compressed_entries
    assert store2.get(demoted[0]) == b"B" * 2000
    persist2.close()


def test_recovery_readmission_gated_at_compressed_size(tmp_path):
    unix = FakeUnix()
    store, persist = open_persist(tmp_path, unix)
    for i in range(12):
        store.set(b"k%d" % i, b"C" * 3000)
    demoted = demote_some(store, pages=3)
    assert len(demoted) >= 2
    resident = [
        k
        for k, v in store._dict.items()
        if type(v) is not CompressedValue
    ]
    persist.close(final_snapshot=True)

    # a budget big enough for every *compressed* entry but nowhere near
    # the ~3 KiB resident ones: compressed entries recover, most
    # resident ones are denied (skipped, not fatal)
    sma = SoftMemoryAllocator(name="tiny", request_batch_pages=1)
    SoftMemoryDaemon(soft_capacity_pages=2).register(sma)
    store2, persist2 = open_persist(tmp_path, unix, sma=sma)
    recovered = {k for k, _ in store2._dict.items()}
    assert set(demoted) <= recovered
    assert persist2.stats.recovery_admission_denied > 0
    assert len(recovered) < len(demoted) + len(resident)
    persist2.close()


def test_second_chance_drop_stays_dropped(tmp_path):
    unix = FakeUnix()
    store, persist = open_persist(tmp_path, unix)
    for i in range(8):
        store.set(b"k%d" % i, b"D" * 2000)
    # evict until everything demoted AND second-chance dropped
    while store._dict.evict_one():
        pass
    ts = store._dict.tier_stats
    assert ts.second_chance_drops == 8
    assert persist.stats.tombstones_logged == 8
    persist.close(final_snapshot=False)

    store2, persist2 = open_persist(tmp_path, unix)
    assert store2.dbsize() == 0  # tombstones beat the older W+M records
    assert store2._dict.compressed_entries == 0
    persist2.close()


def test_tier_off_boot_still_serves_recovered_compressed(tmp_path):
    unix = FakeUnix()
    store, persist = open_persist(tmp_path, unix)
    for i in range(12):
        store.set(b"k%d" % i, b"E" * 2000)
    demoted = demote_some(store)
    assert demoted
    persist.close(final_snapshot=True)

    store2, persist2 = open_persist(tmp_path, unix, tier=TierConfig())
    # no new demotions happen, but the recovered compressed entries are
    # adopted, readable, and still reclaimable under pressure
    assert store2._dict.compressed_entries == len(demoted)
    assert store2.get(demoted[0]) == b"E" * 2000
    before = store2._dict.tier_stats.second_chance_drops
    while store2._dict.evict_one():
        pass
    assert store2._dict.compressed_entries == 0
    assert store2._dict.tier_stats.second_chance_drops > before
    persist2.close()


def test_aof_replay_with_tier_off_skips_demote_records(tmp_path):
    unix = FakeUnix()
    store, persist = open_persist(tmp_path, unix)
    for i in range(12):
        store.set(b"k%d" % i, b"F" * 2000)
    demoted = demote_some(store)
    assert demoted
    persist.close(final_snapshot=False)  # leave M records in the AOF

    store2, persist2 = open_persist(tmp_path, unix, tier=TierConfig())
    # M records are no-ops on a tier-off boot: everything resident
    assert store2._dict.compressed_entries == 0
    assert store2.get(demoted[0]) == b"F" * 2000
    persist2.close()


def test_demoted_entries_survive_a_real_server_restart(tmp_path):
    """The crash-harness variant: a real subprocess demotes under a
    ``MEMORY PURGE`` pressure wave; a SIGTERM restart serves every key,
    the compressed ones recovered back into the tier."""
    node = Node("kv", str(tmp_path), "process", durable=True).start()
    written = [f"key-{i:04d}" for i in range(40)]
    try:
        for k in written:
            assert str(node.call("SET", k, "V" * 2000)) == "OK"
        node.call("MEMORY", "PURGE", "8")
        info = node.info()
        assert info["tier.demotions"] > 0, "the purge wave never demoted anything"
        assert info["reclaimed_keys"] == 0  # demoted, not lost
        for k in written:  # every key still served pre-restart
            assert node.call("GET", k) == b"V" * 2000
        # a read does not grow the heap, so most stay compressed and
        # the restart exercises compressed-entry recovery
        compressed_before = node.info()["compressed_entries"]
        assert compressed_before > 0
        node.down(graceful=True)  # final snapshot carries C values

        node.start()
        assert node.info()["compressed_entries"] == compressed_before
        for k in written:  # nothing was lost across the restart
            assert node.call("GET", k) == b"V" * 2000
        info = node.info()
        served = info["tier.promotions"] + info["tier.promotion_denials"]
        assert served == compressed_before  # each read from its stub
        assert info["compressed_entries"] == (
            compressed_before - info["tier.promotions"]
        )
    finally:
        node.down(graceful=True)


def test_second_chance_drops_stay_dropped_across_real_restart(tmp_path):
    """Purge past the tier's capacity: the dropped keys' tombstones hold
    across a restart (no resurrection from their older W/M records)."""
    node = Node("kv", str(tmp_path), "process", durable=True).start()
    written = [f"key-{i:04d}" for i in range(20)]
    try:
        for k in written:
            assert str(node.call("SET", k, "W" * 2000)) == "OK"
        # demote everything, then keep purging until drops happen
        node.call("MEMORY", "PURGE", "64")
        drops = node.info()["tier.second_chance_drops"]
        assert drops > 0, "the purge never reached the drop stage"
        gone = [k for k in written if node.call("GET", k) is None]
        assert len(gone) == drops
        node.down(graceful=True)

        node.start()
        for k in gone:  # dropped data stays dropped
            assert node.call("GET", k) is None
        for k in written:
            if k not in gone:
                assert node.call("GET", k) == b"W" * 2000
    finally:
        node.down(graceful=True)
