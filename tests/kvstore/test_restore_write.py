"""``DataStore.replay``: replayed writes are overwrites.

Both replay callers — a replica applying the master's stream
(``apply_stream``) and ``Persistence`` recovering its log — hand every
``W`` record to ``DataStore.replay``, which overwrites through
``SoftDict.upsert`` (one lookup, same-size writes in place, size changes
through the handle). The contract that must survive a budget too small
to re-admit the new value:

* the key is absent, ``traditional_bytes`` and ``_expires`` are exact;
* the caller counts a denial (``apply_denied`` /
  ``recovery_admission_denied``); ``stats.reclaimed_keys`` is untouched;
* nothing is logged — the replica's AOF holds exactly the stream bytes.

A replayed ``M`` is the other record that moves an extent. It relocates
the entry at compressed size inside the pages the heap owns and cannot
lose it — it used to drop the key, without a tombstone, whenever the
stub found no extent.
"""

from __future__ import annotations

import pytest

from repro.core.sma import SoftMemoryAllocator
from repro.daemon.smd import SoftMemoryDaemon
from repro.kvstore.persist.codec import (
    EXP_ABSOLUTE,
    EXP_NONE,
    encode_demote,
    encode_write,
)
from repro.kvstore.persist.engine import Persistence, PersistenceConfig
from repro.kvstore.repl import ReplicationState, apply_stream
from repro.kvstore.store import DataStore, StoreConfig
from repro.kvstore.tier import TierConfig
from repro.kvstore.values import CompressedValue

NOW_MS = 1_000_000_000
UNIX = lambda: NOW_MS / 1000.0  # noqa: E731 - the planes' wall clock

K1, K2 = b"anchor", b"victim"
#: K1 and the first K2 share one page; the second K2 cannot join them
ANCHOR, SMALL, LARGE = b"a" * 3000, b"s" * 800, b"L" * 3500


def tight_sma(pages: int) -> SoftMemoryAllocator:
    sma = SoftMemoryAllocator(name="tight", request_batch_pages=1)
    SoftMemoryDaemon(soft_capacity_pages=pages).register(sma)
    return sma


def stream_of(*writes) -> bytes:
    """Frame ``(key, value, ttl_seconds | None)`` writes as W records."""
    out = bytearray()
    for key, value, ttl in writes:
        if ttl is None:
            encode_write(out, key, value, EXP_NONE)
        else:
            encode_write(
                out, key, value, EXP_ABSOLUTE, NOW_MS + int(ttl * 1000)
            )
    return bytes(out)


class Replica:
    """A replica store with its own AOF, fed the way ReplicaLink does."""

    def __init__(self, tmp_path, sma, tier: TierConfig | None = None):
        config = StoreConfig(tier=tier) if tier else StoreConfig()
        self.store = DataStore(sma, config)
        self.persist = Persistence(
            PersistenceConfig(dir=str(tmp_path)), clock=UNIX
        )
        self.store.attach_persistence(self.persist)
        self.state = ReplicationState()
        self.state.become_replica("127.0.0.1", 1)
        self.store.repl = self.state

    def apply(self, raw: bytes) -> None:
        assert apply_stream(self.store, self.state, raw, NOW_MS) == len(raw)
        self.persist.flush()


def assert_victim_lost_cleanly(store: DataStore) -> None:
    assert store.keys() == [K1]
    assert store._dict.get(K2) is None
    assert store.traditional_bytes == len(K1) + len(ANCHOR)
    assert store._expires == {}
    assert store.stats.reclaimed_keys == 0
    assert store.stats.keys_set == 0  # client-facing stats untouched
    assert store.sma.live_allocations == 1
    store.sma.check_invariants()


def test_replica_apply_denied_overwrite_leaves_clean_ledgers(tmp_path):
    replica = Replica(tmp_path, tight_sma(pages=1))
    raw = stream_of((K1, ANCHOR, None), (K2, SMALL, 60), (K2, LARGE, None))
    replica.apply(raw)
    assert replica.state.apply_denied == 1
    assert replica.state.applied_records == 3
    assert_victim_lost_cleanly(replica.store)
    # AOF size exactness: the stream bytes and nothing else — no D for
    # the old entry, no T for the lost one
    assert replica.persist.aof_size == len(raw)
    assert replica.persist.stats.tombstones_logged == 0
    replica.persist.close()


def test_recovery_denied_overwrite_leaves_clean_ledgers(tmp_path):
    # write the log on a roomy store, recover it under a one-page budget
    roomy = DataStore(SoftMemoryAllocator(name="roomy"))
    persist = Persistence(PersistenceConfig(dir=str(tmp_path)), clock=UNIX)
    roomy.attach_persistence(persist)
    roomy.set(K1, ANCHOR)
    roomy.set(K2, SMALL, ex=60)
    roomy.set(K2, LARGE)
    persist.flush()
    logged = persist.aof_size
    persist.close()

    store = DataStore(tight_sma(pages=1))
    persist2 = Persistence(PersistenceConfig(dir=str(tmp_path)), clock=UNIX)
    store.attach_persistence(persist2)
    assert persist2.stats.recovery_admission_denied == 1
    assert persist2.stats.recovered_keys == 2  # K1 and the first K2
    assert_victim_lost_cleanly(store)
    persist2.flush()
    assert persist2.aof_size == logged  # replay appended nothing
    persist2.close()


@pytest.mark.parametrize(
    "second", [b"t" * len(SMALL), LARGE], ids=["same-size", "resized"]
)
def test_restore_without_expiry_clears_the_ttl(tmp_path, second):
    """In place (same size) or through the handle (resized) alike."""
    replica = Replica(tmp_path, SoftMemoryAllocator(name="roomy"))
    replica.apply(stream_of((K2, SMALL, 60)))
    store = replica.store
    assert store.pttl(K2) > 0
    ptr = store._dict._find(K2)
    replica.apply(stream_of((K2, second, None)))
    assert store.pttl(K2) == -1 and store._expires == {}
    assert store._dict._find(K2) is ptr  # overwritten, not re-inserted
    assert store.get(K2) == second
    assert store.traditional_bytes == len(K2) + len(second)
    assert replica.state.apply_denied == 0
    replica.persist.close()


def test_replayed_overwrite_of_a_compressed_entry_is_a_displacement(tmp_path):
    replica = Replica(
        tmp_path,
        SoftMemoryAllocator(name="tiered", request_batch_pages=1),
        tier=TierConfig(enabled=True),
    )
    store, soft_dict = replica.store, replica.store._dict
    replica.apply(stream_of((K2, b"C" * 2000, None)))
    assert soft_dict.demote(K2)
    compressed = soft_dict.get(K2)
    assert type(compressed) is CompressedValue
    assert store.traditional_bytes == len(K2) + len(compressed.data)

    replica.apply(stream_of((K2, b"D" * 1500, None)))
    stats = soft_dict.tier_stats
    assert (stats.demotions, stats.displacements) == (1, 1)
    assert stats.demotions == (
        stats.promotions
        + stats.second_chance_drops
        + stats.displacements
        + soft_dict.compressed_entries
    )
    assert soft_dict.compressed_bytes == 0
    assert store.get(K2) == b"D" * 1500
    assert store.traditional_bytes == len(K2) + 1500
    store.sma.check_invariants()
    replica.persist.close()


# ----------------------------------------------------------------------
# a replayed M cannot lose its key
# ----------------------------------------------------------------------

#: budget pages -> the ``W`` records that fill them. One page: the
#: tightest budget. Ten pages of one entry each, every one too full to
#: take the stub: ``key-0``'s page is outside the placer's scan window,
#: which is where the swap used to be lost and the key dropped.
DEMOTE_CASES = {
    1: [(K1, ANCHOR, None), (K2, SMALL, None)],
    10: [(b"key-%d" % i, bytes([97 + i]) * 3950, None) for i in range(10)],
}


def demote_stream(pages: int) -> tuple[bytes, bytes, bytes]:
    """``W…M``: fill the budget, then demote the oldest key."""
    writes = DEMOTE_CASES[pages]
    key, value, __ = writes[0]
    out = bytearray(stream_of(*writes))
    encode_demote(out, key)
    return bytes(out), key, value


def assert_demoted_not_dropped(store: DataStore, key, value, pages):
    soft_dict = store._dict
    assert sorted(store.keys()) == sorted(k for k, __, __ in DEMOTE_CASES[pages])
    assert type(soft_dict.get(key)) is CompressedValue
    assert soft_dict.compressed_entries == 1
    stats = soft_dict.tier_stats
    assert (stats.demotions, stats.second_chance_drops) == (1, 0)
    assert store.stats.reclaimed_keys == 0 and soft_dict.evictions == 0
    assert store.sma.budget.held <= pages
    assert store.get(key) == value  # served from the stub
    store.sma.check_invariants()


@pytest.mark.parametrize("pages", sorted(DEMOTE_CASES))
def test_replica_apply_of_a_demote_keeps_the_key(tmp_path, pages):
    raw, key, value = demote_stream(pages)
    replica = Replica(tmp_path, tight_sma(pages), tier=TierConfig(enabled=True))
    replica.apply(raw)
    assert replica.state.apply_denied == 0
    assert_demoted_not_dropped(replica.store, key, value, pages)
    # the replica's AOF is the stream: no T for a lost key, no second M
    assert replica.persist.aof_size == len(raw)
    assert replica.persist.stats.tombstones_logged == 0
    replica.persist.close()


@pytest.mark.parametrize("pages", sorted(DEMOTE_CASES))
def test_recovery_of_a_demote_keeps_the_key(tmp_path, pages):
    raw, key, value = demote_stream(pages)
    with open(tmp_path / "incr-0.aof", "wb") as fh:
        fh.write(raw)
    store = DataStore(tight_sma(pages), StoreConfig(tier=TierConfig(enabled=True)))
    persist = Persistence(PersistenceConfig(dir=str(tmp_path)), clock=UNIX)
    store.attach_persistence(persist)
    assert persist.stats.recovery_admission_denied == 0
    assert_demoted_not_dropped(store, key, value, pages)
    persist.flush()
    assert persist.aof_size == len(raw)  # replay appended nothing
    assert persist.stats.tombstones_logged == 0
    persist.close()
