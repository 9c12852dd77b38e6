"""The headline soak: mixed traffic + faults, invariants after each phase.

``SOAK_ROUNDS`` (env) scales duration: 1 round (default) keeps this in
tier-1 time; CI's smoke job and local stress runs can raise it.
"""

from __future__ import annotations

import os

from tests.obs.soak import SoakHarness

SOAK_ROUNDS = int(os.environ.get("SOAK_ROUNDS", "1"))


def test_soak_all_phases_hold_invariants():
    with SoakHarness(seed=1234) as soak:
        soak.run(rounds=SOAK_ROUNDS)
        # every phase ran and was checked (run() drives 6 phases/round)
        assert soak.checks_run >= 6 * SOAK_ROUNDS
        # the traffic genuinely exercised the machine:
        assert soak.store.obs.commands > 1000 * SOAK_ROUNDS
        # ... reclamation fired (the antagonist forced it)
        assert soak.smd.pages_reclaimed > 0
        assert soak.smd.reclamation_episodes > 0
        # ... keyspace entries were reclaimed and traced
        assert soak.store.stats.reclaimed_keys > 0
        # ... degraded mode surfaced as OOM replies, not crashes
        assert soak.store.stats.oom_denials > 0
        assert soak.sma.stats.degraded_denials > 0
        assert soak.client.error_replies > 0
        # ... and the poison frames were contained and counted, with
        # the quarantined bytes accounted rather than silently dropped
        assert soak.store.obs.protocol_errors == soak.poison_frames_sent
        assert soak.poison_bytes_dropped > 0
        assert (
            soak.store.obs.protocol_dropped_bytes
            == soak.poison_bytes_dropped
        )


def test_soak_with_persistence_is_exact_and_recoverable(tmp_path):
    """Durability under soak: INFO exactness plus faithful recovery.

    Every per-phase check compares the INFO Persistence section to the
    literal bytes on disk (invariant 7). At the end, a cold recovery
    over the same directory must reproduce the live keyspace exactly —
    including the holes reclamation punched in it.
    """
    data_dir = str(tmp_path)
    with SoakHarness(seed=4321, data_dir=data_dir) as soak:
        soak.run(rounds=SOAK_ROUNDS)
        assert soak.checks_run >= 6 * SOAK_ROUNDS
        # reclamation really fired, so tombstones are on the log
        assert soak.store.stats.reclaimed_keys > 0
        assert soak.persistence.stats.tombstones_logged > 0
        with soak.server._lock:
            live = set(soak.store.keys())

    # the harness close sealed the log; recover into a fresh store
    from repro.core.sma import SoftMemoryAllocator
    from repro.kvstore.persist.engine import Persistence, PersistenceConfig
    from repro.kvstore.store import DataStore

    store = DataStore(SoftMemoryAllocator(name="soak-recovery"))
    persist = Persistence(PersistenceConfig(dir=data_dir))
    store.attach_persistence(persist)
    try:
        assert set(store.keys()) == live
        assert persist.stats.recovery_truncated_bytes == 0
    finally:
        persist.close()


def test_tier_soak_identity_holds_every_phase():
    """The second-chance tier under full soak: the tier phase drives
    demote → read (promote, or serve from the stub) → second-chance
    drop over live TCP, and the tier conservation identity (check 8) is
    asserted after *every* phase — alongside the SMD identity, which
    must stay exact with compressed entries charged at compressed
    size."""
    with SoakHarness(seed=1234, tier=True) as soak:
        soak.run(rounds=SOAK_ROUNDS)
        # the tier phase ran and was checked (7 phases/round with tier)
        assert soak.checks_run >= 7 * SOAK_ROUNDS
        assert "tier" in soak.phases_run
        ts = soak.store._dict.tier_stats
        # the full lifecycle really happened:
        assert ts.demotions > 0
        # reads of demoted keys were served: back to residency where
        # the heap owned the room, from the stub where it did not
        assert ts.promotions > 0
        assert ts.promotion_denials > 0
        assert ts.second_chance_drops > 0
        # demotion genuinely compressed bytes out of the soft budget
        assert ts.bytes_saved > 0
        # and the phase-by-phase identity closed the books at the end
        dct = soak.store._dict
        assert ts.demotions == (
            ts.promotions
            + ts.second_chance_drops
            + ts.displacements
            + dct.compressed_entries
        )
        # meanwhile the machine-wide SMD identity never broke (it is
        # re-checked per phase; pin the final state explicitly too)
        smd = soak.smd
        assert smd.assigned_pages == (
            smd.pages_granted
            - smd.pages_released
            - smd.pages_reclaimed
            - smd.pages_forfeited
        )


def test_tier_soak_with_persistence_recovers_compressed(tmp_path):
    """Tier soak with the durability plane attached: per-phase INFO
    exactness holds (invariant 7), and a cold recovery adopts whatever
    the tier still held compressed at close."""
    data_dir = str(tmp_path)
    with SoakHarness(seed=4321, data_dir=data_dir, tier=True) as soak:
        soak.run(rounds=SOAK_ROUNDS)
        assert soak.store._dict.tier_stats.demotions > 0
        # second-chance drops log real tombstones
        assert soak.store._dict.tier_stats.second_chance_drops > 0
        assert soak.persistence.stats.tombstones_logged > 0
        with soak.server._lock:
            live = set(soak.store.keys())
            compressed_at_close = soak.store._dict.compressed_entries

    from repro.core.sma import SoftMemoryAllocator
    from repro.kvstore.persist.engine import Persistence, PersistenceConfig
    from repro.kvstore.store import DataStore, StoreConfig
    from repro.kvstore.tier import TierConfig

    store = DataStore(
        SoftMemoryAllocator(name="tier-soak-recovery"),
        StoreConfig(tier=TierConfig(enabled=True)),
    )
    persist = Persistence(PersistenceConfig(dir=data_dir))
    store.attach_persistence(persist)
    try:
        assert set(store.keys()) == live
        assert store._dict.compressed_entries == compressed_at_close
        # the recovered tier's books open balanced: replayed M records
        # count as demotions, later replayed writes as displacements,
        # and whatever survived is still compressed — identity exact
        ts = store._dict.tier_stats
        assert ts.demotions == (
            ts.promotions
            + ts.second_chance_drops
            + ts.displacements
            + store._dict.compressed_entries
        )
        assert ts.demotions > 0  # the log really carried demote records
    finally:
        persist.close()


def test_soak_is_deterministic_where_it_must_be():
    """Same seed, same traffic: the command mix is reproducible."""
    def run_once() -> tuple[int, int]:
        with SoakHarness(seed=99) as soak:
            soak.phase_fill(keys=64)
            soak.phase_churn(ops=128)
            return (
                soak.client.commands_sent,
                soak.store.stats.keys_set,
            )

    assert run_once() == run_once()


def test_soak_conservation_identity_survives_deregister():
    """Forfeited budget keeps the identity exact after a process exits."""
    with SoakHarness(seed=7) as soak:
        soak.phase_fill(keys=64)
        soak.phase_pressure(pages=32)
        antagonist_pid = soak.antagonist_record.pid
        with soak.server._lock:
            soak.smd.deregister(antagonist_pid)
        assert soak.smd.pages_forfeited > 0
        # identity re-checked directly (phase checks would INFO-count)
        smd = soak.smd
        assert smd.assigned_pages == (
            smd.pages_granted
            - smd.pages_released
            - smd.pages_reclaimed
            - smd.pages_forfeited
        )
