"""The in-process soak schedules: mixed traffic and faults over one
node on the fleet's daemon, the oracle after every step."""

from __future__ import annotations

from tests.fleet import Fleet

SOAK = ["fill", "churn", "antagonist", "degraded", ("churn", 200), "poison"]
TIER_SOAK = SOAK[:3] + ["purge"] + SOAK[3:]


def soak(tmp_path, seed, *steps, **server) -> Fleet:
    fleet = Fleet(tmp_path, seed=seed)
    fleet.add(tenant=True, **server)
    fleet.run(*steps)
    return fleet


def test_soak_all_phases_hold_invariants(tmp_path):
    with soak(tmp_path, 1234, *SOAK, tier=False) as fleet:
        info = fleet.master.info()
        assert info["commands_processed"] > 1000
        assert fleet.smd.pages_reclaimed > 0
        assert fleet.smd.reclamation_episodes > 0
        assert info["reclaimed_keys"] > 0
        # degraded mode surfaced as OOM replies, not crashes
        assert info["oom_denials"] > 0
        assert info["sma.stats.degraded_denials"] > 0
        # the poison frames were contained and their bytes accounted
        assert info["protocol_errors"] == 4
        assert info["protocol_dropped_bytes"] > 0


def test_soak_with_persistence_is_exact_and_recoverable(tmp_path):
    """The AOF identity held every step; cold recovery reproduces the
    live keyspace, holes the reclamation punched included."""
    with soak(tmp_path, 4321, *SOAK, tier=False, durable=True) as fleet:
        info = fleet.master.info()
        assert info["aof_enabled"] == 1
        assert info["reclaimed_keys"] > 0
        assert info["tombstones_logged"] > 0
        fleet.run(("term", True))


def test_tier_soak_identity_holds_every_phase(tmp_path):
    """Demote → read (promote, or serve from the stub) → second-chance
    drop, with the tier and SMD identities checked after every step."""
    with soak(tmp_path, 1234, *TIER_SOAK) as fleet:
        info = fleet.master.info()
        assert info["tier.demotions"] > 0
        assert info["tier.promotions"] > 0
        assert info["tier.promotion_denials"] > 0
        assert info["tier.second_chance_drops"] > 0
        assert info["tier.bytes_saved"] > 0


def test_tier_soak_with_persistence_recovers_compressed(tmp_path):
    """What the tier held compressed at close recovers compressed."""
    with soak(tmp_path, 4321, *TIER_SOAK, durable=True) as fleet:
        info = fleet.master.info()
        assert info["tier.second_chance_drops"] > 0
        assert info["tombstones_logged"] > 0
        fleet.run(("term", True))
        assert fleet.master.info()["tier.demotions"] > 0  # replayed M records


def test_soak_is_deterministic_where_it_must_be(tmp_path):
    """Same seed, same traffic: the command mix is reproducible."""
    def run_once(where):
        with soak(where, 99, ("fill", 64), ("churn", 128)) as fleet:
            return fleet.master.traffic, fleet.master.info()["store.stats.keys_set"]

    assert run_once(tmp_path / "a") == run_once(tmp_path / "b")


def test_soak_conservation_identity_survives_deregister(tmp_path):
    """Forfeited budget keeps the identity exact after a tenant exits."""
    with soak(tmp_path, 7, ("fill", 64), ("antagonist", 32), "deregister") as fleet:
        assert fleet.smd.pages_forfeited > 0
