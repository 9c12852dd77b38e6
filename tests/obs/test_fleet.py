"""Composed schedules over one topology: a durable master on the
fleet's daemon — in this process or a ``kv_server`` process, where
``kill`` is a real SIGKILL — and a durable in-process replica.

One pinned schedule holds the two orderings of replica apply × reclaim
× AOF: a key the budget took never comes back after a crash or a
failover, and a key re-written in the batch that reclaimed it comes
back with its last value or not at all. Another presses the
antagonist into a write burst, so DEMANDs land on the master's loop
mid-traffic, then crashes and cold-restarts it. Then hypothesis draws
step lists and the master's kind, derandomized so a failure replays
and shrinks; ``FLEET_ROUNDS`` (env) is how many it draws.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tests.fleet import Fleet, rounds

STEPS = [
    "fill", "churn", "burst", ("burst", 0, True), "purge", "antagonist",
    "degraded", "poison", "kill", "term", "failover", "newborn", "deregister",
    "bounce", "press",
]


def topology(where, kind="thread") -> Fleet:
    fleet = Fleet(where)
    fleet.add(kind, tenant=True, durable=True)
    fleet.add(replica=True, durable=True)
    return fleet


def test_a_reclaimed_key_never_resurrects_nor_turns_stale(tmp_path):
    """Half the keys a purge took are re-written in a batch that purges
    again: after a crash, a replica bounce, a failover and a cold
    restart, a key still taken is absent and a re-written one holds its
    last value or none."""
    with topology(tmp_path) as fleet:
        fleet.run(("burst", 40), ("purge", 2, False))
        taken = set(fleet.gone)
        fleet.run(("burst", 0, True))
        assert taken & fleet.gone and taken - fleet.gone
        fleet.run("kill", "bounce", "failover", "term")


@pytest.mark.parametrize("kind", ["thread", "process"])
def test_a_demand_mid_burst_never_resurrects_a_key(tmp_path, kind):
    """The antagonist presses while the master takes a burst, on the
    master's loop in this process or in a ``kv_server``: a key the budget
    took mid-traffic stays gone after a crash and a cold restart."""
    with topology(tmp_path, kind) as fleet:
        fleet.run("fill", "press", "kill", "press", "term")


@settings(
    max_examples=len(rounds(1)),  # the first draw: a thread master
    derandomize=True,
    deadline=None,
    suppress_health_check=list(HealthCheck),
)
@given(
    st.sampled_from(["thread", "process"]),
    st.lists(st.sampled_from(STEPS), min_size=2, max_size=8),
)
def test_composed_schedules_hold_every_identity(tmp_path_factory, kind, steps):
    with topology(tmp_path_factory.mktemp("fleet"), kind) as fleet:
        fleet.run(*steps)
