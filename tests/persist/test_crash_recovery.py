"""Kill -9 a durable ``kv_server`` process mid burst, recover it over
the same directory: every acked write survives, untorn, with no
phantom past the one in flight; what a purge took stays dropped; a
lease only ever shrinks. ``FLEET_ROUNDS`` (env) is how many kill
points it samples."""

from __future__ import annotations

import pytest

from tests.fleet import Fleet, rounds

pytestmark = pytest.mark.timeout(300)

BURST = 120  # acked writes per burst; kill points sample the whole burst


def durable_process(tmp_path) -> Fleet:
    fleet = Fleet(tmp_path)
    fleet.add("process", durable=True)
    return fleet


@pytest.mark.parametrize("round_no", rounds(3))
def test_kill9_recovery_round(tmp_path, round_no):
    with durable_process(tmp_path) as fleet:
        fleet.run(("burst", 40), ("purge", 1, False))
        assert fleet.gone
        fleet.run(("kill", 5 + (round_no * 37) % (BURST - 10)))


def test_sigterm_then_kill9_is_still_clean(tmp_path):
    """A crash *after* a graceful shutdown finds a sealed, clean log."""
    with durable_process(tmp_path) as fleet:
        fleet.run(("burst", 50), "term", ("kill", 0))
