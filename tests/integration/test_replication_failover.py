"""Kill -9 the master: failover, partial resync, and no resurrection.

A real three-process topology — master A on a finite budget, replicas
B and C with headroom — streams acked bursts with ``WAIT`` while
``MEMORY PURGE`` sheds pages mid-stream, so tombstones ride the stream
under budget pressure. Then A dies, B is promoted and C repointed
(partial resync from B's backlog), and a newborn full-syncs. After
every step the oracle holds each node's ledgers and the replicas'
agreement, and every node serves exactly the acked prefix: nothing the
budget took comes back. ``FLEET_ROUNDS`` (env) is how many rounds run.
"""

from __future__ import annotations

import pytest

from tests.fleet import Fleet, rounds

pytestmark = pytest.mark.timeout(300)


@pytest.mark.parametrize("round_no", rounds(2))
def test_kill9_failover_round(tmp_path, round_no):
    with Fleet(tmp_path, seed=round_no) as fleet:
        fleet.add("process", sma_pages=64)
        fleet.add("process", copies=2, replica=True, sma_pages=1024)
        fleet.run(*[("burst", 80), ("purge", 2, False)] * 3)
        assert 0 < len(fleet.gone) < len(fleet.acked)
        tombstones = fleet.master.info()["reclaimed_keys"]
        assert all(
            node.info()["tombstones_applied"] >= tombstones
            for node in fleet.nodes[1:]
        )
        fleet.run("failover", "newborn", ("burst", 1))
        assert len(fleet.nodes) == 3
