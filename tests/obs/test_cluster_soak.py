"""One SMD's books balance across shard processes.

Two ``kv_server`` shards under :class:`ClusterSupervisor` fill the
cluster until the soft budget is taut; an antagonist tenant of the same
daemon then allocates until denied, forcing a reclamation wave through
the shards' caches (demote-first: each shard runs its own tier). The
oracle holds SMD conservation and Σ shard ``sma.granted_pages`` +
antagonist == assigned after every step, and again once the antagonist
has exited and its grant was forfeited.
"""

from __future__ import annotations

import pytest

from tests.fleet import Fleet

pytestmark = pytest.mark.timeout(300)

CAPACITY_PAGES = 192


def test_conservation_across_shard_processes(tmp_path):
    with Fleet(tmp_path, capacity_pages=CAPACITY_PAGES, startup_pages=8,
               shards=2) as fleet:
        smd = fleet.smd
        assert smd.pages_granted >= 2 * 8  # both shards' startup budgets
        fleet.run(("fill", 600))
        filled = smd.assigned_pages
        assert filled > 2 * 8, "fill never left the startup budgets"
        fleet.run(("antagonist", CAPACITY_PAGES))
        assert fleet.rival[0].budget.granted >= CAPACITY_PAGES - filled
        assert smd.pages_reclaimed > 0
        infos = [node.info() for node in fleet.nodes]
        assert sum(info["reclaimed_keys"] for info in infos) > 0
        assert sum(info["tier.demotions"] for info in infos) > 0
        fleet.run("deregister")
        assert smd.pages_forfeited > 0
