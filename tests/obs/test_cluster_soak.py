"""Cluster-phase soak: one SMD's books must balance across processes.

The machine-wide conservation identity —

    assigned == granted − released − reclaimed − forfeited

— is asserted on the *single* Soft Memory Daemon while its pages are
spread across ≥2 live shard OS processes, and again after an
antagonist (a third SMA, in the test process) allocates hard enough to
force a cross-process reclamation wave through the shards' caches.
The shard-side view (``INFO`` ``sma.granted_pages`` gauges) must agree
with the daemon-side ledger, i.e. no pages are invented or lost at the
process boundary.
"""

from __future__ import annotations

import time

import pytest

from repro.core.errors import SoftMemoryDenied
from repro.core.locking import LockedSoftMemoryAllocator
from repro.kvstore import TcpKvClient
from repro.kvstore.cluster import ClusterKvClient
from repro.kvstore.cluster.supervisor import ClusterSupervisor
from repro.rpc import SmaAgent
from repro.sds.soft_linked_list import SoftLinkedList
from repro.tools.metrics_dump import parse_info
from repro.util.units import PAGE_SIZE

pytestmark = pytest.mark.timeout(300)

CAPACITY_PAGES = 192
VALUE = b"v" * 1024
FILL_KEYS = 600  # ~600 KiB of soft values ≈ 150 pages across 2 shards


def conserved(smd) -> bool:
    return (
        smd.assigned_pages
        == smd.pages_granted
        - smd.pages_released
        - smd.pages_reclaimed
        - smd.pages_forfeited
    )


def settle(predicate, *, timeout: float = 30.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.1)
    return predicate()


def shard_info(address) -> dict:
    with TcpKvClient(address) as client:
        return parse_info(client.execute(b"INFO"))


def test_conservation_across_shard_processes():
    with ClusterSupervisor(
        2,
        soft_capacity_pages=CAPACITY_PAGES,
        startup_budget_pages=8,
        health_interval=1.0,
    ) as supervisor:
        smd = supervisor.smd

        # phase 1: both shards registered, identity holds at rest
        assert smd.pages_granted >= 16
        assert conserved(smd)

        # phase 2: fill the cluster until the soft budget is taut
        denied = 0
        with ClusterKvClient(supervisor.addresses) as client:
            for i in range(FILL_KEYS):
                reply = client.execute(
                    b"SET", f"soak:{i}".encode(), VALUE
                )
                if reply != "OK":
                    denied += 1
        assert settle(lambda: conserved(smd))
        filled = smd.assigned_pages
        assert filled > 2 * 8, "fill never left the startup budgets"

        # phase 3: antagonist — a third tenant of the same daemon
        # allocates until denial, forcing demands into the shard
        # processes and a reclamation wave through their caches
        antagonist_sma = LockedSoftMemoryAllocator(
            name="antagonist", request_batch_pages=8
        )
        agent = SmaAgent.connect(supervisor.smd_socket, antagonist_sma)
        try:
            scratch = SoftLinkedList(antagonist_sma, element_size=PAGE_SIZE)
            got = 0
            denials = 0
            while denials < 3 and got < CAPACITY_PAGES:
                try:
                    scratch.append(got)
                    got += 1
                except SoftMemoryDenied:
                    denials += 1
                    time.sleep(0.2)
            assert got >= CAPACITY_PAGES - filled, (
                "antagonist could not even take the unassigned headroom"
            )

            # the wave happened: the daemon clawed pages back across
            # process boundaries...
            assert settle(lambda: smd.pages_reclaimed > 0)
            # ...and the identity survives it
            assert settle(lambda: conserved(smd))

            # ...and some shard actually evicted keys to give pages up
            def shards_reclaimed() -> int:
                total = 0
                for address in supervisor.addresses:
                    info = shard_info(address)
                    total += info["Stats"]["store.stats.reclaimed_keys"]
                return total

            assert settle(lambda: shards_reclaimed() > 0, timeout=60)

            # ...and the wave went *through* the second-chance tier:
            # each shard process runs its own tier (kv_server defaults
            # it on) over the one machine-wide daemon, so the reclaimed
            # keys above were demote-first — the shards compressed
            # victims before the deeper pressure truly dropped them —
            # and every shard's tier books balance on their own
            def shard_tiers_demoted() -> int:
                total = 0
                for address in supervisor.addresses:
                    info = shard_info(address)
                    soft = info["SoftMemory"]
                    assert soft["tier.enabled"] == 1
                    assert soft["tier.demotions"] == (
                        soft["tier.promotions"]
                        + soft["tier.second_chance_drops"]
                        + soft["tier.displacements"]
                        + info["Keyspace"]["compressed_entries"]
                    ), f"tier identity broken on shard {address}"
                    total += soft["tier.demotions"]
                return total

            assert settle(lambda: shard_tiers_demoted() > 0, timeout=60)

            # phase 4: cross-process ledger agreement — the sum of the
            # per-process granted gauges equals the daemon's assigned
            def ledgers_agree() -> bool:
                shard_granted = sum(
                    shard_info(address)["SoftMemory"]["sma.granted_pages"]
                    for address in supervisor.addresses
                )
                return (
                    shard_granted + antagonist_sma.budget.granted
                    == smd.assigned_pages
                )

            assert settle(ledgers_agree, timeout=60)
            assert conserved(smd)
        finally:
            agent.close()

        # phase 5: the antagonist's exit forfeits its grant (the daemon
        # notices the disconnect asynchronously); the books still
        # balance with only the shards holding pages
        assert settle(
            lambda: smd.pages_forfeited + smd.pages_released > 0,
            timeout=60,
        )
        assert settle(lambda: conserved(smd))
