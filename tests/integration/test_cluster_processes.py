"""Multi-process cluster: real shards, one SMD, restart-on-crash.

These tests spawn genuine ``kv_server`` OS processes through
:class:`ClusterSupervisor` — the same shape
``python -m repro.tools.kv_cluster`` runs — and exercise the parts the
in-process tests cannot: MOVED over real sockets, pipeline splitting
across processes, the machine-wide SMD ledger spanning address spaces,
and the monitor resurrecting a SIGKILLed shard on its original port.
"""

from __future__ import annotations

import os
import signal
import socket
import time

import pytest

from repro.kvstore import TcpKvClient
from repro.kvstore.cluster import ClusterKvClient
from repro.kvstore.cluster.slots import key_hash_slot
from repro.kvstore.cluster.supervisor import ClusterSupervisor, free_ports
from repro.kvstore.resp import RespError
from repro.obs.oracle import check_smd
from tests.fleet import settle

pytestmark = pytest.mark.timeout(180)


@pytest.fixture(scope="module")
def cluster():
    with ClusterSupervisor(
        2,
        soft_capacity_pages=1024,
        startup_budget_pages=16,
        health_interval=0.2,
    ) as supervisor:
        yield supervisor


def shard_for(supervisor: ClusterSupervisor, key: bytes) -> int:
    slot = key_hash_slot(key)
    half = 16384 // len(supervisor.shards)
    return min(slot // half, len(supervisor.shards) - 1)


class TestServing:
    def test_moved_over_the_wire(self, cluster):
        key = b"foo"  # slot 12182 -> shard 1
        wrong = cluster.shards[0].address
        right = cluster.shards[1].address
        with TcpKvClient(wrong) as direct:
            with pytest.raises(RespError) as excinfo:
                direct.execute(b"GET", key)
        assert (
            excinfo.value.message
            == f"MOVED 12182 {right[0]}:{right[1]}"
        )

    def test_cluster_client_spans_shards(self, cluster):
        with ClusterKvClient(cluster.addresses) as client:
            keys = [f"span:{i}".encode() for i in range(60)]
            for key in keys:
                assert client.execute(b"SET", key, b"v") == "OK"
            replies = client.execute_pipeline(
                *((b"GET", key) for key in keys)
            )
            assert replies == [b"v"] * len(keys)
            assert client.moved_redirects == 0
            # both processes hold part of the keyspace
            owners = {shard_for(cluster, key) for key in keys}
            assert owners == {0, 1}

    def test_one_smd_spans_processes(self, cluster):
        smd = cluster.smd
        # both shard processes registered with the supervisor's daemon
        assert smd.pages_granted >= 2 * cluster.startup_budget_pages
        check_smd(smd)

    def test_shard_info_reports_cluster(self, cluster):
        with TcpKvClient(cluster.shards[0].address) as direct:
            text = direct.execute(b"INFO", b"cluster").decode()
        assert "cluster_enabled:1" in text
        assert "cluster_known_nodes:2" in text


class TestMetricsDump:
    def test_merged_cluster_snapshot(self, cluster):
        from repro.tools.metrics_dump import cluster_snapshot

        with ClusterKvClient(cluster.addresses) as client:
            for i in range(10):
                client.execute(b"SET", f"md:{i}".encode(), b"v")
        doc = cluster_snapshot(cluster.addresses)
        assert doc["shard_count"] == 2
        assert doc["shards_reachable"] == 2
        assert len(doc["shards"]) == 2
        for shard in doc["shards"]:
            assert "Cluster" in shard["info"]
        # the summed # Stats is machine-wide: both shards' keys count
        per_shard = [
            shard["info"]["Stats"]["store.keys"] for shard in doc["shards"]
        ]
        assert doc["stats_total"]["store.keys"] == sum(per_shard)
        assert doc["stats_total"]["store.keys"] >= 10

    def test_unreachable_shard_recorded_not_fatal(self, cluster):
        from repro.tools.metrics_dump import cluster_snapshot

        doc = cluster_snapshot([cluster.addresses[0], ("127.0.0.1", 1)])
        assert doc["shards_reachable"] == 1
        assert "error" in doc["shards"][1]

    def test_parse_addr(self):
        from repro.tools.metrics_dump import parse_addr

        assert parse_addr("10.0.0.7:6379") == ("10.0.0.7", 6379)
        assert parse_addr(":7000") == ("127.0.0.1", 7000)
        with pytest.raises(ValueError):
            parse_addr("6379")


class TestRestart:
    def test_sigkilled_shard_comes_back_on_its_port(self, cluster):
        victim = cluster.shards[1]
        address = victim.address
        restarts_before = victim.restarts
        os.kill(victim.proc.pid, signal.SIGKILL)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if victim.restarts > restarts_before and cluster.ping(victim):
                break
            time.sleep(0.2)
        else:
            pytest.fail("supervisor never restarted the killed shard")
        assert victim.address == address  # same port, same slot range
        # and it serves its slots again
        with ClusterKvClient(cluster.addresses) as client:
            assert client.execute(b"SET", b"foo", b"back") == "OK"
            assert client.execute(b"GET", b"foo") == b"back"

    def test_restarted_shard_reregisters_with_smd(self, cluster):
        # after the restart above, the ledger must still balance: the
        # dead process's grant was forfeited, the new one re-granted
        settle(lambda: check_smd(cluster.smd), timeout=30)


def test_a_shard_that_never_starts_leaves_nothing_running(tmp_path):
    """Shard 1's port is taken, so ``start()`` raises — after stopping
    shard 0 and the daemon, since ``__exit__`` will never run."""
    holder = socket.create_server(("127.0.0.1", 0))
    supervisor = ClusterSupervisor(
        2, ports=[free_ports("127.0.0.1", 1)[0], holder.getsockname()[1]],
        workdir=str(tmp_path),
    )
    try:
        with pytest.raises(RuntimeError, match="failed to start"):
            supervisor.start(ready_timeout=30)
    finally:
        holder.close()
    assert supervisor.shards[0].proc.poll() is not None
    assert not os.path.exists(supervisor.smd_socket)
