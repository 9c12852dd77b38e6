"""Live in-process master↔replica pairs over real sockets.

These tests run full :class:`TcpKvServer` instances in one process
(real TCP; each replica's link is a socket on its own event loop),
change roles the way a client does, with ``REPLICAOF``, and exercise
the replication contract end to end: full sync, incremental streaming,
tombstone propagation, WAIT, read-only enforcement, partial resync,
and the promotion chain an ex-sibling rides after a master dies.
"""

import socket
import time

import pytest

from repro.core.locking import LockedSoftMemoryAllocator
from repro.kvstore import TcpKvClient, TcpKvServer
from repro.kvstore.repl import link as link_module
from repro.kvstore.repl.state import DEFAULT_BACKLOG_CAPACITY
from repro.kvstore.resp import RespError, encode_command
from repro.kvstore.store import DataStore
from repro.obs.oracle import flat_info

pytestmark = pytest.mark.timeout(120)


def make_server(name: str) -> TcpKvServer:
    store = DataStore(LockedSoftMemoryAllocator(name=name))
    return TcpKvServer(store).start()


def wait_until(cond, timeout: float = 15.0, interval: float = 0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if cond():
            return
        time.sleep(interval)
    assert cond(), "condition never became true"


def info_dict(client: TcpKvClient) -> dict:
    return flat_info(client.execute("INFO"))


def follow(server: TcpKvServer, master: "TcpKvServer | None") -> None:
    """``REPLICAOF`` ``master``'s address, or ``NO ONE`` for ``None``."""
    argv = ("NO", "ONE") if master is None else master.address
    with TcpKvClient(server.address) as client:
        assert str(client.execute("REPLICAOF", *argv)) == "OK"


def wait_for_feeds(master: TcpKvServer, count: int = 1):
    """Block until ``count`` replicas finished PSYNC and are attached.

    WAIT only counts attached feeds, so tests that write little and
    WAIT immediately must not race the replica's initial sync.
    """
    wait_until(
        lambda: master.store.repl is not None
        and len(master.store.repl.feeds) >= count
    )


@pytest.fixture
def pair():
    master = make_server("repl-master")
    replica = make_server("repl-replica")
    follow(replica, master)
    wait_for_feeds(master)
    yield master, replica
    replica.stop()
    master.stop()


class TestFullSyncAndStream:
    def test_full_sync_then_incremental(self, pair):
        master, replica = pair
        with TcpKvClient(master.address) as mc:
            for i in range(100):
                mc.execute("SET", f"k{i}", f"v{i}")
            assert mc.execute("WAIT", 1, 5000) == 1
            with TcpKvClient(replica.address) as rc:
                assert rc.execute("GET", "k99") == b"v99"
                assert rc.execute("DBSIZE") == 100
                # incremental: a write after sync streams across
                mc.execute("SET", "post", "sync")
                wait_until(lambda: rc.execute("GET", "post") == b"sync")

    def test_offsets_and_replid_agree(self, pair):
        master, replica = pair
        with TcpKvClient(master.address) as mc:
            mc.execute("SET", "a", "1")
            assert mc.execute("WAIT", 1, 5000) == 1
            with TcpKvClient(replica.address) as rc:
                m_info, r_info = info_dict(mc), info_dict(rc)
        assert m_info["role"] == "master"
        assert r_info["role"] == "replica"
        assert r_info["master_link_status"] == "up"
        assert m_info["replid"] == r_info["replid"]
        assert m_info["master_repl_offset"] == r_info["master_repl_offset"]

    def test_replica_refuses_writes(self, pair):
        master, replica = pair
        with TcpKvClient(master.address) as mc:
            mc.execute("SET", "a", "1")
            mc.execute("WAIT", 1, 5000)
        with TcpKvClient(replica.address) as rc:
            with pytest.raises(RespError) as excinfo:
                rc.execute("SET", "b", "2")
        assert excinfo.value.message.startswith("READONLY")

    def test_wait_zero_replicas_is_immediate(self):
        server = make_server("repl-lonely")
        try:
            with TcpKvClient(server.address) as client:
                client.execute("SET", "a", "1")
                assert client.execute("WAIT", 0, 0) == 0
        finally:
            server.stop()

    def test_expiring_write_replicates_with_ttl(self, pair):
        master, replica = pair
        with TcpKvClient(master.address) as mc:
            mc.execute("SET", "ttl-key", "x", "EX", "100")
            assert mc.execute("WAIT", 1, 5000) == 1
            with TcpKvClient(replica.address) as rc:
                ttl = rc.execute("TTL", "ttl-key")
        assert 90 <= ttl <= 100


class TestMixedCaseCommands:
    """Replication commands reach the transport in any casing."""

    def test_wait_blocks_for_the_ack(self, pair):
        master, __ = pair
        with TcpKvClient(master.address) as mc:
            mc.execute("SET", "a", "1")
            assert mc.execute("Wait", 1, 5000) == 1

    def test_replicaof_no_one_promotes(self, pair):
        __, replica = pair
        with TcpKvClient(replica.address) as rc:
            assert str(rc.execute("ReplicaOf", "no", "one")) == "OK"
            assert info_dict(rc)["role"] == "master"

    def test_psync_gets_a_full_resync(self, pair):
        master, __ = pair
        with socket.create_connection(master.address, timeout=5) as sock:
            sock.sendall(encode_command("Psync", "?", "-1"))
            assert sock.recv(64).startswith(b"+FULLRESYNC ")


class TestRefusals:
    """Two of Redis's refusals: neither changes a role nor stalls the
    loop, and the server goes on serving."""

    @pytest.mark.parametrize("port", [0, 65536, 99999999])
    def test_replicaof_refuses_a_port_that_is_not_one(self, port):
        server = make_server("repl-bad-port")
        try:
            with TcpKvClient(server.address) as client:
                with pytest.raises(RespError) as excinfo:
                    client.execute("REPLICAOF", "127.0.0.1", port)
                assert excinfo.value.message == "ERR Invalid master port"
                assert info_dict(client)["role"] == "master"
                assert str(client.execute("SET", "a", "1")) == "OK"
            # the same check stands behind ``kv_server --replicaof``
            with pytest.raises(ValueError):
                server.replicaof("127.0.0.1", port)
            assert server.store.repl is None  # nothing was engaged
        finally:
            server.stop()

    def test_wait_refuses_a_negative_timeout(self, pair):
        # read as "no deadline" it stalled the loop for its 10 s cap
        # waiting on a second replica that does not exist
        master, __ = pair
        with TcpKvClient(master.address) as mc:
            with pytest.raises(RespError) as excinfo:
                mc.execute("WAIT", 2, -1)
            assert excinfo.value.message == "ERR timeout is negative"
            assert str(mc.execute("SET", "a", "1")) == "OK"
            assert mc.execute("WAIT", 1, 5000) == 1


class TestTombstonePropagation:
    def test_reclamation_travels_the_stream(self, pair):
        master, replica = pair
        with TcpKvClient(master.address) as mc:
            for i in range(200):
                mc.execute("SET", f"victim{i}", "x" * 64)
            assert mc.execute("WAIT", 1, 5000) == 1
            # shed pages: every dropped key emits a T record
            reclaimed = mc.execute("MEMORY", "PURGE", "4")
            assert reclaimed > 0
            target = master.store.repl.master_repl_offset
            assert mc.execute("WAIT", 1, 5000) == 1
            with TcpKvClient(replica.address) as rc:
                wait_until(
                    lambda: replica.store.repl.master_repl_offset >= target
                )
                # dropped-stays-dropped holds fleet-wide: both ends
                # agree on the keyspace after the purge
                assert rc.execute("DBSIZE") == mc.execute("DBSIZE")
        state = replica.store.repl
        assert state.tombstones_applied > 0


class TestLinkTimers:
    def test_a_master_that_never_answers_is_redialed(self, monkeypatch):
        """The dial lands in a listener's backlog and the PSYNC reply
        never comes: the handshake limit closes the link, the backoff
        redials, and the replica keeps serving meanwhile."""
        monkeypatch.setattr(link_module, "_CONNECT_TIMEOUT", 0.1)
        silent = socket.create_server(("127.0.0.1", 0))  # accepts nothing
        replica = make_server("repl-silent-master")
        try:
            with TcpKvClient(replica.address) as rc:
                host, port = silent.getsockname()
                assert str(rc.execute("REPLICAOF", host, port)) == "OK"
                wait_until(lambda: replica.store.repl.reconnects >= 2)
                assert info_dict(rc)["full_syncs_done"] == 0
                assert rc.execute("GET", "a") is None
        finally:
            replica.stop()
            silent.close()


class TestResyncPaths:
    def test_reconnect_partial_resyncs_from_backlog(self, pair):
        master, replica = pair
        with TcpKvClient(master.address) as mc:
            mc.execute("SET", "a", "1")
            assert mc.execute("WAIT", 1, 5000) == 1
            # bounce the link: the new session offers (replid, offset)
            # and the master still holds that offset in its backlog
            follow(replica, master)
            wait_until(lambda: replica.store.repl.partial_syncs_done >= 1)
            assert master.store.repl.sync_partial_ok >= 1
            assert master.store.repl.sync_full == 1
            mc.execute("SET", "b", "2")
            with TcpKvClient(replica.address) as rc:
                wait_until(lambda: rc.execute("GET", "b") == b"2")

    def test_promotion_serves_writes_and_exsibling_partials(self):
        master = make_server("chain-master")
        b = make_server("chain-b")
        c = make_server("chain-c")
        try:
            follow(b, master)
            follow(c, master)
            wait_for_feeds(master, 2)
            with TcpKvClient(master.address) as mc:
                for i in range(50):
                    mc.execute("SET", f"k{i}", f"v{i}")
                assert mc.execute("WAIT", 2, 10000) == 2
            # the master dies; B is promoted and keeps the replid +
            # offset, so C partial-resyncs instead of a full transfer
            master.stop()
            follow(b, None)
            follow(c, b)
            wait_until(lambda: c.store.repl.partial_syncs_done >= 1)
            assert b.store.repl.sync_partial_ok >= 1
            assert b.store.repl.sync_full == 0
            with TcpKvClient(b.address) as bc:
                bc.execute("SET", "after", "failover")
                assert bc.execute("WAIT", 1, 5000) == 1
                with TcpKvClient(c.address) as cc:
                    assert cc.execute("GET", "after") == b"failover"
                    assert cc.execute("GET", "k49") == b"v49"
        finally:
            c.stop()
            b.stop()
            master.stop()

    def test_stale_offset_falls_back_to_full_sync(self):
        master = make_server("stale-master")
        replica = make_server("stale-replica")
        try:
            follow(replica, master)
            wait_for_feeds(master)
            with TcpKvClient(master.address) as mc:
                mc.execute("SET", "a", "1")
                assert mc.execute("WAIT", 1, 5000) == 1
                # detach, then push the backlog origin far past the
                # replica's offset: partial must be refused
                follow(replica, None)
                fill = b"x" * (DEFAULT_BACKLOG_CAPACITY // 32)
                for i in range(50):  # 1.5x the ring the master keeps
                    mc.execute("SET", f"fill{i}", fill)
                follow(replica, master)
                wait_until(lambda: replica.store.repl.full_syncs_done >= 2)
                assert master.store.repl.sync_partial_err >= 1
                with TcpKvClient(replica.address) as rc:
                    wait_until(lambda: rc.execute("GET", "fill49") == fill)
        finally:
            replica.stop()
            master.stop()
