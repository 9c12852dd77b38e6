"""Integration tests: the store over real TCP sockets."""

import select
import threading

import pytest

from repro.core.locking import LockedSoftMemoryAllocator
from repro.kvstore import TcpKvClient, TcpKvServer
from repro.kvstore.resp import RespError
from repro.kvstore.store import DataStore


# one plane, two poll objects: "event-loop" is the platform's own (the id
# keeps test names), "poll" the arm a platform without epoll would take
@pytest.fixture(params=["event-loop", "poll"])
def server(request, monkeypatch):
    if request.param == "poll":
        monkeypatch.delattr(select, "epoll")
    # reclamation can arrive from another thread in TCP tests
    store = DataStore(LockedSoftMemoryAllocator(name="tcp-test"))
    srv = TcpKvServer(store).start()
    yield srv
    srv.stop()


class TestTcpRoundtrips:
    def test_ping(self, server):
        with TcpKvClient(server.address) as client:
            assert str(client.execute("PING")) == "PONG"

    def test_set_get_over_the_wire(self, server):
        with TcpKvClient(server.address) as client:
            assert str(client.execute("SET", "k", "v")) == "OK"
            assert client.execute("GET", "k") == b"v"
            assert client.execute("GET", "missing") is None

    def test_binary_values(self, server):
        payload = bytes(range(256)) * 4
        with TcpKvClient(server.address) as client:
            client.execute("SET", "bin", payload)
            assert client.execute("GET", "bin") == payload

    def test_error_replies(self, server):
        with TcpKvClient(server.address) as client:
            client.execute("SET", "k", "text")
            with pytest.raises(RespError):
                client.execute("INCR", "k")

    def test_many_commands_one_connection(self, server):
        with TcpKvClient(server.address) as client:
            for i in range(200):
                client.execute("SET", f"k{i}", str(i))
            assert client.execute("DBSIZE") == 200

    def test_sequential_connections(self, server):
        with TcpKvClient(server.address) as c1:
            c1.execute("SET", "shared", "1")
        with TcpKvClient(server.address) as c2:
            assert c2.execute("GET", "shared") == b"1"
        assert server.connections_served == 2


class TestPipelinedReplies:
    def test_pipeline_returns_all_replies_in_order(self, server):
        with TcpKvClient(server.address) as client:
            replies = client.execute_pipeline(
                ("SET", "a", "1"),
                ("SET", "b", "2"),
                ("GET", "a"),
                ("GET", "b"),
            )
            assert [str(replies[0]), str(replies[1])] == ["OK", "OK"]
            assert replies[2:] == [b"1", b"2"]

    def test_no_desync_after_batched_replies(self, server):
        """Several replies arriving in one recv must all be consumed in
        order — the old client kept only the first and desynced."""
        with TcpKvClient(server.address) as client:
            # one write carrying two commands: the server very likely
            # answers both in a single segment
            client._sock.sendall(
                b"*3\r\n$3\r\nSET\r\n$1\r\nx\r\n$2\r\nv1\r\n"
                b"*3\r\n$3\r\nSET\r\n$1\r\ny\r\n$2\r\nv2\r\n"
            )
            assert str(client._next_reply()) == "OK"
            assert str(client._next_reply()) == "OK"
            # the connection is still in lockstep
            assert client.execute("GET", "x") == b"v1"
            assert client.execute("GET", "y") == b"v2"

    def test_pipeline_error_does_not_discard_followers(self, server):
        with TcpKvClient(server.address) as client:
            replies = client.execute_pipeline(
                ("SET", "s", "text"),
                ("INCR", "s"),          # type error mid-pipeline
                ("SET", "t", "ok"),
            )
            assert isinstance(replies[1], RespError)
            assert str(replies[2]) == "OK"
            assert client.execute("GET", "t") == b"ok"


class TestConnectionChurn:
    def test_churn_leaks_no_per_connection_state(self, server):
        """A long-lived server under connection churn must not hoard
        dangling connections: the public gauge comes back to one."""
        import time

        for i in range(30):
            with TcpKvClient(server.address) as client:
                client.execute("SET", f"churn{i}", "x")
        # one live connection forces a prune pass through accept
        with TcpKvClient(server.address) as client:
            client.execute("PING")
            # the one live connection; closed ones leave the fd map
            # (and the poll object) as their EOFs are processed
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                if server.connected_clients <= 1:
                    break
                time.sleep(0.01)
            assert server.connected_clients == 1
            info = client.execute("INFO", "stats").decode()
            assert "server.connected_clients:1\r\n" in info
        assert server.connections_served == 31


class TestConcurrentClients:
    def test_parallel_writers_do_not_interleave(self, server):
        """Several clients hammering concurrently: every write lands,
        no protocol corruption (per-connection parsers)."""
        errors = []

        def writer(tid):
            try:
                with TcpKvClient(server.address) as client:
                    for i in range(100):
                        client.execute("SET", f"w{tid}:{i}", f"{tid}-{i}")
                        got = client.execute("GET", f"w{tid}:{i}")
                        assert got == f"{tid}-{i}".encode()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(t,)) for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        with TcpKvClient(server.address) as client:
            assert client.execute("DBSIZE") == 400

    def test_reclamation_while_serving(self, server):
        """Soft memory reclamation concurrent with TCP traffic: the
        store answers 'not found' for reclaimed keys, never crashes."""
        with TcpKvClient(server.address) as client:
            for i in range(2000):
                client.execute("SET", f"key:{i:05d}", "x" * 50)
            sma = server.store.sma
            reclaimed = sma.reclaim(sma.held_pages // 2)
            assert reclaimed.allocations_freed > 0
            # connection still works; old keys miss, new keys hit
            assert client.execute("GET", "key:00000") is None
            client.execute("SET", "fresh", "alive")
            assert client.execute("GET", "fresh") == b"alive"
