"""Event-loop serving plane: the scenarios an event loop must survive.

The generic TCP contract is covered by ``test_tcp.py`` (parametrized
over both servers); this file targets what is specific to the single
threaded event loop — interleaved partial frames across many sockets,
deep pipeline ordering, slow-client backpressure, protocol poison mid
pipeline, shutdown with output still owed, and the AOF group commit
(one write per poll round, not per record).
"""

import socket
import time
from collections import Counter
from functools import partial

import pytest

from repro.core.locking import LockedSoftMemoryAllocator
from repro.kvstore import TcpKvClient, TcpKvServer
from repro.kvstore.persist import aof
from repro.kvstore.persist.aof import RealFile
from repro.kvstore.persist.engine import Persistence, PersistenceConfig
from repro.kvstore.resp import RespError, RespParser, encode_command
from repro.kvstore.store import DataStore


@pytest.fixture
def store():
    return DataStore(LockedSoftMemoryAllocator(name="event-loop-test"))


@pytest.fixture
def server(store):
    srv = TcpKvServer(store).start()
    yield srv
    srv.stop()


def recv_replies(sock: socket.socket, count: int, timeout: float = 5.0):
    """Read exactly ``count`` RESP replies from a raw socket."""
    parser = RespParser()
    replies = []
    sock.settimeout(timeout)
    while len(replies) < count:
        data = sock.recv(65536)
        if not data:
            raise ConnectionError("server closed the connection")
        parser.feed(data)
        replies.extend(parser.parse_all())
    return replies


class TestInterleavedPartialFrames:
    def test_byte_dribble_across_many_connections(self, server):
        """Commands split at arbitrary byte boundaries and interleaved
        across connections must never mix input buffers."""
        n = 10
        socks = [socket.create_connection(server.address) for _ in range(n)]
        try:
            payloads = [
                encode_command("SET", f"conn:{i}", f"value-{i}")
                + encode_command("GET", f"conn:{i}")
                for i in range(n)
            ]
            # round-robin one byte at a time: every connection's parser
            # sits mid-frame while all the others make progress
            longest = max(len(p) for p in payloads)
            for offset in range(longest):
                for i, payload in enumerate(payloads):
                    if offset < len(payload):
                        socks[i].sendall(payload[offset:offset + 1])
            for i, sock in enumerate(socks):
                ok, value = recv_replies(sock, 2)
                assert str(ok) == "OK"
                assert value == f"value-{i}".encode()
        finally:
            for sock in socks:
                sock.close()


class TestDeepPipelines:
    def test_deep_pipeline_ordering(self, server):
        depth = 300
        with TcpKvClient(server.address) as client:
            replies = client.execute_pipeline(
                *[("SET", f"k{i}", str(i)) for i in range(depth)]
            )
            assert all(str(r) == "OK" for r in replies)
            replies = client.execute_pipeline(
                *[("GET", f"k{i}") for i in range(depth)]
            )
            assert replies == [str(i).encode() for i in range(depth)]

    def test_batch_executes_under_one_lock(self, server):
        """A pipelined burst lands as a handful of batches (one pump
        each), not one per command."""
        depth = 200
        with TcpKvClient(server.address) as client:
            client.execute_pipeline(
                *[("SET", f"b{i}", "x") for i in range(depth)]
            )
            assert client.execute("DBSIZE") == depth
        assert server.commands_processed >= depth
        assert server.max_batch > 1
        assert server.batches_executed < server.commands_processed

    def test_huge_value_spanning_many_recvs(self, server):
        payload = bytes(range(256)) * 4096  # 1 MiB >> one recv
        with TcpKvClient(server.address) as client:
            assert str(client.execute("SET", "big", payload)) == "OK"
            assert client.execute("GET", "big") == payload


class TestSlowClientBackpressure:
    def test_slow_client_is_disconnected_at_the_limit(self, store):
        server = TcpKvServer(store)  # cuts a client off at 8 MiB unread
        server.start()
        try:
            seed = TcpKvClient(server.address)
            value = b"x" * 65536
            assert str(seed.execute("SET", "fat", value)) == "OK"

            slow = socket.create_connection(server.address)
            slow.settimeout(5)
            # never read a reply: pending output must cross the limit
            request = encode_command("GET", "fat") * 64
            with pytest.raises(OSError):
                for _ in range(200):
                    slow.sendall(request)
                    time.sleep(0.005)
                # if sends kept succeeding, the disconnect shows as EOF
                while slow.recv(65536):
                    pass
                raise BrokenPipeError("server closed the slow client")
            deadline = time.monotonic() + 5
            while server.clients_dropped == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.clients_dropped == 1
            slow.close()
            # the loop itself is unharmed: other clients keep serving
            assert seed.execute("GET", "fat") == value
            seed.close()
        finally:
            server.stop()


class TestProtocolPoison:
    def test_inline_protocol_error_mid_pipeline(self, server):
        """Commands before the poisoned frame still answer; the error
        reply follows; the rest of the poisoned buffer is dropped and
        the connection stays usable."""
        sock = socket.create_connection(server.address)
        try:
            sock.sendall(
                encode_command("SET", "before", "1")
                + b"?this is not RESP\r\n"
                + encode_command("SET", "after", "2")
            )
            ok, err = recv_replies(sock, 2)
            assert str(ok) == "OK"
            assert isinstance(err, RespError)
            assert "protocol error" in err.message
            # poisoned remainder was dropped: "after" never executed
            sock.sendall(encode_command("GET", "after"))
            (after,) = recv_replies(sock, 1)
            assert after is None
            sock.sendall(encode_command("GET", "before"))
            (before,) = recv_replies(sock, 1)
            assert before == b"1"
        finally:
            sock.close()

    def test_counters_track_protocol_errors(self, server):
        with TcpKvClient(server.address) as client:
            client._sock.sendall(b"$5\r\nabcXY\r\n")  # bad terminator
            with pytest.raises(RespError):
                client._next_reply()
            assert str(client.execute("PING")) == "PONG"


class TestCleanShutdown:
    def test_stop_flushes_pending_output(self, store):
        """stop() while a reader still owes us bytes: every reply the
        server accepted must arrive before the socket closes."""
        server = TcpKvServer(store).start()
        client = TcpKvClient(server.address, timeout=10)
        value = b"v" * 100_000
        assert str(client.execute("SET", "wide", value)) == "OK"
        # queue ~4 MiB of replies without reading: far beyond the kernel
        # socket buffers, so the server holds pending output
        depth = 40
        client._sock.sendall(encode_command("GET", "wide") * depth)
        # wait until the batch has executed and output is pending
        deadline = time.monotonic() + 5
        while server.commands_processed < depth + 1:
            assert time.monotonic() < deadline, "batch never executed"
            time.sleep(0.01)
        # stop() joins the loop's shutdown flush, which cannot finish
        # until someone drains the socket — so read concurrently
        import threading

        stopper = threading.Thread(target=server.stop)
        stopper.start()
        replies = []
        parser = RespParser()
        sock = client._sock
        sock.settimeout(10)
        try:
            while len(replies) < depth:
                data = sock.recv(65536)
                if not data:
                    break
                parser.feed(data)
                replies.extend(parser.parse_all())
        except OSError:
            pass
        stopper.join(timeout=15)
        assert not stopper.is_alive()
        assert replies == [value] * depth
        client.close()

    def test_stop_is_idempotent_and_releases_the_port(self, store):
        server = TcpKvServer(store).start()
        address = server.address
        with TcpKvClient(address) as client:
            client.execute("SET", "k", "v")
        server.stop()
        server.stop()  # double stop must be a no-op
        with pytest.raises(OSError):
            socket.create_connection(address, timeout=0.5)


class CountedFile(RealFile):
    """A log file that counts its write(2)s and fsyncs into ``counts``."""

    def __init__(self, path, counts):
        super().__init__(path)
        self._counts = counts

    def write(self, data):
        self._counts["writes"] += 1
        return super().write(data)

    def fsync(self):
        self._counts["fsyncs"] += 1
        super().fsync()


class TestGroupCommit:
    """The AOF costs one buffered write per poll round that logged
    anything — counted, not inferred from a throughput ratio, so a lost
    group commit or a stray per-record fsync fails at any machine load."""

    @pytest.mark.parametrize("policy", ["always", "everysec"])
    def test_one_write_per_round_not_per_record(
        self, store, tmp_path, policy, monkeypatch
    ):
        counts = Counter()
        # a busy box must not let the deferred fsync come due mid-test
        monkeypatch.setattr(aof, "FSYNC_INTERVAL", 3600.0)
        persist = Persistence(
            PersistenceConfig(dir=str(tmp_path), appendfsync=policy),
            file_factory=partial(CountedFile, counts=counts),
        )
        store.attach_persistence(persist)
        try:
            with TcpKvServer(store) as server:
                with TcpKvClient(server.address) as client:
                    for burst in range(8):
                        replies = client.execute_pipeline(
                            *[("SET", f"k{burst}:{i}", "v") for i in range(64)]
                        )
                        assert all(str(r) == "OK" for r in replies)
                # every reply is out, so every round's commit has run
                assert persist.stats.aof_records == 512
                assert persist.aof_pending_bytes == 0 < persist.aof_size
                flushes = persist.stats.flushes
                assert counts["writes"] == flushes >= 1
                assert flushes <= server.batches_executed < 512
                if policy == "always":
                    assert 1 <= counts["fsyncs"] <= flushes
                else:  # the deferred fsync is an hour away
                    assert counts["fsyncs"] == 0
        finally:
            persist.close()
        assert counts["fsyncs"] >= 1  # close seals the log


class TestReclamationUnderEventLoop:
    def test_reclaim_from_foreign_thread_while_serving(self, server):
        """The per-batch lock is the only coordination point with
        out-of-band reclamation; the loop must absorb it mid-traffic."""
        with TcpKvClient(server.address) as client:
            client.execute_pipeline(
                *[("SET", f"key:{i:05d}", "x" * 50) for i in range(2000)]
            )
            sma = server.store.sma
            stats = sma.reclaim(sma.held_pages // 2)
            assert stats.allocations_freed > 0
            assert client.execute("GET", "key:00000") is None
            client.execute("SET", "fresh", "alive")
            assert client.execute("GET", "fresh") == b"alive"
