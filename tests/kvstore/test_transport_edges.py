"""The transport's edges: rounds no kernel hands out on demand.

The loop keys connections by fd number and reads one event list per
round, so what must hold is about *order inside a round*: a connection
an earlier event closed is not touched again, an
fd number freed in a round is not reused under a mask still in the
list, and a hang-up that arrives without ``POLLIN`` still closes. Such
rounds are written by hand (``ScriptedPoll``) and run on the test's own
thread; the sockets and everything behind them are real.

The last two tests are not scripted: a feed and a slow client whose
sockets sit above fd 1,023, where ``select.select`` raises and the
code that used it gave up — ``WAIT`` answered at once, ``stop()``
dropped the replies it owed.
"""

from __future__ import annotations

import os
import resource
import select
import socket
import threading
import time
from collections import Counter

import pytest

from repro.core.locking import LockedSoftMemoryAllocator
from repro.kvstore import TcpKvServer, tcp
from repro.kvstore.resp import RespParser, encode_command
from repro.kvstore.store import DataStore
from tests.kvstore.transport_standins import (
    CountingListener,
    drive,
    readable,
)

IN, OUT = select.POLLIN, select.POLLOUT
GET = encode_command("GET", "k")
PSYNC = encode_command("PSYNC", "?", "-1")


@pytest.fixture
def server():
    """An unstarted server whose accepted sockets count their calls."""
    store = DataStore(LockedSoftMemoryAllocator(name="transport-edges"))
    srv = TcpKvServer(store)
    srv._listener = CountingListener(srv._listener, Counter())
    yield srv
    if not srv._stopping:  # the test failed before driving the loop
        srv._stopping = True
        srv._shutdown()


@pytest.fixture
def connect(server):
    """Dial a client whose connection waits in the listener's backlog."""
    clients = []

    def dial() -> socket.socket:
        clients.append(socket.create_connection(server.address, timeout=5))
        return clients[-1]

    yield dial
    for client in clients:
        client.close()


def accept(server):
    """The round that accepts whoever is waiting."""
    return lambda: [(server._listener.fileno(), IN)]


@pytest.mark.parametrize("death", ["eof", "slow-client drop"])
def test_a_closed_connection_is_not_touched_again(
    server, connect, monkeypatch, death
):
    doomed, other = connect(), connect()
    monkeypatch.setattr(tcp, "_OUTPUT_BUFFER_LIMIT", 16)
    fds = []

    def dies():
        x, y = server._listener.accepted
        fds[:] = x.fileno(), y.fileno()
        if death == "eof":
            doomed.close()
        else:  # 40 bytes of replies against a kernel that takes one
            doomed.sendall(GET * 8)
            x.script = [1, BlockingIOError]
        other.sendall(GET)
        readable(fds[0]), readable(fds[1])
        # x's second event is what a merged list could still carry
        return [(fds[0], IN), (fds[1], IN), (fds[0], IN | OUT)]

    def stale():  # and a whole round later, as a `poll` object would
        assert server.connected_clients == 1
        return [(fds[0], IN | OUT)]

    drive(server, accept(server), dies, stale)
    x, y = server._listener.accepted
    if death == "eof":
        assert x.counts == Counter(recv_into=1)  # the EOF itself
    else:
        assert x.counts == Counter(recv_into=1, send=2)
        assert server.clients_dropped == 1
    assert y.counts == Counter(recv_into=1, send=1)
    assert other.recv(64) == b"$-1\r\n"


def synced_feed(server, replica: socket.socket):
    """The round in which ``replica``'s PSYNC is answered."""

    def sync():
        replica.sendall(PSYNC)
        fd = server._listener.accepted[0].fileno()
        readable(fd)
        return [(fd, IN)]

    return sync


def test_a_feed_closed_by_replicaof_earlier_in_the_round_is_skipped(
    server, connect
):
    replica, client = connect(), connect()
    silent = socket.create_server(("127.0.0.1", 0))  # never answers PSYNC
    before = Counter()

    def replicaof_then_ack():
        feed, other = server._listener.accepted
        assert len(server.store.repl.feeds) == 1
        client.sendall(encode_command("REPLICAOF", *silent.getsockname()))
        replica.sendall(encode_command("REPLCONF", "ACK", "0"))
        readable(other.fileno()), readable(feed.fileno())
        before.update(feed.counts)
        # the client's event is listed first: its REPLICAOF closes the feed
        return [(other.fileno(), IN), (feed.fileno(), IN)]

    try:
        drive(
            server, accept(server), synced_feed(server, replica),
            replicaof_then_ack,
        )
    finally:
        silent.close()
    feed, other = server._listener.accepted
    assert feed.counts == before  # no recv on the closed socket
    assert server.store.repl.feeds == []
    assert client.recv(64) == b"+OK\r\n"


def test_a_reused_fd_number_is_not_handed_the_old_mask(server, connect):
    first = connect()
    late = []
    seen = {}

    def reuse():
        (x,) = server._listener.accepted
        seen["fd"] = fd = x.fileno()
        first.close()
        readable(fd)
        late.append(connect())
        # x closes, the listener is ready, and x's number is still listed
        return [(fd, IN), (server._listener.fileno(), IN), (fd, IN | OUT)]

    def serve_the_newcomer():
        z = server._listener.accepted[1]
        seen["reused"] = z.fileno() == seen["fd"]
        seen["in its first round"] = +z.counts
        late[0].sendall(GET)
        readable(z.fileno())
        return [(z.fileno(), IN)]

    drive(server, accept(server), reuse, serve_the_newcomer)
    if not seen["reused"]:
        pytest.skip("the kernel handed the newcomer another fd number")
    assert seen["in its first round"] == Counter()
    assert server._listener.accepted[1].counts == Counter(recv_into=1, send=1)
    assert late[0].recv(64) == b"$-1\r\n"


def test_a_hang_up_without_pollin_closes_and_drops_the_feed(
    server, connect
):
    replica = connect()
    seen = {}

    def hung_up():
        fd = server._listener.accepted[0].fileno()
        assert len(server.store.repl.feeds) == 1
        replica.close()
        readable(fd)
        return [(fd, select.POLLHUP | select.POLLERR)]

    def after():
        seen["clients"] = server.connected_clients
        seen["feeds"] = list(server.store.repl.feeds)
        return []

    drive(
        server, accept(server), synced_feed(server, replica), hung_up, after
    )
    assert seen == {"clients": 0, "feeds": []}


# -- above fd 1,023 ------------------------------------------------------


@pytest.fixture
def high_fds():
    """Hold every fd number below 1,100 for the length of the test."""
    soft, __ = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft < 1400:
        pytest.skip(f"RLIMIT_NOFILE is {soft}: no room above fd 1,100")
    held = [os.open(os.devnull, os.O_RDONLY)]
    try:
        while held[-1] < 1100:
            held.append(os.dup(held[0]))
        yield
    finally:
        for fd in held:
            os.close(fd)


def read_replies(sock: socket.socket, count: int) -> list:
    parser, replies = RespParser(), []
    while len(replies) < count:
        data = sock.recv(65536)
        if not data:
            break
        parser.feed(data)
        replies.extend(parser.parse_all())
    return replies


def started(name: str) -> TcpKvServer:
    return TcpKvServer(DataStore(LockedSoftMemoryAllocator(name=name))).start()


def wait_until(cond, what: str, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not cond():
        assert time.monotonic() < deadline, what
        time.sleep(0.01)


def test_wait_blocks_for_the_ack_of_a_feed_above_fd_1023(high_fds):
    master, replica = started("high-master"), started("high-replica")
    try:
        with socket.create_connection(replica.address, timeout=10) as client:
            client.sendall(encode_command("REPLICAOF", *master.address))
            assert [str(r) for r in read_replies(client, 1)] == ["OK"]
        wait_until(
            lambda: master.store.repl is not None and master.store.repl.feeds,
            "the replica never attached",
        )
        (feed,) = master._repl.feed_conns
        assert feed.sock.fileno() > 1023
        client = socket.create_connection(master.address, timeout=10)
        # SET + WAIT in one batch: the write is still pending when WAIT
        # starts, so the ack it counts can only arrive while it blocks
        client.sendall(
            encode_command("SET", "a", "1") + encode_command("WAIT", 1, 5000)
        )
        ok, acked = read_replies(client, 2)
        assert (str(ok), acked) == ("OK", 1)
        client.close()
    finally:
        replica.stop()
        master.stop()


def test_stop_drains_a_slow_client_above_fd_1023(high_fds):
    server = started("high-drain")
    value = b"v" * 100_000
    depth = 70  # ~7 MiB of replies, under the limit that drops a client
    client = socket.socket()
    # a small window: the kernel cannot buffer the whole tail on its own
    client.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 8192)
    client.settimeout(10)
    client.connect(server.address)
    client.sendall(encode_command("SET", "wide", value))
    assert [str(r) for r in read_replies(client, 1)] == ["OK"]
    client.sendall(encode_command("GET", "wide") * depth)
    wait_until(  # the batch has run; its output is pending
        lambda: server.commands_processed >= depth + 1, "batch never executed"
    )
    # stop() joins the loop's shutdown flush, which cannot finish until
    # someone drains the socket — so read concurrently
    stopper = threading.Thread(target=server.stop)
    stopper.start()
    replies = read_replies(client, depth)
    stopper.join(timeout=15)
    assert not stopper.is_alive()
    assert (len(replies), set(replies)) == (depth, {value})
    client.close()
