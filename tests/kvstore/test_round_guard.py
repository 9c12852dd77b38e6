"""A structural guard on the serving round: syscalls counted, no clock.

With no AOF, no feed and no pending PSYNC, one round of the event loop
is ``poll -> recv_into -> pump -> send`` and nothing is built around
those three calls. What this file pins, through a counting poll object
and counting accepted sockets (``transport_standins.py``):

* one depth-1 GET is exactly one ``poll``, one ``recv_into`` and one
  ``send``; write interest is never touched, and the parser builds no
  ``memoryview`` to receive (no ``recv_view``, none handed out);
* a 16-deep pipelined batch is the same three calls — the calls are
  per round, not per command;
* a partial write costs exactly one ``modify`` to watch the socket
  writable and one to stop, and one more round;
* around its three syscalls a depth-1 GET round enters three Python
  frames of its own (``recv_from``, ``pump``, ``parse_pipeline``) and
  the command's five, and makes :data:`DEPTH_1_C_CALLS` C calls;
  a 16-deep round adds only per-command calls. Counted with
  ``sys.setprofile`` on the loop thread between two polls, GC off —
  calls, not time, and the same on every interpreter;
* a replica's link to its master is one more socket on its own loop:
  attaching one starts no thread, and a stream chunk is one ``poll``,
  one ``recv`` and one ``sendall`` (the ACK). The replica's loop runs
  on the test's thread there, its rounds written by hand, so its idle
  ACK cannot land inside the counted round. The link acks at most once
  per ``_ACK_EVERY`` (5 ms): two applied reads inside it are two
  ``recv`` and one ``sendall``, and the link's ``tick`` past the
  deadline sends the owed ACK, at the last applied offset — counted on
  a clock the test moves, not timed;
* a master ships its stream to a feed at most once per ``_FEED_EVERY``
  (1 ms), the same rule downstream: four write rounds inside one window
  are two feed ``send``, the first at once and the owed one at the
  deadline, at the master's full offset; the first write after a quiet
  spell ships in its own round, and ``WAIT`` ships held bytes before it
  blocks — its loop driven on the test's thread, on a clock the test
  sets. Live, ``stop()`` ships a held tail: the replica ends at the
  master's offset;
* a kv process's link to its soft memory daemon is one more socket on
  the loop too: a ``build_server(smd_socket=...)`` server runs no
  thread but its loop, a served DEMAND is one ``recv`` and one
  ``sendall`` on the loop's thread, a server without a daemon link
  tests for one once a round, and a DEMAND that lands while the loop
  waits on its own REQUEST is answered from the loop with zero pages,
  never through ``try_reclaim``.

The poll stand-in is installed as ``select.epoll`` (``select.poll``
where there is none), so the file also runs against a tree whose loop
goes through ``selectors``: EXPERIMENTS.md shows it red there.
"""

from __future__ import annotations

import ast
import contextlib
import gc
import inspect
import os
import re
import select
import socket
import sys
import textwrap
import threading
import time
from collections import Counter
from types import SimpleNamespace

import pytest

import repro.kvstore.repl.link
import repro.kvstore.repl.node
import repro.rpc.agent
from repro.core.locking import LockedSoftMemoryAllocator
from repro.kvstore import TcpKvClient, TcpKvServer, resp
from repro.kvstore.persist.codec import EXP_NONE, encode_write
from repro.kvstore.repl import ReplicaLink, ReplicationState
from repro.kvstore.resp import RespParser, encode_command
from repro.kvstore.store import DataStore
from repro.rpc.config import RpcConfig
from repro.tools.kv_server import build_server
from tests.kvstore.transport_standins import (
    CountingListener,
    CountingPoll,
    CountingSocket,
    ScriptedDaemon,
    drive,
    readable,
)

GET = encode_command("GET", "k")
REPLY = b"$1\r\nv\r\n"


def read_exactly(sock: socket.socket, count: int) -> bytes:
    data = b""
    while len(data) < count:
        chunk = sock.recv(count - len(data))
        assert chunk, "server closed the connection"
        data += chunk
    return data


@pytest.fixture
def served(monkeypatch):
    """One served connection whose first exchange is already behind it:
    its ``client`` socket, the ``counts`` since, the ``polls`` made,
    the accepted ``sockets`` and the ``parsers`` that built a view."""
    counts: Counter = Counter()
    polls: list[CountingPoll] = []
    kind = "epoll" if hasattr(select, "epoll") else "poll"
    real_poll = getattr(select, kind)

    def counting_poll():
        polls.append(CountingPoll(real_poll(), counts))
        return polls[-1]

    def counting_memoryview(obj):
        counts["memoryview"] += 1
        return memoryview(obj)

    real_recv_view = RespParser.recv_view
    parsers = []

    def counting_recv_view(self, hint=65536):
        counts["recv_view"] += 1
        parsers.append(self)
        return real_recv_view(self, hint)

    monkeypatch.setattr(select, kind, counting_poll)
    # a module global shadows the builtin for every call resp.py makes
    monkeypatch.setattr(resp, "memoryview", counting_memoryview, raising=False)
    monkeypatch.setattr(RespParser, "recv_view", counting_recv_view)
    store = DataStore(LockedSoftMemoryAllocator(name="round-guard"))
    server = TcpKvServer(store)
    listener = server._listener = CountingListener(server._listener, counts)
    server.start()
    client = socket.create_connection(server.address, timeout=5)
    client.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    try:
        # the accept round, and the first receive sizes the parser's buffer
        client.sendall(encode_command("SET", "k", "v"))
        assert read_exactly(client, 5) == b"+OK\r\n"
        counts.clear()
        yield SimpleNamespace(
            client=client, counts=counts, polls=polls,
            sockets=listener.accepted, parsers=parsers,
        )
    finally:
        client.close()
        server.stop()


def one_round(served, depth: int) -> None:
    served.client.sendall(GET * depth)
    replies = read_exactly(served.client, len(REPLY) * depth)
    assert replies == REPLY * depth


def test_a_depth_1_get_is_three_syscalls_and_nothing_built(served):
    one_round(served, 1)
    assert served.counts == Counter(poll=1, recv_into=1, send=1)
    for __ in range(10):
        one_round(served, 1)
    assert served.counts == Counter(poll=11, recv_into=11, send=11)
    # the one view ever built sized the buffer, before the counting began
    assert [p.views_created for p in served.parsers] == [0]


def test_a_16_deep_round_is_the_same_three_calls(served):
    one_round(served, 16)
    assert served.counts == Counter(poll=1, recv_into=1, send=1)


def test_a_partial_write_is_one_modify_on_and_one_off(served):
    (sock,), (poll,) = served.sockets, served.polls
    sock.script = [3, BlockingIOError]  # the kernel takes 3 bytes, then none
    one_round(served, 1)
    # the tail reaches the client from inside the writable round, which
    # turns write interest off only after its send: let that round end
    for __ in range(1000):
        if len(poll.masks) == 2:
            break
        time.sleep(0.001)
    assert poll.masks == [select.POLLIN | select.POLLOUT, select.POLLIN]
    # the round that parked the tail, and the writable round that sent it
    assert served.counts == Counter(poll=2, recv_into=1, send=3, modify=2)
    one_round(served, 1)  # and the connection is back to three calls
    assert served.counts == Counter(poll=3, recv_into=2, send=4, modify=2)


# -- a round's calls --------------------------------------------------------

#: the Python frames one GET adds to a round, by file and function
PER_GET = Counter({
    ("commands.py", "dispatch"): 1,
    ("store.py", "get"): 1,
    ("dict.py", "get"): 1,
    ("resp.py", "encode_reply_into"): 1,
    ("metrics.py", "observe"): 1,  # its command's latency histogram
})
#: the frames a round enters beyond its commands': one receive into
#: the parser, one batch and its one parse
PER_ROUND = Counter({
    ("resp.py", "recv_from"): 1,
    ("server.py", "pump"): 1,
    ("resp.py", "parse_pipeline"): 1,
})
#: a depth-1 GET round's C calls beyond its ``poll`` (``recv_into``
#: and ``send`` among them); 26 before the loop dropped its frames
DEPTH_1_C_CALLS = 23


class CallCensus:
    """The loop's poll object, profiling the loop thread between polls.

    Each ``poll`` that returns while :attr:`armed` opens a round:
    ``sys.setprofile`` counts the Python frames the loop enters (by
    file and function) and the C functions it calls (by caller and
    name) until it polls again. The census's own frame and calls and
    the poll itself are not counted.
    """

    def __init__(self, real) -> None:
        self._real = real
        self.armed = False
        self.rounds: list[tuple[Counter, Counter]] = []

    def poll(self, *args):
        sys.setprofile(None)
        events = self._real.poll(*args)
        if self.armed:
            python, c = Counter(), Counter()
            self.rounds.append((python, c))
            own = CallCensus.poll.__code__

            def profile(frame, event, arg):
                code = frame.f_code
                if event == "call" and code is not own:
                    python[os.path.basename(code.co_filename), code.co_name] += 1
                elif event == "c_call" and arg is not sys.setprofile:
                    c[code.co_name, arg.__name__] += 1

            sys.setprofile(profile)
        return events

    def __getattr__(self, name):  # register, modify, unregister, close
        return getattr(self._real, name)


def counted_rounds(depth: int, rounds: int = 20) -> list:
    """The calls of one round of ``depth`` pipelined GETs, counted on
    the loop thread with the cyclic GC off: ``(python, c)``, the same
    in each of ``rounds`` rounds."""
    server = TcpKvServer(DataStore(LockedSoftMemoryAllocator(name="census")))
    census = server._poller = CallCensus(server._poller)
    server.start()
    client = socket.create_connection(server.address, timeout=5)
    client.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    served = SimpleNamespace(client=client)
    collecting = gc.isenabled()
    try:
        client.sendall(encode_command("SET", "k", "v"))
        assert read_exactly(client, 5) == b"+OK\r\n"
        for __ in range(3):  # the parser's buffer and window settle
            one_round(served, depth)
        gc.disable()
        census.armed = True
        for __ in range(rounds):
            one_round(served, depth)
        census.armed = False
        one_round(served, depth)  # its poll closes the last counted round
    finally:
        if collecting:
            gc.enable()
        client.close()
        server.stop()
    assert len(census.rounds) == rounds
    assert all(counted == census.rounds[0] for counted in census.rounds)
    return census.rounds[0]


def test_a_depth_1_get_round_enters_three_frames_beyond_its_command():
    python, c = counted_rounds(1)
    assert python == PER_ROUND + PER_GET
    assert sum(python.values()) == 8  # 12 before the loop dropped its frames
    assert sum(c.values()) == DEPTH_1_C_CALLS
    assert c[("_loop", "send")] == c[("recv_from", "recv_into")] == 1


def test_a_16_deep_round_adds_only_per_command_calls():
    (python, c), (deep_python, deep_c) = counted_rounds(1), counted_rounds(16)
    assert deep_python == python + Counter(
        {frame: 15 * n for frame, n in PER_GET.items()}
    )
    assert not c - deep_c
    assert all(n % 15 == 0 for n in (deep_c - c).values())


# -- a replica ------------------------------------------------------------


def bare_server(name: str) -> TcpKvServer:
    return TcpKvServer(DataStore(LockedSoftMemoryAllocator(name=name)))


def test_an_attached_replica_adds_no_thread():
    master = bare_server("guard-master").start()
    replica = bare_server("guard-replica").start()
    try:
        before = set(threading.enumerate())
        with TcpKvClient(replica.address) as client:
            assert str(client.execute("REPLICAOF", *master.address)) == "OK"
            for __ in range(1500):  # the first sync: bounded, not timed
                if b"master_link_status:up" in client.execute("INFO"):
                    break
                time.sleep(0.01)
            assert b"master_link_status:up" in client.execute("INFO")
            started = [t for t in threading.enumerate() if t not in before]
            assert [t.name for t in started] == []
    finally:
        replica.stop()
        master.stop()


def test_an_applied_stream_chunk_is_one_poll_one_recv_one_sendall():
    master = bare_server("chunk-master").start()
    replica = bare_server("chunk-replica")
    replica.replicaof(*master.address)
    link = replica._repl.link
    counts: Counter = Counter()
    seen = {}

    def dialed():  # the round's tick dialed before this poll
        waiter = select.poll()
        waiter.register(link.fd, select.POLLOUT)
        assert waiter.poll(5000), "the dial never finished"
        return [(link.fd, select.POLLOUT)]

    def synced():  # the PSYNC reply, one read at a time
        if replica.store.repl.link_status == "up":
            return []
        readable(link.fd)
        return [(link.fd, select.POLLIN)]

    def chunk():
        assert replica.store.repl.link_status == "up"
        link.sock = CountingSocket(link.sock, counts)
        with TcpKvClient(master.address) as client:
            assert str(client.execute("SET", "k", "v")) == "OK"
        readable(link.fd)
        counts["poll"] += 1  # this one
        return [(link.fd, select.POLLIN)]

    def after():
        seen["counts"] = +counts
        seen["applied"] = replica.store.get(b"k")
        return []

    try:
        drive(replica, dialed, *[synced] * 4, chunk, after)
    finally:
        master.stop()
    assert seen == {
        "counts": Counter(poll=1, recv=1, sendall=1),
        "applied": b"v",
    }


def test_two_applied_reads_inside_the_ack_window_are_one_ack(monkeypatch):
    now = [1000.0]  # the link's monotonic clock, moved by hand
    monkeypatch.setattr(
        repro.kvstore.repl.link,
        "time",
        SimpleNamespace(monotonic=lambda: now[0], time=time.time),
    )
    every = getattr(repro.kvstore.repl.link, "_ACK_EVERY", 0.005)
    store = DataStore(LockedSoftMemoryAllocator(name="ack-replica"))
    state = ReplicationState()
    state.become_replica("127.0.0.1", 1)
    state.link_status = "up"  # a sync just landed
    link = ReplicaLink(store, state, select.poll())
    ours, theirs = socket.socketpair()
    counts: Counter = Counter()
    link.sock = CountingSocket(ours, counts)
    offsets = []
    try:
        for key in (b"a", b"b"):
            record = bytearray()
            encode_write(record, key, b"v", EXP_NONE)
            theirs.sendall(record)
            readable(ours.fileno())
            link.on_event(select.POLLIN)
            offsets.append(state.master_repl_offset)
            now[0] += every / 4
        applied = +counts
        theirs.sendall(record[:3])  # a read that applies nothing ...
        readable(ours.fileno())
        link.on_event(select.POLLIN)
        now[0] += every  # ... and postpones nothing
        link.tick()
        ticked = counts - applied
        theirs.setblocking(False)
        acks = [int(a) for a in re.findall(
            rb"ACK\r\n\$\d+\r\n(\d+)\r\n", theirs.recv(4096)
        )]
    finally:
        ours.close()
        theirs.close()
    assert store.get(b"b") == b"v"
    assert applied == Counter(recv=2, sendall=1)  # the first acks at once
    assert ticked == Counter(recv=1, sendall=1)  # the owed one, on the timer
    assert acks == offsets  # ... at the last applied offset


# -- a master's feed ---------------------------------------------------------


def held(sock: socket.socket) -> bytes:
    """What ``sock`` has received by now, read without blocking."""
    data = b""
    sock.settimeout(0)
    with contextlib.suppress(BlockingIOError):
        while chunk := sock.recv(65536):
            data += chunk
    sock.settimeout(5)
    return data


class FeedRig:
    """A bare master whose loop the test drives, one feed and one writer.

    The feed is a raw socket that asked ``PSYNC ? -1``; the writer is a
    plain client connection. Each method is one round for :func:`drive`,
    run where the loop polls; ``now`` is ``repl/node.py``'s monotonic
    clock, set by hand to :attr:`T0` plus a round's ``at``. ``sends`` is
    the feed socket's ``send`` count at the start of each round: what
    the rounds before it shipped.
    """

    T0 = 1000.0

    def __init__(self, monkeypatch) -> None:
        self.now = [self.T0]
        monkeypatch.setattr(
            repro.kvstore.repl.node,
            "time",
            SimpleNamespace(monotonic=lambda: self.now[0], time=time.time),
        )
        self.every = getattr(repro.kvstore.repl.node, "_FEED_EVERY", 0.001)
        self.master = bare_server("feed-master")
        self.listener = self.master._listener = CountingListener(
            self.master._listener, Counter()
        )
        # both wait in the listen queue: one accept round takes them
        self.feed = socket.create_connection(self.master.address, timeout=5)
        self.writer = socket.create_connection(self.master.address, timeout=5)
        self.synced_at = -1  # the FULLRESYNC offset, once read
        self.streamed = 0  # stream bytes the feed has read since
        self.replies = b""  # what the writer has been answered
        self.sends: list[int] = []

    def close(self) -> None:
        self.feed.close()
        self.writer.close()

    def _fd(self, index: int) -> int:
        return self.listener.accepted[index].fileno()

    def _settle(self) -> None:
        """Read what the last round put on both sockets (a loopback
        ``send`` has landed by the time it returns)."""
        if self.listener.accepted:
            self.sends.append(self.listener.accepted[0].counts["send"])
        self.replies += held(self.writer)
        if self.synced_at >= 0:
            self.streamed += len(held(self.feed))

    @property
    def lag(self) -> int:
        """Stream bytes the master produced that the feed has not read."""
        state = self.master.store.repl
        return state.master_repl_offset - self.synced_at - self.streamed

    def accept(self):
        return [(self.listener.fileno(), select.POLLIN)]

    def psync(self):
        self._settle()
        self.feed.sendall(encode_command("PSYNC", "?", "-1"))
        readable(self._fd(0))
        return [(self._fd(0), select.POLLIN)]

    def _request(self, command: bytes):
        if self.synced_at < 0:  # the PSYNC reply: header, then snapshot
            head = b""
            while head.count(b"\r\n") < 2:
                head += self.feed.recv(4096)
            line, size, body = head.split(b"\r\n", 2)
            assert line.startswith(b"+FULLRESYNC ")
            self.synced_at = int(line.split()[2])
            read_exactly(self.feed, int(size[1:]) - len(body))
        self._settle()
        self.writer.sendall(command)
        readable(self._fd(1))
        return [(self._fd(1), select.POLLIN)]

    def write(self, key: str, at: float = 0.0):
        """A round that runs one SET, ``at`` seconds past ``T0``."""
        def round_():
            self.now[0] = self.T0 + at
            return self._request(encode_command("SET", key, "v"))
        return round_

    def wait(self):
        """A round that runs ``WAIT 1 0``; a helper thread plays the
        replica: it reads the stream up to the master's offset, then
        acks it (or, if the bytes never come, hangs up, which ends the
        WAIT at 0)."""
        target = self.master.store.repl.master_repl_offset
        owed = target - self.synced_at - self.streamed

        def replica():
            try:
                read_exactly(self.feed, owed)
                self.streamed += owed
                self.feed.sendall(
                    encode_command("REPLCONF", "ACK", str(target))
                )
            except (OSError, AssertionError):
                self.feed.shutdown(socket.SHUT_RDWR)

        self.acker = threading.Thread(target=replica)
        self.acker.start()
        return self._request(encode_command("WAIT", "1", "0"))

    def idle(self, at: float):
        """A round with no event, ``at`` seconds past ``T0``."""
        def round_():
            self.now[0] = self.T0 + at
            self._settle()
            return []
        return round_

    def look(self):
        """The last round: read what the rounds before it sent."""
        self._settle()
        self.seen_lag = self.lag
        return []


def test_write_rounds_inside_the_feed_window_are_one_send(monkeypatch):
    """``N`` write rounds inside one ``_FEED_EVERY`` window: the first
    ships at once, the rest are held, and the owed ship at the deadline
    carries the master's full offset — two sends where a per-round
    broadcast makes ``N``."""
    rig = FeedRig(monkeypatch)
    quarter = rig.every / 4
    try:
        drive(
            rig.master,
            rig.accept,
            rig.psync,
            rig.write("k0"),
            *[rig.write(f"k{i}", at=i * quarter) for i in range(1, 4)],
            rig.idle(at=rig.every),
            rig.look,
        )
    finally:
        rig.close()
    # seen by the rounds psync, k0 .. k3, the deadline and the last: the
    # sync reply, k0 at once, k1 .. k3 held, then the owed ship
    assert rig.sends == [0, 1, 2, 2, 2, 2, 3]
    assert rig.replies == b"+OK\r\n" * 4  # no reply waits for the stream
    assert rig.seen_lag == 0
    # while bytes are held, each poll blocks until the owed ship is due
    per_second = rig.master._per_second
    due = [pytest.approx(left * quarter * per_second) for left in (3, 2, 1)]
    assert rig.master._poller.timeouts == [
        None, None, None, None, *due, None, None
    ]


def test_the_first_write_after_a_quiet_spell_ships_in_its_own_round(
    monkeypatch,
):
    rig = FeedRig(monkeypatch)
    try:
        drive(
            rig.master,
            rig.accept,
            rig.psync,
            rig.write("a"),
            rig.write("b", at=rig.every / 2),  # held ...
            rig.idle(at=rig.every),  # ... and shipped on the timer
            rig.write("c", at=10 * rig.every),
            rig.look,
        )
    finally:
        rig.close()
    assert rig.sends[-4:] == [2, 2, 3, 4]
    assert rig.seen_lag == 0


def test_wait_inside_the_feed_window_ships_the_held_bytes_first(
    monkeypatch,
):
    """A write held inside the window, then ``WAIT 1 0``: the WAIT ships
    it before it blocks, so the replica can ack it — the clock never
    reaches the deadline."""
    rig = FeedRig(monkeypatch)
    try:
        drive(
            rig.master,
            rig.accept,
            rig.psync,
            rig.write("a"),
            rig.write("b", at=rig.every / 4),
            rig.wait,
            rig.look,
        )
        rig.acker.join(10)
    finally:
        rig.close()
    assert rig.replies == b"+OK\r\n" * 2 + b":1\r\n"
    assert rig.sends[-3:] == [2, 2, 3]  # held, then the WAIT's one send
    assert rig.seen_lag == 0


def test_stop_ships_a_held_tail_to_the_replica(monkeypatch):
    """A master stopped while it holds stream bytes (the window set
    wide, so the second SET is held) leaves its replica at its offset."""
    monkeypatch.setattr(
        repro.kvstore.repl.node, "_FEED_EVERY", 60.0, raising=False
    )
    master = bare_server("tail-master").start()
    replica = bare_server("tail-replica").start()
    try:
        with TcpKvClient(replica.address) as client:
            assert str(client.execute("REPLICAOF", *master.address)) == "OK"
        with TcpKvClient(master.address) as client:
            for __ in range(1500):  # the sync: bounded, not timed
                if client.execute("WAIT", "1", "10") == 1:
                    break
            for key in ("a", "b"):  # "a" ships at once, "b" is held
                assert str(client.execute("SET", key, "v")) == "OK"
        offset = master.store.repl.master_repl_offset
        master.stop()
        for __ in range(500):
            if replica.store.repl.master_repl_offset == offset:
                break
            time.sleep(0.01)
        assert replica.store.repl.master_repl_offset == offset
        assert replica.store.get(b"b") == b"v"
    finally:
        replica.stop()
        master.stop()


def test_a_master_that_turns_replica_moves_its_held_tail_to_the_backlog():
    """``REPLICAOF`` on a master that holds stream bytes: they go to its
    backlog, where the offset it offers in PSYNC already counts them,
    and ``pending`` is left empty — a replica ships nothing, so held
    bytes would keep its loop's feed timer due forever."""
    server = bare_server("turning-master")
    state = server.enable_replication()
    state.stream_started = True  # as the first PSYNC served sets it
    server.store.set(b"k", b"v")
    held, offset = bytes(state.pending), state.master_repl_offset
    server.replicaof("127.0.0.1", 1)
    drive(server)  # no round: the loop only shuts down
    assert (state.pending, state.master_repl_offset) == (b"", offset)
    assert state.backlog_since(offset - len(held)) == held


# -- a daemon link ---------------------------------------------------------


@pytest.fixture
def tenant(tmp_path, monkeypatch):
    """An unstarted ``build_server(smd_socket=...)`` server, its store,
    the scripted daemon it registered with — one page of startup
    budget, and no heartbeats, so no PING lands in a counted round —
    and the threads that ran before it was built."""
    monkeypatch.setattr(
        repro.rpc.agent, "DEFAULT_RPC_CONFIG", RpcConfig(heartbeat_interval=0.0)
    )
    daemon = ScriptedDaemon(tmp_path / "smd.sock")
    before = set(threading.enumerate())
    with daemon.welcoming(startup_pages=1):
        store, __, server = build_server(smd_socket=daemon.path)
    try:
        yield SimpleNamespace(
            store=store, server=server, daemon=daemon, before=before
        )
    finally:
        server.stop()
        store.smd_agent.close()
        daemon.close()


def test_an_smd_tenant_runs_no_thread_but_its_loop(tenant):
    tenant.server.start()
    started = [
        t.name for t in threading.enumerate() if t not in tenant.before
    ]
    assert started == ["kv-event-loop"]


def test_a_served_demand_is_one_recv_and_one_sendall_on_the_loop(tenant):
    store, daemon = tenant.store, tenant.daemon
    stream = store.smd_agent._stream
    fd = stream._sock.fileno()
    store.set(b"k", b"v" * 3000)  # the startup page: something to reclaim
    counts: Counter = Counter()
    seen = {}

    def demand():
        stream._sock = CountingSocket(stream._sock, counts)
        daemon.send({"op": "demand", "id": 1, "pages": 1})
        readable(fd)
        return [(fd, select.POLLIN)]

    def after():
        seen["counts"] = +counts
        return []

    drive(tenant.server, demand, after)
    report = daemon.recv()
    assert seen["counts"] == Counter(recv=1, sendall=1)
    assert (report["op"], report["id"], report["pages_reclaimed"]) == (
        "report", 1, 1
    )


def test_a_server_without_a_daemon_link_tests_for_one_once_a_round():
    """The loop body names the agent in one ``is None`` test, and only
    the round's ``conn is None`` branch reaches for its fd."""
    source = textwrap.dedent(inspect.getsource(TcpKvServer._loop))
    (body,) = [n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.While)]
    tests = [
        n for n in ast.walk(body)
        if isinstance(n, ast.Compare)
        and isinstance(n.left, ast.Name) and n.left.id == "agent"
        and isinstance(n.ops[0], (ast.Is, ast.IsNot))
    ]
    assert len(tests) == 1


def test_a_demand_during_the_loops_own_request_is_answered_from_the_loop(
    tenant, monkeypatch
):
    """The daemon got the loop's REQUEST, sends a DEMAND and grants only
    once the REPORT is back: the loop, blocked in its own round trip,
    answers it with zero pages and never reaches ``try_reclaim``."""
    daemon, agent = tenant.daemon, tenant.store.smd_agent
    tries = []
    real_try = LockedSoftMemoryAllocator.try_reclaim
    monkeypatch.setattr(
        LockedSoftMemoryAllocator, "try_reclaim",
        lambda *a, **kw: tries.append(a) or real_try(*a, **kw),
    )
    senders = []
    real_send = agent._stream.send

    def spied_send(frame):
        senders.append((frame["op"], threading.current_thread().name))
        real_send(frame)

    agent._stream.send = spied_send
    seen = {}

    def script():
        request = daemon.recv()
        assert request["op"] == "request"
        daemon.send({"op": "demand", "id": 7, "pages": 2})
        seen["report"] = daemon.recv()
        daemon.send({"op": "grant", "id": request["id"],
                     "pages": request["pages"]})
        daemon.serve()

    scripted = threading.Thread(target=script)
    scripted.start()
    tenant.server.start()
    with TcpKvClient(tenant.server.address) as client:
        for key in ("k1", "k2"):  # the second outgrows the startup page
            assert str(client.execute("SET", key, "v" * 3000)) == "OK"
    scripted.join(10)
    report = seen["report"]
    assert (report["op"], report["id"], report["pages_reclaimed"]) == (
        "report", 7, 0
    )
    assert ("report", "kv-event-loop") in senders
    assert tries == [] and agent.demands_served == 0
