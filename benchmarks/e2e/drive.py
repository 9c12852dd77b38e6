"""The driver: one thread, one connection, every reply checked.

For the three deterministic workloads a batch is one ``sendall`` of
pre-encoded bytes, one ``recv_into`` up to the known reply length and
one bytes compare against the pre-computed expectation, so the driver
costs about a tenth of a core while the server is saturated and still
checks every reply inside the timed loop. ``reclaim_pressure`` has
unpredictable replies (what is reclaimed depends on the server's
state), so its driver parses them and holds each GET to "absent, or
exactly the last acknowledged value".
"""

from __future__ import annotations

import os
import random
import socket
import statistics
import time

from harness import HERE, SOCKET_TIMEOUT_S, BenchError, Procs, Window
from repro.core.locking import LockedSoftMemoryAllocator
from repro.kvstore.resp import RespError, RespParser, encode_command
from repro.rpc import SmaAgent
from repro.util.units import PAGE_SIZE


class Tally:
    """What the driver saw, counted per operation."""

    __slots__ = ("ops", "gets", "hits", "failed", "refused")

    def __init__(self) -> None:
        self.ops = 0
        self.gets = 0
        self.hits = 0
        #: wrong or stale values, unexpected errors, short replies
        self.failed = 0
        #: SETs answered with an OOM refusal (also counted in failed)
        self.refused = 0

    def add(self, other: "Tally") -> None:
        for name in self.__slots__:
            setattr(self, name, getattr(self, name) + getattr(other, name))


class Connection:
    """The benchmark's one client socket."""

    def __init__(self, address: tuple[str, int]) -> None:
        self.sock = socket.create_connection(address, timeout=SOCKET_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = bytearray(1 << 20)
        self.view = memoryview(self.buf)
        self.parser = RespParser()

    def close(self) -> None:
        self.view.release()
        self.sock.close()

    def exchange(self, request: bytes, want: int) -> None:
        """Send one batch, read exactly ``want`` reply bytes into buf."""
        self.sock.sendall(request)
        self.receive(want)

    def receive(self, want: int) -> None:
        sock = self.sock
        got = sock.recv_into(self.buf, want)
        while got < want:
            more = sock.recv_into(self.view[got:want]) if got else 0
            if not more:
                raise BenchError("server closed the connection mid-reply")
            got += more

    def command(self, *args: object) -> object:
        """One command, one parsed reply (set-up and checks, not load)."""
        self.sock.sendall(encode_command(*args))
        return self.replies(1)[0]

    def replies(self, count: int) -> list:
        """Parse ``count`` replies off the socket (errors in place)."""
        parser = self.parser
        out: list = parser.parse_all()
        while len(out) < count:
            with parser.recv_view(65536) as view:
                nbytes = self.sock.recv_into(view)
            if not nbytes:
                raise BenchError("server closed the connection mid-reply")
            parser.commit_recv(nbytes)
            out.extend(parser.parse_all())
        if len(out) != count:
            raise BenchError(f"expected {count} replies, got {len(out)}")
        return out


class ReferenceProbe:
    """The calibration: a fixed script exchanged with ``calib_server.py``.

    The script has the pipeline depth of the workload it calibrates, so
    a depth-1 workload is calibrated by round trips and a depth-16 one
    by batches. ``ms()`` before and after anything timed brackets it — a
    window driven over TCP or a layer replayed in this process — and
    ``window()`` puts the reading on the reference scale. Every instance
    of a topology gets a fresh probe: two reference servers differ from
    each other as two servers under test do, by a few per cent for as
    long as they live, and a probe shared by a whole run would put that
    on every number of the run.
    """

    #: depth -> (batches in the script, what ``ms()`` reads on the quiet
    #: machine). The second is the benchmark's reference calibration:
    #: every timing is scaled by it / (the reading around the timing), so
    #: changing it rescales every number
    SCRIPTS = {16: (400, 10.5), 1: (1000, 10.0)}
    #: the script is timed in this many equal parts (see ``ms``)
    PARTS = 5

    def __init__(self, procs: Procs, depth: int) -> None:
        batches, self.ref_ms = self.SCRIPTS[depth]
        self.proc = procs.spawn(
            "reference", [os.path.join(HERE, "calib_server.py")]
        )
        self.conn = Connection(self.proc.address)
        rng = random.Random(0)
        value = b"v" * 128
        self.script: list[tuple[bytes, int]] = []
        for _ in range(batches):
            request, reply_bytes = [], 0
            for _ in range(depth):
                key = b"key:%08d" % rng.randrange(65536)
                if rng.random() < 0.95:
                    request.append(b"G " + key + b"\n")
                    reply_bytes += len(b"$128\r\n") + len(value) + 2
                else:
                    request.append(b"S " + key + b" " + value + b"\n")
                    reply_bytes += len(b"+OK\r\n")
            self.script.append((b"".join(request), reply_bytes))
        self.ms()  # first exchange warms the connection

    def ms(self) -> float:
        """One reading: the median part of the script, times the number
        of parts. A preemption inside one part then does not read as a
        slower machine (two back-to-back readings disagree by more than
        8% a quarter less often than with the plain sum), while a machine
        that is slower for most of the reading does."""
        exchange = self.conn.exchange
        clock = time.perf_counter
        size = len(self.script) // self.PARTS
        parts = []
        for at in range(0, len(self.script), size):
            start = clock()
            for request, reply_bytes in self.script[at : at + size]:
                exchange(request, reply_bytes)
            parts.append(clock() - start)
        return statistics.median(parts) * self.PARTS * 1e3

    def window(self, values: dict, before: float, after: float) -> Window:
        return Window(values, before, after, self.ref_ms)

    def close(self, procs: Procs) -> None:
        self.conn.close()
        procs.kill(self.proc)


def _count_mismatches(got: bytes, expected: bytes, ops: int) -> int:
    """Slow path, taken only on a failed compare: which ops were wrong."""
    try:
        mine, theirs = RespParser(), RespParser()
        mine.feed(got)
        theirs.feed(expected)
        a, b = mine.parse_all(), theirs.parse_all()
    except ValueError:
        return ops
    return sum(1 for x, y in zip(a, b) if x != y) + abs(len(a) - len(b))


def replay(
    conn: Connection, trace, expected: list[bytes], spans=None,
    start: int = 0, count: int | None = None,
) -> Tally:
    """``count`` closed-loop batches from batch ``start`` of the segment,
    wrapping around its end (default: up to its end); every reply
    compared."""
    tally = Tally()
    requests = trace.requests
    per_batch = trace.ops_per_batch
    gets_per_batch = trace.gets_per_batch
    buf = conn.buf
    exchange = conn.exchange
    clock = time.perf_counter
    total = len(requests)
    if count is None:
        count = total - start
    for step in range(count):
        index = (start + step) % total
        want = expected[index]
        size = len(want)
        if spans is None:
            exchange(requests[index], size)
        else:
            t0 = clock()
            conn.sock.sendall(requests[index])
            t1 = clock()
            conn.receive(size)
            t2 = clock()
        if buf[:size] != want:
            tally.failed += _count_mismatches(
                bytes(buf[:size]), want, per_batch[index]
            )
        if spans is not None:
            spans.batch(index, t0, t1, t2, clock())
        tally.ops += per_batch[index]
        tally.gets += gets_per_batch[index]
    # which of a bad batch's replies were GETs is not worth a second
    # parse: every wrong reply is charged to the hit rate as well
    tally.hits = tally.gets - min(tally.failed, tally.gets)
    return tally


def _wait_until(due: float) -> float:
    """Spin until ``due``; return the time it is then.

    Never a sleep: the driver shares its CPU with the server, which has
    nothing to do while the driver waits, so a sleeping driver halts the
    vCPU, and what waking it costs is the host's business (open-loop
    p50s of two instances were 6% apart with a sleep, 4% without).
    """
    clock = time.perf_counter
    now = clock()
    while now < due:
        now = clock()
    return now


def open_loop(
    conn: Connection, trace, expected: list[bytes], rate_ops_s: float,
    start_batch: int, batches: int,
) -> tuple[Tally, list[float], list[float]]:
    """Send ``batches`` batches on a fixed schedule; time each from when
    it was *due*, so a stall is charged to every batch it delays.

    Returns the tally, the per-batch latencies and how late each send
    started (the generator's own lag), all in seconds.
    """
    tally = Tally()
    requests = trace.requests
    per_batch = trace.ops_per_batch
    buf = conn.buf
    exchange = conn.exchange
    clock = time.perf_counter
    total = len(requests)
    latencies: list[float] = []
    lags: list[float] = []
    due = clock()
    for step in range(batches):
        index = (start_batch + step) % total
        now = _wait_until(due)
        want = expected[index]
        size = len(want)
        exchange(requests[index], size)
        done = clock()
        if buf[:size] != want:
            tally.failed += _count_mismatches(
                bytes(buf[:size]), want, per_batch[index]
            )
        latencies.append(done - due)
        lags.append(now - due)
        tally.ops += per_batch[index]
        tally.gets += trace.gets_per_batch[index]
        due += per_batch[index] / rate_ops_s
    tally.hits = tally.gets - min(tally.failed, tally.gets)
    return tally, latencies, lags


class Antagonist:
    """A second tenant of the SMD, in the driver process.

    ``take`` allocates ``pages`` of soft memory in a context with no
    reclaim handler — a firm hold, so the daemon's only way to grant it
    is to demand pages from the kv — and ``free`` returns them and the
    budget. Both run on the driver thread, between batches.
    """

    def __init__(self, socket_path: str, pages: int) -> None:
        self.pages = pages
        self.sma = LockedSoftMemoryAllocator(
            name="antagonist", request_batch_pages=pages
        )
        self.agent = SmaAgent.connect(socket_path, self.sma)
        self._context = self.sma.create_context(name="blob", priority=10)
        #: 8-page chunks: large enough that a wave is a handful of
        #: mallocs, small enough to place in a fragmented heap
        self._chunk_pages = 8
        self._chunk_bytes = self._chunk_pages * PAGE_SIZE - 64
        self._held: list = []
        self.waves = 0
        self.wave_seconds: list[float] = []

    @property
    def granted_pages(self) -> int:
        return self.sma.budget.granted

    def take(self) -> None:
        """One wave: raises SoftMemoryDenied if not fully granted."""
        start = time.perf_counter()
        for _ in range(self.pages // self._chunk_pages):
            self._held.append(
                self.sma.soft_malloc(self._chunk_bytes, self._context, b"x")
            )
        self.wave_seconds.append(time.perf_counter() - start)
        self.waves += 1

    def free(self) -> None:
        for ptr in self._held:
            self.sma.soft_free(ptr)
        self._held.clear()
        self.sma.return_excess()

    def close(self) -> None:
        self.free()
        self.agent.close()


def pressure_pass(
    conn: Connection, trace, shadow: dict, antagonist: Antagonist,
    schedule: "WaveSchedule", batches: int, refills: list[bytes], spans=None,
    rate_ops_s: float = 0.0, latencies: list | None = None,
    lags: list | None = None,
) -> Tally:
    """``batches`` closed-loop batches of the cache-aside workload.

    A GET miss is followed by a SET of that key (its last acknowledged
    value, as a cache-aside application would re-fetch it) at the head
    of the next batch; ``refills`` carries the keys owed across calls.
    Waves fire from this thread at fixed batch counts. With
    ``rate_ops_s`` the batches go out on a fixed schedule instead of
    back to back, and each is timed from when it was due — so the wave
    in front of a batch is charged to it and to every batch it delays.
    """
    tally = Tally()
    ops_of = trace.batches
    requests = trace.requests
    total = len(requests)
    sock = conn.sock
    clock = time.perf_counter
    due = clock()
    for _ in range(batches):
        if rate_ops_s:
            lags.append(_wait_until(due) - due)
        position = schedule.batch
        phase = position % schedule.every
        if phase == 0:
            t0 = clock()
            antagonist.take()
            if spans is not None:
                spans.add("antagonist.wave", t0, clock(), position)
        elif phase == schedule.hold:
            antagonist.free()
        schedule.batch += 1
        index = position % total
        ops = ops_of[index]
        # refills go *in front of* the batch's own ops: a SET of the same
        # key inside the batch must land after the refill, or the server
        # would end on the older value while the shadow holds the newer
        owed = len(refills)
        request = requests[index]
        if owed:
            request = b"".join(
                encode_command(b"SET", key, shadow[key]) for key in refills
            ) + request
            refills.clear()
        if spans is not None:
            t0 = clock()
        sock.sendall(request)
        if spans is not None:
            t1 = clock()
        replies = conn.replies(owed + len(ops))
        if spans is not None:
            t2 = clock()
        for reply in replies[:owed]:
            if reply != "OK":
                _count_refusal(tally, reply)
        for op, reply in zip(ops, replies[owed:]):
            key = op[1]
            if op[0] == b"GET":
                tally.gets += 1
                if reply is None:
                    refills.append(key)
                elif reply == shadow[key]:
                    tally.hits += 1
                else:  # stale, foreign or an error: never acceptable
                    tally.failed += 1
            elif reply == "OK":
                shadow[key] = op[2]
            else:
                _count_refusal(tally, reply)
        tally.ops += len(replies)
        if spans is not None:
            spans.batch(position, t0, t1, t2, clock())
        if rate_ops_s:
            latencies.append(clock() - due)
            due += len(replies) / rate_ops_s
    return tally


def _count_refusal(tally: Tally, reply: object) -> None:
    tally.failed += 1
    if isinstance(reply, RespError) and reply.message.startswith("OOM"):
        tally.refused += 1


class WaveSchedule:
    """Where the workload is in its wave cycle (a batch counter)."""

    def __init__(self, every: int, hold: int) -> None:
        self.every = every
        self.hold = hold
        self.batch = 0
