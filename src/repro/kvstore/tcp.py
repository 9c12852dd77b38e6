"""TCP transport: serve the store over real sockets.

:class:`~repro.kvstore.server.KvServer` is bytes-in/bytes-out; this
module puts socket machinery around it so the store speaks RESP over
TCP like real Redis — and nothing else lives here. The replication
protocol a server speaks is :mod:`repro.kvstore.repl.node`; the
matching blocking client is :class:`repro.kvstore.client.TcpKvClient`.

:class:`TcpKvServer` mirrors Redis's concurrency model: a
single-threaded event loop on ``epoll`` itself (``poll`` elsewhere),
non-blocking accept/read/write. Each readable event does ``recv_into`` the
session parser's buffer (bytes are copied once, kernel to parser), executes
*every* complete pipelined command, and encodes all replies straight
into the connection's output buffer. A replica's link to its master is
one more socket on the same loop (``repl/link.py``), and so is a kv
process's link to its soft memory daemon (``rpc/agent.py``).
Replies leave at the end of the poll round — after the round's
single AOF group commit — in one non-blocking send per connection (a
partial send hands over to ``_flush`` where it stopped); a master's
replication stream leaves with them, but to its feeds at most once per
millisecond (``_FEED_EVERY`` in ``repl/node.py``); leftovers are
written when the socket reports writable (write interest is toggled on
and off). Slow clients that let their output buffer grow past a fixed
limit are disconnected, like Redis's client-output-buffer-limits.

What one depth-1 GET round costs is counted, not timed
(``tests/kvstore/test_round_guard.py``): three syscalls (``poll``,
``recv_into``, ``send``), and between them 8 Python calls — the
parser's ``recv_from``, ``pump`` and its ``parse_pipeline``, and the
command's five (dispatch, the store's and the dict's ``get``, the
reply's encode, its latency histogram) — and 23 C calls. The loop reads
the client's bytes, records the batch size (``tally[n] += 1``) and
sends a whole reply inline, and binds the store's persistence once.
"""

from __future__ import annotations

import select
import socket
import threading
import time
from functools import partial

from repro.kvstore.persist.aof import FSYNC_INTERVAL
from repro.kvstore.repl.node import ReplNode
from repro.kvstore.repl.state import ReplicationState
from repro.kvstore.server import KvServer
from repro.kvstore.store import DataStore
from repro.obs.plane import bind_server

_RECV_SIZE = 65536
_LISTEN_BACKLOG = 128
#: seconds ``stop()`` keeps flushing pending replies before it closes
_SHUTDOWN_FLUSH_TIMEOUT = 5.0
#: per-connection pending-output cap before the server declares
#: the client too slow and disconnects it (Redis: client-output-buffer-limit)
_OUTPUT_BUFFER_LIMIT = 8 * 1024 * 1024
#: replica feeds get a far larger allowance than interactive clients —
#: a full-sync payload alone can dwarf the client limit, and dropping a
#: briefly-slow replica forces a resync (Redis: the separate "slave"
#: client-output-buffer-limit class)
_REPL_OUTPUT_BUFFER_LIMIT = 64 * 1024 * 1024
#: interest masks, spelt alike by ``epoll`` and ``poll`` (a hang-up needs none)
_READ, _WRITE = select.POLLIN, select.POLLOUT


class _Connection:
    """Per-connection state owned by the event loop."""

    __slots__ = (
        "sock", "fd", "session", "parser", "out", "pos", "want_write",
        "queued", "feed",
    )

    def __init__(self, sock: socket.socket, store: DataStore) -> None:
        self.sock = sock
        self.fd = sock.fileno()  # the map key; -1 on the socket once closed
        self.session = KvServer(store)  # per-connection input buffer
        self.parser = self.session.parser  # cached: one lookup per recv
        self.out = bytearray()  # encoded replies not yet on the wire
        self.pos = 0  # consumed prefix of ``out``
        self.want_write = False
        self.queued = False  # already on this round's flush queue
        self.feed = None  # ReplicaFeed once the repl node cut a feed in

    @property
    def pending(self) -> int:
        return len(self.out) - self.pos


class TcpKvServer:
    """Single-threaded ``epoll`` event loop over one :class:`DataStore`.

    All parsing, execution and encoding happens on the loop thread, and
    so do a replica's stream apply and a daemon's DEMAND, served through
    the store's ``smd_agent`` (a :class:`~repro.rpc.agent.LoopAgent`)
    between rounds: no other thread touches the store (DESIGN.md §7).
    :meth:`replicaof` and :meth:`enable_replication` configure a
    server before :meth:`start`; a running one changes role through
    the ``REPLICAOF`` command.

    >>> # server = TcpKvServer(store).start()
    >>> # ... connect with TcpKvClient(server.address) ...
    >>> # server.stop()
    """

    def __init__(
        self,
        store: DataStore,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.store = store
        self._listener = socket.create_server(
            (host, port), backlog=_LISTEN_BACKLOG, reuse_port=False
        )
        self.address: tuple[str, int] = self._listener.getsockname()
        self._stopping = False
        self.connections_served = 0
        #: fd -> live connection; ``get(conn.fd) is conn`` is liveness
        self._conns: dict[int, _Connection] = {}
        self._listener.setblocking(False)
        #: the poll object and its timeout units per second — the one
        #: difference between the two shapes of ``poll() -> [(fd, mask)]``
        self._poller, self._per_second = (
            (select.epoll(), 1) if hasattr(select, "epoll")
            else (select.poll(), 1000)
        )
        #: the replication protocol (its docstring lists the hand-overs)
        self._repl = ReplNode(
            store,
            self._poller,
            self._conns,
            flush=self._flush,
            close=self._close,
            recv=self._read_feed,
        )
        self._poller.register(self._listener.fileno(), _READ)
        # waker: stop() signals the (possibly idle, fully blocked) loop
        self._waker_r, self._waker_w = socket.socketpair()
        self._poller.register(self._waker_r.fileno(), _READ)
        self._thread: threading.Thread | None = None
        #: the fd the daemon link is registered under; -1: none
        self._agent_fd = -1
        self.clients_dropped = 0  # slow clients disconnected at the limit
        self._obs = store.obs
        bind_server(store.obs.registry, self)

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "TcpKvServer":
        """Serve on a new thread and return at once (an in-process node;
        a process that is only this server calls :meth:`serve`)."""
        self._thread = threading.Thread(
            target=self._loop, name="kv-event-loop", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the loop (it flushes pending output, closes every
        socket) and join :meth:`start`'s thread. On the serving thread,
        a signal handler's case, it only sets a flag and sends a byte."""
        if self._stopping:
            return
        self._stopping = True
        try:
            self._waker_w.send(b"\0")
        except OSError:
            pass
        if self._thread is not None:
            self._thread.join(timeout=_SHUTDOWN_FLUSH_TIMEOUT + 5)

    def __enter__(self) -> "TcpKvServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    @property
    def connected_clients(self) -> int:
        """Connections open now, feeds included (Redis's INFO name)."""
        return len(self._conns)

    # the batch counters are read off the one record of batches, the
    # store's ``server.pipeline_batch`` histogram: they count per store

    @property
    def commands_processed(self) -> int:
        return int(self._obs.batch_hist.snapshot().total)

    @property
    def batches_executed(self) -> int:
        return self._obs.batch_hist.snapshot().count

    @property
    def max_batch(self) -> int:
        return int(self._obs.batch_hist.snapshot().vmax)

    # -- replication: configuration before start() ---------------------

    def enable_replication(self) -> ReplicationState:
        """Engage the replication plane eagerly (INFO shows it even
        before the first PSYNC). Safe to call repeatedly; before
        :meth:`start`."""
        return self._repl.ensure()

    def replicaof(self, host: str, port: int) -> None:
        """Boot as a replica of ``host:port``, dialed once the loop
        runs; ``ValueError`` when ``port`` is not one. Before
        :meth:`start`: a running server takes ``REPLICAOF``."""
        self._repl.replicaof(host, port)

    # -- the loop ------------------------------------------------------

    def serve(self) -> None:
        """Run the event loop on the calling thread until :meth:`stop`."""
        self._loop()

    def _loop(self) -> None:
        repl, store, conns = self._repl, self.store, self._conns
        poll, per_second = self._poller.poll, self._per_second
        listener = self._listener.fileno()
        flush, close = self._flush, self._close
        agent = store.smd_agent
        # attached before the loop runs (``kv_server`` recovers first)
        persist = store.persistence
        batches = self._obs.batch_hist.tally
        try:
            while not self._stopping:
                # with an everysec AOF, cap the block so a quiet server
                # still retires the deferred fsync within its window
                timeout = None
                if persist is not None and persist.aof_enabled:
                    if persist.config.appendfsync == "everysec":
                        timeout = FSYNC_INTERVAL * per_second
                if agent is not None:
                    # before the link's tick, which may open a socket
                    due = self._tend(agent) * per_second
                    if timeout is None or due < timeout:
                        timeout = due
                link = repl.link
                if link is not None:
                    # the link's timers: redial, give up, idle ACK
                    due = link.tick() * per_second
                    if timeout is None or due < timeout:
                        timeout = due
                state = store.repl
                if state is not None and state.pending:
                    # stream bytes held inside the feed window: wake
                    # when the owed ship is due
                    due = repl.tick() * per_second
                    if timeout is None or due < timeout:
                        timeout = due
                flush_queue: list[_Connection] = []
                accepting = False
                for fd, mask in poll(timeout):
                    conn = conns.get(fd)
                    if conn is None:
                        # listener, waker (the ``while`` sees the flag),
                        # the link to a master or to the daemon, or
                        # closed by an earlier event of this round
                        if fd == listener:
                            accepting = True
                        elif repl.link is not None and fd == repl.link.fd:
                            repl.link.on_event(mask)
                        elif fd == self._agent_fd:
                            agent.on_readable()
                        continue
                    # backlog from earlier rounds (earlier commits cover
                    # it) drains first, before this round generates more
                    if mask & _WRITE and not flush(conn):
                        continue
                    if mask & ~_WRITE:
                        if conn.feed is not None:
                            if not self._read_feed(conn):
                                continue
                        else:
                            # one recv_into the parser's buffer, then
                            # every complete command: the replies wait
                            # for the round's end, after the group commit
                            try:
                                nbytes = conn.parser.recv_from(
                                    conn.sock, _RECV_SIZE
                                )
                            except (BlockingIOError, InterruptedError):
                                nbytes = None
                            except OSError:
                                nbytes = 0
                            if nbytes == 0:  # EOF, reset, or the hang-up
                                close(conn)
                                continue
                            if nbytes and (
                                executed := conn.session.pump(conn.out)
                            ):
                                batches[executed] += 1
                    # only ``_flush`` moves ``pos``, and it empties
                    # ``out`` once ``pos`` reaches its end
                    if conn.out and not conn.queued:
                        conn.queued = True
                        flush_queue.append(conn)
                if accepting:
                    # after the events: an fd number freed this round
                    # cannot come back under a mask still in the list
                    self._accept()
                if persist is not None:
                    # group commit: ONE write(2) (and, under `always`,
                    # one fsync) covers every batch executed this round;
                    # an idle round retires the deferred everysec fsync
                    persist.flush()
                    persist.reap()  # a BGSAVE child, once it has exited
                # replication broadcast rides between the group commit
                # and the reply drain: the stream bytes go to every feed
                # once the feed window since the last ship has passed
                # (else they stay held, and a later round ships them),
                # and deferred PSYNC replies (snapshot or backlog tail)
                # are served — after a drain, so a brand-new feed cannot
                # see bytes twice
                state = store.repl
                if state is not None and (
                    repl.psync_requests or state.pending
                ):
                    repl.broadcast(flush_queue)
                # every connection's replies for this round leave in
                # one send *after* the group commit, so an acked write
                # is a logged write and a pipelined batch is one
                # syscall on the wire, not one per readable event
                for conn in flush_queue:
                    conn.queued = False
                    if conns.get(conn.fd) is not conn:
                        continue  # closed by a later event of this round
                    if not conn.pos:
                        # ``_flush``'s first send, inline: the round's
                        # replies, whole, on a socket not watched for
                        # writable. Anything else is ``_flush``'s, from
                        # the ``pos`` this send reached
                        out = conn.out
                        try:
                            conn.pos = conn.sock.send(out)
                        except OSError:  # ``_flush`` sends, and sorts it
                            pass
                        else:
                            if conn.pos == len(out) and not conn.want_write:
                                out.clear()
                                conn.pos = 0
                                continue
                    flush(conn)
        finally:
            self._shutdown()

    def _accept(self) -> None:
        while True:
            try:
                sock, __ = self._listener.accept()
            except OSError:  # nothing (more) to accept
                return
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.connections_served += 1
            conn = _Connection(sock, self.store)
            conn.session.repl_hook = partial(self._repl.command, conn)
            self._conns[conn.fd] = conn
            if conn.fd == self._agent_fd:
                # the daemon link's number, closed this round and reused:
                # the close dropped that registration, this one replaces it
                self._agent_fd = -1
            self._poller.register(conn.fd, _READ)

    def _tend(self, agent) -> float:
        """The daemon link's timers, its socket kept registered; the
        seconds until it is next due. The agent closes its socket
        itself, so one closed since the last round is unregistered here
        by number, before ``tick`` or the link's can open a socket that
        reuses it (and ``_accept`` forgets a number it reuses)."""
        fileno = agent.fileno
        if fileno() != self._agent_fd:
            self._watch(fileno())
        due = agent.tick()
        if fileno() != self._agent_fd:
            self._watch(fileno())
        return due

    def _watch(self, fd: int) -> None:
        if self._agent_fd >= 0:
            try:  # a closed fd: poll keeps it, epoll already dropped it
                self._poller.unregister(self._agent_fd)
            except (KeyError, ValueError, OSError):
                pass
        if fd >= 0:
            self._poller.register(fd, _READ)
        self._agent_fd = fd

    def _read_feed(self, conn: _Connection) -> bool:
        """Recv a replica feed's bytes into its parser and hand them to
        the repl node, which takes its REPLCONF ACKs (a feed carries
        nothing else); False when the connection was closed. The loop
        reads a client's bytes inline, with the same three outcomes."""
        try:
            nbytes = conn.parser.recv_from(conn.sock, _RECV_SIZE)
        except (BlockingIOError, InterruptedError):
            return True
        except OSError:
            nbytes = 0
        if not nbytes:  # EOF, reset, or the hang-up that woke us
            self._close(conn)
            return False
        return self._repl.absorb(conn)

    def _flush(self, conn: _Connection) -> bool:
        """Write as much pending output as the socket accepts.

        Returns False when the connection is closed (already, at the
        slow-client limit, or on a socket error). Toggles write interest
        so the poll only watches sockets that actually owe bytes.
        """
        if self._conns.get(conn.fd) is not conn:
            return False
        out = conn.out
        pos = conn.pos
        send = conn.sock.send
        try:
            if pos == 0:
                # common case — nothing consumed yet: one send of the
                # whole buffer, no memoryview setup
                pos = send(out)
            if pos < len(out):
                with memoryview(out) as view:
                    while pos < len(out):
                        pos += send(view[pos:])
        except (BlockingIOError, InterruptedError):
            pass
        except OSError:
            conn.pos = pos
            self._close(conn)
            return False
        if pos >= len(out):
            # fully drained: recycle the buffer, stop watching writable
            out.clear()
            conn.pos = 0
            if conn.want_write:
                conn.want_write = False
                self._poller.modify(conn.fd, _READ)
            return True
        # partial write: keep the unsent tail, bound it, watch writable
        if pos > _RECV_SIZE:
            del out[:pos]
            pos = 0
        conn.pos = pos
        limit = (
            _REPL_OUTPUT_BUFFER_LIMIT
            if conn.feed is not None
            else _OUTPUT_BUFFER_LIMIT
        )
        if len(out) - pos > limit:
            self.clients_dropped += 1
            self._close(conn)
            return False
        if not conn.want_write:
            conn.want_write = True
            self._poller.modify(conn.fd, _READ | _WRITE)
        return True

    def _close(self, conn: _Connection) -> None:
        if self._conns.get(conn.fd) is conn:
            del self._conns[conn.fd]
            try:  # before close(): poll keeps a closed fd, epoll drops it
                self._poller.unregister(conn.fd)
            except (KeyError, ValueError, OSError):
                pass
            conn.sock.close()
        if conn.feed is not None:
            self._repl.feed_closed(conn)

    # -- shutdown ------------------------------------------------------

    def _shutdown(self) -> None:
        """Flush pending output best-effort, then tear everything down."""
        persist = self.store.persistence
        if persist is not None:
            # commit before the reply drain below: if the loop died
            # mid-round, pending replies must not beat their log bytes
            persist.flush(force_fsync=True)
        if self.store.repl is not None:
            self._repl.ship()  # the held stream tail: the drain sends it
        conns = list(self._conns.values())
        deadline = time.monotonic() + _SHUTDOWN_FLUSH_TIMEOUT
        pending = {c.fd: c for c in conns if c.pending}
        waiter = select.poll()  # any fd number; select() ends at 1023
        for fd in pending:
            waiter.register(fd, _WRITE)
        while pending and (remaining := deadline - time.monotonic()) > 0:
            for fd, __ in waiter.poll(remaining * 1000):
                # a failed or over-limit flush closes the connection
                if not (self._flush(pending[fd]) and pending[fd].pending):
                    waiter.unregister(fd)  # done: it would poll ready forever
                    del pending[fd]
        for conn in conns:
            self._close(conn)
        if self._repl.link is not None:
            self._repl.link.close()
        if persist is not None:
            persist.flush(force_fsync=True)
        if hasattr(self._poller, "close"):  # epoll is a descriptor itself
            self._poller.close()
        self._listener.close()
        self._waker_r.close()
        self._waker_w.close()

