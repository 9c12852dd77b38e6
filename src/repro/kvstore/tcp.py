"""TCP front-end: serve the store over real sockets.

:class:`~repro.kvstore.server.KvServer` is bytes-in/bytes-out; this
module puts socket machinery around it so the store speaks RESP over
TCP like real Redis.

:class:`EventLoopKvServer` (also spelled :data:`TcpKvServer`) mirrors
Redis's concurrency model: a single-threaded ``selectors`` event loop
doing non-blocking accept/read/write. Each readable event does
``recv_into`` the session parser's buffer (bytes are copied once,
kernel to parser), executes *every* complete pipelined command under
one lock acquisition, and encodes all replies straight into the
connection's output buffer. Replies leave at the end of the select
round — after the round's single AOF group commit — in one
non-blocking send per connection; leftovers are written when the
socket reports writable (write interest is toggled on and off). Slow
clients that let their output buffer grow past a configurable limit
are disconnected, like Redis's client-output-buffer-limits.

:class:`TcpKvClient` is the matching blocking client.
"""

from __future__ import annotations

import select
import selectors
import socket
import threading
import time

from repro.kvstore.persist.snapshot import materialize_entries, snapshot_body
from repro.kvstore.repl import (
    DEFAULT_BACKLOG_CAPACITY,
    ReplicaLink,
    ReplicationState,
)
from repro.kvstore.resp import (
    OK,
    ProtocolError,
    RespError,
    encode_reply_into,
)
from repro.kvstore.server import KvServer
from repro.kvstore.store import DataStore
from repro.obs.plane import bind_server

_RECV_SIZE = 65536
#: default per-connection pending-output cap before the server declares
#: the client too slow and disconnects it (Redis: client-output-buffer-limit)
_OUTPUT_BUFFER_LIMIT = 8 * 1024 * 1024
#: replica feeds get a far larger allowance than interactive clients —
#: a full-sync payload alone can dwarf the client limit, and dropping a
#: briefly-slow replica forces a resync (Redis: the separate "slave"
#: client-output-buffer-limit class)
_REPL_OUTPUT_BUFFER_LIMIT = 64 * 1024 * 1024
#: WAIT 0 means "no deadline" in Redis; this server runs WAIT on the
#: loop thread, so an unreachable replica must not wedge it forever
_WAIT_MAX_BLOCK = 10.0


class _Connection:
    """Per-connection state owned by the event loop."""

    __slots__ = (
        "sock", "session", "parser", "out", "pos", "want_write", "queued",
        "feed",
    )

    def __init__(self, sock: socket.socket, store: DataStore) -> None:
        self.sock = sock
        self.session = KvServer(store)  # per-connection input buffer
        self.parser = self.session.parser  # cached: one lookup per recv
        self.out = bytearray()  # encoded replies not yet on the wire
        self.pos = 0  # consumed prefix of ``out``
        self.want_write = False
        self.queued = False  # already on this round's flush queue
        self.feed = None  # ReplicaFeed once this conn served a PSYNC

    @property
    def pending(self) -> int:
        return len(self.out) - self.pos


class EventLoopKvServer:
    """Single-threaded selector event loop over one :class:`DataStore`.

    All parsing, execution, and encoding happens on the loop thread.
    ``_lock`` is taken once per readable batch and once per broadcast
    because other threads mutate the same store: a replica's
    :class:`~repro.kvstore.repl.ReplicaLink` apply thread holds it
    around every applied stream chunk and snapshot load, and callers
    of :meth:`replicaof`, :meth:`promote` and
    :meth:`enable_replication` (the ``kv_server`` main thread, tests)
    take it from outside the loop. Nothing else in ``src/`` does;
    in-process antagonists in tests and benches borrow it to land a
    reclamation wave between batches.

    >>> # server = EventLoopKvServer(store).start()
    >>> # ... connect with TcpKvClient(server.address) ...
    >>> # server.stop()
    """

    def __init__(
        self,
        store: DataStore,
        host: str = "127.0.0.1",
        port: int = 0,
        backlog: int = 128,
        output_buffer_limit: int = _OUTPUT_BUFFER_LIMIT,
        shutdown_flush_timeout: float = 5.0,
        repl_backlog: int = DEFAULT_BACKLOG_CAPACITY,
        repl_output_buffer_limit: int = _REPL_OUTPUT_BUFFER_LIMIT,
    ) -> None:
        self.store = store
        self._lock = threading.Lock()  # see the class docstring
        self._listener = socket.create_server(
            (host, port), backlog=backlog, reuse_port=False
        )
        self.address: tuple[str, int] = self._listener.getsockname()
        self._stop = threading.Event()
        self.connections_served = 0
        self.commands_processed = 0
        self.output_buffer_limit = output_buffer_limit
        self.shutdown_flush_timeout = shutdown_flush_timeout
        self.repl_backlog = repl_backlog
        self.repl_output_buffer_limit = repl_output_buffer_limit
        #: connections that serve a replica feed (subset of registered)
        self._feed_conns: list[_Connection] = []
        #: PSYNC requests deferred to this round's broadcast step
        self._psync_requests: list[tuple[_Connection, str, int]] = []
        self._link: ReplicaLink | None = None
        self._listener.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ, None)
        # waker: stop() signals the (possibly idle, fully blocked) loop
        self._waker_r, self._waker_w = socket.socketpair()
        self._waker_r.setblocking(False)
        self._selector.register(self._waker_r, selectors.EVENT_READ, "waker")
        self._thread: threading.Thread | None = None
        self._stopped = False
        self.clients_dropped = 0  # slow clients disconnected at the limit
        self.batches_executed = 0  # readable events that ran >= 1 command
        self.max_batch = 0  # largest command count in one batch
        self._obs = store.obs
        bind_server(store.obs.registry, self)

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "EventLoopKvServer":
        """Begin serving (returns immediately; loop runs on a thread)."""
        self._thread = threading.Thread(
            target=self._loop, name="kv-event-loop", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the loop, flush pending output, close every socket."""
        if self._stopped:
            return
        self._stopped = True
        link = self._link
        if link is not None:
            link.request_stop()
        self._stop.set()
        try:
            self._waker_w.send(b"\0")
        except OSError:
            pass
        if self._thread is not None:
            self._thread.join(timeout=self.shutdown_flush_timeout + 5)
        if link is not None:
            link.stop()

    def __enter__(self) -> "EventLoopKvServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- the loop ------------------------------------------------------

    def _loop(self) -> None:
        try:
            while not self._stop.is_set():
                # with an everysec AOF, cap the block so a quiet server
                # still retires the deferred fsync within its window
                persist = self.store.persistence
                timeout = None
                if persist is not None and persist.aof_enabled:
                    if persist.config.appendfsync == "everysec":
                        timeout = persist.config.fsync_interval
                events = self._selector.select(timeout)
                flush_queue: list[_Connection] = []
                for key, mask in events:
                    if key.data is None:
                        self._accept()
                    elif key.data == "waker":
                        try:
                            self._waker_r.recv(64)
                        except OSError:
                            pass
                    else:
                        self._handle(key.data, mask, flush_queue)
                if persist is not None:
                    # group commit: ONE write(2) (and, under `always`,
                    # one fsync) covers every batch executed this round;
                    # an idle round retires the deferred everysec fsync
                    persist.flush()
                # replication broadcast rides between the group commit
                # and the reply drain: stream bytes for this round's
                # writes go to every feed, and deferred PSYNC replies
                # (snapshot or backlog tail) are served — after the
                # drain, so a brand-new feed cannot see bytes twice
                state = self.store.repl
                if state is not None and (
                    self._psync_requests or state.pending
                ):
                    self._broadcast(flush_queue)
                # every connection's replies for this round leave in
                # one send *after* the group commit, so an acked write
                # is a logged write and a pipelined batch is one
                # syscall on the wire, not one per readable event
                for conn in flush_queue:
                    conn.queued = False
                    if conn.sock.fileno() >= 0:
                        self._flush(conn)
        finally:
            self._shutdown()

    def _accept(self) -> None:
        while True:
            try:
                sock, __ = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.connections_served += 1
            conn = _Connection(sock, self.store)
            conn.session.repl_hook = (
                lambda argv, out, conn=conn:
                self._repl_command(conn, argv, out)
            )
            self._selector.register(sock, selectors.EVENT_READ, conn)

    def _handle(
        self, conn: _Connection, mask: int, flush_queue: list[_Connection]
    ) -> None:
        if mask & selectors.EVENT_WRITE:
            # backlog from earlier rounds (already covered by earlier
            # commits) drains first, before this round generates more
            if not self._flush(conn):
                return
        if mask & selectors.EVENT_READ:
            if not self._on_readable(conn):
                return
        if not conn.queued and len(conn.out) > conn.pos:
            conn.queued = True
            flush_queue.append(conn)

    def _on_readable(self, conn: _Connection) -> bool:
        """Recv straight into the parser buffer, execute the batch.

        Returns False when the connection was closed. Replies are
        *not* flushed here — the loop sends each connection's round of
        replies in one syscall after the round's group commit.
        """
        if conn.feed is not None:
            # replica feed sockets carry nothing but REPLCONF ACKs;
            # they never dispatch commands, so no lock is needed
            return self._absorb_feed(conn)
        parser = conn.parser
        try:
            with parser.recv_view(_RECV_SIZE) as view:
                nbytes = conn.sock.recv_into(view)
        except (BlockingIOError, InterruptedError):
            return True
        except OSError:
            self._close(conn)
            return False
        if not nbytes:
            self._close(conn)
            return False
        parser.commit_recv(nbytes)
        with self._lock:  # one acquisition for the whole pipelined batch
            executed = conn.session.pump(conn.out)
        if executed:
            self.commands_processed += executed
            self.batches_executed += 1
            if executed > self.max_batch:
                self.max_batch = executed
            self._obs.observe_batch(executed)
        return True

    def _flush(self, conn: _Connection) -> bool:
        """Write as much pending output as the socket accepts.

        Returns False when the connection was closed (slow-client limit
        or socket error). Toggles write interest so the selector only
        watches sockets that actually owe bytes.
        """
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
                self._selector.modify(conn.sock, selectors.EVENT_READ, conn)
            return True
        # partial write: keep the unsent tail, bound it, watch writable
        if pos > _RECV_SIZE:
            del out[:pos]
            pos = 0
        conn.pos = pos
        limit = (
            self.repl_output_buffer_limit
            if conn.feed is not None
            else self.output_buffer_limit
        )
        if len(out) - pos > limit:
            self.clients_dropped += 1
            self._close(conn)
            return False
        if not conn.want_write:
            conn.want_write = True
            self._selector.modify(
                conn.sock,
                selectors.EVENT_READ | selectors.EVENT_WRITE,
                conn,
            )
        return True

    def _close(self, conn: _Connection) -> None:
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        conn.sock.close()
        if conn.feed is not None:
            state = self.store.repl
            if state is not None:
                state.drop_feed(conn.feed)
            try:
                self._feed_conns.remove(conn)
            except ValueError:
                pass
            conn.feed = None

    # -- replication ---------------------------------------------------

    def _ensure_repl(self) -> ReplicationState:
        """Create the replication state on first use (caller holds the
        lock or runs before the loop starts)."""
        state = self.store.repl
        if state is None:
            state = ReplicationState(backlog_capacity=self.repl_backlog)
            self.store.repl = state
        return state

    def enable_replication(self) -> ReplicationState:
        """Engage the replication plane eagerly (INFO shows it even
        before the first PSYNC). Safe to call repeatedly."""
        with self._lock:
            return self._ensure_repl()

    def replicaof(self, host: str, port: int) -> None:
        """Point this server at a master (``REPLICAOF host port``)."""
        with self._lock:
            self._replicaof_locked(host, port)

    def promote(self) -> None:
        """Make this server a master (``REPLICAOF NO ONE``)."""
        with self._lock:
            self._promote_locked()

    def _replicaof_locked(self, host: str, port: int) -> None:
        state = self._ensure_repl()
        link = self._link
        if link is not None:
            # never join under the lock — the link thread may be
            # blocked on this very lock; it observes the stop event
            # after every acquisition and unwinds
            link.request_stop()
        # a replica serves no feeds: drop them so their clients resync
        # against whoever is master now
        for conn in list(self._feed_conns):
            self._close(conn)
        state.become_replica(host, port)
        self._link = ReplicaLink(self.store, state, self._lock)
        self._link.start()

    def _promote_locked(self) -> None:
        link = self._link
        self._link = None
        if link is not None:
            link.request_stop()
        state = self._ensure_repl()
        state.become_master()

    def _repl_command(
        self, conn: _Connection, argv: list, out: bytearray
    ) -> None:
        """Session hook: replication commands that need the transport.

        Runs on the loop thread, under the execution lock (inside the
        session's pump). PSYNC replies are deferred to this round's
        broadcast step so the snapshot/backlog cut lands *after* the
        round's writes drain — the feed's first stream byte is exactly
        offset. The session only hands over argv whose length fits the
        command table's arity; a malformed one gets ``dispatch``'s
        reply."""
        name = argv[0].upper()
        if name == b"PSYNC":
            state = self.store.repl
            if state is not None and state.role == "replica":
                encode_reply_into(
                    out, RespError("ERR Can't SYNC while not master")
                )
                return
            state = self._ensure_repl()
            state.stream_started = True
            replid = bytes(argv[1]).decode("ascii", "replace")
            try:
                offset = int(argv[2])
            except ValueError:
                offset = -1
            self._psync_requests.append((conn, replid, offset))
            return  # reply deferred to _broadcast
        if name == b"REPLCONF":
            if len(argv) >= 2 and argv[1].upper() == b"ACK":
                return  # ACK gets no reply (Redis contract)
            encode_reply_into(out, OK)
            return
        if name == b"WAIT":
            self._handle_wait(argv, out)
            return
        if name == b"REPLICAOF":
            if (
                argv[1].upper() == b"NO"
                and argv[2].upper() == b"ONE"
            ):
                self._promote_locked()
                encode_reply_into(out, OK)
                return
            try:
                port = int(argv[2])
            except ValueError:
                encode_reply_into(
                    out, RespError("ERR Invalid master port")
                )
                return
            host = bytes(argv[1]).decode("ascii", "replace")
            self._replicaof_locked(host, port)
            encode_reply_into(out, OK)

    def _handle_wait(self, argv: list, out: bytearray) -> None:
        """WAIT numreplicas timeout — block until enough acks arrive.

        Runs under the (non-reentrant) execution lock, so it must not
        re-enter any locking path: it pushes pending stream bytes to
        the feeds and pumps their ack sockets *directly* with select,
        bounded by the timeout. The loop thread stalls for the
        duration — the documented cost of read-your-writes here."""
        try:
            numreplicas = int(argv[1])
            timeout_ms = int(argv[2])
        except ValueError:
            encode_reply_into(
                out,
                RespError("ERR timeout is not an integer or out of range"),
            )
            return
        state = self.store.repl
        if state is None or state.role != "master":
            encode_reply_into(out, 0)
            return
        target = state.master_repl_offset
        # the waited-on writes may still sit in pending: ship them now
        data = state.drain()
        for conn in list(self._feed_conns):  # _flush may close + remove
            if data:
                conn.out += data
            if conn.pending and conn.sock.fileno() >= 0:
                self._flush(conn)
        budget = timeout_ms / 1000.0 if timeout_ms > 0 else _WAIT_MAX_BLOCK
        deadline = time.monotonic() + min(budget, _WAIT_MAX_BLOCK)
        while state.acked_by(target) < numreplicas:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            by_sock = {
                conn.sock: conn
                for conn in self._feed_conns
                if conn.sock.fileno() >= 0
            }
            if not by_sock:
                break
            try:
                readable, __, __ = select.select(
                    list(by_sock), [], [], min(0.05, remaining)
                )
            except (OSError, ValueError):
                break
            for sock in readable:
                self._absorb_feed(by_sock[sock])
        encode_reply_into(out, state.acked_by(target))

    def _broadcast(self, flush_queue: list[_Connection]) -> None:
        """Ship this round's stream bytes; answer deferred PSYNCs.

        Order matters: existing feeds take the drained bytes first,
        then new feeds are cut in at the post-drain offset — via the
        backlog tail (partial) or a fresh snapshot (full), either of
        which already covers those bytes."""
        with self._lock:
            state = self.store.repl
            if state is None:
                return
            data = state.drain() if state.role == "master" else b""
            if data:
                for conn in self._feed_conns:
                    if conn.sock.fileno() < 0:
                        continue
                    conn.out += data
                    if not conn.queued:
                        conn.queued = True
                        flush_queue.append(conn)
            if not self._psync_requests:
                return
            requests = self._psync_requests
            self._psync_requests = []
            if state.role != "master":
                # role flipped between request and broadcast: refuse
                for conn, __, __ in requests:
                    if conn.sock.fileno() >= 0:
                        encode_reply_into(
                            conn.out,
                            RespError("ERR Can't SYNC while not master"),
                        )
                        if not conn.queued:
                            conn.queued = True
                            flush_queue.append(conn)
                return
            for conn, replid, offset in requests:
                if conn.sock.fileno() < 0:
                    continue
                self._serve_psync(state, conn, replid, offset)
                if not conn.queued:
                    conn.queued = True
                    flush_queue.append(conn)

    def _serve_psync(
        self,
        state: ReplicationState,
        conn: _Connection,
        replid: str,
        offset: int,
    ) -> None:
        if state.can_partial(replid, offset):
            conn.out += b"+CONTINUE\r\n"
            conn.out += state.backlog_since(offset)
            state.sync_partial_ok += 1
            ack_init = offset
        else:
            if replid != "?":
                state.sync_partial_err += 1
            body = snapshot_body(
                materialize_entries(self.store, time.time()),
                int(time.time() * 1000),
            )
            conn.out += (
                f"+FULLRESYNC {state.replid} "
                f"{state.master_repl_offset}\r\n"
                f"${len(body)}\r\n"
            ).encode()
            conn.out += body
            state.sync_full += 1
            # nothing is acked until the replica says so: WAIT must not
            # count a replica that is still loading the snapshot
            ack_init = 0
        try:
            peer = "%s:%d" % conn.sock.getpeername()[:2]
        except OSError:
            peer = "?:?"
        conn.feed = state.register_feed(peer, ack_init)
        self._feed_conns.append(conn)

    def _absorb_feed(self, conn: _Connection) -> bool:
        """Drain REPLCONF ACKs from a feed socket (lock-free: feed
        state is only ever touched on the loop thread)."""
        parser = conn.parser
        try:
            with parser.recv_view(_RECV_SIZE) as view:
                nbytes = conn.sock.recv_into(view)
        except (BlockingIOError, InterruptedError):
            return True
        except OSError:
            self._close(conn)
            return False
        if not nbytes:
            self._close(conn)
            return False
        parser.commit_recv(nbytes)
        state = self.store.repl
        feed = conn.feed
        try:
            frames = parser.parse_all()
        except ProtocolError:
            self._close(conn)  # a feed that talks garbage must resync
            return False
        for argv in frames:
            if (
                type(argv) is list
                and len(argv) == 3
                and argv[0].upper() == b"REPLCONF"
                and argv[1].upper() == b"ACK"
            ):
                try:
                    ack = int(argv[2])
                except ValueError:
                    continue
                if state is not None and feed is not None:
                    state.note_ack(feed, ack)
        return True

    # -- shutdown ------------------------------------------------------

    def _shutdown(self) -> None:
        """Flush pending output best-effort, then tear everything down."""
        persist = self.store.persistence
        if persist is not None:
            # commit before the reply drain below: if the loop died
            # mid-round, pending replies must not beat their log bytes
            persist.flush(force_fsync=True)
        conns = [
            key.data
            for key in list(self._selector.get_map().values())
            if isinstance(key.data, _Connection)
        ]
        deadline = time.monotonic() + self.shutdown_flush_timeout
        pending = [c for c in conns if c.pending]
        while pending and time.monotonic() < deadline:
            sockets = [c.sock for c in pending]
            try:
                __, writable, __ = select.select(
                    [], sockets, [], max(0.0, deadline - time.monotonic())
                )
            except (OSError, ValueError):
                break
            if not writable:
                break
            ready = {id(s) for s in writable}
            still = []
            for conn in pending:
                if id(conn.sock) in ready:
                    try:
                        with memoryview(conn.out) as view:
                            while conn.pos < len(conn.out):
                                conn.pos += conn.sock.send(view[conn.pos:])
                    except (BlockingIOError, InterruptedError):
                        pass
                    except OSError:
                        conn.out.clear()
                        conn.pos = 0
                if conn.pending:
                    still.append(conn)
            pending = still
        for conn in conns:
            self._close(conn)
        persist = self.store.persistence
        if persist is not None:
            persist.flush(force_fsync=True)
        self._selector.close()
        self._listener.close()
        self._waker_r.close()
        self._waker_w.close()


#: the public spelling (docs, examples, most call sites)
TcpKvServer = EventLoopKvServer


class TcpKvClient:
    """Blocking RESP client over a real socket.

    Replies are consumed strictly in FIFO order through an internal
    queue: when one ``recv`` delivers several parsed replies (batched
    or pipelined), the extras are kept for the following calls instead
    of being discarded — the client can never desync from the server.

    ``timeout`` bounds every read/write after the connection is up;
    ``connect_timeout`` bounds only the dial (it defaults to
    ``timeout``, but a supervisor health-checking a possibly-dead shard
    wants a short dial bound without throttling data reads).
    """

    def __init__(
        self,
        address: tuple[str, int],
        timeout: float = 5.0,
        connect_timeout: float | None = None,
    ) -> None:
        from collections import deque

        from repro.kvstore.resp import RespParser

        self._sock = socket.create_connection(
            address,
            timeout=timeout if connect_timeout is None else connect_timeout,
        )
        self._sock.settimeout(timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._parser = RespParser()
        self._replies: "deque[object]" = deque()
        self._closed = False

    def execute(self, *args: object) -> object:
        """Send one command, block for its reply."""
        from repro.kvstore.resp import encode_command

        self._sock.sendall(encode_command(*args))
        return self._next_reply()

    def execute_pipeline(self, *commands: tuple) -> list[object]:
        """Send several commands in one burst, collect all replies.

        RESP errors are returned in-place (not raised), like real
        pipelined clients do — one failed command must not discard the
        replies that follow it. Deep pipelines interleave sending with
        reading: a fire-the-whole-payload ``sendall`` deadlocks once
        both socket buffers fill with replies the client is not yet
        draining, so the payload is pushed with ``select`` and replies
        are parsed as they arrive.
        """
        from repro.kvstore.resp import encode_command

        if not commands:
            return []
        payload = b"".join(encode_command(*command) for command in commands)
        timeout = self._sock.gettimeout()
        sock = self._sock
        sent = 0
        sock.setblocking(False)
        try:
            with memoryview(payload) as view:
                while sent < len(payload):
                    readable, writable, __ = select.select(
                        [sock], [sock], [], timeout
                    )
                    if not readable and not writable:
                        raise TimeoutError("pipeline send timed out")
                    if readable:
                        with self._parser.recv_view(_RECV_SIZE) as rview:
                            nbytes = sock.recv_into(rview)
                        if not nbytes:
                            raise ConnectionError(
                                "server closed the connection"
                            )
                        self._parser.commit_recv(nbytes)
                    if writable:
                        try:
                            sent += sock.send(view[sent:])
                        except (BlockingIOError, InterruptedError):
                            pass
        finally:
            sock.settimeout(timeout)
        self._replies.extend(self._parser.parse_all())
        return [self._next_reply(raise_errors=False) for _ in commands]

    def _next_reply(self, *, raise_errors: bool = True) -> object:
        from repro.kvstore.resp import RespError

        while not self._replies:
            self._replies.extend(self._parser.parse_all())
            if self._replies:
                break
            with self._parser.recv_view(_RECV_SIZE) as view:
                nbytes = self._sock.recv_into(view)
            if not nbytes:
                raise ConnectionError("server closed the connection")
            self._parser.commit_recv(nbytes)
        reply = self._replies.popleft()
        if raise_errors and isinstance(reply, RespError):
            raise reply
        return reply

    def settimeout(self, timeout: float | None) -> None:
        """Rebound the read/write timeout of the live connection."""
        self._sock.settimeout(timeout)

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Close the socket; safe to call any number of times."""
        if self._closed:
            return
        self._closed = True
        self._sock.close()

    def __enter__(self) -> "TcpKvClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
