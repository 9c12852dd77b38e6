"""One server's side of the replication protocol.

:class:`ReplNode` is what a serving transport does for ``PSYNC`` /
``REPLCONF`` / ``WAIT`` / ``REPLICAOF``: it defers sync requests to the
round's broadcast step, cuts new feeds in (backlog tail or fresh
snapshot), ships the stream bytes to every feed at most once per
:data:`_FEED_EVERY` (a PSYNC cut-in, ``WAIT`` and the transport's
shutdown ship at once), absorbs the feeds' ``REPLCONF ACK`` offsets,
and flips the node between master and replica (opening and closing its
``ReplicaLink``). Roles, offsets and the backlog ring stay in the
``ReplicationState`` on ``store.repl``; this module owns only what
needs sockets.

The transport (``kvstore/tcp.py``) hands over control in five places and
nowhere else: a command whose table row says ``transport``
(:meth:`~ReplNode.command`, the session's ``repl_hook``), bytes received
on a feed socket (:meth:`~ReplNode.absorb`), a closed feed connection
(:meth:`~ReplNode.feed_closed`), the step between a round's group commit
and its reply drain (:meth:`~ReplNode.broadcast`, behind the loop's
inline test of ``psync_requests`` and ``state.pending``; while
``pending`` holds bytes the loop bounds its poll by :meth:`~ReplNode.tick`,
and its shutdown calls :meth:`~ReplNode.ship`), and ``link`` —
whose ``tick`` the loop runs once a round, whose socket's events it
passes on and which its shutdown closes. In return it lends its poll
object, its map of live connections by fd, and its ``flush``, ``close``
and ``recv`` of one — its per-socket record, of which ``sock``, ``fd``,
``parser``, ``out``, ``pending``, ``queued`` and ``feed`` are touched
here. Everything runs on the transport's one loop thread.
"""

from __future__ import annotations

import select
import time
from typing import Any, Callable

from repro.kvstore.persist.snapshot import materialize_entries, snapshot_body
from repro.kvstore.repl.link import ReplicaLink
from repro.kvstore.repl.state import ReplicationState
from repro.kvstore.resp import (
    OK,
    ProtocolError,
    RespError,
    encode_reply_into,
)
from repro.kvstore.store import DataStore

#: WAIT 0 means "no deadline" in Redis; this server runs WAIT on the
#: loop thread, so an unreachable replica must not wedge it forever
_WAIT_MAX_BLOCK = 10.0
#: a master ships its stream to the feeds at most once per this many
#: seconds: a round that writes sooner after the last ship holds its
#: bytes in ``pending``, and the owed ship leaves at the deadline. The
#: replica's ACK rule upstream (``_ACK_EVERY``, ``link.py``) mirrored:
#: one send and one replica wake-up per window, not per write round
_FEED_EVERY = 0.001

_NOT_MASTER = RespError("ERR Can't SYNC while not master")
_BAD_PORT = "Invalid master port"


class ReplNode:
    """Feeds, deferred syncs and the replica link of one server."""

    def __init__(
        self,
        store: DataStore,
        poller: Any,
        live: dict,
        *,
        flush: Callable[[Any], bool],
        close: Callable[[Any], None],
        recv: Callable[[Any], bool],
    ) -> None:
        self._store = store
        self._poller = poller  # the link's socket is registered there
        self._live = live  # fd -> conn; ``get(conn.fd) is conn`` is liveness
        self._flush = flush
        self._close = close
        self._recv = recv
        #: connections that serve a replica feed
        self.feed_conns: list = []
        #: ``(conn, replid, offset)`` PSYNCs awaiting this round's broadcast
        self.psync_requests: list[tuple[Any, str, int]] = []
        self.link: ReplicaLink | None = None
        #: monotonic time the next ship may leave: the last one plus
        #: :data:`_FEED_EVERY` (-inf: none yet, so the first write after
        #: a quiet spell ships at once)
        self._due = float("-inf")

    # -- roles (on the loop thread, or before the loop starts) ----------

    def ensure(self) -> ReplicationState:
        """The store's replication state, created on first use."""
        state = self._store.repl
        if state is None:
            state = ReplicationState()
            self._store.repl = state
        return state

    def replicaof(self, host: str, port: int) -> None:
        """Follow the master at ``host:port`` (``REPLICAOF host port``)."""
        if not 1 <= port <= 65535:
            raise ValueError(_BAD_PORT)
        state = self.ensure()
        if self.link is not None:
            self.link.close()
        # a replica serves no feeds: drop them so their clients resync
        # against whoever is master now
        for conn in list(self.feed_conns):
            self._close(conn)
        # a replica ships nothing: a held tail goes to the backlog, or
        # the loop's feed timer would wake it forever
        state.drain()
        state.become_replica(host, port)
        # dialed by the loop's next tick
        self.link = ReplicaLink(self._store, state, self._poller)

    def promote(self) -> None:
        """Become a master (``REPLICAOF NO ONE``)."""
        link, self.link = self.link, None
        if link is not None:
            link.close()
        self.ensure().become_master()

    # -- commands the table routes to the transport ----------------------

    def command(self, conn: Any, argv: list, out: bytearray) -> None:
        """The session hook, on the loop thread inside a pump.

        The session only hands over argv whose length fits the command
        table's arity; a malformed one gets ``dispatch``'s reply."""
        name = argv[0].upper()
        if name == b"PSYNC":
            state = self.ensure()
            if state.role != "master":
                encode_reply_into(out, _NOT_MASTER)
                return
            # answered by this round's broadcast, so the snapshot or
            # backlog cut lands *after* the round's writes drain — the
            # feed's first stream byte is exactly its offset
            state.stream_started = True
            replid = bytes(argv[1]).decode("ascii", "replace")
            try:
                offset = int(argv[2])
            except ValueError:
                offset = -1
            self.psync_requests.append((conn, replid, offset))
        elif name == b"REPLCONF":
            # an ACK gets no reply (Redis contract)
            if len(argv) < 2 or argv[1].upper() != b"ACK":
                encode_reply_into(out, OK)
        elif name == b"WAIT":
            encode_reply_into(out, self._wait(argv))
        elif name == b"REPLICAOF":
            reply = OK
            if argv[1].upper() == b"NO" and argv[2].upper() == b"ONE":
                self.promote()
            else:
                host = bytes(argv[1]).decode("ascii", "replace")
                try:
                    self.replicaof(host, int(argv[2]))
                except ValueError:  # not a number, or not a port
                    reply = RespError(f"ERR {_BAD_PORT}")
            encode_reply_into(out, reply)

    def _wait(self, argv: list) -> "int | RespError":
        """WAIT numreplicas timeout — block until enough acks arrive.

        Runs inside a session's pump, so it cannot wait for a later
        round: it pushes pending stream bytes to the feeds and pumps
        their ack sockets *directly* with poll, bounded by the timeout.
        The loop thread stalls for the duration — the documented cost
        of read-your-writes here."""
        try:
            numreplicas = int(argv[1])
            timeout_ms = int(argv[2])
        except ValueError:
            return RespError("ERR timeout is not an integer or out of range")
        if timeout_ms < 0:
            return RespError("ERR timeout is negative")
        state = self._store.repl
        if state is None or state.role != "master":
            return 0
        target = state.master_repl_offset
        # the waited-on writes may still be held in pending: ship them now
        self.ship()
        for conn in list(self.feed_conns):  # flush may close + remove
            if conn.pending:
                self._flush(conn)  # answers False for a closed one
        budget = timeout_ms / 1000.0 if timeout_ms else _WAIT_MAX_BLOCK
        deadline = time.monotonic() + min(budget, _WAIT_MAX_BLOCK)
        while state.acked_by(target) < numreplicas:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not self.feed_conns:
                break
            waiter = select.poll()  # any fd number; select() ends at 1023
            for conn in self.feed_conns:
                if self._live.get(conn.fd) is conn:
                    waiter.register(conn.fd, select.POLLIN)
            for fd, __ in waiter.poll(min(50.0, remaining * 1000)):
                self._recv(self._live[fd])  # a feed: lands in absorb()
        return state.acked_by(target)

    # -- the broadcast step ----------------------------------------------

    def tick(self) -> float:
        """Seconds until bytes held in ``pending`` are due to ship; the
        loop bounds its poll by it while ``pending`` holds any."""
        return max(0.0, self._due - time.monotonic())

    def ship(self) -> list:
        """Ship what ``pending`` holds now: it moves to the backlog and
        to every live feed's output. The feeds that took bytes."""
        state = self._store.repl
        if state.role != "master" or not state.pending:
            return []
        self._due = time.monotonic() + _FEED_EVERY
        data = state.drain()
        took = []
        for conn in self.feed_conns:
            if self._live.get(conn.fd) is conn:
                conn.out += data
                took.append(conn)
        return took

    def broadcast(self, flush_queue: list) -> None:
        """Ship the stream bytes if due; answer deferred PSYNCs.

        The bytes ship when :data:`_FEED_EVERY` has passed since the
        last ship (else they stay held, and :meth:`tick` times the owed
        ship), or at once when a PSYNC waits. Order matters: existing
        feeds take the drained bytes first, then new feeds are cut in
        at the post-drain offset — via the backlog tail (partial) or a
        fresh snapshot (full), either of which already covers those
        bytes."""
        state = self._store.repl  # not None: the loop's gate saw it
        owed = []
        if self.psync_requests or time.monotonic() >= self._due:
            owed = self.ship()
        requests, self.psync_requests = self.psync_requests, []
        for conn, replid, offset in requests:
            if self._live.get(conn.fd) is not conn:
                continue
            if state.role == "master":
                self._serve_psync(state, conn, replid, offset)
            else:  # role flipped between request and broadcast
                encode_reply_into(conn.out, _NOT_MASTER)
            owed.append(conn)
        for conn in owed:
            if not conn.queued:
                conn.queued = True
                flush_queue.append(conn)

    def _serve_psync(
        self, state: ReplicationState, conn: Any, replid: str, offset: int
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
                materialize_entries(self._store, time.time()),
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
        self.feed_conns.append(conn)

    # -- feed sockets ------------------------------------------------------

    def absorb(self, conn: Any) -> bool:
        """Take the REPLCONF ACKs the transport just received on a feed
        socket; False when the connection was closed. A feed socket
        carries nothing else and never dispatches a command."""
        try:
            frames = conn.parser.parse_all()
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
                self._store.repl.note_ack(conn.feed, ack)
        return True

    def feed_closed(self, conn: Any) -> None:
        """A feed's connection closed (the transport's ``_close``)."""
        self._store.repl.drop_feed(conn.feed)
        conn.feed = None
        self.feed_conns.remove(conn)
