"""The replica side: the sync handshake, record apply, and the link.

:class:`ReplicaLink` is one replica server's session with its master,
driven by that server's own event loop: its socket is one more fd on
the loop's poll object. It dials without blocking, sends ``PSYNC
<replid> <offset>`` (``? -1`` when this node has never synced) once the
socket is writable, and parses the reply with the incremental
:class:`SyncHandshake`:

* ``+FULLRESYNC <replid> <offset>`` followed by a ``$<len>``-prefixed
  snapshot payload (the same bytes a ``base-<g>.snap`` holds, minus
  the file magic — sealed by the Z trailer) — the replica flushes its
  keyspace and re-admits every entry through its own SMA budget,
  exactly like recovery re-admission;
* ``+CONTINUE`` — the master still holds this offset in its backlog
  ring and resumes the raw stream mid-flight.

After the handshake the socket carries nothing but CRC-framed codec
records. Each readable event is one read: :func:`apply_stream` takes
the complete records out of what arrived, appends their raw bytes to
the local AOF verbatim, replays them (``DataStore.replay`` logs nothing
itself), and advances the replication offset by exactly the bytes
applied; the link then flushes the AOF buffer. It acks with ``REPLCONF
ACK <offset>`` at most once per 5 ms (``_ACK_EVERY``): a read applied
sooner after the last ACK owes one, and :meth:`ReplicaLink.tick` sends
it at that deadline, at the last applied offset (the first read applied
after a sync acks at once, and a read that applies nothing never
postpones an owed ACK). An up link also acks after 0.2 s of quiet. A
master's ``WAIT`` therefore waits at most 5 ms longer than the stream
takes to apply. Apply, read serving
and the group commit share the one loop thread, so nothing here takes
a lock. Budget denials count as future misses and never stop the
stream; tombstones always apply, so the replica's dropped-set never
diverges from the master's.

A dropped link (closed socket, torn frame, CRC failure, a dial or
handshake quiet for 5 s) closes the session and redials with
exponential backoff; every redial tries partial resync first.
"""

from __future__ import annotations

import errno
import select
import socket
import time
from typing import TYPE_CHECKING

from repro.kvstore.persist.codec import (
    HEADER_SIZE,
    MAX_RECORD_SIZE,
    copy_frames,
    read_records,
)
from repro.kvstore.persist.snapshot import load_snapshot_bytes
from repro.kvstore.resp import encode_command
from repro.kvstore.wire import FRAME_HEADER

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kvstore.repl.state import ReplicationState
    from repro.kvstore.store import DataStore

_RECV_SIZE = 65536
#: cap on any single handshake line (status or bulk-length header)
_MAX_LINE = 512
#: seconds a dial, or a handshake between two reads, may stay quiet
_CONNECT_TIMEOUT = 5.0
#: seconds of quiet on an up link before it acks anyway
_IDLE_ACK = 0.2
#: seconds at least between two ACKs of applied reads: one sooner is
#: owed, and :meth:`ReplicaLink.tick` sends it at this deadline
_ACK_EVERY = 0.005
#: ceiling of the redial backoff (seconds)
_MAX_BACKOFF = 2.0


class HandshakeError(ConnectionError):
    """The master's PSYNC reply was an error or malformed."""


class SyncHandshake:
    """Incremental parser for the master's PSYNC reply.

    Feed it received bytes in any split (the every-byte-truncation
    property test depends on this); ``result`` stays ``None`` until the
    reply is complete, then becomes one of::

        ("CONTINUE", leftover_stream_bytes)
        ("FULLRESYNC", replid, offset, snapshot_payload, leftover)

    ``leftover`` is whatever stream bytes arrived in the same reads as
    the handshake — they belong to the record stream and must not be
    dropped. An ``-ERR`` line or malformed reply raises
    :class:`HandshakeError`.
    """

    def __init__(self) -> None:
        self._buf = bytearray()
        self._full: tuple[str, int] | None = None
        self._payload_len: int | None = None
        self.result: tuple | None = None

    def feed(self, data: bytes) -> tuple | None:
        if self.result is not None:
            raise RuntimeError("handshake already complete")
        self._buf += data
        return self._parse()

    def _take_line(self) -> bytes | None:
        idx = self._buf.find(b"\r\n")
        if idx < 0:
            if len(self._buf) > _MAX_LINE:
                raise HandshakeError("oversized handshake line")
            return None
        line = bytes(self._buf[:idx])
        del self._buf[:idx + 2]
        return line

    def _parse(self) -> tuple | None:
        if self._full is None:
            line = self._take_line()
            if line is None:
                return None
            if line.startswith(b"-"):
                raise HandshakeError(
                    line[1:].decode("utf-8", "replace") or "sync refused"
                )
            if line == b"+CONTINUE":
                self.result = ("CONTINUE", bytes(self._buf))
                self._buf.clear()
                return self.result
            parts = line.split()
            if len(parts) != 3 or parts[0] != b"+FULLRESYNC":
                raise HandshakeError(f"unexpected sync reply {line!r}")
            try:
                replid = parts[1].decode("ascii")
                offset = int(parts[2])
            except (UnicodeDecodeError, ValueError):
                raise HandshakeError(
                    f"malformed FULLRESYNC line {line!r}"
                ) from None
            if len(replid) != 40 or offset < 0:
                raise HandshakeError(f"malformed FULLRESYNC line {line!r}")
            self._full = (replid, offset)
        if self._payload_len is None:
            line = self._take_line()
            if line is None:
                return None
            if not line.startswith(b"$"):
                raise HandshakeError(f"expected bulk payload, got {line!r}")
            try:
                size = int(line[1:])
            except ValueError:
                raise HandshakeError(
                    f"malformed bulk length {line!r}"
                ) from None
            if size < 0:
                raise HandshakeError(f"malformed bulk length {line!r}")
            self._payload_len = size
        if len(self._buf) < self._payload_len:
            return None
        payload = bytes(self._buf[:self._payload_len])
        leftover = bytes(self._buf[self._payload_len:])
        self._buf.clear()
        replid, offset = self._full
        self.result = ("FULLRESYNC", replid, offset, payload, leftover)
        return self.result


def apply_stream(
    store: "DataStore", state: "ReplicationState", data: bytes, now_ms: int
) -> int:
    """Apply the complete records at the head of ``data``: one batch.

    The link's whole batch step, on the server's loop thread; returns
    the bytes consumed (0: no complete record yet). The raw bytes enter
    the local AOF buffer *before* the batch is replayed, so a tombstone
    logged mid-apply — a key this replica's own budget reclaimed to
    admit the batch — follows the ``W`` it kills. A restart can then
    lose a key the same batch re-wrote after its reclamation (a miss,
    the safe direction), but can never resurrect one.
    """
    records, valid = read_records(data)
    if not records:
        return 0
    raw = memoryview(data)[:valid]
    store.log_record(copy_frames, (raw,), None, len(records))
    counts = store.replay(records, now_ms)
    state.apply_denied += counts.denied
    state.tombstones_applied += counts.tombstones
    state.note_applied(raw, len(records))
    return valid


class ReplicaLink:
    """One replica's session with its master, on the server's event loop.

    The socket is registered with the server's poll object; the loop
    hands its events to :meth:`on_event` and runs :meth:`tick` once a
    round, bounding its poll by the returned seconds. A failure of any
    step closes the session and schedules the redial.
    """

    def __init__(
        self, store: "DataStore", state: "ReplicationState", poller
    ) -> None:
        self._store = store
        self._state = state
        self._poller = poller
        self.sock: socket.socket | None = None
        self.fd = -1  # the socket's number while it is registered
        self._handshake: SyncHandshake | None = None  # while status "sync"
        #: received and not yet applied: the torn frame a read ended in.
        #: Immutable ``bytes`` throughout, because the reader slices
        #: hash-field keys out of it; a chunk that arrives with nothing
        #: carried over is applied as it is
        self._data = b""
        self._backoff = 0.05
        self._dialed: float | None = None  # monotonic; None: never dialed
        #: when :meth:`tick` acts: redial (no socket), give up (a dial or
        #: handshake gone quiet), or send an idle or owed ACK (streaming)
        self._due = 0.0
        #: monotonic time of this session's last ACK (-inf: none yet, so
        #: the first read applied after a sync acks at once)
        self._acked = float("-inf")
        #: an applied read is not acked yet: ``_due`` is its deadline
        self._owed = False

    def tick(self) -> float:
        """Run the timer if it is due; seconds until it is due again."""
        now = time.monotonic()
        if now >= self._due:
            try:
                if self.sock is None:
                    self._dial(now)
                elif self._state.link_status == "up":
                    # an owed ACK, or the idle heartbeat: lag signal
                    self._send_ack(now)
                    self._due = now + _IDLE_ACK
                else:  # a dial or handshake gone quiet
                    self._drop(now)
            except OSError:
                self._drop(now)
        return max(0.0, self._due - now)

    def on_event(self, mask: int) -> None:
        """The loop saw ``mask`` on this link's socket."""
        try:
            if self._state.link_status == "connecting":
                self._connected()
            else:
                self._receive()
        except OSError:  # HandshakeError and ConnectionError included
            self._drop(time.monotonic())

    def close(self) -> None:
        """End the session; nothing is redialed."""
        sock, self.sock = self.sock, None
        if sock is not None:
            # before close(): poll keeps a closed fd, epoll drops it
            self._poller.unregister(self.fd)
            sock.close()
        self.fd = -1
        self._handshake = None
        self._data = b""
        self._acked = float("-inf")
        self._owed = False

    # -- the session's steps ------------------------------------------

    def _drop(self, now: float) -> None:
        self.close()
        self._state.link_status = "down"
        # a session that streamed for a while earned a fresh backoff
        if now - self._dialed > 2 * _MAX_BACKOFF:
            self._backoff = 0.05
        self._due = now + self._backoff
        self._backoff = min(self._backoff * 2, _MAX_BACKOFF)

    def _dial(self, now: float) -> None:
        state = self._state
        if self._dialed is not None:
            state.reconnects += 1
        self._dialed = now
        state.link_status = "connecting"
        family, kind, proto, __, addr = socket.getaddrinfo(
            state.master_host, state.master_port, type=socket.SOCK_STREAM
        )[0]
        sock = socket.socket(family, kind, proto)
        sock.setblocking(False)
        self.sock, self.fd = sock, sock.fileno()
        self._poller.register(self.fd, select.POLLOUT)
        self._due = now + _CONNECT_TIMEOUT
        err = sock.connect_ex(addr)
        if err not in (0, errno.EINPROGRESS):
            raise ConnectionError(err)

    def _connected(self) -> None:
        """The dial finished: send ``PSYNC`` and await the reply."""
        sock, state = self.sock, self._state
        err = sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
        if err:
            raise ConnectionError(err)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # a node that has synced before owns a stream position worth
        # offering; a fresh one can only ask for everything
        if state.full_syncs_done or state.partial_syncs_done:
            request = encode_command(
                b"PSYNC", state.replid, str(state.master_repl_offset)
            )
        else:
            request = encode_command(b"PSYNC", b"?", b"-1")
        sock.sendall(request)  # a fresh socket's buffer takes it whole
        self._poller.modify(self.fd, select.POLLIN)
        state.link_status = "sync"
        self._handshake = SyncHandshake()

    def _receive(self) -> None:
        """One read: the handshake's next bytes, or stream to apply."""
        try:
            chunk = self.sock.recv(_RECV_SIZE)
        except (BlockingIOError, InterruptedError):
            return
        if not chunk:
            raise ConnectionError("master closed the stream")
        handshake = self._handshake
        if handshake is not None:
            result = handshake.feed(chunk)
            if result is None:
                self._due = time.monotonic() + _CONNECT_TIMEOUT
                return
            self._handshake = None
            if result[0] == "FULLRESYNC":
                __, replid, offset, payload, chunk = result
                self._load_full_sync(replid, offset, payload)
            else:
                __, chunk = result
                self._state.partial_syncs_done += 1
                self._state.link_status = "up"
        self._stream(chunk)

    def _load_full_sync(
        self, replid: str, offset: int, payload: bytes
    ) -> None:
        loaded = load_snapshot_bytes(payload)
        if loaded is None:
            raise ConnectionError("invalid full-sync payload")
        records, __ = loaded
        store = self._store
        state = self._state
        # flush, then re-admit every entry through this node's budget
        counts = store.replay([("F",), *records], int(time.time() * 1000))
        state.apply_denied += counts.denied
        state.adopt(replid, offset)
        state.full_syncs_done += 1
        state.link_status = "up"
        persist = store.persistence
        if persist is not None:
            # seal the synced state as a local base-<g>.snap so a
            # replica restart recovers it without the master
            persist.checkpoint(background=False)

    def _stream(self, chunk: bytes) -> None:
        """Apply what is whole of the carried tail plus ``chunk``, ack
        it (or owe the ACK, see :data:`_ACK_EVERY`), and keep the torn
        frame the read ended in."""
        store = self._store
        data = self._data + chunk if self._data else chunk
        valid = apply_stream(store, self._state, data, int(time.time() * 1000))
        now = time.monotonic()
        if valid:
            persist = store.persistence
            if persist is not None:
                persist.flush()
            data = data[valid:]
            if now - self._acked >= _ACK_EVERY:
                self._send_ack(now)
                self._due = now + _IDLE_ACK
            else:  # too soon after the last: the timer sends it
                self._owed = True
                self._due = self._acked + _ACK_EVERY
        elif not self._owed:  # nothing applied never postpones an ACK
            self._due = now + _IDLE_ACK
        if len(data) >= HEADER_SIZE:
            length, __ = FRAME_HEADER.unpack_from(data, 0)
            if length > MAX_RECORD_SIZE or len(data) >= HEADER_SIZE + length:
                # the full frame is here yet failed to read: that is
                # corruption on the wire, not a short read — resync
                raise ConnectionError("corrupt replication stream")
        self._data = data

    def _send_ack(self, now: float) -> None:
        """``REPLCONF ACK`` at the last applied offset; nothing is owed
        after it."""
        # a master that left this many ACKs unread is gone: a full
        # buffer fails the send and the link redials
        self.sock.sendall(
            encode_command(
                b"REPLCONF", b"ACK",
                str(self._state.master_repl_offset),
            )
        )
        self._acked = now
        self._owed = False
