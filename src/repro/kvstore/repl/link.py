"""The replica side: the sync handshake, record apply, and the link.

:class:`ReplicaLink` is one background thread per replica server. It
dials the master, sends ``PSYNC <replid> <offset>`` (``? -1`` when this
node has never synced), and parses the reply with the incremental
:class:`SyncHandshake`:

* ``+FULLRESYNC <replid> <offset>`` followed by a ``$<len>``-prefixed
  snapshot payload (the same bytes a ``base-<g>.snap`` holds, minus
  the file magic — sealed by the Z trailer) — the replica flushes its
  keyspace and re-admits every entry through its own SMA budget,
  exactly like recovery re-admission;
* ``+CONTINUE`` — the master still holds this offset in its backlog
  ring and resumes the raw stream mid-flight.

After the handshake the socket carries nothing but CRC-framed codec
records. Under the server's execution lock, :func:`apply_stream` reads
the complete records out of the receive buffer, appends their raw bytes
to the local AOF verbatim, replays them (``DataStore.replay`` logs
nothing itself), and advances the replication offset by exactly the
bytes applied; the link then acks with ``REPLCONF ACK <offset>``, as it
does on idle heartbeats. Budget denials count as future misses and
never stop the stream; tombstones always apply, so the replica's
dropped-set never diverges from the master's.

A dropped link (closed socket, torn frame, CRC failure) tears the
session down and redials with exponential backoff; every redial tries
partial resync first.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import TYPE_CHECKING

from repro.kvstore.persist.codec import (
    HEADER_SIZE,
    MAX_RECORD_SIZE,
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
_CONNECT_TIMEOUT = 5.0
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

    The link's whole batch step, run under the server's execution lock;
    returns the bytes consumed (0: no complete record yet). The raw
    bytes enter the local AOF buffer *before* the batch is replayed, so
    a tombstone logged mid-apply — a key this replica's own budget
    reclaimed to admit the batch — follows the ``W`` it kills. A restart
    can then lose a key the same batch re-wrote after its reclamation
    (a miss, the safe direction), but can never resurrect one.
    """
    records, valid = read_records(data)
    if not records:
        return 0
    raw = memoryview(data)[:valid]
    persist = store.persistence
    if persist is not None:
        persist.append_raw(raw, len(records))
    counts = store.replay(records, now_ms)
    state.apply_denied += counts.denied
    state.tombstones_applied += counts.tombstones
    state.note_applied(raw, len(records))
    return valid


class ReplicaLink(threading.Thread):
    """Background thread that keeps one replica synced to its master."""

    def __init__(
        self,
        store: "DataStore",
        state: "ReplicationState",
        lock: threading.Lock,
    ) -> None:
        super().__init__(name="kv-replica-link", daemon=True)
        self._store = store
        self._state = state
        self._lock = lock
        # not "_stop": Thread._stop() is a CPython-internal method
        self._stop_event = threading.Event()
        self._sock: socket.socket | None = None

    # -- lifecycle ------------------------------------------------------

    def request_stop(self) -> None:
        """Ask the link to die without joining it.

        Safe to call while holding the server lock (the link thread may
        be blocked on that very lock, so joining here would deadlock —
        the link re-checks the stop event after every lock acquisition
        and unwinds).
        """
        self._stop_event.set()
        sock = self._sock
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass

    def stop(self, timeout: float = 5.0) -> None:
        """Request stop and join. Never call while holding the lock."""
        self.request_stop()
        if self.is_alive():
            self.join(timeout)

    # -- the session loop ----------------------------------------------

    def run(self) -> None:
        state = self._state
        backoff = 0.05
        first = True
        while not self._stop_event.is_set():
            if not first:
                state.reconnects += 1
            first = False
            started = time.monotonic()
            try:
                self._sync_once()
            except (OSError, HandshakeError):
                pass
            finally:
                sock = self._sock
                self._sock = None
                if sock is not None:
                    try:
                        sock.close()
                    except OSError:
                        pass
            if self._stop_event.is_set():
                break
            state.link_status = "down"
            # a session that streamed for a while earned a fresh backoff
            if time.monotonic() - started > 2 * _MAX_BACKOFF:
                backoff = 0.05
            self._stop_event.wait(backoff)
            backoff = min(backoff * 2, _MAX_BACKOFF)

    def _sync_once(self) -> None:
        state = self._state
        host, port = state.master_host, state.master_port
        if host is None or port is None:
            raise ConnectionError("no master configured")
        state.link_status = "connecting"
        sock = socket.create_connection((host, port), timeout=_CONNECT_TIMEOUT)
        self._sock = sock
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # a node that has synced before owns a stream position worth
        # offering; a fresh one can only ask for everything
        if state.full_syncs_done or state.partial_syncs_done:
            request = encode_command(
                b"PSYNC", state.replid, str(state.master_repl_offset)
            )
        else:
            request = encode_command(b"PSYNC", b"?", b"-1")
        sock.sendall(request)
        state.link_status = "sync"
        handshake = SyncHandshake()
        result = None
        while result is None:
            if self._stop_event.is_set():
                raise ConnectionError("link stopped")
            chunk = sock.recv(_RECV_SIZE)
            if not chunk:
                raise ConnectionError("master closed during handshake")
            result = handshake.feed(chunk)
        if result[0] == "FULLRESYNC":
            __, replid, offset, payload, leftover = result
            self._load_full_sync(replid, offset, payload)
        else:
            __, leftover = result
            with self._lock:
                if self._stop_event.is_set():
                    raise ConnectionError("link stopped")
                state.partial_syncs_done += 1
                state.link_status = "up"
        self._stream(sock, leftover)

    def _load_full_sync(
        self, replid: str, offset: int, payload: bytes
    ) -> None:
        loaded = load_snapshot_bytes(payload)
        if loaded is None:
            raise ConnectionError("invalid full-sync payload")
        records, __ = loaded
        store = self._store
        state = self._state
        now_ms = int(time.time() * 1000)
        with self._lock:
            if self._stop_event.is_set():
                raise ConnectionError("link stopped")
            # flush, then re-admit every entry through this node's budget
            counts = store.replay([("F",), *records], now_ms)
            state.apply_denied += counts.denied
            state.adopt(replid, offset)
            state.full_syncs_done += 1
            state.link_status = "up"
            persist = store.persistence
            if persist is not None:
                # seal the synced state as a local base-<g>.snap so a
                # replica restart recovers it without the master
                persist.checkpoint(background=False)

    def _stream(self, sock: socket.socket, initial: bytes) -> None:
        store = self._store
        #: received and not yet applied: the torn frame a read ended in
        #: (or the handshake's leftover). Immutable ``bytes`` throughout,
        #: because the reader slices hash-field keys out of it; a chunk
        #: that arrives with nothing carried over is applied as it is
        data = initial
        sock.settimeout(0.2)
        pending_first = bool(data)
        while not self._stop_event.is_set():
            if not pending_first:
                try:
                    chunk = sock.recv(_RECV_SIZE)
                except socket.timeout:
                    self._send_ack(sock)  # idle heartbeat: lag signal
                    continue
                if not chunk:
                    raise ConnectionError("master closed the stream")
                data = data + chunk if data else chunk
            pending_first = False
            with self._lock:
                if self._stop_event.is_set():
                    raise ConnectionError("link stopped")
                valid = apply_stream(
                    store, self._state, data, int(time.time() * 1000)
                )
            if valid:
                persist = store.persistence
                if persist is not None:
                    persist.flush()
                data = data[valid:]
                self._send_ack(sock)
            if len(data) >= HEADER_SIZE:
                length, __ = FRAME_HEADER.unpack_from(data, 0)
                if (
                    length > MAX_RECORD_SIZE
                    or len(data) >= HEADER_SIZE + length
                ):
                    # the full frame is here yet failed to read: that is
                    # corruption on the wire, not a short read — resync
                    raise ConnectionError("corrupt replication stream")

    def _send_ack(self, sock: socket.socket) -> None:
        sock.sendall(
            encode_command(
                b"REPLCONF", b"ACK",
                str(self._state.master_repl_offset),
            )
        )
