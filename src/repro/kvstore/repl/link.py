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
records. The link scans complete frames out of its receive buffer,
applies them under the server's execution lock with persistence hooks
suppressed (the raw stream bytes are appended to the local AOF
verbatim instead — replaying an apply would double-log), advances the
replication offset by exactly the bytes applied, and acks with
``REPLCONF ACK <offset>`` after every applied batch and on idle
heartbeats. Budget denials count as future misses and never stop the
stream; tombstones always apply, so the replica's dropped-set never
diverges from the master's.

A dropped link (closed socket, torn frame, CRC failure) tears the
session down and redials with exponential backoff; every redial tries
partial resync first.
"""

from __future__ import annotations

import socket
import threading
import time
from contextlib import nullcontext
from typing import TYPE_CHECKING

from repro.core.errors import SoftMemoryDenied
from repro.kvstore.persist.codec import (
    EXP_ABSOLUTE,
    EXP_KEEP,
    HEADER_SIZE,
    MAX_RECORD_SIZE,
    CorruptRecord,
    decode_record,
    scan_frames,
)
from repro.kvstore.persist.snapshot import load_snapshot_bytes
from repro.kvstore.resp import encode_command
from repro.kvstore.wire import FRAME_HEADER

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kvstore.persist.engine import Persistence
    from repro.kvstore.repl.state import ReplicationState
    from repro.kvstore.store import DataStore

_RECV_SIZE = 65536
#: cap on any single handshake line (status or bulk-length header)
_MAX_LINE = 512


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


def apply_record(
    store: "DataStore",
    state: "ReplicationState",
    record: tuple,
    now_ms: int,
) -> None:
    """Apply one decoded stream record to the replica's store.

    The mirror of ``Persistence._apply_record`` with replication
    accounting: a budget-denied write is a future miss (counted, never
    raised — degraded-daemon mode keeps the stream moving), and a
    tombstone always lands so the dropped-set cannot diverge.
    """
    kind = record[0]
    if kind == "W":
        __, key, value, exp_kind, deadline = record
        if exp_kind == EXP_KEEP:
            deadline_ms = store._restore_deadline_ms(key, now_ms)
        elif exp_kind == EXP_ABSOLUTE:
            deadline_ms = deadline
        else:
            deadline_ms = None
        ex: float | None = None
        if deadline_ms is not None:
            ex = (deadline_ms - now_ms) / 1000.0
        try:
            store._restore_write(key, value, ex)
        except SoftMemoryDenied:
            state.apply_denied += 1
    elif kind == "T":
        state.tombstones_applied += 1
        store._restore_delete(record[1])
    elif kind == "D":
        store._restore_delete(record[1])
    elif kind == "E":
        store._restore_expire(record[1], (record[2] - now_ms) / 1000.0)
    elif kind == "P":
        store._restore_persist(record[1])
    elif kind == "M":
        store._restore_demote(record[1])
    elif kind == "F":
        store._restore_flush()
    # "Z" seals snapshots and never travels the incremental stream


class ReplicaLink(threading.Thread):
    """Background thread that keeps one replica synced to its master."""

    def __init__(
        self,
        store: "DataStore",
        state: "ReplicationState",
        lock: threading.Lock,
        *,
        persist: "Persistence | None" = None,
        connect_timeout: float = 5.0,
        max_backoff: float = 2.0,
    ) -> None:
        super().__init__(name="kv-replica-link", daemon=True)
        self._store = store
        self._state = state
        self._lock = lock
        self._persist = persist
        self._connect_timeout = connect_timeout
        self._max_backoff = max_backoff
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

    @property
    def stopped(self) -> bool:
        return self._stop_event.is_set()

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
            except (OSError, HandshakeError, CorruptRecord):
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
            if time.monotonic() - started > 2 * self._max_backoff:
                backoff = 0.05
            self._stop_event.wait(backoff)
            backoff = min(backoff * 2, self._max_backoff)

    def _sync_once(self) -> None:
        state = self._state
        host, port = state.master_host, state.master_port
        if host is None or port is None:
            raise ConnectionError("no master configured")
        state.link_status = "connecting"
        sock = socket.create_connection(
            (host, port), timeout=self._connect_timeout
        )
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
        entries, __ = loaded
        store = self._store
        state = self._state
        persist = self._persist
        now_ms = int(time.time() * 1000)
        with self._lock:
            if self._stop_event.is_set():
                raise ConnectionError("link stopped")
            suppress = (
                persist.hooks_suppressed() if persist is not None
                else nullcontext()
            )
            with suppress:
                store._restore_flush()
                for key, value, deadline_ms in entries:
                    ex: float | None = None
                    if deadline_ms is not None:
                        ex = (deadline_ms - now_ms) / 1000.0
                    try:
                        store._restore_write(key, value, ex)
                    except SoftMemoryDenied:
                        state.apply_denied += 1
            state.adopt(replid, offset)
            state.full_syncs_done += 1
            state.link_status = "up"
            if persist is not None:
                # seal the synced state as a local base-<g>.snap so a
                # replica restart recovers it without the master
                persist.checkpoint(background=False)

    def _stream(self, sock: socket.socket, initial: bytes) -> None:
        state = self._state
        store = self._store
        persist = self._persist
        buf = bytearray(initial)
        sock.settimeout(0.2)
        pending_first = bool(buf)
        while not self._stop_event.is_set():
            if not pending_first:
                try:
                    chunk = sock.recv(_RECV_SIZE)
                except socket.timeout:
                    self._send_ack(sock)  # idle heartbeat: lag signal
                    continue
                if not chunk:
                    raise ConnectionError("master closed the stream")
                buf += chunk
            pending_first = False
            if len(buf) < HEADER_SIZE:
                continue
            # bytearray slices are unhashable (hash-field keys), so the
            # scanner gets an immutable copy; the applied prefix handed
            # to the backlog and the local AOF is a view of that copy
            data = bytes(buf)
            payloads, valid = scan_frames(data)
            if payloads:
                records = [decode_record(p) for p in payloads]
                raw = memoryview(data)[:valid]
                now_ms = int(time.time() * 1000)
                with self._lock:
                    if self._stop_event.is_set():
                        raise ConnectionError("link stopped")
                    suppress = (
                        persist.hooks_suppressed() if persist is not None
                        else nullcontext()
                    )
                    with suppress:
                        for record in records:
                            apply_record(store, state, record, now_ms)
                    state.note_applied(raw, len(records))
                    if persist is not None:
                        persist.append_raw(raw, len(records))
                if persist is not None:
                    persist.flush()
                del buf[:valid]
                self._send_ack(sock)
            if len(buf) >= HEADER_SIZE:
                length, __ = FRAME_HEADER.unpack_from(buf, 0)
                if (
                    length > MAX_RECORD_SIZE
                    or len(buf) >= HEADER_SIZE + length
                ):
                    # the full frame is here yet failed to scan: that is
                    # corruption on the wire, not a short read — resync
                    raise ConnectionError("corrupt replication stream")

    def _send_ack(self, sock: socket.socket) -> None:
        sock.sendall(
            encode_command(
                b"REPLCONF", b"ACK",
                str(self._state.master_repl_offset),
            )
        )
