"""Daemon-process side of the cross-process protocol.

Wraps a real :class:`~repro.daemon.smd.SoftMemoryDaemon` behind a unix
domain socket. Each client process appears in the daemon's registry as
a :class:`_RemoteSma` proxy whose ledgers are refreshed from the state
snapshot piggybacked on every client frame, and whose ``reclaim`` sends
a DEMAND over the wire and waits for the REPORT.

Per connection there are two threads: a *reader* that only parses
frames (so REPORTs always flow, even while this client's own request
waits its turn) and a *handler* that executes requests against the
daemon under a global lock (episodes from different clients must
serialize — there is one capacity ledger).

Fault tolerance (see ``docs/PROTOCOL.md``):

* requests and releases are idempotent per frame id — a retried or
  duplicated frame gets the cached reply, never a second grant;
* PING frames are answered with PONG directly on the reader thread, so
  liveness is visible even while the handler is busy; a client that
  pinged once and then went silent past ``heartbeat_timeout`` is
  reaped by the server's monitor thread;
* a reconnecting client sends ``hello`` with ``resync``: the daemon
  re-adopts as much of its still-held budget as free capacity allows
  and the follow-up ``resync`` frame settles the final ledger.

Liveness: a client with an in-flight request advertises zero
reclaimable pages, so episodes triggered by other clients skip it once
the reader has seen that request; a demand sent just before it lands
mid-ask, and the client answers it with zero pages. A crashed client
is deregistered on disconnect, any demand waiting on it ends, and its
budget returns to the unassigned pool (its memory died with it, which
is exactly the kill semantics the paper describes).
"""

from __future__ import annotations

import contextlib
import os
import queue
import socket
import threading
import time
from typing import Any

from repro.core.errors import SoftMemoryDenied
from repro.core.reclaim import ReclamationStats
from repro.daemon.ipc import Channel
from repro.daemon.registry import ProcessRecord
from repro.daemon.smd import SmdConfig, SoftMemoryDaemon
from repro.rpc.config import DEFAULT_RPC_CONFIG, ReplyCache, RpcConfig
from repro.rpc.framing import FrameClosed, FrameStream
from repro.util.eventlog import EventLog

#: events the hosted daemon's log keeps: it records every request, grant
#: and demand for the life of the machine's one daemon process
EVENT_LOG_BOUND = 4096


class _RemoteBudget:
    """Daemon-side mirror of a client's budget ledger."""

    def __init__(self) -> None:
        self.held = 0
        self.granted = 0


class _RemoteSma:
    """Stands in for the client's SMA inside the daemon's registry."""

    def __init__(self, connection: "_Connection") -> None:
        self._connection = connection
        self.budget = _RemoteBudget()
        self._flexibility = 0
        self._reclaimable = 0
        self.compressed_pages = 0
        #: a client with an in-flight request must not receive demands
        self.busy = False

    def update_state(self, frame: dict[str, Any]) -> None:
        self.budget.held = int(frame.get("held", self.budget.held))
        self.budget.granted = int(frame.get("granted", self.budget.granted))
        self._flexibility = int(
            frame.get("flexibility", self._flexibility)
        )
        self._reclaimable = int(
            frame.get("reclaimable", self._reclaimable)
        )
        self.compressed_pages = int(
            frame.get("compressed", self.compressed_pages)
        )

    def flexibility(self) -> int:
        return 0 if self.busy else self._flexibility

    def reclaimable_pages(self) -> int:
        return 0 if self.busy else self._reclaimable

    def reclaim(self, demand_pages: int) -> ReclamationStats:
        """One DEMAND/REPORT round trip (called inside an episode)."""
        if self.busy:
            # became busy after target selection: skip rather than
            # demand from a client whose app thread is blocked on us
            return ReclamationStats(demanded_pages=demand_pages)
        report = self._connection.demand(demand_pages)
        stats = ReclamationStats(demanded_pages=demand_pages)
        if report is None:  # timeout or disconnect: nothing surrendered
            return stats
        stats.pages_from_budget = int(report.get("pages_from_budget", 0))
        stats.pages_from_pool = int(report.get("pages_from_pool", 0))
        stats.pages_from_sds = int(report.get("pages_from_sds", 0))
        stats.allocations_freed = int(report.get("allocations_freed", 0))
        stats.callbacks_invoked = int(report.get("callbacks_invoked", 0))
        stats.callback_errors = int(report.get("callback_errors", 0))
        self.update_state(report)
        return stats


class _Connection:
    """One client process's socket, reader, and handler."""

    def __init__(self, server: "RpcDaemonServer", sock: socket.socket) -> None:
        self.server = server
        self.config = server.rpc_config
        self.stream = FrameStream(sock)
        self.proxy = _RemoteSma(self)
        self.record: ProcessRecord | None = None
        self._send_lock = threading.Lock()
        self._inbox: "queue.Queue[dict | None]" = queue.Queue()
        self._demand_replies: dict[int, dict[str, Any]] = {}
        self._demand_events: dict[int, threading.Event] = {}
        self._demand_lock = threading.Lock()  # guards the two dicts
        self._demand_ids = iter(range(1, 2**31))
        self.reply_cache = ReplyCache(64)
        self.last_recv = time.monotonic()
        self.saw_ping = False
        self._closed = threading.Event()
        self.reader = threading.Thread(
            target=self._reader_loop, daemon=True
        )
        self.handler = threading.Thread(
            target=self._handler_loop, daemon=True
        )

    def start(self) -> None:
        """Begin reading — once the server lists the connection."""
        self.reader.start()
        self.handler.start()

    @property
    def closed(self) -> bool:
        return self._closed.is_set()

    def send(self, frame: dict[str, Any]) -> None:
        with self._send_lock:
            self.stream.send(frame)

    def reply(self, request_id: Any, frame: dict[str, Any]) -> None:
        """Send a reply and remember it for duplicate-id resends."""
        if request_id is not None:
            self.reply_cache.put(request_id, frame)
        self.send(frame)

    def demand(self, pages: int) -> dict[str, Any] | None:
        """Send DEMAND, wait for REPORT (None on timeout/disconnect)."""
        demand_id = next(self._demand_ids)
        event = threading.Event()
        with self._demand_lock:
            self._demand_events[demand_id] = event
        try:
            self.send({"op": "demand", "id": demand_id, "pages": pages})
        except OSError:
            with self._demand_lock:
                self._demand_events.pop(demand_id, None)
            return None
        answered = event.wait(timeout=self.config.demand_timeout)
        # Pop both maps under one lock: if the REPORT lands between the
        # wait timing out and this cleanup, we still consume (and use)
        # it instead of stranding the reply dict entry forever.
        with self._demand_lock:
            self._demand_events.pop(demand_id, None)
            reply = self._demand_replies.pop(demand_id, None)
        if not answered and reply is None:
            return None
        return reply

    # -- threads -------------------------------------------------------

    def _reader_loop(self) -> None:
        while not self._closed.is_set():
            try:
                frame = self.stream.recv()
            except (FrameClosed, OSError, ValueError):
                break
            self.last_recv = time.monotonic()
            op = frame.get("op")
            if op == "ping":
                # answered on the reader thread so liveness is visible
                # even while the handler executes a slow episode
                self.saw_ping = True
                try:
                    self.send({"op": "pong", "t": frame.get("t")})
                except OSError:
                    break
            elif op == "pong":
                pass  # any frame already refreshed last_recv
            elif op == "report":
                demand_id = frame.get("id")
                with self._demand_lock:
                    event = self._demand_events.pop(demand_id, None)
                    if event is not None:
                        self._demand_replies[demand_id] = frame
                    # no waiter: the demand timed out — drop the report
                if event is not None:
                    event.set()
            else:
                if op in ("request", "release"):
                    # the client's app thread blocks (holding its SMA
                    # lock) for both ops; make that visible to
                    # concurrent episodes immediately so they never
                    # demand from a blocked client
                    self.proxy.busy = True
                self._inbox.put(frame)
        self._inbox.put(None)  # wake the handler for teardown
        with self._demand_lock:  # and a DEMAND no REPORT will answer
            waiting = list(self._demand_events.values())
        for event in waiting:
            event.set()

    def _handler_loop(self) -> None:
        while True:
            frame = self._inbox.get()
            if frame is None:
                break
            try:
                self.server.handle_frame(self, frame)
            except OSError:
                break
            finally:
                if frame.get("op") in ("request", "release"):
                    self.proxy.busy = False
        self.server.disconnect(self)
        self._closed.set()
        self.stream.close()


class RpcDaemonServer:
    """The machine's soft memory daemon, served over a unix socket."""

    def __init__(
        self,
        socket_path: str,
        soft_capacity_pages: int,
        config: SmdConfig | None = None,
        *,
        rpc_config: RpcConfig | None = None,
    ) -> None:
        self.socket_path = socket_path
        self.smd = SoftMemoryDaemon(
            soft_capacity_pages,
            config=config,
            event_log=EventLog(max_events=EVENT_LOG_BOUND),
        )
        self.rpc_config = rpc_config or DEFAULT_RPC_CONFIG
        self._lock = threading.Lock()  # serializes daemon state changes
        self._connections: list[_Connection] = []
        self._conn_lock = threading.Lock()
        self._stop = threading.Event()
        self.clients_reaped = 0
        if os.path.exists(socket_path):
            os.unlink(socket_path)
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._listener.bind(socket_path)
        self._listener.listen(16)
        self._listener.settimeout(0.2)
        self._accept_thread: threading.Thread | None = None
        self._monitor_thread: threading.Thread | None = None

    def start(self) -> "RpcDaemonServer":
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="smd-accept", daemon=True
        )
        self._accept_thread.start()
        self._monitor_thread = threading.Thread(
            target=self._monitor_loop, name="smd-monitor", daemon=True
        )
        self._monitor_thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        with contextlib.suppress(OSError), socket.socket(socket.AF_UNIX) as waker:
            waker.connect(self.socket_path)  # ends a blocked accept() now
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
        if self._monitor_thread is not None:
            self._monitor_thread.join(timeout=5)
        self._listener.close()
        for connection in self.connections():
            connection.stream.close()
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)

    def __enter__(self) -> "RpcDaemonServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def connections(self) -> list[_Connection]:
        with self._conn_lock:
            return list(self._connections)

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                sock, __ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            connection = _Connection(self, sock)
            with self._conn_lock:  # listed before its first frame is read
                # prune connections whose teardown already completed so
                # the list cannot grow without bound under churn
                self._connections = [
                    c for c in self._connections if not c.closed
                ]
                self._connections.append(connection)
            connection.start()

    def _monitor_loop(self) -> None:
        """Reap clients that heartbeated once and then went silent."""
        timeout = self.rpc_config.heartbeat_timeout
        interval = min(0.5, timeout / 2) if timeout > 0 else 0.5
        while not self._stop.is_set():
            if self._stop.wait(interval):
                break
            if timeout <= 0:
                continue
            now = time.monotonic()
            for connection in self.connections():
                if not connection.saw_ping:
                    continue  # client never opted into heartbeats
                if now - connection.last_recv > timeout:
                    self.clients_reaped += 1
                    # closing the socket unwinds reader → handler →
                    # disconnect, returning the budget to the pool
                    connection.stream.close()

    # ------------------------------------------------------------------
    # frame handling (runs on per-connection handler threads)
    # ------------------------------------------------------------------

    def handle_frame(self, connection: _Connection, frame: dict) -> None:
        op = frame.get("op")
        connection.proxy.update_state(frame)
        if op in ("request", "release"):
            cached = connection.reply_cache.get(frame.get("id"))
            if cached is not None:
                # retry or injected duplicate of an already-executed
                # operation: resend the recorded outcome, don't re-run
                connection.send(cached)
                return
        if op == "hello":
            self._handle_hello(connection, frame)
        elif op == "request":
            self._handle_request(connection, frame)
        elif op == "release":
            self._handle_release(connection, frame)
        elif op == "resync":
            self._handle_resync(connection, frame)
        else:
            connection.send({"op": "error", "id": frame.get("id"),
                             "message": f"unknown op {op!r}"})

    def _handle_hello(self, connection: _Connection, frame: dict) -> None:
        resync = bool(frame.get("resync"))
        claim = int(frame.get("granted", 0)) if resync else 0
        startup = accepted = 0
        with self._lock:
            record = ProcessRecord(
                name=str(frame.get("name", "client")),
                sma=connection.proxy,  # type: ignore[arg-type]
                channel=Channel(),
                traditional_pages=int(frame.get("traditional_pages", 0)),
            )
            self.smd.registry.add(record)
            if resync:
                # re-adopt what free capacity allows; the client sheds
                # any overdraft and settles with a follow-up resync frame
                accepted = min(claim, max(0, self.smd.unassigned_pages))
                record.granted_pages += accepted
                self.smd.pages_granted += accepted
                record.resyncs += 1
            else:
                startup = min(
                    self.smd.config.startup_budget_pages,
                    self.smd.unassigned_pages,
                )
                record.granted_pages += startup
                self.smd.pages_granted += startup
        connection.record = record
        connection.send({
            "op": "welcome", "pid": record.pid,
            "startup_budget": startup, "resync_budget": accepted,
        })

    def _handle_request(self, connection: _Connection, frame: dict) -> None:
        record = connection.record
        if record is None:
            connection.send({"op": "error", "id": frame.get("id"),
                             "message": "hello first"})
            return
        pages = int(frame["pages"])
        try:
            with self._lock:
                granted = self.smd.handle_request(record.pid, pages)
            connection.reply(frame["id"], {
                "op": "grant", "id": frame["id"], "pages": granted,
            })
        except SoftMemoryDenied as exc:
            connection.reply(frame["id"], {
                "op": "deny", "id": frame["id"],
                "reclaimed": exc.reclaimed,
            })

    def _handle_release(self, connection: _Connection, frame: dict) -> None:
        record = connection.record
        if record is None:
            return
        with self._lock:
            self.smd.handle_release(record.pid, int(frame["pages"]))
        connection.reply(frame["id"], {"op": "ok", "id": frame["id"]})

    def _handle_resync(self, connection: _Connection, frame: dict) -> None:
        """Adopt a reconnected client's settled ledger wholesale."""
        record = connection.record
        if record is None:
            return
        with self._lock:
            self.smd.adopt_granted(record.pid, int(frame.get("granted", 0)))

    def disconnect(self, connection: _Connection) -> None:
        """Client went away: its budget returns to the pool."""
        with self._conn_lock:
            if connection in self._connections:
                self._connections.remove(connection)
        record = connection.record
        if record is not None:
            with self._lock:
                try:
                    self.smd.deregister(record.pid)
                except KeyError:
                    pass
            connection.record = None
