"""Client-process side of the cross-process protocol.

The :class:`SmaAgent` plugs into a
:class:`~repro.core.locking.LockedSoftMemoryAllocator` as its daemon
client: budget requests and releases become socket round-trips, and a
background reader thread services the daemon's incoming DEMAND frames
by running the SMA's reclamation and sending back the REPORT.

Fault tolerance (see ``docs/PROTOCOL.md``):

* round-trips retry with exponential backoff under
  :class:`~repro.rpc.config.RpcConfig`; the daemon deduplicates by
  frame id, so a retry whose original was actually processed gets the
  cached reply instead of a double grant;
* a monitor thread sends PING frames and declares the daemon dead
  after ``heartbeat_timeout`` of silence;
* on connection loss the agent flips the SMA into *degraded mode* —
  no new grants (asks fail fast with
  :class:`~repro.core.errors.SoftMemoryDegraded`, a
  ``SoftMemoryDenied`` subclass, never an unhandled transport error),
  existing soft memory stays usable — and keeps redialing in the
  background; on reconnect it re-registers and resyncs the budget
  ledger with the daemon.

Locking note: the application thread blocks inside ``request`` while
holding the SMA's lock, so an incoming demand for *this* process could
not take it — the daemon therefore never demands from a client with an
in-flight request (its advertised ``reclaimable`` is zero while busy).
"""

from __future__ import annotations

import dataclasses
import itertools
import socket
import threading
import time
from typing import Any, Callable

from repro.core.errors import (
    DaemonUnreachable,
    SoftMemoryDegraded,
    SoftMemoryDenied,
)
from repro.core.locking import LockedSoftMemoryAllocator
from repro.rpc.config import DEFAULT_RPC_CONFIG, ReplyCache, RpcConfig
from repro.rpc.framing import FrameClosed, FrameStream

_request_ids = itertools.count(1)

#: sentinel reply installed for waiters when the connection dies
_CONN_LOST_OP = "__connection_lost__"

StreamWrapper = Callable[[FrameStream], FrameStream]


class AgentStats:
    """Lifetime counters for the fault-tolerance machinery."""

    __slots__ = (
        "round_trips",
        "retries",
        "timeouts",
        "pings_sent",
        "pongs_received",
        "degraded_entries",
        "degraded_seconds",
        "reconnects",
        "resync_pages_shed",
    )

    def __init__(self) -> None:
        self.round_trips = 0
        self.retries = 0
        self.timeouts = 0
        self.pings_sent = 0
        self.pongs_received = 0
        self.degraded_entries = 0
        self.degraded_seconds = 0.0
        self.reconnects = 0
        self.resync_pages_shed = 0

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in self.__slots__}


class SmaAgent:
    """Connects one process's SMA to a remote daemon.

    Usage (inside the worker process)::

        sma = LockedSoftMemoryAllocator(name="worker")
        agent = SmaAgent.connect(socket_path, sma,
                                 traditional_pages=100)
        # ... use soft data structures normally ...
        agent.close()
    """

    def __init__(
        self,
        stream: FrameStream,
        sma: LockedSoftMemoryAllocator,
        *,
        name: str,
        traditional_pages: int = 0,
        config: RpcConfig | None = None,
        socket_path: str | None = None,
        stream_wrapper: StreamWrapper | None = None,
    ) -> None:
        self._stream = stream
        self._sma = sma
        self.name = name
        self.traditional_pages = traditional_pages
        self._config = config or DEFAULT_RPC_CONFIG
        self._socket_path = socket_path
        self._stream_wrapper = stream_wrapper
        self._pending: dict[int, "threading.Event"] = {}
        self._replies: dict[int, dict[str, Any]] = {}
        self._pending_lock = threading.Lock()  # guards the two dicts
        self._send_lock = threading.Lock()
        self._transition_lock = threading.Lock()
        self._closed = threading.Event()
        self._degraded = threading.Event()
        self._degraded_at = 0.0
        self._last_recv = time.monotonic()
        self._demand_cache = ReplyCache(32)
        self.stats = AgentStats()
        self.demands_served = 0

        # handshake (before the reader thread exists: plain recv)
        welcome = self._handshake(stream, resync=False)
        self.pid = int(welcome["pid"])
        sma.connect_daemon(self)  # must precede any budget changes
        startup = int(welcome.get("startup_budget", 0))
        if startup:
            sma.budget.grant(startup)

        self._reader = threading.Thread(
            target=self._reader_loop, args=(stream,),
            name=f"sma-agent-{name}", daemon=True,
        )
        self._reader.start()
        self._monitor = threading.Thread(
            target=self._monitor_loop,
            name=f"sma-agent-{name}-monitor", daemon=True,
        )
        self._monitor.start()

    @classmethod
    def connect(
        cls,
        socket_path: str,
        sma: LockedSoftMemoryAllocator,
        *,
        traditional_pages: int = 0,
        timeout: float | None = None,
        config: RpcConfig | None = None,
        stream_wrapper: StreamWrapper | None = None,
    ) -> "SmaAgent":
        config = config or DEFAULT_RPC_CONFIG
        if timeout is not None:  # explicit override wins over config
            config = dataclasses.replace(config, connect_timeout=timeout)
        stream = cls._dial(socket_path, config, stream_wrapper)
        return cls(
            stream, sma,
            name=sma.name, traditional_pages=traditional_pages,
            config=config, socket_path=socket_path,
            stream_wrapper=stream_wrapper,
        )

    @staticmethod
    def _dial(
        socket_path: str,
        config: RpcConfig,
        stream_wrapper: StreamWrapper | None,
    ) -> FrameStream:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(config.connect_timeout)
        try:
            sock.connect(socket_path)
        except OSError:
            sock.close()
            raise
        stream: FrameStream = FrameStream(sock)
        if stream_wrapper is not None:
            stream = stream_wrapper(stream)
        return stream

    def _handshake(
        self, stream: FrameStream, *, resync: bool
    ) -> dict[str, Any]:
        """HELLO/WELCOME exchange; bounded by the connect timeout."""
        hello = {
            "op": "hello", "name": self.name,
            "traditional_pages": self.traditional_pages,
            **self._state(),
        }
        if resync:
            hello["resync"] = True
        stream.send(hello)
        welcome = stream.recv()
        if welcome.get("op") != "welcome":
            raise ConnectionError(f"bad handshake reply: {welcome!r}")
        # handshake done: liveness is the heartbeat's job from here on,
        # so an idle-but-healthy connection must never time out a recv
        stream.settimeout(None)
        return welcome

    # ------------------------------------------------------------------
    # DaemonClient protocol (called by the SMA, app thread)
    # ------------------------------------------------------------------

    @property
    def degraded(self) -> bool:
        return self._degraded.is_set()

    def request(self, pages: int) -> int:
        if self._degraded.is_set():
            raise SoftMemoryDegraded(self.pid, pages)
        try:
            reply = self._round_trip({"op": "request", "pages": pages})
        except DaemonUnreachable:
            # transport failure is not a policy denial: degrade instead
            raise SoftMemoryDegraded(self.pid, pages) from None
        if reply["op"] == "grant":
            return int(reply["pages"])
        if reply["op"] == "deny":
            raise SoftMemoryDenied(
                self.pid, pages, int(reply.get("reclaimed", 0))
            )
        raise ConnectionError(f"unexpected reply: {reply!r}")

    def notify_release(self, pages: int) -> None:
        if self._degraded.is_set():
            return  # the local revoke already happened; resync reconciles
        try:
            self._round_trip({"op": "release", "pages": pages})
        except DaemonUnreachable:
            pass  # ditto: the reconnect resync carries the final ledger

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    def _state(self) -> dict[str, int]:
        """Ledger snapshot piggybacked on every client frame."""
        budget = self._sma.budget
        return {
            "held": budget.held,
            "granted": budget.granted,
            "flexibility": self._sma.flexibility(),
            "reclaimable": self._sma.reclaimable_pages(),
            "compressed": getattr(self._sma, "compressed_pages", 0),
        }

    def _send(self, frame: dict[str, Any]) -> None:
        with self._send_lock:
            self._stream.send(frame)

    def _round_trip(self, frame: dict[str, Any]) -> dict[str, Any]:
        """One id-tagged exchange, retried with exponential backoff.

        The same id is reused across retries so the daemon's reply
        cache can answer a retry whose original reply was lost without
        re-executing the operation. Every exit path removes the id from
        both the pending and reply maps — a late reply for a timed-out
        id is dropped by the reader, never stranded.
        """
        retry = self._config.request_retry
        attempts = max(1, retry.attempts)
        request_id = next(_request_ids)
        self.stats.round_trips += 1
        for attempt in range(attempts):
            if self._closed.is_set() or self._degraded.is_set():
                break
            done = threading.Event()
            with self._pending_lock:
                self._pending[request_id] = done
            try:
                self._send({**frame, "id": request_id, **self._state()})
            except (FrameClosed, OSError):
                with self._pending_lock:
                    self._pending.pop(request_id, None)
                    self._replies.pop(request_id, None)
                self._connection_lost(self._stream)
                break
            answered = done.wait(timeout=self._config.request_timeout)
            with self._pending_lock:
                self._pending.pop(request_id, None)
                # the reply may land between the wait timing out and
                # this pop — popping both under one lock closes the race
                reply = self._replies.pop(request_id, None)
            if reply is not None:
                if reply.get("op") == _CONN_LOST_OP:
                    break
                return reply
            if not answered:
                self.stats.timeouts += 1
            if attempt + 1 < attempts:
                self.stats.retries += 1
                time.sleep(retry.delay(attempt))
        if not self._closed.is_set() and not self._degraded.is_set():
            # daemon up but unresponsive past the whole schedule:
            # treat as dead so the monitor starts redialing
            self._connection_lost(self._stream)
        raise DaemonUnreachable(frame.get("op", ""))

    # -- reader --------------------------------------------------------

    def _reader_loop(self, stream: FrameStream) -> None:
        while not self._closed.is_set():
            try:
                frame = stream.recv()
            except (FrameClosed, OSError, ValueError):
                break
            self._last_recv = time.monotonic()
            op = frame.get("op")
            if op == "demand":
                self._serve_demand(frame)
            elif op == "ping":
                try:
                    self._send({"op": "pong", "t": frame.get("t")})
                except (FrameClosed, OSError):
                    break
            elif op == "pong":
                self.stats.pongs_received += 1
            else:
                request_id = frame.get("id")
                with self._pending_lock:
                    event = self._pending.pop(request_id, None)
                    if event is not None:
                        self._replies[request_id] = frame
                    # no waiter: late reply for a timed-out id — drop it
                if event is not None:
                    event.set()
        # a dead daemon is a *transport* event, not a denial: transition
        # to degraded mode and fail waiters with the distinct sentinel
        self._connection_lost(stream)

    def _connection_lost(self, stream: FrameStream | None) -> None:
        """Idempotent transition into degraded mode."""
        with self._transition_lock:
            if self._closed.is_set() or self._degraded.is_set():
                return
            if stream is not None and stream is not self._stream:
                return  # a stale reader outliving a reconnect
            self._degraded.set()
            self._degraded_at = time.monotonic()
            self.stats.degraded_entries += 1
            self._sma.mark_degraded(True)
        try:
            self._stream.close()
        except OSError:
            pass
        with self._pending_lock:
            waiters = list(self._pending.items())
            self._pending.clear()
            for request_id, _event in waiters:
                self._replies[request_id] = {"op": _CONN_LOST_OP}
        for _request_id, event in waiters:
            event.set()

    # -- heartbeat + reconnect (monitor thread) ------------------------

    def _monitor_loop(self) -> None:
        attempt = 0
        while not self._closed.is_set():
            if self._degraded.is_set():
                if self._socket_path is None:  # nowhere to redial
                    if self._closed.wait(0.1):
                        break
                    continue
                if self._closed.wait(
                    self._config.reconnect_backoff.delay(attempt)
                ):
                    break
                attempt += 1
                try:
                    self._reconnect()
                except Exception:
                    continue  # next backoff step
                attempt = 0
            else:
                interval = self._config.heartbeat_interval
                if interval <= 0:
                    if self._closed.wait(0.2):
                        break
                    continue
                if self._closed.wait(interval):
                    break
                if self._closed.is_set() or self._degraded.is_set():
                    continue
                silence = time.monotonic() - self._last_recv
                if (
                    self._config.heartbeat_timeout > 0
                    and silence > self._config.heartbeat_timeout
                ):
                    self._connection_lost(self._stream)
                    continue
                try:
                    self._send({"op": "ping", "t": time.monotonic()})
                    self.stats.pings_sent += 1
                except (FrameClosed, OSError):
                    self._connection_lost(self._stream)

    def _reconnect(self) -> None:
        """Dial, re-register, resync the ledger, leave degraded mode."""
        assert self._socket_path is not None
        stream = self._dial(
            self._socket_path, self._config, self._stream_wrapper
        )
        try:
            welcome = self._handshake(stream, resync=True)
        except Exception:
            stream.close()
            raise
        accepted = int(welcome.get("resync_budget", 0))
        with self._send_lock:
            self._stream = stream
        self.pid = int(welcome["pid"])
        self._demand_cache.clear()  # demand ids restart per connection
        self._last_recv = time.monotonic()
        self._reader = threading.Thread(
            target=self._reader_loop, args=(stream,),
            name=f"sma-agent-{self.name}", daemon=True,
        )
        self._reader.start()
        # Ledger resync: the daemon re-accepted what its free capacity
        # allowed; shed the overdraft locally (budget tier first, so
        # usually zero disturbance), then report the settled ledger so
        # both sides agree even if shedding under-fulfilled.
        overdraft = self._sma.budget.granted - accepted
        if overdraft > 0:
            shed = self._sma.try_reclaim(
                overdraft, timeout=self._config.demand_lock_timeout
            )
            if shed is not None:
                self.stats.resync_pages_shed += shed.pages_reclaimed
        try:
            self._send({"op": "resync", **self._state()})
        except (FrameClosed, OSError):
            stream.close()
            raise
        self.stats.reconnects += 1
        self.stats.degraded_seconds += time.monotonic() - self._degraded_at
        self._sma.mark_degraded(False)
        self._degraded.clear()

    # -- demands -------------------------------------------------------

    def _serve_demand(self, frame: dict[str, Any]) -> None:
        demand_id = frame.get("id")
        cached = self._demand_cache.get(demand_id)
        if cached is not None:
            # duplicate DEMAND (retry or injected): do not reclaim twice
            try:
                self._send(cached)
            except (FrameClosed, OSError):
                pass
            return
        # Bounded lock wait: if our own application thread holds the
        # SMA lock while blocked on a daemon round-trip, stalling here
        # would deadlock the episode against us — report zero instead.
        stats = self._sma.try_reclaim(
            int(frame["pages"]), timeout=self._config.demand_lock_timeout
        )
        if stats is None:
            report = {
                "op": "report", "id": demand_id,
                "pages_reclaimed": 0, "pages_from_budget": 0,
                "pages_from_pool": 0, "pages_from_sds": 0,
                "allocations_freed": 0, "callbacks_invoked": 0,
                "callback_errors": 0, "busy": True,
            }
        else:
            self.demands_served += 1
            report = {
                "op": "report",
                "id": demand_id,
                "pages_reclaimed": stats.pages_reclaimed,
                "pages_from_budget": stats.pages_from_budget,
                "pages_from_pool": stats.pages_from_pool,
                "pages_from_sds": stats.pages_from_sds,
                "allocations_freed": stats.allocations_freed,
                "callbacks_invoked": stats.callbacks_invoked,
                "callback_errors": stats.callback_errors,
                **self._state(),
            }
            self._demand_cache.put(demand_id, report)
        try:
            self._send(report)
        except (FrameClosed, OSError):
            pass  # reader will notice the dead stream on its next recv

    def close(self) -> None:
        if self._closed.is_set():
            return
        self._closed.set()
        if self._degraded.is_set():
            self.stats.degraded_seconds += (
                time.monotonic() - self._degraded_at
            )
        self._stream.close()
        self._reader.join(timeout=5)
        self._monitor.join(timeout=5)
