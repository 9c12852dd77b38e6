"""Client-process side of the cross-process protocol.

The :class:`SmaAgent` plugs into an SMA as its daemon client: budget
requests and releases become socket round-trips, and an incoming
DEMAND runs the SMA's reclamation and sends back the REPORT.

One event-driven core speaks the protocol: :meth:`~SmaAgent.fileno`,
:meth:`~SmaAgent.on_readable` (every whole frame one read delivers) and
:meth:`~SmaAgent.tick` (heartbeat, silence, redial; it returns the
seconds until it is next due). :class:`SmaAgent` drives it from one
thread of its own; a kv process's event loop drives a
:class:`LoopAgent`, so a DEMAND reaches the store on its one thread.

Fault tolerance (see ``docs/PROTOCOL.md``): round-trips retry with
exponential backoff under :class:`~repro.rpc.config.RpcConfig`, and
the daemon deduplicates by frame id, so a retry whose original was
processed gets the cached reply, never a double grant. PINGs go out
every ``heartbeat_interval``; ``heartbeat_timeout`` of silence, like
any transport failure, flips the SMA into *degraded mode* — asks fail
fast with :class:`~repro.core.errors.SoftMemoryDegraded` (a
``SoftMemoryDenied``), existing soft memory stays usable — and the
core redials: it sends HELLO without waiting, and the WELCOME a later
read picks up re-registers and resyncs the budget ledger.

Locking note: the daemon stops demanding from a client once its
REQUEST arrives (it advertises zero ``reclaimable`` while busy), but a
DEMAND sent before that still lands mid-ask. :class:`SmaAgent` waits
``demand_lock_timeout`` at most for the SMA's lock, which the asking
thread holds, then reports zero pages; :class:`LoopAgent` reports zero
pages at once.
"""

from __future__ import annotations

import dataclasses
import itertools
import select
import socket
import threading
import time
from typing import Any, Callable

from repro.core.errors import (
    DaemonUnreachable,
    SoftMemoryDegraded,
    SoftMemoryDenied,
)
from repro.core.reclaim import ReclamationStats
from repro.core.sma import SoftMemoryAllocator
from repro.rpc.config import DEFAULT_RPC_CONFIG, ReplyCache, RpcConfig
from repro.rpc.framing import FrameClosed, FrameStream

_request_ids = itertools.count(1)

#: sentinel reply installed for waiters when the connection dies
_CONN_LOST_OP = "__connection_lost__"

#: seconds :meth:`SmaAgent.tick` reports when no timer runs (heartbeats
#: off, or degraded with nowhere to redial)
_IDLE = 3600.0

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
    """Connects one process's SMA to a remote daemon, on one thread.

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
        sma: SoftMemoryAllocator,
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
        self._handshaking = False  # a redial's HELLO awaits its WELCOME
        self._attempt = 0  # redials since the connection was lost
        self._due = 0.0  # monotonic time :meth:`tick` acts next
        self._last_recv = time.monotonic()
        self._demand_cache = ReplyCache(32)
        self.stats = AgentStats()
        self.demands_served = 0

        # the first handshake blocks, bounded by the connect timeout
        stream.send(self._hello(resync=False))
        welcome = stream.recv()
        if welcome.get("op") != "welcome":
            raise ConnectionError(f"bad handshake reply: {welcome!r}")
        # liveness is the heartbeat's job from here on, so an
        # idle-but-healthy connection must never time out a read
        stream.settimeout(None)
        self.pid = int(welcome["pid"])
        sma.connect_daemon(self)  # must precede any budget changes
        startup = int(welcome.get("startup_budget", 0))
        if startup:
            sma.budget.grant(startup)
        self._monitor = self._start()

    @classmethod
    def connect(
        cls,
        socket_path: str,
        sma: SoftMemoryAllocator,
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

    def _hello(self, *, resync: bool) -> dict[str, Any]:
        return {
            "op": "hello", "name": self.name, "resync": resync,
            "traditional_pages": self.traditional_pages, **self._state(),
        }

    # -- the driver (overridden by LoopAgent) -------------------------

    def _start(self) -> threading.Thread | None:
        thread = threading.Thread(
            target=self._drive, name=f"sma-agent-{self.name}", daemon=True
        )
        thread.start()
        return thread

    def _drive(self) -> None:
        """The one thread: the core's timers, and its reads."""
        while not self._closed.is_set():
            timeout = self.tick()
            fd = self.fileno()
            if fd < 0:  # degraded: nothing to read until a redial
                self._closed.wait(timeout)
                continue
            waiter = select.poll()
            waiter.register(fd, select.POLLIN)
            if waiter.poll(timeout * 1000):  # close() wakes it: shutdown
                self.on_readable()

    def _reclaim(self, pages: int) -> ReclamationStats | None:
        # Bounded lock wait: if an application thread holds the SMA
        # lock while blocked on a daemon round-trip, stalling here
        # would deadlock the episode against us — report zero instead.
        return self._sma.try_reclaim(
            pages, timeout=self._config.demand_lock_timeout
        )

    def _await(self, done: threading.Event) -> bool:
        return done.wait(timeout=self._config.request_timeout)

    # ------------------------------------------------------------------
    # DaemonClient protocol (called by the SMA)
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

    def _send_or_lose(self, frame: dict[str, Any]) -> None:
        stream = self._stream
        try:
            self._send(frame)
        except (FrameClosed, OSError):
            self._connection_lost(stream)

    def _round_trip(self, frame: dict[str, Any]) -> dict[str, Any]:
        """One id-tagged exchange, retried with exponential backoff.

        The same id is reused across retries so the daemon's reply
        cache can answer a retry whose original reply was lost without
        re-executing the operation. Every exit path removes the id from
        both the pending and reply maps — a late reply for a timed-out
        id is dropped on arrival, never stranded.
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
            answered = self._await(done)
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
            # treat as dead so the core starts redialing
            self._connection_lost(self._stream)
        raise DaemonUnreachable(frame.get("op", ""))

    # -- the core ------------------------------------------------------

    def fileno(self) -> int:
        """The daemon socket's number; -1 while there is none."""
        return self._stream.fileno()

    def on_readable(self) -> None:
        """Handle every whole frame one read of the socket delivers."""
        stream = self._stream
        try:
            frames = stream.recv_ready()
        except (FrameClosed, OSError, ValueError):
            # a dead daemon is a *transport* event, not a denial
            self._connection_lost(stream)
            return
        if frames:
            self._last_recv = time.monotonic()
        for frame in frames:
            op = frame.get("op")
            if op == "demand":
                self._serve_demand(frame)
            elif op == "ping":
                self._send_or_lose({"op": "pong", "t": frame.get("t")})
            elif op == "pong":
                self.stats.pongs_received += 1
            elif op == "welcome":
                self._resync(frame)
            else:
                request_id = frame.get("id")
                with self._pending_lock:
                    event = self._pending.pop(request_id, None)
                    if event is not None:
                        self._replies[request_id] = frame
                    # no waiter: late reply for a timed-out id — drop it
                if event is not None:
                    event.set()

    def tick(self) -> float:
        """Run the timer if it is due; seconds until it is due again.

        Connected, the timer is the heartbeat: silence past
        ``heartbeat_timeout`` loses the connection, else a PING goes
        out. Degraded, it is the redial, or the give-up on a redial
        whose WELCOME never came.
        """
        now = time.monotonic()
        if now < self._due:  # the common case: a kv loop asks every round
            return self._due - now
        if self._closed.is_set():
            return _IDLE
        config = self._config
        if self._handshaking:
            self._connection_lost(self._stream)
        elif self._degraded.is_set():
            if self._socket_path is None:  # nowhere to redial
                self._due = now + _IDLE
            else:
                self._redial(now)
        elif config.heartbeat_interval <= 0:
            self._due = now + _IDLE
        else:
            self._due = now + config.heartbeat_interval
            silence = now - self._last_recv
            if 0 < config.heartbeat_timeout < silence:
                self._connection_lost(self._stream)
            else:
                self.stats.pings_sent += 1
                self._send_or_lose({"op": "ping", "t": now})
        return max(0.0, self._due - now)

    def _connection_lost(self, stream: FrameStream) -> None:
        """Idempotent transition into degraded mode (or, for a redial's
        stream, the end of that attempt); schedules the next redial."""
        with self._transition_lock:
            if self._closed.is_set() or stream is not self._stream:
                return  # closed, or a stale stream outliving a reconnect
            if self._degraded.is_set() and not self._handshaking:
                return
            now = time.monotonic()
            if not self._degraded.is_set():
                self._degraded.set()
                self._degraded_at = now
                self.stats.degraded_entries += 1
                self._sma.mark_degraded(True)
                self._attempt = 0
            self._handshaking = False
            self._due = now + self._config.reconnect_backoff.delay(
                self._attempt
            )
        try:
            stream.close()
        except OSError:
            pass
        with self._pending_lock:
            waiters = list(self._pending.items())
            self._pending.clear()
            for request_id, _event in waiters:
                self._replies[request_id] = {"op": _CONN_LOST_OP}
        for _request_id, event in waiters:
            event.set()

    def _redial(self, now: float) -> None:
        """Dial without waiting and send HELLO; :meth:`_resync` runs
        when the WELCOME is read, :meth:`tick` gives up if it is not."""
        self._attempt += 1
        self._due = now + self._config.reconnect_backoff.delay(self._attempt)
        assert self._socket_path is not None
        try:
            stream = self._dial(  # a unix connect is queued or refused
                self._socket_path,
                dataclasses.replace(self._config, connect_timeout=0.0),
                self._stream_wrapper,
            )
        except OSError:
            return  # next backoff step
        self._stream, self._handshaking = stream, True
        self._due = now + self._config.connect_timeout
        self._send_or_lose(self._hello(resync=True))

    def _resync(self, welcome: dict[str, Any]) -> None:
        """Re-register, resync the ledger, leave degraded mode."""
        if not self._handshaking:
            return
        stream = self._stream
        stream.settimeout(None)
        self.pid = int(welcome["pid"])
        self._demand_cache.clear()  # demand ids restart per connection
        # Ledger resync: the daemon re-accepted what its free capacity
        # allowed; shed the overdraft locally (budget tier first, so
        # usually zero disturbance), then report the settled ledger so
        # both sides agree even if shedding under-fulfilled.
        overdraft = self._sma.budget.granted - int(
            welcome.get("resync_budget", 0)
        )
        if overdraft > 0:
            shed = self._reclaim(overdraft)
            if shed is not None:
                self.stats.resync_pages_shed += shed.pages_reclaimed
        try:
            self._send({"op": "resync", **self._state()})
        except (FrameClosed, OSError):
            self._connection_lost(stream)
            return
        now = time.monotonic()
        self.stats.reconnects += 1
        self.stats.degraded_seconds += now - self._degraded_at
        self._handshaking, self._attempt = False, 0
        self._last_recv = self._due = now
        self._sma.mark_degraded(False)
        self._degraded.clear()

    # -- demands -------------------------------------------------------

    def _serve_demand(self, frame: dict[str, Any]) -> None:
        demand_id = frame.get("id")
        report = self._demand_cache.get(demand_id)
        if report is None:
            stats = self._reclaim(int(frame["pages"]))
            served = stats is not None
            if not served:  # the SMA is mid-ask: nothing to give
                stats = ReclamationStats()
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
                **(self._state() if served else {"busy": True}),
            }
            if served:  # a duplicate DEMAND must not reclaim twice
                self.demands_served += 1
                self._demand_cache.put(demand_id, report)
        self._send_or_lose(report)

    def close(self) -> None:
        if self._closed.is_set():
            return
        self._closed.set()
        if self._degraded.is_set():
            self.stats.degraded_seconds += (
                time.monotonic() - self._degraded_at
            )
        self._stream.close()
        if self._monitor is not None:
            self._monitor.join(timeout=5)


class LoopAgent(SmaAgent):
    """An agent its tenant's event loop drives: no thread of its own.

    The loop polls :meth:`fileno`, calls :meth:`on_readable` when it is
    readable and :meth:`tick` once a round, so a DEMAND is served
    between rounds through the plain SMA's ``reclaim``. A REQUEST or
    RELEASE reads its own reply, answering PINGs meanwhile and a DEMAND
    with zero pages: mid-ask the SMA has already sized what it misses
    and holds pool pages in a local list, so it is not re-entered.
    """

    _asking = False

    def _start(self) -> None:
        return None

    def _reclaim(self, pages: int) -> ReclamationStats | None:
        return None if self._asking else self._sma.reclaim(pages)

    def _await(self, done: threading.Event) -> bool:
        deadline = time.monotonic() + self._config.request_timeout
        waiter = select.poll()
        waiter.register(self.fileno(), select.POLLIN)
        self._asking = True
        try:
            while not done.is_set() and (
                left := deadline - time.monotonic()
            ) > 0:
                if waiter.poll(left * 1000):
                    self.on_readable()
        finally:
            self._asking = False
        return done.is_set()
