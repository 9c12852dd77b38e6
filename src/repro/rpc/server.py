"""Daemon-process side of the cross-process protocol.

Wraps a real :class:`~repro.daemon.smd.SoftMemoryDaemon` behind a unix
domain socket. Each client process appears in the daemon's registry as
a :class:`_RemoteSma` proxy whose ledgers are refreshed from the state
snapshot piggybacked on every client frame.

One thread serves every client, polling the listener, a waker and every
client socket. Each round has a *read step*, which reads every ready
socket (a PING gets its PONG, a REPORT goes to the episode parked on it
or is dropped, the sender of a REQUEST or RELEASE is marked busy, every
other frame is queued), and an *execute step*, which runs the queued
frames in arrival order. A REQUEST's episode (``request_steps``) parks
on each DEMAND and resumes when the REPORT is read, the victim closes or
``demand_timeout`` passes; meanwhile the execute step pauses, so
episodes serialize on the one capacity ledger unlocked.

Fault tolerance (see ``docs/PROTOCOL.md``):

* requests and releases are idempotent per frame id — a retried or
  duplicated frame gets the cached reply, never a second grant;
* a client that pinged once and then went silent past
  ``heartbeat_timeout`` is reaped by a check every round;
* sockets never block: a client that cannot take a whole frame is
  dropped, and so is the sender of a frame whose fields do not fit its
  op (after an ``error`` reply; for a bad REPORT that is the victim);
* a reconnecting client sends ``hello`` with ``resync``: the daemon
  re-adopts as much of its still-held budget as free capacity allows
  and the follow-up ``resync`` frame settles the final ledger.

Liveness: a client with an in-flight request advertises zero
reclaimable pages, so episodes skip it once the read step has seen that
request; a demand sent just before it lands mid-ask, and the client
answers it with zero pages. A dropped client's socket closes at once,
resuming any episode parked on it, and its deregistration queues behind
the frames already queued, so an episode never sees the registry change
under it. Its budget returns to the unassigned pool (its memory died
with it, which is exactly the kill semantics the paper describes).
"""

from __future__ import annotations

import contextlib
import itertools
import os
import select
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Generator

from repro.core.errors import ProtocolError, SoftMemoryDenied
from repro.core.reclaim import ReclamationStats
from repro.daemon.ipc import Channel
from repro.daemon.registry import ProcessRecord
from repro.daemon.smd import SmdConfig, SoftMemoryDaemon, Steps
from repro.rpc.config import DEFAULT_RPC_CONFIG, ReplyCache, RpcConfig
from repro.rpc.framing import FrameClosed, FrameStream
from repro.util.eventlog import EventLog

#: events the hosted daemon's log keeps: it records every request, grant
#: and demand for the life of the machine's one daemon process
EVENT_LOG_BOUND = 4096

#: what reading a frame whose fields do not fit its op raises
_BAD_FRAME = (KeyError, TypeError, ValueError, ProtocolError)

#: the REPORT fields an episode counts
_REPORTED = ("pages_from_budget", "pages_from_pool", "pages_from_sds",
             "allocations_freed", "callbacks_invoked", "callback_errors")


def _count(frame: dict[str, Any], key: str, default: int | None = None) -> int:
    """Field ``key`` of ``frame`` as a page count: a non-negative int
    (``KeyError`` when it is missing and there is no default)."""
    value = frame[key] if default is None else frame.get(key, default)
    if type(value) is not int or value < 0:
        raise ValueError(f"{key} is not a page count: {value!r}")
    return value


class _RemoteSma:
    """Stands in for the client's SMA inside the daemon's registry."""

    def __init__(self, connection: "_Connection") -> None:
        self.connection = connection
        #: daemon-side mirror of the client's budget ledger
        self.budget = SimpleNamespace(held=0, granted=0)
        self._flexibility = 0
        self._reclaimable = 0
        self.compressed_pages = 0
        #: a client with an in-flight request must not receive demands
        self.busy = False

    def update_state(self, frame: dict[str, Any]) -> None:
        self.budget.held = _count(frame, "held", self.budget.held)
        self.budget.granted = _count(frame, "granted", self.budget.granted)
        self._flexibility = _count(frame, "flexibility", self._flexibility)
        self._reclaimable = _count(frame, "reclaimable", self._reclaimable)
        self.compressed_pages = _count(
            frame, "compressed", self.compressed_pages
        )

    def flexibility(self) -> int:
        return 0 if self.busy else self._flexibility

    def reclaimable_pages(self) -> int:
        return 0 if self.busy else self._reclaimable


class _Connection:
    """One client process's socket, served by the daemon's loop."""

    def __init__(self, server: "RpcDaemonServer", sock: socket.socket) -> None:
        sock.setblocking(False)
        self.server = server
        self.stream = FrameStream(sock)
        self.fd = sock.fileno()
        self.proxy = _RemoteSma(self)
        self.record: ProcessRecord | None = None
        self.demand_ids = itertools.count(1)
        self.reply_cache = ReplyCache(64)
        self.last_recv = time.monotonic()
        self.saw_ping = False
        self.closed = False

    def send(self, frame: dict[str, Any]) -> None:
        """Send one whole frame; a client that cannot take it is dropped."""
        if self.closed:
            return
        try:
            self.stream.send(frame)
        except OSError:  # BlockingIOError too: the client stopped reading
            self.server._drop(self)

    def reply(self, request_id: Any, frame: dict[str, Any]) -> None:
        """Send a reply and remember it for duplicate-id resends."""
        if request_id is not None:
            self.reply_cache.put(request_id, frame)
        self.send(frame)

    def fail(self, frame: dict[str, Any], exc: Exception) -> None:
        """Answer a frame whose fields do not fit its op; drop its sender."""
        self.send({"op": "error", "id": frame.get("id"),
                   "message": f"bad {frame.get('op')!r} frame: {exc}"})
        self.server._drop(self)


@dataclass
class _Parked:
    """A REQUEST's episode, parked on the DEMAND it sent ``victim``."""

    episode: Generator[tuple[_Connection, int], dict | None, None]
    victim: _Connection
    demand_id: int
    deadline: float
    report: dict[str, Any] | None = None

    def left(self) -> float:
        """Seconds until it resumes (on the REPORT, a close or a timeout)."""
        done = self.report is not None or self.victim.closed
        return 0.0 if done else max(0.0, self.deadline - time.monotonic())


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
        #: fd -> live connection
        self._conns: dict[int, _Connection] = {}
        #: the execute step's frames in arrival order; a ``None`` frame
        #: deregisters its connection
        self._queued: deque[tuple[_Connection, dict | None]] = deque()
        self._parked: _Parked | None = None  # the execute step waits on it
        self._stopping = False
        self.clients_reaped = 0
        if os.path.exists(socket_path):
            os.unlink(socket_path)
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._listener.bind(socket_path)
        self._listener.listen(16)
        self._listener.setblocking(False)
        # waker: stop() ends a poll that may wait without a timeout
        self._waker_r, self._waker_w = socket.socketpair()
        self._poller = select.poll()
        for sock in (self._listener, self._waker_r):
            self._poller.register(sock.fileno(), select.POLLIN)
        self._thread: threading.Thread | None = None

    def start(self) -> "RpcDaemonServer":
        self._thread = threading.Thread(
            target=self._loop, name="smd-loop", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stopping = True
        if self._thread is not None:
            with contextlib.suppress(OSError):
                self._waker_w.send(b"\0")
            self._thread.join(timeout=5)
        self._listener.close()
        for connection in self.connections():
            connection.stream.close()
        self._waker_r.close()
        self._waker_w.close()
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)

    def __enter__(self) -> "RpcDaemonServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def connections(self) -> list[_Connection]:
        return list(self._conns.values())

    # -- the loop ------------------------------------------------------

    def _loop(self) -> None:
        queued = self._queued
        while not self._stopping:
            wait, parked = self._reap(), self._parked
            if parked is not None:  # the reaper may have closed its victim
                left = parked.left()
                wait = left if wait is None else min(wait, left)
            elif queued:  # e.g. a reaped client's deregistration
                wait = 0
            for fd, __ in self._poller.poll(  # the read step
                None if wait is None else wait * 1000
            ):
                connection = self._conns.get(fd)
                if connection is not None:
                    self._read(connection)
                elif fd == self._listener.fileno():
                    self._accept()
                else:  # the waker: the loop's ``while`` sees ``_stopping``
                    self._waker_r.recv(64)
            if parked is not None and not parked.left():
                self._parked = None
                self._resume(parked.episode, parked.report)
            # the execute step: frames read while an episode is parked
            # run after the frame whose episode sent the DEMAND
            while queued and self._parked is None and not self._stopping:
                connection, frame = queued.popleft()
                if frame is None:
                    self.disconnect(connection)
                elif not connection.closed:
                    self.handle_frame(connection, frame)
                    op = frame.get("op")
                    if self._parked is None and op in ("request", "release"):
                        connection.proxy.busy = False

    def _accept(self) -> None:
        while True:
            try:
                sock, __ = self._listener.accept()
            except OSError:  # nothing (more) to accept
                return
            # listed before its first frame is read
            connection = _Connection(self, sock)
            self._conns[connection.fd] = connection
            self._poller.register(connection.fd, select.POLLIN)

    def _read(self, connection: _Connection) -> None:
        try:
            frames = connection.stream.recv_ready()
        except (FrameClosed, OSError, ValueError):
            self._drop(connection)
            return
        if frames:
            connection.last_recv = time.monotonic()
        for frame in frames:
            if connection.closed:  # e.g. it could not take a PONG
                return
            op = frame.get("op")
            if op == "ping":
                connection.saw_ping = True
                connection.send({"op": "pong", "t": frame.get("t")})
            elif op == "report":
                # no episode is parked on it (it timed out): drop it
                parked = self._parked
                if parked is not None and parked.victim is connection and (
                    frame.get("id") == parked.demand_id
                ):
                    parked.report = frame
            elif op != "pong":  # a PONG already refreshed last_recv
                if op in ("request", "release"):
                    # the client's app thread blocks (holding its SMA
                    # lock) for both ops; make that visible to episodes
                    # at once so they never demand from a blocked client
                    connection.proxy.busy = True
                self._queued.append((connection, frame))

    def _reap(self) -> float | None:
        """Drop clients that pinged once and then went silent past
        ``heartbeat_timeout``; the seconds until the next one could be
        due (None: none can)."""
        timeout = self.rpc_config.heartbeat_timeout
        if timeout <= 0:
            return None
        now, due = time.monotonic(), None
        for connection in self.connections():
            if not connection.saw_ping:
                continue  # client never opted into heartbeats
            left = connection.last_recv + timeout - now
            if left < 0:
                self.clients_reaped += 1
                self._drop(connection)
            elif due is None or left < due:
                due = left
        return due

    def _drop(self, connection: _Connection) -> None:
        """Close a client's socket now; deregister it behind the frames
        already queued."""
        if connection.closed:
            return
        connection.closed = True
        del self._conns[connection.fd]
        self._poller.unregister(connection.fd)  # before the fd is freed
        connection.stream.close()
        self._queued.append((connection, None))

    # -- frame handling (the execute step) ------------------------------

    def handle_frame(self, connection: _Connection, frame: dict) -> None:
        op = frame.get("op")
        try:
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
        except _BAD_FRAME as exc:
            connection.fail(frame, exc)

    def _handle_hello(self, connection: _Connection, frame: dict) -> None:
        if connection.record is not None:
            raise ProtocolError("a second hello on one connection")
        resync = bool(frame.get("resync"))
        claim = _count(frame, "granted", 0) if resync else 0
        record = ProcessRecord(
            name=str(frame.get("name", "client")),
            sma=connection.proxy,  # type: ignore[arg-type]
            channel=Channel(),
            traditional_pages=_count(frame, "traditional_pages", 0),
        )
        self.smd.registry.add(record)
        # a resync's adoption may have left the pool oversubscribed
        unassigned = max(0, self.smd.unassigned_pages)
        startup = accepted = 0
        if resync:
            # re-adopt what free capacity allows; the client sheds any
            # overdraft and settles with a follow-up resync frame
            accepted = min(claim, unassigned)
            record.resyncs += 1
        else:
            startup = min(self.smd.config.startup_budget_pages, unassigned)
        record.granted_pages += startup + accepted
        self.smd.pages_granted += startup + accepted
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
        request_id, pages = frame["id"], _count(frame, "pages")
        steps = self.smd.request_steps(record.pid, pages)
        self._resume(self._episode(steps, connection, request_id))

    def _resume(self, episode: Generator, report: dict | None = None) -> None:
        """Run ``episode`` on to its next DEMAND, parked, or to its end."""
        with contextlib.suppress(StopIteration):
            victim, demand_id = episode.send(report)
            deadline = time.monotonic() + self.rpc_config.demand_timeout
            self._parked = _Parked(episode, victim, demand_id, deadline)

    def _episode(self, steps: Steps, requester: _Connection, request_id: Any):
        """A REQUEST's episode: it yields each DEMAND's victim and id, is
        sent its REPORT (None: none came) and ends in the reply."""
        stats = None
        try:
            while True:
                record, pages = steps.send(stats)
                stats = ReclamationStats(demanded_pages=pages)
                # busy since target selection: skip rather than demand
                # from a client whose app thread is blocked on us
                if record.sma.busy:
                    continue
                victim = record.sma.connection
                demand_id = next(victim.demand_ids)
                victim.send({"op": "demand", "id": demand_id, "pages": pages})
                report = None if victim.closed else (yield victim, demand_id)
                if report is None:  # nothing surrendered
                    continue
                try:
                    counted = ReclamationStats(pages, **{
                        key: _count(report, key, 0) for key in _REPORTED
                    })
                    grant = victim.record.granted_pages
                    if counted.pages_reclaimed > grant:
                        raise ProtocolError(f"surrendered over {grant} pages")
                    victim.proxy.update_state(report)
                    stats = counted
                except _BAD_FRAME as exc:  # the victim's fault: drop it
                    victim.fail(report, exc)
        except StopIteration as done:
            reply = {"op": "grant", "id": request_id, "pages": done.value}
        except SoftMemoryDenied as exc:
            reply = {"op": "deny", "id": request_id,
                     "reclaimed": exc.reclaimed}
        requester.reply(request_id, reply)
        requester.proxy.busy = False

    def _handle_release(self, connection: _Connection, frame: dict) -> None:
        record = connection.record
        if record is None:
            return
        self.smd.handle_release(record.pid, _count(frame, "pages"))
        connection.reply(frame["id"], {"op": "ok", "id": frame["id"]})

    def _handle_resync(self, connection: _Connection, frame: dict) -> None:
        """Adopt a reconnected client's settled ledger wholesale."""
        record = connection.record
        if record is None:
            return
        self.smd.adopt_granted(record.pid, _count(frame, "granted", 0))

    def disconnect(self, connection: _Connection) -> None:
        """Client went away: its budget returns to the pool."""
        record, connection.record = connection.record, None
        if record is not None:
            with contextlib.suppress(KeyError):
                self.smd.deregister(record.pid)
