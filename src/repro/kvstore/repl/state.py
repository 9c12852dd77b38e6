"""Shared replication state: roles, offsets, and the backlog ring.

One :class:`ReplicationState` hangs off ``store.repl`` (``None`` until
replication is engaged, so the standalone hot path pays one attribute
load and a ``None`` check per mutation — the same discipline as
``store.cluster``). It is the single source of truth both roles read:

* **master** — every mutation reaches ``pending`` through the store's
  one tap: as the frame the AOF already encoded (:meth:`log_frame`
  copies it) or, with no AOF logging, encoded here by :meth:`append`
  with the same ``persist/codec.py`` encoder; the event loop drains it
  (right after the AOF group commit, at most once per ``_FEED_EVERY``
  in ``repl/node.py``; at once for a PSYNC cut-in, ``WAIT`` or
  shutdown) into the connected feeds *and* the in-memory backlog ring,
  from which a bounced replica can partial-resync instead of paying a
  full snapshot transfer.
* **replica** — :class:`~repro.kvstore.repl.link.ReplicaLink` appends
  the stream bytes it applies to its *own* backlog ring, which advances
  the same offset, so a promoted replica can serve
  partial resyncs to its ex-siblings from the same stream coordinates
  (psync2-lite: promotion keeps the replication id).

Offsets count stream bytes: ``master_repl_offset`` is the total ever
produced (master) or applied (replica) — derived, as the end of the
backlog window plus what ``pending`` holds, so it cannot disagree with
the bytes. The backlog covers the byte range ``[backlog_off,
backlog_off + backlog_size)``. A partial resync request for ``offset``
is satisfiable iff the replication ids match and that offset falls
inside (or exactly at the end of) the window.

Everything here runs on the owning server's loop thread, a master's
reclamation included: a daemon's DEMAND is served between rounds
(``rpc/agent.py``'s ``LoopAgent``), so its tombstones are logged on
the thread that drains them.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable

from repro.kvstore.persist.codec import (
    deadline_ms,
    encode_write,
    expiry_clause,
)
from repro.kvstore.values import Value

#: default backlog ring capacity (bytes); Redis ships 1 MiB too
DEFAULT_BACKLOG_CAPACITY = 1 * 1024 * 1024


def _new_replid() -> str:
    """A fresh 40-hex replication id (same shape as Redis)."""
    return f"{random.getrandbits(160):040x}"


@dataclass
class ReplicaFeed:
    """Master-side view of one connected replica."""

    addr: str
    ack_offset: int = 0
    last_ack_unix: float = 0.0
    connected: bool = True


class ReplicationState:
    """Roles, the stream offset, and the backlog ring (see module doc)."""

    def __init__(
        self,
        *,
        backlog_capacity: int = DEFAULT_BACKLOG_CAPACITY,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if backlog_capacity <= 0:
            raise ValueError("backlog_capacity must be positive")
        self.role = "master"
        self.replid = _new_replid()
        self.backlog_capacity = backlog_capacity
        self._clock = clock
        #: records encoded since the last :meth:`drain`
        self.pending = bytearray()
        #: the ring: the backlog window is ``_ring[_ring_start:]``, the
        #: stream bytes ``[backlog_off, backlog_off + backlog_size)``
        self._ring = bytearray()
        self._ring_start = 0
        self.backlog_off = 0
        #: flipped by the first PSYNC ever served; until then
        #: :meth:`append` and :meth:`log_frame` are inert, so a server
        #: that never replicates pays nothing beyond the store's check
        self.stream_started = False
        #: master side: one entry per connected replica
        self.feeds: list[ReplicaFeed] = []
        # replica side
        self.master_host: str | None = None
        self.master_port: int | None = None
        self.link_status = "none"  # none|connecting|sync|up|down
        # counters (both roles; INFO # Replication)
        self.sync_full = 0  # full syncs served (master)
        self.sync_partial_ok = 0  # partial resyncs served (master)
        self.sync_partial_err = 0  # partials refused -> full (master)
        self.full_syncs_done = 0  # full syncs completed (replica)
        self.partial_syncs_done = 0  # partial resyncs completed (replica)
        self.reconnects = 0  # link re-dials after a drop (replica)
        self.applied_records = 0  # stream records applied (replica)
        self.apply_denied = 0  # budget-denied applies (future misses)
        self.tombstones_applied = 0  # T records applied (replica)

    # -- role transitions ----------------------------------------------

    def become_replica(self, host: str, port: int) -> None:
        self.role = "replica"
        self.master_host = host
        self.master_port = port
        self.link_status = "connect"
        self.feeds.clear()

    def become_master(self) -> None:
        """REPLICAOF NO ONE: keep replid + offset (psync2-lite), so
        ex-siblings of the same dead master can partial-resync from
        this node's backlog without a replid mismatch."""
        self.role = "master"
        self.master_host = None
        self.master_port = None
        self.link_status = "none"
        # the backlog already holds the applied stream tail in the same
        # coordinates; promotion only changes who produces new bytes
        self.stream_started = True

    def adopt(self, replid: str, offset: int) -> None:
        """Full sync landed: take the master's id and offset; the old
        backlog is in dead coordinates and is discarded."""
        self.replid = replid
        self.pending.clear()
        self._ring.clear()
        self._ring_start = 0
        self.backlog_off = offset

    # -- the stream sink (fed by ``DataStore.log_record``) ---------------

    def append(
        self, encoder, args: tuple, ex: "float | None" = None
    ) -> "bytes | None":
        """``encoder(pending, *args)`` if this node streams; return the
        frame, or ``None``. Runs when the AOF logged nothing; ``ex`` as
        in :meth:`Persistence.append`, on this state's clock."""
        if self.role != "master" or not self.stream_started:
            return None
        if ex is not None:
            args += (deadline_ms(self._clock(), ex),)
        return encoder(self.pending, *args)

    def log_frame(self, frame: "bytes | memoryview") -> None:
        """Append a frame the AOF already encoded, if this node streams:
        a record is encoded once, and the stream carries the AOF's bytes,
        an absolute deadline included. Same gate as :meth:`append`."""
        if self.role != "master" or not self.stream_started:
            return
        self.pending += frame

    def log_write(
        self,
        key: bytes,
        value: Value,
        ex_relative: "float | None",
        keep_ttl: bool,
    ) -> None:
        """One W through :meth:`append`. Nothing in ``src/`` calls it:
        ``benchmarks/e2e/ledger.py`` times it by name, and ROADMAP 1(a)
        retires it."""
        clause = expiry_clause(ex_relative, keep_ttl)
        self.append(encode_write, (key, value, clause), ex_relative)

    # -- the backlog ring ----------------------------------------------

    @property
    def backlog_size(self) -> int:
        return len(self._ring) - self._ring_start

    @property
    def master_repl_offset(self) -> int:
        """Total stream bytes produced (master) / applied (replica)."""
        return self.backlog_off + self.backlog_size + len(self.pending)

    def _append_backlog(self, data: bytes | memoryview) -> None:
        """Append, keeping the window at the last ``capacity`` bytes.

        Overflow only advances the window's start; the dead prefix is
        cut once it is as large as the window itself, so a full ring
        pays one memmove per ``capacity`` bytes appended instead of one
        per round.
        """
        ring = self._ring
        ring += data
        overflow = self.backlog_size - self.backlog_capacity
        if overflow > 0:
            self._ring_start += overflow
            self.backlog_off += overflow
            if self._ring_start >= self.backlog_capacity:
                del ring[:self._ring_start]
                self._ring_start = 0

    def drain(self) -> bytes:
        """Move ``pending`` into the backlog; return it for the feeds."""
        if not self.pending:
            return b""
        data = bytes(self.pending)
        self.pending.clear()
        self._append_backlog(data)
        return data

    def note_applied(self, raw: bytes | memoryview, records: int) -> None:
        """Replica side: ``raw`` stream bytes were applied verbatim."""
        self._append_backlog(raw)
        self.applied_records += records

    def can_partial(self, replid: str, offset: int) -> bool:
        """May a replica at ``offset`` resume from the backlog?"""
        if replid != self.replid or offset < 0:
            return False
        return (
            self.backlog_off
            <= offset
            <= self.backlog_off + self.backlog_size
        )

    def backlog_since(self, offset: int) -> bytes:
        """The stream tail from ``offset`` (caller checked the range)."""
        return bytes(self._ring[self._ring_start + offset - self.backlog_off:])

    # -- feed registry (master) ----------------------------------------

    def register_feed(self, addr: str, ack_offset: int) -> ReplicaFeed:
        feed = ReplicaFeed(
            addr=addr, ack_offset=ack_offset, last_ack_unix=self._clock()
        )
        self.feeds.append(feed)
        return feed

    def drop_feed(self, feed: ReplicaFeed) -> None:
        feed.connected = False
        try:
            self.feeds.remove(feed)
        except ValueError:
            pass

    def note_ack(self, feed: ReplicaFeed, offset: int) -> None:
        if offset > feed.ack_offset:
            feed.ack_offset = offset
        feed.last_ack_unix = self._clock()

    def acked_by(self, offset: int) -> int:
        """How many connected replicas acked at least ``offset``."""
        return sum(1 for feed in self.feeds if feed.ack_offset >= offset)

    # -- INFO # Replication --------------------------------------------

    def info_lines(self) -> list[str]:
        lines = [
            f"role:{self.role}",
            f"replid:{self.replid}",
            f"master_repl_offset:{self.master_repl_offset}",
            f"repl_backlog_size:{self.backlog_size}",
            f"repl_backlog_capacity:{self.backlog_capacity}",
            f"repl_backlog_first_byte_offset:{self.backlog_off}",
        ]
        if self.role == "master":
            lines += [
                f"connected_replicas:{len(self.feeds)}",
                f"sync_full:{self.sync_full}",
                f"sync_partial_ok:{self.sync_partial_ok}",
                f"sync_partial_err:{self.sync_partial_err}",
            ]
            for i, feed in enumerate(self.feeds):
                lag = self.master_repl_offset - feed.ack_offset
                lines.append(
                    f"replica{i}:addr={feed.addr},"
                    f"ack_offset={feed.ack_offset},lag={lag}"
                )
        else:
            lines += [
                f"master_host:{self.master_host}",
                f"master_port:{self.master_port}",
                f"master_link_status:{self.link_status}",
                f"full_syncs_done:{self.full_syncs_done}",
                f"partial_syncs_done:{self.partial_syncs_done}",
                f"reconnects:{self.reconnects}",
                f"applied_records:{self.applied_records}",
                f"apply_denied:{self.apply_denied}",
                f"tombstones_applied:{self.tombstones_applied}",
            ]
        return lines

    def __repr__(self) -> str:
        return (
            f"<ReplicationState {self.role} replid={self.replid[:8]}... "
            f"offset={self.master_repl_offset} feeds={len(self.feeds)}>"
        )
