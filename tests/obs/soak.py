"""Deterministic soak harness: mixed traffic + faults, invariants after
every phase.

The harness wires the full machine the observability plane spans — an
in-process SMD arbitrating tight soft capacity, the kvstore's SMA, an
antagonist SMA whose allocations force real reclamation episodes
against the keyspace, and an :class:`TcpKvServer` over live
TCP — then drives seeded traffic phases through a counting client:

* ``fill``     — pipelined SETs sized to consume soft capacity;
* ``churn``    — a seeded mix of GET/SET/DEL/INCR/HSET/LPUSH/EXPIRE;
* ``pressure`` — the antagonist allocates until the daemon reclaims
  keyspace entries (reclaimed keys, over-reclaim, trace events);
* ``tier``     — (with ``tier=True``) a ``MEMORY PURGE`` wave demotes
  entries into the compressed second-chance tier, reads of a sample
  are served from their stubs, and a deeper wave forces second-chance
  drops;
* ``degraded`` — the store's SMA is marked degraded mid-traffic, so
  writes needing budget surface as OOM error replies, not crashes;
* ``poison``   — malformed RESP frames on throwaway connections.

After every phase :meth:`SoakHarness.check_invariants` asserts the
cross-layer contract the metrics exist to certify:

1. both SMAs' internal ledgers are consistent (``check_invariants``);
2. daemon and client budget ledgers agree per process;
3. SMD conservation — ``assigned == granted − released − reclaimed −
   forfeited`` — holds exactly across grants, reclamation, resyncs
   (with the tier on, compressed entries sit in those ledgers at
   compressed size, and the identity must stay exact anyway);
8. tier conservation — ``demotions == promotions +
   second_chance_drops + displacements + compressed_entries`` — every
   demoted entry is accounted for, in every phase;
4. the command counter equals the sum of all per-command histogram
   counts (every command observed exactly once);
5. no monotonic series ever decreases between checks;
6. INFO-over-TCP reports exactly the commands this client sent;
7. (with ``data_dir``) INFO Persistence matches the on-disk log
   byte-for-byte: after a forced flush ``aof_size`` equals
   ``os.path.getsize`` of the live log, pending bytes are zero, and
   no write or fsync errors accumulated.

Everything is seeded and in-process (the daemon runs without real RPC)
so a failure replays identically.
"""

from __future__ import annotations

import os
import random
import socket

from repro.core.errors import SoftMemoryDenied
from repro.core.locking import LockedSoftMemoryAllocator
from repro.daemon.policy import SelectionConfig
from repro.daemon.smd import SmdConfig, SoftMemoryDaemon
from repro.kvstore.persist.engine import Persistence, PersistenceConfig
from repro.kvstore.resp import (
    PIPELINE_MORE,
    ProtocolError,
    RespError,
    RespParser,
)
from repro.kvstore import TcpKvClient, TcpKvServer
from repro.kvstore.store import DataStore, StoreConfig
from repro.kvstore.tier import TierConfig
from repro.kvstore.values import CompressedValue
from repro.obs.plane import bind_smd
from repro.util.units import PAGE_SIZE


class CountingClient:
    """A :class:`TcpKvClient` that counts what it sends and receives.

    ``commands_sent`` counts valid dispatched commands; the server's
    ``commands_processed`` must match it exactly (invariant 6).
    """

    def __init__(self, address: tuple[str, int]) -> None:
        self._client = TcpKvClient(address, timeout=30.0)
        self.commands_sent = 0
        self.replies = 0
        self.error_replies = 0

    def execute(self, *args: object) -> object:
        self.commands_sent += 1
        reply = self._client.execute(*args)
        self.replies += 1
        return reply

    def execute_quiet(self, *args: object) -> object:
        """Like execute but error replies are returned, not raised."""
        self.commands_sent += 1
        try:
            reply = self._client.execute(*args)
        except RespError as exc:
            self.replies += 1
            self.error_replies += 1
            return exc
        self.replies += 1
        return reply

    def pipeline(self, *commands: tuple) -> list[object]:
        self.commands_sent += len(commands)
        replies = self._client.execute_pipeline(*commands)
        self.replies += len(replies)
        self.error_replies += sum(
            1 for r in replies if isinstance(r, RespError)
        )
        return replies

    def close(self) -> None:
        self._client.close()


class SoakHarness:
    """One self-contained machine under observability soak."""

    def __init__(
        self,
        *,
        seed: int = 0,
        capacity_pages: int = 192,
        startup_budget_pages: int = 16,
        data_dir: str | None = None,
        tier: bool = False,
    ) -> None:
        self.rng = random.Random(seed)
        self.smd = SoftMemoryDaemon(
            capacity_pages,
            SmdConfig(
                selection=SelectionConfig(target_cap=3),
                startup_budget_pages=startup_budget_pages,
            ),
        )
        # the store's allocator: reclamation arrives from daemon calls
        # that may run on other threads, so it takes the locked variant
        self.sma = LockedSoftMemoryAllocator(name="kv")
        self.record = self.smd.register(self.sma)
        # antagonist process: its allocations create the memory
        # pressure that forces reclamation out of the keyspace
        self.antagonist = LockedSoftMemoryAllocator(name="antagonist")
        self.antagonist_record = self.smd.register(self.antagonist)
        self._antagonist_ctx = self.antagonist.create_context(
            name="blob", priority=10
        )
        self._antagonist_ptrs: list[object] = []

        self.tier_enabled = tier
        self.store = DataStore(
            self.sma,
            StoreConfig(tier=TierConfig(enabled=tier)),
            name="soak",
        )
        self.persistence: Persistence | None = None
        if data_dir is not None:
            # durability plane under the same soak: every phase's check
            # compares INFO Persistence against the bytes on disk
            self.persistence = Persistence(
                PersistenceConfig(dir=data_dir, appendfsync="everysec")
            )
            self.store.attach_persistence(self.persistence)
        bind_smd(self.store.obs.registry, self.smd)
        self.server = TcpKvServer(self.store).start()
        self.client = CountingClient(self.server.address)
        self._last_monotonic: dict[str, float] = {}
        self.phases_run: list[str] = []
        self.poison_frames_sent = 0
        self.poison_bytes_dropped = 0
        self.checks_run = 0

    # -- traffic phases -------------------------------------------------

    def phase_fill(self, keys: int = 400, value_size: int = 1024) -> None:
        """Pipelined SETs that chew through soft capacity."""
        rng = self.rng
        batch: list[tuple] = []
        for i in range(keys):
            value = bytes([rng.randrange(256)]) * value_size
            batch.append((b"SET", b"fill:%d" % i, value))
            if len(batch) >= 32:
                self.client.pipeline(*batch)
                batch.clear()
        if batch:
            self.client.pipeline(*batch)
        self._finish_phase("fill")

    def phase_churn(self, ops: int = 600) -> None:
        """Seeded mixed workload over strings, hashes, and lists."""
        rng = self.rng
        client = self.client
        for _ in range(ops):
            key = b"churn:%d" % rng.randrange(80)
            op = rng.randrange(10)
            if op < 3:
                client.execute(b"GET", key)
            elif op < 5:
                client.execute_quiet(
                    b"SET", key, b"v" * rng.randrange(16, 512)
                )
            elif op == 5:
                client.execute(b"DEL", key)
            elif op == 6:
                client.execute_quiet(b"INCR", b"counter:%d" % rng.randrange(8))
            elif op == 7:
                client.execute_quiet(
                    b"HSET", b"h:" + key, b"f%d" % rng.randrange(4), b"x"
                )
            elif op == 8:
                client.execute_quiet(b"LPUSH", b"l:" + key, b"item")
            else:
                client.execute(b"EXPIRE", key, b"100")
        self._finish_phase("churn")

    def phase_pressure(self, pages: int = 96, chunk_pages: int = 8) -> None:
        """Antagonist allocations force reclamation from the keyspace.

        Reclamation demands reach the store's SMA on *this* thread, so
        each allocation runs under the server's execution lock — the
        exact coordination an out-of-band admin/reclaim thread uses.
        """
        allocated = 0
        while allocated < pages:
            size = chunk_pages * PAGE_SIZE - 64
            try:
                with self.server._lock:
                    ptr = self.antagonist.soft_malloc(
                        size, self._antagonist_ctx, payload=b"x"
                    )
            except SoftMemoryDenied:
                break  # daemon denied even after reclamation: saturated
            self._antagonist_ptrs.append(ptr)
            allocated += chunk_pages
        self._finish_phase("pressure")

    def phase_tier(self, purge_pages: int = 24) -> None:
        """Demote → promote → second wave, all over live TCP.

        A ``MEMORY PURGE`` wave relocates victims at compressed size,
        reads of a sample of them are served from their stubs (back to
        residency where the heap owns the room, counted as a denial
        where it does not), and a much deeper second wave pushes the
        tier past its watermark into real second-chance drops — the
        full lifecycle the tier conservation identity (check 8) spans.
        Only meaningful with ``tier=True``.
        """
        client = self.client
        client.execute(b"MEMORY", b"PURGE", b"%d" % purge_pages)
        with self.server._lock:
            demoted = [
                key
                for key, value in self.store.keyspace.items()
                if type(value) is CompressedValue
            ]
        for key in demoted[::2]:
            assert client.execute(b"GET", key) is not None
        # the second pressure wave: deep enough to exhaust residents
        # and spill the tier itself (second-chance drops, tombstones)
        client.execute(b"MEMORY", b"PURGE", b"%d" % (purge_pages * 4))
        self._finish_phase("tier")

    def phase_degraded(self, ops: int = 120) -> None:
        """Traffic while the store's SMA cannot reach the daemon."""
        rng = self.rng
        self.sma.mark_degraded(True)
        try:
            for i in range(ops):
                # large values so some SETs genuinely need new budget
                self.client.execute_quiet(
                    b"SET",
                    b"degraded:%d" % i,
                    b"d" * rng.randrange(512, 4096),
                )
                if i % 3 == 0:
                    self.client.execute(b"GET", b"fill:%d" % rng.randrange(64))
        finally:
            self.sma.mark_degraded(False)
        self._finish_phase("degraded")

    def phase_poison(self, frames: int = 4) -> None:
        """Malformed RESP on throwaway connections; server must survive."""
        poisons = [
            b"*2\r\n$3\r\nGET\r\n$-5\r\nxx\r\n",  # invalid bulk length
            b"*1\r\n$2\r\nxyZZ\r\n",  # bulk not CRLF-terminated
            b"!weird\r\n",  # unknown type byte
            b"*-7\r\n",  # invalid array length
        ]
        for i in range(frames):
            poison = poisons[i % len(poisons)]
            with socket.create_connection(
                self.server.address, timeout=10.0
            ) as sock:
                sock.sendall(poison)
                data = sock.recv(65536)
                parser = RespParser()
                parser.feed(data)
                reply = parser.parse_one()
                assert isinstance(reply, RespError), reply
            self.poison_frames_sent += 1
            self.poison_bytes_dropped += self._expected_drop(poison)
        self._finish_phase("poison")

    @staticmethod
    def _expected_drop(poison: bytes) -> int:
        """Bytes a server parser must quarantine for this payload.

        Replays the payload through a scratch parser exactly the way
        the server pump does, so the soak's dropped-bytes expectation
        is derived, not hand-maintained alongside the poison list.
        """
        scratch = RespParser()
        scratch.feed(poison)
        try:
            while True:
                frames: list[object] = []
                if scratch.parse_pipeline(frames) == PIPELINE_MORE:
                    return 0  # drained or incomplete: nothing dropped
                if scratch.parse_one() is None:
                    return 0
        except ProtocolError:
            return scratch.last_error_dropped

    def _finish_phase(self, name: str) -> None:
        self.phases_run.append(name)
        self.check_invariants(phase=name)

    # -- the contract ---------------------------------------------------

    def check_invariants(self, phase: str = "") -> None:
        """Assert the full cross-layer contract (see module docstring)."""
        where = f" after phase {phase!r}" if phase else ""
        obs = self.store.obs
        smd = self.smd

        # checks 1-5 read shared ledgers, so they run under the
        # server's execution lock like any out-of-band inspector
        with self.server._lock:
            # 1. allocator-internal ledgers
            self.sma.check_invariants()
            self.antagonist.check_invariants()

            # 2. daemon ledger == client ledger, per process
            assert self.record.granted_pages == self.sma.budget.granted, where
            assert (
                self.antagonist_record.granted_pages
                == self.antagonist.budget.granted
            ), where

            # 3. SMD conservation identity
            flow = (
                smd.pages_granted
                - smd.pages_released
                - smd.pages_reclaimed
                - smd.pages_forfeited
            )
            assert smd.assigned_pages == flow, (
                f"conservation broken{where}: "
                f"assigned={smd.assigned_pages} "
                f"granted={smd.pages_granted} "
                f"released={smd.pages_released} "
                f"reclaimed={smd.pages_reclaimed} "
                f"forfeited={smd.pages_forfeited}"
            )
            assert smd.assigned_pages <= smd.capacity_pages, where

            # 4. every dispatched command observed exactly once
            hist_total = sum(
                snap.count for snap in obs.command_stats().values()
            )
            assert obs.commands == hist_total, (
                f"command counter {obs.commands} != histogram total "
                f"{hist_total}{where}"
            )

            # 8. tier conservation — every demotion is still accounted
            # for somewhere: promoted back, second-chance dropped,
            # displaced by the client, or still sitting compressed.
            # (Exact whether the tier is enabled or not: all zeros off.)
            dct = self.store._dict
            ts = dct.tier_stats
            assert ts.demotions == (
                ts.promotions
                + ts.second_chance_drops
                + ts.displacements
                + dct.compressed_entries
            ), (
                f"tier identity broken{where}: "
                f"demotions={ts.demotions} promotions={ts.promotions} "
                f"drops={ts.second_chance_drops} "
                f"displacements={ts.displacements} "
                f"compressed={dct.compressed_entries}"
            )

            # 5. monotonic series never decrease
            current = obs.registry.monotonic_snapshot()
            for name, value in self._last_monotonic.items():
                assert current.get(name, 0) >= value, (
                    f"monotonic series {name} decreased{where}: "
                    f"{value} -> {current.get(name, 0)}"
                )
            self._last_monotonic = current

            # 7. INFO Persistence is exact against the on-disk state
            persist = self.store.persistence
            if persist is not None:
                persist.flush(force_fsync=True)
                assert persist.aof_pending_bytes == 0, where
                disk = os.path.getsize(persist.aof_path)
                assert persist.aof_size == disk, (
                    f"aof_size {persist.aof_size} != on-disk {disk}{where}"
                )
                assert persist.fsync_errors == 0, where
                assert persist.write_errors == 0, where

        # 6. INFO over live TCP agrees with the client's own ledger
        sent_before_info = self.client.commands_sent
        payload = self.client.execute(b"INFO", b"server")
        assert isinstance(payload, bytes)
        fields = dict(
            line.split(":", 1)
            for line in payload.decode().splitlines()
            if ":" in line
        )
        assert int(fields["commands_processed"]) == sent_before_info, (
            f"INFO says {fields['commands_processed']} commands, client "
            f"sent {sent_before_info}{where}"
        )
        assert int(fields["protocol_errors"]) == self.protocol_errors_expected
        # the poison drop is explicit in stats: every byte fed but
        # thrown away by a parser quarantine is accounted, exactly
        assert (
            int(fields["protocol_dropped_bytes"]) == self.poison_bytes_dropped
        ), (
            f"INFO says {fields['protocol_dropped_bytes']} dropped bytes, "
            f"poison phases dropped {self.poison_bytes_dropped}{where}"
        )

        # 7 (wire half): the INFO Persistence section a client sees
        # reports the very same bytes the filesystem does
        if self.store.persistence is not None:
            persist = self.store.persistence
            payload = self.client.execute(b"INFO")
            assert isinstance(payload, bytes)
            pfields = dict(
                line.split(":", 1)
                for line in payload.decode().splitlines()
                if ":" in line
            )
            with self.server._lock:
                # no other client exists, so nothing raced that INFO
                assert int(pfields["aof_size"]) == os.path.getsize(
                    persist.aof_path
                ), where
                assert int(pfields["aof_pending_bytes"]) == 0, where
                assert int(pfields["fsync_errors"]) == 0, where
                assert pfields["aof_enabled"] == "1", where

        self.checks_run += 1

    @property
    def protocol_errors_expected(self) -> int:
        return self.poison_frames_sent

    # -- lifecycle ------------------------------------------------------

    def run(self, rounds: int = 1) -> None:
        """The standard soak script: every phase, ``rounds`` times."""
        for _ in range(rounds):
            self.phase_fill()
            self.phase_churn()
            self.phase_pressure()
            if self.tier_enabled:
                self.phase_tier()
            self.phase_degraded()
            self.phase_churn(200)
            self.phase_poison()

    def close(self) -> None:
        self.client.close()
        self.server.stop()
        if self.persistence is not None:
            self.persistence.close()

    def __enter__(self) -> "SoakHarness":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
