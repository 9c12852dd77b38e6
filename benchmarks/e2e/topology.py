"""A workload's server-side processes, and the checks made on them.

``Stack`` is one live instance of a topology — bare master, master +
AOF + replica, or SMD host + kv + antagonist — with the driver's one
connection to it. The functions below it are the post-run checks: any
violation they record makes the command exit non-zero.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import time

import drive
import harness
from harness import BenchError, Proc, Procs
from repro.core.locking import LockedSoftMemoryAllocator
from repro.rpc import SmaAgent
from repro.tools import metrics_dump
from workloads import (
    ANTAGONIST_PAGES,
    RECOVERY_REF_RECORDS,
    SMD_CAPACITY_PAGES,
    WAVE_EVERY_BATCHES,
    WAVE_HOLD_BATCHES,
    Trace,
    Workload,
)

KV_SERVER = ["-m", "repro.tools.kv_server", "--port", "0"]
SMD_HOST = [os.path.join(harness.HERE, "smd_host.py")]


class Stack:
    """One live instance of a workload's server-side processes."""

    def __init__(
        self, procs: Procs, workload: Workload, trace: Trace, data_dir: str,
        probe: drive.ReferenceProbe,
    ) -> None:
        self.procs = procs
        self.probe = probe
        self.workload = workload
        self.trace = trace
        self.data_dir = data_dir
        self.smd: Proc | None = None
        self.replica: Proc | None = None
        self.antagonist: drive.Antagonist | None = None
        self.schedule = drive.WaveSchedule(WAVE_EVERY_BATCHES, WAVE_HOLD_BATCHES)
        self.refills: list[bytes] = []
        #: the batch of the segment the next window starts at
        self.position = 0
        #: reclaim_pressure's oracle: key -> last acknowledged value
        self.shadow: dict[bytes, bytes] = {}
        os.makedirs(data_dir)
        topology = workload.topology
        if topology == "smd":
            self.socket_path = os.path.relpath(
                os.path.join(data_dir, "smd.sock"), harness.ROOT
            )
            self.smd = procs.spawn(
                "smd", SMD_HOST + [self.socket_path, str(SMD_CAPACITY_PAGES)]
            )
            self.master_argv = KV_SERVER + ["--smd-socket", self.socket_path]
        elif topology == "durable_repl":
            self.master_argv = KV_SERVER + [
                "--dir", os.path.join(data_dir, "master"),
                "--appendfsync", "everysec",
            ]
        else:
            self.master_argv = list(KV_SERVER)
        self.master = procs.spawn("master", self.master_argv)
        if topology == "durable_repl":
            host, port = self.master.address
            self.replica = procs.spawn(
                "replica", KV_SERVER + ["--replicaof", f"{host}:{port}"]
            )
            self._wait(
                lambda: self.info(self.master)["Replication"].get(
                    "connected_replicas"
                ) == 1,
                "replica never attached",
            )
        self.conn = drive.Connection(self.master.address)
        if topology == "smd":
            self.antagonist = drive.Antagonist(self.socket_path, ANTAGONIST_PAGES)

    @property
    def pids(self) -> list[int]:
        """Every server-side process: their CPU is the serving cost."""
        return [p.pid for p in (self.master, self.replica, self.smd) if p]

    @staticmethod
    def info(proc: Proc) -> dict:
        return metrics_dump.snapshot(*proc.address)["info"]

    @staticmethod
    def _wait(condition, what: str, timeout: float = 20.0) -> None:
        deadline = time.monotonic() + timeout
        while not condition():
            if time.monotonic() > deadline:
                raise BenchError(what)
            time.sleep(0.005)

    # -- set-up ---------------------------------------------------------

    def prefill(self) -> drive.Tally:
        """The load phase: every key SET once, every reply checked."""
        trace = self.trace
        tally = drive.Tally()
        for request, expected in zip(trace.prefill, trace.prefill_expected):
            self.conn.exchange(request, len(expected))
            if self.conn.buf[: len(expected)] != expected:
                raise BenchError(f"{self.workload.name}: prefill refused a SET")
            tally.ops += len(expected) // 5  # b"+OK\r\n" each
        if self.workload.topology == "smd":
            self.shadow = dict(trace.prefill_shadow)
        return tally

    def warm_pass(self) -> drive.Tally:
        """The end of set-up: the first whole pass over the segment."""
        if self.antagonist is not None:
            return self.closed_window(batches=len(self.trace.requests))
        return drive.replay(self.conn, self.trace, self.trace.expected_first)

    def closed_window(self, spans=None, batches: int | None = None) -> drive.Tally:
        """One closed-loop window, from where the last one ended."""
        trace = self.trace
        if batches is None:
            batches = self.workload.window_batches
        if self.antagonist is not None:
            return drive.pressure_pass(
                self.conn, trace, self.shadow, self.antagonist,
                self.schedule, batches, self.refills, spans,
            )
        tally = drive.replay(
            self.conn, trace, trace.expected_later, spans, self.position, batches
        )
        self.position = (self.position + batches) % len(trace.requests)
        return tally

    def finish_pass(self) -> drive.Tally:
        """Replay the rest of the segment, so that the server's state is
        the end-of-pass shadow the post-run checks read back."""
        if self.antagonist is not None or not self.position:
            return drive.Tally()
        start, self.position = self.position, 0
        return drive.replay(
            self.conn, self.trace, self.trace.expected_later, start=start
        )

    # -- post-run checks --------------------------------------------------

    def smd_ledger(self) -> dict:
        """Ask the SMD host for its ledger (SIGUSR1 -> one JSON line)."""
        assert self.smd is not None
        os.kill(self.smd.pid, signal.SIGUSR1)
        return json.loads(self.smd.read_line(10.0))

    def close(self) -> None:
        self.conn.close()
        if self.antagonist is not None:
            self.antagonist.close()
        for proc in (self.replica, self.master, self.smd):
            if proc is not None:
                self.procs.kill(proc)
        shutil.rmtree(self.data_dir, ignore_errors=True)


# ---------------------------------------------------------------------
# post-run checks (any violation makes the command exit non-zero)
# ---------------------------------------------------------------------


def receipt_counts(stack: Stack) -> dict[str, object]:
    """Exact counts after set-up (prefill + warm pass): a fixed number
    of operations, so equal on every instance and every run of a seed."""
    info = stack.info(stack.master)
    soft, stats = info["SoftMemory"], info["Stats"]
    return {
        "gets": info["Keyspace"]["hits"] + info["Keyspace"]["misses"],
        "hits": info["Keyspace"]["hits"],
        "sets": stats["store.stats.keys_set"],
        "refused_sets": stats["store.stats.oom_denials"],
        "reclaimed_keys": stats["store.stats.reclaimed_keys"],
        "demotions": soft["tier.demotions"],
        "promotions": soft["tier.promotions"],
        "aof_bytes": info["Persistence"].get("aof_size", 0),
        "aof_records": info["Persistence"].get("aof_records", 0),
        "waves": stack.antagonist.waves if stack.antagonist else 0,
    }


def check_replication(stack: Stack, violations: list[str]) -> float:
    """Replica offset == master offset and DBSIZE equal after drain.

    Returns the drain time in ms (last ack -> offsets equal).
    """
    start = time.perf_counter()

    def offsets() -> tuple[int, int]:
        return tuple(
            stack.info(proc)["Replication"]["master_repl_offset"]
            for proc in (stack.master, stack.replica)
        )

    try:
        stack._wait(lambda: len(set(offsets())) == 1, "replica never drained")
    except BenchError as exc:
        violations.append(f"{exc}: offsets {offsets()}")
    drain_ms = (time.perf_counter() - start) * 1e3
    replica = drive.Connection(stack.replica.address)
    try:
        sizes = stack.conn.command(b"DBSIZE"), replica.command(b"DBSIZE")
    finally:
        replica.close()
    if sizes[0] != sizes[1] or sizes[0] != len(stack.trace.shadow):
        violations.append(
            f"DBSIZE master/replica/shadow {sizes} / {len(stack.trace.shadow)}"
        )
    return drain_ms


def check_recovery(stack: Stack, violations: list[str]) -> dict[str, float]:
    """SIGKILL the master, restart it on the same --dir, time to READY,
    then every key of the shadow dict must read back exactly.

    A process crash, not a power loss: with ``everysec`` the last
    second is written but not fsynced, so this checks write-before-ack.
    Returns the two metrics the recovery gives (see RECOVERY_REF_RECORDS).
    """
    stack.conn.close()
    stack.procs.kill(stack.master)
    before = stack.probe.ms()
    start = time.perf_counter()
    stack.master = stack.procs.spawn("master", stack.master_argv)
    elapsed = time.perf_counter() - start
    after = stack.probe.ms()
    stack.conn = drive.Connection(stack.master.address)
    keys = sorted(stack.trace.shadow)
    wrong = 0
    for at in range(0, len(keys), 64):
        chunk = keys[at : at + 64]
        stack.conn.sock.sendall(
            b"".join(drive.encode_command(b"GET", key) for key in chunk)
        )
        for key, value in zip(chunk, stack.conn.replies(len(chunk))):
            if value != stack.trace.shadow[key]:
                wrong += 1
    if wrong:
        violations.append(
            f"{wrong} of {len(keys)} keys wrong after kill -9 + recovery"
        )
    seconds = elapsed * stack.probe.window({}, before, after).scale
    records = stack.info(stack.master)["Persistence"]["recovered_records"]
    return {
        "recovery_s": seconds * RECOVERY_REF_RECORDS / records,
        "persist.recover_ms_per_krec": seconds * 1e6 / records,
    }


def check_soft_ledger(stack: Stack, violations: list[str]) -> dict:
    """kv granted + antagonist granted == the daemon's assigned <= capacity,
    and the tier's conservation identity, from INFO and the launcher."""
    info = stack.info(stack.master)
    soft = info["SoftMemory"]
    ledger = stack.smd_ledger()
    held = soft["sma.granted_pages"] + stack.antagonist.granted_pages
    if held != ledger["assigned_pages"] or held > ledger["capacity_pages"]:
        violations.append(
            f"soft ledger: kv {soft['sma.granted_pages']} + antagonist "
            f"{stack.antagonist.granted_pages} vs daemon {ledger}"
        )
    tier_out = (
        soft["tier.promotions"] + soft["tier.second_chance_drops"]
        + soft["tier.displacements"] + info["Keyspace"]["compressed_entries"]
    )
    if soft["tier.demotions"] != tier_out:
        violations.append(
            f"tier identity: {soft['tier.demotions']} demotions != {tier_out}"
        )
    return ledger


def rpc_round_trip_us(stack: Stack) -> float:
    """One budget request over the unix socket, no pressure: a third
    tenant asks the live daemon for a page it has spare, many times."""
    sma = LockedSoftMemoryAllocator(name="rpc-probe")
    agent = SmaAgent.connect(stack.socket_path, sma)
    try:
        calls = 200
        before = stack.probe.ms()
        start = time.perf_counter()
        for _ in range(calls):
            sma.reserve_budget(1)
        elapsed = time.perf_counter() - start
        window = stack.probe.window({}, before, stack.probe.ms())
        sma.return_excess()
    finally:
        agent.close()
    return elapsed / calls * 1e6 * window.scale
