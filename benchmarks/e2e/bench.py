"""One untraced run of one workload: the end-to-end numbers.

A run sets the workload's topology up ``INSTANCES`` times — fresh
processes, prefill, one verified warm pass — and measures a share of
its closed-loop windows on each instance. That gives ``setup_s`` its
median-of-several and, as important on this box, takes
the process-to-process spread (a few per cent between two servers
started from the same bytes) out of the throughput numbers, which are
medians over the windows of all instances.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass, field

import drive
import harness
from harness import Procs, Window
from topology import (
    Stack,
    check_recovery,
    check_replication,
    check_soft_ledger,
    receipt_counts,
)
from workloads import ANTAGONIST_PAGES, Workload, build_trace

#: fresh topologies per run (each measured; ``setup_s`` is their median).
#: Two servers started from the same bytes differ by 3-5% (one in ten by
#: 10% and more) for as long as they live, which is most of what is left
#: between two runs once the windows are calibrated; the median over the
#: windows of four instances lands between the middle two
INSTANCES = 4
#: fewer kept windows than this (over all instances) and the timings are
#: flagged unresolved
MIN_KEPT = 20
#: ``--quick`` runs this many windows per phase, on one instance
QUICK_WINDOWS = 3


@dataclass
class Result:
    workload: str
    seed: int
    metrics: dict[str, float] = field(default_factory=dict)
    unresolved: set[str] = field(default_factory=set)
    #: stream digest and exact counts: equal for equal seeds
    receipt: dict[str, object] = field(default_factory=dict)
    #: windows kept/total, calibration statistics
    notes: dict[str, object] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.violations


# ---------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------


def enough(windows: list, count: int | None, deadline: float) -> bool:
    """A phase ends after ``count`` windows or, without a count, once
    its time budget is spent (window *size* is fixed, their number is
    what scales with the budget and the machine's speed)."""
    if count is not None:
        return len(windows) >= count
    return len(windows) >= 2 and time.perf_counter() >= deadline


def timed_setup(procs, workload, trace, data_dir):
    """spawn -> READY -> prefill -> one warm pass, calibration-scaled.

    The instance's reference server is started first, outside the
    timing: it is the benchmark's, not the program's. The caller closes
    ``stack.probe`` when it has taken its last reading.
    """
    probe = drive.ReferenceProbe(procs, workload.spec.depths[0][0])
    before = probe.ms()
    start = time.perf_counter()
    stack = Stack(procs, workload, trace, data_dir, probe)
    tally = stack.prefill()
    tally.add(stack.warm_pass())
    elapsed = time.perf_counter() - start
    window = probe.window({"setup_s": elapsed}, before, probe.ms())
    return stack, tally, window


def closed_windows(
    stack: Stack, budget_s: float, count: int | None, spans=None, between=None
):
    """Closed-loop windows until the budget is spent (or ``count``).

    With ``spans`` every second window records spans (the traced run
    compares the two kinds); ``between`` runs between windows, outside
    both of their brackets.
    """
    windows: list[Window] = []
    total = drive.Tally()
    deadline = time.perf_counter() + budget_s
    master = [stack.master.pid]
    others = [pid for pid in stack.pids if pid != stack.master.pid]
    before = stack.probe.ms()
    while True:
        traced = spans is not None and len(windows) % 2 == 1
        master0 = harness.cpu_ns(master)
        others0 = harness.cpu_ns(others)
        own0 = time.process_time()
        waves0 = len(stack.antagonist.wave_seconds) if stack.antagonist else 0
        start = time.perf_counter()
        tally = stack.closed_window(spans if traced else None)
        elapsed = time.perf_counter() - start
        master_us = (harness.cpu_ns(master) - master0) / 1e3
        others_us = (harness.cpu_ns(others) - others0) / 1e3
        values = {
            "traced": traced,
            "ops_s": tally.ops / elapsed,
            "cpu_us_per_op": (master_us + others_us) / tally.ops,
            "master_us_per_op": master_us / tally.ops,
            "others_us_per_op": others_us / tally.ops,
            "master_share": master_us / 1e6 / elapsed,
            "driver_share": (time.process_time() - own0) / elapsed,
        }
        if stack.antagonist:
            values["waves_ms"] = [
                s * 1e3 for s in stack.antagonist.wave_seconds[waves0:]
            ]
        after = stack.probe.ms()
        windows.append(stack.probe.window(values, before, after))
        before = after
        total.add(tally)
        if between is not None:
            between()
            before = stack.probe.ms()
        if enough(windows, count, deadline):
            return windows, total


# ---------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------


def run(
    workload: Workload, seed: int, seconds: float, run_dir: str, quick: bool
) -> Result:
    """The untraced run: every end-to-end metric of one workload."""
    result = Result(workload.name, seed)
    trace = build_trace(workload, seed)
    instances = 1 if quick else INSTANCES
    count = QUICK_WINDOWS if quick else None
    setups: list[Window] = []
    closed: list[Window] = []
    rss: list[float] = []
    receipts: list[dict] = []
    tally = drive.Tally()
    extras: dict[str, float] = {}
    with Procs(run_dir) as procs:
        for instance in range(instances):
            data_dir = os.path.join(run_dir, f"i{instance}")
            stack, setup_tally, setup = timed_setup(
                procs, workload, trace, data_dir
            )
            try:
                setups.append(setup)
                tally.add(setup_tally)
                receipts.append(receipt_counts(stack))
                windows, part = closed_windows(
                    stack, seconds / instances, count
                )
                closed += windows
                tally.add(part)
                tally.add(stack.finish_pass())
                rss.append(harness.peak_rss_mb(stack.master.pid))
                if instance == instances - 1:
                    if workload.topology == "durable_repl":
                        extras["repl.drain_ms"] = check_replication(
                            stack, result.violations
                        )
                        extras.update(check_recovery(stack, result.violations))
                    elif workload.topology == "smd":
                        check_soft_ledger(stack, result.violations)
            finally:
                stack.close()
                stack.probe.close(procs)

    if any(r != receipts[0] for r in receipts):
        result.violations.append(f"counts differ between instances: {receipts}")
    if tally.failed:
        result.violations.append(
            f"{tally.failed} failed operations ({tally.refused} refused SETs)"
        )
    result.attempted = tally.ops
    result.failed = tally.failed
    result.receipt = {"stream_digest": trace.digest, **receipts[0]}

    min_kept = 0 if quick else MIN_KEPT
    metrics = result.metrics
    metrics["setup_s"] = statistics.median(
        w.values["setup_s"] * w.scale for w in setups
    )
    for name, reading, kind in (
        ("throughput_ops_s", "ops_s", "rate"),
        ("server_cpu_us_per_op", "cpu_us_per_op", "time"),
        ("loadgen.master_cpu_share", "master_share", "count"),
        ("loadgen.driver_cpu_share", "driver_share", "count"),
    ):
        metrics[name], resolved = harness.summarise(
            closed, reading, kind=kind, min_kept=min_kept
        )
        if not resolved or quick:
            result.unresolved.add(name)
    metrics["ok_ops_share"] = 1.0 - tally.failed / tally.ops
    metrics["hit_rate"] = tally.hits / tally.gets
    metrics["server_rss_mb"] = statistics.median(rss)
    if workload.topology == "smd":
        metrics["reclaim_ms_per_page"] = wave_ms_per_page(closed)
    metrics.update(extras)

    calib = sorted(w.calib for w in closed)
    kept_closed = sum(1 for w in closed if w.kept)
    result.notes = {
        "closed_windows": f"{kept_closed} kept / {len(closed)}",
        "calib_ms": "min %.2f / med %.2f / max %.2f"
        % (calib[0], statistics.median(calib), calib[-1]),
        "instances": instances,
    }
    return result


def wave_ms_per_page(windows: list[Window]) -> float:
    """Median over the reclaiming waves of wall ms per page granted."""
    kept = [w for w in windows if w.kept] or windows
    waves = [ms * w.scale for w in kept for ms in w.values["waves_ms"]]
    return statistics.median(waves) / ANTAGONIST_PAGES
