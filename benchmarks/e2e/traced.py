"""The traced run: every per-layer metric of one workload.

Spans around the driver's own calls, counts from ``INFO`` snapshots
taken between windows (never inside one), the post-run checks, then
the in-process replay of :mod:`ledger`. End-to-end numbers never come
from here: the throughput difference between this run's traced and
untraced windows is itself a metric, ``loadgen.trace_overhead_share``.
"""

from __future__ import annotations

import os
import statistics
import time

import drive
import harness
import ledger
from bench import (
    QUICK_WINDOWS,
    Result,
    closed_windows,
    enough,
    timed_setup,
    wave_ms_per_page,
)
from harness import Procs, Window
from repro.tools import metrics_dump
from topology import (
    Stack,
    check_recovery,
    check_replication,
    check_soft_ledger,
    receipt_counts,
    rpc_round_trip_us,
)
from workloads import Workload, build_trace

#: shares of ``--seconds`` the traced run spends driving TCP; the rest
#: goes to the in-process replay, whose length is set by op counts
TRACED_CLOSED_SHARE = 0.30
TRACED_OPEN_SHARE = 0.10


def open_windows(stack: Stack, budget_s: float, count: int | None):
    """Open-loop windows: batches on a fixed schedule, timed from due."""
    workload, trace = stack.workload, stack.trace
    windows: list[Window] = []
    total = drive.Tally()
    deadline = time.perf_counter() + budget_s
    before = stack.probe.ms()
    while True:
        if stack.antagonist is not None:
            latencies: list[float] = []
            lags: list[float] = []
            tally = drive.pressure_pass(
                stack.conn, trace, stack.shadow, stack.antagonist,
                stack.schedule, workload.open_window_batches, stack.refills,
                rate_ops_s=workload.open_rate_ops_s,
                latencies=latencies, lags=lags,
            )
        else:
            tally, latencies, lags = drive.open_loop(
                stack.conn, trace, trace.expected_later,
                workload.open_rate_ops_s, stack.position,
                workload.open_window_batches,
            )
            stack.position = (
                stack.position + workload.open_window_batches
            ) % len(trace.requests)
        after = stack.probe.ms()
        windows.append(
            stack.probe.window({"lat": latencies, "lag": lags}, before, after)
        )
        before = after
        total.add(tally)
        if enough(windows, count, deadline):
            break
    total.add(stack.finish_pass())
    return windows, total


def pooled_percentiles(windows: list[Window], name: str) -> dict[float, float]:
    """p50 and p99 (ms) over the calibration-scaled samples of the kept
    windows, pooled: the pool always has >= 10 samples beyond its p99."""
    kept = [w for w in windows if w.kept] or windows
    pool = sorted(
        value * window.scale * 1e3 for window in kept for value in window.values[name]
    )
    return {q: harness.percentile(pool, q) for q in (0.5, 0.99)}


def run_traced(
    workload: Workload, seed: int, seconds: float, run_dir: str, quick: bool
) -> Result:
    """Spans around the driver's calls, counts from INFO between windows,
    then the in-process replay: every per-layer metric of one workload."""
    result = Result(workload.name, seed)
    metrics = result.metrics
    spans = ledger.Spans()
    started = time.perf_counter()
    trace = build_trace(workload, seed)
    generated = trace.ops + len(trace.prefill_shadow)
    metrics["loadgen.gen_ns_per_op"] = (
        (time.perf_counter() - started) / generated * 1e9
    )
    count = QUICK_WINDOWS if quick else None
    samples = {"info_ms": [], "rehash": 0, "lag": []}
    with Procs(run_dir) as procs:
        stack, tally, _ = timed_setup(
            procs, workload, trace, os.path.join(run_dir, "i0")
        )
        try:
            result.receipt = {
                "stream_digest": trace.digest, **receipt_counts(stack)
            }

            def between() -> None:
                start = time.perf_counter()
                info = stack.info(stack.master)
                end = time.perf_counter()
                spans.add("obs.info_snapshot", start, end, len(samples["info_ms"]))
                samples["info_ms"].append((end - start) * 1e3)
                samples["rehash"] += (
                    info["Keyspace"]["keyspace_rehashing"] == "True"
                )
                feed = info["Replication"].get("replica0")
                if feed:  # "addr=...,ack_offset=...,lag=N"
                    samples["lag"].append(int(feed.rsplit("lag=", 1)[1]))

            info0 = stack.info(stack.master)
            closed, closed_tally = closed_windows(
                stack, seconds * TRACED_CLOSED_SHARE, count, spans, between
            )
            opened, open_tally = open_windows(
                stack, seconds * TRACED_OPEN_SHARE, count
            )
            info1 = stack.info(stack.master)
            tally.add(closed_tally)
            tally.add(open_tally)
            driven = closed_tally.ops + open_tally.ops
            if workload.topology == "durable_repl":
                metrics["repl.drain_ms"] = check_replication(
                    stack, result.violations
                )
                metrics.update(check_recovery(stack, result.violations))
            elif workload.topology == "smd":
                ledger_doc = check_soft_ledger(stack, result.violations)
                metrics["smd.denials"] = ledger_doc["denials"]
                metrics["smd.targets_per_demand"] = ledger_doc[
                    "demands_issued"
                ] / max(1, ledger_doc["reclamation_episodes"])
                metrics["rpc.request_round_trip_us"] = rpc_round_trip_us(stack)
                metrics["reclaim_ms_per_page"] = wave_ms_per_page(closed)
        finally:
            stack.close()
        # the in-process replay, while the instance's probe is still alive
        layer_timings = ledger.measure_layers(
            workload, trace, run_dir, spans, stack.probe
        )

    if tally.failed:
        result.violations.append(
            f"{tally.failed} failed operations ({tally.refused} refused SETs)"
        )
    result.attempted = tally.ops
    result.failed = tally.failed

    # -- loadgen: are the other numbers trustworthy? ------------------------
    plain = [w for w in closed if not w.values["traced"]]
    traced = [w for w in closed if w.values["traced"]] or plain

    def median_of(windows, name, kind):
        return harness.summarise(windows, name, kind=kind, min_kept=0)[0]

    plain_ops_s = median_of(plain, "ops_s", "rate")
    metrics["loadgen.trace_overhead_share"] = (
        1.0 - median_of(traced, "ops_s", "rate") / plain_ops_s
    )
    metrics["loadgen.driver_cpu_share"] = median_of(plain, "driver_share", "count")
    metrics["loadgen.master_cpu_share"] = median_of(plain, "master_share", "count")
    metrics["loadgen.windows_kept"] = sum(1 for w in closed + opened if w.kept)
    metrics["loadgen.calib_ms_med"] = statistics.median(
        w.calib for w in closed + opened
    )
    quantiles = pooled_percentiles(opened, "lat")
    metrics["loadgen.open_p50_ms"] = quantiles[0.5]
    metrics["loadgen.open_p99_ms"] = quantiles[0.99]
    metrics["loadgen.open_lag_p99_ms"] = pooled_percentiles(opened, "lag")[0.99]

    # -- counts from the INFO diff (taken between windows, never inside) ----
    delta = metrics_dump.diff({"info": info0}, {"info": info1})["diff"]
    stats, soft = delta["Stats"], delta["SoftMemory"]
    rounds = stats["server.batches_executed"]
    user_bytes = trace.user_bytes * (driven / trace.ops)
    metrics["tcp.ops_per_round"] = stats["server.commands_processed"] / max(
        1, rounds
    )
    metrics["tcp.rounds_per_kop"] = rounds / driven * 1e3
    metrics["dict.mallocs_per_set"] = soft["sma.stats.allocations"] / max(
        1, stats["store.stats.keys_set"]
    )
    metrics["dict.rehash_windows"] = samples["rehash"]
    metrics["sma.daemon_requests_per_kop"] = (
        soft["sma.stats.daemon_requests"] / driven * 1e3
    )
    metrics["sma.pages_released"] = soft["sma.stats.pages_released"]
    metrics["sma.reclamations"] = soft["sma.stats.reclamations"]
    for name in (
        "demotions", "promotions", "second_chance_drops",
        "promotion_denials", "bytes_saved",
    ):
        metrics[f"tier.{name}"] = soft[f"tier.{name}"]
    metrics["tier.promote_p99_us"] = (
        info1["SoftMemory"]["tier.promote_latency.p99"] * 1e6
    )
    # a bare server prints no aof_size / flushes: the layer is idle
    persist = delta["Persistence"]
    metrics["persist.aof_bytes_per_user_byte"] = (
        persist.get("aof_size", 0) / user_bytes
    )
    metrics["persist.flushes"] = persist.get("flushes", 0)
    metrics["repl.stream_bytes_per_user_byte"] = (
        delta["Replication"]["master_repl_offset"] / user_bytes
    )
    metrics["repl.lag_bytes_p99"] = (
        harness.percentile(sorted(samples["lag"]), 0.99) if samples["lag"] else 0
    )
    metrics["repl.replica_cpu_us_per_op"] = (
        median_of(plain, "others_us_per_op", "time") if stack.replica else 0.0
    )
    metrics["obs.info_ms"] = statistics.median(samples["info_ms"])
    metrics["obs.cmd_get_p99_us"] = info1["Latency"]["cmd.GET.p99_us"]
    metrics["obs.cmd_set_p99_us"] = info1["Latency"]["cmd.SET.p99_us"]
    for name in (
        "repl.drain_ms", "recovery_s", "persist.recover_ms_per_krec",
        "smd.denials", "smd.targets_per_demand", "rpc.request_round_trip_us",
        "reclaim_ms_per_page",
    ):
        metrics.setdefault(name, 0.0)  # the layer is idle on this workload

    # -- timings from the in-process replay ---------------------------------
    metrics.update(layer_timings)
    master_us = median_of(plain, "master_us_per_op", "time")
    metrics["tcp.transport_us_per_op"] = master_us - (
        metrics["server.feed_batch_ns_per_op"] + metrics["ledger.round_ns_per_op"]
    ) / 1e3
    waves = spans.seconds("antagonist.wave")
    wave_count = sum(1 for row in spans.rows if row[0] == "antagonist.wave")
    if wave_count:
        pages_per_wave = metrics["sma.pages_released"] / max(
            1, metrics["sma.reclamations"]
        )
        metrics["rpc.wave_self_ms"] = waves / wave_count * 1e3 - (
            metrics["sma.reclaim_us_per_page"] * pages_per_wave
            + metrics["smd.handle_request_us"]
        ) / 1e3
    else:
        metrics["rpc.wave_self_ms"] = 0.0
    if quick:
        result.unresolved.update(metrics)
    out_path = os.path.join(harness.HERE, "out", f"trace-{workload.name}.json")
    spans.write(out_path)
    kept = sum(1 for w in closed if w.kept)
    result.notes = {
        "closed_windows": f"{kept} kept / {len(closed)} (every second one traced)",
        "spans": f"{len(spans.rows)} in {os.path.relpath(out_path, harness.ROOT)}",
        "driver_view": "send %.1f%% / wait_reply %.1f%% / verify %.1f%%"
        " of loadgen.batch" % tuple(
            100.0 * spans.seconds(name) / max(1e-9, spans.seconds("loadgen.batch"))
            for name in ("loadgen.send", "loadgen.wait_reply", "loadgen.verify")
        ),
    }
    return result
