"""Scenario matrix: workload presets × soft-memory pressure × durability.

The standing regression harness every serving-plane PR reports
against. Each *cell* of the matrix boots a fresh, self-contained
machine — an in-process SMD arbitrating tight soft capacity, the
store's SMA plus an antagonist SMA registered against it, an
:class:`EventLoopKvServer` on live TCP, optional AOF persistence —
prefills the key space (the YCSB load phase), then drives a seeded
:class:`~repro.loadgen.engine.OperationStream` at the server while the
cell's pressure phase runs:

* ``none``       — ample budget, no interference (the baseline);
* ``antagonist`` — a second SMA allocates in waves, forcing the daemon
  to reclaim keyspace entries *during* the measured run;
* ``degraded``   — the store's SMA is cut off from the daemon
  (``mark_degraded``), so every new-budget demand surfaces as an OOM
  error reply.

Per-cell metrics come from two sources stitched together: the driver's
own throughput/latency tally, and a ``metrics_dump`` snapshot/diff of
the live server's INFO (soft hit rate, OOM denials, reclaimed keys —
the soft-memory story uniform synthetic load can't tell). Each cell
also records its stream's SHA-256 digest: equal digests across runs
and machines certify byte-identical operation streams.

Configuration:

* ``BENCH_SCENARIOS_SECONDS``  — measured seconds per cell (default
  0.2: CI-smoke scale; the committed ``BENCH_scenarios.json`` uses 1.0).
* ``BENCH_SCENARIOS_PRESETS`` / ``_PRESSURES`` / ``_PERSISTS`` /
  ``_TIERS`` — comma-separated axis overrides (test default: the
  reduced 2×2×1×2 smoke matrix; ``main()`` default: the full
  3×3×2×2). The tier axis boots the cell's store with the compressed
  second-chance tier on or off at the same soft budget.
* ``BENCH_SCENARIOS_JSON``    — path to write results (default: skip
  under pytest).
* ``BENCH_SCENARIOS_MAX_REGRESSION`` — per-cell gate tolerance on
  *relative* throughput vs the committed matrix (default 0.10).

Run:  pytest benchmarks/bench_scenarios.py --benchmark-only -q -s
or:   python benchmarks/bench_scenarios.py   (full matrix, writes
      BENCH_scenarios.json in the repo root)
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile

from repro.kvstore.persist.engine import Persistence, PersistenceConfig
from repro.kvstore.tcp import TcpKvClient
from repro.kvstore.tier import TierConfig
from repro.loadgen.driver import drive
from repro.loadgen.engine import OperationStream, stream_digest
from repro.loadgen.spec import WorkloadSpec, preset
from repro.tools.metrics_dump import diff, snapshot

if __package__:  # pytest collects this file as benchmarks.bench_scenarios
    from benchmarks.pressure_rig import (
        CAPACITY_PAGES,
        Antagonist,
        boot_machine,
    )
else:  # python benchmarks/bench_scenarios.py
    from pressure_rig import CAPACITY_PAGES, Antagonist, boot_machine

COMMITTED_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_scenarios.json",
)

SEED = 7
#: bench-sized key space: the prefill must fit the smoke budget
KEYSPACE = 2048

#: full matrix (``main()``); the pytest smoke trims via env
FULL_PRESETS = ("ycsb-b", "hot-key", "write-heavy")
FULL_PRESSURES = ("none", "antagonist", "degraded")
FULL_PERSISTS = ("off", "everysec")
FULL_TIERS = ("off", "on")
#: reduced smoke matrix (the CI ``scenario-smoke`` job's default)
SMOKE_PRESETS = ("ycsb-b", "hot-key")
SMOKE_PRESSURES = ("none", "antagonist")
SMOKE_PERSISTS = ("off",)
SMOKE_TIERS = ("off", "on")


def bench_spec(preset_name: str) -> WorkloadSpec:
    """The preset, resized for the bench machine.

    Values go variable-size (uniform 64–1024 unless the preset already
    declares a distribution) so overwrites genuinely reallocate — the
    allocation traffic that makes pressure phases bite. Fixed-size
    overwrites would update in place and hide the soft-memory story.
    """
    spec = preset(preset_name, keyspace=KEYSPACE)
    if spec.value_dist == "fixed":
        spec = preset(
            preset_name,
            keyspace=KEYSPACE,
            value_dist="uniform",
            value_lo=64,
            value_hi=1024,
        )
    return spec


def run_cell(
    preset_name: str,
    pressure: str,
    persist_mode: str,
    seconds: float,
    tier_mode: str = "off",
) -> dict:
    """One matrix cell: fresh machine, prefill, pressured measured run."""
    spec = bench_spec(preset_name)
    label = f"{preset_name}/{pressure}/{persist_mode}/{tier_mode}"
    persist = None
    data_dir = None
    if persist_mode != "off":
        data_dir = tempfile.mkdtemp(prefix="bench-scenarios-")
        persist = Persistence(
            PersistenceConfig(dir=data_dir, appendfsync=persist_mode)
        )
    server, sma, antagonist_sma = boot_machine(
        f"scenario-{label}", TierConfig(enabled=tier_mode == "on"), persist
    )
    client = None
    antagonist = None
    try:
        client = TcpKvClient(server.address, timeout=30.0)
        stream = OperationStream(spec, SEED)
        prefill = drive(
            client, stream.prefill_batches(), max_ops=spec.keyspace
        )
        host, port = server.address
        before = snapshot(host, port)
        if pressure == "antagonist":
            antagonist = Antagonist(
                server, antagonist_sma, high_water_pages=CAPACITY_PAGES // 2
            )
            antagonist.start()
        elif pressure == "degraded":
            sma.mark_degraded(True)
        try:
            report = drive(client, stream.batches(), duration=seconds)
        finally:
            if pressure == "degraded":
                sma.mark_degraded(False)
            if antagonist is not None:
                antagonist.stop()
        after = snapshot(host, port)
        delta = diff(before, after)["diff"]
        keyspace = delta.get("Keyspace", {})
        hits = keyspace.get("hits", 0)
        misses = keyspace.get("misses", 0)
        lookups = hits + misses
        soft_delta = delta.get("SoftMemory", {})
        row = {
            "preset": preset_name,
            "pressure": pressure,
            "persistence": persist_mode,
            "tier": tier_mode,
            "tier_demotions": soft_delta.get("tier.demotions", 0),
            "tier_promotions": soft_delta.get("tier.promotions", 0),
            "tier_second_chance_drops": soft_delta.get(
                "tier.second_chance_drops", 0
            ),
            "seed": SEED,
            "keyspace": spec.keyspace,
            "prefill_ops": prefill.ops,
            "ops": report.ops,
            "ops_per_sec": round(report.ops_per_sec, 1),
            "batch_p50_ms": round(report.batch_p50_ms, 4),
            "batch_p99_ms": round(report.batch_p99_ms, 4),
            "soft_hit_rate": round(hits / lookups, 4) if lookups else None,
            "oom_denials": keyspace.get("oom_denials", 0),
            "reclaimed_keys": keyspace.get("reclaimed_keys", 0),
            "expired_keys": keyspace.get("expired_keys", 0),
            "error_replies": report.errors,
            "stream_digest": stream_digest(spec, SEED),
        }
        if antagonist is not None:
            row["antagonist_waves"] = antagonist.waves
            row["antagonist_denials"] = antagonist.denials
        if persist is not None:
            persist.flush(force_fsync=True)
            row["aof_bytes"] = persist.aof_size
        return row
    finally:
        if client is not None:
            client.close()
        server.stop()
        if persist is not None:
            persist.close()
        if data_dir is not None:
            shutil.rmtree(data_dir, ignore_errors=True)


def _axis(env: str, default: tuple[str, ...]) -> tuple[str, ...]:
    raw = os.environ.get(env)
    if not raw:
        return default
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def run_matrix(
    presets: tuple[str, ...],
    pressures: tuple[str, ...],
    persists: tuple[str, ...],
    seconds: float,
    tiers: tuple[str, ...] = ("off",),
) -> list[dict]:
    rows = []
    for preset_name in presets:
        for pressure in pressures:
            for persist_mode in persists:
                for tier_mode in tiers:
                    rows.append(
                        run_cell(
                            preset_name,
                            pressure,
                            persist_mode,
                            seconds,
                            tier_mode,
                        )
                    )
    return rows


def summarize(rows: list[dict]) -> dict:
    """Relative throughput per cell vs its preset's none/off baseline.

    Ratios are what transfer across machines — absolute ops/s on a
    loaded CI container do not — so the regression gate compares
    relatives.
    """
    baselines = {
        row["preset"]: row["ops_per_sec"]
        for row in rows
        if row["pressure"] == "none"
        and row["persistence"] == "off"
        and row.get("tier", "off") == "off"
    }
    relative: dict[str, float] = {}
    for row in rows:
        base = baselines.get(row["preset"])
        if base:
            relative[_cell_key(row)] = round(row["ops_per_sec"] / base, 4)
    return {
        "cells": len(rows),
        "relative_throughput": relative,
        "total_oom_denials": sum(row["oom_denials"] for row in rows),
        "total_reclaimed_keys": sum(row["reclaimed_keys"] for row in rows),
    }


def _cell_key(row: dict) -> str:
    return (
        f"{row['preset']}/{row['pressure']}/{row['persistence']}"
        f"/{row.get('tier', 'off')}"
    )


def print_table(rows: list[dict]) -> None:
    print("\n")
    print("=" * 96)
    print("Scenario matrix: workload preset x pressure phase x persistence")
    print("-" * 96)
    print(
        f"{'cell':>38} {'ops/s':>9} {'p99 ms':>8} {'hit%':>6} "
        f"{'oom':>6} {'reclaimed':>9} {'demoted':>8} {'errors':>7}"
    )
    for row in rows:
        hit = row["soft_hit_rate"]
        print(
            f"{_cell_key(row):>38} {row['ops_per_sec']:>9.0f} "
            f"{row['batch_p99_ms']:>8.2f} "
            f"{100 * hit if hit is not None else 0:>6.1f} "
            f"{row['oom_denials']:>6} {row['reclaimed_keys']:>9} "
            f"{row['tier_demotions']:>8} {row['error_replies']:>7}"
        )
    print("=" * 96)


def write_json(rows: list[dict], headline: dict, path: str,
               seconds: float) -> None:
    document = {
        "benchmark": "bench_scenarios",
        "seconds_per_cell": seconds,
        "seed": SEED,
        "keyspace": KEYSPACE,
        "capacity_pages": CAPACITY_PAGES,
        "headline": headline,
        "cells": rows,
    }
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")


def check_structure(rows: list[dict]) -> None:
    """Shape assertions that hold at any time budget on any machine."""
    for row in rows:
        assert row["ops"] > 0, f"{_cell_key(row)} drove no operations"
        assert row["prefill_ops"] == row["keyspace"]
        if row["pressure"] == "antagonist":
            assert row["antagonist_waves"] + row["antagonist_denials"] > 0, (
                f"{_cell_key(row)}: antagonist never created pressure"
            )
        if row["persistence"] != "off":
            assert row["aof_bytes"] > 0, (
                f"{_cell_key(row)}: persistence attached but no AOF bytes"
            )
    # pressure visibly perturbed the machine somewhere in the matrix
    pressured = [r for r in rows if r["pressure"] == "antagonist"]
    if pressured:
        assert sum(r["reclaimed_keys"] for r in pressured) > 0, (
            "no antagonist cell forced keyspace reclamation"
        )
    # the tier axis really ran through the tier: pressured tier-on
    # cells demote, tier-off cells never do
    tier_pressured = [
        r for r in pressured if r.get("tier", "off") == "on"
    ]
    if tier_pressured:
        assert sum(r["tier_demotions"] for r in tier_pressured) > 0, (
            "no tier-on antagonist cell demoted a single entry"
        )
    for row in rows:
        if row.get("tier", "off") == "off":
            assert row["tier_demotions"] == 0, (
                f"{_cell_key(row)}: tier off yet demotions happened"
            )
    degraded = [r for r in rows if r["pressure"] == "degraded"]
    if degraded:
        assert sum(r["oom_denials"] for r in degraded) > 0, (
            "no degraded cell surfaced an OOM denial"
        )
    # determinism receipt: same preset => same digest in this run
    by_preset: dict[str, str] = {}
    for row in rows:
        existing = by_preset.setdefault(row["preset"], row["stream_digest"])
        assert existing == row["stream_digest"], (
            f"{_cell_key(row)}: stream digest varies within one preset"
        )


def check_regression(rows: list[dict], tolerance: float) -> None:
    """Per-cell relative-throughput gate against the committed matrix."""
    if not os.path.exists(COMMITTED_JSON):
        return
    with open(COMMITTED_JSON) as handle:
        committed = json.load(handle)
    committed_rel = committed["headline"]["relative_throughput"]
    committed_digests = {
        row["preset"]: row["stream_digest"] for row in committed["cells"]
    }
    current = summarize(rows)["relative_throughput"]
    for row in rows:
        # byte-identical streams across machines and runs: the digest
        # committed on the bench machine must reproduce here exactly
        want = committed_digests.get(row["preset"])
        if want is not None:
            assert row["stream_digest"] == want, (
                f"{_cell_key(row)}: operation stream diverged from the "
                f"committed digest — determinism broke"
            )
    for key, relative in current.items():
        baseline = committed_rel.get(key)
        if baseline is None:
            continue
        # A cell that happened to out-run its own in-run baseline on
        # the bench machine was lucky, not faster — cap so luck cannot
        # raise the bar beyond the baseline itself.
        baseline = min(baseline, 1.0)
        if "/none/" in key:
            # Steady-state cells are the regression gate proper: the
            # ratio measures serving-path cost and is stable. The
            # everysec arms carry fsync-timing noise on shared-core
            # machines (see bench_persistence), so they get 2x slack.
            slack = tolerance if "/off/" in key else 2.0 * tolerance
            floor = baseline * (1.0 - slack)
        else:
            # Pressure cells measure reclamation *behavior* — check
            # structure already asserts reclaims / demotions / OOM
            # denials happened. Their throughput ratio is dominated by
            # wave-timing luck and swings 2x between runs, so only a
            # wide sanity floor guards against collapse.
            floor = baseline * 0.35
        assert relative >= floor, (
            f"cell {key}: relative throughput {relative:.3f} fell "
            f"below the floor {floor:.3f} derived from the committed "
            f"{baseline:.3f}"
        )


def test_scenario_matrix(benchmark):
    seconds = float(os.environ.get("BENCH_SCENARIOS_SECONDS", "0.2"))
    presets = _axis("BENCH_SCENARIOS_PRESETS", SMOKE_PRESETS)
    pressures = _axis("BENCH_SCENARIOS_PRESSURES", SMOKE_PRESSURES)
    persists = _axis("BENCH_SCENARIOS_PERSISTS", SMOKE_PERSISTS)
    tiers = _axis("BENCH_SCENARIOS_TIERS", SMOKE_TIERS)

    def measure():
        return run_matrix(presets, pressures, persists, seconds, tiers)

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    headline = summarize(rows)
    print_table(rows)

    json_path = os.environ.get("BENCH_SCENARIOS_JSON")
    if json_path:
        write_json(rows, headline, json_path, seconds)

    check_structure(rows)
    tolerance = float(
        os.environ.get("BENCH_SCENARIOS_MAX_REGRESSION", "0.10")
    )
    check_regression(rows, tolerance)


def main() -> None:
    seconds = float(os.environ.get("BENCH_SCENARIOS_SECONDS", "1.0"))
    presets = _axis("BENCH_SCENARIOS_PRESETS", FULL_PRESETS)
    pressures = _axis("BENCH_SCENARIOS_PRESSURES", FULL_PRESSURES)
    persists = _axis("BENCH_SCENARIOS_PERSISTS", FULL_PERSISTS)
    tiers = _axis("BENCH_SCENARIOS_TIERS", FULL_TIERS)
    rows = run_matrix(presets, pressures, persists, seconds, tiers)
    headline = summarize(rows)
    print_table(rows)
    check_structure(rows)
    path = os.environ.get("BENCH_SCENARIOS_JSON", COMMITTED_JSON)
    write_json(rows, headline, path, seconds)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
