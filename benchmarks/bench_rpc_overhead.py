"""Case (2) with real IPC: budget amortization over actual sockets.

The paper's case (2) claims daemon communication is "amortized over
many allocations" — measured there with its real multi-process
prototype. Our in-process `bench_stress.py` case (2) models the
round-trips; this bench runs the same workload against the daemon
behind a **real unix domain socket** (`repro.rpc`), so every budget
request is a genuine kernel-crossing round-trip.

Expected shape: with batched requests (64 pages ≈ one round-trip per
256 allocations) the socket-backed SMA stays close to the in-process
one; with batching disabled (1 page per request) the wire cost shows
up — which is exactly *why* the budget protocol batches.

Run:  pytest benchmarks/bench_rpc_overhead.py --benchmark-only -q -s
"""

from __future__ import annotations

import os
import tempfile
import time

from repro.core.locking import LockedSoftMemoryAllocator
from repro.core.sma import SoftMemoryAllocator
from repro.daemon.smd import SoftMemoryDaemon
from repro.rpc import RpcDaemonServer, SmaAgent
from repro.util.units import KIB

ALLOCS = 16_000
SIZE = KIB


def run_in_process(batch: int) -> float:
    smd = SoftMemoryDaemon(soft_capacity_pages=ALLOCS)
    sma = SoftMemoryAllocator(name="local", request_batch_pages=batch)
    smd.register(sma)
    ctx = sma.create_context("data")
    start = time.perf_counter()
    for _ in range(ALLOCS):
        sma.soft_malloc(SIZE, ctx)
    return time.perf_counter() - start


def run_over_socket(batch: int) -> tuple[float, int]:
    """Best-of-two socket runs (matches the baseline's noise filtering)."""
    path = os.path.join(tempfile.mkdtemp(), "smd.sock")
    best = float("inf")
    requests = 0
    with RpcDaemonServer(path, soft_capacity_pages=ALLOCS):
        for _ in range(2):
            sma = LockedSoftMemoryAllocator(name="wire",
                                            request_batch_pages=batch)
            agent = SmaAgent.connect(path, sma)
            ctx = sma.create_context("data")
            start = time.perf_counter()
            for _ in range(ALLOCS):
                sma.soft_malloc(SIZE, ctx)
            best = min(best, time.perf_counter() - start)
            requests = sma.stats.daemon_requests
            # closing deregisters the client: its budget returns to the
            # pool, leaving full capacity for the next round
            agent.close()
    return best, requests


def test_socket_ipc_amortization(benchmark):
    def measure():
        rows = []
        for batch in (64, 8, 1):
            local = min(run_in_process(batch) for _ in range(2))
            wire, requests = run_over_socket(batch)
            rows.append({
                "batch": batch,
                "round_trips": requests,
                "local_s": local,
                "wire_s": wire,
                "overhead": wire / local,
            })
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)

    print("\n")
    print("=" * 70)
    print(f"Case (2) over a real unix socket: {ALLOCS} x 1 KiB allocations")
    print("-" * 70)
    print(f"{'batch':>6} {'round-trips':>12} {'in-process (s)':>15} "
          f"{'socket (s)':>11} {'overhead':>9}")
    for row in rows:
        print(f"{row['batch']:>6} {row['round_trips']:>12} "
              f"{row['local_s']:>15.3f} {row['wire_s']:>11.3f} "
              f"{row['overhead']:>8.2f}x")
    print("=" * 70)

    by_batch = {r["batch"]: r for r in rows}
    # Amortization is the round-trip count: shrinking the batch
    # multiplies it. What that costs in wall time (typically ~1.1x
    # in-process at batch 64, several x at batch 1) is printed, not
    # asserted: the ratios flaked on a busy box (PR 18).
    assert by_batch[1]["round_trips"] > by_batch[64]["round_trips"] * 10
    print(f"batch 1 vs 64: overhead "
          f"{by_batch[1]['overhead'] / by_batch[64]['overhead']:.2f}x, "
          f"wire time {by_batch[1]['wire_s'] / by_batch[64]['wire_s']:.2f}x")
