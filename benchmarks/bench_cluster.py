"""Sharded serving plane: cluster-client overhead, MOVED rate, scaling.

Three questions, one benchmark:

1. **Routing overhead** — against a *single* shard process, how much
   throughput does :class:`ClusterKvClient` (slot hashing, per-burst
   grouping) give up versus a raw :class:`TcpKvClient` on the same
   socket? Gate: ≥ 0.85× (the client must be nearly free when there is
   nothing to route around).
2. **Warm MOVED rate** — with the slot map learned, what fraction of
   commands still eat a redirect? Gate: < 0.1% (the map is static, so
   a warm client should essentially never be redirected).
3. **Shard scaling** — aggregate pipelined throughput against 1, 2 and
   4 shard *processes*, one driver process per shard. Each shard is a
   full CPython interpreter, so this is the one number the GIL cannot
   cap. Asserted only when the host has the cores to show it
   (``os.cpu_count() >= 4``: 4-shard ≥ 2.5× 1-shard); on the 1-CPU CI
   container the shards time-slice one core and the ratio is
   meaningless, so it is recorded but not gated.

Configuration: ``BENCH_CLUSTER_SECONDS`` — seconds per measurement
(default 0.25 under pytest: CI-smoke scale; the committed
``BENCH_cluster.json`` uses 2.0). Only ``main()`` writes that file. The
overhead ratio is also held within 10% of the committed one — a ratio
of two runs on the same host, so it transfers across machines.

Run:  pytest benchmarks/bench_cluster.py --benchmark-only -q -s
or:   python benchmarks/bench_cluster.py   (full budget, writes
      BENCH_cluster.json in the repo root)
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import time

from repro.kvstore import TcpKvClient
from repro.kvstore.cluster.client import ClusterKvClient
from repro.kvstore.cluster.supervisor import ClusterSupervisor

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMITTED_JSON = os.path.join(REPO_ROOT, "BENCH_cluster.json")

DEPTH = 64  # pipelined commands per burst
KEYSPACE = 512  # distinct keys per driver, spread over all slots
SCALING_SHARDS = (1, 2, 4)
OVERHEAD_FLOOR = 0.85
MOVED_CEILING = 0.001
SCALING_FLOOR = 2.5  # 4 shards vs 1, multi-core hosts only
MAX_REGRESSION = 0.10  # overhead ratio vs the committed JSON


def _burst(prefix: str, offset: int) -> list[tuple]:
    """One pipelined batch: alternating SET/GET over a rolling window."""
    commands = []
    for i in range(DEPTH):
        key = f"{prefix}:{(offset + i) % KEYSPACE}".encode()
        if i % 2 == 0:
            commands.append((b"SET", key, b"v" * 64))
        else:
            commands.append((b"GET", key))
    return commands


def _drive(client, seconds: float, prefix: str) -> int:
    """Pipelined bursts until the deadline; returns commands completed."""
    ops = 0
    offset = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        replies = client.execute_pipeline(*_burst(prefix, offset))
        ops += len(replies)
        offset += DEPTH
    return ops


def bench_overhead(seconds: float) -> dict:
    """Direct vs cluster client against the same single shard process."""
    with ClusterSupervisor(1, soft_capacity_pages=8192) as supervisor:
        address = supervisor.addresses[0]
        with TcpKvClient(address) as direct:
            _drive(direct, seconds / 4, "warm")  # JIT sockets + store
            t0 = time.perf_counter()
            direct_ops = _drive(direct, seconds, "d")
            direct_elapsed = time.perf_counter() - t0
        with ClusterKvClient([address]) as routed:
            _drive(routed, seconds / 4, "warm")
            t0 = time.perf_counter()
            routed_ops = _drive(routed, seconds, "d")
            routed_elapsed = time.perf_counter() - t0
    direct_rate = direct_ops / direct_elapsed
    routed_rate = routed_ops / routed_elapsed
    return {
        "direct_ops_per_sec": round(direct_rate, 1),
        "cluster_client_ops_per_sec": round(routed_rate, 1),
        "overhead_ratio": round(routed_rate / direct_rate, 4),
    }


def bench_moved_rate(seconds: float) -> dict:
    """Redirect rate of a warm client against a 2-shard cluster."""
    with ClusterSupervisor(2, soft_capacity_pages=8192) as supervisor:
        with ClusterKvClient(supervisor.addresses) as client:
            _drive(client, seconds / 4, "warm")  # learn the map
            client.moved_redirects = 0
            client.commands_sent = 0
            _drive(client, seconds, "m")
            sent = max(1, client.commands_sent)
            return {
                "commands": client.commands_sent,
                "moved_redirects": client.moved_redirects,
                "moved_rate": round(client.moved_redirects / sent, 6),
            }


def _scaling_driver(address, seconds, prefix, results):
    """One driver process hammering one shard directly."""
    with TcpKvClient(address, timeout=30.0) as client:
        _drive(client, seconds / 4, "warm-" + prefix)
        results.put(_drive(client, seconds, prefix))


def bench_scaling(seconds: float) -> list[dict]:
    """Aggregate ops/s with one driver process per shard process."""
    rows = []
    for shards in SCALING_SHARDS:
        with ClusterSupervisor(
            shards, soft_capacity_pages=8192 * shards
        ) as supervisor:
            results: "mp.Queue" = mp.Queue()
            drivers = [
                mp.Process(
                    target=_scaling_driver,
                    args=(address, seconds, f"s{i}", results),
                )
                for i, address in enumerate(supervisor.addresses)
            ]
            t0 = time.perf_counter()
            for driver in drivers:
                driver.start()
            ops = 0
            for _ in drivers:
                ops += results.get(timeout=60 + 10 * seconds)
            elapsed = time.perf_counter() - t0
            for driver in drivers:
                driver.join(timeout=30)
        rows.append(
            {
                "shards": shards,
                "ops": ops,
                "ops_per_sec": round(ops / elapsed, 1),
            }
        )
    return rows


def run_suite(seconds: float) -> dict:
    overhead = bench_overhead(seconds)
    moved = bench_moved_rate(seconds)
    scaling = bench_scaling(seconds)
    single = scaling[0]["ops_per_sec"]
    quad = scaling[-1]["ops_per_sec"]
    return {
        "benchmark": "bench_cluster",
        "seconds_per_measurement": seconds,
        "cpu_count": os.cpu_count(),
        "pipeline_depth": DEPTH,
        "headline": {
            "overhead_ratio": overhead["overhead_ratio"],
            "moved_rate": moved["moved_rate"],
            "scaling_4x_over_1x": round(quad / single, 2) if single else None,
        },
        "overhead": overhead,
        "moved": moved,
        "scaling": scaling,
    }


def print_table(doc: dict) -> None:
    print("\n")
    print("=" * 72)
    print("Sharded serving plane (pipeline depth "
          f"{doc['pipeline_depth']}, {doc['cpu_count']} CPUs)")
    print("-" * 72)
    overhead = doc["overhead"]
    print(f"cluster-client overhead: {overhead['overhead_ratio']:.3f}x "
          f"({overhead['cluster_client_ops_per_sec']:.0f} vs "
          f"{overhead['direct_ops_per_sec']:.0f} ops/s direct)")
    moved = doc["moved"]
    print(f"warm MOVED rate: {moved['moved_rate']:.4%} "
          f"({moved['moved_redirects']} of {moved['commands']})")
    for row in doc["scaling"]:
        print(f"{row['shards']} shard(s): {row['ops_per_sec']:>10.0f} ops/s")
    print(f"4-shard / 1-shard: {doc['headline']['scaling_4x_over_1x']}x")
    print("=" * 72)


def write_json(doc: dict, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")


def _assert_gates(doc: dict) -> None:
    headline = doc["headline"]
    assert headline["overhead_ratio"] >= OVERHEAD_FLOOR, (
        f"cluster client costs too much: {headline['overhead_ratio']:.3f}x "
        f"of direct (floor {OVERHEAD_FLOOR})"
    )
    assert headline["moved_rate"] < MOVED_CEILING, (
        f"warm client still redirected {headline['moved_rate']:.4%} "
        f"of commands (ceiling {MOVED_CEILING:.1%})"
    )
    cpus = os.cpu_count() or 1
    if cpus >= 4:
        assert headline["scaling_4x_over_1x"] >= SCALING_FLOOR, (
            f"4 shard processes only {headline['scaling_4x_over_1x']}x one "
            f"shard on a {cpus}-CPU host (floor {SCALING_FLOOR})"
        )
    elif cpus < 2:
        # single-core container: shards time-slice one CPU; the ratio
        # is recorded in the JSON but proves nothing about scaling
        pass

    if not os.path.exists(COMMITTED_JSON):
        return  # fresh tree: nothing committed to gate against
    with open(COMMITTED_JSON) as handle:
        committed = json.load(handle)
    # the overhead ratio is same-host-relative, so it transfers across
    # machines; absolute ops/s do not and are informational only
    floor = committed["headline"]["overhead_ratio"] * (1 - MAX_REGRESSION)
    assert headline["overhead_ratio"] >= floor, (
        f"overhead ratio regressed beyond {MAX_REGRESSION:.0%}: "
        f"{headline['overhead_ratio']:.3f} vs committed "
        f"{committed['headline']['overhead_ratio']:.3f}"
    )


def test_cluster_serving(benchmark):
    seconds = float(os.environ.get("BENCH_CLUSTER_SECONDS", "0.25"))

    def measure():
        return run_suite(seconds)

    doc = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_table(doc)
    _assert_gates(doc)


def main() -> None:
    seconds = float(os.environ.get("BENCH_CLUSTER_SECONDS", "2.0"))
    doc = run_suite(seconds)
    print_table(doc)
    write_json(doc, COMMITTED_JSON)
    print(f"wrote {COMMITTED_JSON}")
    _assert_gates(doc)


if __name__ == "__main__":
    main()
