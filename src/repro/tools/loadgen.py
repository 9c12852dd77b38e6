"""CLI for the workload engine: generate, record, replay, drive.

Modes (combine freely):

* dry run (default) — synthesize ops and print a shape summary, no
  server needed: ``python -m repro.tools.loadgen --preset ycsb-b
  --seed 7 --ops 10000``
* record — write a replayable trace file: ``--record trace.lg``
* replay — read batches from a trace instead of synthesizing:
  ``--replay trace.lg``
* drive — send the stream to a live server and print a JSON report:
  ``--addr 127.0.0.1:6379`` (repeat ``--addr`` for a cluster; the
  slot-routing client is used automatically when more than one address
  is given or ``--cluster`` is passed).

Everything is deterministic: the same ``--preset`` and ``--seed``
produce byte-identical operation streams (``--digest`` prints the
SHA-256 receipt over the first 2048 encoded ops).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.loadgen.driver import drive
from repro.loadgen.engine import OperationStream, stream_digest
from repro.loadgen.spec import PRESETS, preset
from repro.loadgen.trace import read_trace, record_trace, trace_spec
from repro.tools.metrics_dump import parse_addr


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.loadgen",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument(
        "--preset",
        default="ycsb-b",
        help=f"workload preset ({', '.join(sorted(PRESETS))})",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--ops", type=int, default=10_000,
        help="operation budget for dry runs / recording / driving",
    )
    parser.add_argument(
        "--record", metavar="PATH",
        help="write the generated stream to a replayable trace file",
    )
    parser.add_argument(
        "--replay", metavar="PATH",
        help="take batches from a trace file instead of synthesizing",
    )
    parser.add_argument(
        "--addr", action="append", metavar="HOST:PORT",
        help="drive a live server (repeat for cluster startup nodes)",
    )
    parser.add_argument(
        "--cluster", action="store_true",
        help="use the slot-routing cluster client even for one --addr",
    )
    parser.add_argument(
        "--prefill", action="store_true",
        help="run the YCSB load phase (SET every key once) before driving",
    )
    parser.add_argument(
        "--digest", action="store_true",
        help="print the stream's determinism digest and exit",
    )
    parser.add_argument(
        "--list-presets", action="store_true",
        help="print the preset table and exit",
    )
    return parser


def _list_presets() -> None:
    for name in sorted(PRESETS):
        spec = PRESETS[name]
        mix = " ".join(f"{verb}:{weight:g}" for verb, weight in spec.mix)
        print(
            f"{name:12s} keys={spec.keyspace:<6d} dist={spec.key_dist:<17s}"
            f" values={spec.value_dist:<9s} mix=[{mix}]"
        )


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.list_presets:
        _list_presets()
        return 0

    if args.replay:
        meta, batches = read_trace(args.replay)
        spec = trace_spec(meta)
        seed = meta["seed"]
        batch_source = iter(batches)
        op_budget = meta["ops"]
    else:
        spec = preset(args.preset)
        seed = args.seed
        stream = OperationStream(spec, seed)
        batch_source = stream.batches()
        op_budget = args.ops

    if args.digest:
        print(stream_digest(spec, seed))
        return 0

    if args.record:
        stream = OperationStream(spec, seed)  # fresh: record from op 0
        # batch count that covers the op budget at the *minimum* depth
        budget, batches_needed = 0, 0
        probe = OperationStream(spec, seed)
        for batch in probe.batches():
            budget += len(batch)
            batches_needed += 1
            if budget >= op_budget:
                break
        meta = record_trace(args.record, stream, batches=batches_needed)
        print(
            f"recorded {meta['ops']} ops / {meta['batches']} batches of "
            f"{spec.name!r} (seed {seed}) -> {args.record}"
        )
        return 0

    if args.addr:
        addresses = [parse_addr(spec_str) for spec_str in args.addr]
        if args.cluster or len(addresses) > 1:
            from repro.kvstore.cluster import ClusterKvClient

            client = ClusterKvClient(addresses)
        else:
            from repro.kvstore.client import TcpKvClient

            client = TcpKvClient(addresses[0])
        try:
            if args.prefill and not args.replay:
                # the prefill's RNG draws are part of the stream's
                # deterministic history: measured batches continue the
                # same OperationStream that loaded the keys
                prefill_stream = OperationStream(spec, seed)
                drive(
                    client,
                    prefill_stream.prefill_batches(),
                    max_ops=spec.keyspace,
                )
                batch_source = prefill_stream.batches()
            report = drive(client, batch_source, max_ops=op_budget)
        finally:
            client.close()
        document = {
            "preset": spec.name,
            "seed": seed,
            "source": args.replay or "generated",
            "report": report.as_dict(),
        }
        print(json.dumps(document, indent=2))
        return 0

    # dry run: synthesize and summarize without touching a server
    ops = 0
    batches = 0
    verbs: dict[str, int] = {}
    value_bytes = 0
    depth_hist: dict[int, int] = {}
    for batch in batch_source:
        batches += 1
        depth_hist[len(batch)] = depth_hist.get(len(batch), 0) + 1
        for op in batch:
            ops += 1
            verb = op[0].decode().lower()
            verbs[verb] = verbs.get(verb, 0) + 1
            if verb == "set":
                value_bytes += len(op[2])
            elif verb == "mset":
                value_bytes += sum(len(part) for part in op[2::2])
        if ops >= op_budget:
            break
    print(json.dumps({
        "preset": spec.name,
        "seed": seed,
        "ops": ops,
        "batches": batches,
        "verbs": dict(sorted(verbs.items())),
        "value_bytes_written": value_bytes,
        "depth_histogram": {
            str(depth): count
            for depth, count in sorted(depth_hist.items())
        },
        "digest": stream_digest(spec, seed),
    }, indent=2))
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
