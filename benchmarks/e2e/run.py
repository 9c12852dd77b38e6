"""The repo's one benchmark: ``python3 benchmarks/e2e/run.py``.

With ``--workload`` it makes one run and ends with one JSON line (the
contract ``BENCHMARK.json`` describes); without, it runs all four
workloads untraced and traced and prints every metric by name.
``--selfcheck`` does that twice and compares. README.md beside this
file defines the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import harness

SPEC_PATH = os.path.join(harness.ROOT, "BENCHMARK.json")
#: user-visible metrics that exist on one workload only. BENCHMARK.json
#: must list them under ``per_layer`` (an end-to-end metric has to exist,
#: and never be 0, on every workload), where a metric carries no bound —
#: so their bounds, the issue's, live here: metric -> (its workload, how
#: far the median may worsen). ``--selfcheck`` holds them to it.
OWN_WORKLOAD_BOUNDS = {
    "reclaim_ms_per_page": ("reclaim_pressure", 0.20),
    "recovery_s": ("write_durable_repl", 0.25),
}


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def declared(spec: dict, trace: bool) -> dict[str, dict]:
    """name -> declaration of the metrics one mode must print."""
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {entry["name"]: entry for entry in section}


def run_one(spec, workload_name, seed, seconds, trace, quick):
    """One run; removes its run directory unless it failed."""
    from bench import run
    from traced import run_traced
    from workloads import WORKLOADS

    run_dir = os.path.join(harness.HERE, ".run", f"{os.getpid()}")
    try:
        result = (run_traced if trace else run)(
            WORKLOADS[workload_name], seed, seconds, run_dir, quick
        )
    except harness.BenchError as exc:
        print(f"FAILED {workload_name}: {exc} (logs in {run_dir})")
        raise
    missing = set(declared(spec, trace)) - set(result.metrics)
    if missing:
        raise harness.BenchError(f"metrics not measured: {sorted(missing)}")
    if result.correct:
        shutil.rmtree(run_dir, ignore_errors=True)
    return result


def print_result(spec: dict, result, trace: bool) -> None:
    """Every metric of the mode by name, with its unit."""
    names = declared(spec, trace)
    mode = "traced (per-layer)" if trace else "untraced (end-to-end)"
    print(f"== {result.workload}  seed {result.seed}  {mode}")
    for name, entry in names.items():
        flag = "  unresolved" if name in result.unresolved else ""
        print(
            f"  {name:34s} {result.metrics[name]:>14.6g} {entry['unit']}{flag}"
        )
    for name in sorted(set(result.metrics) - set(names)):
        print(f"  ({name:32s} {result.metrics[name]:>14.6g})")
    print(f"  receipt  {json.dumps(result.receipt, sort_keys=True)}")
    for key, value in result.notes.items():
        print(f"  {key}: {value}")
    print("  scaling: unproven (nproc=%d); many-connection fan-out: not covered"
          % (os.cpu_count() or 1))
    for violation in result.violations:
        print(f"  VIOLATION: {violation}")


def contract_line(spec: dict, result, trace: bool) -> str:
    names = declared(spec, trace)
    return json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": result.metrics[name], "unit": entry["unit"]}
            for name, entry in names.items()
        },
    })


def run_set(spec, seed, seconds, quick) -> dict:
    """All workloads, untraced then traced: (workload, trace) -> Result."""
    results = {}
    for workload in spec["workloads"]:
        for trace in (False, True):
            result = run_one(
                spec, workload["name"], seed, seconds, trace, quick
            )
            print_result(spec, result, trace)
            results[workload["name"], trace] = result
    return results


def selfcheck(spec, first: dict, second: dict) -> bool:
    """Two sets of runs of the same code: do they agree within bounds?"""
    print("== selfcheck: end-to-end medians of two sets, against the bounds")
    agree = True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (False, True):
            a, b = first[workload, trace], second[workload, trace]
            if a.receipt != b.receipt:
                agree = False
                print(f"  {workload}: receipts differ\n    {a.receipt}\n"
                      f"    {b.receipt}")
        a, b = first[workload, False], second[workload, False]
        bounded = [
            (entry["name"], entry["better"], entry["bound"])
            for entry in spec["end_to_end"]
        ] + [
            (name, declared(spec, True)[name]["better"], bound)
            for name, (where, bound) in OWN_WORKLOAD_BOUNDS.items()
            if where == workload
        ]
        for name, better, bound in bounded:
            x, y = a.metrics[name], b.metrics[name]
            worse = (y - x) / x if better == "lower" else (x - y) / x
            apart = abs(x - y) / x
            unresolved = name in a.unresolved or name in b.unresolved
            inside = apart <= bound and not unresolved
            agree &= inside
            print(
                f"  {workload:20s} {name:24s} {x:>12.6g} {y:>12.6g} "
                f"apart {apart:7.2%} (second worse by {worse:+7.2%}) "
                f"bound {bound:.1%} "
                f"{'unresolved' if unresolved else 'ok' if inside else 'OUTSIDE'}"
            )
        print(f"  {workload:20s} windows {a.notes.get('closed_windows')} | "
              f"{b.notes.get('closed_windows')}; calib {a.notes.get('calib_ms')}"
              f" | {b.notes.get('calib_ms')}")
    return agree


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one run, ending in a JSON line")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="3 windows per phase; numbers are unresolved")
    parser.add_argument("--selfcheck", action="store_true",
                        help="two full sets back to back, compared")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(harness.SRC, "repro")):
        print(f"nothing to measure: {harness.SRC}/repro is missing",
              file=sys.stderr)
        return 2
    os.chdir(harness.ROOT)  # run directories and sockets are relative to it
    sys.path.insert(0, harness.SRC)
    harness.raise_on_signals()
    harness.pin_to_one_cpu()
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    if args.workload and args.workload not in names:
        parser.error(f"--workload is one of {', '.join(names)}")
    seconds = args.seconds or spec["run_seconds"]
    try:
        if args.workload:
            trace = bool(args.trace)
            result = run_one(
                spec, args.workload, args.seed, seconds, trace, args.quick
            )
            print_result(spec, result, trace)
            print(contract_line(spec, result, trace))
            return 0 if result.correct else 1
        first = run_set(spec, args.seed, seconds, args.quick)
        ok = all(r.correct for r in first.values())
        if args.selfcheck:
            second = run_set(spec, args.seed, seconds, args.quick)
            ok &= all(r.correct for r in second.values())
            ok &= selfcheck(spec, first, second)
        return 0 if ok else 1
    except harness.BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
