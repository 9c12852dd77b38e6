"""Testing the paper's closing conjecture (section 5).

"It is worth noting that our current prototype SMA is a simple textbook
memory allocator without optimizations; adding soft memory
functionality to a state-of-the-art allocator such as jemalloc or
TCMalloc would likely further improve performance."

We run a mixed-size server churn workload (where fit policy and free
coalescing actually matter; the uniform 1 KiB stress case is too kind
to a bump-style extent allocator) on both allocator cores — the
textbook extent placer and the TCMalloc-style size-class slab placer —
for the SMA and for the plain system allocator, and check two things:

1. the slab core is absolutely cheaper for both (state-of-the-art helps
   everyone);
2. the SMA-over-baseline overhead ratio does not get worse on the
   cheaper core — soft memory composes with allocator quality, which is
   what the conjecture needs to be true.

Cost is the bytecodes the churn executes (``opcodes``, the census
``tests/kvstore/test_batch_census.py`` counts a batch with): the same
count on any box, so the asserts cannot flake on a busy one. One timed
run of each is printed beside it, and asserts nothing.

Run:  pytest benchmarks/bench_allocator_classes.py --benchmark-only -q -s
"""

from __future__ import annotations

import random
import time

from repro.core.sma import SoftMemoryAllocator
from repro.mem.placer import PagePlacer
from repro.mem.sizeclass import SizeClassPlacer
from repro.mem.sysalloc import SystemAllocator
from repro.sim.workload import allocation_sizes
from tests.kvstore.test_batch_census import opcodes

OPS = 4_800
HOLD = 400
SIZES = allocation_sizes(OPS, size=512, jitter=0.9, seed=13)
CORES = {
    "textbook-extent": PagePlacer,
    "size-class-slab": SizeClassPlacer,
}


def run_sma(placer_cls) -> None:
    rng = random.Random(5)
    sma = SoftMemoryAllocator(
        name="bench",
        initial_budget_pages=OPS,  # ample budget: measure the allocator
        placer_factory=placer_cls,
    )
    ctx = sma.create_context("data")
    live = []
    for size in SIZES:
        if len(live) > HOLD:
            sma.soft_free(live.pop(rng.randrange(len(live))))
        live.append(sma.soft_malloc(size, ctx))


def run_baseline(placer_cls) -> None:
    rng = random.Random(5)
    alloc = SystemAllocator(placer=placer_cls("bench"))
    live = []
    for size in SIZES:
        if len(live) > HOLD:
            alloc.free(live.pop(rng.randrange(len(live))))
        live.append(alloc.malloc(size))


def _timed(fn, arg) -> float:
    start = time.perf_counter()
    fn(arg)
    return time.perf_counter() - start


def test_allocator_core_conjecture(benchmark):
    def measure():
        # 3.12 reports no opcode in the first tracing session of a process
        opcodes(lambda: None)
        return {
            name: {
                "baseline": opcodes(run_baseline, placer_cls),
                "sma": opcodes(run_sma, placer_cls),
            }
            for name, placer_cls in CORES.items()
        }

    counts = benchmark.pedantic(measure, rounds=1, iterations=1)
    seconds = {
        name: (_timed(run_baseline, placer_cls), _timed(run_sma, placer_cls))
        for name, placer_cls in CORES.items()
    }
    ratio = {name: row["sma"] / row["baseline"] for name, row in counts.items()}

    print("\n")
    print("=" * 74)
    print(f"Allocator-core ablation: {OPS} mixed-size churn ops "
          f"(~{HOLD} live), Mbytecodes (seconds)")
    print("-" * 74)
    print(f"{'core':<18} {'baseline':>16} {'SMA':>16} {'SMA/baseline':>13}")
    for name, row in counts.items():
        base_s, sma_s = seconds[name]
        print(f"{name:<18} {row['baseline'] / 1e6:>7.2f} ({base_s:.3f}) "
              f"{row['sma'] / 1e6:>7.2f} ({sma_s:.3f}) {ratio[name]:>12.3f}x")
    textbook, slab = counts["textbook-extent"], counts["size-class-slab"]
    print("-" * 74)
    print(f"slab core saves: baseline "
          f"{textbook['baseline'] / slab['baseline']:.2f}x, "
          f"SMA {textbook['sma'] / slab['sma']:.2f}x")
    print("=" * 74)

    # The conjecture holds if the better allocator makes the soft-memory
    # system absolutely cheaper...
    assert slab["sma"] < textbook["sma"]
    assert slab["baseline"] < textbook["baseline"]
    # ...without the soft machinery's relative overhead exploding.
    assert ratio["size-class-slab"] < ratio["textbook-extent"] * 1.5
