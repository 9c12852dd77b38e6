"""The RESP codec's cost, in bytecodes: counted, no clock.

The batches ``benchmarks/bench_resp.py`` times — five parse scenarios
and one encode mix — each counted per command (or per reply) with
:func:`~tests.kvstore.test_batch_census.opcodes` over one steady-state
batch, the parser's window already settled on it:

* ``parse_small`` — 64-deep pipelined SET/GET, the serving headline;
* ``parse_large_zero_copy`` — 4 KiB SET payloads at the server's
  zero-copy threshold, so bulk bodies come out as memoryviews;
* ``parse_binary_crlf`` — 256 B SET payloads with CRLF inside, which
  no ``$len`` header certifies: every value is read by position;
* ``parse_wide_mset`` — ``*41`` MSETs, wider than the smallest window;
* ``parse_mixed_sets`` — SET values on a ladder from 16 B to 5 KiB at
  the server's threshold: every value a window holds certifies, and a
  window edge inside a frame does not narrow the next window;
* ``encode_mixed`` — ``encode_reply_into`` over the reply mix a SET/GET
  workload produces (interned +OK, bulk, int, null).

Each is held to :data:`GROWTH` times the largest count the tree that
introduced the scenario read on CPython 3.10, 3.11 and 3.12
(:data:`CEILING`), and the batch fast path must cost at most
``1 / FAST_PATH_GAIN`` of the recursive generic parser on the small
batch. Every parse is checked to have produced all its commands, so a
fast path that stops parsing cannot pass as a cheap one.

EXPERIMENTS.md shows the census red under planted regressions. It also
runs as a script, for interpreters without pytest:
``PYTHONPATH=src python -m tests.kvstore.test_resp_census``.
"""

from __future__ import annotations

import sys

from benchmarks.bench_resp import (
    binary_batch,
    large_batch,
    mixed_batch,
    reply_mix,
    small_batch,
    wide_batch,
)
from repro.kvstore.resp import PIPELINE_FALLBACK, RespParser, encode_reply_into
from repro.kvstore.server import ZERO_COPY_THRESHOLD
from tests.kvstore.test_batch_census import opcodes

#: scenario -> (batch, zero-copy threshold) through the batch fast path
PARSES = {
    "parse_small": (small_batch, None),
    "parse_large_zero_copy": (large_batch, ZERO_COPY_THRESHOLD),
    "parse_binary_crlf": (binary_batch, ZERO_COPY_THRESHOLD),
    "parse_wide_mset": (wide_batch, ZERO_COPY_THRESHOLD),
    "parse_mixed_sets": (mixed_batch, ZERO_COPY_THRESHOLD),
}
#: each scenario's largest count over CPython 3.10 / 3.11 / 3.12 when
#: it was added (3.11's, for every one), rounded up
CEILING = {
    "parse_small": 107.6,
    "parse_large_zero_copy": 318.9,
    "parse_binary_crlf": 298.2,
    "parse_wide_mset": 818.2,
    "encode_mixed": 37.5,
    "parse_mixed_sets": 166.5,
}
GROWTH = 1.10
FAST_PATH_GAIN = 1.15


def per_command(run, commands: int) -> float:
    # 3.12 reports no opcode in the first tracing session of a process
    opcodes(run)
    return opcodes(run) / commands


def parse_cost(scenario: str, **parser_options) -> float:
    """One batch fed and drained the way ``KvServer.pump`` drains it, on
    a parser whose window has settled on that batch."""
    batch, threshold = PARSES[scenario]
    payload, commands = batch()
    parser = RespParser(zero_copy_threshold=threshold, **parser_options)
    frames: list = []

    def run() -> None:
        parser.feed(payload)
        while parser.parse_pipeline(frames) == PIPELINE_FALLBACK and (
            frame := parser.parse_one()
        ) is not None:
            frames.append(frame)
        assert len(frames) == commands and not parser.buffered_bytes
        frames.clear()

    for __ in range(3):
        run()
    return per_command(run, commands)


def encode_cost() -> float:
    replies = reply_mix()
    out = bytearray()

    def run() -> None:
        for reply in replies:
            encode_reply_into(out, reply)
        out.clear()

    return per_command(run, len(replies))


def census() -> dict[str, float]:
    """Bytecodes per command (per reply, for the encode mix)."""
    counts = {scenario: parse_cost(scenario) for scenario in PARSES}
    counts["encode_mixed"] = encode_cost()
    counts["parse_generic"] = parse_cost("parse_small", use_fast_path=False)
    return counts


def test_every_scenario_stays_within_its_ceiling():
    counts = census()
    over = {
        scenario: round(counts[scenario], 1)
        for scenario, ceiling in CEILING.items()
        if counts[scenario] > GROWTH * ceiling
    }
    assert not over, f"bytecodes per command past {GROWTH} x CEILING: {over}"


def test_the_fast_path_pays_for_itself():
    fast = parse_cost("parse_small")
    generic = parse_cost("parse_small", use_fast_path=False)
    assert fast <= generic / FAST_PATH_GAIN


if __name__ == "__main__":
    counts = census()
    generic = counts.pop("parse_generic")
    for scenario, cost in counts.items():
        bound = GROWTH * CEILING[scenario]
        verdict = "ok" if cost <= bound else "RED"
        print(f"{sys.version.split()[0]} {scenario}: {cost:.1f} "
              f"(bound {bound:.1f}) {verdict}")
    gain = generic / counts["parse_small"]
    verdict = "ok" if gain >= FAST_PATH_GAIN else "RED"
    print(f"{sys.version.split()[0]} generic {generic:.1f}: fast path "
          f"{gain:.2f}x fewer (bound {FAST_PATH_GAIN}) {verdict}")
