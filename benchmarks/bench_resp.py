"""RESP codec micro-benchmark: parse and encode ns/op, printed.

A reporter, not a gate: nanoseconds on a shared box move by more than
any regression worth catching, so what holds the codec to its cost is
the bytecode census over these same batches,
``tests/kvstore/test_resp_census.py``. The serving numbers of record
are ``benchmarks/e2e``'s.

Scenarios (ns per command / per reply):

* ``parse_small``   — the headline: 64-deep pipelined SET/GET batches
  through ``RespParser.parse_pipeline`` (the event-loop serving path).
* ``parse_large_zero_copy`` — 4 KiB SET payloads with the server's
  zero-copy threshold, so bulk bodies come out as memoryviews.
* ``parse_binary_crlf`` — 256 B binary SET payloads that contain CRLF,
  which no ``$len`` header certifies: every value is read by position.
* ``parse_wide_mset`` — ``*41`` MSETs: a multi-digit count and a frame
  wider than the tokeniser's smallest window.
* ``parse_mixed_sets`` — 16 SETs whose values climb a ladder from 16 B
  to 5 KiB, with the server's zero-copy threshold: window edges fall
  inside frames, and only the one value larger than the tokeniser's
  widest window comes out as a memoryview.
* ``parse_generic`` — the same small batch through the recursive
  fallback parser (``use_fast_path=False``), for comparison.
* ``encode_mixed``  — ``encode_reply_into`` over the reply mix a
  SET/GET workload produces (interned +OK, bulk, int, null).

Run:  python benchmarks/bench_resp.py   (with ``repro`` importable)
"""

from __future__ import annotations

import timeit

from repro.kvstore.resp import OK, RespParser, encode_command, encode_reply_into
from repro.kvstore.server import ZERO_COPY_THRESHOLD

#: pipeline depth of the parse workloads (the serving headline's depth
#: is 16; 64 keeps the loop hot long enough to time cleanly)
BATCH_DEPTH = 64
LARGE_VALUE_SIZE = 4096
BINARY_VALUE = (bytes(range(48, 110)) + b"\r\n") * 4
#: ``parse_mixed_sets``' value sizes: a ladder from 16 B to one value
#: past the tokeniser's 4 KiB window
MIXED_VALUE_SIZES = (
    16, 32, 64, 128, 192, 256, 320, 384, 448, 512, 1024, 1536, 2048,
    2560, 3584, 5120,
)


def _best_of(func) -> float:
    """Seconds per call: the best of five loops, each sized by
    ``timeit`` to run for at least 0.2 s, so cheap ops (the ~100 ns
    encode path) and expensive ones get the same wall time per sample."""
    timer = timeit.Timer(func)
    number, __ = timer.autorange()
    return min(timer.repeat(5, number)) / number


# ----------------------------------------------------------------------
# workloads (the census counts these same batches)
# ----------------------------------------------------------------------


def small_batch() -> tuple[bytes, int]:
    parts = []
    for i in range(BATCH_DEPTH):
        if i % 2 == 0:
            parts.append(encode_command("SET", f"k{i % 16}", f"value-{i}"))
        else:
            parts.append(encode_command("GET", f"k{(i - 1) % 16}"))
    return b"".join(parts), BATCH_DEPTH


def large_batch() -> tuple[bytes, int]:
    body = b"x" * LARGE_VALUE_SIZE
    parts = [encode_command("SET", f"big{i}", body) for i in range(8)]
    return b"".join(parts), 8


def binary_batch() -> tuple[bytes, int]:
    parts = [encode_command("SET", f"bin{i}", BINARY_VALUE) for i in range(16)]
    return b"".join(parts), 16


def wide_batch() -> tuple[bytes, int]:
    pairs = [f"k{j}" if j % 2 == 0 else f"value-{j}" for j in range(40)]
    return encode_command("MSET", *pairs) * 8, 8


def mixed_batch() -> tuple[bytes, int]:
    parts = [
        encode_command("SET", f"mix{i}", b"m" * size)
        for i, size in enumerate(MIXED_VALUE_SIZES)
    ]
    return b"".join(parts), len(parts)


def reply_mix() -> list:
    """The replies a SET/GET batch produces: +OK, bulk, int, null."""
    return [(OK, b"value-%d" % i, i, None)[i % 4] for i in range(BATCH_DEPTH)]


def _parse_cost_ns(
    payload: bytes,
    commands: int,
    *,
    zero_copy_threshold: int | None = None,
    use_fast_path: bool = True,
) -> float:
    parser = RespParser(
        zero_copy_threshold=zero_copy_threshold,
        use_fast_path=use_fast_path,
    )
    frames: list[object] = []

    if use_fast_path:
        def run() -> None:
            parser.feed(payload)
            parser.parse_pipeline(frames)
            frames.clear()
    else:
        def run() -> None:
            parser.feed(payload)
            while parser.parse_one() is not None:
                pass

    run()  # warm the buffer to steady-state capacity
    return 1e9 * _best_of(run) / commands


def _encode_cost_ns() -> float:
    replies = reply_mix()
    out = bytearray()

    def run() -> None:
        for reply in replies:
            encode_reply_into(out, reply)
        out.clear()

    return 1e9 * _best_of(run) / len(replies)


def run_suite() -> dict[str, float]:
    """ns per command (per reply, for the encode mix)."""

    def as_served(batch: tuple[bytes, int]) -> float:
        return _parse_cost_ns(*batch, zero_copy_threshold=ZERO_COPY_THRESHOLD)

    return {
        "parse_small": _parse_cost_ns(*small_batch()),
        "parse_large_zero_copy": as_served(large_batch()),
        "parse_binary_crlf": as_served(binary_batch()),
        "parse_wide_mset": as_served(wide_batch()),
        "parse_mixed_sets": as_served(mixed_batch()),
        "parse_generic": _parse_cost_ns(*small_batch(), use_fast_path=False),
        "encode_mixed": _encode_cost_ns(),
    }


def print_table(metrics: dict[str, float]) -> None:
    print("=" * 40)
    print(f"{'scenario':>24} {'ns/op':>10}")
    for key, ns in metrics.items():
        print(f"{key:>24} {ns:>10.1f}")
    print("-" * 40)
    gain = metrics["parse_generic"] / metrics["parse_small"]
    print(f"fast path parses the small batch {gain:.2f}x faster "
          f"than the generic parser")
    print("=" * 40)


if __name__ == "__main__":
    print_table(run_suite())
