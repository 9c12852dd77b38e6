"""The four workloads: what is served, by which processes, at what size.

Every sizing constant lives here with its reason. A workload is a
``WorkloadSpec`` (what the seeded ``OperationStream`` generates), a
topology (which server-side processes exist) and the op counts that
bound its phases — phases are bounded by op count, never by seconds, so
that every count the server reports repeats exactly for a seed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.kvstore.resp import encode_command
from repro.loadgen.engine import OperationStream, stream_digest
from repro.loadgen.spec import WorkloadSpec, preset

#: soft capacity of the machine-wide SMD in ``reclaim_pressure`` (pages)
SMD_CAPACITY_PAGES = 2048
#: pages the antagonist takes per wave: with the ~1,500-page working
#: set this does not fit beside it, so every wave reclaims from the kv
ANTAGONIST_PAGES = 768
#: a wave fires every this many batches, from the driver thread. The
#: daemon over-reclaims a quarter of the kv's pages per demand (~375)
#: and cache-aside refill regrows ~130 pages per 100 batches, so at 300
#: the kv is full again before every wave and every wave reclaims
WAVE_EVERY_BATCHES = 300
#: the antagonist holds its pages for this many batches, then frees
#: them: long enough that the kv serves traffic while squeezed, short
#: enough that the daemon's over-reclaim slack outlasts it and no SET
#: is ever refused (the benchmark's workloads have no failing op)
WAVE_HOLD_BATCHES = 10
#: ``recovery_s`` is the time to READY scaled to a log of this many
#: records. ``--seconds`` fixes a run's duration, not its op count, so
#: the log a run leaves behind is 120-200k records depending on the
#: machine's speed that minute; replay is linear in records (start-up
#: is ~3% of it), so the measured time is put on a fixed log size
RECOVERY_REF_RECORDS = 100_000


@dataclass(frozen=True)
class Workload:
    name: str
    spec: WorkloadSpec
    #: "bare" | "durable_repl" | "smd"
    topology: str
    #: batches in the pre-generated trace segment, which the windows walk
    #: through again and again; set-up ends with one whole pass over it
    segment_batches: int
    #: batches per closed-loop window (0.1-0.2 s of work on this box: the
    #: shorter a window, the less often the machine changes speed inside
    #: it and the more windows a run keeps)
    window_batches: int
    #: open-loop offered rate, under half of closed-loop capacity
    open_rate_ops_s: int
    #: batches per open-loop window (~0.15-0.3 s at the offered rate; the
    #: percentiles are taken over the pooled samples of all windows)
    open_window_batches: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "read_pipelined",
            preset("ycsb-b", keyspace=65536, value_size=128),
            "bare",
            segment_batches=2400,
            window_batches=1200,
            open_rate_ops_s=40_000,
            open_window_batches=500,
        ),
        Workload(
            "point_depth1",
            preset(
                "ycsb-b", keyspace=65536, value_size=128, depths=((1, 1.0),)
            ),
            "bare",
            segment_batches=5000,
            window_batches=5000,
            open_rate_ops_s=10_000,
            open_window_batches=1500,
        ),
        Workload(
            "write_durable_repl",
            preset("write-heavy", keyspace=16384),
            "durable_repl",
            segment_batches=600,
            window_batches=200,
            open_rate_ops_s=6_000,
            open_window_batches=75,
        ),
        Workload(
            "reclaim_pressure",
            preset(
                "ycsb-b",
                keyspace=4096,
                key_dist="uniform",
                value_dist="uniform",
                value_lo=512,
                value_hi=2048,
                compressibility=0.9,
            ),
            "smd",
            segment_batches=600,
            window_batches=300,
            open_rate_ops_s=8_000,
            open_window_batches=75,
        ),
    )
}


@dataclass
class Trace:
    """One seeded segment, pre-encoded, with its exact expected replies."""

    digest: str
    prefill: list[bytes]
    prefill_expected: list[bytes]
    #: parsed ops per batch (the ledger and the pressure driver use them)
    batches: list[list[tuple[bytes, ...]]]
    requests: list[bytes]
    #: replies to the first pass over the segment (from the prefill state)
    expected_first: list[bytes]
    #: replies to every later pass: identical for all of them, because
    #: every write is a pure overwrite and so the state at the end of
    #: pass 1 is the state at the end of every pass
    expected_later: list[bytes]
    #: key -> value after the prefill (reclaim_pressure's oracle starts here)
    prefill_shadow: dict[bytes, bytes]
    #: key -> value after any whole pass
    shadow: dict[bytes, bytes]
    ops: int = 0
    gets: int = 0
    sets: int = 0
    #: key + value bytes of the segment's SETs
    user_bytes: int = 0
    ops_per_batch: list[int] = field(default_factory=list)
    gets_per_batch: list[int] = field(default_factory=list)


_OK = b"+OK\r\n"


def _expected(batches, shadow) -> list[bytes]:
    out = []
    for batch in batches:
        parts = []
        for op in batch:
            if op[0] == b"GET":
                value = shadow[op[1]]
                parts.append(b"$%d\r\n%s\r\n" % (len(value), value))
            else:
                shadow[op[1]] = op[2]
                parts.append(_OK)
        out.append(b"".join(parts))
    return out


def build_trace(workload: Workload, seed: int) -> Trace:
    """Generate, encode and solve one segment of ``workload`` for ``seed``."""
    spec = workload.spec
    stream = OperationStream(spec, seed)
    shadow: dict[bytes, bytes] = {}
    prefill_ops = list(stream.prefill_batches(64))
    prefill = [
        b"".join(encode_command(*op) for op in batch) for batch in prefill_ops
    ]
    prefill_expected = _expected(prefill_ops, shadow)
    prefill_shadow = dict(shadow)
    segment = list(itertools.islice(stream.batches(), workload.segment_batches))
    for batch in segment:
        for op in batch:
            if op[0] not in (b"GET", b"SET") or len(op) > 3:
                raise ValueError(f"the oracle knows GET and SET only: {op[0]!r}")
    trace = Trace(
        digest=stream_digest(spec, seed),
        prefill=prefill,
        prefill_expected=prefill_expected,
        batches=segment,
        requests=[
            b"".join(encode_command(*op) for op in batch) for batch in segment
        ],
        expected_first=_expected(segment, shadow),
        expected_later=_expected(segment, shadow),
        prefill_shadow=prefill_shadow,
        shadow=shadow,
    )
    for batch in segment:
        trace.ops_per_batch.append(len(batch))
        trace.gets_per_batch.append(sum(op[0] == b"GET" for op in batch))
        for op in batch:
            if op[0] == b"SET":
                trace.sets += 1
                trace.user_bytes += len(op[1]) + len(op[2])
    trace.gets = sum(trace.gets_per_batch)
    trace.ops = trace.gets + trace.sets
    return trace
