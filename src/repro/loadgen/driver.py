"""Drive an operation stream against a live server and measure it.

Works with every client in the repo that speaks the pipelining
contract — :class:`~repro.kvstore.client.KvClient` (in-process),
:class:`~repro.kvstore.client.TcpKvClient` (one socket),
:class:`~repro.kvstore.cluster.ClusterKvClient` (slot-routed) — because
all three expose ``execute_pipeline(*commands)`` returning replies in
command order with error replies in place.

The driver never raises on an error *reply*: under soft-memory
pressure OOM denials are the phenomenon being measured, not a test
failure. Errors are classified by prefix (``OOM`` / ``MOVED`` /
``READONLY`` / ``CROSSSLOT`` / other) and tallied in the report.

Read scaling: pass ``replica_client`` and a ``read_from_replica``
fraction to route that share of read ops at a replica. Routing is a
deterministic fractional accumulator (no RNG — the same stream always
routes the same way), and replica reads that come back empty are
*counted* as stale, never raised: replication lag is a phenomenon the
report surfaces, not a driver failure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Protocol

from repro.kvstore.resp import RespError
from repro.loadgen.engine import Op

__all__ = ["DriverReport", "PipelinedClient", "drive"]


class PipelinedClient(Protocol):
    def execute_pipeline(self, *commands: tuple) -> list[object]: ...


#: verbs safe to serve from a read-only replica
_READ_VERBS = frozenset((
    b"GET", b"MGET", b"EXISTS", b"TTL", b"PTTL", b"STRLEN",
    b"HGET", b"HGETALL", b"HLEN", b"LRANGE", b"LLEN", b"LINDEX",
))


def _percentile(samples: list[float], fraction: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


@dataclass
class DriverReport:
    """What one driven run did and how fast it went."""

    ops: int = 0
    batches: int = 0
    elapsed: float = 0.0
    errors: int = 0
    oom_denials: int = 0
    moved_errors: int = 0
    crossslot_errors: int = 0
    readonly_errors: int = 0
    other_errors: int = 0
    #: read ops routed to the replica client
    replica_reads: int = 0
    #: replica-routed reads that returned nothing — an upper bound on
    #: stale reads (the key may be mid-replication or truly absent)
    replica_stale_reads: int = 0
    verbs: dict[str, int] = field(default_factory=dict)
    batch_latencies: list[float] = field(default_factory=list)

    @property
    def ops_per_sec(self) -> float:
        return self.ops / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def batch_p50_ms(self) -> float:
        return 1000 * _percentile(self.batch_latencies, 0.50)

    @property
    def batch_p99_ms(self) -> float:
        return 1000 * _percentile(self.batch_latencies, 0.99)

    def note_reply(self, reply: object) -> None:
        if not isinstance(reply, RespError):
            return
        self.errors += 1
        message = reply.message
        if message.startswith("OOM"):
            self.oom_denials += 1
        elif message.startswith("MOVED"):
            self.moved_errors += 1
        elif message.startswith("CROSSSLOT"):
            self.crossslot_errors += 1
        elif message.startswith("READONLY"):
            # a write landed on a replica: topology skew, not load
            self.readonly_errors += 1
        else:
            self.other_errors += 1

    def as_dict(self) -> dict:
        return {
            "ops": self.ops,
            "batches": self.batches,
            "elapsed_sec": round(self.elapsed, 6),
            "ops_per_sec": round(self.ops_per_sec, 1),
            "batch_p50_ms": round(self.batch_p50_ms, 4),
            "batch_p99_ms": round(self.batch_p99_ms, 4),
            "errors": self.errors,
            "oom_denials": self.oom_denials,
            "moved_errors": self.moved_errors,
            "crossslot_errors": self.crossslot_errors,
            "readonly_errors": self.readonly_errors,
            "other_errors": self.other_errors,
            "replica_reads": self.replica_reads,
            "replica_stale_reads": self.replica_stale_reads,
            "verbs": dict(sorted(self.verbs.items())),
        }


class _ReplicaRouter:
    """Deterministic fractional-accumulator read routing.

    Every read op adds ``fraction``; each time the accumulator crosses
    1 the op goes to the replica. A 0.25 fraction routes exactly every
    fourth read — same stream, same routing, run after run.
    """

    def __init__(self, fraction: float) -> None:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"read_from_replica must be in [0,1]: {fraction}")
        self.fraction = fraction
        self._acc = 0.0

    def takes(self, op: Op) -> bool:
        if op[0].upper() not in _READ_VERBS:
            return False
        self._acc += self.fraction
        if self._acc >= 1.0:
            self._acc -= 1.0
            return True
        return False


def drive(
    client: PipelinedClient,
    batches: Iterable[list[Op]] | Iterator[list[Op]],
    *,
    max_ops: int,
    report: DriverReport | None = None,
    replica_client: PipelinedClient | None = None,
    read_from_replica: float = 0.0,
) -> DriverReport:
    """Send batches until ``max_ops`` ops have gone out.

    The bound is required (the engine's streams are endless) and bounds
    *this call's* ops — accumulating into a shared ``report`` (e.g.
    prefill + measured run in one tally) does not eat a later call's
    budget.
    Replies are counted, classified, and *verified in number*: a
    reply-count mismatch means client/server desync and does raise.

    With ``replica_client`` set, ``read_from_replica`` of the read ops
    are split out of each batch and pipelined at the replica; their
    empty replies count as ``replica_stale_reads`` in the report.
    """
    if replica_client is None and read_from_replica:
        raise ValueError("read_from_replica needs a replica_client")
    router = (
        _ReplicaRouter(read_from_replica)
        if replica_client is not None
        else None
    )
    rep = report if report is not None else DriverReport()
    ops_before = rep.ops
    started = time.perf_counter()
    for batch in batches:
        if router is not None:
            primary_ops: list[Op] = []
            replica_ops: list[Op] = []
            routing = []  # per-op: which reply stream it came from
            for op in batch:
                if router.takes(op):
                    routing.append(True)
                    replica_ops.append(op)
                else:
                    routing.append(False)
                    primary_ops.append(op)
        else:
            primary_ops, replica_ops, routing = batch, [], None
        t0 = time.perf_counter()
        primary_replies = (
            client.execute_pipeline(*primary_ops) if primary_ops else []
        )
        replica_replies = (
            replica_client.execute_pipeline(*replica_ops)
            if replica_ops
            else []
        )
        t1 = time.perf_counter()
        if len(primary_replies) != len(primary_ops) or len(
            replica_replies
        ) != len(replica_ops):
            raise RuntimeError(
                f"desync: {len(batch)} commands, "
                f"{len(primary_replies) + len(replica_replies)} replies"
            )
        if routing is None:
            replies: list[object] = primary_replies
        else:
            primary_it = iter(primary_replies)
            replica_it = iter(replica_replies)
            replies = [
                next(replica_it) if from_replica else next(primary_it)
                for from_replica in routing
            ]
        rep.batches += 1
        rep.ops += len(batch)
        rep.batch_latencies.append(t1 - t0)
        for op, reply, on_replica in zip(
            batch, replies, routing or (False,) * len(batch)
        ):
            verb = op[0].decode().lower()
            rep.verbs[verb] = rep.verbs.get(verb, 0) + 1
            rep.note_reply(reply)
            if on_replica:
                rep.replica_reads += 1
                if reply is None:
                    rep.replica_stale_reads += 1
        if rep.ops - ops_before >= max_ops:
            break
    rep.elapsed += time.perf_counter() - started
    return rep
