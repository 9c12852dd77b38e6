"""The layer ledger: spans in the bench process, layers fed in isolation.

The traced run does two things the untraced run never does. It records
a span — name, start, end, parent, trace id — around each of the
driver's own calls into the system (send, wait for the reply, verify;
an antagonist wave; an INFO snapshot). And it replays the workload's
pre-encoded batches *in this process* through the stack that
``repro.tools.kv_server.build_server`` assembles for the workload: a
root measurement around ``KvServer.feed_batch`` and, beside it, each
layer's public function fed the same input on its own. A layer's
number is therefore its isolated cost; ``server.dispatch_self`` is the
root minus the layers beneath it — the self time of the root.

No file under ``src/`` is instrumented: spans inside the program are a
later change.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time

from repro.core.locking import LockedSoftMemoryAllocator
from repro.daemon.smd import SoftMemoryDaemon
from repro.kvstore.commands import dispatch
from repro.kvstore.persist.codec import EXP_NONE, encode_write
from repro.kvstore.resp import RespParser, encode_reply_into
from repro.kvstore.server import ZERO_COPY_THRESHOLD, KvServer
from repro.kvstore.tier import TierConfig, deflate_value, inflate_value
from repro.sds import SoftLinkedList
from repro.tools.kv_server import build_server
from repro.util.units import PAGE_SIZE
from workloads import SMD_CAPACITY_PAGES, Trace, Workload

#: repetitions of each isolated probe; the number is their median
REPEATS = 5


class Spans:
    """Spans kept in memory, written out when the benchmark ends."""

    def __init__(self) -> None:
        self.rows: list[tuple] = []

    def add(self, name, start, end, trace_id, parent=None) -> None:
        self.rows.append((name, start, end, parent, trace_id))

    def batch(self, index, sent_from, sent, replied, verified) -> None:
        """The driver's three calls for one batch, under one root."""
        rows = self.rows
        rows.append(("loadgen.batch", sent_from, verified, None, index))
        rows.append(("loadgen.send", sent_from, sent, "loadgen.batch", index))
        rows.append(("loadgen.wait_reply", sent, replied, "loadgen.batch", index))
        rows.append(("loadgen.verify", replied, verified, "loadgen.batch", index))

    def seconds(self, name: str) -> float:
        return sum(row[2] - row[1] for row in self.rows if row[0] == name)

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent", "trace_id"],
                    "spans": self.rows,
                },
                fh,
            )


# ---------------------------------------------------------------------
# the in-process replay
# ---------------------------------------------------------------------


def _timed(
    spans: Spans, probe, name: str, body, units: int = 0, prepare=None
) -> float:
    """Median over REPEATS of ``body()`` seconds, bracketed and scaled by
    the reference probe, per unit, in ns. Each repetition is one
    span (trace id = repeat).

    ``prepare`` builds fresh state outside the timing and hands it to
    ``body``; a ``body`` that only knows afterwards how many units it
    did (pages reclaimed) returns the count.
    """
    readings = []
    for repeat in range(REPEATS):
        state = prepare() if prepare is not None else None
        before = probe.ms()
        start = time.perf_counter()
        done = body() if prepare is None else body(state)
        end = time.perf_counter()
        scale = probe.window({}, before, probe.ms()).scale
        spans.add(name, start, end, repeat, parent="ledger.replay")
        readings.append((end - start) * scale / max(1, units or done or 1))
    return statistics.median(readings) * 1e9


def _stack(workload: Workload, log_dir: str | None):
    """The in-process twin of the workload's master; with ``log_dir``
    it carries the AOF and the replication state the topology has."""
    if workload.topology == "durable_repl" and log_dir is not None:
        store, persistence, server = build_server(
            data_dir=log_dir, appendfsync="everysec"
        )
        repl = server.enable_replication()
        repl.stream_started = True  # what serving a PSYNC does
        return store, persistence, repl
    if workload.topology == "smd":
        store, _, _ = build_server(sma_pages=SMD_CAPACITY_PAGES)
    else:
        store, _, _ = build_server()
    return store, None, None


def measure_layers(
    workload: Workload, trace: Trace, run_dir: str, spans: Spans, probe
) -> dict[str, float]:
    """Every timing line of the ledger for one workload's batches, each
    bracketed by ``probe`` (the instance's ``drive.ReferenceProbe``)."""
    out: dict[str, float] = {}
    timed = functools.partial(_timed, spans, probe)
    replay_started = time.perf_counter()
    requests = trace.requests
    ops = trace.ops
    sets = [op for batch in trace.batches for op in batch if op[0] == b"SET"]
    get_keys = [op[1] for batch in trace.batches for op in batch if op[0] == b"GET"]
    #: the argv the server's parser hands down: payloads of 512 B and
    #: more arrive as memoryviews and materialise in DataStore.set
    set_args = [
        (op[1], memoryview(op[2]) if len(op[2]) >= ZERO_COPY_THRESHOLD else op[2])
        for op in sets
    ]

    # -- root: KvServer.feed_batch on the workload's own stack ------------
    store, persistence, repl = _stack(workload, os.path.join(run_dir, "ledger"))
    session = KvServer(store)
    reply = bytearray()
    for request in trace.prefill + requests:  # prefill, then a warm pass
        session.feed_batch(request, reply)
        reply.clear()
        if persistence is not None:
            persistence.flush()
            repl.drain()
    feed_s, flush_s, drain_s = [], [], []
    bytes_out = 0
    clock = time.perf_counter
    for repeat in range(REPEATS):
        feed = flush = drain = 0.0
        before = probe.ms()
        if persistence is None:
            start = clock()
            for request in requests:
                reply.clear()
                session.feed_batch(request, reply)
            feed = clock() - start
        else:
            # the event loop's round: execute, group-commit, fan out
            for request in requests:
                reply.clear()
                t0 = clock()
                session.feed_batch(request, reply)
                t1 = clock()
                persistence.flush()
                t2 = clock()
                repl.drain()
                t3 = clock()
                feed += t1 - t0
                flush += t2 - t1
                drain += t3 - t2
        scale = probe.window({}, before, probe.ms()).scale
        feed_s.append(feed * scale)
        flush_s.append(flush * scale)
        drain_s.append(drain * scale)
    # one more pass, batch by batch, for the trace file (not for a metric)
    for index, request in enumerate(requests):
        reply.clear()
        t0 = clock()
        session.feed_batch(request, reply)
        spans.add("server.feed_batch", t0, clock(), index, parent="ledger.replay")
        bytes_out += len(reply)
    if persistence is not None:
        persistence.flush()
        repl.drain()
    rounds = len(requests)
    out["server.feed_batch_ns_per_op"] = statistics.median(feed_s) / ops * 1e9
    out["persist.flush_us_per_round"] = statistics.median(flush_s) / rounds * 1e6
    out["repl.drain_ns_per_round"] = statistics.median(drain_s) / rounds * 1e9
    round_ns_per_op = (
        statistics.median(flush_s) + statistics.median(drain_s)
    ) / ops * 1e9
    out["resp.bytes_in_per_op"] = sum(len(r) for r in requests) / ops
    out["resp.bytes_out_per_op"] = bytes_out / ops

    # -- kvstore.resp: parse and encode ------------------------------------
    parser = RespParser(zero_copy_threshold=ZERO_COPY_THRESHOLD)
    frames: list = []

    def parse_all() -> None:
        for request in requests:
            parser.feed(request)
            parser.parse_pipeline(frames)
            frames.clear()

    out["resp.parse_ns_per_op"] = timed("resp.parse", parse_all, ops)
    replies = [
        [dispatch(store, list(op)) for op in batch] for batch in trace.batches
    ]
    if persistence is not None:
        persistence.flush()
        repl.drain()

    def encode_all() -> None:
        for batch in replies:
            reply.clear()
            for value in batch:
                encode_reply_into(reply, value)

    out["resp.encode_ns_per_op"] = timed("resp.encode", encode_all, ops)

    # -- kvstore.store / kvstore.dict on a stack with no log attached -----
    bare, _, _ = _stack(workload, None)
    filler = KvServer(bare)
    for request in trace.prefill + requests:
        filler.feed_batch(request, reply)
        reply.clear()
    get, put = bare.get, bare.set
    out["store.get_ns_per_op"] = timed(
        "store.get", lambda: [get(key) for key in get_keys], len(get_keys)
    )
    out["store.set_ns_per_op"] = timed(
        "store.set",
        lambda: [put(key, value) for key, value in set_args], len(set_args),
    )
    keyspace = bare.keyspace
    overhead = bare.config.entry_overhead_bytes
    lookup, upsert = keyspace.get, keyspace.upsert
    sized = [(op[1], op[2], overhead + len(op[1]) + len(op[2])) for op in sets]
    out["dict.get_ns_per_op"] = timed(
        "dict.get", lambda: [lookup(key) for key in get_keys], len(get_keys)
    )
    out["dict.upsert_ns_per_op"] = timed(
        "dict.upsert",
        lambda: [upsert(key, value, size) for key, value, size in sized],
        len(sized),
    )

    # -- core.sma: malloc, free, reclaim ------------------------------------
    sma = LockedSoftMemoryAllocator(name="ledger-sma")
    context = sma.create_context(name="probe")
    sizes = [size for _, _, size in sized] or [256]
    held: list = []
    out["sma.malloc_ns"] = timed(
        "sma.malloc",
        lambda: held.extend(sma.soft_malloc(size, context) for size in sizes),
        len(sizes),
    )
    out["sma.free_ns"] = timed(
        "sma.free", lambda: [sma.soft_free(held.pop()) for _ in sizes],
        len(sizes),
    )
    for ptr in held:
        sma.soft_free(ptr)
    out["sma.reclaim_us_per_page"] = _reclaim_us_per_page(trace, timed)

    # -- kvstore.tier: the value codec on the workload's values -------------
    tier = TierConfig(enabled=True)
    values = [op[2] for op in sets][:2048]
    deflated = [deflate_value(value, tier) for value in values]
    compressed = [c for c in deflated if c is not None]
    out["tier.deflate_ns_per_value"] = timed(
        "tier.deflate",
        lambda: [deflate_value(value, tier) for value in values], len(values),
    )
    out["tier.inflate_ns_per_value"] = (
        timed(
            "tier.inflate",
            lambda: [inflate_value(c) for c in compressed], len(compressed),
        )
        if compressed else 0.0
    )

    # -- kvstore.persist / kvstore.repl: the record path --------------------
    plain = [(op[1], op[2]) for op in sets]
    scratch = bytearray()

    def encode_records() -> None:
        scratch.clear()
        for key, value in plain:
            encode_write(scratch, key, value, EXP_NONE)

    out["persist.encode_write_ns_per_rec"] = timed(
        "persist.encode_write", encode_records, len(plain)
    )
    if persistence is None:
        out["persist.log_write_ns_per_rec"] = 0.0
        out["repl.log_write_ns_per_rec"] = 0.0
    else:
        def log_persist() -> None:
            for key, value in plain:
                persistence.log_write(key, value, None, False)

        def log_repl() -> None:
            for key, value in plain:
                repl.log_write(key, value, None, False)

        # the records pile up in the write-behind buffers; the flush
        # and the drain that empty them are the round's, measured above
        out["persist.log_write_ns_per_rec"] = timed(
            "persist.log_write", log_persist, len(plain)
        )
        out["repl.log_write_ns_per_rec"] = timed(
            "repl.log_write", log_repl, len(plain)
        )
        repl.drain()
        persistence.close()

    # -- daemon.smd -----------------------------------------------------------
    out.update(_smd_probes(timed))

    # -- the ledger's own closure -----------------------------------------------
    gets_share = len(get_keys) / ops
    sets_share = len(sets) / ops
    accounted = (
        out["resp.parse_ns_per_op"]
        + out["resp.encode_ns_per_op"]
        + gets_share * out["store.get_ns_per_op"]
        + sets_share * out["store.set_ns_per_op"]
        + sets_share * out["persist.log_write_ns_per_rec"]
        + sets_share * out["repl.log_write_ns_per_rec"]
    )
    root = out["server.feed_batch_ns_per_op"]
    out["server.dispatch_self_ns_per_op"] = root - accounted
    out["ledger.accounted_share"] = accounted / root
    out["ledger.round_ns_per_op"] = round_ns_per_op
    spans.add("ledger.replay", replay_started, time.perf_counter(), 0)
    return out


def _reclaim_us_per_page(trace: Trace, timed) -> float:
    """``sma.reclaim(n)`` on a store prefilled with the workload's keys:
    selection, SDS callbacks, demote-or-drop — no daemon, no RPC."""

    def prefilled():
        store, _, _ = build_server(sma_pages=1 << 20)
        session = KvServer(store)
        reply = bytearray()
        for request in trace.prefill[:64]:  # 4,096 keys are plenty
            session.feed_batch(request, reply)
            reply.clear()
        return store

    return timed(
        "sma.reclaim",
        lambda store: store.sma.reclaim(64).pages_reclaimed, prepare=prefilled,
    ) / 1e3


def _smd_probes(timed) -> dict[str, float]:
    """The daemon's request path without and with a reclamation episode."""
    out = {}
    smd = SoftMemoryDaemon(soft_capacity_pages=1 << 20)
    quiet = LockedSoftMemoryAllocator(name="ledger-quiet")
    record = smd.register(quiet)
    calls = 2000

    def request_release() -> None:
        for _ in range(calls):
            smd.handle_request(record.pid, 1)
            smd.handle_release(record.pid, 1)

    out["smd.handle_request_us"] = (
        timed("smd.handle_request", request_release, calls) / 1e3
    )
    def pressured():
        smd = SoftMemoryDaemon(soft_capacity_pages=512)
        donor = LockedSoftMemoryAllocator(name="ledger-donor")
        asker = LockedSoftMemoryAllocator(name="ledger-asker")
        smd.register(donor)
        smd.register(asker)
        cache = SoftLinkedList(donor, element_size=PAGE_SIZE)
        for i in range(500):
            cache.append(i)
        return smd, asker, cache  # the cache must outlive the demand

    def over_ask(state) -> int:
        smd, asker, _ = state
        asker.reserve_budget(256)  # the daemon must demand from the donor
        return smd.pages_reclaimed

    out["smd.demand_us_per_page"] = (
        timed("smd.demand", over_ask, prepare=pressured) / 1e3
    )
    return out
