"""A structural guard on a batch's fixed cost: bytecodes counted, no clock.

``KvServer.pump`` runs once per readable event, and at depth 1 that
event carries one command. What a batch costs beyond its commands —
``pump``'s and ``parse_pipeline``'s per-call work — is paid in full by
every depth-1 request and by a sixteenth of it in a 16-deep one. This
file counts the bytecodes one ``pump`` executes (``sys.settrace`` with
``f_trace_opcodes``: every frame it calls, dispatch and store
included) and pins:

* a depth-1 GET costs at most :data:`GET_BOUND` times one GET's share
  of a 16-deep batch, and a depth-1 SET at most :data:`SET_BOUND` times
  one SET's share. The bound is a ratio because each interpreter
  version compiles to its own bytecode count;
* what ``pump`` samples per batch stays sampled per batch: a
  ``CONFIG SET slowlog-log-slower-than`` sent on one connection reaches
  another connection's next command, and a command name a connection
  sends for the first time mid-session gets its ``cmd.<NAME>``
  histogram. Hoisting ``pump``'s constants must not freeze either.

EXPERIMENTS.md shows the census red on the tree before the hoist. The
census also runs as a script, for interpreters without pytest:
``PYTHONPATH=src python tests/kvstore/test_batch_census.py``.
"""

from __future__ import annotations

import gc
import itertools
import sys

import repro.kvstore.server
from repro.core.sma import SoftMemoryAllocator
from repro.kvstore import TcpKvClient, TcpKvServer
from repro.kvstore.resp import encode_command
from repro.kvstore.server import KvServer
from repro.kvstore.store import DataStore

GET = encode_command("GET", "k")
SET = encode_command("SET", "k", "v")
#: a depth-1 command's bytecodes over its share of a 16-deep batch
GET_BOUND = 1.48
SET_BOUND = 1.33
#: the census clock's tick, in seconds: a power of two, so every
#: reading is exact and every duration ``pump`` observes is this one
STEP_S = 2.0**-20


def opcodes(call, *args) -> int:
    """Bytecodes executed by ``call(*args)`` and every frame it calls.

    Counted with the cyclic GC off (its prior state restored after): a
    collection that lands inside the call would run traced ``__del__``
    and weakref callbacks, and charge them to the probe. The serving
    path's clock (``repro.kvstore.server.perf_counter``) is a step
    clock for the call: a histogram's new-minimum and new-maximum
    branches then take the same turn every run, not the one the
    machine's speed picks."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return local

    collecting = gc.isenabled()
    gc.disable()
    clock = repro.kvstore.server.perf_counter
    repro.kvstore.server.perf_counter = itertools.count(0.0, STEP_S).__next__
    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        call(*args)
    finally:
        sys.settrace(previous)
        repro.kvstore.server.perf_counter = clock
        if collecting:
            gc.enable()
    return count


def pump_opcodes(command: bytes, depth: int) -> int:
    """Bytecodes one ``pump`` of ``depth`` buffered ``command``s
    executes, on a session whose parser window and histograms have
    settled on that batch."""
    session = KvServer(DataStore(SoftMemoryAllocator(name="census")))
    out = bytearray()
    batch = command * depth
    for __ in range(3):
        session.feed_batch(SET + batch, out)
    # 3.12 reports no opcode in the first tracing session of a process
    opcodes(session.feed_batch, batch, out)
    session.parser.feed(batch)
    return opcodes(session.pump, out)


def share(command: bytes, depth: int) -> float:
    """One command's share of a ``depth``-deep batch, in bytecodes."""
    return pump_opcodes(command, depth) / depth


def ratio(command: bytes) -> float:
    return share(command, 1) / share(command, 16)


def test_a_depth_1_get_against_one_get_of_a_16_deep_batch():
    assert ratio(GET) <= GET_BOUND


def test_a_depth_1_set_against_one_set_of_a_16_deep_batch():
    assert ratio(SET) <= SET_BOUND


# -- what pump samples per batch ---------------------------------------------


def test_a_config_set_reaches_another_connections_next_command():
    store = DataStore(SoftMemoryAllocator(name="per-batch-slowlog"))
    with TcpKvServer(store) as server, TcpKvClient(
        server.address
    ) as a, TcpKvClient(server.address) as b:
        assert b.execute("GET", "k") is None  # b's session has pumped
        assert len(store.obs.slowlog) == 0
        assert str(a.execute("CONFIG", "SET", "slowlog-log-slower-than", "0")) == "OK"
        assert b.execute("GET", "logged") is None
        assert [e.argv for e in store.obs.slowlog.entries()] == [
            (b"GET", b"logged")
        ]


def test_a_name_first_sent_mid_session_gets_its_histogram():
    store = DataStore(SoftMemoryAllocator(name="per-batch-learning"))
    with TcpKvServer(store) as server, TcpKvClient(server.address) as b:
        assert b.execute("GET", "k") is None
        assert "ECHO" not in store.obs.command_stats()
        assert b.execute("ECHO", "hi") == b"hi"
        assert b.execute("ECHO", "again") == b"again"
        assert store.obs.command_stats()["ECHO"].count == 2


if __name__ == "__main__":
    for name, command, bound in (("GET", GET, GET_BOUND), ("SET", SET, SET_BOUND)):
        one, deep = share(command, 1), share(command, 16)
        verdict = "ok" if one <= bound * deep else "RED"
        print(
            f"{sys.version.split()[0]} {name}: depth 1 {one:.0f}, "
            f"depth 16 {16 * deep:.0f} ({deep:.1f}/op), ratio {one / deep:.3f} "
            f"(bound {bound}) {verdict}"
        )
