"""Kill -9 the master: failover, partial resync, and no resurrection.

Each round builds a real three-process topology — master A with a
finite soft-memory budget, replicas B and C attached via
``--replicaof`` — then:

* streams acked write bursts with ``WAIT 2`` checkpoints while an
  antagonist (``MEMORY PURGE``) sheds pages mid-stream, so tombstones
  ride the replication stream under genuine budget pressure;
* asserts, over live ``INFO`` on every node, the per-node soft-memory
  conservation identity (``held == mapped − released``) and tombstone
  agreement (every key reclaimed on A is absent on B and C, and the
  replicas' ``tombstones_applied`` moved);
* SIGKILLs A, promotes B (``REPLICAOF NO ONE``), repoints C at B, and
  asserts C **partial-resyncs** from B's backlog (psync2-lite: the
  promoted node kept the dead master's replid and offsets);
* asserts B serves exactly the acked prefix: every acked, unreclaimed
  key is present; every reclaimed key stays dead — kill -9 must never
  resurrect a key the soft-memory plane already dropped;
* boots a fresh process as a replica of B and asserts it **full
  syncs** (a newborn has no stream position to offer).

``KV_REPL_ROUNDS`` scales the loop (CI runs more; the default keeps
local runs quick).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.kvstore import TcpKvClient

pytestmark = pytest.mark.timeout(300)

ROUNDS = int(os.environ.get("KV_REPL_ROUNDS", "2"))
BURST = 80  # acked writes per burst, three bursts per round
REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src"
)


def spawn_server(*extra: str) -> tuple[subprocess.Popen, tuple]:
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.tools.kv_server",
            "--port", "0", *extra,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    line = proc.stdout.readline().strip()
    if not line.startswith("READY "):
        proc.kill()
        raise AssertionError(
            f"server failed to start: {line!r}\n{proc.stderr.read()}"
        )
    __, host, port = line.split()
    return proc, (host, int(port))


def terminate(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=15)
    proc.stdout.close()
    proc.stderr.close()


def info_dict(client: TcpKvClient, section: str | None = None) -> dict:
    args = ("INFO",) if section is None else ("INFO", section)
    text = bytes(client.execute(*args)).decode()
    out: dict[str, str] = {}
    for line in text.splitlines():
        if ":" in line and not line.startswith("#"):
            key, __, value = line.partition(":")
            out[key] = value
    return out


def wait_until(cond, timeout: float = 30.0, interval: float = 0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if cond():
            return
        time.sleep(interval)
    assert cond(), "condition never became true"


def assert_conservation(info: dict, who: str) -> None:
    """The per-node soft-page ledger must balance at any instant."""
    held = int(info["sma.held_pages"])
    mapped = int(info["sma.stats.pages_mapped"])
    released = int(info["sma.stats.pages_released"])
    assert held == mapped - released, (
        f"{who}: held={held} != mapped={mapped} - released={released}"
    )
    assert held >= 0 and mapped >= 0 and released >= 0


def assert_replication_agreement(
    mc: TcpKvClient, replicas: list[TcpKvClient]
) -> None:
    """Offsets converged and every end agrees on the keyspace size."""
    m_info = info_dict(mc)
    target = int(m_info["master_repl_offset"])
    for rc in replicas:
        wait_until(
            lambda: int(info_dict(rc)["master_repl_offset"]) >= target
        )
        r_info = info_dict(rc)
        assert r_info["replid"] == m_info["replid"]
        assert r_info["master_link_status"] == "up"
    master_size = mc.execute("DBSIZE")
    for rc in replicas:
        assert rc.execute("DBSIZE") == master_size


@pytest.mark.parametrize("round_no", range(ROUNDS))
def test_kill9_failover_round(round_no):
    # A runs under a finite budget so MEMORY PURGE sheds real pages;
    # B and C get headroom so the acked-prefix assertions are exact
    a_proc, a_addr = spawn_server("--sma-pages", "64")
    b_proc, b_addr = spawn_server(
        "--sma-pages", "1024", "--replicaof", f"{a_addr[0]}:{a_addr[1]}"
    )
    c_proc, c_addr = spawn_server(
        "--sma-pages", "1024", "--replicaof", f"{a_addr[0]}:{a_addr[1]}"
    )
    d_proc = None
    procs = [a_proc, b_proc, c_proc]
    try:
        acked: set[str] = set()
        reclaimed: set[str] = set()
        with TcpKvClient(a_addr) as mc:
            # WAIT only counts attached replicas — let both finish
            # their initial PSYNC before racing writes against them
            wait_until(
                lambda: int(info_dict(mc)["connected_replicas"]) >= 2
            )
            seq = 0
            for burst in range(3):
                for __ in range(BURST):
                    key = f"r{round_no}-seq-{seq:06d}"
                    assert str(mc.execute("SET", key, "x" * 48)) == "OK"
                    acked.add(key)
                    seq += 1
                assert mc.execute("WAIT", 2, 15000) == 2
                # the antagonist: shed pages mid-stream; every dropped
                # key must emit a tombstone into the stream
                mc.execute("MEMORY", "PURGE", "2")
                assert mc.execute("WAIT", 2, 15000) == 2
            # which acked keys did the purges actually reclaim?
            for key in sorted(acked):
                if mc.execute("GET", key) is None:
                    reclaimed.add(key)
            with TcpKvClient(b_addr) as bc, TcpKvClient(c_addr) as cc:
                assert_replication_agreement(mc, [bc, cc])
                for client, who in ((mc, "A"), (bc, "B"), (cc, "C")):
                    assert_conservation(
                        info_dict(client, "softmemory"), who
                    )
                for rc, who in ((bc, "B"), (cc, "C")):
                    r_info = info_dict(rc)
                    assert int(r_info["tombstones_applied"]) >= len(
                        reclaimed
                    ), f"{who} missed tombstones"
                    for key in sorted(reclaimed)[:20]:
                        assert rc.execute("GET", key) is None, (
                            f"{who} resurrected reclaimed {key}"
                        )

        # the master dies mid-flight; nothing was in doubt (WAIT 2
        # bounded the acked prefix) so failover must be exact
        a_proc.send_signal(signal.SIGKILL)
        a_proc.wait(timeout=15)

        with TcpKvClient(b_addr) as bc:
            assert str(bc.execute("REPLICAOF", "NO", "ONE")) == "OK"
            b_info = info_dict(bc)
            assert b_info["role"] == "master"
            # the acked prefix, exactly: every acked unreclaimed key
            # serves; every reclaimed key stays dead
            for key in sorted(acked - reclaimed):
                assert bc.execute("GET", key) is not None, (
                    f"acked {key} lost in failover"
                )
            for key in sorted(reclaimed):
                assert bc.execute("GET", key) is None, (
                    f"kill -9 resurrected reclaimed {key}"
                )

            with TcpKvClient(c_addr) as cc:
                assert str(
                    cc.execute("REPLICAOF", b_addr[0], str(b_addr[1]))
                ) == "OK"
                # the ex-sibling shares the dead master's replid and
                # its offset sits in B's backlog: partial, not full
                wait_until(
                    lambda: info_dict(cc)["master_link_status"] == "up"
                )
                b_info = info_dict(bc)
                assert int(b_info["sync_partial_ok"]) >= 1
                assert int(b_info["sync_full"]) == 0

                # a newborn has no stream position: full sync only
                d_proc, d_addr = spawn_server(
                    "--sma-pages", "1024",
                    "--replicaof", f"{b_addr[0]}:{b_addr[1]}",
                )
                procs.append(d_proc)
                with TcpKvClient(d_addr) as dc:
                    wait_until(
                        lambda: info_dict(dc)["master_link_status"]
                        == "up"
                    )
                    assert int(info_dict(bc)["sync_full"]) >= 1

                    # the promoted master is live: new writes reach
                    # every survivor and the ledgers still balance
                    bc.execute("SET", f"r{round_no}-after", "failover")
                    assert bc.execute("WAIT", 2, 15000) == 2
                    assert_replication_agreement(bc, [cc, dc])
                    for client, who in ((bc, "B"), (cc, "C"), (dc, "D")):
                        assert_conservation(
                            info_dict(client, "softmemory"), who
                        )
                    for key in sorted(reclaimed)[:20]:
                        for rc, who in ((cc, "C"), (dc, "D")):
                            assert rc.execute("GET", key) is None, (
                                f"{who} resurrected {key} post-failover"
                            )
    finally:
        for proc in procs:
            terminate(proc)
