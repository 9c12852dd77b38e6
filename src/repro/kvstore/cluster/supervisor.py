"""Shard-process lifecycle: spawn, health-check, restart, tear down.

:class:`ClusterSupervisor` turns one machine into a hash-slot cluster:

* it hosts the **one machine-wide Soft Memory Daemon** — an
  :class:`~repro.rpc.server.RpcDaemonServer` on a unix socket — that
  every shard process registers with, so soft budgets, reclamation
  weights, and degraded-mode denials span all shards (the paper's
  Figure 1 topology with the serving plane as the workload);
* it spawns N ``python -m repro.tools.kv_server`` shard processes, each
  given the same ordered node list (from which all shards derive
  identical slot ranges) plus its own index, and waits for each
  shard's ``READY`` line;
* a monitor thread health-checks shards over RESP ``PING`` and
  restarts any shard that crashed or stopped answering (same index,
  same port, same data dir — a restarted durable shard recovers its
  keyspace);
* ``stop()`` fans SIGTERM out to every shard, waits for graceful
  shutdown (each shard seals its AOF), escalates to SIGKILL on
  stragglers, then stops the daemon.

Ports are pre-allocated by binding-and-releasing so every shard knows
the full ``host:port`` table *before* any shard starts — MOVED replies
need the table at boot, and a restarted shard must come back on the
same port its siblings advertise.
"""

from __future__ import annotations

import os
import select
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time

from repro.kvstore.client import TcpKvClient
from repro.rpc.server import RpcDaemonServer

Address = tuple[str, int]

#: seconds one health-check PING may take, and the failed PINGs in a row
#: after which a live but unresponsive shard is killed and restarted
PING_TIMEOUT = 2.0
MAX_PING_FAILURES = 3

_SRC_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
)


def spawn_kv_server(
    args: list[str], stderr_path: str, timeout: float
) -> tuple[subprocess.Popen, Address]:
    """Start ``python -m repro.tools.kv_server *args`` and wait up to
    ``timeout`` seconds for its ``READY <host> <port>`` line.

    stderr is appended to ``stderr_path``. A process that exits, prints
    anything else or stays silent is killed, and ``RuntimeError``
    carries the tail of its stderr.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC_ROOT + os.pathsep + env.get("PYTHONPATH", "")
    with open(stderr_path, "ab") as stderr:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.tools.kv_server", *args],
            stdout=subprocess.PIPE,
            stderr=stderr,
            env=env,
            text=True,
        )
    ready = select.poll()
    ready.register(proc.stdout, select.POLLIN)
    line = proc.stdout.readline().strip() if ready.poll(timeout * 1000) else ""
    if line.startswith("READY "):
        __, host, port = line.split()
        return proc, (host, int(port))
    proc.kill()
    proc.wait()
    proc.stdout.close()
    try:
        with open(stderr_path) as fh:
            detail = fh.read()[-2000:]
    except OSError:
        detail = ""
    raise RuntimeError(
        f"kv_server {' '.join(args)} failed to start (got {line!r}):\n{detail}"
    )


def free_ports(host: str, count: int) -> list[int]:
    """Reserve ``count`` distinct free TCP ports on ``host``.

    Binds them all simultaneously (so the kernel cannot deal the same
    port twice) and releases them together; the usual small window
    before the shards re-bind is acceptable for a single-machine
    cluster boot.
    """
    socks = []
    try:
        for _ in range(count):
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((host, 0))
            socks.append(sock)
        return [sock.getsockname()[1] for sock in socks]
    finally:
        for sock in socks:
            sock.close()


class ShardProcess:
    """One supervised shard: its spec, its live process, its history."""

    def __init__(self, index: int, address: Address) -> None:
        self.index = index
        self.address = address
        self.proc: subprocess.Popen | None = None
        self.restarts = 0
        self.ping_failures = 0

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None


class ClusterSupervisor:
    """Spawn and babysit N shard processes under one SMD."""

    def __init__(
        self,
        shards: int = 2,
        *,
        host: str = "127.0.0.1",
        ports: list[int] | None = None,
        soft_capacity_pages: int = 4096,
        startup_budget_pages: int = 16,
        data_dir: str | None = None,
        workdir: str | None = None,
        health_interval: float = 0.5,
    ) -> None:
        if shards < 1:
            raise ValueError("a cluster needs at least one shard")
        self.host = host
        self.workdir = workdir or tempfile.mkdtemp(prefix="kv-cluster-")
        self.data_dir = data_dir
        self.health_interval = health_interval
        self.startup_budget_pages = startup_budget_pages
        if ports is None:
            ports = free_ports(host, shards)
        elif len(ports) != shards:
            raise ValueError("need exactly one port per shard")
        self.shards = [
            ShardProcess(i, (host, port)) for i, port in enumerate(ports)
        ]
        self.smd_socket = os.path.join(self.workdir, "smd.sock")
        from repro.daemon.smd import SmdConfig

        self.daemon = RpcDaemonServer(
            self.smd_socket,
            soft_capacity_pages,
            config=SmdConfig(startup_budget_pages=startup_budget_pages),
        )
        self._stop = threading.Event()
        self._monitor: threading.Thread | None = None
        self._spawn_lock = threading.Lock()
        self.shards_restarted = 0  # lifetime, across all shards

    # -- lifecycle -----------------------------------------------------

    @property
    def addresses(self) -> list[Address]:
        return [shard.address for shard in self.shards]

    @property
    def smd(self):
        """The machine-wide daemon's policy core (ledgers, counters)."""
        return self.daemon.smd

    def start(self, *, ready_timeout: float = 30.0) -> "ClusterSupervisor":
        self.daemon.start()
        try:
            for shard in self.shards:
                self._spawn(shard, ready_timeout=ready_timeout)
        except BaseException:
            self.stop()  # what started: __exit__ never runs if we raise
            raise
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="kv-cluster-monitor", daemon=True
        )
        self._monitor.start()
        return self

    def stop(self, *, grace: float = 15.0) -> None:
        """SIGTERM fan-out, graceful wait, SIGKILL stragglers, stop SMD."""
        if self._stop.is_set():
            return
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=grace)
        for shard in self.shards:  # fan out first, then wait: shards
            if shard.alive:  # shut down in parallel, not serially
                shard.proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + grace
        for shard in self.shards:
            if shard.proc is None:
                continue
            remaining = max(0.1, deadline - time.monotonic())
            try:
                shard.proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                shard.proc.kill()
                shard.proc.wait(timeout=5)
            if shard.proc.stdout is not None:
                shard.proc.stdout.close()
        self.daemon.stop()

    def __enter__(self) -> "ClusterSupervisor":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- spawning ------------------------------------------------------

    def _shard_args(self, shard: ShardProcess) -> list[str]:
        nodes = ",".join(f"{h}:{p}" for h, p in self.addresses)
        argv = [
            "--cluster-shard", str(shard.index),
            "--cluster-nodes", nodes,
            "--smd-socket", self.smd_socket,
        ]
        if self.data_dir is not None:
            shard_dir = os.path.join(self.data_dir, f"shard-{shard.index}")
            os.makedirs(shard_dir, exist_ok=True)
            argv += ["--dir", shard_dir]
        return argv

    def _spawn(self, shard: ShardProcess, *, ready_timeout: float) -> None:
        stderr_path = os.path.join(
            self.workdir, f"shard-{shard.index}.stderr"
        )
        shard.ping_failures = 0
        shard.proc, __ = spawn_kv_server(
            self._shard_args(shard), stderr_path, ready_timeout
        )

    # -- health --------------------------------------------------------

    def ping(self, shard: ShardProcess) -> bool:
        """One RESP PING against a shard; False on any failure."""
        try:
            with TcpKvClient(
                shard.address,
                timeout=PING_TIMEOUT,
                connect_timeout=PING_TIMEOUT,
            ) as client:
                return client.execute(b"PING") == "PONG"
        except Exception:
            return False

    def _monitor_loop(self) -> None:
        while not self._stop.wait(self.health_interval):
            for shard in self.shards:
                if self._stop.is_set():
                    return
                if not shard.alive:
                    self._restart(shard, reason="exited")
                    continue
                if self.ping(shard):
                    shard.ping_failures = 0
                    continue
                shard.ping_failures += 1
                if shard.ping_failures >= MAX_PING_FAILURES:
                    shard.proc.kill()
                    shard.proc.wait(timeout=10)
                    self._restart(shard, reason="unresponsive")

    def _restart(self, shard: ShardProcess, *, reason: str) -> None:
        with self._spawn_lock:
            if self._stop.is_set() or shard.alive:
                return
            if shard.proc is not None and shard.proc.stdout is not None:
                shard.proc.stdout.close()
            shard.restarts += 1
            self.shards_restarted += 1
            try:
                self._spawn(shard, ready_timeout=30.0)
            except RuntimeError:
                # spawn failed (port still in TIME_WAIT, transient fork
                # pressure): leave the shard dead for this round — the
                # monitor retries on its next tick
                pass
