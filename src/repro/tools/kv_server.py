"""Run a standalone kvstore server process (the crash-test target).

Boots a :class:`~repro.kvstore.store.DataStore` over an SMA,
optionally attaches the durability plane (``--dir`` enables it, with
recovery on startup), serves RESP over TCP, and shuts down gracefully
on SIGTERM/SIGINT: stop accepting, flush the append-only log with a
final fsync, write a closing snapshot, exit 0. A second signal while
shutdown is running is a no-op — never a crash or a double flush.

The same entry point runs one **cluster shard**: ``--cluster-shard I``
with ``--cluster-nodes host:port,...`` attaches the hash-slot topology
(this process serves node I's slot range and answers ``MOVED`` for the
rest), and ``--smd-socket PATH`` registers the process's SMA with the
machine-wide Soft Memory Daemon over the RPC plane instead of running
budget-free — which is how N shard processes come to share one soft
capacity ledger. ``repro.tools.kv_cluster`` spawns exactly this shape.

The loop runs on the main thread, the process's only thread. It
prints one machine-readable line once bound, before it serves::

    READY <host> <port>

so harnesses (the kill -9 crash-recovery loop, benchmarks) can spawn it
with ``--port 0`` and discover the bound port without racing startup.

Usage::

    python -m repro.tools.kv_server --dir /var/lib/kv --appendfsync always
    python -m repro.tools.kv_server --dir ./data --appendonly no  # RDB-ish
"""

from __future__ import annotations

import argparse
import signal
import sys

from repro.core.sma import SoftMemoryAllocator
from repro.kvstore.persist.aof import FSYNC_POLICIES
from repro.kvstore.persist.engine import Persistence, PersistenceConfig
from repro.kvstore.store import DataStore, StoreConfig
from repro.kvstore.tcp import TcpKvServer
from repro.kvstore.tier import TierConfig


def build_server(
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    data_dir: str | None = None,
    appendonly: bool = True,
    appendfsync: str = "everysec",
    sma_pages: int | None = None,
    smd_socket: str | None = None,
    cluster_shard: int | None = None,
    cluster_nodes: str | None = None,
    tier: bool = True,
    replicaof: str | None = None,
):
    """Construct (store, persistence-or-None, unstarted server).

    Importable so tests can assemble the exact process shape the CLI
    runs without spawning a subprocess.

    ``smd_socket`` registers the SMA with an out-of-process daemon over
    the RPC plane; the live :class:`~repro.rpc.agent.LoopAgent` is
    stashed on ``store.smd_agent``, where the server's event loop
    drives it and the shutdown path closes it (forfeiting the budget
    back to the machine-wide ledger). No thread but the loop touches
    the store, so the SMA takes no lock.
    ``cluster_shard``/``cluster_nodes`` attach the hash-slot topology;
    the node's own host:port from the table overrides ``host``/``port``.
    ``replicaof`` ("host:port") boots the process as a read-only
    replica: after local recovery it dials the master, full-syncs (or
    partial-resyncs from the backlog), and applies the stream through
    its own SMA budget.
    """
    name = "kv-server"
    if cluster_shard is not None:
        if not cluster_nodes:
            raise ValueError("--cluster-shard requires --cluster-nodes")
        from repro.kvstore.cluster.state import ClusterState

        addresses = []
        for spec in cluster_nodes.split(","):
            node_host, _, node_port = spec.strip().rpartition(":")
            addresses.append((node_host, int(node_port)))
        cluster_state = ClusterState(cluster_shard, addresses)
        host, port = addresses[cluster_shard]
        name += f"-shard{cluster_shard}"
    else:
        cluster_state = None

    sma = SoftMemoryAllocator(name=name)
    agent = None
    if smd_socket is not None:
        # the machine-wide budget: this process's SMA becomes one
        # tenant of the single daemon all shards share
        from repro.rpc.agent import LoopAgent

        agent = LoopAgent.connect(smd_socket, sma)
    elif sma_pages is not None:
        # a real budget: an in-process daemon with finite capacity, so
        # over-budget writes are denied (and replay re-admission gated)
        from repro.daemon.smd import SoftMemoryDaemon

        SoftMemoryDaemon(soft_capacity_pages=sma_pages).register(sma)
    # second-chance tier: victims of reclamation demote to a compressed
    # form before a later wave truly drops them (on by default; each
    # cluster shard runs its own tier over the shared SMD budget)
    store = DataStore(sma, StoreConfig(tier=TierConfig(enabled=tier)))
    store.smd_agent = agent
    if agent is not None:
        from repro.obs.plane import bind_agent

        bind_agent(store.obs.registry, agent)
    if cluster_state is not None:
        store.attach_cluster(cluster_state)
    persistence = None
    if data_dir is not None:
        persistence = Persistence(
            PersistenceConfig(
                dir=data_dir,
                appendonly=appendonly,
                appendfsync=appendfsync,
            )
        )
        store.attach_persistence(persistence)  # recovery happens here
    server = TcpKvServer(store, host, port)
    if replicaof is not None:
        master_host, _, master_port = replicaof.rpartition(":")
        if not master_host or not master_port.isdigit():
            raise ValueError("--replicaof wants HOST:PORT")
        # engaged before start(): no connections exist yet, the loop's
        # first round dials
        server.replicaof(master_host, int(master_port))
    return store, persistence, server


class GracefulShutdown:
    """One-shot shutdown: signal-safe to request, idempotent to run
    (each step it takes is)."""

    def __init__(self, server, persistence, agent=None) -> None:
        self._server = server
        self._persistence = persistence
        self._agent = agent

    def request(self, signum=None, frame=None) -> None:
        """Signal-handler shape: stops the loop (a flag and one waker
        byte, see :meth:`TcpKvServer.stop`); :meth:`run` does the rest."""
        self._server.stop()

    def run(self) -> None:
        """Stop serving, seal the log, snapshot. Safe to call twice."""
        self._server.stop()  # drains replies + force-fsyncs the AOF
        if self._agent is not None:
            # forfeit the remaining grant back to the machine ledger,
            # before the closing snapshot: with the loop stopped nothing
            # reads the daemon's socket, and an unread DEMAND would hold
            # the daemon's execute step (its episode parked) for up to
            # ``demand_timeout``
            self._agent.close()
        if self._persistence is not None:
            self._persistence.close(final_snapshot=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.kv_server",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=6379, help="0 = pick a free port"
    )
    parser.add_argument(
        "--dir",
        default=None,
        help="data directory; enables the durability plane and recovery",
    )
    parser.add_argument(
        "--appendonly",
        choices=("yes", "no"),
        default=None,
        help="append mutations to the AOF (default yes; requires --dir)",
    )
    parser.add_argument(
        "--appendfsync",
        choices=FSYNC_POLICIES,
        default=None,
        help="default everysec; requires --dir",
    )
    parser.add_argument(
        "--sma-pages",
        type=int,
        default=None,
        help="cap the local soft memory budget (pages)",
    )
    parser.add_argument(
        "--smd-socket",
        default=None,
        help="unix socket of the machine-wide SMD; overrides --sma-pages",
    )
    parser.add_argument(
        "--cluster-shard",
        type=int,
        default=None,
        help="serve shard N of a hash-slot cluster (needs --cluster-nodes)",
    )
    parser.add_argument(
        "--cluster-nodes",
        default=None,
        help="comma-separated host:port of every shard, in shard order",
    )
    parser.add_argument(
        "--tier",
        choices=("on", "off"),
        default="on",
        help="compressed second-chance tier (demote-before-drop)",
    )
    parser.add_argument(
        "--replicaof",
        default=None,
        metavar="HOST:PORT",
        help="boot as a read-only replica of this master",
    )
    args = parser.parse_args(argv)

    # None means "not given", however the flag was spelled or abbreviated
    if args.dir is None and (
        args.appendonly == "yes" or args.appendfsync is not None
    ):
        parser.error("--appendonly and --appendfsync require --dir")

    store, persistence, server = build_server(
        host=args.host,
        port=args.port,
        data_dir=args.dir,
        appendonly=args.appendonly != "no",
        appendfsync=args.appendfsync or "everysec",
        sma_pages=args.sma_pages,
        smd_socket=args.smd_socket,
        cluster_shard=args.cluster_shard,
        cluster_nodes=args.cluster_nodes,
        tier=args.tier == "on",
        replicaof=args.replicaof,
    )
    shutdown = GracefulShutdown(server, persistence, store.smd_agent)
    signal.signal(signal.SIGTERM, shutdown.request)
    signal.signal(signal.SIGINT, shutdown.request)

    host, port = server.address
    print(f"READY {host} {port}", flush=True)
    server.serve()  # until a signal stops the loop
    shutdown.run()
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
