"""Launch and supervise a multi-process hash-slot cluster.

One command turns this machine into the paper's Figure-1 topology with
the serving plane as the workload: N ``kv_server`` shard processes,
each owning a contiguous range of the 16384 hash slots, all registered
with a single machine-wide Soft Memory Daemon hosted by the supervisor.
Shards that crash or stop answering PING are restarted on the same
port with the same data dir.

Prints one machine-readable line per shard once it is serving::

    SHARD <index> <host> <port>

then a final ``CLUSTER READY <n>`` line, and keeps supervising until
SIGTERM/SIGINT, which fans a graceful shutdown out to every shard.

Usage::

    python -m repro.tools.kv_cluster --shards 2
    python -m repro.tools.kv_cluster --shards 4 --dir ./data --capacity 8192
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading

from repro.kvstore.cluster.supervisor import ClusterSupervisor


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.kv_cluster",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument(
        "--shards", type=int, default=2, help="number of shard processes"
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--capacity",
        type=int,
        default=4096,
        help="machine-wide soft capacity (pages) shared by all shards",
    )
    parser.add_argument(
        "--dir",
        default=None,
        help="data root; each shard persists under <dir>/shard-<i>",
    )
    args = parser.parse_args(argv)

    supervisor = ClusterSupervisor(
        shards=args.shards,
        host=args.host,
        soft_capacity_pages=args.capacity,
        data_dir=args.dir,
    )

    done = threading.Event()

    def request_stop(signum=None, frame=None) -> None:
        done.set()

    signal.signal(signal.SIGTERM, request_stop)
    signal.signal(signal.SIGINT, request_stop)

    try:
        supervisor.start()
    except RuntimeError as exc:
        print(f"cluster failed to start: {exc}", file=sys.stderr)
        return 1

    for shard in supervisor.shards:
        host, port = shard.address
        print(f"SHARD {shard.index} {host} {port}", flush=True)
    print(f"CLUSTER READY {args.shards}", flush=True)

    done.wait()
    supervisor.stop()
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
