"""The kvstore's **serving-plane cluster**: real shard processes.

Two packages in this repo are named "cluster"; they are unrelated:

* ``repro.kvstore.cluster`` (**this package**) is the *serving plane*:
  N real ``TcpKvServer`` OS processes, each owning a contiguous
  range of the 16384 CRC16 hash slots, ``MOVED`` redirects, a
  slot-routing client, and a supervisor that also hosts the one
  machine-wide Soft Memory Daemon all shards register with. The
  package owns slot math and topology; *which* arguments are keys is
  the command table's ``keys`` column (``repro.kvstore.commands``).
* ``repro.cluster`` is the *scheduling simulation*: a synthetic-trace
  Borg-like cluster scheduler used to quantify the paper's section-2
  claims (kill-based vs soft-memory-aware pressure policies). Nothing
  in it serves traffic.

Rule of thumb: if it opens a socket, it lives here; if it advances a
simulated clock, it lives in ``repro.cluster``.
"""

from repro.kvstore.cluster.slots import (
    SLOT_COUNT,
    crc16,
    hash_tag,
    key_hash_slot,
    partition_slots,
)
from repro.kvstore.cluster.state import (
    ClusterNode,
    ClusterState,
    build_nodes,
    node_id_for,
    parse_moved,
)

# The client and supervisor pull in the TCP serving plane, whose
# command table imports this package's slots module — a cycle if they
# were imported eagerly here. PEP 562 lazy attributes break it: the
# dispatcher's import touches only slots/state, while
# ``from repro.kvstore.cluster import ClusterKvClient`` still works.
_LAZY = {
    "ClusterKvClient": "repro.kvstore.cluster.client",
    "ClusterSupervisor": "repro.kvstore.cluster.supervisor",
    "ShardProcess": "repro.kvstore.cluster.supervisor",
    "free_ports": "repro.kvstore.cluster.supervisor",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    import importlib

    return getattr(importlib.import_module(module_name), name)

__all__ = [
    "SLOT_COUNT",
    "ClusterKvClient",
    "ClusterNode",
    "ClusterState",
    "ClusterSupervisor",
    "ShardProcess",
    "build_nodes",
    "crc16",
    "free_ports",
    "hash_tag",
    "key_hash_slot",
    "node_id_for",
    "parse_moved",
    "partition_slots",
]
