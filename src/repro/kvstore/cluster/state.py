"""Per-shard cluster topology: who owns which slots, MOVED replies.

A :class:`ClusterState` is attached to a shard's
:class:`~repro.kvstore.store.DataStore` (``store.attach_cluster``); the
command dispatcher consults it before executing any keyed command. The
topology is the boot-time node list — every shard is constructed with
the *same* ordered list of ``(host, port)`` endpoints and derives the
same slot ranges from :func:`~repro.kvstore.cluster.slots.partition_slots`,
so all shards agree on ownership without any gossip protocol.

Multi-key commands are accepted when every key lives on *this shard*
(slot-range granularity). That is a superset of Redis's same-slot rule:
with static ranges and no live resharding, two slots on one shard can
never be split apart mid-flight, so same-shard is exactly as safe and
strictly more permissive. Keys spanning shards answer ``CROSSSLOT``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.kvstore.cluster.slots import (
    SLOT_COUNT,
    key_hash_slot,
    partition_slots,
)
from repro.kvstore.resp import RespError


def node_id_for(host: str, port: int) -> str:
    """Deterministic 40-hex node id (Redis shape) for an endpoint."""
    return hashlib.sha1(f"{host}:{port}".encode()).hexdigest()


@dataclass(frozen=True)
class ClusterNode:
    """One shard's endpoint and the inclusive slot range it owns."""

    index: int
    host: str
    port: int
    start: int
    end: int

    @property
    def node_id(self) -> str:
        return node_id_for(self.host, self.port)

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    @property
    def slot_count(self) -> int:
        return self.end - self.start + 1


def build_nodes(addresses: list[tuple[str, int]]) -> list[ClusterNode]:
    """Derive the canonical node list from ordered endpoints."""
    ranges = partition_slots(len(addresses))
    return [
        ClusterNode(i, host, int(port), start, end)
        for i, ((host, port), (start, end)) in enumerate(
            zip(addresses, ranges)
        )
    ]


class ClusterState:
    """One shard's view of the (static) cluster topology."""

    def __init__(
        self, shard_index: int, addresses: list[tuple[str, int]]
    ) -> None:
        self.nodes = build_nodes(addresses)
        if not 0 <= shard_index < len(self.nodes):
            raise ValueError(
                f"shard index {shard_index} outside node list "
                f"of {len(self.nodes)}"
            )
        self.shard_index = shard_index
        self.myself = self.nodes[shard_index]
        #: slot -> owning node, O(1) ownership checks on the hot path
        self._owner: list[ClusterNode] = [None] * SLOT_COUNT  # type: ignore[list-item]
        for node in self.nodes:
            for slot in range(node.start, node.end + 1):
                self._owner[slot] = node
        #: MOVED replies this shard has issued
        self.moved_replies = 0
        #: CROSSSLOT rejections this shard has issued
        self.crossslot_replies = 0

    @property
    def node_id(self) -> str:
        return self.myself.node_id

    def owns(self, slot: int) -> bool:
        return self._owner[slot] is self.myself

    def check(self, keys: list[bytes]) -> RespError | None:
        """MOVED/CROSSSLOT gate for the keys of one command.

        ``keys`` is what the command table's ``keys`` column slices out
        of a well-formed argv — never empty, always ``bytes`` (the
        server materialises key positions before dispatch). Returns
        ``None`` when every key lives on this shard; otherwise the
        error reply the dispatcher must answer instead of executing.
        """
        myself = self.myself
        owner = self._owner
        first = owner[key_hash_slot(keys[0])]
        if len(keys) > 1:
            for key in keys[1:]:
                if owner[key_hash_slot(key)] is not first:
                    self.crossslot_replies += 1
                    return RespError(
                        "CROSSSLOT Keys in request don't hash to the "
                        "same slot"
                    )
        if first is myself:
            return None
        self.moved_replies += 1
        slot = key_hash_slot(keys[0])
        return RespError(f"MOVED {slot} {first.host}:{first.port}")


def parse_moved(message: str) -> tuple[int, tuple[str, int]] | None:
    """Parse a ``MOVED <slot> <host>:<port>`` error message.

    Returns ``(slot, (host, port))``, or ``None`` when the message is
    not a well-formed MOVED reply (clients treat those as ordinary
    errors).
    """
    parts = message.split()
    if len(parts) != 3 or parts[0] != "MOVED":
        return None
    host, sep, port = parts[2].rpartition(":")
    if not sep:
        return None
    try:
        return int(parts[1]), (host, int(port))
    except ValueError:
        return None
