"""Master→replica replication of the CRC-framed AOF record stream.

The replication plane reuses ``persist/codec.py`` frames as the wire
format: a master serves a ``PSYNC``-style full sync (the same bytes a
``base-<g>.snap`` holds, shipped inline) plus the incremental record
stream — every write, delete, expiry, *and* soft-memory tombstone —
to N read-only replicas. Replicas track a byte offset into that
stream, reconnect with exponential backoff, and partial-resync from
the master's in-memory backlog ring when their offset is still
covered. See DESIGN.md §13.
"""

from repro.kvstore.repl.state import (
    DEFAULT_BACKLOG_CAPACITY,
    ReplicaFeed,
    ReplicationState,
)
from repro.kvstore.repl.link import ReplicaLink, SyncHandshake, apply_stream

__all__ = [
    "DEFAULT_BACKLOG_CAPACITY",
    "ReplicaFeed",
    "ReplicaLink",
    "ReplicationState",
    "SyncHandshake",
    "apply_stream",
]
