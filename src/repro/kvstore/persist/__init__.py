"""Crash-safe durability plane for the kvstore.

The package persists the keyspace the way the paper's serving substrate
(Redis) does, adapted to soft memory:

* :mod:`~repro.kvstore.persist.codec` — the CRC32-framed,
  length-prefixed record codec shared by the append-only log and the
  snapshot files (a snapshot *is* a rewritten log plus a sealed
  trailer, so one scanner validates both).
* :mod:`~repro.kvstore.persist.aof` — the append-only log writer with
  a write-behind buffer and the ``always``/``everysec``/``no`` fsync
  policies, plus the tail scanner that tolerates torn or corrupt tails
  by clean truncation at the last valid record.
* :mod:`~repro.kvstore.persist.snapshot` — point-in-time snapshots
  written atomically (tmp + fsync + rename + directory fsync).
* :mod:`~repro.kvstore.persist.engine` — the :class:`Persistence`
  orchestrator: generation-numbered checkpoints, startup recovery
  (newest valid snapshot, then the contiguous AOF tail), soft-memory
  awareness (reclamation tombstones; budget-gated re-admission on
  replay), and the stats surfaced through ``INFO Persistence``.
* :mod:`~repro.kvstore.persist.faults` — storage fault injection
  (short writes, torn records, bit flips, fsync errors, ENOSPC),
  modeled on :mod:`repro.rpc.faults`.
"""

from repro.kvstore.persist.aof import AofWriter, load_aof
from repro.kvstore.persist.codec import (
    CorruptRecord,
    decode_record,
    encode_delete,
    encode_expire,
    encode_flush,
    encode_persist,
    encode_tombstone,
    encode_write,
    read_records,
    scan_frames,
)
from repro.kvstore.persist.engine import (
    Persistence,
    PersistenceConfig,
    PersistStats,
)
from repro.kvstore.persist.faults import (
    DiskFaultInjector,
    DiskFaultPlan,
    DiskFaultStats,
    FaultyFile,
)
from repro.kvstore.persist.snapshot import read_snapshot, write_snapshot

__all__ = [
    "AofWriter",
    "CorruptRecord",
    "DiskFaultInjector",
    "DiskFaultPlan",
    "DiskFaultStats",
    "FaultyFile",
    "Persistence",
    "PersistenceConfig",
    "PersistStats",
    "decode_record",
    "encode_delete",
    "encode_expire",
    "encode_flush",
    "encode_persist",
    "encode_tombstone",
    "encode_write",
    "load_aof",
    "read_records",
    "read_snapshot",
    "scan_frames",
    "write_snapshot",
]
