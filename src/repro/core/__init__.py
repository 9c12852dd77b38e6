"""Soft memory core: the paper's primary contribution.

Public surface:

* :class:`~repro.core.sma.SoftMemoryAllocator` — per-process allocator
  (``soft_malloc`` / ``soft_free`` / ``reclaim``).
* :class:`~repro.core.pointer.SoftPtr` and
  :class:`~repro.core.pointer.DerefScope` — tracked handles into soft
  memory and AIFM-style pinning.
* :class:`~repro.core.context.SdsContext` — per-data-structure heap,
  priority, and reclamation hooks.
* :class:`~repro.core.reclaim.ReclamationStats` — what one reclamation
  demand cost.
* The exception taxonomy in :mod:`repro.core.errors`.
"""

from repro.core.budget import BudgetLedger
from repro.core.context import ReclaimCallback, SdsContext
from repro.core.errors import (
    AllocationPinnedError,
    ProtocolError,
    ReclaimedMemoryError,
    SoftMemoryDenied,
    SoftMemoryError,
)
from repro.core.freepool import FreePool
from repro.core.groups import GroupRegistry
from repro.core.heap import SdsHeap
from repro.core.locking import LockedSoftMemoryAllocator, pinned_read
from repro.core.pointer import DerefScope, SoftPtr
from repro.core.reclaim import ReclamationStats, plan_sds_quotas
from repro.core.sma import SoftMemoryAllocator
from repro.core.softref import ReferenceQueue, SoftReference

__all__ = [
    "AllocationPinnedError",
    "BudgetLedger",
    "DerefScope",
    "FreePool",
    "GroupRegistry",
    "LockedSoftMemoryAllocator",
    "ProtocolError",
    "ReclaimCallback",
    "ReclaimedMemoryError",
    "ReclamationStats",
    "ReferenceQueue",
    "SdsContext",
    "SdsHeap",
    "SoftMemoryAllocator",
    "SoftMemoryDenied",
    "SoftMemoryError",
    "SoftPtr",
    "SoftReference",
    "pinned_read",
    "plan_sds_quotas",
]
