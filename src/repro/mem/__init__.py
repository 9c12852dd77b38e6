"""Simulated machine-memory substrate.

The paper's C++ prototype manipulates real OS pages (returning them with
``munmap``/``madvise`` and re-backing released virtual pages). Python has
no such control, so this package models memory as *accounting* objects:

* :class:`~repro.mem.physical.PhysicalMemory` — a machine-wide pool of
  page frames with out-of-memory semantics.
* :class:`~repro.mem.virtual.VirtualAddressSpace` — per-process virtual
  pages that can be backed, released (unbacked), and re-backed.
* :class:`~repro.mem.page.Page` — one mapped page with byte-granularity
  occupancy via an extent map.
* :class:`~repro.mem.sysalloc.SystemAllocator` — the textbook allocator
  baseline the paper compares against, built on the same extent core but
  with none of the soft-memory machinery.

All the paper's mechanisms that matter here (page-granularity reclaim,
fully-free-page detection, fragmentation, re-backing) are bookkeeping
decisions, so the accounting model exercises the same logic paths.
"""

from repro.mem.errors import FrameLeakError, OutOfMemoryError
from repro.mem.extent import ExtentMap
from repro.mem.page import Page
from repro.mem.physical import PhysicalMemory
from repro.mem.placer import PagePlacer
from repro.mem.sizeclass import SIZE_CLASSES, SizeClassPlacer, class_for
from repro.mem.virtual import VirtualAddressSpace, VirtualPage
from repro.mem.sysalloc import SystemAllocator

__all__ = [
    "ExtentMap",
    "FrameLeakError",
    "OutOfMemoryError",
    "Page",
    "PagePlacer",
    "PhysicalMemory",
    "SIZE_CLASSES",
    "SizeClassPlacer",
    "SystemAllocator",
    "class_for",
    "VirtualAddressSpace",
    "VirtualPage",
]
