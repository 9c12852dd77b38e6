"""Calibrated cost model for simulated time.

Anchored to the paper's reported numbers:

* Figure 2 / section 5: reclaiming 2 MiB from a Redis holding 130 K
  pairs in 10 MiB took **3.75 s**, "spent almost exclusively in Redis
  code, invoked via the callback". 2 MiB at ~80 B/pair is ~26 K entries,
  giving **~144 us of callback cleanup per reclaimed entry** — that one
  number dominates reclamation time, exactly as the paper observes.
* Killing Redis instead costs "a minimum of **12 ms** of downtime", plus
  a load-dependent tail-latency period while the cache refills.

The remaining constants are commodity-hardware orders of magnitude; the
experiments' conclusions are insensitive to them because callback cost
dominates by 2-3 decimal orders.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.reclaim import ReclamationStats


@dataclass(frozen=True)
class CostModel:
    """Simulated durations (seconds) for memory-management actions."""

    #: application callback cleanup per reclaimed entry (Redis: ~144 us)
    callback_cost: float = 144e-6
    #: freeing one allocation inside the SMA (sans callback)
    free_cost: float = 1e-6
    #: making one soft allocation
    alloc_cost: float = 2e-6
    #: one SMA<->SMD request/response exchange (UNIX socket RTT)
    ipc_round_trip: float = 50e-6
    #: returning one page to the OS (munmap amortized)
    page_release_cost: float = 2e-6
    #: mapping/re-backing one page (page fault + zeroing)
    page_map_cost: float = 3e-6
    #: minimum process restart downtime (paper: 12 ms for Redis)
    restart_cost: float = 12e-3
    #: time to re-fetch one evicted cache entry from the backing store
    refill_cost_per_entry: float = 500e-6

    def reclamation_time(self, stats: ReclamationStats) -> float:
        """Simulated duration of servicing one reclamation demand.

        Callback cleanup dominates (the paper's observation); page
        release and bookkeeping are the small remainder.
        """
        return (
            stats.callbacks_invoked * self.callback_cost
            + stats.allocations_freed * self.free_cost
            + (stats.pages_from_pool + stats.pages_from_sds)
            * self.page_release_cost
        )

    def allocation_time(self, count: int, pages_mapped: int = 0) -> float:
        """Simulated duration of ``count`` soft allocations."""
        return count * self.alloc_cost + pages_mapped * self.page_map_cost
