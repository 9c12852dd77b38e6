"""Kill-and-restart: what happens to Redis without soft memory.

Section 5: "Without soft memory, Redis would crash under memory
pressure. The cost of such a termination is a minimum of 12 ms of
downtime for Redis to restart, with an additional, load-dependent
period of increased tail latency while the cache refills."

This model quantifies that cost for the comparison benchmark: total
entries lost (all of them — a kill drops the whole keyspace, not the
2 MiB a reclamation would take), downtime, and refill time at a given
request load.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.costs import CostModel


@dataclass(frozen=True)
class KillOutcome:
    """Cost accounting of one kill-restart episode."""

    entries_lost: int
    downtime_seconds: float
    #: time until the cache regained its pre-kill hit rate
    refill_seconds: float
    #: misses served at degraded latency during the refill window
    degraded_requests: int

    @property
    def total_disruption_seconds(self) -> float:
        return self.downtime_seconds + self.refill_seconds


class KillRestartModel:
    """Computes kill-restart outcomes under a request load."""

    def __init__(self, costs: CostModel | None = None) -> None:
        self.costs = costs or CostModel()

    def episode(
        self,
        entries: int,
        *,
        request_rate: float,
        refetch_fraction: float = 1.0,
    ) -> KillOutcome:
        """Cost of killing a cache holding ``entries`` entries.

        ``request_rate`` is client requests/second after restart;
        ``refetch_fraction`` is the share of lost entries the workload
        actually touches again (1.0 = full refill).
        """
        if entries < 0:
            raise ValueError("entries must be non-negative")
        if request_rate <= 0:
            raise ValueError("request_rate must be positive")
        if not 0.0 <= refetch_fraction <= 1.0:
            raise ValueError("refetch_fraction must be in [0, 1]")
        to_refill = int(entries * refetch_fraction)
        # Every re-touched key is one miss + one backing-store fetch.
        refill_seconds = (
            to_refill * self.costs.refill_cost_per_entry
            if request_rate * self.costs.refill_cost_per_entry >= 1.0
            else to_refill / request_rate
        )
        return KillOutcome(
            entries_lost=entries,
            downtime_seconds=self.costs.restart_cost,
            refill_seconds=refill_seconds,
            degraded_requests=to_refill,
        )
