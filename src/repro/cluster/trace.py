"""Synthetic cluster trace generation.

Shaped after the published cluster analyses the paper cites [4, 14, 22]:
a heavy-tailed mix dominated by low-priority batch work, Poisson
arrivals, exponential-ish durations, and log-normal memory asks. The
parameters are knobs, not claims — the eviction experiment sweeps load
to show the *policy* difference, which is robust to the trace shape.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.cluster.job import Job
from repro.sim.workload import DiurnalLoad


#: mean job duration in seconds (exponential)
MEAN_DURATION = 120.0
#: log-normal sigma of the mandatory memory ask
MANDATORY_SIGMA = 0.8
#: cache size as a fraction of the mandatory ask (uniform range)
CACHE_FRACTION = (0.25, 1.0)
#: probability of priority levels 0 (batch) and 1 (mid); the rest is prod
P_BATCH, P_MID = 0.7, 0.2
#: day length for the diurnal pattern, in trace seconds
DIURNAL_PERIOD = 2000.0


@dataclass(frozen=True)
class TraceConfig:
    """Synthetic trace parameters."""

    job_count: int = 200
    #: mean seconds between arrivals (Poisson process)
    mean_interarrival: float = 5.0
    #: log-normal median of the mandatory memory ask, in pages
    mandatory_median_pages: int = 256
    #: "poisson" for a flat arrival rate, "diurnal" to modulate the
    #: rate by the day/night curve (section 2's shifting consumption)
    arrival_pattern: str = "poisson"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.arrival_pattern not in ("poisson", "diurnal"):
            raise ValueError(
                f"unknown arrival pattern {self.arrival_pattern!r}"
            )


def synthetic_trace(config: TraceConfig | None = None) -> list[Job]:
    """Generate a deterministic job list from ``config``."""
    cfg = config or TraceConfig()
    rng = random.Random(cfg.seed)
    jobs: list[Job] = []
    t = 0.0
    load = DiurnalLoad(peak_rps=2.0, trough_rps=0.25, period=DIURNAL_PERIOD)
    for job_id in range(cfg.job_count):
        gap = rng.expovariate(1.0 / cfg.mean_interarrival)
        if cfg.arrival_pattern == "diurnal":
            # high load shortens gaps, night stretches them
            gap /= load.rate(t)
        t += gap
        duration = max(1.0, rng.expovariate(1.0 / MEAN_DURATION))
        mandatory = max(
            1, int(rng.lognormvariate(0, MANDATORY_SIGMA)
                   * cfg.mandatory_median_pages)
        )
        cache = int(mandatory * rng.uniform(*CACHE_FRACTION))
        u = rng.random()
        if u < P_BATCH:
            priority = 0
        elif u < P_BATCH + P_MID:
            priority = 1
        else:
            priority = 2
        jobs.append(
            Job(
                job_id=job_id,
                arrival=t,
                duration=duration,
                priority=priority,
                mandatory_pages=mandatory,
                cache_pages=cache,
            )
        )
    return jobs
