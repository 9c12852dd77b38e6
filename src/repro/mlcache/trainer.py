"""Simulated training loop: throughput vs cache size.

Per step, the accelerator needs one batch; the input pipeline delivers
it from cache hits (cheap) and storage fetches (expensive, overlapped
:data:`IO_PARALLELISM` wide). Step latency is ``max(compute, io)`` — the
classic "input pipeline is the bottleneck" model from Plumber/Quiver
that section 2 leans on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mlcache.cache import InformedCache
from repro.mlcache.dataset import SyntheticDataset


BATCH_SIZE = 64
#: accelerator time per batch (seconds)
COMPUTE_TIME = 10e-3
#: concurrent storage fetches
IO_PARALLELISM = 8


@dataclass(frozen=True)
class TrainerConfig:
    """Training-loop parameters."""

    epochs: int = 1


@dataclass
class EpochReport:
    """Outcome of one epoch."""

    epoch: int
    steps: int = 0
    sim_seconds: float = 0.0
    hits: int = 0
    fetches: int = 0
    #: samples/second of training throughput
    throughput: float = 0.0
    io_bound_steps: int = 0


class TrainerSim:
    """Drives an :class:`InformedCache` through training epochs."""

    def __init__(
        self,
        dataset: SyntheticDataset,
        cache: InformedCache,
        config: TrainerConfig | None = None,
    ) -> None:
        self.dataset = dataset
        self.cache = cache
        self.config = config or TrainerConfig()
        self.reports: list[EpochReport] = []

    def run_epoch(self, epoch: int = 0) -> EpochReport:
        report = EpochReport(epoch=epoch)
        self.cache.start_epoch()
        consumed = 0
        while consumed < self.dataset.sample_count:
            hits, fetches = self.cache.draw_batch(BATCH_SIZE)
            got = hits + fetches
            if got == 0:
                break
            io_time = -(-fetches // IO_PARALLELISM) * self.dataset.fetch_cost
            step_time = max(COMPUTE_TIME, io_time)
            if io_time > COMPUTE_TIME:
                report.io_bound_steps += 1
            report.sim_seconds += step_time
            report.hits += hits
            report.fetches += fetches
            report.steps += 1
            consumed += got
        if report.sim_seconds > 0:
            report.throughput = consumed / report.sim_seconds
        self.reports.append(report)
        return report

    def run(self) -> list[EpochReport]:
        for epoch in range(self.config.epochs):
            self.run_epoch(epoch)
        return self.reports
