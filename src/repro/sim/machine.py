"""One simulated machine: frames + daemon + clock + timeline log.

The machine wires the pieces the paper's Figure 1 draws: a shared
physical frame pool, the per-machine Soft Memory Daemon, and per-process
SMAs connected over latency-charged channels. Footprint sampling
produces the time series that Figure 2 plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.daemon.ipc import Channel
from repro.daemon.smd import SmdConfig, SoftMemoryDaemon
from repro.mem.physical import PhysicalMemory
from repro.sim.clock import SimClock
from repro.sim.costs import CostModel
from repro.sim.process import SimProcess
from repro.util.eventlog import EventLog
from repro.util.units import MIB, bytes_to_pages


@dataclass
class MachineConfig:
    """Machine-level sizing.

    The Figure 2 setup is a machine with 20 MiB of soft capacity — tiny
    by production standards but the paper's actual experiment scale.
    """

    total_memory_bytes: int = 64 * MIB
    soft_capacity_bytes: int = 20 * MIB
    smd: SmdConfig = field(default_factory=SmdConfig)


class Machine:
    """Container for one machine's memory-management stack."""

    def __init__(self, config: MachineConfig | None = None) -> None:
        self.config = config or MachineConfig()
        self.clock = SimClock()
        self.log = EventLog()
        self.costs = CostModel()
        self.physical = PhysicalMemory(self.config.total_memory_bytes)
        self.smd = SoftMemoryDaemon(
            soft_capacity_pages=bytes_to_pages(
                self.config.soft_capacity_bytes
            ),
            config=self.config.smd,
            event_log=self.log,
            time_fn=lambda: self.clock.now,
        )
        self.processes: list[SimProcess] = []

    def new_channel(self) -> Channel:
        """A daemon channel that charges IPC latency to the clock."""
        return Channel(
            on_round_trip=lambda: self.clock.advance(self.costs.ipc_round_trip)
        )

    def spawn(self, name: str, traditional_pages: int = 0) -> SimProcess:
        """Start a process with ``traditional_pages`` of fixed memory."""
        process = SimProcess(self, name, traditional_pages)
        self.processes.append(process)
        self.log.record(
            self.clock.now,
            "process.spawn",
            name=name,
            traditional_pages=traditional_pages,
        )
        return process

    def sample_footprints(self) -> None:
        """Record every live process's footprint at the current time.

        The Figure 2 series are built from these samples:
        ``log.series("footprint", "<process name>")``.
        """
        detail = {
            p.name: p.footprint_bytes for p in self.processes if p.alive
        }
        self.log.record(self.clock.now, "footprint", **detail)

    def footprint_series(self, name: str) -> list[tuple[float, int]]:
        """(time, bytes) samples for one process."""
        return self.log.series("footprint", name)

    @property
    def alive_processes(self) -> list[SimProcess]:
        return [p for p in self.processes if p.alive]

    def __repr__(self) -> str:
        return (
            f"<Machine t={self.clock.now:.3f}s "
            f"procs={len(self.alive_processes)} "
            f"mem={self.physical.used_frames}/{self.physical.total_frames}f>"
        )
