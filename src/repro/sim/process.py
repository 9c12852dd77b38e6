"""Simulated processes: an SMA plus a traditional footprint on a machine.

A :class:`SimProcess` is what the paper calls "Process A" and "Process
B" in Figure 1: a job with some traditional memory (frames taken at
spawn and never revocable) and an SMA through which all of its soft
memory flows. Its ``reclaim`` override charges simulated time for every
demand it services, so machine timelines show reclamation latency.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.reclaim import ReclamationStats
from repro.core.sma import SoftMemoryAllocator
from repro.util.units import PAGE_SIZE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.machine import Machine


class _TimedSma(SoftMemoryAllocator):
    """SMA that charges reclamation time to the machine clock."""

    def __init__(self, process: "SimProcess", **kwargs: object) -> None:
        super().__init__(**kwargs)  # type: ignore[arg-type]
        self._process = process

    def reclaim(self, demand_pages: int) -> ReclamationStats:
        stats = super().reclaim(demand_pages)
        machine = self._process.machine
        machine.clock.advance(machine.costs.reclamation_time(stats))
        return stats


class SimProcess:
    """One job on a simulated machine."""

    def __init__(
        self,
        machine: "Machine",
        name: str,
        traditional_pages: int = 0,
    ) -> None:
        self.machine = machine
        self.name = name
        self.traditional_pages = traditional_pages
        self.alive = True
        self.kills = 0
        machine.physical.allocate_frames(traditional_pages)
        self.sma: SoftMemoryAllocator = _TimedSma(
            self,
            physical=machine.physical,
            name=name,
        )
        self.record = machine.smd.register(
            self.sma,
            traditional_pages=traditional_pages,
            channel=machine.new_channel(),
        )

    # -- footprint ------------------------------------------------------

    @property
    def soft_bytes(self) -> int:
        return self.sma.soft_bytes

    @property
    def traditional_bytes(self) -> int:
        return self.traditional_pages * PAGE_SIZE

    @property
    def footprint_bytes(self) -> int:
        """Physical bytes attributable to this process right now."""
        return self.traditional_bytes + self.soft_bytes

    # -- lifecycle --------------------------------------------------------

    def kill(self) -> None:
        """Terminate the process, releasing every frame it holds.

        This is the fate soft memory exists to avoid; the kill-based
        baseline uses it directly.
        """
        if not self.alive:
            return
        # Soft side: every frame vanishes, no callbacks (that is the
        # disruption killing causes that reclamation avoids).
        self.sma.destroy()
        self.machine.smd.deregister(self.record.pid)
        # Traditional side: frames return to the machine.
        self.machine.physical.release_frames(self.traditional_pages)
        self.alive = False
        self.kills += 1
        self.machine.log.record(
            self.machine.clock.now, "process.kill", name=self.name
        )

    def __repr__(self) -> str:
        state = "alive" if self.alive else "dead"
        return f"<SimProcess {self.name!r} {state} soft={self.soft_bytes}B>"
