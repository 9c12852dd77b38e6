"""Cluster simulator: kill-based vs soft-memory pressure handling.

The simulation advances in fixed ticks. Jobs arrive, are placed
first-fit onto machines by *mandatory* memory, grow their cache, make
progress, and finish. When a machine cannot satisfy a memory need:

* ``PressurePolicy.KILL`` (the Borg status quo, section 2): evict the
  lowest-priority resident job — its completed work is wasted and it
  re-queues from scratch.
* ``PressurePolicy.SOFT``: reclaim cache (soft) pages from resident
  jobs in descending reclamation weight (the paper's SMD metric); jobs
  slow down but keep their progress. Killing happens only if mandatory
  memory alone exceeds capacity.

In the kill world, cache memory is ordinary memory: the scheduler must
fit ``mandatory + cache`` and cannot take any of it back. That is
exactly the inflexibility the paper describes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.cluster.job import Job, JobState, MachineSlot
from repro.cluster.metrics import ClusterMetrics
from repro.daemon.weights import paper_weight


class PressurePolicy(enum.Enum):
    KILL = "kill"
    SOFT = "soft"


#: simulation step, seconds
TICK = 1.0
#: hard stop for pathological schedules
MAX_TIME = 1e6
#: delay before an evicted job may be re-placed (restart cost)
RESTART_BACKOFF = 10.0
#: only jobs at or above this priority may trigger pressure
#: (Borg evicts victims for *higher-priority* arrivals; batch waits)
PRESSURE_PRIORITY = 1


@dataclass(frozen=True)
class ClusterConfig:
    """Cluster sizing: every experiment states its machines."""

    machine_count: int
    machine_capacity_pages: int
    policy: PressurePolicy = PressurePolicy.SOFT


class ClusterSim:
    """One cluster run over a job trace."""

    def __init__(self, jobs: list[Job], config: ClusterConfig) -> None:
        self.config = config
        self.jobs = jobs
        self.machines = [
            MachineSlot(i, config.machine_capacity_pages)
            for i in range(config.machine_count)
        ]
        self.now = 0.0
        self.metrics = ClusterMetrics(policy=config.policy.value)
        self._pending: list[Job] = []
        self._arrivals = sorted(jobs, key=lambda j: j.arrival)
        self._arrival_idx = 0

    # ------------------------------------------------------------------

    def run(self) -> ClusterMetrics:
        """Advance until every job finished (or max_time)."""
        while self.now < MAX_TIME:
            self._admit_arrivals()
            self._schedule_pending()
            self._grow_caches()
            self._make_progress()
            self._sample_utilization()
            if self._all_done():
                break
            self.now += TICK
        self.metrics.finalize(self.jobs, self.now)
        return self.metrics

    def _all_done(self) -> bool:
        return (
            self._arrival_idx >= len(self._arrivals)
            and not self._pending
            and all(j.state is not JobState.RUNNING for j in self.jobs)
        )

    # -- arrivals and placement -------------------------------------------

    def _admit_arrivals(self) -> None:
        while (
            self._arrival_idx < len(self._arrivals)
            and self._arrivals[self._arrival_idx].arrival <= self.now
        ):
            self._pending.append(self._arrivals[self._arrival_idx])
            self._arrival_idx += 1

    def _schedule_pending(self) -> None:
        """Place queued jobs, highest priority first."""
        self._pending.sort(key=lambda j: (-j.priority, j.arrival))
        still_pending: list[Job] = []
        for job in self._pending:
            if job.eligible_at > self.now:
                still_pending.append(job)
            elif not self._try_place(job):
                if job.state is not JobState.IMPOSSIBLE:
                    still_pending.append(job)
        self._pending = still_pending

    def _footprint_to_place(self, job: Job) -> int:
        """Pages that must be free to start ``job``.

        Kill world: the whole ask, because cache memory is ordinary
        memory the scheduler can never take back. Soft world: only the
        mandatory part — cache grows later from revocable soft memory.
        """
        if self.config.policy is PressurePolicy.KILL:
            return job.total_ask_pages
        return job.mandatory_pages

    def _try_place(self, job: Job) -> bool:
        need = self._footprint_to_place(job)
        if need > max(m.capacity_pages for m in self.machines):
            job.state = JobState.IMPOSSIBLE
            return False
        for machine in self.machines:
            if machine.free_pages >= need:
                self._start(job, machine)
                return True
        # Low-priority jobs wait; higher priorities may apply pressure.
        if job.priority < PRESSURE_PRIORITY:
            return False
        machine = max(self.machines, key=lambda m: m.free_pages)
        self._relieve_pressure(machine, need - machine.free_pages, job)
        if machine.free_pages >= need:
            self._start(job, machine)
            return True
        return False

    def _start(self, job: Job, machine: MachineSlot) -> None:
        job.state = JobState.RUNNING
        job.machine_id = machine.machine_id
        job.cache_held = (
            job.cache_pages
            if self.config.policy is PressurePolicy.KILL
            else 0
        )
        machine.jobs.append(job)

    # -- pressure ----------------------------------------------------------

    def _relieve_pressure(
        self, machine: MachineSlot, needed_pages: int, beneficiary: Job
    ) -> bool:
        if self.config.policy is PressurePolicy.KILL:
            return self._relieve_by_killing(machine, needed_pages, beneficiary)
        return self._relieve_by_reclaiming(machine, needed_pages, beneficiary)

    def _relieve_by_killing(
        self, machine: MachineSlot, needed_pages: int, beneficiary: Job
    ) -> bool:
        """Borg-style: kill lowest-priority victims first."""
        freed = 0
        victims = sorted(
            (j for j in machine.jobs if j.priority < beneficiary.priority),
            key=lambda j: (j.priority, -j.used_pages),
        )
        for victim in victims:
            if freed >= needed_pages:
                break
            freed += victim.used_pages
            self._kill(victim, machine)
        return freed >= needed_pages

    def _relieve_by_reclaiming(
        self, machine: MachineSlot, needed_pages: int, beneficiary: Job
    ) -> bool:
        """Soft memory: shrink caches by descending reclamation weight."""
        freed = 0
        targets = sorted(
            (j for j in machine.jobs if j.cache_held > 0 and j is not beneficiary),
            key=lambda j: -paper_weight(j.mandatory_pages, j.cache_held),
        )
        if targets:
            self.metrics.reclamation_events += 1
        for job in targets:
            if freed >= needed_pages:
                break
            take = min(job.cache_held, needed_pages - freed)
            job.cache_held -= take
            job.cache_reclaimed += take
            freed += take
            self.metrics.pages_reclaimed += take
        if freed >= needed_pages:
            return True
        # Mandatory-memory pressure: soft memory cannot help; last resort.
        if self._relieve_by_killing(machine, needed_pages - freed, beneficiary):
            self.metrics.forced_kills += 1
            return True
        return False

    def _kill(self, job: Job, machine: MachineSlot) -> None:
        machine.jobs.remove(job)
        job.evict()
        job.eligible_at = self.now + RESTART_BACKOFF
        self._pending.append(job)

    # -- per-tick dynamics ---------------------------------------------------

    def _grow_caches(self) -> None:
        """Soft world: jobs opportunistically grow caches into free pages."""
        if self.config.policy is PressurePolicy.KILL:
            return
        for machine in self.machines:
            for job in machine.jobs:
                want = job.cache_pages - job.cache_held
                if want <= 0:
                    continue
                grab = min(want, machine.free_pages)
                job.cache_held += grab

    def _make_progress(self) -> None:
        for machine in self.machines:
            for job in list(machine.jobs):
                job.progress += job.progress_rate() * TICK
                if job.progress >= job.duration:
                    job.state = JobState.FINISHED
                    job.finish_time = self.now + TICK
                    job.cache_held = 0
                    machine.jobs.remove(job)

    def _sample_utilization(self) -> None:
        used = sum(m.used_pages for m in self.machines)
        capacity = sum(m.capacity_pages for m in self.machines)
        self.metrics.utilization_samples.append(used / capacity)
