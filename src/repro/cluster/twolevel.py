"""Two-level memory scheduling with real per-machine daemons.

Section 2: "This suggests a two-level memory scheduling strategy: a
cluster scheduler primarily decides a-priori on traditional resource
memory allocations, while a lower-level soft memory scheduler
redistributes revocable memory while jobs run."

:class:`ClusterSim <repro.cluster.scheduler.ClusterSim>` models that
idea with abstract page counters; this module runs it **for real**: a
cluster of :class:`~repro.sim.machine.Machine` instances, each with its
own Soft Memory Daemon, where every job is a
:class:`~repro.sim.process.SimProcess` whose cache is an actual
:class:`~repro.sds.soft_linked_list.SoftLinkedList`. Cache growth goes
through the daemon's request path (weights, target cap, over-reclaim
percentage all apply), and pressure between co-located jobs plays out
through real reclamation demands and SDS evictions.

The upper level — placement by *traditional* ask, kills only for
traditional pressure — never touches soft memory; the lower level —
the per-machine SMDs — never makes placement decisions. Exactly the
split the paper proposes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.job import Job, JobState
from repro.cluster.scheduler import PRESSURE_PRIORITY, RESTART_BACKOFF, TICK
from repro.core.errors import SoftMemoryDenied
from repro.sds.soft_linked_list import SoftLinkedList
from repro.sim.machine import Machine, MachineConfig
from repro.sim.process import SimProcess
from repro.util.units import PAGE_SIZE


#: hard stop for pathological schedules
MAX_TIME = 1e5
#: cache pages a job may grow per tick (daemon traffic rate limit)
CACHE_GROWTH_PER_TICK = 8


@dataclass(frozen=True)
class TwoLevelConfig:
    """Cluster shape for the integrated simulation; the step, restart
    cost and kill priority are the upper-level simulator's."""

    machine_count: int
    machine_memory_bytes: int
    soft_capacity_bytes: int


@dataclass
class TwoLevelMetrics:
    """Outcome of one integrated run."""

    completed_jobs: int = 0
    evictions: int = 0
    wasted_cpu_seconds: float = 0.0
    denials: int = 0
    reclamation_episodes: int = 0
    pages_redistributed: int = 0
    makespan: float = 0.0
    mean_frame_utilization: float = 0.0

    def row(self) -> dict:
        return {
            "completed": self.completed_jobs,
            "evictions": self.evictions,
            "wasted_cpu_s": round(self.wasted_cpu_seconds, 1),
            "denials": self.denials,
            "episodes": self.reclamation_episodes,
            "pages_moved": self.pages_redistributed,
            "makespan_s": round(self.makespan, 1),
            "mean_util": round(self.mean_frame_utilization, 3),
        }


class _RunningJob:
    """A placed job: its process, cache SDS, and progress."""

    def __init__(self, job: Job, process: SimProcess) -> None:
        self.job = job
        self.process = process
        # job priority doubles as SDS priority: inside a machine, the
        # daemon's reclamation drains low-priority jobs' caches first
        self.cache = SoftLinkedList(
            process.sma,
            name=f"cache-{job.job_id}",
            priority=job.priority,
            element_size=PAGE_SIZE,
        )

    @property
    def cache_held(self) -> int:
        return len(self.cache)

    def progress_rate(self) -> float:
        if self.job.cache_pages == 0:
            return 1.0
        missing = 1.0 - min(1.0, self.cache_held / self.job.cache_pages)
        return 1.0 / (1.0 + self.job.cache_speedup * missing)


class IntegratedCluster:
    """Runs a job trace over real machines with real daemons."""

    def __init__(self, jobs: list[Job], config: TwoLevelConfig) -> None:
        self.config = config
        self.jobs = jobs
        self.machines = [
            Machine(MachineConfig(
                total_memory_bytes=config.machine_memory_bytes,
                soft_capacity_bytes=config.soft_capacity_bytes,
            ))
            for _ in range(config.machine_count)
        ]
        self.now = 0.0
        self.metrics = TwoLevelMetrics()
        self._pending: list[Job] = []
        self._running: dict[int, tuple[int, _RunningJob]] = {}
        self._arrivals = sorted(jobs, key=lambda j: j.arrival)
        self._arrival_idx = 0
        self._util_samples: list[float] = []

    # ------------------------------------------------------------------

    def run(self) -> TwoLevelMetrics:
        while self.now < MAX_TIME:
            self._admit_arrivals()
            self._schedule_pending()
            self._grow_caches()
            self._make_progress()
            self._sample()
            if self._all_done():
                break
            self.now += TICK
        self._finalize()
        return self.metrics

    def _all_done(self) -> bool:
        return (
            self._arrival_idx >= len(self._arrivals)
            and not self._pending
            and not self._running
        )

    # -- level one: traditional placement ---------------------------------

    def _admit_arrivals(self) -> None:
        while (
            self._arrival_idx < len(self._arrivals)
            and self._arrivals[self._arrival_idx].arrival <= self.now
        ):
            self._pending.append(self._arrivals[self._arrival_idx])
            self._arrival_idx += 1

    def _schedule_pending(self) -> None:
        self._pending.sort(key=lambda j: (-j.priority, j.arrival))
        still: list[Job] = []
        for job in self._pending:
            if job.eligible_at > self.now or not self._try_place(job):
                if job.state is not JobState.IMPOSSIBLE:
                    still.append(job)
        self._pending = still

    def _traditional_capacity(self, machine_idx: int) -> int:
        """Frames the upper level may hand out as traditional memory.

        The paper grants "a soft memory budget on top of the traditional
        memory limit": the soft region is the daemon's to manage, so the
        cluster scheduler never places mandatory memory into it.
        """
        machine = self.machines[machine_idx]
        return machine.physical.total_frames - machine.smd.capacity_pages

    def _traditional_used(self, machine_idx: int) -> int:
        return sum(
            running.job.mandatory_pages
            for idx, running in self._running.values()
            if idx == machine_idx
        )

    def _traditional_free(self, machine_idx: int) -> int:
        return self._traditional_capacity(machine_idx) - self._traditional_used(
            machine_idx
        )

    def _try_place(self, job: Job) -> bool:
        need = job.mandatory_pages
        if need > max(
            self._traditional_capacity(i)
            for i in range(len(self.machines))
        ):
            job.state = JobState.IMPOSSIBLE
            return False
        for idx in range(len(self.machines)):
            if self._traditional_free(idx) >= need:
                self._start(job, idx)
                return True
        if job.priority < PRESSURE_PRIORITY:
            return False
        # Traditional pressure: Borg-style kill on the roomiest machine.
        idx = max(
            range(len(self.machines)),
            key=self._traditional_free,
        )
        self._kill_for_room(idx, need, job)
        if self._traditional_free(idx) >= need:
            self._start(job, idx)
            return True
        return False

    def _start(self, job: Job, machine_idx: int) -> None:
        machine = self.machines[machine_idx]
        process = machine.spawn(
            f"job-{job.job_id}", traditional_pages=job.mandatory_pages
        )
        job.state = JobState.RUNNING
        job.machine_id = machine_idx
        self._running[job.job_id] = (machine_idx, _RunningJob(job, process))

    def _kill_for_room(
        self, machine_idx: int, needed_frames: int, beneficiary: Job
    ) -> None:
        victims = sorted(
            (
                (job_id, running)
                for job_id, (idx, running) in self._running.items()
                if idx == machine_idx
                and running.job.priority < beneficiary.priority
            ),
            key=lambda kv: (kv[1].job.priority, -kv[1].job.mandatory_pages),
        )
        for job_id, running in victims:
            if self._traditional_free(machine_idx) >= needed_frames:
                break
            running.process.kill()
            running.job.evict()
            running.job.eligible_at = self.now + RESTART_BACKOFF
            del self._running[job_id]
            self._pending.append(running.job)
            self.metrics.evictions += 1

    # -- level two: soft memory dynamics ------------------------------------

    def _grow_caches(self) -> None:
        """Jobs opportunistically grow caches through their machine's SMD.

        Growth may trigger real reclamation from co-located jobs (their
        SDSs shrink) or be denied — both are the lower-level scheduler
        at work; the upper level never gets involved.
        """
        for __, running in self._running.values():
            want = min(
                CACHE_GROWTH_PER_TICK,
                running.job.cache_pages - running.cache_held,
            )
            for i in range(max(0, want)):
                try:
                    running.cache.append(self.now)
                except SoftMemoryDenied:
                    break

    def _make_progress(self) -> None:
        finished: list[int] = []
        for job_id, (idx, running) in self._running.items():
            running.job.progress += running.progress_rate() * TICK
            if running.job.progress >= running.job.duration:
                finished.append(job_id)
        for job_id in finished:
            __, running = self._running.pop(job_id)
            running.job.state = JobState.FINISHED
            running.job.finish_time = self.now + TICK
            running.process.kill()  # graceful exit frees everything

    def _sample(self) -> None:
        used = sum(m.physical.used_frames for m in self.machines)
        total = sum(m.physical.total_frames for m in self.machines)
        self._util_samples.append(used / total)

    def _finalize(self) -> None:
        m = self.metrics
        m.completed_jobs = sum(
            1 for j in self.jobs if j.state is JobState.FINISHED
        )
        m.wasted_cpu_seconds = sum(j.wasted_work for j in self.jobs)
        m.makespan = self.now
        m.denials = sum(mc.smd.denials for mc in self.machines)
        m.reclamation_episodes = sum(
            mc.smd.reclamation_episodes for mc in self.machines
        )
        # From the event log (registry records vanish when jobs exit).
        m.pages_redistributed = sum(
            event.detail["pages"]
            for mc in self.machines
            for event in mc.smd.log.of_kind("demand.done")
        )
        if self._util_samples:
            m.mean_frame_utilization = sum(self._util_samples) / len(
                self._util_samples
            )
