"""Tests for the integrated two-level cluster."""

import pytest

from repro.cluster.job import Job, JobState
from repro.cluster.trace import TraceConfig, synthetic_trace
from repro.cluster.scheduler import TICK
from repro.cluster.twolevel import IntegratedCluster, TwoLevelConfig
from repro.util.units import PAGE_SIZE


def job(job_id, arrival=0.0, duration=10.0, priority=0,
        mandatory=100, cache=0, **kwargs):
    return Job(
        job_id=job_id, arrival=arrival, duration=duration,
        priority=priority, mandatory_pages=mandatory, cache_pages=cache,
        **kwargs,
    )


def config(**kwargs) -> TwoLevelConfig:
    defaults = dict(
        machine_count=1,
        machine_memory_bytes=1024 * PAGE_SIZE,
        soft_capacity_bytes=512 * PAGE_SIZE,
    )
    defaults.update(kwargs)
    return TwoLevelConfig(**defaults)


class TestPlacement:
    def test_single_job_completes(self):
        jobs = [job(0, duration=5)]
        metrics = IntegratedCluster(jobs, config()).run()
        assert metrics.completed_jobs == 1
        assert jobs[0].state is JobState.FINISHED

    def test_traditional_partition_respected(self):
        """Mandatory memory may only use total - soft_capacity frames."""
        # 1024 total, 512 soft => 512 traditional frames
        jobs = [job(0, duration=30, mandatory=300),
                job(1, duration=30, mandatory=300)]
        sim = IntegratedCluster(jobs, config())
        metrics = sim.run()
        assert metrics.completed_jobs == 2
        # they could not run simultaneously: 600 > 512
        assert jobs[1].finish_time > jobs[0].finish_time + 20

    def test_impossible_job(self):
        jobs = [job(0, mandatory=600)]  # > 512 traditional frames
        metrics = IntegratedCluster(jobs, config()).run()
        assert jobs[0].state is JobState.IMPOSSIBLE
        assert metrics.completed_jobs == 0

    def test_traditional_kill_for_priority(self):
        batch = job(0, duration=100, priority=0, mandatory=400)
        prod = job(1, arrival=5.0, duration=10, priority=2, mandatory=400)
        metrics = IntegratedCluster([batch, prod], config()).run()
        assert metrics.evictions >= 1
        assert batch.evictions >= 1
        assert metrics.completed_jobs == 2

    def test_frames_fully_released_at_end(self):
        jobs = synthetic_trace(TraceConfig(
            job_count=20, seed=4, mandatory_median_pages=64))
        sim = IntegratedCluster(jobs, config(machine_count=2))
        sim.run()
        for machine in sim.machines:
            assert machine.physical.used_frames == 0
            assert machine.smd.assigned_pages == 0


class TestSoftLevel:
    def test_caches_grow_through_real_daemon(self):
        jobs = [job(0, duration=30, mandatory=64, cache=100)]
        sim = IntegratedCluster(jobs, config())
        metrics = sim.run()
        assert metrics.completed_jobs == 1
        # cache growth ran through the daemon's request path
        machine = sim.machines[0]
        assert machine.smd.requests > 0

    def test_colocated_pressure_redistributes(self):
        """Two cache-hungry jobs on one machine: the daemon moves soft
        pages between them instead of anyone dying."""
        a = job(0, duration=60, mandatory=64, cache=400)
        b = job(1, arrival=10.0, duration=60, priority=0,
                mandatory=64, cache=400)
        sim = IntegratedCluster([a, b], config())
        metrics = sim.run()
        assert metrics.completed_jobs == 2
        assert metrics.evictions == 0
        assert metrics.reclamation_episodes > 0
        assert metrics.pages_redistributed > 0

    def test_capacity_shared_between_colocated_jobs(self):
        """Two jobs wanting 600 pages of cache on a 512-page soft
        region: the daemon's weight policy splits the region between
        them (neither starves, the sum respects capacity).

        Note the paper's weight metric considers memory footprints, not
        job priority — cross-process priority protection is an upper
        (cluster) level concern, deliberately not wired through here.
        """
        a = job(0, duration=2000, priority=2, mandatory=32, cache=300)
        b = job(1, duration=2000, priority=0, mandatory=32, cache=300)
        sim = IntegratedCluster([a, b], config())
        for _ in range(240):  # 8 cache pages a tick: 4x the ticks 32 took
            sim._admit_arrivals()
            sim._schedule_pending()
            sim._grow_caches()
            sim._make_progress()
            sim.now += TICK
        running = {r.job.job_id: r for __, r in sim._running.values()}
        total = running[0].cache_held + running[1].cache_held
        assert total <= 512
        assert total >= 400  # the region is actually being used
        assert running[0].cache_held > 50
        assert running[1].cache_held > 50  # nobody starves

    def test_cache_speeds_up_completion(self):
        fast = job(0, duration=30, mandatory=64, cache=100,
                   cache_speedup=1.0)
        IntegratedCluster([fast], config()).run()
        with_cache = fast.finish_time

        slow = job(0, duration=30, mandatory=64, cache=100,
                   cache_speedup=1.0)
        sim = IntegratedCluster([slow], config(
            soft_capacity_bytes=1 * PAGE_SIZE))  # effectively no soft mem
        sim.run()
        assert slow.finish_time > with_cache


class TestTraceRuns:
    @pytest.mark.parametrize("seed", [3, 17])
    def test_synthetic_trace_completes(self, seed):
        jobs = synthetic_trace(TraceConfig(
            job_count=40, seed=seed, mandatory_median_pages=96))
        sim = IntegratedCluster(jobs, config(machine_count=3))
        metrics = sim.run()
        terminal = sum(
            1 for j in jobs
            if j.state in (JobState.FINISHED, JobState.IMPOSSIBLE)
        )
        assert terminal == len(jobs)
        assert metrics.denials == 0 or metrics.completed_jobs > 0
        row = metrics.row()
        assert set(row) == {
            "completed", "evictions", "wasted_cpu_s", "denials",
            "episodes", "pages_moved", "makespan_s", "mean_util",
        }
