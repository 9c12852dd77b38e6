"""Tests for the kill-vs-soft cluster simulator."""

import pytest

from repro.cluster.job import Job, JobState
from repro.cluster.scheduler import ClusterConfig, ClusterSim, PressurePolicy
from repro.cluster.trace import TraceConfig, synthetic_trace


def job(job_id, arrival=0.0, duration=10.0, priority=0,
        mandatory=100, cache=0, **kwargs):
    return Job(
        job_id=job_id, arrival=arrival, duration=duration,
        priority=priority, mandatory_pages=mandatory, cache_pages=cache,
        **kwargs,
    )


FOUR_MACHINES = dict(machine_count=4, machine_capacity_pages=2048)


def run(jobs, policy=PressurePolicy.SOFT, **cfg):
    defaults = dict(machine_count=1, machine_capacity_pages=1000, policy=policy)
    defaults.update(cfg)
    sim = ClusterSim(jobs, ClusterConfig(**defaults))
    return sim, sim.run()


class TestBasicScheduling:
    def test_single_job_completes(self):
        jobs = [job(0, duration=5)]
        __, metrics = run(jobs)
        assert metrics.completed_jobs == 1
        assert jobs[0].state is JobState.FINISHED
        assert jobs[0].finish_time is not None

    def test_jobs_queue_when_full(self):
        jobs = [job(0, duration=10, mandatory=800),
                job(1, duration=10, mandatory=800)]
        __, metrics = run(jobs)
        assert metrics.completed_jobs == 2
        assert metrics.evictions == 0
        # second job had to wait for the first
        assert jobs[1].finish_time > jobs[0].finish_time

    def test_impossible_job_flagged(self):
        jobs = [job(0, mandatory=2000)]
        __, metrics = run(jobs)
        assert jobs[0].state is JobState.IMPOSSIBLE
        assert metrics.completed_jobs == 0

    def test_cache_only_impossible_in_kill_world(self):
        """A job whose ask only fits without its cache runs in the soft
        world but is unschedulable in the kill world."""
        spec = dict(duration=5, mandatory=700, cache=500)
        kill_jobs = [job(0, **spec)]
        __, kill_metrics = run(kill_jobs, PressurePolicy.KILL)
        soft_jobs = [job(0, **spec)]
        __, soft_metrics = run(soft_jobs, PressurePolicy.SOFT)
        assert kill_jobs[0].state is JobState.IMPOSSIBLE
        assert soft_jobs[0].state is JobState.FINISHED

    def test_multiple_machines(self):
        jobs = [job(i, duration=5, mandatory=800) for i in range(3)]
        __, metrics = run(jobs, machine_count=3)
        assert metrics.completed_jobs == 3
        machines_used = {j.machine_id for j in jobs}
        assert len(machines_used) == 3


class TestKillPolicy:
    def test_high_priority_evicts_batch(self):
        batch = job(0, duration=100, priority=0, mandatory=800)
        prod = job(1, arrival=5.0, duration=10, priority=2, mandatory=800)
        __, metrics = run([batch, prod], PressurePolicy.KILL)
        assert batch.evictions >= 1
        assert metrics.wasted_cpu_seconds > 0
        assert metrics.completed_jobs == 2  # batch eventually re-runs

    def test_batch_cannot_evict(self):
        first = job(0, duration=50, priority=0, mandatory=800)
        second = job(1, arrival=5.0, duration=10, priority=0, mandatory=800)
        __, metrics = run([first, second], PressurePolicy.KILL)
        assert metrics.evictions == 0  # equal priority: second waits

    def test_cache_counts_against_placement(self):
        a = job(0, duration=50, mandatory=400, cache=400)
        b = job(1, arrival=1.0, duration=50, mandatory=400, cache=400)
        sim, __ = run([a, b], PressurePolicy.KILL)
        # 800 + 800 > 1000: they cannot share the machine
        assert a.finish_time is not None and b.finish_time is not None
        assert b.finish_time > a.finish_time + 40


class TestSoftPolicy:
    def test_caches_grow_into_free_memory(self):
        a = job(0, duration=20, mandatory=100, cache=300)
        sim, __ = run([a])
        assert a.cache_held == 0 or a.state is JobState.FINISHED
        # cache reached its target at some point: full progress rate
        assert a.finish_time < 25  # ran at ~rate 1 with cache

    def test_pressure_reclaims_instead_of_killing(self):
        batch = job(0, duration=100, priority=0, mandatory=300, cache=600)
        prod = job(1, arrival=5.0, duration=10, priority=2, mandatory=600)
        __, metrics = run([batch, prod], PressurePolicy.SOFT)
        assert metrics.evictions == 0
        assert metrics.pages_reclaimed > 0
        assert batch.cache_reclaimed > 0
        assert metrics.completed_jobs == 2

    def test_forced_kill_when_mandatory_pressure(self):
        batch = job(0, duration=100, priority=0, mandatory=800, cache=0)
        prod = job(1, arrival=5.0, duration=10, priority=2, mandatory=800)
        __, metrics = run([batch, prod], PressurePolicy.SOFT)
        assert metrics.forced_kills >= 1
        assert batch.evictions >= 1

    def test_reclaimed_jobs_run_slower(self):
        """Losing cache slows a job down rather than restarting it."""
        rich = job(0, duration=30, mandatory=100, cache=400,
                   cache_speedup=1.0)
        sim, __ = run([rich])
        fast_finish = rich.finish_time

        rich2 = job(0, duration=30, mandatory=100, cache=400,
                    cache_speedup=1.0)
        thief = job(1, arrival=1.0, duration=200, priority=2, mandatory=880)
        __, metrics = run([rich2, thief])
        assert rich2.evictions == 0
        assert rich2.finish_time > fast_finish


class TestPolicyComparison:
    @pytest.mark.parametrize("seed", [1, 11, 42])
    def test_soft_reduces_evictions_on_synthetic_traces(self, seed):
        """The paper's headline cluster claim, across seeds."""
        cfg = TraceConfig(job_count=120, seed=seed)
        kill_sim = ClusterSim(
            synthetic_trace(cfg),
            ClusterConfig(**FOUR_MACHINES, policy=PressurePolicy.KILL),
        )
        soft_sim = ClusterSim(
            synthetic_trace(cfg),
            ClusterConfig(**FOUR_MACHINES, policy=PressurePolicy.SOFT),
        )
        kill = kill_sim.run()
        soft = soft_sim.run()
        assert soft.evictions < kill.evictions
        assert soft.wasted_cpu_seconds < kill.wasted_cpu_seconds

    def test_metrics_rows_have_stable_schema(self):
        cfg = TraceConfig(job_count=30, seed=5)
        sim = ClusterSim(synthetic_trace(cfg), ClusterConfig(**FOUR_MACHINES))
        row = sim.run().row()
        assert set(row) == {
            "policy", "completed", "evictions", "wasted_cpu_s", "reclaims",
            "forced_kills", "makespan_s", "mean_util", "mean_turnaround_s",
        }

    def test_all_jobs_accounted(self):
        cfg = TraceConfig(job_count=60, seed=8)
        jobs = synthetic_trace(cfg)
        sim = ClusterSim(jobs, ClusterConfig(**FOUR_MACHINES))
        metrics = sim.run()
        terminal = sum(
            1 for j in jobs
            if j.state in (JobState.FINISHED, JobState.IMPOSSIBLE)
        )
        assert terminal == len(jobs)
        assert metrics.completed_jobs == sum(
            1 for j in jobs if j.state is JobState.FINISHED
        )
