"""Tests for synthetic cluster trace generation."""

from repro.cluster.job import Job, JobState
from repro.cluster.trace import (
    CACHE_FRACTION,
    DIURNAL_PERIOD,
    TraceConfig,
    synthetic_trace,
)


class TestTraceGeneration:
    def test_job_count(self):
        jobs = synthetic_trace(TraceConfig(job_count=50))
        assert len(jobs) == 50

    def test_deterministic_by_seed(self):
        a = synthetic_trace(TraceConfig(seed=3))
        b = synthetic_trace(TraceConfig(seed=3))
        assert [(j.arrival, j.mandatory_pages) for j in a] == [
            (j.arrival, j.mandatory_pages) for j in b
        ]

    def test_different_seeds_differ(self):
        a = synthetic_trace(TraceConfig(seed=3))
        b = synthetic_trace(TraceConfig(seed=4))
        assert [j.arrival for j in a] != [j.arrival for j in b]

    def test_arrivals_monotone(self):
        jobs = synthetic_trace()
        arrivals = [j.arrival for j in jobs]
        assert arrivals == sorted(arrivals)

    def test_priority_mix_shape(self):
        jobs = synthetic_trace(TraceConfig(job_count=1000, seed=1))
        batch = sum(1 for j in jobs if j.priority == 0)
        prod = sum(1 for j in jobs if j.priority == 2)
        assert batch > 600  # ~70% batch
        assert prod < 200   # ~10% prod

    def test_positive_shapes(self):
        for job in synthetic_trace(TraceConfig(job_count=200, seed=2)):
            assert job.duration >= 1.0
            assert job.mandatory_pages >= 1
            assert job.cache_pages >= 0
            assert job.state is JobState.PENDING

    def test_cache_fraction_bounds(self):
        lo, hi = CACHE_FRACTION
        for job in synthetic_trace(TraceConfig(job_count=300, seed=9)):
            fraction = job.cache_pages / job.mandatory_pages
            assert lo - 1 / job.mandatory_pages < fraction <= hi


class TestJobMechanics:
    def make_job(self, **kwargs) -> Job:
        defaults = dict(
            job_id=1, arrival=0.0, duration=100.0, priority=0,
            mandatory_pages=100, cache_pages=50,
        )
        defaults.update(kwargs)
        return Job(**defaults)

    def test_used_pages_only_when_running(self):
        job = self.make_job()
        assert job.used_pages == 0
        job.state = JobState.RUNNING
        job.cache_held = 50
        assert job.used_pages == 150

    def test_progress_rate_full_cache(self):
        job = self.make_job()
        job.cache_held = job.cache_pages
        assert job.progress_rate() == 1.0

    def test_progress_rate_no_cache(self):
        job = self.make_job(cache_speedup=0.5)
        job.cache_held = 0
        assert job.progress_rate() == 1 / 1.5

    def test_progress_rate_without_cache_need(self):
        job = self.make_job(cache_pages=0)
        assert job.progress_rate() == 1.0

    def test_evict_wastes_progress(self):
        job = self.make_job()
        job.state = JobState.RUNNING
        job.progress = 40.0
        job.evict()
        assert job.state is JobState.PENDING
        assert job.progress == 0.0
        assert job.wasted_work == 40.0
        assert job.evictions == 1


class TestDiurnalArrivals:
    def test_pattern_validation(self):
        import pytest

        with pytest.raises(ValueError):
            TraceConfig(arrival_pattern="weekly")

    def test_diurnal_arrivals_cluster_by_daytime(self):
        cfg = TraceConfig(
            job_count=400, seed=6, arrival_pattern="diurnal",
            mean_interarrival=2.0,
        )
        jobs = synthetic_trace(cfg)
        # classify arrivals by phase of day: mid-day half vs night half
        day, night = 0, 0
        for job in jobs:
            phase = (job.arrival % DIURNAL_PERIOD) / DIURNAL_PERIOD
            if 0.25 <= phase < 0.75:
                day += 1
            else:
                night += 1
        assert day > night * 1.5  # arrivals concentrate in the day

    def test_poisson_default_unchanged(self):
        flat = synthetic_trace(TraceConfig(job_count=50, seed=1))
        legacy = synthetic_trace(
            TraceConfig(job_count=50, seed=1, arrival_pattern="poisson")
        )
        assert [j.arrival for j in flat] == [j.arrival for j in legacy]
