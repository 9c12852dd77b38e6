"""Tests for the kill, swap, and ballooning baselines."""

import pytest

from repro.baselines.ballooning import balloon_reclaim
from repro.baselines.kill import KillRestartModel
from repro.baselines.swap import (
    SwapTier,
    pressure_cost_soft,
    pressure_cost_swap,
)
from repro.core.reclaim import ReclamationStats
from repro.core.sma import SoftMemoryAllocator
from repro.sds.soft_linked_list import SoftLinkedList
from repro.util.units import PAGE_SIZE


class TestKillRestart:
    def test_episode_costs(self):
        model = KillRestartModel()
        outcome = model.episode(130_000, request_rate=5000)
        assert outcome.entries_lost == 130_000
        assert outcome.downtime_seconds == pytest.approx(12e-3)
        assert outcome.refill_seconds > 1.0
        assert outcome.degraded_requests == 130_000

    def test_kill_worse_than_reclaim(self):
        """Section 5's comparison: the 12 ms restart plus refill beats
        3.75 s of reclamation only if you ignore the refill — with it,
        killing costs far more."""
        model = KillRestartModel()
        kill = model.episode(130_000, request_rate=5000)
        stats = ReclamationStats()
        stats.callbacks_invoked = stats.allocations_freed = 26_000
        reclaim_seconds = model.costs.reclamation_time(stats)
        assert kill.total_disruption_seconds > reclaim_seconds

    def test_partial_refetch(self):
        model = KillRestartModel()
        outcome = model.episode(1000, request_rate=100, refetch_fraction=0.1)
        assert outcome.degraded_requests == 100

    def test_validation(self):
        model = KillRestartModel()
        with pytest.raises(ValueError):
            model.episode(-1, request_rate=1)
        with pytest.raises(ValueError):
            model.episode(1, request_rate=0)
        with pytest.raises(ValueError):
            model.episode(1, request_rate=1, refetch_fraction=2.0)


class TestSwapComparison:
    def test_swap_cost_components(self):
        outcome = pressure_cost_swap(100, 0.5, SwapTier(
            out_cost=1e-3, in_cost=1e-3))
        assert outcome.out_seconds == pytest.approx(0.1)
        assert outcome.expected_in_seconds == pytest.approx(0.05)
        assert outcome.total_seconds == pytest.approx(0.15)

    def test_zero_reaccess_still_pays_out_cost(self):
        outcome = pressure_cost_swap(100, 0.0)
        assert outcome.out_seconds > 0
        assert outcome.expected_in_seconds == 0

    def test_soft_beats_disk_swap_for_cold_data(self):
        """For data that is rarely re-touched, dropping beats paging to
        disk — the paper's 'loses its utility' case."""
        disk = SwapTier(out_cost=5e-3, in_cost=5e-3)
        for prob in (0.0, 0.1, 0.5):
            swap = pressure_cost_swap(100, prob, disk).total_seconds
            soft = pressure_cost_soft(100, prob)
            assert soft < swap

    def test_fast_far_memory_beats_soft_for_hot_data(self):
        """AIFM-class far memory wins when data returns to the program —
        the paper concedes exactly this division of labour."""
        rdma = SwapTier(out_cost=3e-6, in_cost=3e-6)
        swap = pressure_cost_swap(100, 1.0, rdma).total_seconds
        soft = pressure_cost_soft(100, 1.0)
        assert swap < soft

    def test_validation(self):
        with pytest.raises(ValueError):
            pressure_cost_swap(-1, 0.5)
        with pytest.raises(ValueError):
            pressure_cost_swap(1, 1.5)
        with pytest.raises(ValueError):
            pressure_cost_soft(-1, 0.5)


class TestBallooning:
    def test_balloon_takes_flexible_memory(self):
        sma = SoftMemoryAllocator(name="b", initial_budget_pages=10)
        stats = balloon_reclaim(sma, 5)
        assert stats.pages_from_budget == 5
        assert stats.satisfied

    def test_balloon_cannot_touch_in_use_memory(self):
        """Section 6: 'VM ballooning cannot reclaim in-use memory.'"""
        sma = SoftMemoryAllocator(name="b", request_batch_pages=1)
        lst = SoftLinkedList(sma, element_size=PAGE_SIZE)
        for i in range(10):
            lst.append(i)
        stats = balloon_reclaim(sma, 5)
        assert stats.pages_reclaimed == 0
        assert not stats.satisfied
        assert len(lst) == 10  # untouched

    def test_soft_memory_succeeds_where_balloon_fails(self):
        sma = SoftMemoryAllocator(name="b", request_batch_pages=1)
        lst = SoftLinkedList(sma, element_size=PAGE_SIZE)
        for i in range(10):
            lst.append(i)
        balloon = balloon_reclaim(sma, 5)
        full = sma.reclaim(5)
        assert balloon.pages_reclaimed == 0
        assert full.pages_reclaimed == 5

    def test_balloon_takes_pool_pages(self):
        sma = SoftMemoryAllocator(name="b", request_batch_pages=1)
        lst = SoftLinkedList(sma, element_size=PAGE_SIZE)
        ptrs = [lst.append(i) for i in range(8)]
        for _ in range(8):
            lst.pop_front()
        assert sma.pool.page_count > 0
        stats = balloon_reclaim(sma, 4)
        assert stats.pages_from_pool > 0

    def test_negative_demand_rejected(self):
        sma = SoftMemoryAllocator(name="b")
        with pytest.raises(ValueError):
            balloon_reclaim(sma, -1)
