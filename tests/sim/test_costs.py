"""Tests for the calibrated cost model."""

import pytest

from repro.core.reclaim import ReclamationStats
from repro.sim.costs import CostModel


class TestCalibration:
    def test_figure2_reclamation_time(self):
        """The model must reproduce the paper's anchor: ~26 K reclaimed
        entries take ~3.75 s, dominated by the callback."""
        model = CostModel()
        stats = ReclamationStats(demanded_pages=512)
        stats.pages_from_sds = 512
        stats.allocations_freed = 26_000
        stats.callbacks_invoked = 26_000
        t = model.reclamation_time(stats)
        assert 3.0 < t < 4.5
        callback_part = stats.callbacks_invoked * model.callback_cost
        assert callback_part / t > 0.95  # "almost exclusively" in callbacks

    def test_restart_cost_is_twelve_ms(self):
        assert CostModel().restart_cost == pytest.approx(12e-3)

    def test_restart_with_refill_dwarfs_reclamation(self):
        """Killing Redis costs more than reclaiming 2 MiB from it."""
        model = CostModel()
        kill = model.restart_cost + 130_000 * model.refill_cost_per_entry
        stats = ReclamationStats()
        stats.callbacks_invoked = stats.allocations_freed = 26_000
        reclaim = model.reclamation_time(stats)
        assert kill > reclaim


class TestComposition:
    def test_budget_only_reclaim_is_free_ish(self):
        model = CostModel()
        stats = ReclamationStats(demanded_pages=100)
        stats.pages_from_budget = 100
        assert model.reclamation_time(stats) == 0.0

    def test_pool_pages_cost_release_only(self):
        model = CostModel()
        stats = ReclamationStats(demanded_pages=10)
        stats.pages_from_pool = 10
        assert model.reclamation_time(stats) == pytest.approx(
            10 * model.page_release_cost
        )

    def test_allocation_time_scales(self):
        model = CostModel()
        assert model.allocation_time(1000) == pytest.approx(
            1000 * model.alloc_cost
        )
        with_pages = model.allocation_time(1000, pages_mapped=250)
        assert with_pages > model.allocation_time(1000)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            CostModel().callback_cost = 0  # type: ignore[misc]
