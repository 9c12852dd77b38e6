"""Property-based tests (hypothesis) for percentile and the obs histogram.

These pin the algebraic contracts the observability plane leans on:
percentiles stay inside the sample range and are monotone in ``pct``;
histogram bucket counts sum to the count and quantiles are monotone in
``q``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import Histogram
from repro.util.stats import percentile

finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)
samples = st.lists(finite_floats, min_size=1, max_size=200)
positive_floats = st.floats(
    min_value=1e-9, max_value=1e3, allow_nan=False, allow_infinity=False
)
observations = st.lists(positive_floats, min_size=0, max_size=200)


class TestPercentileProperties:
    @given(samples, st.floats(min_value=0, max_value=100))
    @settings(max_examples=200, deadline=None)
    def test_result_within_sample_range(self, values, pct):
        result = percentile(values, pct)
        assert min(values) <= result <= max(values)

    @given(samples, st.floats(min_value=0, max_value=100),
           st.floats(min_value=0, max_value=100))
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_pct(self, values, p_a, p_b):
        lo, hi = sorted((p_a, p_b))
        assert percentile(values, lo) <= percentile(values, hi)

    @given(samples)
    @settings(max_examples=100, deadline=None)
    def test_endpoints_are_min_and_max(self, values):
        assert percentile(values, 0) == min(values)
        assert percentile(values, 100) == max(values)

    @given(samples)
    @settings(max_examples=100, deadline=None)
    def test_order_invariant(self, values):
        assert percentile(values, 75) == percentile(
            list(reversed(values)), 75
        )


class TestHistogramProperties:
    @given(observations)
    @settings(max_examples=100, deadline=None)
    def test_counts_sum_to_count(self, values):
        h = Histogram("h")
        for v in values:
            h.observe(v)
        snap = h.snapshot()
        assert snap.count == len(values)
        assert sum(snap.counts) == len(values)

    @given(st.lists(positive_floats, min_size=1, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_quantile_monotone_and_bounded(self, values):
        h = Histogram("h")
        for v in values:
            h.observe(v)
        snap = h.snapshot()
        quantiles = [snap.quantile(q / 10) for q in range(11)]
        assert quantiles == sorted(quantiles)
        assert all(snap.vmin <= q <= snap.vmax for q in quantiles)

    @given(st.lists(positive_floats, min_size=1, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_mean_matches_arithmetic_mean(self, values):
        h = Histogram("h")
        for v in values:
            h.observe(v)
        snap = h.snapshot()
        expected = sum(values) / len(values)
        assert abs(snap.mean - expected) <= 1e-9 * max(1.0, abs(expected))
