"""Pull gauges and fixed-bucket histograms behind one registry.

Design constraints (see ISSUE 3):

* **dependency-free** — pure stdlib, importable anywhere the core is;
* **lock-free writes** — the only metric written per event is the
  histogram, and every writer in this repo is already serialized
  (commands, tier promotions and batch sizes are all recorded on the
  serving plane's one loop thread), so a :class:`Histogram` *is* its
  one cell: ``observe`` updates the bucket counts, count, sum and
  extrema in place.  A :class:`CountHistogram` (whole counts: commands
  per batch) is one tally its writer bumps without a call, and a read
  derives the cells.  Only creating a metric takes the registry lock;
* **monotonic histograms** — counts and sums can only grow, which is
  what lets ``repro.obs.oracle`` assert over ``INFO`` that no series
  ever decreases across arbitrary traffic.

Everything else is *pull*: a :class:`Gauge` is a zero-argument callable
sampled at snapshot time — how the SMA/SMD/RPC stats structs and the
servers' plain-int counters are exposed with zero hot-path cost — and a
:class:`MultiGauge` is a callable returning a ``suffix -> value`` dict,
for per-process fan-out that changes membership at runtime.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

__all__ = [
    "DEFAULT_LATENCY_BOUNDS",
    "Gauge",
    "MultiGauge",
    "Histogram",
    "CountHistogram",
    "HistSnapshot",
    "MetricsRegistry",
]

#: Default histogram bucket upper bounds, in seconds: a 1-2.5-5 ladder
#: from 1 microsecond to 10 seconds (values above the last bound land in
#: the implicit overflow bucket).  Chosen to resolve both the ~10 us
#: command dispatch times and multi-second reclamation stalls.
DEFAULT_LATENCY_BOUNDS: tuple[float, ...] = tuple(
    base * scale
    for scale in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)
    for base in (1.0, 2.5, 5.0)
) + (10.0,)


class Gauge:
    """Point-in-time value pulled from ``fn`` whenever it is read."""

    __slots__ = ("name", "_fn")

    def __init__(self, name: str, fn: Callable[[], float]) -> None:
        self.name = name
        self._fn = fn

    @property
    def value(self) -> float:
        return self._fn()

    def __repr__(self) -> str:
        return f"<Gauge {self.name}={self.value}>"


class MultiGauge:
    """A pull gauge whose callable returns a ``suffix -> value`` mapping.

    Used where the set of series is dynamic — per-process budget gauges
    on the daemon keep working as processes register and exit.
    """

    __slots__ = ("name", "_fn")

    def __init__(self, name: str, fn: Callable[[], Mapping[str, float]]) -> None:
        self.name = name
        self._fn = fn

    def values(self) -> dict[str, float]:
        return dict(self._fn())

    def __repr__(self) -> str:
        return f"<MultiGauge {self.name}>"


@dataclass(frozen=True)
class HistSnapshot:
    """Immutable view of a histogram at one instant."""

    bounds: tuple[float, ...]
    counts: tuple[int, ...]  # len(bounds) + 1 (last = overflow)
    count: int
    total: float
    vmin: float
    vmax: float

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile estimate, clamped to [min, max].

        The estimate walks the cumulative counts to the bucket holding
        rank ``q * count`` and interpolates linearly inside it.  Exact
        guarantees (relied on by the property tests): the result always
        lies within the observed ``[vmin, vmax]`` range, never leaves
        the chosen bucket's bounds, and is non-decreasing in ``q``.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        for i, n in enumerate(self.counts):
            if n == 0:
                continue
            if cumulative + n >= target:
                lower = self.bounds[i - 1] if i > 0 else self.vmin
                upper = (
                    self.bounds[i] if i < len(self.bounds) else self.vmax
                )
                if upper < lower:  # all data in one low bucket
                    upper = lower
                frac = (target - cumulative) / n
                value = lower + (upper - lower) * frac
                return min(max(value, self.vmin), self.vmax)
            cumulative += n
        return self.vmax


def _checked(bounds: Iterable[float] | None) -> tuple[float, ...]:
    chosen = tuple(bounds) if bounds is not None else DEFAULT_LATENCY_BOUNDS
    if not chosen:
        raise ValueError("histogram needs at least one bucket bound")
    if any(b >= a for b, a in zip(chosen, chosen[1:])):
        raise ValueError(f"bounds must be strictly increasing: {chosen}")
    return chosen


class Histogram:
    """Fixed-bucket histogram: one cell, one write method.

    Writers must be externally serialized (see the module docstring);
    the serving plane holds the histogram itself and calls
    :meth:`observe` per event.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total", "vmin", "vmax")

    def __init__(
        self, name: str, bounds: Iterable[float] | None = None
    ) -> None:
        self.name = name
        self.bounds = _checked(bounds)
        self.counts = [0] * (len(self.bounds) + 1)  # last = overflow
        self.count = 0
        self.total = 0.0
        self.vmin = float("inf")
        self.vmax = float("-inf")

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value

    def snapshot(self) -> HistSnapshot:
        count = self.count
        return HistSnapshot(
            bounds=self.bounds,
            counts=tuple(self.counts),
            count=count,
            total=self.total,
            vmin=self.vmin if count else 0.0,
            vmax=self.vmax if count else 0.0,
        )

    def __repr__(self) -> str:
        return f"<Histogram {self.name} n={self.count}>"


class CountHistogram:
    """A histogram of whole counts, written as one tally.

    The serving loop records each batch's command count as
    ``tally[n] += 1``: a dict store, no frame and no C call.  A read
    folds the tally into exactly the cells :meth:`Histogram.observe`
    would have built (for counts below 2**53 the sum is exact in any
    order); the one ``list(items())`` is a single C call, so a reader
    on another thread sees a consistent tally while the loop adds to
    it.
    """

    __slots__ = ("name", "bounds", "tally")

    def __init__(
        self, name: str, bounds: Iterable[float] | None = None
    ) -> None:
        self.name = name
        self.bounds = _checked(bounds)
        #: value -> how many times it was recorded
        self.tally: defaultdict[int, int] = defaultdict(int)

    def observe(self, value: int) -> None:
        self.tally[value] += 1

    def snapshot(self) -> HistSnapshot:
        seen = list(self.tally.items())
        counts = [0] * (len(self.bounds) + 1)
        count = total = 0
        for value, times in seen:
            counts[bisect_left(self.bounds, value)] += times
            count += times
            total += value * times
        return HistSnapshot(
            bounds=self.bounds,
            counts=tuple(counts),
            count=count,
            total=float(total),
            vmin=min(seen)[0] if seen else 0.0,
            vmax=max(seen)[0] if seen else 0.0,
        )

    def __repr__(self) -> str:
        return f"<CountHistogram {self.name} values={len(self.tally)}>"


class MetricsRegistry:
    """Named home for every metric of one process.

    Metrics are get-or-create by name (re-requesting an existing name
    returns the same object; requesting it as a different kind raises),
    so independent layers can share a registry without coordination.
    """

    def __init__(self, name: str = "repro") -> None:
        self.name = name
        self._metrics: dict[str, Any] = {}
        self._lock = threading.Lock()
        #: pull gauges whose callable raised during a snapshot (the
        #: snapshot survives; the broken series is just skipped)
        self.gauge_errors = 0

    # -- constructors ---------------------------------------------------

    def _get_or_create(self, name: str, kind: type, factory: Callable[[], Any]) -> Any:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory()
                self._metrics[name] = metric
            elif type(metric) is not kind:
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, not {kind.__name__}"
                )
            return metric

    def gauge(self, name: str, fn: Callable[[], float]) -> Gauge:
        gauge = self._get_or_create(name, Gauge, lambda: Gauge(name, fn))
        if gauge._fn is not fn:
            # re-binding an existing gauge (e.g. a fresh server
            # front-end over the same store) points it at the new source
            gauge._fn = fn
        return gauge

    def multi_gauge(
        self, name: str, fn: Callable[[], Mapping[str, float]]
    ) -> MultiGauge:
        gauge = self._get_or_create(
            name, MultiGauge, lambda: MultiGauge(name, fn)
        )
        if gauge._fn is not fn:
            gauge._fn = fn  # re-bind, like Gauge
        return gauge

    def histogram(
        self, name: str, bounds: Iterable[float] | None = None
    ) -> Histogram:
        return self._get_or_create(
            name, Histogram, lambda: Histogram(name, bounds)
        )

    def count_histogram(
        self, name: str, bounds: Iterable[float] | None = None
    ) -> CountHistogram:
        return self._get_or_create(
            name, CountHistogram, lambda: CountHistogram(name, bounds)
        )

    # -- queries --------------------------------------------------------

    def get(self, name: str) -> Any | None:
        return self._metrics.get(name)

    def names(self) -> list[str]:
        return list(self._metrics)

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> dict[str, float]:
        """Flat ``name -> value`` view of every metric, right now.

        Histograms expand to ``<name>.count`` / ``.sum`` / ``.mean`` /
        ``.p50`` / ``.p99`` / ``.max``; multi-gauges to
        ``<name>.<suffix>``.  A raising pull gauge is skipped (and
        counted in :attr:`gauge_errors`) instead of poisoning the whole
        snapshot.
        """
        out: dict[str, float] = {}
        for name, metric in list(self._metrics.items()):
            if isinstance(metric, Gauge):
                try:
                    out[name] = metric.value
                except Exception:
                    self.gauge_errors += 1
            elif isinstance(metric, MultiGauge):
                try:
                    values = metric.values()
                except Exception:
                    self.gauge_errors += 1
                    continue
                for suffix, value in values.items():
                    out[f"{name}.{suffix}"] = value
            elif isinstance(metric, (Histogram, CountHistogram)):
                snap = metric.snapshot()
                out[f"{name}.count"] = snap.count
                out[f"{name}.sum"] = snap.total
                out[f"{name}.mean"] = snap.mean
                out[f"{name}.p50"] = snap.quantile(0.50)
                out[f"{name}.p99"] = snap.quantile(0.99)
                out[f"{name}.max"] = snap.vmax
        return out

    def __repr__(self) -> str:
        return f"<MetricsRegistry {self.name!r} metrics={len(self)}>"
