"""Machine-wide observability plane.

Dependency-free runtime telemetry for every layer of the reproduction:

* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` with pull
  gauges and fixed-bucket latency histograms (one cell each, written
  in place by an already-serialized caller), and a count histogram
  written as one tally (the serving loop's batch sizes);
* :mod:`repro.obs.slowlog` — a Redis-SLOWLOG-style bounded ring of the
  slowest commands;
* :mod:`repro.obs.plane` — :class:`KvObservability`, the serving-plane
  hot-path sink (per-command latency, pipeline batch sizes, slowlog),
  plus ``bind_*`` helpers that expose the existing stats structs of the
  SMA, SMD, RPC agent, store, and TCP servers as pull gauges.

The pull-gauge design keeps the allocator and daemon hot paths at zero
added cost: their cheap plain-int counters stay authoritative and the
registry reads them only at snapshot time. Only the serving plane pays
a genuine per-event cost (one timestamp and one histogram update per
command), because per-command latency cannot be reconstructed later.
"""

from repro.obs.metrics import (
    CountHistogram,
    Gauge,
    HistSnapshot,
    Histogram,
    MetricsRegistry,
    MultiGauge,
)
from repro.obs.plane import (
    KvObservability,
    bind_agent,
    bind_server,
    bind_sma,
    bind_smd,
    bind_store,
)
from repro.obs.slowlog import Slowlog, SlowlogEntry

__all__ = [
    "Gauge",
    "MultiGauge",
    "Histogram",
    "CountHistogram",
    "HistSnapshot",
    "MetricsRegistry",
    "Slowlog",
    "SlowlogEntry",
    "KvObservability",
    "bind_sma",
    "bind_smd",
    "bind_agent",
    "bind_store",
    "bind_server",
]
