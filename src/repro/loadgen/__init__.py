"""Trace-driven workload engine for the kvstore serving planes.

One uniform GET/SET driver is not "millions of users". This package
generates *deterministic, seedable* operation streams shaped like real
cache traffic — Zipfian and hot-key skew, value-size distributions,
TTL churn, pipeline-depth mixes, YCSB-style A–F presets — and can
record any stream to a replayable trace file (record → replay is
byte-identical).

Layout:

* :mod:`repro.loadgen.keys`   — key-choosing distributions;
* :mod:`repro.loadgen.values` — value-size distributions;
* :mod:`repro.loadgen.spec`   — :class:`WorkloadSpec` + named presets;
* :mod:`repro.loadgen.engine` — :class:`OperationStream` (spec+seed →
  the op/batch stream);
* :mod:`repro.loadgen.trace`  — trace record/replay (RESP-framed);
* :mod:`repro.loadgen.driver` — drive a stream against any client with
  ``execute_pipeline`` and measure it.

The CLI lives at ``python -m repro.tools.loadgen``; the repo benchmark
(``benchmarks/e2e``) builds its workloads from these presets.
"""

from repro.loadgen.driver import DriverReport, drive
from repro.loadgen.engine import OperationStream
from repro.loadgen.spec import PRESETS, WorkloadSpec, preset
from repro.loadgen.trace import read_trace, record_trace

__all__ = [
    "DriverReport",
    "OperationStream",
    "PRESETS",
    "WorkloadSpec",
    "drive",
    "preset",
    "read_trace",
    "record_trace",
]
