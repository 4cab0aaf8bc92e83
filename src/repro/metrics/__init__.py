"""Measurement utilities: streaming statistics, recorders, reports.

* :mod:`~repro.metrics.stats` -- P² streaming quantile estimation,
  reservoir sampling, exact percentile summaries;
* :mod:`~repro.metrics.collectors` -- latency recorders, throughput
  meters, EWMA trackers used by both the measurement harness and the
  multipath controller itself;
* :mod:`~repro.metrics.report` -- plain-text table rendering used
  by the benchmark harness to print paper-style rows.
"""

from repro.metrics.stats import (
    P2Quantile,
    QuantileSet,
    ReservoirSampler,
    LatencySummary,
    summarize,
    PERCENTILES,
)
from repro.metrics.collectors import (
    LatencyRecorder,
    ThroughputMeter,
    Ewma,
    Counter,
)
from repro.metrics.report import Table
from repro.metrics.timeseries import TimeSeries
from repro.metrics.availability import AvailabilityTracker, FaultWindow

__all__ = [
    "P2Quantile",
    "QuantileSet",
    "ReservoirSampler",
    "LatencySummary",
    "summarize",
    "PERCENTILES",
    "LatencyRecorder",
    "ThroughputMeter",
    "Ewma",
    "Counter",
    "Table",
    "TimeSeries",
    "AvailabilityTracker",
    "FaultWindow",
]
