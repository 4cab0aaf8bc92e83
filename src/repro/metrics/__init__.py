"""Measurement utilities: streaming statistics, recorders, reports.

* :mod:`~repro.metrics.stats` -- P² streaming quantile estimation,
  reservoir sampling, exact percentile summaries, CDFs;
* :mod:`~repro.metrics.collectors` -- latency recorders, throughput
  meters, EWMA trackers used by both the measurement harness and the
  multipath controller itself;
* :mod:`~repro.metrics.report` -- plain-text table/series rendering used
  by the benchmark harness to print paper-style rows.
"""

from repro.metrics.stats import (
    P2Quantile,
    QuantileSet,
    ReservoirSampler,
    LatencySummary,
    summarize,
    cdf_points,
    PERCENTILES,
)
from repro.metrics.collectors import (
    LatencyRecorder,
    ThroughputMeter,
    Ewma,
    Counter,
)
from repro.metrics.report import Table, format_series, format_cdf
from repro.metrics.timeseries import TimeSeries
from repro.metrics.availability import AvailabilityTracker, FaultWindow

__all__ = [
    "P2Quantile",
    "QuantileSet",
    "ReservoirSampler",
    "LatencySummary",
    "summarize",
    "cdf_points",
    "PERCENTILES",
    "LatencyRecorder",
    "ThroughputMeter",
    "Ewma",
    "Counter",
    "Table",
    "format_series",
    "format_cdf",
    "TimeSeries",
    "AvailabilityTracker",
    "FaultWindow",
]
