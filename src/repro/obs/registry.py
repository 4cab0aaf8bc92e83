"""Named metrics with sim-time sampling: the counters half of :mod:`repro.obs`.

Components register *counters* (monotonic), *gauges* (a callable read on
demand) and *histograms* (streaming P² quantiles) into a
:class:`MetricsRegistry` by name.  A sampler snapshots every gauge and
counter on a configurable simulation-time cadence into per-name time
series, so queue depths, per-path dispatch rates and delivery counts are
reconstructable after the run without retaining per-packet state.

Sampling is purely observational: snapshot callbacks only *read* model
state, so attaching a sampler never changes a simulation's trajectory --
results stay bit-identical with metrics on or off.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.metrics.collectors import Counter
from repro.metrics.stats import P2Quantile


class Histogram:
    """Streaming distribution summary: count, sum, max and P² quantiles."""

    __slots__ = ("quantiles", "count", "total", "_max", "_p2")

    def __init__(self, quantiles: Tuple[float, ...] = (0.5, 0.99)) -> None:
        self.quantiles = tuple(quantiles)
        self.count = 0
        self.total = 0.0
        self._max = float("-inf")
        self._p2: Dict[float, P2Quantile] = {q: P2Quantile(q) for q in quantiles}

    def observe(self, value: float) -> None:
        """Fold one observation into the summary."""
        self.count += 1
        self.total += value
        if value > self._max:
            self._max = value
        for est in self._p2.values():
            est.add(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    @property
    def max(self) -> float:
        return self._max if self.count else float("nan")

    def quantile(self, q: float) -> float:
        """Streaming P² estimate of a tracked quantile."""
        return self._p2[q].value

    def as_dict(self) -> Dict:
        """JSON-friendly summary with sorted, byte-stable keys."""
        out = {"count": self.count, "sum": self.total, "mean": self.mean,
               "max": self.max}
        for q in sorted(self.quantiles):
            out[f"q{q:g}"] = self._p2[q].value
        return out


class MetricsRegistry:
    """Component-facing metric namespace + time-series snapshots.

    ``counter(...)`` increments the shared :class:`Counter`;
    ``gauge(name, fn)`` registers a zero-arg callable polled at every
    snapshot; ``histogram(name)`` creates (or returns) a streaming
    :class:`Histogram`.  :meth:`snapshot` appends one ``(time, value)``
    point per gauge *and* per counter to :attr:`series` -- counters
    sampled over time give event *rates* (dispatches/µs etc.) for free.
    """

    __slots__ = ("counters", "_gauges", "_histograms", "series", "sampled_at")

    def __init__(self) -> None:
        self.counters = Counter()
        self._gauges: Dict[str, Callable[[], float]] = {}
        self._histograms: Dict[str, Histogram] = {}
        #: name -> list of (sim_time, value) points, appended per snapshot.
        self.series: Dict[str, List[Tuple[float, float]]] = {}
        #: Snapshot times, one entry per :meth:`snapshot` call.
        self.sampled_at: List[float] = []

    # -- registration ---------------------------------------------------
    def counter(self, name: str, by: int = 1, **labels) -> None:
        """Increment the named counter (labels sorted into the name)."""
        self.counters.inc(name, by, **labels)

    def gauge(self, name: str, fn: Callable[[], float]) -> None:
        """Register a gauge; ``fn`` is polled at every snapshot."""
        if name in self._gauges:
            raise ValueError(f"gauge {name!r} already registered")
        self._gauges[name] = fn

    def histogram(self, name: str,
                  quantiles: Tuple[float, ...] = (0.5, 0.99)) -> Histogram:
        """Create (or return the existing) named histogram."""
        hist = self._histograms.get(name)
        if hist is None:
            hist = Histogram(quantiles)
            self._histograms[name] = hist
        return hist

    # -- sampling -------------------------------------------------------
    def snapshot(self, now: float) -> None:
        """Record one time-series point for every gauge and counter."""
        self.sampled_at.append(now)
        for name, fn in self._gauges.items():
            self.series.setdefault(name, []).append((now, float(fn())))
        for name, value in self.counters.as_dict().items():
            self.series.setdefault(name, []).append((now, float(value)))

    def to_dict(self) -> Dict:
        """JSON-friendly dump: series, final counters, histogram summaries.

        All mappings use sorted keys so artifacts are byte-stable.
        """
        return {
            "sampled_at": list(self.sampled_at),
            "series": {name: [[t, v] for t, v in self.series[name]]
                       for name in sorted(self.series)},
            "counters": self.counters.as_dict(),
            "histograms": {name: self._histograms[name].as_dict()
                           for name in sorted(self._histograms)},
        }


class MetricsSampler:
    """Drives :meth:`MetricsRegistry.snapshot` on a sim-time cadence.

    Reschedules itself every ``interval`` µs until ``horizon`` (so a
    ``sim.run()`` with no time bound still terminates).  Uses the LOW
    scheduling priority: snapshots observe a timestamp *after* all model
    work at that instant has run.
    """

    __slots__ = ("sim", "registry", "interval", "horizon", "_stopped")

    def __init__(self, sim, registry: MetricsRegistry, interval: float,
                 horizon: Optional[float] = None) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.sim = sim
        self.registry = registry
        self.interval = interval
        self.horizon = float("inf") if horizon is None else horizon
        self._stopped = False

    def start(self) -> "MetricsSampler":
        """Schedule the first snapshot tick."""
        self.sim.call_in(self.interval, self._tick, priority=2)
        return self

    def stop(self) -> None:
        """Stop sampling after the current tick."""
        self._stopped = True

    def _tick(self) -> None:
        if self._stopped:
            return
        now = self.sim.now
        self.registry.snapshot(now)
        if now + self.interval <= self.horizon:
            self.sim.call_in(self.interval, self._tick, priority=2)
