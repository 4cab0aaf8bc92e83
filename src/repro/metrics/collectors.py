"""Online collectors attached to simulation components.

:class:`LatencyRecorder` is the standard sink-side measurement object: it
keeps a bounded reservoir for exact offline percentiles, streaming P²
percentiles folded on first read, and (optionally) the full sample for
tests.  :class:`Ewma` is also used *inside* the data plane (each path's
sojourn average, which the straggler detector reads), so it lives
here rather than in the bench code.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.metrics.stats import (
    LatencySummary,
    P2Quantile,
    ReservoirSampler,
    summarize,
)


class Counter:
    """Named monotonically increasing counters.

    Labels are a naming convenience: ``inc("drops", path=3)`` counts
    under the key ``drops{path=3}``.  Label keys are sorted into the
    name, so the same label set always maps to the same counter
    whatever keyword order the caller used.
    """

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}

    def inc(self, name: str, by: int = 1, **labels) -> None:
        if labels:
            name = self.labeled(name, **labels)
        self._counts[name] = self._counts.get(name, 0) + by

    @staticmethod
    def labeled(name: str, **labels) -> str:
        """The key ``inc(name, **labels)`` counts under."""
        inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
        return f"{name}{{{inner}}}"

    def get(self, name: str, **labels) -> int:
        if labels:
            name = self.labeled(name, **labels)
        return self._counts.get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        """Counts with sorted keys, so JSON artifacts are byte-stable."""
        return {name: self._counts[name] for name in sorted(self._counts)}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self._counts}>"


class Ewma:
    """Exponentially weighted moving average.

    ``alpha`` is the weight of the *new* observation; small alpha = long
    memory.  ``value`` is nan until the first observation.
    """

    __slots__ = ("alpha", "_value", "_empty")

    def __init__(self, alpha: float = 0.1) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._value = float("nan")
        self._empty = True

    def add(self, x: float) -> float:
        """Fold in one observation; returns the updated average."""
        return self.add_many((x,))

    def add_many(self, xs) -> float:
        """Fold in observations in order; returns the updated average."""
        i = 0
        if self._empty:
            if not len(xs):
                return self._value
            self._empty = False
            self._value = xs[0]
            i = 1
        v = self._value
        alpha = self.alpha
        for x in xs[i:] if i else xs:
            v += alpha * (x - v)
        self._value = v
        return v

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        self._empty = True
        self._value = float("nan")


#: Post-warmup samples a recorder buffers before folding them unread.
PENDING_MAX = 8192


class LatencyRecorder:
    """Sink-side latency measurement.

    Parameters
    ----------
    keep_all:
        Retain every sample in a Python list (tests / small runs only).
    reservoir:
        Reservoir capacity for exact offline percentiles (0 disables).
    quantiles:
        Quantiles tracked with streaming P² estimators.
    warmup:
        Samples observed before this simulation time are discarded
        (standard steady-state measurement practice).

    Notes
    -----
    The P² bank folds lazily.  :meth:`quantile` replays the samples it
    has not seen yet, in arrival order, from ``samples`` (``keep_all``)
    or from the reservoir, which holds its first ``capacity`` samples in
    arrival order.  Only samples that would leave no replayable copy --
    once the reservoir starts replacing entries, or with no reservoir
    and no ``keep_all`` -- are folded eagerly, when they are flushed.
    Either way the estimates are bit-identical to per-sample updates,
    and a run that never reads a quantile never pays for the fold.
    """

    __slots__ = (
        "keep_all",
        "warmup",
        "samples",
        "reservoir",
        "p2",
        "count",
        "dropped_warmup",
        "_sum",
        "_max",
        "_pending",
        "_p2_n",
    )

    def __init__(
        self,
        keep_all: bool = False,
        reservoir: int = 100_000,
        quantiles=(0.5, 0.99, 0.999),
        warmup: float = 0.0,
        seed: int = 0xFACE,
    ) -> None:
        self.keep_all = keep_all
        self.warmup = warmup
        self.samples: List[float] = []
        self.reservoir: Optional[ReservoirSampler] = (
            ReservoirSampler(reservoir, seed=seed) if reservoir > 0 else None
        )
        self.p2: Dict[float, P2Quantile] = {q: P2Quantile(q) for q in quantiles}
        self.count = 0
        self.dropped_warmup = 0
        self._sum = 0.0
        self._max = float("-inf")
        #: Post-warmup samples not yet folded into the reservoir.
        #: record() only buffers; _flush() replays in arrival order (same
        #: draws, same float-op order), so every read-side method sees
        #: state identical to eager per-sample updates.  The buffer folds
        #: once it holds :data:`PENDING_MAX` samples, so it stays bounded
        #: when nothing reads the recorder during a long run.
        self._pending: List[float] = []
        #: Leading samples already folded into the P² bank.
        self._p2_n = 0

    def record(self, latency: float, now: float = float("inf")) -> None:
        """Add one latency observation taken at simulation time ``now``."""
        if now < self.warmup:
            self.dropped_warmup += 1
            return
        self.count += 1
        self._sum += latency
        if latency > self._max:
            self._max = latency
        if self.keep_all:
            self.samples.append(latency)
        pending = self._pending
        pending.append(latency)
        if len(pending) >= PENDING_MAX:
            self._flush()

    def _flush(self) -> None:
        """Fold buffered samples into the reservoir.

        P² folds here only when these samples could not be replayed
        later: past reservoir capacity (after catching up on the
        in-order prefix the reservoir is about to overwrite), or with
        neither a reservoir nor ``keep_all``.
        """
        pending = self._pending
        if not pending:
            return
        self._pending = []
        res = self.reservoir
        if not self.keep_all and (
                res is None or res.count + len(pending) > res.capacity):
            if res is not None and self._p2_n < res.count:
                self._fold_reservoir(self._p2_n)
            self._fold_p2(pending)
            self._p2_n = self.count
        if res is not None:
            res.add_many(pending)

    def _fold_p2(self, xs) -> None:
        for est in self.p2.values():
            est.add_many(xs)

    def _fold_reservoir(self, start: int) -> None:
        """Fold the reservoir's in-order samples from ``start`` into the
        P² bank, :data:`PENDING_MAX` at a time (no prefix-sized list)."""
        res = self.reservoir
        for lo in range(start, res.count, PENDING_MAX):
            self._fold_p2(res.in_order(lo, lo + PENDING_MAX))

        # ------------------------------------------------------------------
    @property
    def mean(self) -> float:
        return self._sum / self.count if self.count else float("nan")

    @property
    def max(self) -> float:
        return self._max if self.count else float("nan")

    def quantile(self, q: float) -> float:
        """Streaming P² estimate for a tracked quantile."""
        self._flush()
        n = self._p2_n
        if n < self.count:
            if self.keep_all:
                self._fold_p2(self.samples[n:])
            else:
                self._fold_reservoir(n)
            self._p2_n = self.count
        return self.p2[q].value

    def exact_percentile(self, pct) -> float:
        """Exact percentile from the reservoir (or full sample)."""
        if self.keep_all and self.samples:
            return float(np.percentile(np.array(self.samples), pct))
        if self.reservoir is not None:
            self._flush()
            return float(self.reservoir.percentile(pct))
        raise ValueError("recorder keeps neither full samples nor a reservoir")

    def summary(self) -> LatencySummary:
        """Exact :class:`LatencySummary` over retained samples."""
        if self.keep_all:
            return summarize(self.samples)
        if self.reservoir is not None:
            self._flush()
            return summarize(self.reservoir.values())
        raise ValueError("recorder keeps neither full samples nor a reservoir")

    def values(self) -> np.ndarray:
        """Retained sample values (full list or reservoir)."""
        if self.keep_all:
            return np.asarray(self.samples, dtype=np.float64)
        if self.reservoir is not None:
            self._flush()
            return self.reservoir.values()
        return np.empty(0)


class ThroughputMeter:
    """Counts delivered packets/bytes and computes goodput over a run."""

    __slots__ = ("packets", "bytes", "t_first", "t_last")

    def __init__(self) -> None:
        self.packets = 0
        self.bytes = 0
        self.t_first = float("nan")
        self.t_last = float("nan")

    def record(self, size: int, now: float) -> None:
        """Record one delivered packet of ``size`` bytes at time ``now``."""
        if self.packets == 0:
            self.t_first = now
        self.packets += 1
        self.bytes += size
        self.t_last = now

    @property
    def duration(self) -> float:
        """Span between first and last delivery (µs)."""
        return self.t_last - self.t_first

    def mean_pps(self) -> float:
        """Mean delivered packet rate (packets/second)."""
        d = self.duration
        return self.packets / d * 1e6 if d > 0 else float("nan")

    def mean_gbps(self) -> float:
        """Mean delivered goodput (Gbit/s)."""
        d = self.duration
        return self.bytes * 8.0 / d / 1e3 if d > 0 else float("nan")
