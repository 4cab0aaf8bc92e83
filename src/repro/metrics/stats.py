"""Statistical primitives for tail-latency measurement.

Exact percentiles over full sample arrays are fine for tests and offline
analysis, but per-packet collection in long benchmark runs must be O(1)
memory -- hence:

* :class:`P2Quantile` -- the Jain & Chlamtac (1985) P² algorithm: a
  constant-space streaming estimator of a single quantile, accurate to a
  fraction of a percent for the smooth latency distributions seen here.
  The multipath controller also uses it online for per-path p95 tracking.
* :class:`ReservoirSampler` -- uniform reservoir (algorithm R) so exact
  numpy percentiles can be computed over a bounded, unbiased sample.
* :func:`summarize` -- one-call latency summary used by every benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

#: Percentiles reported by every experiment, matching the paper convention.
PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)


class P2Quantile:
    """Streaming estimate of one quantile via the P² algorithm.

    Parameters
    ----------
    q:
        Target quantile in (0, 1), e.g. ``0.99``.

    Notes
    -----
    Until five observations have arrived the estimate is the exact sample
    quantile of what has been seen.  The classic five-marker P² recurrence
    runs thereafter.
    """

    __slots__ = ("q", "n", "_init", "_heights", "_positions", "_desired", "_increments")

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError(f"q must be in (0, 1), got {q}")
        self.q = q
        self.n = 0
        self._init: list = []
        self._heights: Optional[list] = None
        self._positions: Optional[list] = None
        self._desired: Optional[list] = None
        self._increments: Optional[list] = None

    def add(self, x: float) -> None:
        """Feed one observation."""
        self.add_many((x,))

    def add_many(self, xs) -> None:
        """Feed a batch of observations in order (the first five set the
        initial markers).  Marker state lives in scalar locals across the
        batch and the marker adjustment is unrolled, with float-op order
        identical to the textbook recurrence."""
        n_xs = len(xs)
        self.n += n_xs
        i = 0
        if self._heights is None:
            init = self._init
            i = min(n_xs, 5 - len(init))
            init.extend(xs[:i])
            if len(init) < 5:
                return
            init.sort()
            self._heights = list(init)
            self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
            q = self.q
            self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
            self._increments = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]
        h = self._heights
        pos = self._positions
        d = self._desired
        inc = self._increments
        h0, h1, h2, h3, h4 = h
        p1, p2, p3, p4 = pos[1], pos[2], pos[3], pos[4]
        d1, d2, d3, d4 = d[1], d[2], d[3], d[4]
        i1, i2, i3 = inc[1], inc[2], inc[3]
        for x in xs[i:] if i else xs:
            if x < h0:
                h0 = x
                p1 += 1.0
                p2 += 1.0
                p3 += 1.0
                p4 += 1.0
            elif x >= h4:
                h4 = x
                p4 += 1.0
            elif x < h1:
                p1 += 1.0
                p2 += 1.0
                p3 += 1.0
                p4 += 1.0
            elif x < h2:
                p2 += 1.0
                p3 += 1.0
                p4 += 1.0
            elif x < h3:
                p3 += 1.0
                p4 += 1.0
            else:
                p4 += 1.0
            d1 += i1
            d2 += i2
            d3 += i3
            d4 += 1.0
            diff = d1 - p1
            if (diff >= 1.0 and p2 - p1 > 1.0) or (diff <= -1.0 and 1.0 - p1 < -1.0):
                sign = 1.0 if diff >= 1.0 else -1.0
                hp = h1 + sign / (p2 - 1.0) * (
                    (p1 - 1.0 + sign) * (h2 - h1) / (p2 - p1)
                    + (p2 - p1 - sign) * (h1 - h0) / (p1 - 1.0)
                )
                if h0 < hp < h2:
                    h1 = hp
                elif sign > 0:
                    h1 = h1 + sign * (h2 - h1) / (p2 - p1)
                else:
                    h1 = h1 + sign * (h0 - h1) / (1.0 - p1)
                p1 += sign
            diff = d2 - p2
            if (diff >= 1.0 and p3 - p2 > 1.0) or (diff <= -1.0 and p1 - p2 < -1.0):
                sign = 1.0 if diff >= 1.0 else -1.0
                hp = h2 + sign / (p3 - p1) * (
                    (p2 - p1 + sign) * (h3 - h2) / (p3 - p2)
                    + (p3 - p2 - sign) * (h2 - h1) / (p2 - p1)
                )
                if h1 < hp < h3:
                    h2 = hp
                elif sign > 0:
                    h2 = h2 + sign * (h3 - h2) / (p3 - p2)
                else:
                    h2 = h2 + sign * (h1 - h2) / (p1 - p2)
                p2 += sign
            diff = d3 - p3
            if (diff >= 1.0 and p4 - p3 > 1.0) or (diff <= -1.0 and p2 - p3 < -1.0):
                sign = 1.0 if diff >= 1.0 else -1.0
                hp = h3 + sign / (p4 - p2) * (
                    (p3 - p2 + sign) * (h4 - h3) / (p4 - p3)
                    + (p4 - p3 - sign) * (h3 - h2) / (p3 - p2)
                )
                if h2 < hp < h4:
                    h3 = hp
                elif sign > 0:
                    h3 = h3 + sign * (h4 - h3) / (p4 - p3)
                else:
                    h3 = h3 + sign * (h2 - h3) / (p2 - p3)
                p3 += sign
        h[0] = h0
        h[1] = h1
        h[2] = h2
        h[3] = h3
        h[4] = h4
        pos[1] = p1
        pos[2] = p2
        pos[3] = p3
        pos[4] = p4
        d[1] = d1
        d[2] = d2
        d[3] = d3
        d[4] = d4

    @property
    def value(self) -> float:
        """Current quantile estimate (nan with no data)."""
        if self._heights is not None:
            return float(self._heights[2])
        if not self._init:
            return float("nan")
        return float(np.quantile(np.array(self._init), self.q))

    def reset(self) -> None:
        """Forget all observations."""
        self.n = 0
        self._init = []
        self._heights = None


class QuantileSet:
    """A bank of :class:`P2Quantile` estimators over one stream.

    Used by the SLO tracker: each attainment window folds its buffered
    latencies into a fresh set and reads every tracked quantile at the
    window close.  ``add_many`` feeds each estimator with the identical
    batch, so values match running independent estimators sample by
    sample.
    """

    __slots__ = ("quantiles", "n")

    def __init__(self, qs: Sequence[float]) -> None:
        if not qs:
            raise ValueError("QuantileSet needs at least one quantile")
        self.quantiles: Dict[float, P2Quantile] = {
            float(q): P2Quantile(float(q)) for q in qs
        }
        self.n = 0

    def add(self, x: float) -> None:
        """Feed one observation to every estimator."""
        self.n += 1
        for est in self.quantiles.values():
            est.add(x)

    def add_many(self, xs) -> None:
        """Feed a batch to every estimator (bulk P² replay)."""
        self.n += len(xs)
        for est in self.quantiles.values():
            est.add_many(xs)

    def value(self, q: float) -> float:
        """Current estimate for quantile ``q`` (must be tracked)."""
        return self.quantiles[float(q)].value

    def values(self) -> Dict[float, float]:
        """``{q: estimate}`` for every tracked quantile."""
        return {q: est.value for q, est in self.quantiles.items()}

    def reset(self) -> None:
        """Forget all observations in every estimator."""
        self.n = 0
        for est in self.quantiles.values():
            est.reset()


class ReservoirSampler:
    """Uniform reservoir sample of a stream (algorithm R).

    Keeps at most ``capacity`` observations, each stream element equally
    likely to be retained, so exact percentiles over the reservoir are an
    unbiased estimate of stream percentiles.
    """

    __slots__ = ("capacity", "rng", "_buf", "count")

    def __init__(self, capacity: int = 100_000, seed: int = 0xC0FFEE) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.rng = np.random.default_rng(seed)
        self._buf = np.empty(capacity, dtype=np.float64)
        self.count = 0

    def add(self, x: float) -> None:
        """Offer one observation to the reservoir."""
        self.add_many((x,))

    def add_many(self, xs) -> None:
        """Offer a batch, in order."""
        buf = self._buf
        cap = self.capacity
        c = self.count
        randint = self.rng.integers
        for x in xs:
            if c < cap:
                buf[c] = x
            else:
                j = int(randint(0, c + 1))
                if j < cap:
                    buf[j] = x
            c += 1
        self.count = c

    def in_order(self, start: int = 0) -> list:
        """Observations ``start`` onwards, in arrival order, as floats.

        Algorithm R stores the i-th observation in slot i until the
        reservoir is full, so this is defined only while nothing has
        been replaced (``count <= capacity``).
        """
        if self.count > self.capacity:
            raise ValueError("the reservoir has replaced observations; "
                             "arrival order is lost")
        return self._buf[start:self.count].tolist()

    def values(self) -> np.ndarray:
        """Copy of the current reservoir contents."""
        return self._buf[: min(self.count, self.capacity)].copy()

    def percentile(self, q) -> np.ndarray:
        """Exact percentile(s) of the reservoir."""
        vals = self._buf[: min(self.count, self.capacity)]
        if len(vals) == 0:
            return np.full(np.shape(q), np.nan) if np.ndim(q) else float("nan")
        return np.percentile(vals, q)


@dataclass(frozen=True)
class LatencySummary:
    """Summary statistics of a latency sample (µs)."""

    count: int
    mean: float
    std: float
    p50: float
    p90: float
    p95: float
    p99: float
    p999: float
    max: float

    #: Stable serialization key order (all latency values in µs).
    FIELDS = ("count", "mean", "std", "p50", "p90", "p95", "p99", "p999", "max")

    def to_dict(self) -> Dict[str, float]:
        """JSON-friendly representation.

        Keys are :data:`FIELDS` in that order: ``count`` is the sample
        count; every other value is in microseconds.  Inverse of
        :meth:`from_dict`; sweep artifacts, ``benchmarks/results/*`` and
        figure code all share this one shape.
        """
        return {name: getattr(self, name) for name in self.FIELDS}

    @classmethod
    def from_dict(cls, data: Dict) -> "LatencySummary":
        """Rebuild a summary from :meth:`to_dict` output."""
        unknown = set(data) - set(cls.FIELDS)
        if unknown:
            raise ValueError(
                f"unknown LatencySummary keys {sorted(unknown)}; "
                f"expected {list(cls.FIELDS)}"
            )
        kw = {name: data[name] for name in cls.FIELDS}
        kw["count"] = int(kw["count"])
        return cls(**{k: (v if k == "count" else float(v)) for k, v in kw.items()})

    def as_row(self) -> Tuple:
        return (
            self.count,
            self.mean,
            self.p50,
            self.p90,
            self.p95,
            self.p99,
            self.p999,
            self.max,
        )

    def __str__(self) -> str:
        return (
            f"n={self.count} mean={self.mean:.1f} p50={self.p50:.1f} "
            f"p95={self.p95:.1f} p99={self.p99:.1f} p99.9={self.p999:.1f} "
            f"max={self.max:.1f}"
        )


def summarize(samples: Iterable[float]) -> LatencySummary:
    """Compute a :class:`LatencySummary` over a sample array."""
    arr = np.asarray(list(samples) if not isinstance(samples, np.ndarray) else samples,
                     dtype=np.float64)
    if arr.size == 0:
        nan = float("nan")
        return LatencySummary(0, nan, nan, nan, nan, nan, nan, nan, nan)
    pcts = np.percentile(arr, PERCENTILES)
    return LatencySummary(
        count=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std()),
        p50=float(pcts[0]),
        p90=float(pcts[1]),
        p95=float(pcts[2]),
        p99=float(pcts[3]),
        p999=float(pcts[4]),
        max=float(arr.max()),
    )


def cdf_points(samples: Sequence[float], n_points: int = 100) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(x, F(x))`` arrays for plotting an empirical CDF.

    ``x`` holds ``n_points`` evenly spaced quantiles of the sample, which
    renders tails better than evenly spaced values.
    """
    arr = np.sort(np.asarray(samples, dtype=np.float64))
    if arr.size == 0:
        return np.empty(0), np.empty(0)
    qs = np.linspace(0.0, 1.0, n_points)
    x = np.quantile(arr, qs)
    return x, qs
