"""Empirical flow-size distributions.

The datacenter-latency literature evaluates on two canonical flow-size
CDFs, both heavy-tailed:

* **websearch** -- from the DCTCP production cluster measurement; most
  bytes come from medium flows, many latency-critical short flows.
* **datamining** -- from the VL2 measurement; extremely heavy-tailed (most
  flows are tiny, most bytes are in multi-MB flows).

The exact point sets below are the standard approximations used by public
simulation harnesses of pFabric/DCTCP follow-up work (the original papers
publish the plots, not the points); since this reproduction cannot match
absolute testbed numbers anyway, the *shape* (short-flow dominance and
heavy tails) is what matters.

:class:`EmpiricalCDF` supports O(1)-amortized vectorized sampling via
inverse-transform with log-linear interpolation between points.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np


class EmpiricalCDF:
    """Piecewise-interpolated empirical CDF over positive sizes.

    Parameters
    ----------
    points:
        Sequence of ``(value, cumulative_probability)`` pairs, strictly
        increasing in both coordinates, ending with probability 1.0.
    log_interp:
        Interpolate in log-value space (appropriate for heavy-tailed size
        distributions); linear otherwise.
    """

    def __init__(
        self,
        points: Sequence[Tuple[float, float]],
        name: str = "custom",
        log_interp: bool = True,
    ) -> None:
        if len(points) < 2:
            raise ValueError("need at least two CDF points")
        vals = np.array([p[0] for p in points], dtype=np.float64)
        probs = np.array([p[1] for p in points], dtype=np.float64)
        if np.any(vals <= 0):
            raise ValueError("CDF values must be positive")
        if np.any(np.diff(vals) <= 0) or np.any(np.diff(probs) < 0):
            raise ValueError("CDF points must be sorted and non-decreasing")
        if not 0.0 <= probs[0] <= 1.0 or abs(probs[-1] - 1.0) > 1e-9:
            raise ValueError("last CDF point must have probability 1.0")
        self.name = name
        self.log_interp = log_interp
        self._vals = vals
        self._probs = probs
        # Prepend a zero-probability anchor at the first value so that
        # sampling u < probs[0] returns the minimum value.
        if probs[0] > 0.0:
            self._vals = np.concatenate([[vals[0]], vals])
            self._probs = np.concatenate([[0.0], probs])
        self._log_vals = np.log(self._vals)

    # ------------------------------------------------------------------
    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        """Draw ``n`` sizes (float array; callers round as needed)."""
        u = rng.random(n)
        if self.log_interp:
            out = np.exp(np.interp(u, self._probs, self._log_vals))
        else:
            out = np.interp(u, self._probs, self._vals)
        return out

    def sample_int(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        """Draw ``n`` integer sizes, at least 1."""
        return np.maximum(1, np.rint(self.sample(rng, n))).astype(np.int64)

    def mean(self, n_mc: int = 200_000, seed: int = 12345) -> float:
        """Monte-Carlo estimate of the distribution mean (cached draws)."""
        rng = np.random.default_rng(seed)
        return float(self.sample(rng, n_mc).mean())

    def quantile(self, q: float) -> float:
        """Inverse CDF at probability ``q`` (same interpolation as sampling).

        ``q`` must be a finite number in ``[0, 1]`` (both endpoints
        included: 0 is the smallest tabulated size, 1 the largest);
        anything else -- including NaN, which would otherwise slip
        through comparisons -- raises ``ValueError`` naming the value.
        """
        q = float(q)
        if math.isnan(q) or not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if self.log_interp:
            return float(np.exp(np.interp(q, self._probs, self._log_vals)))
        return float(np.interp(q, self._probs, self._vals))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<EmpiricalCDF {self.name} ({len(self._vals)} points)>"


#: Web-search workload (DCTCP-style), sizes in bytes.
WEBSEARCH_CDF = EmpiricalCDF(
    [
        (6_000, 0.15),
        (13_000, 0.20),
        (19_000, 0.30),
        (33_000, 0.40),
        (53_000, 0.53),
        (133_000, 0.60),
        (667_000, 0.70),
        (1_333_000, 0.80),
        (3_333_000, 0.90),
        (6_667_000, 0.95),
        (20_000_000, 0.98),
        (30_000_000, 1.00),
    ],
    name="websearch",
)

#: Data-mining workload (VL2-style), sizes in bytes; extremely heavy tail.
DATAMINING_CDF = EmpiricalCDF(
    [
        (100, 0.10),
        (180, 0.20),
        (250, 0.30),
        (560, 0.40),
        (900, 0.50),
        (1_100, 0.60),
        (1_870, 0.70),
        (3_160, 0.80),
        (10_000, 0.85),
        (400_000, 0.90),
        (3_160_000, 0.95),
        (100_000_000, 0.98),
        (1_000_000_000, 1.00),
    ],
    name="datamining",
)

#: Enterprise/EDU-style mixed workload (moderate tail), sizes in bytes.
ENTERPRISE_CDF = EmpiricalCDF(
    [
        (250, 0.10),
        (500, 0.25),
        (1_000, 0.40),
        (2_000, 0.55),
        (5_000, 0.70),
        (20_000, 0.80),
        (100_000, 0.90),
        (500_000, 0.96),
        (2_000_000, 0.99),
        (10_000_000, 1.00),
    ],
    name="enterprise",
)

_WORKLOADS = {
    "websearch": WEBSEARCH_CDF,
    "datamining": DATAMINING_CDF,
    "enterprise": ENTERPRISE_CDF,
}


def workload_by_name(name: str) -> EmpiricalCDF:
    """Look up one of the built-in workload CDFs by name."""
    try:
        return _WORKLOADS[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; available: {sorted(_WORKLOADS)}"
        ) from None
