"""Statistical comparison of latency samples.

Tail percentiles from a single seeded run are point estimates; claiming
"A beats B at p99" needs uncertainty.  Two tools:

* :func:`bootstrap_percentile_ci` -- percentile confidence interval for
  one sample via the basic bootstrap;
* :func:`percentile_ratio_ci` -- CI for the ratio ``pct(B)/pct(A)``
  (improvement factor) from independent samples; the reproduction's
  "who wins by what factor" statements can carry error bars.

Both operate on raw sample arrays (e.g. ``LatencyRecorder.values()``);
spread across seeds comes from a ``seed`` axis on :func:`repro.run_sweep`.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def bootstrap_percentile_ci(
    samples: np.ndarray,
    pct: float,
    confidence: float = 0.95,
    n_boot: int = 1000,
    seed: int = 0,
) -> Tuple[float, float, float]:
    """``(point, lo, hi)`` for a percentile of one sample."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size == 0:
        nan = float("nan")
        return nan, nan, nan
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    rng = np.random.default_rng(seed)
    point = float(np.percentile(arr, pct))
    idx = rng.integers(0, arr.size, size=(n_boot, arr.size))
    boots = np.percentile(arr[idx], pct, axis=1)
    alpha = (1.0 - confidence) / 2.0
    lo, hi = np.quantile(boots, [alpha, 1.0 - alpha])
    return point, float(lo), float(hi)


def percentile_ratio_ci(
    baseline: np.ndarray,
    candidate: np.ndarray,
    pct: float,
    confidence: float = 0.95,
    n_boot: int = 1000,
    seed: int = 0,
) -> Tuple[float, float, float]:
    """``(point, lo, hi)`` for ``pct(baseline) / pct(candidate)``.

    A ratio > 1 means the candidate improves on the baseline (smaller
    percentile).  Samples must come from independent runs.
    """
    a = np.asarray(baseline, dtype=np.float64)
    b = np.asarray(candidate, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        nan = float("nan")
        return nan, nan, nan
    rng = np.random.default_rng(seed)
    point = float(np.percentile(a, pct) / np.percentile(b, pct))
    ia = rng.integers(0, a.size, size=(n_boot, a.size))
    ib = rng.integers(0, b.size, size=(n_boot, b.size))
    ratios = np.percentile(a[ia], pct, axis=1) / np.percentile(b[ib], pct, axis=1)
    alpha = (1.0 - confidence) / 2.0
    lo, hi = np.quantile(ratios, [alpha, 1.0 - alpha])
    return point, float(lo), float(hi)
