"""Environment-based duration scaling and seed replication.

Grids of runs go through :func:`repro.run_sweep`.  ``REPRO_BENCH_SCALE``
(float, default 1.0) multiplies every experiment's traffic duration:
set 0.2 for a quick smoke pass, 5 for tighter tails.
All figure functions route their durations through
:func:`scaled_duration` so one knob scales the whole suite.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Callable, Dict

from repro.bench.scenarios import ScenarioConfig, SimulationResult, run_scenario


def bench_scale() -> float:
    """Current duration scale factor (env ``REPRO_BENCH_SCALE``)."""
    try:
        scale = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    except ValueError:
        raise ValueError("REPRO_BENCH_SCALE must be a float") from None
    if scale <= 0:
        raise ValueError("REPRO_BENCH_SCALE must be positive")
    return scale


def scaled_duration(base_us: float) -> float:
    """Scale a baseline duration by the bench scale factor."""
    return base_us * bench_scale()


def replicate(
    base: ScenarioConfig,
    n_seeds: int = 5,
    metric: Callable[[SimulationResult], float] = lambda r: r.exact_percentile(99),
    seed0: int = 1000,
) -> Dict[str, float]:
    """Run ``base`` under ``n_seeds`` independent seeds and summarize
    ``metric`` across them: ``{mean, std, min, max, values}``.

    Tail percentiles are noisy functionals; any headline factor worth
    publishing should be checked across seeds with this helper.
    """
    if n_seeds <= 0:
        raise ValueError(f"n_seeds must be positive, got {n_seeds}")
    values = []
    for i in range(n_seeds):
        cfg = dataclasses.replace(base, seed=seed0 + i)
        values.append(float(metric(run_scenario(cfg))))
    import numpy as np

    arr = np.array(values)
    return {
        "mean": float(arr.mean()),
        "std": float(arr.std(ddof=1)) if n_seeds > 1 else 0.0,
        "min": float(arr.min()),
        "max": float(arr.max()),
        "values": values,
    }
