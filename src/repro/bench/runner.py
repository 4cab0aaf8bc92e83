"""Environment-based duration scaling.

Grids of runs, seed replications included (a ``seed`` axis), go through
:func:`repro.run_sweep`.  ``REPRO_BENCH_SCALE``
(float, default 1.0) multiplies every experiment's traffic duration:
set 0.2 for a quick smoke pass, 5 for tighter tails.
All figure functions route their durations through
:func:`scaled_duration` so one knob scales the whole suite.
"""

from __future__ import annotations

import os


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
