"""Experiment harness: scenario builders, runners, figure regeneration.

The benchmark suite under ``benchmarks/`` is a thin pytest-benchmark
wrapper around this package; everything that decides *what* an experiment
runs lives here so it is importable, testable, and reusable from
notebooks or scripts.

* :mod:`~repro.bench.scenarios` -- canned host+workload builders with a
  single entry point, :func:`repro.run` (engine room:
  :func:`~repro.bench.scenarios.run_scenario`);
* :mod:`~repro.bench.runner` -- environment-based scaling of experiment
  durations and seed replication;
* :mod:`~repro.bench.figures` -- one function per reconstructed figure
  and table (F1-F11, T1-T3, A1-A4, plus SLO1-SLO2 and C1-C2 from their
  own modules), each returning rendered text plus the raw series, used
  by both the bench suite and EXPERIMENTS.md.  An experiment whose
  table reads only sweep cell payloads runs as one
  :class:`~repro.sweep.SweepSpec` through :func:`~repro.sweep.run_sweep`,
  cached and in parallel.
"""

from repro import _lazy_exports

_EXPORTS = {
    "repro.bench.scenarios": ("ScenarioConfig", "ScenarioRuntime",
                              "build_runtime", "run_scenario",
                              "SimulationResult"),
    "repro.bench.runner": ("bench_scale", "scaled_duration"),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
