"""Experiment harness: scenario builders, runners, figure regeneration.

The benchmark suite under ``benchmarks/`` is a thin pytest-benchmark
wrapper around this package; everything that decides *what* an experiment
runs lives here so it is importable, testable, and reusable from
notebooks or scripts.

* :mod:`~repro.bench.scenarios` -- canned host+workload builders with a
  single entry point, :func:`repro.run` (engine room:
  :func:`~repro.bench.scenarios.run_scenario`);
* :mod:`~repro.bench.runner` -- run/sweep helpers, result records,
  environment-based scaling of experiment durations;
* :mod:`~repro.bench.figures` -- one function per reconstructed figure
  and table (F1-F8, T1-T2, A1-A3), each returning rendered text plus the
  raw series, used by both the bench suite and EXPERIMENTS.md.
"""

from repro import _lazy_exports

_EXPORTS = {
    "repro.bench.scenarios": ("ScenarioConfig", "ScenarioRuntime",
                              "build_runtime", "run_scenario",
                              "SimulationResult"),
    "repro.bench.runner": ("bench_scale", "scaled_duration", "sweep"),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
