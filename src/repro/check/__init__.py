"""repro.check -- runtime invariants, scenario fuzzing, differential replay.

Three layers of systematic correctness checking for the simulator:

* :class:`InvariantEngine` (``repro check run`` / ``RunOptions(check=...)``)
  -- cheap assertion hooks armed at the data plane's trust boundaries,
  checking conservation, dedup soundness, FIFO-per-path ordering,
  per-flow delivery order, controller consistency, and clock
  monotonicity; zero-cost no-ops when detached.
* :func:`fuzz_scenarios` (``repro check fuzz``) -- property-based
  generation of random-but-valid :class:`ScenarioConfig`\\ s, run with
  all invariants armed; failures shrink to a minimal repro config.
* :func:`diff_scenario` (``repro check diff``) -- differential replay
  of one scenario across harness variants that must not change results
  (telemetry on/off, faults kwarg-vs-config, jobs=1 vs N, checking
  armed/detached), diffed field by field.

:func:`mutation_selftest` (``repro check selftest``) proves the engine
catches real violations by deliberately breaking the deduplicator.
See docs/CHECKING.md.
"""

from repro import _lazy_exports

_EXPORTS = {
    "repro.check.invariants": ("INVARIANT_NAMES", "InvariantEngine",
                               "InvariantViolation", "NullInvariants",
                               "Violation"),
    "repro.check.spec": ("CheckSpec",),
    "repro.check.fuzz": ("fuzz_scenarios",),
    "repro.check.diff": ("diff_scenario", "deep_diff"),
    "repro.check.selftest": ("mutation_selftest",),
    "repro.check.cluster": ("check_cluster_conservation",),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
