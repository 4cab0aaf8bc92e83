"""Parallel sweep orchestration: declarative grids over scenarios.

The sweep subsystem replaces hand-rolled benchmark loops with one
pipeline::

    SweepSpec --expand--> cells --pool/cache--> SweepResult (JSON)

* :mod:`~repro.sweep.spec` -- :class:`SweepSpec`/:class:`Axis` grids and
  the per-cell seed-derivation contract;
* :mod:`~repro.sweep.orchestrator` -- :func:`run_sweep`: worker-pool
  fan-out that is bit-identical to a serial run;
* :mod:`~repro.sweep.cache` -- content-hash result cache keyed by
  canonical config JSON + code fingerprint;
* :mod:`~repro.sweep.result` -- :class:`SweepResult`/:class:`CellResult`
  structured artifacts the figures and CLI consume.

See docs/SWEEPS.md for the spec format and the caching/seed contracts.
"""

from repro import _lazy_exports

_EXPORTS = {
    "repro.sweep.spec": ("Axis", "SweepCell", "SweepSpec", "canonical_json",
                         "coerce_field_value", "derive_seed"),
    "repro.sweep.cache": ("ResultCache", "code_fingerprint",
                          "DEFAULT_CACHE_DIR"),
    "repro.sweep.result": ("CellResult", "SweepResult", "measure"),
    "repro.sweep.orchestrator": ("SweepExecutionError", "resolve_jobs",
                                 "run_sweep"),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
