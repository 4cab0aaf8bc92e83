"""Declarative SLOs and the online tail-latency autotuner.

* :mod:`~repro.slo.spec` -- :class:`SloSpec` / :class:`SloObjective`:
  the declarative objective grammar (``"p99 <= 800us"``,
  ``"delivery >= 99.9%"``) with a strict serialization round-trip;
* :mod:`~repro.slo.tracker` -- :class:`SloTracker`: streaming windowed
  attainment measurement off the delivery sink, with post-run
  violation attribution into the telemetry event stream;
* :mod:`~repro.slo.autotuner` -- :class:`SloAutotuner`: the
  hysteresis-and-cooldown control process that scales active paths,
  replication budget and flowlet timeout to meet the objectives with
  minimal path-seconds.

Entry point: pass ``slo=SloSpec(...)`` to :func:`repro.run`; the result
gains an ``slo_report``.  See ``docs/SLO.md``.
"""

from repro import _lazy_exports

_EXPORTS = {
    "repro.slo.spec": ("SloObjective", "SloSpec"),
    "repro.slo.tracker": ("SloTracker",),
    "repro.slo.autotuner": ("SloAutotuner",),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
