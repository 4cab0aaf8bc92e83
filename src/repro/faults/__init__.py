"""Deterministic fault injection and resilience machinery.

The core simulator models *soft* pathologies (scheduling jitter, noisy
neighbors); this package adds *hard* faults -- path crashes, hangs,
service degradation, NIC loss bursts, and vCPU freezes -- plus the
declarative schedule language and the injector process that arms and
clears them at exact simulation times.

* :mod:`~repro.faults.spec` -- :class:`FaultSpec` (one-shot, fixed
  time), :class:`StochasticFaultSpec` (MTBF/MTTR renewal process) and
  the :class:`FaultSchedule` container that materializes both into a
  deterministic event timeline;
* :mod:`~repro.faults.injector` -- :class:`FaultInjector`, the sim
  process that applies the timeline to a
  :class:`~repro.core.mpdp.MultipathDataPlane` through the small
  injection API on paths / NIC / vCPUs.

Recovery (ejection of dead paths, queue re-steering, probe-based
reinstatement) lives in :class:`~repro.core.controller.PathController`;
availability accounting in :class:`~repro.metrics.availability.AvailabilityTracker`.
See ``docs/FAULTS.md`` for the full model.
"""

from repro import _lazy_exports

_EXPORTS = {
    "repro.faults.spec": ("FAULT_KINDS", "FaultEvent", "FaultSchedule",
                          "FaultSpec", "StochasticFaultSpec"),
    "repro.faults.injector": ("FaultInjector",),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
