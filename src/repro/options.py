"""Run options: everything orthogonal to the scenario itself.

:class:`RunOptions` is the v1 consolidation of the keyword arguments
``repro.run`` accreted as subsystems grew (``telemetry=``, ``faults=``,
``slo=``, and now checking).  The split is deliberate:

* :class:`~repro.bench.scenarios.ScenarioConfig` describes the
  *experiment* -- it serializes, sweeps, and keys result caches;
* :class:`RunOptions` describes *this invocation* -- observations and
  harness toggles that must not change the simulated trajectory or the
  result payload (telemetry, invariant checking), plus
  the two config conveniences (``faults``/``slo``) that fold into the
  config before the run.

``faults``/``slo`` passed here override a ``None`` field on the config;
setting both the config field and the option is an error (ambiguous).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Union

from repro.check.spec import CheckSpec


@dataclass
class RunOptions:
    """Per-invocation options for :func:`repro.run`.

    Attributes
    ----------
    telemetry:
        Observability bundle (:class:`repro.obs.Telemetry`); spans,
        metrics and instant events are collected into it and attached to
        the result.  Purely observational.
    faults:
        :class:`repro.faults.FaultSchedule` folded into
        ``config.faults`` (convenience; error if the config already has
        one).
    slo:
        :class:`repro.slo.SloSpec` folded into ``config.slo`` (same
        contract as ``faults``).
    check:
        Arm the runtime invariant engine: ``True`` for the default
        :class:`~repro.check.spec.CheckSpec`, or a spec instance.  The
        engine's findings land on ``result.check_report``; the simulated
        trajectory and every other result field are bit-identical armed
        or detached.
    forensics:
        Run post-run tail attribution: ``True`` for the default
        :class:`~repro.obs.forensics.ForensicsSpec` (p99, top-5
        exemplars), or a spec instance.  The report lands on
        ``result.forensics_report``.  Forensics needs span telemetry;
        when ``telemetry`` is not also set, a default
        :class:`~repro.obs.Telemetry` is attached for the run.  Pure
        post-processing: the simulated trajectory is bit-identical
        armed or detached.
    recycle:
        Deprecated and ignored (every packet is allocated once, so a
        ``sink.on_delivery`` hook may keep the packets it sees); a
        non-None value warns once per process.
    workers:
        Worker processes for cluster runs (``repro.run`` with a
        :class:`~repro.cluster.ClusterConfig`); ``None`` resolves via
        :func:`repro.cluster.resolve_workers`.  Purely an execution
        knob: the serialized :class:`~repro.cluster.ClusterResult` is
        bit-identical at any worker count.  Ignored for single-host
        scenario runs.
    scheduler:
        Deprecated and ignored (the binary heap is the only event
        schedule); a non-None value warns once per process.
    """

    telemetry: Optional[object] = None
    faults: Optional[object] = None
    slo: Optional[object] = None
    check: Union[bool, CheckSpec, None] = None
    forensics: Union[bool, object, None] = None
    recycle: Optional[bool] = None
    workers: Optional[int] = None
    scheduler: Optional[str] = None

    def __post_init__(self) -> None:
        # stacklevel 4: one frame more than usual, the dataclass __init__.
        if self.recycle is not None:
            from repro.net.packet import warn_recycle_ignored

            warn_recycle_ignored("RunOptions(recycle=)", stacklevel=4)
        if self.scheduler is not None:
            from repro.sim.engine import warn_scheduler_ignored

            warn_scheduler_ignored(stacklevel=4)

    def forensics_spec(self):
        """Resolve ``forensics`` to a
        :class:`~repro.obs.forensics.ForensicsSpec` (or None when off)."""
        if self.forensics is None or self.forensics is False:
            return None
        from repro.obs.forensics import ForensicsSpec

        if self.forensics is True:
            return ForensicsSpec()
        if isinstance(self.forensics, ForensicsSpec):
            return self.forensics.validate()
        raise ValueError(
            f"forensics must be None, a bool, or a ForensicsSpec, "
            f"got {type(self.forensics).__name__}"
        )

    def check_spec(self) -> Optional[CheckSpec]:
        """Resolve ``check`` to a :class:`CheckSpec` (or None when off)."""
        if self.check is None or self.check is False:
            return None
        if self.check is True:
            return CheckSpec()
        if isinstance(self.check, CheckSpec):
            return self.check
        raise ValueError(
            f"check must be None, a bool, or a CheckSpec, "
            f"got {type(self.check).__name__}"
        )

    def merged_with(self, **legacy) -> "RunOptions":
        """Fold legacy ``repro.run`` kwargs into a copy of this options
        object; a field set in both places is an error (ambiguous)."""
        updates = {}
        for name, value in legacy.items():
            if value is None:
                continue
            if getattr(self, name) is not None:
                raise ValueError(
                    f"{name} passed both as a legacy keyword and inside "
                    f"RunOptions; set it once"
                )
            updates[name] = value
        return dataclasses.replace(self, **updates) if updates else self
