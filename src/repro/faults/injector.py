"""The fault-injection process.

:class:`FaultInjector` materializes a :class:`~repro.faults.spec.FaultSchedule`
against a concrete :class:`~repro.core.mpdp.MultipathDataPlane` and
schedules one simulator callback per arm/clear event.  All stochastic
draws happen at :meth:`install` time from the injector's dedicated
stream, so the fault timeline is fixed before the first packet moves and
two runs with the same root seed produce byte-identical timelines.

When no schedule is installed nothing is scheduled and no per-packet
code path changes -- fault support is zero-overhead for fault-free runs.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.faults.spec import FaultEvent, FaultSchedule
from repro.metrics.availability import AvailabilityTracker


class FaultInjector:
    """Arms and clears faults on a multipath host per a schedule.

    Parameters
    ----------
    host:
        The :class:`~repro.core.mpdp.MultipathDataPlane` under test.
    schedule:
        Declarative fault schedule (deterministic and/or stochastic).
    rng:
        Dedicated stream (``rngs.stream("faults")``) consumed only by
        stochastic materialization and probabilistic drop bursts.
    tracker:
        Availability tracker; created automatically when omitted.
    """

    def __init__(
        self,
        sim,
        host,
        schedule: FaultSchedule,
        rng: Optional[np.random.Generator] = None,
        tracker: Optional[AvailabilityTracker] = None,
    ) -> None:
        self.sim = sim
        self.host = host
        self.schedule = schedule
        self.rng = rng
        self.tracker = tracker if tracker is not None else AvailabilityTracker()
        #: Applied events, in application order: (time, action, kind, target).
        self.timeline: List[Tuple[float, str, str, object]] = []
        self.events: List[FaultEvent] = []
        self._installed = False

    # ------------------------------------------------------------------
    def install(self, horizon: float, enable_ejection: bool = True) -> "FaultInjector":
        """Materialize the schedule and arm the simulator callbacks.

        ``horizon`` bounds stochastic renewal processes (normally traffic
        duration + drain).  ``enable_ejection`` switches the host
        controller's liveness/ejection machinery on (the recovery half of
        the subsystem) and wires the availability tracker into it; pass
        ``False`` to study faults with recovery disabled.
        """
        if self._installed:
            raise RuntimeError("injector already installed")
        self._installed = True
        self.events = self.schedule.materialize(horizon, self.rng)
        # A replay that owns the NIC drops the bursts' arrivals itself.
        self._replay = self.host.nic._feed
        if self._replay is not None:
            self._replay.drop_bursts(self.events, self.rng)
        for ev in self.events:
            self._check_target(ev)
            self.sim.call_at(ev.time, self._apply, ev)
        ctl = getattr(self.host, "controller", None)
        if ctl is not None:
            if enable_ejection:
                ctl.eject = True
            ctl.availability = self.tracker
        return self

    def _check_target(self, ev: FaultEvent) -> None:
        if ev.target == "nic":
            return
        if not 0 <= ev.target < len(self.host.paths):
            raise ValueError(
                f"fault target path {ev.target} out of range "
                f"(host has {len(self.host.paths)} paths)"
            )

    # ------------------------------------------------------------------
    def _apply(self, ev: FaultEvent) -> None:
        now = self.sim.now
        self.timeline.append((now, ev.action, ev.kind, ev.target))
        if ev.action == "arm":
            self._arm(ev, now)
        else:
            self._clear(ev, now)

    def _arm(self, ev: FaultEvent, now: float) -> None:
        self.tracker.on_fault_start(ev.target, ev.kind, now)
        if ev.kind == "drop_burst":
            if self._replay is None:
                self.host.nic.inject_drop_burst(now + ev.duration,
                                                ev.magnitude, self.rng)
            return
        path = self.host.paths[ev.target]
        if ev.kind == "crash":
            path.inject_crash()
        elif ev.kind == "hang":
            path.inject_hang()
        elif ev.kind == "degrade":
            path.inject_degrade(ev.magnitude)
        elif ev.kind == "sched_freeze":
            path.inject_sched_freeze(now, ev.duration)

    def _clear(self, ev: FaultEvent, now: float) -> None:
        self.tracker.on_fault_clear(ev.target, now)
        if ev.kind == "drop_burst":
            if self._replay is None:
                self.host.nic.inject_drop_burst(now)  # until <= now: over
            return
        self.host.paths[ev.target].clear_fault()

    # ------------------------------------------------------------------
    def faults_applied(self) -> int:
        """Arm events applied so far."""
        return sum(1 for _, action, _, _ in self.timeline if action == "arm")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FaultInjector events={len(self.events)} "
            f"applied={len(self.timeline)}>"
        )
