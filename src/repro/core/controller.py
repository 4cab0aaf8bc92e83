"""The periodic control loop.

Per-packet logic must stay O(1), so anything that scans all paths or
cleans tables runs here instead, every ``interval`` µs:

* evaluate path health via the shared :class:`StragglerDetector` and
  keep a history (the interference experiments plot it);
* recompute normalized path weights from expected waits (published for
  diagnostics and for weighted selection variants);
* garbage-collect the flowlet table(s) registered with the controller;
* when ejection is enabled (fault experiments), run the liveness check:
  a path with an old backlog and no completions is *ejected* from the
  live set, its queued packets re-steered to live paths, and it is
  *reinstated* only after health probes succeed for consecutive ticks.

The controller is optional -- the data plane works without it -- but all
adaptive experiments enable it so the history exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.check.invariants import NullInvariants
from repro.core.detector import StragglerDetector
from repro.core.flowlet import FlowletTable
from repro.dataplane.path import DataPath
from repro.sim.engine import Simulator


@dataclass
class ControlSnapshot:
    """One control-tick observation."""

    time: float
    healthy: List[int]
    weights: List[float]
    ewmas: List[float]
    depths: List[int]
    ejected: List[int] = field(default_factory=list)
    #: Administratively parked path ids (SLO autotuner scale-down).
    admin_down: List[int] = field(default_factory=list)


class PathController:
    """Periodic path monitor and weight publisher."""

    def __init__(
        self,
        sim: Simulator,
        paths: Sequence[DataPath],
        detector: StragglerDetector,
        interval: float = 500.0,
        keep_history: bool = True,
        evacuate: bool = False,
        evacuate_batch: int = 64,
        eject: bool = False,
        liveness_timeout: float = 1500.0,
        probe_timeout: float = 200.0,
        reinstate_ticks: int = 2,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        if evacuate_batch <= 0:
            raise ValueError(f"evacuate_batch must be positive, got {evacuate_batch}")
        if liveness_timeout <= 0 or probe_timeout <= 0:
            raise ValueError("liveness_timeout and probe_timeout must be positive")
        if reinstate_ticks <= 0:
            raise ValueError(f"reinstate_ticks must be positive, got {reinstate_ticks}")
        self.sim = sim
        self.paths = list(paths)
        self.detector = detector
        self.interval = interval
        self.keep_history = keep_history
        #: Queue evacuation: when a path is judged straggling, re-steer
        #: its queued (not-yet-served) packets to healthy paths.  This is
        #: the extension attacking p99.9 -- steering alone only protects
        #: *future* packets; packets already queued behind a stall still
        #: eat it unless moved.
        self.evacuate = evacuate
        self.evacuate_batch = evacuate_batch
        self.evacuated = 0
        #: Ejection (fault-recovery extension, off by default so the
        #: fault-free data plane is bit-identical to earlier versions):
        #: a path whose head-of-line packet has waited longer than
        #: ``liveness_timeout`` with no completion in as long is judged
        #: *dead* -- not merely slow -- and removed from the live set.
        #: Its queue is re-steered to live paths every tick; it returns
        #: only after ``reinstate_ticks`` consecutive successful probes.
        self.eject = eject
        self.liveness_timeout = liveness_timeout
        self.probe_timeout = probe_timeout
        self.reinstate_ticks = reinstate_ticks
        #: Ejected path ids; the same set object the shared detector
        #: consults, mutated in place so both views always agree.
        self.ejected = detector.ejected
        self.ejected.clear()
        #: Administratively parked path ids (SLO autotuner scale-down);
        #: the same set object the shared detector consults.  Parked
        #: paths are skipped by the liveness check (no probing, no
        #: reinstatement -- only :meth:`set_admin_up` unparks) and their
        #: queues are drained to active paths every tick.
        self.admin_down = detector.admin_down
        self.admin_down.clear()
        self.parks = 0
        self.unparks = 0
        #: Packets moved off parked paths onto active ones.
        self.parked_moved = 0
        #: Live (non-ejected, non-parked) path ids, maintained on
        #: transitions so the per-packet ingress guard is a plain
        #: truthiness check.
        self.live_ids: List[int] = [p.path_id for p in self.paths]
        self._probe_ok: Dict[int, int] = {}
        self._eject_time: Dict[int, float] = {}
        self.ejections = 0
        self.reinstatements = 0
        #: Packets re-steered off ejected (dead) paths -- "rerouted" in
        #: the availability accounting, vs. packets lost to the fault.
        self.rerouted = 0
        #: Optional AvailabilityTracker notified of eject/reinstate.
        self.availability = None
        #: Latest normalized weights (uniform until the first tick).
        self.weights: List[float] = [1.0 / len(self.paths)] * len(self.paths)
        self.history: List[ControlSnapshot] = []
        self.ticks = 0
        #: Invariant engine (repro.check); checked once per tick.
        self.invariants = NullInvariants
        self._tables: List[FlowletTable] = []
        self._running = False
        self._handle = None

    def register_flowlet_table(self, table: FlowletTable) -> None:
        """Add a flowlet table to the periodic GC sweep."""
        self._tables.append(table)

    def start(self) -> None:
        """Begin ticking (idempotent)."""
        if self._running:
            return
        self._running = True
        self._handle = self.sim.periodic(self.interval, self._tick)

    def stop(self) -> None:
        """Stop ticking after the current tick (lets ``run()`` drain)."""
        self._running = False
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    # ------------------------------------------------------------------
    # Administrative parking (SLO autotuner actuation)
    # ------------------------------------------------------------------
    def set_admin_down(self, path_id: int) -> bool:
        """Park a path: no new traffic, queue drained to active paths.

        Parking is an *administrative* state, distinct from ejection:
        the liveness check never probes or auto-reinstates a parked path
        -- only :meth:`set_admin_up` returns it to service.  Returns
        False (no-op) when the path is already parked, ejected, or the
        last live path.
        """
        if path_id in self.admin_down or path_id in self.ejected:
            return False
        if len(self.live_ids) <= 1:
            return False  # never park the last live path
        self.admin_down.add(path_id)
        self.parks += 1
        self._recompute_live()
        return True

    def set_admin_up(self, path_id: int) -> bool:
        """Unpark a previously parked path (inverse of :meth:`set_admin_down`)."""
        if path_id not in self.admin_down:
            return False
        self.admin_down.discard(path_id)
        self.unparks += 1
        self._recompute_live()
        return True

    def _recompute_live(self) -> None:
        self.live_ids = [
            p.path_id for p in self.paths
            if p.path_id not in self.ejected and p.path_id not in self.admin_down
        ]

    def _tick(self) -> None:
        if not self._running:
            return
        now = self.sim.now
        self.ticks += 1
        if self.eject:
            self._liveness_check(now)
        if self.admin_down:
            self._drain_parked()
        health = self.detector.evaluate(self.paths, now)
        healthy_ids = [h.path_id for h in health if h.healthy]

        # Weights: inverse expected wait among healthy paths, normalized.
        eps = 1.0
        raw = []
        for p, h in zip(self.paths, health):
            if h.healthy:
                raw.append(1.0 / (p.expected_wait(now) + eps))
            else:
                raw.append(0.0)
        total = sum(raw)
        if total > 0:
            self.weights = [r / total for r in raw]
        else:
            # Every path ejected: uniform placeholder weights (the data
            # plane's no-live-path guard keeps traffic off them anyway).
            self.weights = [1.0 / len(self.paths)] * len(self.paths)

        if self.evacuate and len(healthy_ids) < len(self.paths) and healthy_ids:
            self._evacuate_stragglers(health, healthy_ids, now)

        if self.keep_history:
            self.history.append(
                ControlSnapshot(
                    time=now,
                    healthy=healthy_ids,
                    weights=list(self.weights),
                    ewmas=[h.ewma for h in health],
                    depths=[h.depth for h in health],
                    ejected=sorted(self.ejected),
                    admin_down=sorted(self.admin_down),
                )
            )
        # Housekeeping every ~100 ticks: flowlet GC.
        if self.ticks % 100 == 0:
            for table in self._tables:
                table.gc(now)
        if self.invariants.enabled:
            self.invariants.on_control_tick(self)
        # Rescheduling is owned by the PeriodicHandle from start().

    def _evacuate_stragglers(self, health, healthy_ids, now: float) -> None:
        """Move queued packets off straggling paths onto healthy ones.

        At most ``evacuate_batch`` packets per straggler per tick, spread
        round-robin over healthy paths.  Packets are re-enqueued through
        the normal queue API (fresh ``t_enq``; end-to-end latency keeps
        running from ``t_created``).  A packet that no healthy queue can
        take goes back where it was -- evacuation never drops.
        """
        targets = [self.paths[i] for i in healthy_ids]
        t = 0
        for h in health:
            if h.healthy:
                continue
            straggler = self.paths[h.path_id]
            moved = straggler.queue.pop_batch(self.evacuate_batch)
            for pkt in moved:
                placed = False
                for _ in range(len(targets)):
                    target = targets[t % len(targets)]
                    t += 1
                    if target.enqueue(pkt):
                        placed = True
                        self.evacuated += 1
                        break
                if not placed:
                    # Healthy queues full: put it back on its old path
                    # (which had room for it a moment ago).
                    pkt.dropped = None
                    straggler.enqueue(pkt)

    # ------------------------------------------------------------------
    # Liveness: ejection / re-steering / reinstatement
    # ------------------------------------------------------------------
    def _dead(self, path: DataPath, now: float) -> bool:
        """Dead = old backlog and silence: the head packet has waited
        beyond ``liveness_timeout`` while no packet completed in as long.

        Purely observational -- the check never reads ``path.faulted``,
        so detection lag is a real, measurable quantity."""
        return (
            path.queue.head_wait(now) > self.liveness_timeout
            and now - path.last_completion > self.liveness_timeout
        )

    def _liveness_check(self, now: float) -> None:
        changed = False
        for p in self.paths:
            pid = p.path_id
            if pid in self.admin_down:
                # Parked paths are out of service by policy, not by
                # fault: no ejection, no probing, no reinstatement.
                continue
            if pid not in self.ejected:
                if self._dead(p, now):
                    self.ejected.add(pid)
                    self._eject_time[pid] = now
                    self._probe_ok[pid] = 0
                    self.ejections += 1
                    changed = True
                    if self.availability is not None:
                        self.availability.on_eject(pid, now)
            elif p.probe(now, self.probe_timeout):
                self._probe_ok[pid] = self._probe_ok.get(pid, 0) + 1
                if self._probe_ok[pid] >= self.reinstate_ticks:
                    self.ejected.discard(pid)
                    self._eject_time.pop(pid, None)
                    self.reinstatements += 1
                    changed = True
                    if self.availability is not None:
                        self.availability.on_reinstate(pid, now)
            else:
                self._probe_ok[pid] = 0
        if changed:
            self._recompute_live()
        # Re-steer whatever sits on dead paths (oblivious policies keep
        # feeding them between ticks).  Unlike straggler evacuation this
        # drains completely: nobody will ever serve these queues.
        if self.ejected and self.live_ids:
            targets = [self.paths[i] for i in self.live_ids]
            for pid in self.ejected:
                self.rerouted += self._drain_dead_path(self.paths[pid], targets)

    def _drain_parked(self) -> None:
        """Move queued packets off parked paths onto live ones.

        Oblivious policies (and packets enqueued just before a park)
        keep feeding parked queues between ticks; like ejection
        re-steering, the drain is complete -- a parked poller still
        serves its queue, but no new traffic should ride a path the
        autotuner has taken out of service.
        """
        if not self.live_ids:
            return
        targets = [self.paths[i] for i in self.live_ids]
        for pid in sorted(self.admin_down):
            parked = self.paths[pid]
            if len(parked.queue):
                self.parked_moved += self._drain_dead_path(parked, targets)

    def _drain_dead_path(self, dead: DataPath, targets: List[DataPath]) -> int:
        """Move every queued packet off an out-of-service path onto live
        ones; returns the number moved.

        Packets that no live queue can absorb go back where they were --
        re-steering never drops; overflow accounting stays at the queues.
        """
        t = 0
        moved = 0
        stuck = []
        for pkt in dead.queue.pop_batch(len(dead.queue)):
            placed = False
            for _ in range(len(targets)):
                target = targets[t % len(targets)]
                t += 1
                if target.enqueue(pkt):
                    placed = True
                    moved += 1
                    break
            if not placed:
                stuck.append(pkt)
        for pkt in stuck:
            pkt.dropped = None
            dead.enqueue(pkt)
        return moved
