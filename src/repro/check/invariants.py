"""Runtime invariant engine.

The engine arms cheap assertion hooks at the data plane's trust
boundaries -- the delivery sink, the per-path completion fan-in, the
reorder buffer, and the controller tick -- plus a LOW-priority periodic
*conservation sampler* that balances the books:

``conservation``
    At every sample point, every packet the NIC accepted (plus every
    replica created) is delivered, suppressed, dropped, or visibly in
    flight (NIC ring + path queues + reorder buffer), with at most one
    in-service batch per path unaccounted (completions scheduled but not
    yet fired).
``dedup``
    No logical packet is delivered twice: under replication all copies
    share one logical key (``copy_of`` / primary pid) and exactly one
    may cross the sink.
``fifo``
    Per-path completion order preserves enqueue order on FIFO queues
    (``t_enq`` non-decreasing per path; re-steered packets are
    re-stamped on their new queue, so the invariant survives
    evacuation/ejection).  Automatically disarmed for non-FIFO qdiscs.
``flow_order``
    The reorder buffer's in-order deliveries carry strictly increasing
    sequence numbers per flow (late deliveries are exempt -- they are
    the buffer's documented give-up path).
``control``
    Controller state stays consistent: ``live_ids`` is exactly paths
    minus ejected minus parked, the two out-of-service sets are
    disjoint, and published weights are a normalized distribution.
``clock``
    Observed simulation time never runs backwards; queue byte
    accounting matches queue contents (sampled audit).

Zero-cost when detached: components hold the :data:`NullInvariants`
singleton (``enabled=False``), so every hook site is one attribute
check -- the same pattern as :data:`repro.obs.span.NullTracer`.  Armed
or not, the simulated trajectory is bit-identical: hooks only *read*
data-plane state, and the sampler runs at LOW priority without touching
any random stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.check.spec import CheckSpec
from repro.sim.engine import LOW

#: Invariant family names, in report order.
INVARIANT_NAMES = ("conservation", "dedup", "fifo", "flow_order",
                   "control", "clock")


class InvariantViolation(AssertionError):
    """Raised at the first violation when ``CheckSpec.strict`` is set."""


@dataclass
class Violation:
    """One recorded invariant breach."""

    invariant: str
    time: float
    message: str
    #: Offending packet id (-1 when the violation is not packet-scoped).
    pid: int = -1

    def to_dict(self) -> Dict:
        return {
            "invariant": self.invariant,
            "time": self.time,
            "message": self.message,
            "pid": self.pid,
        }


class _NullInvariants:
    """Detached stand-in: every hook is a no-op behind ``enabled=False``.

    Hot-path sites guard with ``if self.invariants.enabled:`` so the
    detached cost is one attribute check per site -- identical to the
    NullTracer observability pattern.
    """

    __slots__ = ()
    enabled = False

    def on_deliver(self, packet) -> None:  # pragma: no cover - never armed
        pass

    def on_path_complete(self, packet) -> None:  # pragma: no cover
        pass

    def on_reorder_deliver(self, flow_id, seq, late) -> None:  # pragma: no cover
        pass

    def on_control_tick(self, controller) -> None:  # pragma: no cover
        pass


#: Shared detached singleton (assign, never mutate).
NullInvariants = _NullInvariants()


class InvariantEngine:
    """Armed invariant checker for one simulation run.

    Attach with :meth:`attach` after the host is built; hooks fire
    during the run; call :meth:`finalize` after ``host.finalize()`` and
    read :meth:`report`.  The engine is observational: arming it must
    not change any result payload (the golden determinism tests pin
    this).
    """

    enabled = True

    def __init__(self, spec: Optional[CheckSpec] = None) -> None:
        self.spec = (spec or CheckSpec()).validate()
        self.violations: List[Violation] = []
        #: Total violations seen (may exceed ``len(violations)`` once the
        #: recording cap is hit).
        self.violation_count = 0
        #: Hook-invocation counters (proof the checks actually ran).
        self.checked: Dict[str, int] = {name: 0 for name in INVARIANT_NAMES}
        self.samples = 0
        self._sim = None
        self._host = None
        self._sampler = None
        self._service_slack = 0
        self._fifo_armed = False
        self._last_now = float("-inf")
        # dedup: logical keys already delivered (copy_of / primary pid).
        self._delivered_keys = set()
        # fifo: per-path last completed t_enq.
        self._last_enq: Dict[int, float] = {}
        # flow_order: per-flow last in-order sequence number.
        self._last_seq: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, sim, host) -> None:
        """Arm the hooks on ``host``'s components and start the sampler."""
        from repro.dataplane.queues import PathQueue

        if self._sim is not None:
            raise ValueError(
                "InvariantEngine is single-use: it holds per-run state "
                "(delivered keys, per-path/flow cursors); build a fresh "
                "engine for each run"
            )
        self._sim = sim
        self._host = host
        spec = self.spec
        if spec.dedup or spec.clock:
            host.sink.invariants = self
        if spec.fifo:
            # Per-path FIFO ordering only holds for the plain drop-tail
            # queue; prio/drr qdiscs reorder by design.
            self._fifo_armed = all(
                type(p.queue) is PathQueue for p in host.paths
            )
            if self._fifo_armed:
                host.invariants = self
        if spec.flow_order and host.reorder is not None:
            host.reorder.invariants = self
        if spec.control and host.controller is not None:
            host.controller.invariants = self
        self._service_slack = sum(p.poller.batch_size for p in host.paths)
        if spec.conservation:
            self._sampler = sim.periodic(
                spec.sample_interval, self._sample, priority=LOW
            )

    def finalize(self) -> None:
        """Stop the sampler and take the closing conservation sample."""
        if self._sampler is not None:
            self._sampler.cancel()
            self._sampler = None
        if self.spec.conservation and self._host is not None:
            self._sample()

    def detach(self) -> None:
        """Let go of the host (after :meth:`finalize`), whose hooks still
        reference this engine; the report stays readable."""
        self._host = None

    # ------------------------------------------------------------------
    # Violation plumbing
    # ------------------------------------------------------------------
    def _violate(self, invariant: str, message: str, pid: int = -1) -> None:
        now = self._sim.now if self._sim is not None else 0.0
        self.violation_count += 1
        if len(self.violations) < self.spec.max_violations:
            self.violations.append(Violation(invariant, now, message, pid))
        if self.spec.strict:
            raise InvariantViolation(
                f"[{invariant}] t={now:.3f}us pid={pid}: {message}"
            )

    def _check_clock(self) -> None:
        self.checked["clock"] += 1
        now = self._sim._now
        if now < self._last_now:
            self._violate(
                "clock",
                f"simulation clock ran backwards: {now} after {self._last_now}",
            )
        self._last_now = now

    # ------------------------------------------------------------------
    # Hot-path hooks (guarded by ``invariants.enabled`` at each site)
    # ------------------------------------------------------------------
    def on_deliver(self, packet) -> None:
        """Sink hook: dedup soundness + timestamp sanity per delivery."""
        self._check_clock()
        if self.spec.dedup:
            self.checked["dedup"] += 1
            key = packet.copy_of if packet.copy_of >= 0 else packet.pid
            if key in self._delivered_keys:
                self._violate(
                    "dedup",
                    f"logical packet {key} delivered twice "
                    f"(second copy pid={packet.pid}, flow={packet.flow_id}, "
                    f"seq={packet.seq})",
                    pid=packet.pid,
                )
            else:
                self._delivered_keys.add(key)
        if packet.t_done < packet.t_created:
            self._violate(
                "clock",
                f"delivery before creation: t_done={packet.t_done} < "
                f"t_created={packet.t_created}",
                pid=packet.pid,
            )

    def on_path_complete(self, packet) -> None:
        """Per-path completion hook: FIFO enqueue-order preservation."""
        if not self._fifo_armed:
            return
        self.checked["fifo"] += 1
        path_id = packet.path_id
        last = self._last_enq.get(path_id)
        if last is not None and packet.t_enq < last:
            self._violate(
                "fifo",
                f"path {path_id} completed t_enq={packet.t_enq} after "
                f"t_enq={last} (FIFO order broken)",
                pid=packet.pid,
            )
        self._last_enq[path_id] = packet.t_enq

    def on_reorder_deliver(self, flow_id: int, seq: int, late: bool) -> None:
        """Reorder-buffer hook: in-order deliveries strictly increase."""
        self.checked["flow_order"] += 1
        if late:
            return
        last = self._last_seq.get(flow_id)
        if last is not None and seq <= last:
            self._violate(
                "flow_order",
                f"flow {flow_id} delivered seq {seq} in-order after "
                f"seq {last}",
            )
        self._last_seq[flow_id] = seq

    def on_control_tick(self, controller) -> None:
        """Controller hook: live-set consistency and weight sanity."""
        self._check_clock()
        self.checked["control"] += 1
        all_ids = {p.path_id for p in controller.paths}
        expected_live = all_ids - controller.ejected - controller.admin_down
        if set(controller.live_ids) != expected_live:
            self._violate(
                "control",
                f"live_ids {sorted(controller.live_ids)} != paths - ejected "
                f"- parked {sorted(expected_live)}",
            )
        overlap = controller.ejected & controller.admin_down
        if overlap:
            self._violate(
                "control",
                f"paths {sorted(overlap)} both ejected and admin-parked",
            )
        weights = controller.weights
        if len(weights) != len(controller.paths) or any(
            w < 0.0 for w in weights
        ) or abs(sum(weights) - 1.0) > 1e-6:
            self._violate(
                "control",
                f"weights not a normalized distribution: {weights}",
            )
        for p in controller.paths:
            if len(p.queue) < 0 or p.queue.bytes < 0:
                self._violate(
                    "control",
                    f"path {p.path_id} negative queue occupancy "
                    f"(len={len(p.queue)}, bytes={p.queue.bytes})",
                )

    # ------------------------------------------------------------------
    # Periodic conservation sample
    # ------------------------------------------------------------------
    def _sample(self) -> None:
        self._check_clock()
        self.samples += 1
        self.checked["conservation"] += 1
        host = self._host
        nic = host.nic
        units = nic.received + host.replicator.replicas_created
        drops = 0
        for v in host.drops.values():
            drops += v
        for p in host.paths:
            # Classed qdiscs evict lower-priority packets internally on
            # overflow; those drops never reach the host callback.
            drops += getattr(p.queue, "evicted", 0)
        accounted = host.sink.delivered + host.suppressed + drops
        in_flight = units - accounted
        visible = nic.ring_occupancy
        for p in host.paths:
            visible += len(p.queue)
        if host.reorder is not None:
            visible += host.reorder.occupancy
        if in_flight < 0:
            self._violate(
                "conservation",
                f"over-accounted: delivered+suppressed+dropped={accounted} "
                f"exceeds accepted+replicas={units}",
            )
        else:
            # Packets popped into an in-service batch have completions
            # scheduled but not yet fired: at most one batch per path.
            slack = in_flight - visible
            if slack < 0 or slack > self._service_slack:
                self._violate(
                    "conservation",
                    f"books don't balance: in_flight={in_flight} vs "
                    f"visible={visible} (ring+queues+reorder); in-service "
                    f"slack {slack} outside [0, {self._service_slack}]",
                )
        if self.spec.audit_queues:
            for p in host.paths:
                # Registry qdiscs outside this repo may not implement
                # the audit protocol; skip them rather than crash.
                audit = getattr(p.queue, "audit", None)
                if audit is not None:
                    msg = audit()
                    if msg is not None:
                        self._violate("conservation",
                                      f"path {p.path_id} queue audit: {msg}")
        # Dedup table hygiene: fully-accounted entries must be evicted.
        dead = [k for k, e in host.dedup._outstanding.items() if e[0] <= 0]
        if dead:
            self._violate(
                "dedup",
                f"dedup table retains fully-accounted entries {dead[:5]}"
                + ("..." if len(dead) > 5 else ""),
            )
        if host.reorder is not None and host.reorder.occupancy < 0:
            self._violate(
                "conservation",
                f"reorder occupancy negative: {host.reorder.occupancy}",
            )

    # ------------------------------------------------------------------
    # Report
    # ------------------------------------------------------------------
    def report(self) -> Dict:
        """Post-run ``check_report`` payload (JSON-friendly).

        ``ok`` is the headline; ``first_violation`` names the first
        broken invariant with the offending packet/time, and
        ``invariants`` records per-family hook counts so a green report
        can be distinguished from a report whose checks never ran.
        """
        from repro import schemas

        first = self.violations[0].to_dict() if self.violations else None
        return {
            "schema_version": schemas.version_for("check_report"),
            "ok": self.violation_count == 0,
            "spec": self.spec.to_dict(),
            "samples": self.samples,
            "invariants": dict(self.checked),
            "violation_count": self.violation_count,
            "first_violation": first,
            "violations": [v.to_dict() for v in self.violations],
        }
