"""MultipathDataPlane: the end-to-end facade.

Wires together everything a virtualized host needs::

    wire -> PhysicalNic -> [policy.select] -> DataPath_0..k-1
                                                  |  completions
                                                  v
                               Deduplicator -> ReorderBuffer -> DeliverySink

Usage::

    from repro import MultipathDataPlane, MpdpConfig, Simulator, RngRegistry

    sim = Simulator()
    rngs = RngRegistry(seed=42)
    mpdp = MultipathDataPlane(sim, MpdpConfig(n_paths=4, policy="adaptive"), rngs)
    # feed mpdp.input from any traffic source, then:
    sim.run(until=1_000_000.0)
    print(mpdp.sink.recorder.summary())

The config's ``policy`` may be a registry name, a spec mapping
``{"name": ..., **params}`` (see
:data:`repro.core.policies.POLICY_REGISTRY`) or a :class:`Policy`
instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

from repro.check.invariants import NullInvariants
from repro.core.controller import PathController
from repro.core.detector import StragglerDetector
from repro.core.policies import Policy, make_policy
from repro.core.reorder import ReorderBuffer
from repro.core.replicator import Deduplicator, Replicator
from repro.dataplane.nic import PhysicalNic
from repro.dataplane.path import DataPath, PathConfig
from repro.dataplane.sink import DeliverySink
from repro.elements.base import Chain
from repro.elements.nf import standard_chain
from repro.metrics.collectors import LatencyRecorder
from repro.net.flow import FlowTracker
from repro.net.packet import Packet, PacketFactory, warn_recycle_ignored
from repro.obs.span import NullTracer
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry


@dataclass
class MpdpConfig:
    """Construction parameters for :class:`MultipathDataPlane`.

    Attributes
    ----------
    n_paths:
        Number of datapath instances (``1`` = single-path baseline).
    policy:
        Policy registry name or a ready :class:`Policy` instance.
    chain:
        Canned chain name (see ``STANDARD_CHAINS``) -- ignored if an
        explicit chain object is passed to the constructor.
    path:
        Per-path :class:`PathConfig` (queues, batching, jitter profile).
    reorder_timeout:
        Reorder-buffer flush timeout (µs).
    use_reorder:
        Force the reorder buffer on/off; ``None`` = follow
        ``policy.needs_reorder``.
    nic_ring / nic_rx_cost:
        Physical NIC parameters.
    controller_interval:
        Control-loop period (µs); 0 disables the controller.
    warmup:
        Latency samples before this simulation time are discarded.
    """

    n_paths: int = 4
    policy: Union[str, Policy] = "adaptive"
    chain: str = "basic"
    path: PathConfig = field(default_factory=PathConfig)
    reorder_timeout: float = 500.0
    use_reorder: Optional[bool] = None
    nic_ring: int = 4096
    nic_rx_cost: float = 0.05
    controller_interval: float = 500.0
    #: Queue evacuation: re-steer packets queued behind a detected
    #: straggler to healthy paths at each control tick (extension; see
    #: PathController.evacuate).
    evacuation: bool = False
    #: Path ejection: liveness-check dead paths out of the live set and
    #: reinstate them after probes succeed (fault-recovery extension;
    #: see PathController.eject).  Off by default -- the fault-free data
    #: plane must stay bit-identical -- and switched on automatically by
    #: FaultInjector.install().
    ejection: bool = False
    liveness_timeout: float = 1500.0
    warmup: float = 0.0
    latency_reservoir: int = 100_000
    keep_all_latencies: bool = False

    def __post_init__(self) -> None:
        if self.n_paths <= 0:
            raise ValueError(f"n_paths must be positive, got {self.n_paths}")


class MultipathDataPlane:
    """A virtualized host with a k-path data plane."""

    def __init__(
        self,
        sim: Simulator,
        config: MpdpConfig,
        rngs: RngRegistry,
        chain: Optional[Chain] = None,
        tracker: Optional[FlowTracker] = None,
        recorder: Optional[LatencyRecorder] = None,
        telemetry=None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.rngs = rngs
        self.factory = PacketFactory()
        #: Optional observability bundle (:class:`repro.obs.Telemetry`).
        #: All components share its tracer; with no telemetry they share
        #: the NullTracer and every trace site is one attribute check.
        self.telemetry = telemetry
        tracer = telemetry.tracer if telemetry is not None else NullTracer

        # --- policy -------------------------------------------------
        if isinstance(config.policy, Policy):
            self.policy: Policy = config.policy
        else:
            self.policy = make_policy(config.policy, rng=rngs.stream("policy"))

        # --- measurement boundary ------------------------------------
        if recorder is None:
            recorder = LatencyRecorder(
                keep_all=config.keep_all_latencies,
                reservoir=config.latency_reservoir,
                warmup=config.warmup,
            )
        self.tracker = tracker
        self.sink = DeliverySink(sim, recorder=recorder, tracker=tracker)
        self.sink.tracer = tracer

        use_reorder = (
            config.use_reorder
            if config.use_reorder is not None
            else self.policy.needs_reorder
        )
        self.reorder: Optional[ReorderBuffer] = (
            ReorderBuffer(sim, self.sink.deliver, timeout=config.reorder_timeout)
            if use_reorder
            else None
        )
        if self.reorder is not None:
            self.reorder.tracer = tracer
        self._deliver: Callable[[Packet], None] = (
            self.reorder.on_packet if self.reorder is not None else self.sink.deliver
        )

        # --- replication ----------------------------------------------
        self.replicator = Replicator(self.factory)
        self.dedup = Deduplicator()

        # --- paths ----------------------------------------------------
        base_chain = chain if chain is not None else standard_chain(
            config.chain, rngs.stream("chain")
        )
        self.paths: List[DataPath] = []
        for i in range(config.n_paths):
            replica = base_chain.clone(f"@{i}") if config.n_paths > 1 else base_chain
            self.paths.append(
                DataPath(
                    sim,
                    i,
                    replica,
                    complete=self._on_path_complete,
                    drop=self._on_path_drop,
                    rng=rngs.stream(f"vcpu{i}"),
                    config=config.path,
                    tracer=tracer,
                )
            )

        # --- NIC --------------------------------------------------------
        self.nic = PhysicalNic(
            sim,
            dispatch=self.ingress,
            ring_size=config.nic_ring,
            rx_cost=config.nic_rx_cost,
        )
        self.nic.tracer = tracer

        # --- controller --------------------------------------------------
        self.controller: Optional[PathController] = None
        detector = getattr(self.policy, "detector", None) or StragglerDetector()
        if config.controller_interval > 0:
            self.controller = PathController(
                sim,
                self.paths,
                detector,
                interval=config.controller_interval,
                evacuate=config.evacuation,
                eject=config.ejection,
                liveness_timeout=config.liveness_timeout,
            )
            table = getattr(self.policy, "table", None)
            if table is not None:
                self.controller.register_flowlet_table(table)
            bind = getattr(self.policy, "bind_controller", None)
            if bind is not None:
                bind(self.controller)
            self.controller.start()

        # --- counters ------------------------------------------------------
        self.ingress_count = 0
        self.suppressed = 0
        self.drops: Dict[str, int] = {}
        #: ``packet.dropped`` -> the reason ``drops`` counts it under.
        self._reasons: Dict[Optional[str], str] = {}
        #: Invariant engine (repro.check); the detached singleton keeps
        #: the completion fan-in at one attribute check.
        self.invariants = NullInvariants

        if telemetry is not None:
            telemetry.register_host(self)

    # ------------------------------------------------------------------
    # Ingress
    # ------------------------------------------------------------------
    @property
    def input(self) -> Callable[[Packet], None]:
        """Where traffic sources (or the fabric model) deliver packets."""
        return self.nic.on_wire

    def ingress(self, packet: Packet) -> None:
        """Steer one packet from the NIC onto its path(s)."""
        self.ingress_count += 1
        ctl = self.controller
        if ctl is not None and ctl.eject and not ctl.live_ids:
            # Every path ejected: no selector may be asked to pick a dead
            # path, and nothing may be delivered through one.  Count the
            # loss explicitly rather than stranding packets on a queue
            # nobody will ever serve.
            packet.dropped = "mpdp:no-live-path"
            self._count_drop(packet)
            return
        paths = self.paths
        choice = self.policy.select(packet, paths, self.sim._now)
        if len(choice) == 1:
            if not paths[choice[0]].enqueue(packet):
                self._count_drop(packet)
            return
        # Replicated transmission: primary + replicas, first copy wins.
        copies = [packet] + self.replicator.replicate(packet, len(choice) - 1)
        self.dedup.register(packet, len(choice))
        telemetry = self.telemetry
        if telemetry is not None and telemetry.tracer.enabled:
            # Replication group record: lets forensics tie suppressed /
            # dropped clone pids back to the primary.
            telemetry.tracer.record(
                self.sim._now, "replicate", packet.pid, 0.0,
                {"copies": [cp.pid for cp in copies[1:]],
                 "paths": list(choice)},
            )
        for path_id, cp in zip(choice, copies):
            if not paths[path_id].enqueue(cp):
                self._count_drop(cp)
                self.dedup.on_copy_dropped(cp)

    # ------------------------------------------------------------------
    # Completion / drop plumbing
    # ------------------------------------------------------------------
    def _on_path_complete(self, packet: Packet) -> None:
        if self.invariants.enabled:
            self.invariants.on_path_complete(packet)
        # Fast path: no replicated packets in flight (the dedup table is
        # the same dict object for the lifetime of the host), so the
        # completion cannot need suppression.
        if not self.dedup._outstanding:
            self._deliver(packet)
        elif self.dedup.should_deliver(packet):
            self._deliver(packet)
        else:
            self.suppressed += 1

    def _on_path_drop(self, packet: Packet) -> None:
        self._count_drop(packet)
        self.dedup.on_copy_dropped(packet)

    def enable_packet_recycling(self) -> None:
        """Deprecated no-op: packets are no longer recycled."""
        warn_recycle_ignored("MultipathDataPlane.enable_packet_recycling()")

    def _count_drop(self, packet: Packet) -> None:
        raw = packet.dropped
        reason = self._reasons.get(raw)
        if reason is None:
            # Collapse per-path names, once per name ("path3.q:overflow"
            # -> "queue:overflow", "path2:crash" -> "path:crash").
            reason = raw or "unknown"
            if ".q:" in reason:
                reason = "queue:" + reason.split(":", 1)[1]
            elif reason.startswith("path") and ":" in reason:
                reason = "path:" + reason.split(":", 1)[1]
            self._reasons[raw] = reason
        self.drops[reason] = self.drops.get(reason, 0) + 1

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def total_cpu_time(self) -> float:
        """Useful CPU µs burned across all paths (includes replicas)."""
        return sum(p.vcpu.busy_time for p in self.paths)

    def cpu_per_delivered(self) -> float:
        """Mean CPU µs per *delivered* packet -- the T2 overhead metric.

        Replication inflates this (suppressed copies burn CPU but deliver
        nothing), which is exactly the overhead the experiment quantifies.
        """
        d = self.sink.delivered
        return self.total_cpu_time() / d if d else float("nan")

    def drop_count(self) -> int:
        """Total packets dropped anywhere in the host."""
        return sum(self.drops.values()) + self.nic.dropped

    def stats(self) -> Dict:
        """One-call diagnostic snapshot (tests and benches use this)."""
        out = {
            "ingress": self.ingress_count,
            "delivered": self.sink.delivered,
            "suppressed": self.suppressed,
            "replicas": self.replicator.replicas_created,
            "drops": dict(self.drops),
            "nic_drops": self.nic.dropped,
            "cpu_time": self.total_cpu_time(),
            "cpu_per_delivered": self.cpu_per_delivered(),
            "path_completed": [p.completed for p in self.paths],
            # Packets still on each path: queued or in service.
            "path_depth": [p.depth + p.in_service for p in self.paths],
            "queue_drops": [p.queue.dropped for p in self.paths],
        }
        if self.controller is not None and self.controller.eject:
            out["ejections"] = self.controller.ejections
            out["reinstatements"] = self.controller.reinstatements
            out["rerouted"] = self.controller.rerouted
            out["fault_drops"] = sum(p.fault_dropped for p in self.paths)
        if self.reorder is not None:
            out["reorder"] = {
                "held": self.reorder.held,
                "late": self.reorder.delivered_late,
                "timeout_flushes": self.reorder.timeout_flushes,
                "mean_hold": self.reorder.mean_hold_time(),
                "peak_occupancy": self.reorder.peak_occupancy,
            }
        return out

    def finalize(self) -> None:
        """End-of-run cleanup: stop the controller, drain the reorder buffer."""
        if self.controller is not None:
            self.controller.stop()
        if self.reorder is not None:
            self.reorder.flush_all()

    def detach(self) -> None:
        """Cut the callbacks that tie the components back to the host, so
        that reference counting alone frees a finished run.  The host is
        read-only afterwards: :meth:`stats`, the NIC counters and the
        sink read as before, and nothing may be fed to it."""
        for path in self.paths:
            path.detach()
        self.nic.detach()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MultipathDataPlane k={len(self.paths)} policy={self.policy.name} "
            f"delivered={self.sink.delivered}>"
        )
