"""DataPath: the replicable datapath unit.

A *path* is one complete intra-host forwarding lane: a bounded queue, a
poller on its own vCPU, and a private replica of the NF chain (prefixed
by a private vSwitch flow cache).  The multipath data plane instantiates
``k`` of these; the single-path baseline is simply ``k = 1``.

The path also maintains the online state the selection policies read:
queue depth and an EWMA of recent per-packet sojourn, updated on
completion events with O(1) work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.dataplane.queues import PathQueue
from repro.dataplane.poller import Poller
from repro.dataplane.vcpu import JitterParams, VCpu
from repro.dataplane.vswitch import FlowCache
from repro.elements.base import Chain
from repro.metrics.collectors import Ewma
from repro.net.packet import Packet
from repro.obs.span import NullTracer
from repro.sim.engine import Simulator


#: Completions buffered before the EWMA folds them unread.
_LAT_PENDING_MAX = 65536


@dataclass
class PathConfig:
    """Per-path construction parameters (see component classes for units).

    ``qdisc`` selects the queue discipline from :data:`QDISC_REGISTRY`:
    ``"fifo"`` (default, :class:`PathQueue`), ``"prio"`` (strict priority
    over ``packet.priority``) or ``"drr"`` (deficit round robin with
    ``drr_quanta`` bytes per class).  It accepts either a registry name
    or a spec mapping ``{"name": ..., **params}`` -- the form sweep axes
    produce -- e.g. ``qdisc={"name": "drr", "quanta": (3000, 1554)}``;
    mapping params override the corresponding config fields.
    """

    queue_capacity: int = 1024
    queue_capacity_bytes: Optional[int] = None
    qdisc: object = "fifo"
    qdisc_classes: int = 2
    drr_quanta: tuple = (1554, 1554)
    batch_size: int = 32
    batch_overhead: float = 0.25
    wakeup_latency: float = 0.0
    emc_size: int = 8192
    jitter: JitterParams = field(default_factory=JitterParams)
    latency_ewma_alpha: float = 0.05


def _build_fifo(sim, name, cfg: "PathConfig", params: dict):
    return PathQueue(
        sim,
        name=name,
        capacity_pkts=params.pop("capacity_pkts", cfg.queue_capacity),
        capacity_bytes=params.pop("capacity_bytes", cfg.queue_capacity_bytes),
        **params,
    )


def _build_prio(sim, name, cfg: "PathConfig", params: dict):
    from repro.dataplane.scheduler import PriorityPathQueue

    return PriorityPathQueue(
        sim,
        name=name,
        capacity_pkts=params.pop("capacity_pkts", cfg.queue_capacity),
        n_classes=params.pop("n_classes", cfg.qdisc_classes),
        **params,
    )


def _build_drr(sim, name, cfg: "PathConfig", params: dict):
    from repro.dataplane.scheduler import DrrPathQueue

    return DrrPathQueue(
        sim,
        name=name,
        capacity_pkts=params.pop("capacity_pkts", cfg.queue_capacity),
        quanta=params.pop("quanta", cfg.drr_quanta),
        **params,
    )


#: Queue-discipline registry: name -> builder(sim, name, cfg, params).
#: ``DataPath`` resolves ``PathConfig.qdisc`` (name or spec mapping)
#: through this table; register a builder here to add a qdisc that
#: sweeps and scenario configs can select by name.
QDISC_REGISTRY = {
    "fifo": _build_fifo,
    "prio": _build_prio,
    "drr": _build_drr,
}


def make_path_queue(sim, name: str, cfg: "PathConfig"):
    """Build the queue selected by ``cfg.qdisc`` (registry-style spec).

    Accepts a registry name or a ``{"name": ..., **params}`` mapping;
    mapping params override the matching ``PathConfig`` fields.
    """
    spec = cfg.qdisc
    if isinstance(spec, dict):
        params = dict(spec)
        qname = params.pop("name", None)
        if qname is None:
            raise ValueError(
                f"qdisc spec mapping needs a 'name' key, got {sorted(spec)}"
            )
    else:
        qname, params = spec, {}
    try:
        builder = QDISC_REGISTRY[qname]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown qdisc {qname!r}; available: {'/'.join(QDISC_REGISTRY)}"
        ) from None
    return builder(sim, name, cfg, params)


class DataPath:
    """One queue + poller + vCPU + chain replica.

    Parameters
    ----------
    chain:
        The chain replica this path executes (already cloned by the
        caller; paths never share chain state).
    complete:
        Callable invoked with each successfully processed packet.
    drop:
        Callable invoked with packets dropped inside the path.
    """

    __slots__ = (
        "sim",
        "path_id",
        "name",
        "queue",
        "vcpu",
        "flowcache",
        "chain",
        "poller",
        "_ewma",
        "_lat_pending",
        "_mean_cost",
        "completed",
        "last_completion",
        "faulted",
        "fault_dropped",
        "service_dropped",
        "tracer",
        "_complete_cb",
        "_drop_cb",
    )

    def __init__(
        self,
        sim: Simulator,
        path_id: int,
        chain: Chain,
        complete: Callable[[Packet], None],
        drop: Optional[Callable[[Packet], None]] = None,
        rng: Optional[np.random.Generator] = None,
        config: Optional[PathConfig] = None,
        tracer=NullTracer,
    ) -> None:
        cfg = config or PathConfig()
        self.sim = sim
        self.path_id = path_id
        self.name = f"path{path_id}"
        self.queue = make_path_queue(sim, f"{self.name}.q", cfg)
        self.vcpu = VCpu(name=f"{self.name}.vcpu", rng=rng, params=cfg.jitter)
        self.flowcache = FlowCache(name=f"{self.name}.fc", emc_size=cfg.emc_size)
        # The flow cache is the first element every packet hits on a path.
        # Plain chains are flattened; other composites (e.g. a
        # StageParallelChain) are nested whole to preserve their shape.
        if type(chain) is Chain:
            members = [self.flowcache, *chain.elements]
        else:
            members = [self.flowcache, chain]
        self.chain = Chain(members, name=f"{self.name}.{chain.name}")
        self._complete_cb = complete
        self._drop_cb = drop
        self.tracer = tracer
        self.poller = Poller(
            sim,
            self.queue,
            self.vcpu,
            self.chain,
            self._on_complete,
            name=f"{self.name}.poller",
            batch_size=cfg.batch_size,
            batch_overhead=cfg.batch_overhead,
            wakeup_latency=cfg.wakeup_latency,
            drop_sink=self._on_service_drop,
            tracer=tracer,
            track=path_id,
        )
        #: EWMA of per-packet path sojourn (enqueue -> completion), µs.
        self._ewma = Ewma(cfg.latency_ewma_alpha)
        #: Sojourn samples not yet folded into the EWMA.  Completions
        #: only append here; every read of :attr:`ewma_latency` replays
        #: the buffer in arrival order and empties it, so readers observe
        #: exactly the eagerly-updated state and the buffer holds at most
        #: one health-refresh interval of completions.
        self._lat_pending: list = []
        # Lazily cached chain.mean_cost() (fixed after construction).
        self._mean_cost = 0.0
        self.completed = 0
        self.last_completion = 0.0
        #: Active fault kind (``None`` when healthy) -- set only by the
        #: injection API below; policies never read it (no oracle).
        self.faulted: Optional[str] = None
        #: Packets destroyed by a crash's queue drop.
        self.fault_dropped = 0
        #: Served packets the chain dropped, counted when their drop
        #: fires at the end of service.
        self.service_dropped = 0

    # ------------------------------------------------------------------
    # Fault injection API (see repro.faults)
    # ------------------------------------------------------------------
    def inject_crash(self) -> None:
        """Path dies: the poller stops and the queued packets are lost.

        New arrivals still enqueue (the ring is shared memory; producers
        do not know the consumer died) and sit there until the controller
        ejects the path and re-steers them, or the queue overflows.
        """
        self.faulted = "crash"
        for pkt in self.queue.pop_batch(len(self.queue)):
            pkt.dropped = f"{self.name}:crash"
            self.fault_dropped += 1
            self._on_drop(pkt)
        self.poller.freeze()

    def inject_hang(self) -> None:
        """Path freezes: no service, but the backlog survives the fault."""
        self.faulted = "hang"
        self.poller.freeze()

    def inject_degrade(self, factor: float) -> None:
        """Multiply per-packet service cost by ``factor`` (> 1)."""
        if factor <= 1.0:
            raise ValueError(f"degrade factor must be > 1, got {factor}")
        self.faulted = "degrade"
        self.poller.degrade = factor

    def inject_sched_freeze(self, now: float, duration: float) -> None:
        """Hard vCPU stall: accepted work finishes only after the freeze."""
        self.faulted = "sched_freeze"
        self.vcpu.inject_stall(now, duration)

    def clear_fault(self) -> None:
        """End the active fault; a frozen poller resumes with its backlog."""
        if self.faulted in ("crash", "hang"):
            self.poller.unfreeze()
        elif self.faulted == "degrade":
            self.poller.degrade = 1.0
        self.faulted = None

    def probe(self, now: float, timeout: float = 200.0) -> bool:
        """Health probe: would a trivial request complete within ``timeout``?

        Models the controller pinging the path process: fails while the
        poller is dead (crash/hang) or the vCPU is inside a stall longer
        than the probe timeout.  Degraded-but-serving paths pass -- slow
        is the straggler detector's business, not liveness's.
        """
        if self.poller.frozen:
            return False
        return self.vcpu.available_at(now) - now <= timeout

    # ------------------------------------------------------------------
    def enqueue(self, packet: Packet) -> bool:
        """Steer a packet onto this path; False if the queue dropped it."""
        packet.path_id = self.path_id
        return self.queue.push(packet)

    def _on_complete(self, packet: Packet) -> None:
        now = self.sim._now
        sojourn = now - packet.t_enq
        pending = self._lat_pending
        pending.append(sojourn)
        if len(pending) >= _LAT_PENDING_MAX:
            # Bound the buffer when nothing reads the EWMA (a run with
            # the controller disabled); folding early is invisible.
            self._ewma.add_many(pending)
            pending.clear()
        self.completed += 1
        self.last_completion = now
        if self.tracer.enabled:
            # Enclosing span (excluded from leaf-stage sums): the whole
            # intra-path sojourn, enqueue -> completion.
            self.tracer.record(now, "path_transit", packet.pid, sojourn,
                               self.path_id)
        self._complete_cb(packet)

    def detach(self) -> None:
        """Let go of the host's callbacks and the poller's (the end of a
        run; every counter and signal stays readable)."""
        self._complete_cb = self._drop_cb = None
        self.poller.detach()

    def _on_service_drop(self, packet: Packet) -> None:
        self.service_dropped += 1
        self._on_drop(packet)

    def _on_drop(self, packet: Packet) -> None:
        if self._drop_cb is not None:
            self._drop_cb(packet)

    # ------------------------------------------------------------------
    # Signals read by selection policies
    # ------------------------------------------------------------------
    @property
    def ewma_latency(self) -> Ewma:
        """EWMA of per-packet path sojourn (flushed on read)."""
        pending = self._lat_pending
        if pending:
            self._ewma.add_many(pending)
            pending.clear()
        return self._ewma

    @property
    def depth(self) -> int:
        """Instantaneous queue depth (packets)."""
        return len(self.queue)

    @property
    def in_service(self) -> int:
        """Packets the poller has taken whose service has not ended yet."""
        return self.poller.served - self.completed - self.service_dropped

    @property
    def depth_bytes(self) -> int:
        return self.queue.bytes

    def expected_wait(self, now: float) -> float:
        """Cheap estimate of a new arrival's wait on this path (µs).

        Queue backlog times the EWMA per-packet service estimate, plus the
        remaining time of work already accepted by the vCPU.  Used by the
        least-loaded and adaptive policies.
        """
        m = self._mean_cost
        if m == 0.0:
            m = self._mean_cost = self.chain.mean_cost()
        wait = len(self.queue) * m
        pending_cpu = self.vcpu._free_at - now
        if pending_cpu > 0.0:
            wait += pending_cpu
        return wait

    def stalled(self, now: float, threshold: float) -> bool:
        """Straggler signal: head-of-line packet stuck beyond ``threshold``."""
        return self.queue.head_wait(now) > threshold

    def cpu_time(self) -> float:
        """Useful CPU µs consumed by this path so far."""
        return self.vcpu.busy_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DataPath {self.path_id} depth={self.depth} "
            f"ewma={self.ewma_latency.value:.1f}us done={self.completed}>"
        )
