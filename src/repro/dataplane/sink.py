"""Terminal delivery point and measurement boundary.

The sink is "the application socket": it stamps ``t_done``, feeds the
latency recorder and throughput meter, and notifies the flow tracker.
It deliberately contains **no** dedup/reorder logic -- those belong to
the multipath core, which sits in front of the sink.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.check.invariants import NullInvariants
from repro.metrics.collectors import LatencyRecorder, ThroughputMeter
from repro.net.flow import FlowTracker
from repro.net.packet import POOL_MAX, Packet
from repro.obs.span import NullTracer
from repro.sim.engine import Simulator


class DeliverySink:
    """Records end-to-end latency and goodput of delivered packets.

    Parameters
    ----------
    recorder:
        Latency recorder (created with defaults if omitted).
    tracker:
        Optional flow tracker for FCT experiments.
    on_delivery:
        Optional extra callback (tests, live dashboards).
    """

    __slots__ = ("sim", "recorder", "throughput", "tracker", "on_delivery",
                 "delivered", "tracer", "invariants", "_pool")

    def __init__(
        self,
        sim: Simulator,
        recorder: Optional[LatencyRecorder] = None,
        tracker: Optional[FlowTracker] = None,
        on_delivery: Optional[Callable[[Packet], None]] = None,
    ) -> None:
        self.sim = sim
        self.recorder = recorder if recorder is not None else LatencyRecorder()
        self.throughput = ThroughputMeter()
        self.tracker = tracker
        self.on_delivery = on_delivery
        self.delivered = 0
        #: Span tracer (observability); marks delivery instants.
        self.tracer = NullTracer
        #: Invariant engine (repro.check); NullInvariants keeps the hot
        #: path at one attribute check when checking is detached.
        self.invariants = NullInvariants
        #: Packet free list (PacketFactory.free) when recycling is wired;
        #: None leaves delivered packets to the garbage collector.
        self._pool = None

    def deliver(self, packet: Packet) -> None:
        """Accept one packet at the application boundary."""
        now = self.sim._now
        packet.t_done = now
        self.delivered += 1
        if self.invariants.enabled:
            self.invariants.on_deliver(packet)
        if self.tracer.enabled:
            self.tracer.record(now, "sink", packet.pid, 0.0)
        # Inlined LatencyRecorder.record and ThroughputMeter.record
        # (identical bookkeeping; this is the per-delivery hot path).
        latency = now - packet.t_created
        rec = self.recorder
        if now < rec.warmup:
            rec.dropped_warmup += 1
        else:
            rec.count += 1
            rec._sum += latency
            if latency > rec._max:
                rec._max = latency
            if rec.keep_all:
                rec.samples.append(latency)
            rec._pending.append(latency)
        tm = self.throughput
        if tm.packets == 0:
            tm.t_first = now
        tm.packets += 1
        tm.bytes += packet.size
        tm.t_last = now
        if self.tracker is not None:
            self.tracker.on_delivery(packet, now)
        if self.on_delivery is not None:
            self.on_delivery(packet)
        pool = self._pool
        if pool is not None and len(pool) < POOL_MAX:
            pool.append(packet)

    __call__ = deliver
