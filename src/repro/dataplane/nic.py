"""Physical NIC model: rx ring, rx processing cost, RSS hashing.

The NIC is rarely the latency bottleneck of the last mile -- its job in
this model is (a) to stamp ``t_nic`` (arrival at the host boundary), (b)
to impose a bounded rx ring so extreme overload produces realistic
hardware drops instead of infinite queues, and (c) to provide the RSS
hash used by hardware-steering configurations.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

import numpy as np

from repro.net.packet import FiveTuple, Packet
from repro.obs.span import NullTracer
from repro.sim.engine import NORMAL, _SEQ_BITS, Simulator

#: Packed ordering key base for NORMAL-priority heap entries; the rx path
#: pushes its (per-packet) completion events directly.
_NORMAL_KEY = NORMAL << _SEQ_BITS


def rss_hash(ftuple: FiveTuple, n_buckets: int) -> int:
    """Deterministic receive-side-scaling hash of a five-tuple.

    A Toeplitz hash stand-in: Python's tuple hash mixed with a golden
    constant -- what matters for the model is determinism per flow and
    uniformity across flows, both of which hold.
    """
    h = hash(ftuple) * 0x9E3779B97F4A7C15
    return (h >> 17) % n_buckets


class PhysicalNic:
    """Receive-side NIC with a bounded rx ring.

    Packets arriving from the wire enter the ring (drop on overflow) and
    are passed to ``dispatch`` after ``rx_cost`` µs of serialized rx
    processing (DMA completion + descriptor handling).  With the default
    0.05 µs the NIC sustains 20 Mpps -- deliberately far above the
    software paths it feeds.

    Parameters
    ----------
    dispatch:
        Callable receiving each packet after rx processing (normally the
        multipath dispatcher's ingress).
    """

    __slots__ = (
        "sim",
        "name",
        "dispatch",
        "ring_size",
        "rx_cost",
        "_ring",
        "_busy",
        "_received",
        "_dropped",
        "_feed",
        "_fault_until",
        "_fault_prob",
        "_fault_rng",
        "_fault_dropped",
        "tracer",
    )

    def __init__(
        self,
        sim: Simulator,
        dispatch: Callable[[Packet], None],
        name: str = "nic0",
        ring_size: int = 4096,
        rx_cost: float = 0.05,
    ) -> None:
        if ring_size <= 0:
            raise ValueError(f"ring_size must be positive, got {ring_size}")
        if rx_cost < 0:
            raise ValueError(f"rx_cost must be >= 0, got {rx_cost}")
        self.sim = sim
        self.name = name
        self.dispatch = dispatch
        self.ring_size = ring_size
        self.rx_cost = rx_cost
        self._ring: Deque[Packet] = deque()
        self._busy = False
        self._received = 0
        self._dropped = 0
        #: The :class:`~repro.net.traffic.Replay` that owns this NIC, if
        #: any: it computes the receive stage from its arrival columns,
        #: drop bursts included, and the counters below are read from it.
        self._feed = None
        # Fault injection: while now < _fault_until, arrivals are dropped
        # with probability _fault_prob (see inject_drop_burst).
        self._fault_until = -1.0
        self._fault_prob = 1.0
        self._fault_rng: Optional[np.random.Generator] = None
        self._fault_dropped = 0
        #: Span tracer (observability); NullTracer keeps the hot path at
        #: one attribute check when telemetry is off.
        self.tracer = NullTracer

    # ------------------------------------------------------------------
    def inject_drop_burst(
        self,
        until: float,
        prob: float = 1.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        """Drop arriving packets until simulation time ``until``.

        ``prob`` < 1 drops probabilistically; the draws come from the
        injector's dedicated stream so they cannot perturb other
        components.  Passing ``until`` <= now clears an active burst.

        A NIC that a replay owns has no arrivals to drop here: schedule
        its bursts with ``FaultSchedule.drop_burst`` instead.
        """
        if self._feed is not None:
            raise RuntimeError(
                f"{self.name} is owned by a {type(self._feed).__name__} "
                f"replay, which computes its receive stage ahead of time: "
                f"schedule the burst with FaultSchedule.drop_burst and "
                f"install the FaultInjector after the replay owns the NIC")
        if not 0.0 < prob <= 1.0:
            raise ValueError(f"prob must be in (0, 1], got {prob}")
        if prob < 1.0 and rng is None:
            raise ValueError("probabilistic drop burst requires an rng stream")
        self._fault_until = until
        self._fault_prob = prob
        self._fault_rng = rng

    # ------------------------------------------------------------------
    def on_wire(self, packet: Packet) -> None:
        """Packet arrives from the wire."""
        sim = self.sim
        now = sim._now
        packet.t_nic = now
        if now < self._fault_until and (
            self._fault_prob >= 1.0 or self._fault_rng.random() < self._fault_prob
        ):
            packet.dropped = f"{self.name}:drop-burst"
            self._dropped += 1
            self._fault_dropped += 1
            return
        ring = self._ring
        if len(ring) >= self.ring_size:
            packet.dropped = f"{self.name}:ring-overflow"
            self._dropped += 1
            return
        self._received += 1
        ring.append(packet)
        if not self._busy:
            self._busy = True
            sim._seq = seq = sim._seq + 1
            sim._push((now + self.rx_cost, _NORMAL_KEY | seq, self._rx_done, ()))

    __call__ = on_wire

    def _rx_done(self) -> None:
        ring = self._ring
        pkt = ring.popleft()
        if ring:
            sim = self.sim
            sim._seq = seq = sim._seq + 1
            sim._push((sim._now + self.rx_cost, _NORMAL_KEY | seq,
                       self._rx_done, ()))
        else:
            self._busy = False
        if self.tracer.enabled:
            now = self.sim._now
            self.tracer.record(now, "nic_ring", pkt.pid, now - pkt.t_nic)
        self.dispatch(pkt)

    def detach(self) -> None:
        """Let go of ``dispatch`` and of an owning replay, whose counts
        freeze at their values now (the end of a run)."""
        self.dispatch = None
        if self._feed is not None:
            self._feed = _FrozenCounts(self._feed.nic_counts())

    @property
    def received(self) -> int:
        """Packets admitted to the rx ring so far."""
        if self._feed is None:
            return self._received
        return self._received + self._feed.nic_counts()[0]

    @property
    def dropped(self) -> int:
        """Arrivals dropped so far (ring overflow and drop bursts)."""
        if self._feed is None:
            return self._dropped
        return self._dropped + self._feed.nic_counts()[1]

    @property
    def fault_dropped(self) -> int:
        """Arrivals dropped by drop bursts so far (within ``dropped``)."""
        if self._feed is None:
            return self._fault_dropped
        return self._fault_dropped + self._feed.nic_counts()[3]

    @property
    def ring_occupancy(self) -> int:
        """Packets currently in the rx ring."""
        if self._feed is None:
            return len(self._ring)
        return self._feed.nic_counts()[2]


class _FrozenCounts(tuple):
    """An owning replay's final :meth:`~repro.net.traffic.Replay.nic_counts`,
    which a detached NIC keeps reading."""

    __slots__ = ()

    def nic_counts(self):
        return self
