"""Bounded path queues (vSwitch/vhost rings).

:class:`PathQueue` is the drop-tail FIFO in front of each datapath
instance.  It is deliberately *not* built on :class:`repro.sim.Store`:
the per-packet hot path needs direct deque operations, drop accounting,
byte-occupancy tracking, and an enqueue notification hook for the poller
-- with no Event allocation per packet.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional

from repro.net.packet import Packet
from repro.sim.engine import Simulator


class PathQueue:
    """Drop-tail FIFO with packet- and byte-capacity limits.

    Parameters
    ----------
    capacity_pkts:
        Maximum queued packets (ring slots).
    capacity_bytes:
        Optional byte ceiling (models bounded socket/ring memory).
    on_enqueue:
        Callback invoked after a successful enqueue (the poller's
        wake-up hook).  Set after construction via :attr:`on_enqueue`.
    """

    __slots__ = (
        "sim",
        "name",
        "capacity_pkts",
        "capacity_bytes",
        "on_enqueue",
        "_q",
        "_bytes",
        "enqueued",
        "dropped",
        "dropped_bytes",
        "peak_occupancy",
        "_overflow",
    )

    def __init__(
        self,
        sim: Simulator,
        name: str = "pathq",
        capacity_pkts: int = 1024,
        capacity_bytes: Optional[int] = None,
    ) -> None:
        if capacity_pkts <= 0:
            raise ValueError(f"capacity_pkts must be positive, got {capacity_pkts}")
        if capacity_bytes is not None and capacity_bytes <= 0:
            raise ValueError(f"capacity_bytes must be positive, got {capacity_bytes}")
        self.sim = sim
        self.name = name
        self.capacity_pkts = capacity_pkts
        self.capacity_bytes = capacity_bytes
        self.on_enqueue: Optional[Callable[[], None]] = None
        self._q: Deque[Packet] = deque()
        self._bytes = 0
        self.enqueued = 0
        self.dropped = 0
        self.dropped_bytes = 0
        self.peak_occupancy = 0
        self._overflow = f"{name}:overflow"  # every overflow's drop reason

    # ------------------------------------------------------------------
    def push(self, packet: Packet) -> bool:
        """Enqueue; returns False (and marks the packet dropped) on overflow."""
        q = self._q
        size = packet.size
        n = len(q)
        if n >= self.capacity_pkts or (
            self.capacity_bytes is not None
            and self._bytes + size > self.capacity_bytes
        ):
            packet.dropped = self._overflow
            self.dropped += 1
            self.dropped_bytes += size
            return False
        packet.t_enq = self.sim._now
        q.append(packet)
        self._bytes += size
        self.enqueued += 1
        n += 1
        if n > self.peak_occupancy:
            self.peak_occupancy = n
        on_enqueue = self.on_enqueue
        if on_enqueue is not None:
            on_enqueue()
        return True

    def pop(self) -> Packet:
        """Dequeue the head packet (raises IndexError when empty)."""
        pkt = self._q.popleft()
        self._bytes -= pkt.size
        return pkt

    def pop_batch(self, max_n: int) -> List[Packet]:
        """Dequeue up to ``max_n`` packets (possibly fewer; never empty
        unless the queue is empty)."""
        q = self._q
        n = len(q)
        if max_n < n:
            n = max_n
        popleft = q.popleft
        out = [popleft() for _ in range(n)]
        freed = 0
        for pkt in out:
            freed += pkt.size
        self._bytes -= freed
        return out

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._q)

    @property
    def bytes(self) -> int:
        """Current byte occupancy."""
        return self._bytes

    @property
    def empty(self) -> bool:
        return not self._q

    def head_wait(self, now: float) -> float:
        """How long the head packet has been waiting (0 if empty).

        The queue-aware selection policies use this as a staleness signal.
        """
        if not self._q:
            return 0.0
        return now - self._q[0].t_enq

    def audit(self) -> Optional[str]:
        """Recompute occupancy from contents; returns a message on
        mismatch, None when the books balance.

        O(queue length) -- called by the ``repro.check`` conservation
        sampler, never by the data plane itself.
        """
        actual = sum(p.size for p in self._q)
        if actual != self._bytes:
            return (
                f"{self.name}: byte counter {self._bytes} != contents "
                f"{actual}"
            )
        if self._bytes < 0 or (
            self.capacity_bytes is not None and self._bytes > self.capacity_bytes
        ):
            return f"{self.name}: byte counter {self._bytes} out of bounds"
        if len(self._q) > self.capacity_pkts:
            return (
                f"{self.name}: occupancy {len(self._q)} exceeds capacity "
                f"{self.capacity_pkts}"
            )
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PathQueue {self.name} len={len(self._q)} drops={self.dropped}>"
