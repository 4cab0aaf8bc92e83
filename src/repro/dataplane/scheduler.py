"""Multi-class queue disciplines for path queues.

Real virtual switches separate latency-critical RPCs from bulk transfer
with per-port queue disciplines.  Two drop-in alternatives to the FIFO
:class:`~repro.dataplane.queues.PathQueue` (same surface: ``push`` /
``pop`` / ``pop_batch`` / ``head_wait`` / counters), classifying packets
by ``packet.priority`` (higher = more urgent):

* :class:`PriorityPathQueue` -- strict priority: always serve the
  highest non-empty class; starves bulk under overload (by design).
* :class:`DrrPathQueue` -- deficit round robin: byte-fair service
  between classes with configurable quanta; no starvation.

Both enforce one shared packet-capacity bound with drop-from-lowest-
priority on overflow (a full queue evicts bulk before dropping urgent
traffic).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Sequence

from repro.net.packet import Packet
from repro.sim.engine import Simulator


class _ClassedQueueBase:
    """Shared machinery: per-class deques, capacity, counters, hooks."""

    __slots__ = (
        "sim",
        "name",
        "capacity_pkts",
        "n_classes",
        "on_enqueue",
        "_classes",
        "_bytes",
        "_len",
        "enqueued",
        "dropped",
        "dropped_bytes",
        "evicted",
        "peak_occupancy",
    )

    def __init__(
        self,
        sim: Simulator,
        name: str,
        capacity_pkts: int,
        n_classes: int,
    ) -> None:
        if capacity_pkts <= 0:
            raise ValueError(f"capacity_pkts must be positive, got {capacity_pkts}")
        if n_classes <= 0:
            raise ValueError(f"n_classes must be positive, got {n_classes}")
        self.sim = sim
        self.name = name
        self.capacity_pkts = capacity_pkts
        self.n_classes = n_classes
        self.on_enqueue: Optional[Callable[[], None]] = None
        self._classes: List[Deque[Packet]] = [deque() for _ in range(n_classes)]
        self._bytes = 0
        self._len = 0
        self.enqueued = 0
        self.dropped = 0
        self.dropped_bytes = 0
        #: Lower-priority packets evicted to make room for urgent ones.
        self.evicted = 0
        self.peak_occupancy = 0

    # -- classification ------------------------------------------------
    def _class_of(self, packet: Packet) -> int:
        """Map priority to class index (clamped); class 0 = lowest."""
        p = packet.priority
        if p < 0:
            return 0
        return min(p, self.n_classes - 1)

    # -- push with eviction ---------------------------------------------
    def push(self, packet: Packet) -> bool:
        cls = self._class_of(packet)
        if self._len >= self.capacity_pkts:
            # Try to evict one packet of a strictly lower class.
            victim_cls = next(
                (c for c in range(cls) if self._classes[c]), None
            )
            if victim_cls is None:
                packet.dropped = f"{self.name}:overflow"
                self.dropped += 1
                self.dropped_bytes += packet.size
                return False
            victim = self._classes[victim_cls].pop()  # newest of that class
            victim.dropped = f"{self.name}:evicted"
            self.evicted += 1
            self.dropped += 1
            self.dropped_bytes += victim.size
            self._bytes -= victim.size
            self._len -= 1
        packet.t_enq = self.sim.now
        self._classes[cls].append(packet)
        self._bytes += packet.size
        self._len += 1
        self.enqueued += 1
        if self._len > self.peak_occupancy:
            self.peak_occupancy = self._len
        if self.on_enqueue is not None:
            self.on_enqueue()
        return True

    # -- common accessors -------------------------------------------------
    def __len__(self) -> int:
        return self._len

    @property
    def bytes(self) -> int:
        return self._bytes

    @property
    def empty(self) -> bool:
        return self._len == 0

    def head_wait(self, now: float) -> float:
        """Age of the oldest packet across all classes (0 if empty)."""
        oldest = None
        for q in self._classes:
            if q:
                t = q[0].t_enq
                if oldest is None or t < oldest:
                    oldest = t
        return 0.0 if oldest is None else now - oldest

    def pop_batch(self, max_n: int) -> List[Packet]:
        out = []
        for _ in range(min(max_n, self._len)):
            out.append(self.pop())
        return out

    def audit(self) -> Optional[str]:
        """Recompute length/byte counters from per-class contents;
        returns a message on mismatch, None when the books balance.

        O(occupancy) -- called by the ``repro.check`` conservation
        sampler, never by the data plane itself.
        """
        n = 0
        total = 0
        for q in self._classes:
            n += len(q)
            for p in q:
                total += p.size
        if n != self._len:
            return f"{self.name}: length counter {self._len} != contents {n}"
        if total != self._bytes:
            return (
                f"{self.name}: byte counter {self._bytes} != contents "
                f"{total}"
            )
        if self._len > self.capacity_pkts:
            return (
                f"{self.name}: occupancy {self._len} exceeds capacity "
                f"{self.capacity_pkts}"
            )
        return None

    def pop(self) -> Packet:  # pragma: no cover - abstract
        raise NotImplementedError


class PriorityPathQueue(_ClassedQueueBase):
    """Strict-priority discipline: highest non-empty class first."""

    __slots__ = ()

    def __init__(
        self,
        sim: Simulator,
        name: str = "prioq",
        capacity_pkts: int = 1024,
        n_classes: int = 2,
    ) -> None:
        super().__init__(sim, name, capacity_pkts, n_classes)

    def pop(self) -> Packet:
        for cls in range(self.n_classes - 1, -1, -1):
            q = self._classes[cls]
            if q:
                pkt = q.popleft()
                self._bytes -= pkt.size
                self._len -= 1
                return pkt
        raise IndexError("pop from empty queue")


class DrrPathQueue(_ClassedQueueBase):
    """Deficit round robin: byte-fair between classes.

    Each class owns a quantum (bytes) credited once per round; a class
    serves packets while its deficit covers the head's size.  Weights
    are expressed through per-class quanta.
    """

    __slots__ = ("quanta", "_deficits", "_round_robin", "_credited")

    def __init__(
        self,
        sim: Simulator,
        name: str = "drrq",
        capacity_pkts: int = 1024,
        quanta: Sequence[int] = (1554, 1554),
    ) -> None:
        super().__init__(sim, name, capacity_pkts, len(quanta))
        if any(q <= 0 for q in quanta):
            raise ValueError("quanta must be positive")
        self.quanta = list(quanta)
        self._deficits = [0.0] * len(quanta)
        self._round_robin = 0
        # Whether the class under the round-robin pointer has already
        # received its quantum for the current visit.
        self._credited = False

    def pop(self) -> Packet:
        if self._len == 0:
            raise IndexError("pop from empty queue")
        # Classic DRR: on visiting a backlogged class, credit its quantum
        # exactly once, serve packets while the deficit covers the head,
        # then advance the pointer (deficit carries while backlogged).
        while True:
            cls = self._round_robin
            q = self._classes[cls]
            if q:
                if not self._credited:
                    self._deficits[cls] += self.quanta[cls]
                    self._credited = True
                head = q[0]
                if self._deficits[cls] >= head.size:
                    self._deficits[cls] -= head.size
                    q.popleft()
                    self._bytes -= head.size
                    self._len -= 1
                    return head
            else:
                # Idle classes neither keep nor accumulate credit.
                self._deficits[cls] = 0.0
            self._round_robin = (cls + 1) % self.n_classes
            self._credited = False
