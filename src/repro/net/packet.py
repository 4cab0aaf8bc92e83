"""The packet: unit of work for every data-plane component.

Packets are plain mutable objects with ``__slots__``; the per-packet hot
path never touches a dict.  Latency bookkeeping lives directly on the
packet (creation time, per-stage timestamps the components fill in) so the
sink can compute end-to-end and per-stage latency without a side table.

Sizes are in **bytes**, times in **microseconds** (the simulation-wide
convention).
"""

from __future__ import annotations

from typing import Any, NamedTuple, Optional

#: Standard Ethernet MTU payload used for segmentation (bytes).
MTU = 1500
#: Minimum Ethernet frame (bytes).
MIN_PACKET = 64
#: Header overhead accounted per packet (Ethernet+IP+TCP, bytes).
HEADER_BYTES = 54


class FiveTuple(NamedTuple):
    """Classification key for a packet.

    Addresses are small integers (host indices) rather than dotted strings:
    the simulator never parses header bytes, and integer tuples hash fast.
    """

    src: int
    dst: int
    sport: int
    dport: int
    proto: int = 6  # TCP by default

    def reversed(self) -> "FiveTuple":
        """The reply direction of this tuple."""
        return FiveTuple(self.dst, self.src, self.dport, self.sport, self.proto)


class Packet:
    """A simulated packet.

    Attributes
    ----------
    pid:
        Globally unique packet id.
    ftuple:
        Five-tuple header used by classifiers and hash-based path selection.
    flow_id:
        Id of the owning :class:`~repro.net.flow.Flow` (or -1 for
        flow-less packet streams).
    seq:
        Per-flow sequence number (0-based); the reorder buffer restores
        this order.
    size:
        Wire size in bytes (payload + :data:`HEADER_BYTES`).
    t_created:
        Simulation time when the source emitted the packet.
    t_nic / t_enq / t_deq / t_done:
        Stage timestamps stamped by the NIC, the path queue, the poller,
        and the sink.  ``nan`` until stamped.
    path_id:
        Data-plane path the packet was steered to (-1 before selection).
    copy_of:
        For replicated packets, the pid of the primary copy; -1 otherwise.
    dropped:
        Set by whichever component dropped the packet, with a reason tag.
    """

    __slots__ = (
        "pid",
        "ftuple",
        "flow_id",
        "seq",
        "size",
        "priority",
        "t_created",
        "t_nic",
        "t_enq",
        "t_deq",
        "t_done",
        "path_id",
        "copy_of",
        "dropped",
        "meta",
    )

    NAN = float("nan")

    def __init__(
        self,
        pid: int,
        ftuple: FiveTuple,
        size: int,
        t_created: float,
        flow_id: int = -1,
        seq: int = 0,
        priority: int = 0,
    ) -> None:
        self.pid = pid
        self.ftuple = ftuple
        self.flow_id = flow_id
        self.seq = seq
        self.size = size
        self.priority = priority
        self.t_created = t_created
        self.t_nic = Packet.NAN
        self.t_enq = Packet.NAN
        self.t_deq = Packet.NAN
        self.t_done = Packet.NAN
        self.path_id = -1
        self.copy_of = -1
        self.dropped: Optional[str] = None
        self.meta: Any = None

    # ------------------------------------------------------------------
    @property
    def latency(self) -> float:
        """End-to-end latency (valid once ``t_done`` is stamped)."""
        return self.t_done - self.t_created

    @property
    def is_copy(self) -> bool:
        """True for a redundant replica created by the replicator."""
        return self.copy_of >= 0

    def clone(self, pid: int) -> "Packet":
        """Create a replica for redundant transmission.

        The replica shares header/flow identity and creation time (latency
        is measured from the *original* send instant) and records the
        primary's pid in ``copy_of``.
        """
        cp = object.__new__(Packet)  # every slot is stored below
        cp.pid = pid
        cp.ftuple = self.ftuple
        cp.flow_id = self.flow_id
        cp.seq = self.seq
        cp.size = self.size
        cp.priority = self.priority
        cp.t_created = self.t_created
        cp.t_nic = self.t_nic
        cp.t_enq = cp.t_deq = cp.t_done = Packet.NAN
        cp.path_id = -1
        cp.copy_of = self.pid if self.copy_of < 0 else self.copy_of
        cp.dropped = cp.meta = None
        return cp

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Packet pid={self.pid} flow={self.flow_id} seq={self.seq} "
            f"size={self.size} path={self.path_id}>"
        )


_recycle_warned: set = set()


def warn_recycle_ignored(spelling: str, stacklevel: int = 3) -> None:
    """Warn once per process that ``spelling``, a name of the deleted
    packet free list, is ignored; ``stacklevel`` counts from here to the
    caller's own code."""
    if spelling not in _recycle_warned:
        import warnings

        _recycle_warned.add(spelling)
        warnings.warn(f"{spelling} is deprecated and ignored: packets are "
                      f"no longer recycled", DeprecationWarning,
                      stacklevel=stacklevel)


class PacketFactory:
    """Allocates packets with unique, monotonically increasing pids.

    One factory per simulation keeps pid allocation centralized so that
    replicas (allocated by the core replicator) never collide with source
    packets.  Every packet is allocated once, by :meth:`make`, a source's
    replay or :meth:`Packet.clone`, and then left to reference counting.
    """

    __slots__ = ("_next_pid", "created")

    def __init__(self) -> None:
        self._next_pid = 0
        #: Total packets ever allocated (including replicas).
        self.created = 0

    @property
    def free(self) -> list:
        """Deprecated: always an empty list (there is no free list)."""
        warn_recycle_ignored("PacketFactory.free")
        return []

    def recycle(self, packet: Packet) -> None:
        """Deprecated no-op (there is no free list)."""
        warn_recycle_ignored("PacketFactory.recycle()")

    def next_pid(self) -> int:
        """Reserve and return the next unique pid."""
        pid = self._next_pid
        self._next_pid += 1
        self.created += 1
        return pid

    def make(
        self,
        ftuple: FiveTuple,
        size: int,
        t_created: float,
        flow_id: int = -1,
        seq: int = 0,
        priority: int = 0,
    ) -> Packet:
        """Allocate a new packet."""
        return Packet(
            self.next_pid(), ftuple, size, t_created, flow_id, seq, priority
        )
