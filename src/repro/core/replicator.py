"""Packet replication and first-copy-wins deduplication.

Redundancy is the bluntest tail-cutting instrument ("The Tail at Scale"):
send each packet down ``r`` paths, deliver whichever copy finishes first,
suppress the rest.  It trades CPU (every copy is fully processed) for
tail latency, which is why it wins at low load and collapses near
saturation -- experiments F3/F5/A3 trace exactly that frontier.

:class:`Replicator` allocates the clone packets (real pid allocation via
the shared factory, so accounting stays honest); :class:`Deduplicator`
sits at the completion boundary, delivers the first copy of each
replicated packet, and swallows the rest.  Non-replicated packets pass
through the deduplicator with a single dict probe.
"""

from __future__ import annotations

from typing import Dict, List

from repro.net.packet import Packet, PacketFactory


class Replicator:
    """Creates replica packets for redundant transmission."""

    __slots__ = ("factory", "replicas_created")

    def __init__(self, factory: PacketFactory) -> None:
        self.factory = factory
        self.replicas_created = 0

    def replicate(self, packet: Packet, n_copies: int) -> List[Packet]:
        """Return ``n_copies`` replicas of ``packet`` (primary excluded)."""
        if n_copies < 0:
            raise ValueError(f"n_copies must be >= 0, got {n_copies}")
        next_pid = self.factory.next_pid
        out = [packet.clone(next_pid()) for _ in range(n_copies)]
        self.replicas_created += n_copies
        return out


class Deduplicator:
    """First-copy-wins suppression for replicated packets.

    For each replicated primary pid the deduplicator tracks how many
    copies are still in flight; the first copy to complete is delivered,
    later copies are suppressed, and the entry is removed once every copy
    has been accounted for (completed *or* dropped), bounding memory.
    """

    __slots__ = ("_outstanding", "delivered_first", "suppressed", "registered")

    def __init__(self) -> None:
        # primary pid -> [copies_in_flight, first_delivered?]
        self._outstanding: Dict[int, List] = {}
        self.delivered_first = 0
        self.suppressed = 0
        self.registered = 0

    def register(self, primary: Packet, total_copies: int) -> None:
        """Declare that ``primary`` travels as ``total_copies`` copies
        (including itself); must be called before any copy completes."""
        if total_copies < 2:
            raise ValueError("registration requires at least 2 copies")
        if primary.pid in self._outstanding:
            raise ValueError(f"packet {primary.pid} already registered")
        self._outstanding[primary.pid] = [total_copies, False]
        self.registered += 1

    def should_deliver(self, packet: Packet) -> bool:
        """Account one completed copy; True if it is the first to arrive."""
        key = packet.copy_of if packet.copy_of >= 0 else packet.pid
        entry = self._outstanding.get(key)
        if entry is None:
            return True  # not replicated (or already fully accounted)
        entry[0] -= 1
        first = not entry[1]
        if first:
            entry[1] = True
            self.delivered_first += 1
        else:
            self.suppressed += 1
        if entry[0] <= 0:
            del self._outstanding[key]
        return first

    def on_copy_dropped(self, packet: Packet) -> None:
        """Account a copy that died inside the data plane."""
        key = packet.copy_of if packet.copy_of >= 0 else packet.pid
        entry = self._outstanding.get(key)
        if entry is None:
            return
        entry[0] -= 1
        if entry[0] <= 0:
            del self._outstanding[key]

    @property
    def outstanding(self) -> int:
        """Replicated packets not yet fully accounted (memory gauge)."""
        return len(self._outstanding)
