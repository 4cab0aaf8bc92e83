"""Per-host cluster router: the seam between source and fabric.

In a cluster run each host's traffic source does not feed the host's
NIC directly -- it feeds this router, in the engine's first phase (see
:mod:`repro.cluster.engine`), with no data plane attached.  The router
assigns every **flow** a destination host per the cluster pattern and
writes each packet down as a row of envelope columns in
:attr:`ClusterRouter.outgoing`:

* a **local** packet (destination is its own host) becomes a local row,
  ``dst_host == src_host`` and ``arrive_time == send_time``, which the
  host's phase-2 replay feeds back to its NIC at emission time;
* a **remote** packet is steered (:class:`~repro.net.fabric.FabricSteering`
  picks spine, delay and loss) and becomes a schema-versioned envelope
  for its destination.

Phase 2 never runs a router: each host replays one merged stream of its
local rows and the envelopes addressed to it
(:func:`~repro.dataplane.boundary.host_ingress`), and counts the
envelopes it received or lost in bulk.

Destination assignment is per-flow, not per-packet: a flow's packets
all land on one host, so per-flow sequence numbers stay gap-free and
the destination's reorder buffer sees a normal flow.

Conservation across hosts is exact and testable: for every host pair
``(i, j)``, ``sent_i[j] == received_j[i] + fabric_dropped_j[i]`` --
lost packets still travel as envelopes flagged ``dropped`` and are
*accounted* (never delivered) at the receiver, so no packet can
silently vanish between hosts (see
:func:`repro.check.cluster.check_cluster_conservation`).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..dataplane.boundary import encode_envelope
from ..net.fabric import FabricSteering


class ClusterRouter:
    """Routes one host's generated flows to local or remote hosts.

    Created *before* the packets' simulator (it is the source's sink),
    then :meth:`bind`-ed to it.  All randomness (flow destinations,
    fabric steering) comes from the host's own RNG registry, so routing
    is a pure function of the host's derived seed.
    """

    __slots__ = ("host_id", "n_hosts", "pattern", "incast_target",
                 "steering", "sim", "factory", "_route_rng",
                 "_dst_by_tuple", "outgoing", "_env_seq", "generated",
                 "local", "sent", "by_spine")

    def __init__(self, host_id: int, n_hosts: int, pattern: str,
                 incast_target: int, fabric_config) -> None:
        self.host_id = host_id
        self.n_hosts = n_hosts
        self.pattern = pattern
        self.incast_target = incast_target
        #: Spine/delay/loss decisions for remote packets.
        self.steering = FabricSteering(fabric_config)
        self.sim = None
        self.factory = None
        self._route_rng = None
        self._dst_by_tuple: Dict = {}
        #: Rows by destination host (this host: local rows), in
        #: emission order.
        self.outgoing: Dict[int, List[Tuple]] = {}
        self._env_seq = 0
        self.generated = 0
        self.local = 0
        self.sent: Dict[int, int] = {}
        self.by_spine: Dict[int, int] = self.steering.by_spine

    def bind(self, sim, factory, rngs) -> None:
        """Attach the simulator, packet factory and RNG registry."""
        self.sim = sim
        self.factory = factory
        self._route_rng = rngs.stream("cluster.route")
        self.steering.rng = rngs.stream("cluster.fabric")

    def __call__(self, pkt) -> None:
        """The traffic source's sink: write ``pkt`` down as a row."""
        self.generated += 1
        ft = pkt.ftuple
        dst = self._dst_by_tuple.get(ft)
        if dst is None:
            dst = self._assign_dst()
            self._dst_by_tuple[ft] = dst
        now = self.sim._now
        if dst == self.host_id:
            self.local += 1
            # env_seq: the envelopes sent before this local emission,
            # which its replay needs to allocate the same pid.
            row = encode_envelope(pkt, dst, dst, self._env_seq, now, now,
                                  -1, False)
        else:
            spine, delay, lost = self.steering.transit(
                self.host_id, pkt.flow_id, now
            )
            row = encode_envelope(pkt, self.host_id, dst, self._env_seq,
                                  now, now + delay, spine, lost)
            self._env_seq += 1
            self.sent[dst] = self.sent.get(dst, 0) + 1
        out = self.outgoing.get(dst)
        if out is None:
            self.outgoing[dst] = [row]
        else:
            out.append(row)
        # The row carries everything, so the packet can feed the pool.
        self.factory.recycle(pkt)

    def _assign_dst(self) -> int:
        if self.pattern == "incast":
            # Non-target hosts converge on the target; the target's own
            # traffic stays local (it is the server, not a client).
            return self.incast_target
        return int(self._route_rng.integers(self.n_hosts))

    def stats(self) -> Dict:
        """JSON-friendly phase-1 counters: generated, local, sent and
        steered per spine."""
        return {
            "generated": self.generated,
            "local": self.local,
            "sent": _str_keys(self.sent),
            "by_spine": {str(k): v for k, v
                         in sorted(self.by_spine.items()) if v},
        }


def _str_keys(counts: Dict[int, int]) -> Dict[str, int]:
    return {str(k): v for k, v in sorted(counts.items())}


def host_router_stats(phase1: Dict, ingress) -> Dict:
    """A host's ``router`` payload: its phase-1 :meth:`ClusterRouter.stats`
    with ``local`` and the per-source ``received``/``fabric_dropped``
    counts of its phase-2
    :class:`~repro.dataplane.boundary.IngressReplay`."""
    return {
        "generated": phase1["generated"],
        "local": ingress.local,
        "sent": phase1["sent"],
        "received": _str_keys(ingress.received),
        "fabric_dropped": _str_keys(ingress.fabric_dropped),
        "by_spine": phase1["by_spine"],
    }
