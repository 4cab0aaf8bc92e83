"""Per-host cluster router: the seam between source and fabric.

In a cluster run each host's traffic source does not feed the host's
NIC directly -- in the engine's first phase (see
:mod:`repro.cluster.engine`) its arrival columns go to this router,
with no simulator and no data plane.  The router assigns every **flow**
a destination host per the cluster pattern and writes each chunk of
packets down as envelope rows, by destination:

* a **local** packet (destination is its own host) becomes a local row,
  ``dst_host == src_host`` and ``arrive_time == send_time``, which the
  host's phase-2 replay feeds back to its NIC at emission time;
* a **remote** packet is steered (:class:`~repro.net.fabric.FabricSteering`
  picks spine, delay and loss) and becomes a schema-versioned envelope
  for its destination.

Routing is columnar: destinations are drawn per new flow in first-seen
order, the ECMP spine is computed once per flow, and jitter and loss
draws keep their per-packet order on the host's ``cluster.fabric``
stream.  Phase 2 never runs a router: each host replays one merged
stream of its local rows and the envelopes addressed to it
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

from typing import Dict

import numpy as np

from ..dataplane.boundary import ENVELOPE_DTYPE
from ..net.fabric import FabricSteering


class ClusterRouter:
    """Routes one host's generated columns to local or remote hosts.

    ``source`` is the host's open-loop traffic source (its pseudo-flow
    ids, ports and priority label the rows).  All randomness (flow
    destinations, fabric steering) comes from the host's own RNG
    registry ``rngs``, so routing is a pure function of the host's
    derived seed.
    """

    __slots__ = ("host_id", "n_hosts", "pattern", "incast_target",
                 "steering", "priority", "_route_rng", "_dst", "_flow_id",
                 "_sport", "_dport", "_env_seq", "generated", "local",
                 "sent", "by_spine")

    def __init__(self, host_id: int, n_hosts: int, pattern: str,
                 incast_target: int, fabric_config, source, rngs) -> None:
        self.host_id = host_id
        self.n_hosts = n_hosts
        self.pattern = pattern
        self.incast_target = incast_target
        #: Spine/delay/loss decisions for remote packets.
        self.steering = FabricSteering(fabric_config,
                                       rngs.stream("cluster.fabric"))
        self._route_rng = rngs.stream("cluster.route")
        self.priority = source.priority
        n = source.n_flows
        self._flow_id = np.array([fid for _, fid in source.flows])
        self._sport = np.array([ft.sport for ft, _ in source.flows])
        self._dport = np.array([ft.dport for ft, _ in source.flows])
        #: Destination host per pseudo-flow, -1 until its first packet.
        self._dst = np.full(n, -1, dtype=np.int64)
        self._env_seq = 0
        self.generated = 0
        self.local = 0
        self.sent: Dict[int, int] = {}
        self.by_spine: Dict[int, int] = self.steering.by_spine

    def route(self, times: np.ndarray, flows: np.ndarray, seqs: np.ndarray,
              sizes) -> Dict[int, np.ndarray]:
        """Write one chunk of emissions (a source's
        :meth:`~repro.net.traffic._ColumnSource.chunks`) down as rows;
        returns them by destination host (this host: local rows), each
        in emission order."""
        n = len(times)
        hid = self.host_id
        self.generated += n
        dst = self._dst
        new = dst[flows] < 0
        if new.any():
            seen, first = np.unique(flows[new], return_index=True)
            for f in seen[np.argsort(first)].tolist():
                dst[f] = self._assign_dst()
        dst = dst[flows]
        remote = dst != hid
        rows = np.empty(n, dtype=ENVELOPE_DTYPE)
        # A local row carries the envelopes its host sent before it,
        # which its replay needs to allocate the same pid.
        rows["env_seq"] = self._env_seq + np.cumsum(remote) - remote
        rows["src_host"] = hid
        rows["dst_host"] = dst
        rows["flow_id"] = self._flow_id[flows]
        rows["seq"] = seqs
        rows["size"] = sizes
        rows["priority"] = self.priority
        rows["sport"] = self._sport[flows]
        rows["dport"] = self._dport[flows]
        rows["t_created"] = rows["send_time"] = rows["arrive_time"] = times
        rows["spine"] = -1
        rows["dropped"] = False
        out = np.flatnonzero(remote)
        if len(out):
            spine, delay, lost = self.steering.transit_columns(
                hid, rows["flow_id"][out], times[out])
            rows["arrive_time"][out] = times[out] + delay
            rows["spine"][out] = spine
            rows["dropped"][out] = lost
        self._env_seq += len(out)
        self.local += n - len(out)
        by_dst = {}
        for d in np.unique(dst).tolist():
            by_dst[d] = rows[dst == d]
            if d != hid:
                self.sent[d] = self.sent.get(d, 0) + len(by_dst[d])
        return by_dst

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
