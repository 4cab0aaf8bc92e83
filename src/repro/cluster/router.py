"""Per-host cluster router: the seam between source, fabric and host.

In a cluster run each host's traffic source no longer feeds the host's
NIC directly -- it feeds this router (via the ``sink`` override of
:func:`repro.bench.scenarios.build_runtime`).  The router assigns every
**flow** a destination host per the cluster pattern, then either

* delivers the packet into its own host's data plane (local flow), or
* steers it across the fabric (:class:`~repro.net.fabric.FabricSteering`
  picks spine, delay and loss) and emits a schema-versioned envelope
  that the shard engine forwards at the next epoch barrier.

Destination assignment is per-flow, not per-packet: a flow's packets
all land on one host, so per-flow sequence numbers stay gap-free and
the destination's reorder buffer sees a normal flow.

Conservation across the shard boundary is exact and testable: for every
host pair ``(i, j)``, ``sent_i[j] == received_j[i] +
fabric_dropped_j[i]`` -- lost packets still travel as envelopes flagged
``dropped`` and are *accounted* (never delivered) at the receiver, so
no packet can silently vanish between shards (see
:func:`repro.check.cluster.check_cluster_conservation`).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..dataplane.boundary import (
    ARRIVE_IDX,
    DROPPED_IDX,
    SRC_IDX,
    decode_envelope,
    encode_envelope,
)
from ..net.fabric import FabricSteering


class ClusterRouter:
    """Routes one host's generated flows to local or remote hosts.

    Created *before* the host runtime (it is the source's sink), then
    :meth:`bind`-ed to the built runtime.  All randomness (flow
    destinations, fabric steering) comes from the bound host's own RNG
    registry, so routing is a pure function of the host's derived seed.
    """

    __slots__ = ("host_id", "n_hosts", "pattern", "incast_target",
                 "steering", "sim", "factory", "local_sink", "_route_rng",
                 "_dst_by_tuple", "outgoing", "_env_seq",
                 "generated", "local", "sent", "received", "fabric_dropped")

    def __init__(self, host_id: int, n_hosts: int, pattern: str,
                 incast_target: int, fabric_config) -> None:
        self.host_id = host_id
        self.n_hosts = n_hosts
        self.pattern = pattern
        self.incast_target = incast_target
        self.steering = FabricSteering(fabric_config)
        self.sim = None
        self.factory = None
        self.local_sink = None
        self._route_rng = None
        self._dst_by_tuple: Dict = {}
        #: Envelopes emitted this epoch by destination host, in emission
        #: order; the shard swaps in a fresh dict at each barrier.
        self.outgoing: Dict[int, List[Tuple]] = {}
        self._env_seq = 0
        self.generated = 0
        self.local = 0
        self.sent: Dict[int, int] = {}
        self.received: Dict[int, int] = {}
        self.fabric_dropped: Dict[int, int] = {}

    def bind(self, runtime) -> None:
        """Attach the built host runtime (simulator, factory, ingress)."""
        self.sim = runtime.sim
        self.factory = runtime.host.factory
        self.local_sink = runtime.host.input
        self._route_rng = runtime.rngs.stream("cluster.route")
        self.steering.rng = runtime.rngs.stream("cluster.fabric")

    # ------------------------------------------------------------------
    # Egress: the traffic source's sink
    # ------------------------------------------------------------------
    def __call__(self, pkt) -> None:
        self.generated += 1
        ft = pkt.ftuple
        dst = self._dst_by_tuple.get(ft)
        if dst is None:
            dst = self._assign_dst()
            self._dst_by_tuple[ft] = dst
        if dst == self.host_id:
            self.local += 1
            self.local_sink(pkt)
            return
        now = self.sim._now
        _spine, delay, lost = self.steering.transit(
            self.host_id, pkt.flow_id, now
        )
        env = encode_envelope(pkt, self.host_id, dst, self._env_seq,
                              now, now + delay, _spine, lost)
        self._env_seq += 1
        self.sent[dst] = self.sent.get(dst, 0) + 1
        out = self.outgoing.get(dst)
        if out is None:
            self.outgoing[dst] = [env]
        else:
            out.append(env)
        # The packet object never leaves this process; the envelope
        # carries everything, so the carcass can feed the local pool.
        self.factory.recycle(pkt)

    def _assign_dst(self) -> int:
        if self.pattern == "incast":
            # Non-target hosts converge on the target; the target's own
            # traffic stays local (it is the server, not a client).
            return self.incast_target
        return int(self._route_rng.integers(self.n_hosts))

    # ------------------------------------------------------------------
    # Ingress: envelopes forwarded by the shard engine at barriers
    # ------------------------------------------------------------------
    def inject(self, envs: List[Tuple]) -> None:
        """Queue this barrier's incoming envelopes for arrival.

        ``envs`` must be in canonical ``(arrive_time, src_host,
        env_seq)`` order.  Goes through
        :meth:`Simulator.external_events`, which enforces the lookahead
        contract (arrival at or after the current epoch floor) once,
        against the earliest arrival.
        """
        self.sim.external_events(self._arrive, envs, ARRIVE_IDX)

    def _arrive(self, env: Tuple) -> None:
        src = env[SRC_IDX]
        if env[DROPPED_IDX]:
            self.fabric_dropped[src] = self.fabric_dropped.get(src, 0) + 1
            return
        self.received[src] = self.received.get(src, 0) + 1
        self.local_sink(decode_envelope(env, self.factory))

    # ------------------------------------------------------------------
    def stats(self) -> Dict:
        """JSON-friendly routing/conservation counters for this host."""
        return {
            "generated": self.generated,
            "local": self.local,
            "sent": {str(k): v for k, v in sorted(self.sent.items())},
            "received": {str(k): v
                         for k, v in sorted(self.received.items())},
            "fabric_dropped": {str(k): v for k, v
                               in sorted(self.fabric_dropped.items())},
            "by_spine": {str(k): v for k, v
                         in sorted(self.steering.by_spine.items()) if v},
        }
