"""Per-host cluster router: the seam between source, fabric and host.

In a cluster run each host's traffic source no longer feeds the host's
NIC directly -- it feeds this router.  The router assigns every
**flow** a destination host per the cluster pattern, then either
delivers the packet into its own host (local flow) or sends it across
the fabric.  It runs once in each of the engine's two phases (see
:mod:`repro.cluster.engine`):

* **phase 1** (built with a fabric config): the source runs alone, and
  every remote packet is steered (:class:`~repro.net.fabric.FabricSteering`
  picks spine, delay and loss) and encoded as a schema-versioned
  envelope in :attr:`ClusterRouter.outgoing`;
* **phase 2** (built without one): the full host runs, local packets
  enter its data plane, remote packets are discarded -- their envelopes
  exist already -- and the envelopes addressed to this host arrive
  through :meth:`ClusterRouter.inject`.

Both phases draw destinations from the host's ``cluster.route`` stream
in the same order, so they agree on every packet's destination.
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

    Created *before* the packets' simulator (it is the source's sink),
    then :meth:`bind`-ed to it.  All randomness (flow destinations,
    fabric steering) comes from the host's own RNG registry, so routing
    is a pure function of the host's derived seed.
    """

    __slots__ = ("host_id", "n_hosts", "pattern", "incast_target",
                 "steering", "sim", "factory", "local_sink", "_route_rng",
                 "_dst_by_tuple", "outgoing", "_env_seq", "generated",
                 "local", "sent", "received", "fabric_dropped", "by_spine")

    def __init__(self, host_id: int, n_hosts: int, pattern: str,
                 incast_target: int, fabric_config=None) -> None:
        self.host_id = host_id
        self.n_hosts = n_hosts
        self.pattern = pattern
        self.incast_target = incast_target
        #: Phase 1 only: spine/delay/loss decisions for remote packets.
        self.steering = (FabricSteering(fabric_config)
                         if fabric_config is not None else None)
        self.sim = None
        self.factory = None
        self.local_sink = None
        self._route_rng = None
        self._dst_by_tuple: Dict = {}
        #: Phase 1: envelopes by destination host, in emission order.
        self.outgoing: Dict[int, List[Tuple]] = {}
        self._env_seq = 0
        self.generated = 0
        self.local = 0
        self.sent: Dict[int, int] = {}
        self.received: Dict[int, int] = {}
        self.fabric_dropped: Dict[int, int] = {}
        self.by_spine: Dict[int, int] = (self.steering.by_spine
                                         if self.steering is not None
                                         else {})

    def bind(self, sim, factory, rngs, local_sink) -> None:
        """Attach the simulator, packet factory, RNG registry and the
        callable that takes local packets."""
        self.sim = sim
        self.factory = factory
        self.local_sink = local_sink
        self._route_rng = rngs.stream("cluster.route")
        if self.steering is not None:
            self.steering.rng = rngs.stream("cluster.fabric")

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
        if self.steering is not None:
            now = self.sim._now
            spine, delay, lost = self.steering.transit(
                self.host_id, pkt.flow_id, now
            )
            env = encode_envelope(pkt, self.host_id, dst, self._env_seq,
                                  now, now + delay, spine, lost)
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
    # Ingress: envelopes addressed to this host, injected at barriers
    # ------------------------------------------------------------------
    def inject(self, envs: List[Tuple]) -> None:
        """Queue one barrier's incoming envelopes for arrival.

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
                         in sorted(self.by_spine.items()) if v},
        }
