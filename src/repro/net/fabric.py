"""Rack fabric: the multipath network *between* virtualized hosts.

:class:`repro.net.topology.FabricModel` models the fabric as one latency
distribution in front of a single host; this module models it as a
**topology** -- ``n_spines`` parallel spine paths between every host
pair, each with its own latency -- plus the steering policy that picks a
spine per packet (ECMP flow hashing or flowlet switching).  Fabric
multipath composes with the intra-host ("last-mile") multipath data
plane: a packet crosses *two* independent multipath layers before it is
delivered, which is exactly the rack-scale setting of the source paper's
datacenter context (see docs/CLUSTER.md).

The latency model is deliberately bounded below::

    delay = base_latency + spine * spine_skew + jitter      (jitter >= 0)

so ``base_latency`` is a hard minimum wire latency between any two
hosts.  That bound is load-bearing: the sharded cluster engine uses it
as the **conservative lookahead** of its epoch synchronization protocol
(a cross-host packet sent at time ``t`` can never arrive before
``t + base_latency``, so shards simulating ``[T, T + base_latency)``
independently can never miss an incoming event).

Determinism: spine choice, jitter, and loss draws for packets leaving a
host all come from that host's own named RNG stream, so a host's fabric
behaviour is a pure function of (cluster seed, host id) -- never of how
hosts are packed onto workers.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

#: Steering policies the fabric understands.
STEERING_KINDS = ("ecmp", "flowlet")


def _mix64(*parts: int) -> int:
    """Deterministic integer hash (splitmix64 finalizer over the parts).

    Used for ECMP flow hashing: stable across processes and platforms
    (unlike ``hash()``, whose value for str/bytes is salted per process).
    """
    h = 0x9E3779B97F4A7C15
    for p in parts:
        h = (h ^ (p & 0xFFFFFFFFFFFFFFFF)) * 0xBF58476D1CE4E5B9 % (1 << 64)
        h = (h ^ (h >> 27)) * 0x94D049BB133111EB % (1 << 64)
        h ^= h >> 31
    return h


@dataclass
class FabricConfig:
    """Topology + steering policy of the inter-host fabric.

    Attributes
    ----------
    n_spines:
        Parallel spine paths between every host pair (ECMP width).
    base_latency:
        Minimum one-way host-to-host latency (µs).  This is the cluster
        engine's conservative lookahead; every spine delay is >= it.
    spine_skew:
        Extra deterministic latency per spine index (µs): spine ``s``
        costs ``base_latency + s * spine_skew``.  Nonzero skew makes the
        spine choice visible in the tail.
    jitter_scale / jitter_sigma:
        Additive lognormal in-fabric jitter: each packet adds
        ``jitter_scale * lognormal(0, jitter_sigma)`` µs (0 disables).
        Additive-only, so the ``base_latency`` lower bound holds.
    steering:
        ``"ecmp"`` (per-flow hash, sticky) or ``"flowlet"`` (re-pick a
        spine when a flow pauses longer than ``flowlet_gap``).
    flowlet_gap:
        Idle gap (µs) after which a flowlet boundary lets the flow
        switch spines.
    loss_prob:
        Per-packet in-fabric drop probability.  Lost packets are still
        *sent* as envelopes and accounted as fabric drops at the
        receiver, so cross-shard conservation stays exactly checkable.
    """

    n_spines: int = 4
    base_latency: float = 50.0
    spine_skew: float = 0.0
    jitter_scale: float = 0.0
    jitter_sigma: float = 0.5
    steering: str = "ecmp"
    flowlet_gap: float = 100.0
    loss_prob: float = 0.0

    # -- contract ------------------------------------------------------
    def min_latency(self) -> float:
        """The conservative lookahead: no envelope arrives sooner."""
        return self.base_latency

    def validate(self) -> "FabricConfig":
        """Check every field, raising ``ValueError`` with an actionable
        message on the first problem.  Returns ``self`` for chaining."""
        if self.n_spines < 1:
            raise ValueError(f"n_spines must be >= 1, got {self.n_spines}")
        if self.base_latency <= 0:
            raise ValueError(
                f"base_latency must be positive (µs): it is the cluster "
                f"lookahead, got {self.base_latency}"
            )
        if self.spine_skew < 0:
            raise ValueError(f"spine_skew must be >= 0, got {self.spine_skew}")
        if self.jitter_scale < 0 or self.jitter_sigma < 0:
            raise ValueError(
                f"jitter_scale/jitter_sigma must be >= 0, got "
                f"{self.jitter_scale}/{self.jitter_sigma}"
            )
        if self.steering not in STEERING_KINDS:
            raise ValueError(
                f"unknown steering {self.steering!r}; "
                f"available: {', '.join(STEERING_KINDS)}"
            )
        if self.flowlet_gap <= 0:
            raise ValueError(
                f"flowlet_gap must be positive (µs), got {self.flowlet_gap}"
            )
        if not 0.0 <= self.loss_prob < 1.0:
            raise ValueError(
                f"loss_prob must be in [0, 1), got {self.loss_prob}"
            )
        return self

    # -- serialization -------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-friendly representation (inverse of :meth:`from_dict`)."""
        from repro import schemas

        out = {"schema_version": schemas.version_for("fabric_config")}
        out.update({f.name: getattr(self, f.name)
                    for f in dataclasses.fields(self)})
        return out

    @classmethod
    def from_dict(cls, data: Dict) -> "FabricConfig":
        """Build a config from :meth:`to_dict`-shaped (JSON) data."""
        kw = dict(data)
        kw.pop("schema_version", None)
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(kw) - names
        if unknown:
            raise ValueError(
                f"unknown FabricConfig field(s) {sorted(unknown)}; "
                f"valid fields: {sorted(names)}"
            )
        return cls(**kw)


class FabricSteering:
    """Per-source-host steering state: spine choice + delay + loss draws.

    One instance lives inside each host's cluster router.  All
    randomness comes from the host's own ``cluster.fabric`` stream, so
    the envelopes a host emits are independent of shard placement.
    """

    __slots__ = ("config", "rng", "_flowlets", "_ecmp", "by_spine",
                 "_jitter", "_ji")

    def __init__(self, config: FabricConfig,
                 rng: Optional[np.random.Generator] = None) -> None:
        self.config = config
        self.rng = rng
        #: flow key -> [spine, last_send_time] (flowlet switching only).
        self._flowlets: Dict[Tuple, list] = {}
        #: flow key -> ECMP spine: the hash is sticky per flow, so it is
        #: computed once per flow instead of once per packet.
        self._ecmp: Dict[Tuple, int] = {}
        #: spine index -> packets steered (diagnostics / C1 table).
        self.by_spine: Dict[int, int] = {s: 0 for s in range(config.n_spines)}
        self._jitter = np.empty(0)
        self._ji = 0

    def transit(self, src_host: int, flow_id: int, now: float
                ) -> Tuple[int, float, bool]:
        """Steer one packet: returns ``(spine, delay_us, lost)``.

        ``delay_us >= config.base_latency`` always (the lookahead
        contract); ``lost`` marks an in-fabric drop the receiver must
        account for.
        """
        cfg = self.config
        if cfg.steering == "flowlet":
            key = (src_host, flow_id)
            state = self._flowlets.get(key)
            if state is None or now - state[1] > cfg.flowlet_gap:
                spine = int(self.rng.integers(cfg.n_spines))
                self._flowlets[key] = [spine, now]
                state = self._flowlets[key]
            else:
                spine = state[0]
            state[1] = now
        else:  # ecmp: sticky per-flow hash
            key = (src_host, flow_id)
            spine = self._ecmp.get(key)
            if spine is None:
                spine = _mix64(src_host, flow_id) % cfg.n_spines
                self._ecmp[key] = spine
        delay = cfg.base_latency + spine * cfg.spine_skew
        if cfg.jitter_scale > 0:
            if self._ji >= len(self._jitter):
                self._jitter = self.rng.lognormal(0.0, cfg.jitter_sigma, 512)
                self._ji = 0
            delay += cfg.jitter_scale * float(self._jitter[self._ji])
            self._ji += 1
        lost = bool(cfg.loss_prob > 0.0
                    and self.rng.random() < cfg.loss_prob)
        self.by_spine[spine] += 1
        return spine, delay, lost
