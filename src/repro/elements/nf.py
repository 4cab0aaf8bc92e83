"""The network-function library.

Each NF is an :class:`~repro.elements.base.Element` with a cost model
calibrated to published software-data-plane numbers (order 0.1--0.5 µs
per packet per element on a DPDK-class core; DPI and flow-setup slow
paths cost several µs).  Stateful NFs (NAT, load balancer, monitor) keep
real state so the tests can assert functional behaviour, not just cost.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.elements.base import Chain, Element, StatelessElement
from repro.elements.sketch import CountMinSketch
from repro.net.packet import FiveTuple, Packet

_WILDCARD = -1

#: Distinct five-tuples a flow monitor holds before folding its sketch.
_SKETCH_PENDING_MAX = 1024


@dataclass(frozen=True)
class AclRule:
    """One firewall rule; ``-1`` fields are wildcards.

    ``action`` is ``"allow"`` or ``"deny"``.
    """

    src: int = _WILDCARD
    dst: int = _WILDCARD
    sport: int = _WILDCARD
    dport: int = _WILDCARD
    proto: int = _WILDCARD
    action: str = "allow"

    def matches(self, ft: FiveTuple) -> bool:
        return (
            (self.src == _WILDCARD or self.src == ft.src)
            and (self.dst == _WILDCARD or self.dst == ft.dst)
            and (self.sport == _WILDCARD or self.sport == ft.sport)
            and (self.dport == _WILDCARD or self.dport == ft.dport)
            and (self.proto == _WILDCARD or self.proto == ft.proto)
        )


class Classifier(StatelessElement):
    """Tags packets with a traffic class stored in ``packet.meta``.

    Rules are ``(AclRule-style predicate, class_label)`` pairs evaluated
    first-match; unmatched packets get ``default_class``.
    """

    def __init__(
        self,
        name: str = "classifier",
        rules: Optional[Sequence[Tuple[AclRule, str]]] = None,
        default_class: str = "best-effort",
        base_cost: float = 0.15,
        per_rule: float = 0.01,
        **kw,
    ) -> None:
        super().__init__(name, base_cost=base_cost, **kw)
        self.rules: List[Tuple[AclRule, str]] = list(rules or [])
        self.default_class = default_class
        self.per_rule = per_rule

    def process(self, packet: Packet, now: float) -> float:
        self.processed += 1
        cost = self.base_cost + self.per_byte * packet.size
        if self.jitter_sigma > 0.0:
            cost = self._jittered(cost)
        label = self.default_class
        rules = self.rules
        if rules:
            per_rule = self.per_rule
            ft = packet.ftuple
            for rule, cls in rules:
                cost += per_rule
                # Inlined AclRule.matches (the per-packet hot path).
                if (
                    (rule.src == _WILDCARD or rule.src == ft.src)
                    and (rule.dst == _WILDCARD or rule.dst == ft.dst)
                    and (rule.sport == _WILDCARD or rule.sport == ft.sport)
                    and (rule.dport == _WILDCARD or rule.dport == ft.dport)
                    and (rule.proto == _WILDCARD or rule.proto == ft.proto)
                ):
                    label = cls
                    break
        packet.meta = label
        return cost

    def clone(self, suffix: str) -> "Classifier":
        return Classifier(
            f"{self.name}{suffix}",
            rules=self.rules,
            default_class=self.default_class,
            base_cost=self.base_cost,
            per_rule=self.per_rule,
            jitter_sigma=self.jitter_sigma,
            rng=self.rng,
        )


class AclFirewall(StatelessElement):
    """First-match ACL firewall with linear rule scan cost."""

    def __init__(
        self,
        name: str = "firewall",
        rules: Optional[Sequence[AclRule]] = None,
        default_action: str = "allow",
        base_cost: float = 0.15,
        per_rule: float = 0.008,
        **kw,
    ) -> None:
        super().__init__(name, base_cost=base_cost, **kw)
        self.rules: List[AclRule] = list(rules or [])
        self.default_action = default_action
        self.per_rule = per_rule

    def process(self, packet: Packet, now: float) -> float:
        self.processed += 1
        cost = self.base_cost + self.per_byte * packet.size
        if self.jitter_sigma > 0.0:
            cost = self._jittered(cost)
        action = self.default_action
        rules = self.rules
        if rules:
            per_rule = self.per_rule
            ft = packet.ftuple
            for rule in rules:
                cost += per_rule
                # Inlined AclRule.matches (the per-packet hot path).
                if (
                    (rule.src == _WILDCARD or rule.src == ft.src)
                    and (rule.dst == _WILDCARD or rule.dst == ft.dst)
                    and (rule.sport == _WILDCARD or rule.sport == ft.sport)
                    and (rule.dport == _WILDCARD or rule.dport == ft.dport)
                    and (rule.proto == _WILDCARD or rule.proto == ft.proto)
                ):
                    action = rule.action
                    break
        if action == "deny":
            self.drop(packet, "acl-deny")
        return cost

    def clone(self, suffix: str) -> "AclFirewall":
        return AclFirewall(
            f"{self.name}{suffix}",
            rules=self.rules,
            default_action=self.default_action,
            base_cost=self.base_cost,
            per_rule=self.per_rule,
            jitter_sigma=self.jitter_sigma,
            rng=self.rng,
        )


class Nat(Element):
    """Source NAT with a per-flow translation table.

    First packet of a flow takes the slow path (allocate a port, install
    the mapping, ``miss_cost``); subsequent packets hit the table at
    ``base_cost``.  The translation rewrites ``src`` and ``sport``.
    """

    stateful = True

    def __init__(
        self,
        name: str = "nat",
        public_ip: int = 9999,
        port_base: int = 20_000,
        base_cost: float = 0.18,
        miss_cost: float = 1.5,
        max_entries: int = 1_000_000,
        **kw,
    ) -> None:
        super().__init__(name, base_cost=base_cost, **kw)
        self.public_ip = public_ip
        self.port_base = port_base
        self.miss_cost = miss_cost
        self.max_entries = max_entries
        self.table: Dict[FiveTuple, FiveTuple] = {}
        self._next_port = port_base
        self.misses = 0

    def process(self, packet: Packet, now: float) -> float:
        self.processed += 1
        cost = self.base_cost + self.per_byte * packet.size
        if self.jitter_sigma > 0.0:
            cost = self._jittered(cost)
        mapped = self.table.get(packet.ftuple)
        if mapped is None:
            self.misses += 1
            cost += self.miss_cost
            if len(self.table) >= self.max_entries:
                self.drop(packet, "nat-table-full")
                return cost
            mapped = FiveTuple(
                self.public_ip,
                packet.ftuple.dst,
                self._next_port,
                packet.ftuple.dport,
                packet.ftuple.proto,
            )
            self._next_port += 1
            self.table[packet.ftuple] = mapped
        packet.ftuple = mapped
        return cost

    def clone(self, suffix: str) -> "Nat":
        return Nat(
            f"{self.name}{suffix}",
            public_ip=self.public_ip,
            port_base=self.port_base,
            base_cost=self.base_cost,
            miss_cost=self.miss_cost,
            max_entries=self.max_entries,
            jitter_sigma=self.jitter_sigma,
            rng=self.rng,
        )


class RateLimiter(Element):
    """Token-bucket policer: drops packets exceeding ``rate_bps``.

    The bucket refills lazily from the simulation clock, so no periodic
    refill events are needed.
    """

    stateful = True

    def __init__(
        self,
        name: str = "ratelimiter",
        rate_bps: float = 40e9,
        burst_bytes: float = 512 * 1024,
        base_cost: float = 0.12,
        **kw,
    ) -> None:
        super().__init__(name, base_cost=base_cost, **kw)
        if rate_bps <= 0 or burst_bytes <= 0:
            raise ValueError("rate and burst must be positive")
        self.rate_Bpu = rate_bps / 8.0 / 1e6  # bytes per µs
        self.burst = float(burst_bytes)
        self._tokens = float(burst_bytes)
        self._t_last = 0.0

    def process(self, packet: Packet, now: float) -> float:
        self.processed += 1
        cost = self.cost_of(packet)
        # Lazy refill.
        self._tokens = min(self.burst, self._tokens + (now - self._t_last) * self.rate_Bpu)
        self._t_last = now
        if packet.size <= self._tokens:
            self._tokens -= packet.size
        else:
            self.drop(packet, "rate-exceeded")
        return cost

    def clone(self, suffix: str) -> "RateLimiter":
        return RateLimiter(
            f"{self.name}{suffix}",
            rate_bps=self.rate_Bpu * 8.0 * 1e6,
            burst_bytes=self.burst,
            base_cost=self.base_cost,
            jitter_sigma=self.jitter_sigma,
            rng=self.rng,
        )


class FlowMonitor(Element):
    """Per-flow byte/packet accounting over a count-min sketch."""

    stateful = True

    def __init__(
        self,
        name: str = "monitor",
        sketch_width: int = 2048,
        sketch_depth: int = 4,
        base_cost: float = 0.16,
        **kw,
    ) -> None:
        super().__init__(name, base_cost=base_cost, **kw)
        self._sketch = CountMinSketch(sketch_width, sketch_depth)
        #: Bytes per five-tuple not yet folded into the sketch; integer
        #: counter adds commute, so folding late is exact.
        self._pending: Dict[FiveTuple, int] = defaultdict(int)
        self.sketch_width = sketch_width
        self.sketch_depth = sketch_depth

    @property
    def sketch(self) -> CountMinSketch:
        """The count-min sketch, every packet so far folded in."""
        self._fold()
        return self._sketch

    def _fold(self) -> None:
        self._sketch.add_many(self._pending.keys(), self._pending.values())
        self._pending.clear()

    def process(self, packet: Packet, now: float) -> float:
        self.processed += 1
        size = packet.size
        pending = self._pending
        pending[packet.ftuple] += size
        if len(pending) >= _SKETCH_PENDING_MAX:
            self._fold()
        cost = self.base_cost + self.per_byte * size
        if self.jitter_sigma > 0.0:
            return self._jittered(cost)
        return cost

    def estimate_bytes(self, ftuple: FiveTuple) -> int:
        """Estimated byte count observed for ``ftuple``."""
        return self.sketch.estimate(ftuple)

    def clone(self, suffix: str) -> "FlowMonitor":
        return FlowMonitor(
            f"{self.name}{suffix}",
            sketch_width=self.sketch_width,
            sketch_depth=self.sketch_depth,
            base_cost=self.base_cost,
            jitter_sigma=self.jitter_sigma,
            rng=self.rng,
        )


class LoadBalancer(Element):
    """L4 load balancer: VIP -> backend with per-connection affinity."""

    stateful = True

    def __init__(
        self,
        name: str = "lb",
        backends: Sequence[int] = (101, 102, 103, 104),
        base_cost: float = 0.2,
        miss_cost: float = 0.8,
        **kw,
    ) -> None:
        super().__init__(name, base_cost=base_cost, **kw)
        if not backends:
            raise ValueError("need at least one backend")
        self.backends = list(backends)
        self.miss_cost = miss_cost
        self.conn_table: Dict[FiveTuple, int] = {}
        self.per_backend = {b: 0 for b in self.backends}

    def process(self, packet: Packet, now: float) -> float:
        self.processed += 1
        cost = self.cost_of(packet)
        backend = self.conn_table.get(packet.ftuple)
        if backend is None:
            cost += self.miss_cost
            backend = self.backends[hash(packet.ftuple) % len(self.backends)]
            self.conn_table[packet.ftuple] = backend
        self.per_backend[backend] += 1
        packet.ftuple = packet.ftuple._replace(dst=backend)
        return cost

    def clone(self, suffix: str) -> "LoadBalancer":
        return LoadBalancer(
            f"{self.name}{suffix}",
            backends=self.backends,
            base_cost=self.base_cost,
            miss_cost=self.miss_cost,
            jitter_sigma=self.jitter_sigma,
            rng=self.rng,
        )


class Dpi(StatelessElement):
    """Deep packet inspection: cost scales with payload bytes.

    A fraction ``deep_scan_prob`` of packets trip the expensive pattern
    matcher (multiplier ``deep_scan_factor``), producing the long-tailed
    per-element service times DPI is known for.
    """

    def __init__(
        self,
        name: str = "dpi",
        base_cost: float = 0.25,
        per_byte: float = 0.0004,
        deep_scan_prob: float = 0.02,
        deep_scan_factor: float = 8.0,
        rng: Optional[np.random.Generator] = None,
        **kw,
    ) -> None:
        super().__init__(name, base_cost=base_cost, per_byte=per_byte, rng=rng, **kw)
        if deep_scan_prob > 0 and rng is None:
            raise ValueError("deep_scan_prob > 0 requires an rng")
        self.deep_scan_prob = deep_scan_prob
        self.deep_scan_factor = deep_scan_factor
        self.deep_scans = 0
        self._draws: np.ndarray = np.empty(0)
        self._draw_i = 0

    def process(self, packet: Packet, now: float) -> float:
        self.processed += 1
        cost = self.base_cost + self.per_byte * packet.size
        if self.jitter_sigma > 0.0:
            cost = self._jittered(cost)
        if self.deep_scan_prob > 0.0:
            if self._draw_i >= len(self._draws):
                self._draws = self.rng.random(2048)
                self._draw_i = 0
            if self._draws[self._draw_i] < self.deep_scan_prob:
                cost *= self.deep_scan_factor
                self.deep_scans += 1
            self._draw_i += 1
        return cost

    def clone(self, suffix: str) -> "Dpi":
        return Dpi(
            f"{self.name}{suffix}",
            base_cost=self.base_cost,
            per_byte=self.per_byte,
            deep_scan_prob=self.deep_scan_prob,
            deep_scan_factor=self.deep_scan_factor,
            rng=self.rng,
            jitter_sigma=self.jitter_sigma,
        )


#: VXLAN outer header bytes added by encap.
VXLAN_OVERHEAD = 50


class VxlanEncap(StatelessElement):
    """Adds VXLAN overhead bytes and a fixed encapsulation cost."""

    def __init__(self, name: str = "vxlan-encap", base_cost: float = 0.15, **kw) -> None:
        super().__init__(name, base_cost=base_cost, **kw)

    def process(self, packet: Packet, now: float) -> float:
        self.processed += 1
        packet.size += VXLAN_OVERHEAD
        return self.cost_of(packet)


class VxlanDecap(StatelessElement):
    """Strips VXLAN overhead; drops runt packets that cannot be decapped."""

    def __init__(self, name: str = "vxlan-decap", base_cost: float = 0.12, **kw) -> None:
        super().__init__(name, base_cost=base_cost, **kw)

    def process(self, packet: Packet, now: float) -> float:
        self.processed += 1
        if packet.size <= VXLAN_OVERHEAD:
            self.drop(packet, "runt")
        else:
            packet.size -= VXLAN_OVERHEAD
        return self.cost_of(packet)


class Delay(StatelessElement):
    """Fixed-cost pass-through element (testing and calibration)."""

    def __init__(self, name: str = "delay", base_cost: float = 0.1, **kw) -> None:
        super().__init__(name, base_cost=base_cost, **kw)


# ----------------------------------------------------------------------
# Canned chains used throughout the evaluation
# ----------------------------------------------------------------------

def _chain_basic(rng: Optional[np.random.Generator]) -> Chain:
    """classifier -> firewall -> monitor (the light 3-element SFC)."""
    return Chain(
        [
            Classifier(rules=[], rng=rng),
            AclFirewall(rules=[AclRule(dport=22, action="deny")], rng=rng),
            FlowMonitor(rng=rng),
        ],
        name="basic",
    )


def _chain_nat(rng: Optional[np.random.Generator]) -> Chain:
    """firewall -> nat -> monitor (the stateful gateway SFC)."""
    return Chain(
        [
            AclFirewall(rules=[AclRule(dport=22, action="deny")], rng=rng),
            Nat(rng=rng),
            FlowMonitor(rng=rng),
        ],
        name="nat",
    )


def _chain_heavy(rng: Optional[np.random.Generator]) -> Chain:
    """classifier -> firewall -> dpi -> nat -> monitor (5-element, DPI-heavy)."""
    if rng is None:
        raise ValueError("heavy chain needs an rng for DPI")
    return Chain(
        [
            Classifier(rules=[], rng=rng),
            AclFirewall(rules=[AclRule(dport=22, action="deny")], rng=rng),
            Dpi(rng=rng),
            Nat(rng=rng),
            FlowMonitor(rng=rng),
        ],
        name="heavy",
    )


def _chain_tunnel(rng: Optional[np.random.Generator]) -> Chain:
    """decap -> firewall -> lb -> encap (the overlay/virtual-switching SFC)."""
    return Chain(
        [
            VxlanDecap(rng=rng),
            AclFirewall(rules=[], rng=rng),
            LoadBalancer(rng=rng),
            VxlanEncap(rng=rng),
        ],
        name="tunnel",
    )


#: Registry of canned chain builders: name -> builder(rng) -> Chain.
STANDARD_CHAINS = {
    "basic": _chain_basic,
    "nat": _chain_nat,
    "heavy": _chain_heavy,
    "tunnel": _chain_tunnel,
}


def standard_chain(name: str, rng: Optional[np.random.Generator] = None) -> Chain:
    """Instantiate one of the canned evaluation chains by name."""
    try:
        builder = STANDARD_CHAINS[name]
    except KeyError:
        raise KeyError(
            f"unknown chain {name!r}; available: {sorted(STANDARD_CHAINS)}"
        ) from None
    return builder(rng)
