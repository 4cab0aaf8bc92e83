"""The inlined NF fast paths against the methods they copy.

Three per-packet sites in ``elements/nf.py`` copy a reference method
inline to save a call per packet: ``Classifier.process`` and
``AclFirewall.process`` copy ``AclRule.matches``, and
``FlowMonitor.process`` copies ``CountMinSketch.add``.  Each element is
driven here over random five-tuples and rule sets whose fields are
wildcards or values from a small domain, so every field decides some
first match.  A twin element with an identically seeded jitter stream
replays the same packets through the reference methods.  Both must agree
on every packet's verdict and cost and on every counter.
"""

import numpy as np
import pytest

from repro.elements.nf import AclFirewall, AclRule, Classifier, FlowMonitor
from repro.net.packet import FiveTuple, PacketFactory

FIELDS = ("src", "dst", "sport", "dport", "proto")
N_PACKETS = 3000


def _tuples(rng, n):
    return [FiveTuple(*(int(v) for v in rng.integers(0, 3, 5)))
            for _ in range(n)]


def _rules(rng, n):
    """Rules that pin one to three fields to a value in 0..2 and leave
    the rest wildcards; deny and allow alternate."""
    rules = []
    for i in range(n):
        pinned = rng.choice(FIELDS, size=int(rng.integers(1, 4)),
                            replace=False)
        rules.append(AclRule(**{str(f): int(rng.integers(0, 3))
                                for f in pinned},
                             action="deny" if i % 2 else "allow"))
    return rules


def _packets(seed):
    """Two equal packet lists, one per run (verdicts mutate packets)."""
    rng = np.random.default_rng(seed)
    tuples = _tuples(rng, N_PACKETS)
    sizes = rng.integers(64, 1554, N_PACKETS)

    def make():
        factory = PacketFactory()
        return [factory.make(ft, int(size), 0.0, flow_id=i, seq=i)
                for i, (ft, size) in enumerate(zip(tuples, sizes))]
    return make(), make()


def _first_match(rules, ftuple):
    """Index of the first rule whose reference ``matches`` holds."""
    for i, rule in enumerate(rules):
        if rule.matches(ftuple):
            return i
    return None


class TestAclMatchInline:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_classifier_matches_reference(self, seed):
        rng = np.random.default_rng(100 + seed)
        rules = [(rule, f"class-{i}") for i, rule in enumerate(_rules(rng, 10))]
        fast, twin = (Classifier(rules=rules, per_byte=0.001,
                                 jitter_sigma=0.3,
                                 rng=np.random.default_rng(seed))
                      for _ in range(2))
        packets, reference = _packets(seed)
        hit = set()
        for pkt, ref in zip(packets, reference):
            cost = fast.process(pkt, 0.0)
            ref_cost = twin.cost_of(ref)
            label = twin.default_class
            for rule, cls in twin.rules:
                ref_cost += twin.per_rule
                if rule.matches(ref.ftuple):
                    label = cls
                    break
            hit.add(_first_match([r for r, _ in rules], ref.ftuple))
            assert (pkt.meta, cost) == (label, ref_cost)
        assert fast.processed == N_PACKETS
        assert None in hit and len(hit) >= 6  # default and many rules

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_firewall_matches_reference(self, seed):
        rng = np.random.default_rng(200 + seed)
        rules = _rules(rng, 10)
        fast, twin = (AclFirewall(rules=rules, per_byte=0.001,
                                  jitter_sigma=0.3,
                                  rng=np.random.default_rng(seed))
                      for _ in range(2))
        packets, reference = _packets(seed)
        for pkt, ref in zip(packets, reference):
            cost = fast.process(pkt, 0.0)
            ref_cost = twin.cost_of(ref)
            action = twin.default_action
            for rule in twin.rules:
                ref_cost += twin.per_rule
                if rule.matches(ref.ftuple):
                    action = rule.action
                    break
            if action == "deny":
                twin.drop(ref, "acl-deny")
            assert (pkt.dropped, cost) == (ref.dropped, ref_cost)
        assert 0 < fast.drops == twin.drops < N_PACKETS


class TestSketchAddInline:
    @pytest.mark.parametrize("width", [2048, 1000], ids=["pow2", "other"])
    def test_monitor_matches_reference(self, width):
        fast, twin = (FlowMonitor(sketch_width=width, per_byte=0.001,
                                  jitter_sigma=0.3,
                                  rng=np.random.default_rng(5))
                      for _ in range(2))
        packets, reference = _packets(4)
        for pkt, ref in zip(packets, reference):
            cost = fast.process(pkt, 0.0)
            twin.sketch.add(ref.ftuple, ref.size)
            assert cost == twin.cost_of(ref)
        assert fast.sketch._rows == twin.sketch._rows
        assert fast.sketch.total == twin.sketch.total == sum(
            p.size for p in packets)
        assert fast.processed == N_PACKETS
