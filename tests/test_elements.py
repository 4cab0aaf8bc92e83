"""Tests for the element framework and the NF library."""

import numpy as np
import pytest

from repro.elements import (
    AclFirewall,
    AclRule,
    Chain,
    Classifier,
    CountMinSketch,
    Delay,
    Dpi,
    Element,
    FlowMonitor,
    LoadBalancer,
    Nat,
    RateLimiter,
    STANDARD_CHAINS,
    VxlanDecap,
    VxlanEncap,
    standard_chain,
)
from repro.elements.nf import VXLAN_OVERHEAD
from repro.net.packet import FiveTuple


class TestElementBase:
    def test_cost_model(self, mk_packet):
        el = Element("e", base_cost=0.5, per_byte=0.001)
        p = mk_packet(size=1000)
        assert el.cost_of(p) == pytest.approx(1.5)

    def test_jitter_requires_rng(self):
        with pytest.raises(ValueError):
            Element("e", jitter_sigma=0.5)

    def test_jitter_varies_cost(self, mk_packet, rng):
        el = Element("e", base_cost=1.0, jitter_sigma=0.5, rng=rng)
        costs = {el.cost_of(mk_packet()) for _ in range(50)}
        assert len(costs) > 40

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            Element("e", base_cost=-1.0)

    def test_process_counts(self, mk_packet):
        el = Element("e")
        el.process(mk_packet(), 0.0)
        assert el.processed == 1

    def test_drop_marks_packet(self, mk_packet):
        el = Element("e")
        p = mk_packet()
        el.drop(p, "why")
        assert p.dropped == "e:why"
        assert el.drops == 1

    def test_clone_is_independent(self, mk_packet):
        el = Element("e", base_cost=0.3)
        cp = el.clone("@1")
        cp.process(mk_packet(), 0.0)
        assert el.processed == 0 and cp.processed == 1
        assert cp.name == "e@1"
        assert cp.base_cost == 0.3


class TestChain:
    def test_runs_all_elements(self, mk_packet):
        ch = Chain([Delay("d1", base_cost=0.1), Delay("d2", base_cost=0.2)])
        cost = ch.process(mk_packet(), 0.0)
        assert cost == pytest.approx(0.3)
        assert ch.processed == 1 and ch.dropped == 0

    def test_stops_at_drop_but_charges_cost(self, mk_packet):
        fw = AclFirewall(rules=[AclRule(action="deny")])
        after = Delay("after")
        ch = Chain([fw, after])
        p = mk_packet()
        cost = ch.process(p, 0.0)
        assert p.dropped is not None
        assert cost > 0
        assert after.processed == 0
        assert ch.dropped == 1

    def test_mean_cost(self):
        ch = Chain([Delay("a", base_cost=0.5), Delay("b", base_cost=0.5)])
        assert ch.mean_cost() == pytest.approx(1.0)

    def test_clone_clones_members(self, mk_packet):
        ch = Chain([Nat()])
        cp = ch.clone("@0")
        cp.process(mk_packet(), 0.0)
        assert ch.elements[0].processed == 0
        assert cp.elements[0].processed == 1

    def test_stateful_flag(self):
        assert Chain([Delay("d")]).stateful is False
        assert Chain([Delay("d"), Nat()]).stateful is True


class TestClassifier:
    def test_first_match_labels(self, factory):
        cl = Classifier(rules=[
            (AclRule(dport=53), "dns"),
            (AclRule(dport=80), "web"),
        ])
        p_web = factory.make(FiveTuple(1, 2, 999, 80), 100, 0.0)
        p_other = factory.make(FiveTuple(1, 2, 999, 22), 100, 0.0)
        cl.process(p_web, 0.0)
        cl.process(p_other, 0.0)
        assert p_web.meta == "web"
        assert p_other.meta == "best-effort"

    def test_per_rule_cost_scales(self, factory):
        rules = [(AclRule(dport=10_000 + i), f"c{i}") for i in range(50)]
        cl = Classifier(rules=rules, per_rule=0.01)
        p = factory.make(FiveTuple(1, 2, 999, 1), 100, 0.0)  # matches nothing
        cost = cl.process(p, 0.0)
        assert cost >= 0.15 + 50 * 0.01


class TestFirewall:
    def test_deny_rule_drops(self, factory):
        fw = AclFirewall(rules=[AclRule(dport=22, action="deny")])
        ssh = factory.make(FiveTuple(1, 2, 999, 22), 100, 0.0)
        web = factory.make(FiveTuple(1, 2, 999, 80), 100, 0.0)
        fw.process(ssh, 0.0)
        fw.process(web, 0.0)
        assert ssh.dropped and not web.dropped
        assert fw.drops == 1

    def test_first_match_wins(self, factory):
        fw = AclFirewall(rules=[
            AclRule(dport=22, action="allow"),
            AclRule(action="deny"),  # catch-all
        ])
        ssh = factory.make(FiveTuple(1, 2, 999, 22), 100, 0.0)
        fw.process(ssh, 0.0)
        assert not ssh.dropped

    def test_default_deny_mode(self, factory):
        fw = AclFirewall(rules=[], default_action="deny")
        p = factory.make(FiveTuple(1, 2, 3, 4), 100, 0.0)
        fw.process(p, 0.0)
        assert p.dropped

    def test_wildcard_matching(self):
        r = AclRule(src=5)
        assert r.matches(FiveTuple(5, 9, 1, 2))
        assert not r.matches(FiveTuple(6, 9, 1, 2))


class TestNat:
    def test_rewrites_and_remembers(self, factory):
        nat = Nat(public_ip=777, port_base=30_000)
        ft = FiveTuple(1, 2, 999, 80)
        p1 = factory.make(ft, 100, 0.0)
        p2 = factory.make(ft, 100, 1.0)
        nat.process(p1, 0.0)
        nat.process(p2, 1.0)
        assert p1.ftuple.src == 777 and p1.ftuple.sport == 30_000
        assert p1.ftuple == p2.ftuple  # same mapping reused
        assert nat.misses == 1

    def test_distinct_flows_distinct_ports(self, factory):
        nat = Nat()
        p1 = factory.make(FiveTuple(1, 2, 100, 80), 100, 0.0)
        p2 = factory.make(FiveTuple(1, 2, 101, 80), 100, 0.0)
        nat.process(p1, 0.0)
        nat.process(p2, 0.0)
        assert p1.ftuple.sport != p2.ftuple.sport

    def test_miss_costs_more(self, factory):
        nat = Nat(base_cost=0.1, miss_cost=2.0)
        ft = FiveTuple(1, 2, 999, 80)
        c_miss = nat.process(factory.make(ft, 100, 0.0), 0.0)
        c_hit = nat.process(factory.make(ft, 100, 0.0), 0.0)
        assert c_miss > c_hit

    def test_table_full_drops(self, factory):
        nat = Nat(max_entries=1)
        nat.process(factory.make(FiveTuple(1, 2, 1, 80), 100, 0.0), 0.0)
        p = factory.make(FiveTuple(1, 2, 2, 80), 100, 0.0)
        nat.process(p, 0.0)
        assert p.dropped == "nat:nat-table-full"

    def test_clone_has_empty_table(self, factory):
        nat = Nat()
        nat.process(factory.make(FiveTuple(1, 2, 1, 80), 100, 0.0), 0.0)
        cp = nat.clone("@1")
        assert len(cp.table) == 0


class TestRateLimiter:
    def test_within_rate_passes(self, mk_packet):
        rl = RateLimiter(rate_bps=8e6, burst_bytes=10_000)  # 1 B/µs
        p = mk_packet(size=100)
        rl.process(p, 0.0)
        assert not p.dropped

    def test_burst_exhaustion_drops(self, mk_packet):
        rl = RateLimiter(rate_bps=8e6, burst_bytes=150)
        p1, p2 = mk_packet(size=100), mk_packet(size=100)
        rl.process(p1, 0.0)
        rl.process(p2, 0.0)  # only 50 tokens left
        assert not p1.dropped and p2.dropped

    def test_tokens_refill_over_time(self, mk_packet):
        rl = RateLimiter(rate_bps=8e6, burst_bytes=100)  # 1 B/µs refill
        rl.process(mk_packet(size=100), 0.0)
        late = mk_packet(size=100)
        rl.process(late, 200.0)  # 200 µs -> >=100 tokens back
        assert not late.dropped

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            RateLimiter(rate_bps=0)


class TestFlowMonitor:
    def test_estimates_bytes_per_flow(self, factory):
        mon = FlowMonitor()
        ft = FiveTuple(1, 2, 999, 80)
        for _ in range(10):
            mon.process(factory.make(ft, 150, 0.0), 0.0)
        assert mon.estimate_bytes(ft) >= 1500  # CMS never undercounts

    def test_unseen_flow_estimate_small(self, factory):
        mon = FlowMonitor()
        for i in range(100):
            mon.process(factory.make(FiveTuple(1, 2, i, 80), 100, 0.0), 0.0)
        # An unseen flow should estimate (almost) zero with a 2048-wide sketch.
        assert mon.estimate_bytes(FiveTuple(9, 9, 9, 9)) < 500


class TestLoadBalancer:
    def test_connection_affinity(self, factory):
        lb = LoadBalancer(backends=[11, 22, 33])
        ft = FiveTuple(1, 2, 999, 80)
        p1, p2 = factory.make(ft, 100, 0.0), factory.make(ft, 100, 1.0)
        lb.process(p1, 0.0)
        lb.process(p2, 1.0)
        assert p1.ftuple.dst == p2.ftuple.dst
        assert p1.ftuple.dst in (11, 22, 33)

    def test_spreads_across_backends(self, factory):
        lb = LoadBalancer(backends=[11, 22, 33, 44])
        for i in range(200):
            lb.process(factory.make(FiveTuple(1, 2, i, 80), 100, 0.0), 0.0)
        used = {b for b, n in lb.per_backend.items() if n > 0}
        assert len(used) >= 3

    def test_needs_backends(self):
        with pytest.raises(ValueError):
            LoadBalancer(backends=[])


class TestDpi:
    def test_cost_scales_with_size(self, mk_packet, rng):
        dpi = Dpi(rng=rng, deep_scan_prob=0.0)
        small = dpi.process(mk_packet(size=64), 0.0)
        big = dpi.process(mk_packet(size=1500), 0.0)
        assert big > small

    def test_deep_scans_happen_at_rate(self, mk_packet, rng):
        dpi = Dpi(rng=rng, deep_scan_prob=0.5)
        for _ in range(1000):
            dpi.process(mk_packet(), 0.0)
        assert 350 < dpi.deep_scans < 650

    def test_requires_rng_for_deep_scan(self):
        with pytest.raises(ValueError):
            Dpi(rng=None, deep_scan_prob=0.1)


class TestVxlan:
    def test_encap_decap_roundtrip(self, mk_packet):
        p = mk_packet(size=1000)
        VxlanEncap().process(p, 0.0)
        assert p.size == 1000 + VXLAN_OVERHEAD
        VxlanDecap().process(p, 0.0)
        assert p.size == 1000

    def test_decap_runt_drops(self, mk_packet):
        p = mk_packet(size=VXLAN_OVERHEAD)
        VxlanDecap().process(p, 0.0)
        assert p.dropped


class TestStandardChains:
    @pytest.mark.parametrize("name", sorted(STANDARD_CHAINS))
    def test_builds_and_processes(self, name, mk_packet, rng):
        ch = standard_chain(name, rng)
        p = mk_packet(size=1000)
        cost = ch.process(p, 0.0)
        assert cost > 0

    def test_unknown_chain(self):
        with pytest.raises(KeyError):
            standard_chain("bogus")

    def test_heavy_requires_rng(self):
        with pytest.raises(ValueError):
            standard_chain("heavy", None)


class TestCountMinSketch:
    def test_never_undercounts(self, rng):
        cms = CountMinSketch(width=256, depth=4)
        true = {}
        keys = [int(k) for k in rng.integers(0, 500, 2000)]
        for k in keys:
            cms.add(k)
            true[k] = true.get(k, 0) + 1
        assert all(cms.estimate(k) >= v for k, v in true.items())

    def test_error_bound_geometry(self):
        cms = CountMinSketch(width=1000, depth=3)
        for i in range(1000):
            cms.add(i)
        eps_n, delta = cms.error_bound()
        assert eps_n == pytest.approx(np.e, rel=0.01)  # e/1000 * 1000
        assert delta == pytest.approx(np.exp(-3))

    def test_reset(self):
        cms = CountMinSketch()
        cms.add("x", 5)
        cms.reset()
        assert cms.estimate("x") == 0 and cms.total == 0

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            CountMinSketch(width=0)
