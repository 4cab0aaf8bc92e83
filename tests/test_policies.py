"""Tests for the path-selection policy zoo."""

import pytest

from repro.core import POLICY_NAMES, make_policy
from repro.core.detector import DetectorConfig, StragglerDetector
from repro.core.policies import (
    AdaptiveMultipath,
    FlowletSwitching,
    LeastLoaded,
    PowerOfTwo,
    RandomHash,
    RandomSpray,
    RedundantK,
    RoundRobin,
    SinglePath,
)
from repro.dataplane.path import DataPath, PathConfig
from repro.elements import Chain, Delay
from repro.net.packet import FiveTuple


@pytest.fixture
def paths(sim, rng):
    return [
        DataPath(sim, i, Chain([Delay("d", base_cost=1.0)]), lambda p: None,
                 rng=rng, config=PathConfig(batch_size=1))
        for i in range(4)
    ]


class TestFactory:
    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_all_registered_names_build(self, name, rng):
        p = make_policy(name, rng=rng)
        assert p is not None

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            make_policy("bogus")

    def test_randomized_need_rng(self):
        with pytest.raises(ValueError):
            make_policy("spray")
        with pytest.raises(ValueError):
            make_policy("po2")


class TestSinglePath:
    def test_always_same_path(self, paths, mk_packet):
        pol = SinglePath(path_id=2)
        assert all(pol.select(mk_packet(seq=i), paths, 0.0) == [2] for i in range(10))
        assert not SinglePath.needs_reorder


class TestRandomHash:
    def test_flow_affinity(self, paths, factory):
        pol = RandomHash()
        ft = FiveTuple(1, 2, 999, 80)
        picks = {
            pol.select(factory.make(ft, 100, 0.0), paths, 0.0)[0] for _ in range(20)
        }
        assert len(picks) == 1
        assert not RandomHash.needs_reorder

    def test_spreads_flows(self, paths, factory):
        pol = RandomHash()
        picks = {
            pol.select(factory.make(FiveTuple(1, 2, sp, 80), 100, 0.0), paths, 0.0)[0]
            for sp in range(200)
        }
        assert picks == {0, 1, 2, 3}

    def test_salt_changes_mapping(self, paths, factory):
        ft = FiveTuple(1, 2, 999, 80)
        p = factory.make(ft, 100, 0.0)
        picks = {
            RandomHash(salt=s).select(p, paths, 0.0)[0] for s in range(64)
        }
        assert len(picks) > 1


class TestRoundRobin:
    def test_cycles(self, paths, mk_packet):
        pol = RoundRobin()
        picks = [pol.select(mk_packet(seq=i), paths, 0.0)[0] for i in range(8)]
        assert picks == [0, 1, 2, 3, 0, 1, 2, 3]


class TestRandomSpray:
    def test_uniform_coverage(self, paths, mk_packet, rng):
        pol = RandomSpray(rng)
        picks = [pol.select(mk_packet(seq=i), paths, 0.0)[0] for i in range(400)]
        for pid in range(4):
            assert 50 < picks.count(pid) < 150

    def test_adapts_to_path_count_change(self, sim, rng, mk_packet):
        pol = RandomSpray(rng)
        p2 = [
            DataPath(sim, i, Chain([Delay("d")]), lambda p: None, rng=rng)
            for i in range(2)
        ]
        picks = {pol.select(mk_packet(seq=i), p2, 0.0)[0] for i in range(50)}
        assert picks <= {0, 1}


class TestLeastLoadedAndPo2:
    def test_leastload_avoids_backlog(self, paths, mk_packet):
        pol = LeastLoaded()
        for i in range(20):
            pkt = mk_packet(seq=i)
            pkt.t_enq = 0.0
            paths[0].queue._q.append(pkt)
        assert pol.select(mk_packet(), paths, 0.0)[0] != 0

    def test_po2_single_path_degenerate(self, sim, rng, mk_packet):
        pol = PowerOfTwo(rng)
        one = [DataPath(sim, 0, Chain([Delay("d")]), lambda p: None, rng=rng)]
        assert pol.select(mk_packet(), one, 0.0) == [0]

    def test_po2_prefers_emptier_of_two(self, paths, mk_packet, rng):
        pol = PowerOfTwo(rng)
        # Hugely backlog path 0; over many picks it should rarely win.
        for i in range(50):
            pkt = mk_packet(seq=i)
            pkt.t_enq = 0.0
            paths[0].queue._q.append(pkt)
        picks = [pol.select(mk_packet(seq=i), paths, 0.0)[0] for i in range(200)]
        assert picks.count(0) < 20


class TestFlowletSwitching:
    def test_affinity_within_flowlet(self, paths, mk_packet):
        pol = FlowletSwitching(timeout=100.0)
        first = pol.select(mk_packet(flow_id=7), paths, 0.0)[0]
        second = pol.select(mk_packet(flow_id=7, seq=1), paths, 50.0)[0]
        assert first == second

    def test_boundary_can_move(self, paths, mk_packet):
        pol = FlowletSwitching(timeout=10.0)
        first = pol.select(mk_packet(flow_id=7), paths, 0.0)[0]
        # Backlog the first path, then exceed the flowlet gap.
        for i in range(30):
            pkt = mk_packet(seq=i)
            pkt.t_enq = 0.0
            paths[first].queue._q.append(pkt)
        moved = pol.select(mk_packet(flow_id=7, seq=1), paths, 1000.0)[0]
        assert moved != first

    def test_flowless_packets_least_loaded(self, paths, mk_packet):
        pol = FlowletSwitching()
        pkt = mk_packet(flow_id=-1)
        assert pol.select(pkt, paths, 0.0)[0] in range(4)


class TestRedundantK:
    def test_returns_r_distinct_paths(self, paths, mk_packet):
        pol = RedundantK(r=3)
        sel = pol.select(mk_packet(), paths, 0.0)
        assert len(sel) == 3
        assert len(set(sel)) == 3

    def test_r_capped_by_path_count(self, sim, rng, mk_packet):
        pol = RedundantK(r=4)
        two = [
            DataPath(sim, i, Chain([Delay("d")]), lambda p: None, rng=rng)
            for i in range(2)
        ]
        assert len(pol.select(mk_packet(), two, 0.0)) == 2

    def test_primary_rotates(self, paths, mk_packet):
        pol = RedundantK(r=2)
        primaries = [pol.select(mk_packet(seq=i), paths, 0.0)[0] for i in range(4)]
        assert primaries == [0, 1, 2, 3]

    def test_r_below_two_rejected(self):
        with pytest.raises(ValueError):
            RedundantK(r=1)

    @pytest.mark.parametrize("r", [2, 3, 4])
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_cached_choices_rotate(self, r, k, mk_packet):
        """Each selection is ``r`` consecutive paths from a primary that
        rotates by one; the lists are cached per primary."""
        pol, paths = RedundantK(r=r), [None] * k
        for n in range(3 * k):
            first = n % k
            assert pol.select(mk_packet(), paths, 0.0) == [
                (first + i) % k for i in range(min(r, k))]

    def test_reused_at_fewer_paths_after_rotating(self, mk_packet):
        """A policy rotated at five paths and then asked at fewer keeps
        the rotation: the primary continues from where it was, mod the
        new path count."""
        pol, first = RedundantK(r=3), 0
        for k in [5, 5, 5, 2, 2, 3, 4, 4, 4, 4, 2, 5, 3]:
            expected = [(first + i) % k for i in range(min(3, k))]
            first = (first + 1) % k
            assert pol.select(mk_packet(), [None] * k, 0.0) == expected


class TestAdaptiveMultipath:
    def test_flow_affinity_while_healthy(self, paths, mk_packet):
        pol = AdaptiveMultipath(replication_budget=0.0)
        a = pol.select(mk_packet(flow_id=1), paths, 0.0)[0]
        b = pol.select(mk_packet(flow_id=1, seq=1), paths, 10.0)[0]
        assert a == b

    def test_mid_flowlet_escape_from_straggler(self, paths, mk_packet):
        pol = AdaptiveMultipath(
            replication_budget=0.0,
            detector=StragglerDetector(DetectorConfig(hol_threshold=20.0)),
        )
        first = pol.select(mk_packet(flow_id=1), paths, 0.0)[0]
        # Make `first` a straggler via head-of-line wait.
        stuck = mk_packet(seq=99)
        stuck.t_enq = 0.0
        paths[first].queue._q.append(stuck)
        moved = pol.select(mk_packet(flow_id=1, seq=1), paths, 50.0)[0]
        assert moved != first
        assert pol.rerouted_flowlets == 1

    def test_replicates_critical_packets_within_budget(self, paths, mk_packet):
        pol = AdaptiveMultipath(replication_budget=1.0, critical_size=10_000)
        sel = pol.select(mk_packet(flow_id=1, size=100), paths, 0.0)
        assert len(sel) == 2
        assert sel[0] != sel[1]

    def test_budget_limits_replication(self, paths, mk_packet):
        pol = AdaptiveMultipath(replication_budget=0.1, critical_size=10_000)
        n_replicated = 0
        for i in range(200):
            sel = pol.select(mk_packet(flow_id=i, size=100), paths, float(i))
            n_replicated += len(sel) == 2
        assert n_replicated <= 0.1 * 200 + 2

    def test_large_packets_not_replicated(self, paths, mk_packet):
        pol = AdaptiveMultipath(replication_budget=1.0, critical_size=300)
        sel = pol.select(mk_packet(flow_id=1, size=1500), paths, 0.0)
        assert len(sel) == 1

    def test_priority_forces_replication_eligibility(self, paths, mk_packet):
        pol = AdaptiveMultipath(replication_budget=1.0, critical_size=0)
        sel = pol.select(mk_packet(flow_id=1, size=1500, priority=1), paths, 0.0)
        assert len(sel) == 2

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            AdaptiveMultipath(replication_budget=1.5)
