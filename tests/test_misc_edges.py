"""Edge-case tests across modules that the focused suites skip."""

import math

import numpy as np
import pytest

from repro import (
    Chain,
    HostLink,
    MpdpConfig,
    MultipathDataPlane,
    PoissonSource,
    RngRegistry,
    Simulator,
)
from repro.dataplane import PathQueue, Poller, VCpu
from repro.dataplane.vcpu import JitterParams
from repro.elements import Delay
from repro.net.packet import PacketFactory, FiveTuple


class TestNestedChains:
    def test_chain_inside_chain_processes(self, mk_packet):
        inner = Chain([Delay("a", base_cost=1.0), Delay("b", base_cost=2.0)],
                      name="inner")
        outer = Chain([Delay("pre", base_cost=0.5), inner], name="outer")
        cost = outer.process(mk_packet(), 0.0)
        assert cost == pytest.approx(3.5)

    def test_nested_mean_cost(self):
        inner = Chain([Delay("a", base_cost=1.0)])
        outer = Chain([Delay("pre", base_cost=0.5), inner])
        assert outer.mean_cost() == pytest.approx(1.5)

    def test_nested_clone(self, mk_packet):
        inner = Chain([Delay("a")])
        outer = Chain([inner], name="o")
        cp = outer.clone("@1")
        cp.process(mk_packet(), 0.0)
        assert inner.processed == 0


class TestVCpuEdges:
    def test_available_at_inside_stall(self):
        rng = np.random.default_rng(0)
        params = JitterParams(mean_run=10.0, stall_median=100.0, stall_sigma=0.01)
        cpu = VCpu(rng=rng, params=params)
        inside = cpu._stall_start + 0.1
        assert cpu.available_at(inside) == cpu._stall_end

    def test_zero_cost_during_idle(self):
        cpu = VCpu()
        s, f = cpu.execute(7.0, 0.0)
        assert s == f == 7.0
        assert cpu.executions == 1

    def test_repr_smoke(self):
        assert "VCpu" in repr(VCpu())


class TestHostLinkEdges:
    def test_busy_until_tracks_backlog(self, sim, mk_packet):
        link = HostLink(sim, lambda p: None, rate_bps=8e9)  # 1000 B/µs
        link.send(mk_packet(size=1000))
        link.send(mk_packet(size=1000))
        assert link.busy_until == pytest.approx(2.0)
        assert link.forwarded == 2
        sim.run()


class TestFactoryAccounting:
    def test_created_counts_replicas(self, ftuple):
        from repro.core.replicator import Replicator

        factory = PacketFactory()
        p = factory.make(ftuple, 100, 0.0)
        Replicator(factory).replicate(p, 3)
        assert factory.created == 4


class TestRecorderModes:
    def test_keep_all_latencies_through_mpdp(self):
        sim = Simulator()
        rngs = RngRegistry(seed=1)
        host = MultipathDataPlane(
            sim, MpdpConfig(n_paths=2, policy="rr", keep_all_latencies=True), rngs
        )
        src = PoissonSource(sim, host.factory, host.input, rngs.stream("t"),
                            rate_pps=100_000, duration=2_000.0)
        src.start()
        sim.run(until=5_000.0)
        host.finalize()
        assert len(host.sink.recorder.samples) == host.sink.delivered

    def test_reservoir_disabled_keep_all(self):
        from repro.metrics import LatencyRecorder

        rec = LatencyRecorder(keep_all=True, reservoir=0)
        rec.record(5.0)
        assert rec.exact_percentile(50) == 5.0


class TestPollerWithSlowWakeup:
    def test_interleaved_idle_periods(self, sim, mk_packet):
        """Arrivals separated by idle gaps each pay the wakeup latency."""
        times = []
        q = PathQueue(sim)
        Poller(sim, q, VCpu(), Chain([Delay("d", base_cost=1.0)]),
               lambda p: times.append(sim.now), batch_overhead=0.0,
               wakeup_latency=3.0)
        sim.call_at(0.0, q.push, mk_packet(seq=0))
        sim.call_at(100.0, q.push, mk_packet(seq=1))
        sim.run()
        assert times == [4.0, 104.0]


class TestSimulatorMisc:
    def test_repr_smoke(self, sim):
        assert "Simulator" in repr(sim)


class TestMpdpSinglePathNoClone:
    def test_single_path_uses_chain_directly(self):
        """n_paths=1 must not clone the provided chain (state continuity
        for callers that inspect it afterwards)."""
        sim = Simulator()
        rngs = RngRegistry(seed=2)
        chain = Chain([Delay("d", base_cost=0.5)], name="mine")
        host = MultipathDataPlane(
            sim, MpdpConfig(n_paths=1, policy="single"), rngs, chain=chain
        )
        assert host.paths[0].chain.elements[1] is chain.elements[0]

    def test_multi_path_clones(self):
        sim = Simulator()
        rngs = RngRegistry(seed=2)
        chain = Chain([Delay("d")], name="mine")
        host = MultipathDataPlane(
            sim, MpdpConfig(n_paths=2, policy="rr"), rngs, chain=chain
        )
        for path in host.paths:
            assert path.chain.elements[1] is not chain.elements[0]
