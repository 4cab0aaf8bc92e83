"""Tests for the poller batch-service loop, FlowCache, and DataPath."""

import math

import pytest

from repro.dataplane import FlowCache, PathQueue, Poller, VCpu
from repro.dataplane.path import DataPath, PathConfig
from repro.dataplane.vcpu import JitterParams
from repro.elements import Chain, Delay
from repro.elements.nf import AclFirewall, AclRule
from repro.net.packet import FiveTuple


def mk_poller(sim, chain=None, **kw):
    q = PathQueue(sim)
    cpu = VCpu()
    got = []
    dropped = []
    poller = Poller(
        sim, q, cpu, chain or Chain([Delay("d", base_cost=1.0)]),
        got.append, drop_sink=dropped.append, **kw,
    )
    return q, cpu, poller, got, dropped


class TestPoller:
    def test_serves_single_packet(self, sim, mk_packet):
        q, cpu, poller, got, _ = mk_poller(sim, batch_overhead=0.0)
        p = mk_packet()
        q.push(p)
        sim.run()
        assert got == [p]
        assert p.t_deq == 0.0
        assert poller.served == 1

    def test_batch_amortizes_single_wakeup(self, sim, mk_packet):
        q, cpu, poller, got, _ = mk_poller(sim, batch_size=8, batch_overhead=0.5)
        for i in range(8):
            q.push(mk_packet(seq=i))
        sim.run()
        assert poller.batches == 1
        assert len(got) == 8
        # One overhead charge + 8 x 1.0 service
        assert cpu.busy_time == pytest.approx(8.5)

    def test_completions_spaced_by_service_time(self, sim, mk_packet):
        times = []
        q = PathQueue(sim)
        poller = Poller(
            sim, q, VCpu(), Chain([Delay("d", base_cost=2.0)]),
            lambda p: times.append(sim.now), batch_overhead=0.0,
        )
        for i in range(3):
            q.push(mk_packet(seq=i))
        sim.run()
        assert times == [2.0, 4.0, 6.0]

    def test_queue_larger_than_batch_loops(self, sim, mk_packet):
        q, cpu, poller, got, _ = mk_poller(sim, batch_size=4)
        for i in range(10):
            q.push(mk_packet(seq=i))
        sim.run()
        assert len(got) == 10
        assert poller.batches == 3

    def test_wakeup_latency_applied(self, sim, mk_packet):
        times = []
        q = PathQueue(sim)
        Poller(
            sim, q, VCpu(), Chain([Delay("d", base_cost=1.0)]),
            lambda p: times.append(sim.now), batch_overhead=0.0, wakeup_latency=5.0,
        )
        q.push(mk_packet())
        sim.run()
        assert times == [6.0]

    def test_dropped_packets_to_drop_sink(self, sim, factory):
        chain = Chain([AclFirewall(rules=[AclRule(action="deny")])])
        q, cpu, poller, got, dropped = mk_poller(sim, chain=chain)
        q.push(factory.make(FiveTuple(1, 2, 3, 4), 100, 0.0))
        sim.run()
        assert got == [] and len(dropped) == 1

    def test_drop_still_charges_cpu(self, sim, factory):
        chain = Chain([AclFirewall(rules=[AclRule(action="deny")], base_cost=1.0)])
        q, cpu, poller, _, _ = mk_poller(sim, chain=chain, batch_overhead=0.0)
        q.push(factory.make(FiveTuple(1, 2, 3, 4), 100, 0.0))
        sim.run()
        assert cpu.busy_time > 0

    def test_same_time_burst_served_as_one_batch(self, sim, mk_packet):
        q, cpu, poller, got, _ = mk_poller(sim, batch_size=32)
        for i in range(6):
            sim.call_at(10.0, q.push, mk_packet(seq=i))
        sim.run()
        assert poller.batches == 1

    def test_invalid_params(self, sim):
        q = PathQueue(sim)
        with pytest.raises(ValueError):
            Poller(sim, q, VCpu(), Chain([]), lambda p: None, batch_size=0)
        q2 = PathQueue(sim)
        with pytest.raises(ValueError):
            Poller(sim, q2, VCpu(), Chain([]), lambda p: None, batch_overhead=-1)


class TestFlowCache:
    def test_cold_miss_then_hits(self, factory):
        fc = FlowCache()
        ft = FiveTuple(1, 2, 3, 4)
        c1 = fc.process(factory.make(ft, 100, 0.0), 0.0)
        c2 = fc.process(factory.make(ft, 100, 1.0), 1.0)
        assert c1 == fc.upcall_cost
        assert c2 == fc.hit_cost
        assert fc.upcalls == 1 and fc.hits == 1

    def test_emc_eviction_causes_megaflow_miss(self, factory):
        fc = FlowCache(emc_size=2)
        fts = [FiveTuple(1, 2, i, 80) for i in range(3)]
        for ft in fts:
            fc.process(factory.make(ft, 100, 0.0), 0.0)  # 3 upcalls, evicts ft0
        c = fc.process(factory.make(fts[0], 100, 1.0), 1.0)
        assert c == fc.miss_cost
        assert fc.misses == 1

    def test_hit_rate(self, factory):
        fc = FlowCache()
        ft = FiveTuple(1, 2, 3, 4)
        for i in range(10):
            fc.process(factory.make(ft, 100, float(i)), float(i))
        assert fc.hit_rate == pytest.approx(0.9)

    def test_clone_fresh_state(self, factory):
        fc = FlowCache()
        fc.process(factory.make(FiveTuple(1, 2, 3, 4), 100, 0.0), 0.0)
        cp = fc.clone("@1")
        assert cp.hits == cp.misses == cp.upcalls == 0


class TestDataPath:
    def test_end_to_end_completion(self, sim, mk_packet, rng):
        done = []
        dp = DataPath(sim, 0, Chain([Delay("d", base_cost=1.0)]), done.append, rng=rng)
        p = mk_packet()
        assert dp.enqueue(p)
        sim.run()
        assert done == [p]
        assert p.path_id == 0
        assert dp.completed == 1

    def test_flowcache_prepended(self, sim, rng):
        dp = DataPath(sim, 3, Chain([Delay("d")]), lambda p: None, rng=rng)
        assert dp.chain.elements[0] is dp.flowcache
        assert len(dp.chain) == 2

    def test_latency_stats_updated(self, sim, mk_packet, rng):
        dp = DataPath(sim, 0, Chain([Delay("d", base_cost=2.0)]), lambda p: None, rng=rng)
        dp.enqueue(mk_packet())
        sim.run()
        assert not math.isnan(dp.ewma_latency.value)
        assert dp.ewma_latency.value > 0

    def test_expected_wait_grows_with_backlog(self, sim, mk_packet, rng):
        dp = DataPath(
            sim, 0, Chain([Delay("d", base_cost=5.0)]), lambda p: None, rng=rng,
            config=PathConfig(batch_size=1),
        )
        w0 = dp.expected_wait(0.0)
        for i in range(10):
            dp.enqueue(mk_packet(seq=i))
        assert dp.expected_wait(0.0) > w0
        sim.run()

    def test_drop_callback_from_queue_not_invoked(self, sim, mk_packet, rng):
        # Queue overflow drops are reported to the *caller* of enqueue,
        # not via the path's drop callback (which is for chain drops).
        drops = []
        dp = DataPath(
            sim, 0, Chain([Delay("d")]), lambda p: None, drop=drops.append,
            rng=rng, config=PathConfig(queue_capacity=1, batch_size=1),
        )
        dp.enqueue(mk_packet())
        ok = dp.enqueue(mk_packet())
        sim.run()
        assert drops == []

    def test_in_service_counts_taken_packets(self, sim, factory, rng):
        # Both packets leave the queue at t=0 and finish at t=5.  Until
        # then they are in service; the denied one ends as a service drop.
        drops = []
        fw = AclFirewall(rules=[AclRule(dport=22, action="deny")])
        dp = DataPath(sim, 0, Chain([fw, Delay("d", base_cost=5.0)]),
                      lambda p: None, drop=drops.append, rng=rng,
                      config=PathConfig(batch_overhead=0.0))
        dp.enqueue(factory.make(FiveTuple(1, 2, 3, 80), 100, 0.0))
        dp.enqueue(factory.make(FiveTuple(1, 2, 3, 22), 100, 0.0))
        sim.run(until=1.0)
        assert (dp.depth, dp.in_service) == (0, 2)
        sim.run()
        assert (dp.depth, dp.in_service) == (0, 0)
        assert (dp.completed, dp.service_dropped, len(drops)) == (1, 1, 1)

    def test_stalled_signal(self, sim, mk_packet, rng):
        dp = DataPath(sim, 0, Chain([Delay("d")]), lambda p: None, rng=rng)
        # Queue a packet but never run the sim: head waits forever.
        dp.queue._q.append(mk_packet())  # bypass poller wakeup
        dp.queue._q[0].t_enq = 0.0
        assert dp.stalled(1000.0, threshold=500.0)
        assert not dp.stalled(100.0, threshold=500.0)
