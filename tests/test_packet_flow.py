"""Tests for packets, the factory, flows, and the flow tracker."""

import math

import pytest

from repro.net import FiveTuple, Flow, FlowTracker, PacketFactory
from repro.net.packet import HEADER_BYTES, MTU, Packet


class TestFiveTuple:
    def test_reversed_swaps_endpoints(self):
        ft = FiveTuple(1, 2, 100, 200, 17)
        rv = ft.reversed()
        assert (rv.src, rv.dst, rv.sport, rv.dport, rv.proto) == (2, 1, 200, 100, 17)

    def test_hashable_and_equal(self):
        assert FiveTuple(1, 2, 3, 4) == FiveTuple(1, 2, 3, 4)
        assert hash(FiveTuple(1, 2, 3, 4)) == hash(FiveTuple(1, 2, 3, 4))


class TestPacket:
    def test_factory_pids_unique_and_increasing(self, factory, ftuple):
        pids = [factory.make(ftuple, 100, 0.0).pid for _ in range(10)]
        assert pids == sorted(set(pids))
        assert factory.created == 10

    def test_latency_from_timestamps(self, mk_packet):
        p = mk_packet(t=10.0)
        p.t_done = 35.0
        assert p.latency == 25.0

    def test_timestamps_start_nan(self, mk_packet):
        p = mk_packet()
        assert math.isnan(p.t_nic) and math.isnan(p.t_enq)
        assert math.isnan(p.t_deq) and math.isnan(p.t_done)

    def test_clone_preserves_identity_fields(self, factory, ftuple):
        p = factory.make(ftuple, 500, 3.0, flow_id=9, seq=4, priority=1)
        p.t_nic = 3.5
        cp = p.clone(factory.next_pid())
        assert cp.pid != p.pid
        assert cp.copy_of == p.pid
        assert cp.is_copy and not p.is_copy
        assert (cp.flow_id, cp.seq, cp.size, cp.priority) == (9, 4, 500, 1)
        assert cp.t_created == 3.0 and cp.t_nic == 3.5

    def test_clone_of_clone_points_to_primary(self, factory, ftuple):
        p = factory.make(ftuple, 100, 0.0)
        c1 = p.clone(factory.next_pid())
        c2 = c1.clone(factory.next_pid())
        assert c2.copy_of == p.pid

    def test_clone_sets_every_slot_as_constructed(self, factory, ftuple):
        """``clone`` stores each slot itself; every slot must equal the
        constructed packet with ``t_nic`` and ``copy_of`` overwritten,
        for a primary and for a clone of a clone, whatever the source
        packet's stage fields hold."""
        def constructed(src, pid):
            cp = Packet(pid, src.ftuple, src.size, src.t_created,
                        flow_id=src.flow_id, seq=src.seq,
                        priority=src.priority)
            cp.t_nic = src.t_nic
            cp.copy_of = src.pid if src.copy_of < 0 else src.copy_of
            return cp

        def slots(pkt):
            # NaN stage times compare equal as their repr.
            return [repr(getattr(pkt, name)) for name in Packet.__slots__]

        def stage(pkt, t):
            pkt.t_nic, pkt.t_enq, pkt.t_deq, pkt.t_done = t, t + 1, t + 2, t + 3
            pkt.path_id, pkt.dropped, pkt.meta = 3, "q:overflow", {"x": t}

        p = factory.make(ftuple, 700, 2.0, flow_id=5, seq=8, priority=2)
        stage(p, 2.5)
        c1 = p.clone(41)
        assert slots(c1) == slots(constructed(p, 41))
        stage(c1, 7.0)
        assert slots(c1.clone(42)) == slots(constructed(c1, 42))
        assert c1.clone(42).copy_of == p.pid


class TestFlow:
    def test_packet_count_ceil_division(self, ftuple):
        assert Flow(1, ftuple, 1, 0.0).n_packets == 1
        assert Flow(2, ftuple, MTU, 0.0).n_packets == 1
        assert Flow(3, ftuple, MTU + 1, 0.0).n_packets == 2
        assert Flow(4, ftuple, 10 * MTU, 0.0).n_packets == 10

    def test_packet_sizes_sum_to_flow_size_plus_headers(self, ftuple):
        f = Flow(1, ftuple, 4000, 0.0)
        sizes = f.packet_sizes()
        assert len(sizes) == f.n_packets
        assert sum(sizes) == 4000 + f.n_packets * HEADER_BYTES

    def test_non_positive_size_rejected(self, ftuple):
        with pytest.raises(ValueError):
            Flow(1, ftuple, 0, 0.0)

    def test_fct_nan_until_complete(self, ftuple):
        f = Flow(1, ftuple, 100, 5.0)
        assert math.isnan(f.fct)
        f.t_end = 25.0
        assert f.fct == 20.0


class TestFlowTracker:
    def _mk_flow_packets(self, factory, flow):
        return [
            factory.make(flow.ftuple, s, flow.t_start, flow_id=flow.flow_id, seq=i)
            for i, s in enumerate(flow.packet_sizes())
        ]

    def test_flow_completes_after_all_seqs(self, factory, ftuple):
        tr = FlowTracker()
        f = Flow(1, ftuple, 3 * MTU, 0.0)
        tr.register(f)
        pkts = self._mk_flow_packets(factory, f)
        assert tr.on_delivery(pkts[0], 1.0) is None
        assert tr.on_delivery(pkts[1], 2.0) is None
        done = tr.on_delivery(pkts[2], 3.0)
        assert done is f
        assert f.completed and f.fct == 3.0
        assert tr.incomplete == 0

    def test_duplicate_seq_counted_once(self, factory, ftuple):
        tr = FlowTracker()
        f = Flow(1, ftuple, 2 * MTU, 0.0)
        tr.register(f)
        pkts = self._mk_flow_packets(factory, f)
        tr.on_delivery(pkts[0], 1.0)
        assert tr.on_delivery(pkts[0], 1.5) is None  # duplicate
        assert f.delivered == 1
        assert tr.on_delivery(pkts[1], 2.0) is f

    def test_unknown_flow_ignored(self, factory, ftuple):
        tr = FlowTracker()
        p = factory.make(ftuple, 100, 0.0, flow_id=42, seq=0)
        assert tr.on_delivery(p, 1.0) is None

    def test_double_register_rejected(self, ftuple):
        tr = FlowTracker()
        f = Flow(1, ftuple, 100, 0.0)
        tr.register(f)
        with pytest.raises(ValueError):
            tr.register(f)

    def test_fct_arrays(self, factory, ftuple):
        tr = FlowTracker()
        small = Flow(1, ftuple, 100, 0.0)
        big = Flow(2, ftuple, 10 * MTU, 0.0)
        tr.register(small)
        tr.register(big)
        for f in (small, big):
            for p in self._mk_flow_packets(factory, f):
                tr.on_delivery(p, 7.0)
        assert len(tr.fcts()) == 2
        assert len(tr.fcts_by_size(max_size=1000)) == 1


# ----------------------------------------------------------------------
# Every packet is allocated once
# ----------------------------------------------------------------------
#: A short replicated run: suppressed and path-dropped copies too.
SMALL = dict(policy="redundant2", n_paths=3, duration=3000.0,
             warmup=300.0, drain=1000.0, seed=3)


def _payload(config=None, **hooks):
    """The JSON payload of one ``build_runtime`` run of ``SMALL``;
    ``on_delivery`` and ``before`` (called with the runtime before the
    run) hook into it."""
    import json

    from repro.bench.scenarios import ScenarioConfig, build_runtime

    rt = build_runtime(config or ScenarioConfig(**SMALL))
    if "on_delivery" in hooks:
        rt.host.sink.on_delivery = hooks["on_delivery"]
    if "before" in hooks:
        hooks["before"](rt)
    rt.start()
    rt.sim.run(until=rt.horizon)
    return json.dumps(rt.finalize().to_dict(), sort_keys=True)


class TestAllocatedOnce:
    def test_delivery_hook_may_keep_packets(self):
        """A hook that keeps every delivered packet under default
        options: each is its own object, left as delivered."""
        kept = []
        _payload(on_delivery=lambda p: kept.append(
            (p, p.pid, p.t_done, p.path_id)))
        assert len(kept) > 5000
        assert len({id(p) for p, *_ in kept}) == len(kept)
        assert all((p.pid, p.t_done, p.path_id) == (pid, t_done, path_id)
                   for p, pid, t_done, path_id in kept)


class TestDeprecatedRecycling:
    """Each spelling of the removed packet free list warns once per
    process and changes no payload."""

    @staticmethod
    def _once(monkeypatch, spelling, use):
        import warnings

        from repro.net import packet

        monkeypatch.setattr(packet, "_recycle_warned", set())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outs = [use(), use()]
        assert [str(w.message) for w in caught
                if w.category is DeprecationWarning] == [
            f"{spelling} is deprecated and ignored: packets are no longer "
            f"recycled"]
        return outs

    def test_run_options(self, monkeypatch):
        import json

        import repro

        def run(**kw):
            result = repro.run(repro.ScenarioConfig(**SMALL),
                               repro.RunOptions(**kw))
            return json.dumps(result.to_dict(), sort_keys=True)

        outs = self._once(monkeypatch, "RunOptions(recycle=)",
                          lambda: run(recycle=False))
        assert repro.RunOptions().recycle is None
        assert outs[0] == outs[1] == run()

    def test_run_cluster(self, monkeypatch):
        import json

        import repro

        cluster = repro.ClusterConfig.uniform_hosts(
            2, repro.ScenarioConfig(duration=300.0, warmup=50.0,
                                    drain=200.0))

        def payload(**kw):
            return json.dumps(repro.run_cluster(cluster, workers=1,
                                                **kw).to_dict())

        outs = self._once(monkeypatch, "run_cluster(recycle=)",
                          lambda: payload(recycle=False))
        assert outs[0] == outs[1] == payload()

    def test_enable_packet_recycling(self, monkeypatch):
        outs = self._once(
            monkeypatch, "MultipathDataPlane.enable_packet_recycling()",
            lambda: _payload(
                before=lambda rt: rt.host.enable_packet_recycling()))
        assert outs[0] == outs[1] == _payload()

    def test_factory_recycle(self, monkeypatch, factory, ftuple):
        def use():
            factory.recycle(factory.make(ftuple, 100, 0.0))
            return factory.created

        assert self._once(monkeypatch, "PacketFactory.recycle()",
                          use) == [1, 2]

    def test_factory_free(self, monkeypatch):
        seen = []

        def use():
            return _payload(before=lambda rt: seen.append(
                rt.host.factory.free))

        outs = self._once(monkeypatch, "PacketFactory.free", use)
        assert seen == [[], []]
        assert outs[0] == outs[1] == _payload()
