"""Tests for the controller and the MultipathDataPlane facade."""

import pytest

from repro import (
    MpdpConfig,
    MultipathDataPlane,
    PathConfig,
    PoissonSource,
    RngRegistry,
    SHARED_CORE,
    Simulator,
)
from repro.core import PathController, StragglerDetector
from repro.core.policies import RedundantK, SinglePath
from repro.dataplane.path import DataPath
from repro.elements import Chain, Delay
from repro.elements.nf import AclFirewall, AclRule


def build(policy="adaptive", n_paths=4, seed=3, **cfg_kw):
    sim = Simulator()
    rngs = RngRegistry(seed=seed)
    cfg = MpdpConfig(n_paths=n_paths, policy=policy, **cfg_kw)
    host = MultipathDataPlane(sim, cfg, rngs)
    return sim, rngs, host


class TestPathController:
    def test_ticks_and_history(self, sim, rng):
        paths = [
            DataPath(sim, i, Chain([Delay("d")]), lambda p: None, rng=rng)
            for i in range(2)
        ]
        ctl = PathController(sim, paths, StragglerDetector(), interval=100.0)
        ctl.start()
        sim.run(until=1050.0)
        assert ctl.ticks == 10
        assert len(ctl.history) == 10
        assert ctl.history[0].time == 100.0

    def test_weights_normalized(self, sim, rng):
        paths = [
            DataPath(sim, i, Chain([Delay("d")]), lambda p: None, rng=rng)
            for i in range(3)
        ]
        ctl = PathController(sim, paths, StragglerDetector(), interval=50.0)
        ctl.start()
        sim.run(until=200.0)
        assert sum(ctl.weights) == pytest.approx(1.0)

    def test_stop_halts_ticking(self, sim, rng):
        paths = [DataPath(sim, 0, Chain([Delay("d")]), lambda p: None, rng=rng)]
        ctl = PathController(sim, paths, StragglerDetector(), interval=10.0)
        ctl.start()
        sim.call_at(55.0, ctl.stop)
        sim.run()  # must terminate (no infinite self-rescheduling)
        assert ctl.ticks <= 6

    def test_invalid_interval(self, sim):
        with pytest.raises(ValueError):
            PathController(sim, [], StragglerDetector(), interval=0.0)


class TestMpdpConstruction:
    def test_single_path_baseline(self):
        sim, rngs, host = build(policy="single", n_paths=1)
        assert len(host.paths) == 1
        assert host.reorder is None  # single path never reorders

    def test_reorder_auto_from_policy(self):
        _, _, host_hash = build(policy="hash")
        assert host_hash.reorder is None
        _, _, host_spray = build(policy="spray")
        assert host_spray.reorder is not None

    def test_reorder_forced(self):
        _, _, host = build(policy="hash", use_reorder=True)
        assert host.reorder is not None

    def test_policy_instance_accepted(self):
        sim = Simulator()
        host = MultipathDataPlane(
            sim, MpdpConfig(n_paths=2, policy=SinglePath(path_id=1)), RngRegistry(1)
        )
        assert host.policy.path_id == 1

    def test_chain_replicas_independent(self):
        _, _, host = build(n_paths=3, chain="nat")
        nats = [p.chain.elements[2] for p in host.paths]  # fc, fw, nat, mon
        assert len({id(n) for n in nats}) == 3

    def test_invalid_n_paths(self):
        with pytest.raises(ValueError):
            MpdpConfig(n_paths=0)

    def test_controller_disabled(self):
        _, _, host = build(controller_interval=0.0)
        assert host.controller is None


class TestMpdpDataflow:
    def test_packets_flow_end_to_end(self):
        sim, rngs, host = build(policy="rr", n_paths=2)
        src = PoissonSource(
            sim, host.factory, host.input, rngs.stream("t"),
            rate_pps=100_000, duration=5_000.0,
        )
        src.start()
        sim.run(until=10_000.0)
        host.finalize()
        assert host.sink.delivered == src.stats.packets
        assert host.ingress_count == src.stats.packets
        assert host.sink.recorder.count > 0

    def test_conservation_no_loss_config(self):
        sim, rngs, host = build(policy="spray", n_paths=4)
        src = PoissonSource(
            sim, host.factory, host.input, rngs.stream("t"),
            rate_pps=200_000, duration=5_000.0,
        )
        src.start()
        sim.run(until=20_000.0)
        host.finalize()
        st = host.stats()
        assert st["delivered"] + sum(st["drops"].values()) + st["nic_drops"] == st["ingress"]

    def test_redundancy_conservation(self):
        sim, rngs, host = build(policy="redundant2", n_paths=4)
        src = PoissonSource(
            sim, host.factory, host.input, rngs.stream("t"),
            rate_pps=100_000, duration=5_000.0,
        )
        src.start()
        sim.run(until=20_000.0)
        host.finalize()
        st = host.stats()
        # Every ingress packet delivered exactly once; replicas suppressed.
        assert st["delivered"] == st["ingress"]
        assert st["suppressed"] == st["replicas"]
        assert host.dedup.outstanding == 0

    def test_chain_drops_counted(self):
        sim = Simulator()
        rngs = RngRegistry(9)
        chain = Chain([AclFirewall(rules=[AclRule(action="deny")])], name="denyall")
        host = MultipathDataPlane(
            sim, MpdpConfig(n_paths=2, policy="rr"), rngs, chain=chain
        )
        src = PoissonSource(
            sim, host.factory, host.input, rngs.stream("t"),
            rate_pps=100_000, duration=1_000.0,
        )
        src.start()
        sim.run(until=5_000.0)
        host.finalize()
        assert host.sink.delivered == 0
        assert sum(host.drops.values()) == src.stats.packets

    def test_queue_overflow_under_overload(self):
        sim, rngs, host = build(
            policy="single",
            n_paths=1,
            path=PathConfig(queue_capacity=32),
        )
        # Offered load far above one path's ~1 Mpps capacity.
        src = PoissonSource(
            sim, host.factory, host.input, rngs.stream("t"),
            rate_pps=5_000_000, duration=5_000.0,
        )
        src.start()
        sim.run(until=10_000.0)
        host.finalize()
        st = host.stats()
        assert st["drops"].get("queue:overflow", 0) > 0

    def test_cpu_accounting_positive(self):
        sim, rngs, host = build(policy="rr")
        src = PoissonSource(
            sim, host.factory, host.input, rngs.stream("t"),
            rate_pps=100_000, duration=2_000.0,
        )
        src.start()
        sim.run(until=10_000.0)
        host.finalize()
        assert host.total_cpu_time() > 0
        assert host.cpu_per_delivered() > 0

    def test_redundancy_costs_more_cpu(self):
        def cpu_per_pkt(policy):
            sim, rngs, host = build(policy=policy, seed=11)
            src = PoissonSource(
                sim, host.factory, host.input, rngs.stream("t"),
                rate_pps=100_000, duration=5_000.0,
            )
            src.start()
            sim.run(until=20_000.0)
            host.finalize()
            return host.cpu_per_delivered()

        assert cpu_per_pkt("redundant2") > 1.3 * cpu_per_pkt("rr")

    def test_deterministic_given_seed(self):
        def run():
            sim, rngs, host = build(policy="adaptive", seed=42,
                                    path=PathConfig(jitter=SHARED_CORE))
            src = PoissonSource(
                sim, host.factory, host.input, rngs.stream("t"),
                rate_pps=300_000, duration=10_000.0,
            )
            src.start()
            sim.run(until=15_000.0)
            host.finalize()
            return (host.sink.delivered, host.sink.recorder.mean,
                    host.total_cpu_time())

        assert run() == run()

    def test_stats_snapshot_keys(self):
        sim, rngs, host = build(policy="spray")
        src = PoissonSource(
            sim, host.factory, host.input, rngs.stream("t"),
            rate_pps=50_000, duration=1_000.0,
        )
        src.start()
        sim.run(until=5_000.0)
        host.finalize()
        st = host.stats()
        for key in ("ingress", "delivered", "cpu_time", "path_completed", "reorder"):
            assert key in st


class TestPacketBooks:
    def test_books_close_with_packets_in_service(self):
        # Path 3 ends this run with 17 packets taken by its poller whose
        # service ends after the horizon; path_depth must still count them.
        from repro import ScenarioConfig, run

        st = run(ScenarioConfig(policy="redundant2", load=0.8, n_paths=4,
                                duration=4000, warmup=400, drain=1000,
                                seed=2015431560)).stats
        supplied = st["ingress"] + st["replicas"]
        accounted = (st["delivered"] + st["suppressed"]
                     + sum(st["drops"].values()) + st["nic_drops"]
                     + st.get("fault_drops", 0) + sum(st["path_depth"]))
        assert supplied == accounted
        assert st["path_depth"] == [0, 0, 0, 17]
