"""Tests for repro.cluster: configs, routing, conservation, determinism.

The two load-bearing guarantees pinned here:

* **bit-identity** -- the serialized ``ClusterResult`` is a pure
  function of the config; ``workers=1`` and ``workers=4`` must produce
  byte-identical payloads (shard placement is an execution detail);
* **exact conservation** -- every envelope a host sends is either
  received or accounted as a fabric drop at its destination, even when
  the fabric is lossy and envelopes straddle epoch boundaries.
"""

import json
import multiprocessing
import os
import signal

import pytest

import repro
from repro.bench.scenarios import ScenarioConfig
from repro.cluster import (
    ClusterConfig,
    ClusterResult,
    HostConfig,
    derived_host_seed,
    merge_summaries,
    partition_hosts,
    resolve_workers,
    run_cluster,
)
from repro.net.fabric import FabricConfig, FabricSteering, _mix64
from repro.net.packet import Packet


def small_scenario(**kw):
    """A fast host scenario: enough packets for stable accounting."""
    base = dict(policy="adaptive", n_paths=4, load=0.4,
                duration=4_000.0, warmup=500.0, drain=1_500.0)
    base.update(kw)
    return ScenarioConfig(**base)


def small_cluster(n_hosts=3, fabric=None, **kw):
    return ClusterConfig.uniform_hosts(
        n_hosts, small_scenario(), fabric or FabricConfig(), **kw)


def payload(result):
    return json.dumps(result.to_dict(), sort_keys=True)


# ----------------------------------------------------------------------
# Configs: validate / round-trip / schemas
# ----------------------------------------------------------------------
class TestConfigs:
    def test_fabric_round_trip(self):
        f = FabricConfig(n_spines=8, base_latency=25.0, spine_skew=2.0,
                         jitter_scale=1.0, steering="flowlet",
                         loss_prob=0.01)
        assert FabricConfig.from_dict(f.to_dict()) == f
        assert repro.schemas.infer_kind(f.to_dict()) == "fabric_config"

    def test_fabric_validate_errors(self):
        with pytest.raises(ValueError, match="n_spines"):
            FabricConfig(n_spines=0).validate()
        with pytest.raises(ValueError, match="lookahead"):
            FabricConfig(base_latency=0.0).validate()
        with pytest.raises(ValueError, match="steering"):
            FabricConfig(steering="hash").validate()
        with pytest.raises(ValueError, match="loss_prob"):
            FabricConfig(loss_prob=1.0).validate()

    def test_fabric_unknown_field(self):
        with pytest.raises(ValueError, match="unknown FabricConfig"):
            FabricConfig.from_dict({"n_lanes": 4})

    def test_host_config_round_trip(self):
        h = HostConfig(scenario=small_scenario(), name="h7")
        h2 = HostConfig.from_dict(h.to_dict())
        assert h2.name == "h7"
        assert h2.scenario.to_dict() == h.scenario.to_dict()
        assert repro.schemas.infer_kind(h.to_dict()) == "host_config"

    def test_host_config_rejects_flows_traffic(self):
        h = HostConfig(scenario=small_scenario(traffic="flows"))
        with pytest.raises(ValueError, match="flows"):
            h.validate()

    def test_cluster_round_trip_and_kind(self):
        cc = small_cluster(pattern="incast", incast_target=1, seed=9)
        d = cc.to_dict()
        assert repro.schemas.infer_kind(d) == "cluster_config"
        cc2 = ClusterConfig.from_dict(json.loads(json.dumps(d)))
        assert cc2.to_dict() == d

    def test_cluster_validate_errors(self):
        with pytest.raises(ValueError, match="at least one host"):
            ClusterConfig(hosts=[]).validate()
        with pytest.raises(ValueError, match="hosts\\[1\\]"):
            ClusterConfig(hosts=[
                HostConfig(scenario=small_scenario()),
                HostConfig(scenario=small_scenario(traffic="flows")),
            ]).validate()
        with pytest.raises(ValueError, match="incast_target"):
            small_cluster(pattern="incast", incast_target=5).validate()
        with pytest.raises(ValueError, match="pattern"):
            small_cluster(pattern="ring").validate()

    def test_lookahead_contract_enforced(self):
        # The epoch may never exceed the fabric's minimum wire latency.
        cc = small_cluster(epoch=80.0,
                           fabric=FabricConfig(base_latency=50.0))
        with pytest.raises(ValueError, match="lookahead"):
            cc.validate()
        # At or below the lookahead it is legal.
        small_cluster(epoch=50.0).validate()

    def test_uniform_hosts_copies_template(self):
        template = small_scenario()
        cc = ClusterConfig.uniform_hosts(2, template)
        cc.hosts[0].scenario.load = 0.9
        assert template.load == 0.4
        assert cc.hosts[1].scenario.load == 0.4
        assert [h.name for h in cc.hosts] == ["host0", "host1"]

    def test_derived_host_seed_stable_and_decorrelated(self):
        s = derived_host_seed(42, 0, 42)
        assert s == derived_host_seed(42, 0, 42)  # pure function
        assert s != derived_host_seed(42, 1, 42)  # per-host
        assert s != derived_host_seed(43, 0, 42)  # per-cluster


# ----------------------------------------------------------------------
# Fabric steering
# ----------------------------------------------------------------------
class TestFabricSteering:
    def test_ecmp_is_sticky_and_process_stable(self):
        import numpy as np

        st = FabricSteering(FabricConfig(n_spines=4),
                            rng=np.random.default_rng(0))
        picks = {st.transit(0, 7, t)[0] for t in (0.0, 10.0, 20.0)}
        assert len(picks) == 1  # same flow, same spine
        # splitmix64 is a pure function: stable across processes.
        assert _mix64(3, 11) == _mix64(3, 11)

    @pytest.mark.parametrize("n_spines", [1, 2, 3, 4, 7, 16])
    def test_memoized_ecmp_spine_matches_hash(self, n_spines):
        st = FabricSteering(FabricConfig(n_spines=n_spines))
        for src in range(3):
            for flow in range(0, 5_000_000, 4_999):
                want = _mix64(src, flow) % n_spines
                assert st.transit(src, flow, 0.0)[0] == want  # computes
                assert st.transit(src, flow, 1.0)[0] == want  # memoized

    def test_delay_never_below_lookahead(self):
        import numpy as np

        cfg = FabricConfig(n_spines=4, base_latency=50.0, spine_skew=5.0,
                           jitter_scale=20.0)
        st = FabricSteering(cfg, rng=np.random.default_rng(1))
        for flow in range(200):
            _, delay, _ = st.transit(0, flow, 0.0)
            assert delay >= cfg.min_latency()


# ----------------------------------------------------------------------
# Sharding plumbing
# ----------------------------------------------------------------------
class TestSharding:
    def test_partition_hosts_balanced_and_contiguous(self):
        assert partition_hosts(4, 2) == [[0, 1], [2, 3]]
        assert partition_hosts(5, 2) == [[0, 1, 2], [3, 4]]
        assert partition_hosts(2, 8) == [[0], [1]]
        assert sum(partition_hosts(7, 3), []) == list(range(7))

    def test_resolve_workers_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CLUSTER_WORKERS", "2")
        assert resolve_workers(None, 8) == 2
        monkeypatch.delenv("REPRO_CLUSTER_WORKERS")
        assert resolve_workers(3, 8) == 3
        assert resolve_workers(16, 4) == 4  # capped at host count


# ----------------------------------------------------------------------
# Conservation + determinism (the tentpole guarantees)
# ----------------------------------------------------------------------
class TestClusterRun:
    def test_uniform_conservation_exact(self):
        res = run_cluster(small_cluster(3), workers=1, check=True)
        cons = res.cluster["conservation"]
        assert cons["ok"]
        assert cons["envelopes_sent"] == cons["envelopes_received"] > 0
        assert cons["fabric_dropped"] == 0
        # Per-host egress identity: generated == local + sent.
        for h in res.hosts:
            r = h["router"]
            assert r["generated"] == r["local"] + sum(r["sent"].values())

    def test_lossy_fabric_conservation(self):
        # Drops are accounted at the receiver, so the identity stays
        # exact: sent == received + fabric_dropped.
        cc = small_cluster(3, fabric=FabricConfig(loss_prob=0.05))
        res = run_cluster(cc, workers=1, check=True)
        cons = res.cluster["conservation"]
        assert cons["ok"]
        assert cons["fabric_dropped"] > 0
        assert cons["envelopes_sent"] == (cons["envelopes_received"]
                                          + cons["fabric_dropped"])

    def test_workers_1_vs_4_bit_identical(self):
        cc = small_cluster(4)
        r1 = run_cluster(cc, workers=1)
        r4 = run_cluster(cc, workers=4)
        assert r1.workers == 1 and r4.workers == 4
        assert payload(r1) == payload(r4)

    def test_seed_changes_payload(self):
        cc = small_cluster(2)
        base = payload(run_cluster(cc, workers=1))
        cc2 = small_cluster(2, seed=43)
        assert payload(run_cluster(cc2, workers=1)) != base

    def test_incast_routes_to_target(self):
        cc = small_cluster(3, pattern="incast", incast_target=1)
        res = run_cluster(cc, workers=1, check=True)
        target = res.hosts[1]["router"]
        # The target keeps its own traffic local and sends nothing out.
        assert sum(target["sent"].values()) == 0
        assert target["local"] == target["generated"] > 0
        # Every sender directs all its traffic at the target.
        for hid in (0, 2):
            r = res.hosts[hid]["router"]
            assert r["local"] == 0
            assert set(r["sent"]) == {"1"}
        assert sum(int(v) for v in target["received"].values()) > 0

    def test_flowlet_steering_runs_and_conserves(self):
        cc = small_cluster(
            2, fabric=FabricConfig(steering="flowlet", flowlet_gap=30.0,
                                   spine_skew=5.0))
        res = run_cluster(cc, workers=1, check=True)
        assert res.cluster["conservation"]["ok"]
        # Multiple spines actually used somewhere.
        used = set()
        for h in res.hosts:
            used.update(h["router"]["by_spine"])
        assert len(used) > 1

    def test_cluster_result_round_trip(self):
        res = run_cluster(small_cluster(2), workers=1)
        d = json.loads(json.dumps(res.to_dict()))
        assert repro.schemas.infer_kind(d) == "cluster_result"
        res2 = ClusterResult.from_dict(d)
        assert res2.n_hosts == 2
        assert res2.summary.count == res.summary.count
        assert res2.to_dict() == res.to_dict()

    def test_merged_summary_pools_hosts(self):
        res = run_cluster(small_cluster(2), workers=1)
        per_host = [h["summary"]["count"] for h in res.hosts]
        assert res.summary.count == sum(per_host)
        assert res.cluster["delivered"] == sum(h["delivered"]
                                               for h in res.hosts)

    def test_merge_summaries_empty(self):
        s = merge_summaries([], [])
        assert s.count == 0

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the patched shard reaches the workers only through fork")
    def test_killed_worker_is_named(self, monkeypatch):
        from repro.cluster import ClusterExecutionError, engine

        cc = small_cluster(4)
        kill_at = 2 * cc.epoch_length()
        original = engine._Shard.run_epoch

        def run_epoch(shard, end, incoming):
            if 0 in shard.host_ids and end >= kill_at:
                os.kill(os.getpid(), signal.SIGKILL)
            return original(shard, end, incoming)

        monkeypatch.setattr(engine._Shard, "run_epoch", run_epoch)
        with pytest.raises(ClusterExecutionError) as info:
            run_cluster(cc, workers=2)
        assert str(info.value) == (
            f"cluster worker for shard 0 (hosts [0, 1]) died in the epoch "
            f"ending at t={kill_at:.3f}us (exit code {-signal.SIGKILL})")
        assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# repro.run() dispatch + v1 surface
# ----------------------------------------------------------------------
class TestRunDispatch:
    def test_run_accepts_cluster_config(self):
        res = repro.run(small_cluster(2), repro.RunOptions(workers=1))
        assert isinstance(res, repro.ClusterResult)
        assert res.workers == 1

    def test_run_cluster_rejects_faults_slo_options(self):
        with pytest.raises(ValueError, match="host's ScenarioConfig"):
            repro.run(small_cluster(2),
                      repro.RunOptions(slo=repro.SloSpec(
                          objectives=("p99 <= 500us",))))

    def test_run_cluster_rejects_legacy_kwargs(self):
        with pytest.raises(TypeError, match="cluster"):
            repro.run(small_cluster(2), telemetry=repro.Telemetry())

    def test_run_cluster_rejects_telemetry_object(self):
        with pytest.raises(TypeError, match="directory path"):
            repro.run(small_cluster(2),
                      repro.RunOptions(telemetry=repro.Telemetry()))

    def test_run_overrides_apply_to_cluster(self):
        res = repro.run(small_cluster(2), repro.RunOptions(workers=1),
                        seed=99)
        assert res.config.seed == 99

    def test_v1_surface(self):
        for name in ("run", "ScenarioConfig", "ClusterConfig",
                     "HostConfig", "FabricConfig", "RunOptions",
                     "SimulationResult", "ClusterResult", "run_cluster",
                     "run_sweep"):
            assert name in repro.__all__
            assert hasattr(repro, name)
        assert repro.__version__.split(".")[0] == "2"

    def test_cluster_telemetry_bundle(self, tmp_path):
        out = tmp_path / "bundle"
        res = repro.run(small_cluster(2),
                        repro.RunOptions(workers=1, telemetry=str(out)))
        man = json.loads((out / "manifest.json").read_text())
        assert man["kind"] == "cluster_bundle"
        assert len(man["hosts"]) == 2
        for hid in range(2):
            assert (out / f"host{hid}" / "events.jsonl").exists()
        assert res.n_hosts == 2


# ----------------------------------------------------------------------
# Engine hooks on the simulator
# ----------------------------------------------------------------------
class TestExternalEvents:
    def test_external_event_below_floor_raises(self):
        from repro.sim import SimulationError, Simulator

        sim = Simulator()
        sim.run_epoch(100.0)
        with pytest.raises(SimulationError):
            sim.external_event(99.0, lambda: None)
        fired = []
        sim.external_event(100.0, fired.append, 1)
        sim.run_epoch(200.0)
        assert fired == [1]


class TestBatchInjection:
    """``Simulator.external_events`` against per-item ``external_event``."""

    ITEMS = [(100.0, "a"), (100.0, "b"), (125.5, "c"), (180.0, "d"),
             (180.0, "e"), (199.9, "f")]

    def _pair(self):
        from repro.sim import Simulator

        sims = []
        for _ in range(2):
            sim = Simulator()
            sim.call_at(150.0, lambda: None)  # an entry already queued
            sim.run_epoch(100.0)
            sims.append(sim)
        return sims

    def test_same_entries_as_per_item_calls(self):
        one, batch = self._pair()
        fired = {id(one): [], id(batch): []}
        for item in self.ITEMS:
            one.external_event(item[0], fired[id(one)].append, item)
        batch.external_events(fired[id(batch)].append, self.ITEMS, 0)
        assert batch._seq == one._seq

        def entries(sim):  # time, ordering key and args match
            return [(e[0], e[1], e[3]) for e in sorted(sim._heap)]
        assert entries(batch) == entries(one)
        for sim in (one, batch):
            sim.run_epoch(300.0)
        assert fired[id(batch)] == fired[id(one)] == self.ITEMS
        assert batch.processed_count == one.processed_count

    def test_lookahead_violation_raises(self):
        from repro.sim import SimulationError, Simulator

        sim = Simulator()
        sim.run_epoch(100.0)
        with pytest.raises(SimulationError, match="lookahead"):
            sim.external_events(print, [(99.0,), (150.0,)], 0)
        assert sim.pending_count == 0
        sim.external_events(print, [], 0)  # an empty batch is a no-op
        assert sim._seq == 0

    def test_sequence_space_guard(self):
        from repro.sim import SimulationError, Simulator
        from repro.sim.engine import _SEQ_MAX

        sim = Simulator()
        sim._seq = _SEQ_MAX - 1
        with pytest.raises(SimulationError,
                           match="sequence space exhausted"):
            sim.external_events(print, [(1.0,), (2.0,)], 0)
        assert sim.pending_count == 0 and sim._seq == _SEQ_MAX - 1
        sim.external_events(print, [(1.0,)], 0)  # exactly fits
        assert sim._seq == _SEQ_MAX


class TestPooledDecode:
    """``decode_envelope`` from the free list against ``make()``."""

    def _envelopes(self):
        from repro.dataplane.boundary import encode_envelope
        from repro.net.packet import FiveTuple, PacketFactory

        src = PacketFactory()
        envs = []
        for i in range(6):
            pkt = src.make(FiveTuple(1, 2, 1024 + i, 80), 64 + i, 3.5 * i,
                           flow_id=i % 3, seq=i, priority=i % 2)
            envs.append(encode_envelope(pkt, 1, 2, i, 10.0 * i,
                                        10.0 * i + 50.0, i % 4, False))
        return envs

    def test_pool_hits_match_fresh_packets(self):
        from repro.dataplane.boundary import decode_envelope
        from repro.net.packet import FiveTuple, PacketFactory

        fresh, pooled = PacketFactory(), PacketFactory()
        for factory in (fresh, pooled):
            factory.make(FiveTuple(9, 9, 9, 9), 100, 0.0)  # pids in use
        for i in range(3):  # dirty carcasses on the free list
            dead = pooled.make(FiveTuple(7, 7, 7, 7), 1500, 1.0, flow_id=99)
            dead.t_nic = dead.t_enq = dead.t_deq = dead.t_done = 2.0
            dead.path_id, dead.copy_of = 3, 5
            dead.dropped, dead.meta = "q:overflow", {"x": i}
            pooled.recycle(dead)
        fresh._next_pid = pooled._next_pid
        fresh.created = pooled.created
        for env in self._envelopes():
            want = decode_envelope(env, fresh)
            reused = pooled.free[-1] if pooled.free else None
            got = decode_envelope(env, pooled)
            if reused is not None:
                assert got is reused
            for field in Packet.__slots__:
                a, b = getattr(got, field), getattr(want, field)
                assert a == b or (a != a and b != b), field  # nan == nan
            assert (pooled._next_pid, pooled.created) == (
                fresh._next_pid, fresh.created)
        assert not pooled.free


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestClusterCli:
    def test_cluster_run_inline(self, capsys, tmp_path):
        from repro.cli import main

        out = tmp_path / "cr.json"
        rc = main(["cluster", "run", "--hosts", "2", "--duration", "12",
                   "--check", "--jobs", "1", "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "cluster" in text and "conservation: ok" in text
        data = json.loads(out.read_text())
        assert repro.schemas.infer_kind(data) == "cluster_result"

    def test_cluster_sweep_inline(self, capsys, tmp_path):
        from repro.cli import main

        out = tmp_path / "cs.json"
        rc = main(["cluster", "sweep", "--hosts", "2", "--duration", "12",
                   "--axis", "load=0.3,0.5", "--quiet", "--jobs", "1",
                   "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert repro.schemas.infer_kind(data) == "cluster_sweep"
        assert len(data["cells"]) == 2

    def test_cluster_run_bad_spec_exit_2(self, capsys, tmp_path):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"hosts": [], "fabric": {},
                                   "pattern": "uniform"}))
        assert main(["cluster", "run", "--spec", str(bad)]) == 2
        assert "at least one host" in capsys.readouterr().err

    def test_report_on_cluster_bundle_exit_2(self, capsys, tmp_path):
        from repro.cli import main

        out = tmp_path / "bundle"
        repro.run(small_cluster(2),
                  repro.RunOptions(workers=1, telemetry=str(out)))
        assert main(["report", str(out)]) == 2
        err = capsys.readouterr().err
        assert "cluster bundle" in err and "host0" in err
        # Pointing at the per-host bundle works.
        assert main(["report", str(out / "host0")]) == 0

    def test_report_on_empty_dir_exit_2(self, capsys, tmp_path):
        from repro.cli import main

        assert main(["report", str(tmp_path)]) == 2
        assert "not instrumented" in capsys.readouterr().err

    def test_why_on_directory_exit_2(self, capsys, tmp_path):
        from repro.cli import main

        assert main(["why", str(tmp_path)]) == 2
        assert "repro report" in capsys.readouterr().err
