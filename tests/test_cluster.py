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

    def test_host_config_rejects_warmup_past_duration(self):
        h = HostConfig(scenario=small_scenario(duration=6_000.0,
                                               warmup=10_000.0))
        with pytest.raises(ValueError, match="10000.0 µs.*6000.0 µs"):
            h.validate()
        with pytest.raises(ValueError, match="hosts\\[0\\].*warmup"):
            ClusterConfig(hosts=[h]).validate()

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

    def test_with_overrides_names(self):
        base = small_cluster(2)
        cfg = base.with_overrides({"load": 0.7, "fabric.n_spines": 8,
                                   "pattern": "incast", "seed": 9,
                                   "hosts": 3})
        assert [h.scenario.load for h in cfg.hosts] == [0.7] * 3
        assert [h.name for h in cfg.hosts] == ["host0", "host1", "host2"]
        assert (cfg.fabric.n_spines, cfg.pattern, cfg.seed) == (8, "incast", 9)
        assert base.to_dict() == small_cluster(2).to_dict()  # untouched

    def test_hosts_override_refuses_heterogeneous_base(self):
        base = ClusterConfig(hosts=[
            HostConfig(scenario=small_scenario(load=0.3), name="a"),
            HostConfig(scenario=small_scenario(load=0.8, policy="hash"),
                       name="b"),
        ])
        with pytest.raises(ValueError, match="differ in scenario.*host list"):
            base.with_overrides({"hosts": 2})
        # Without a 'hosts' override a heterogeneous base is fine.
        cfg = base.with_overrides({"seed": 7})
        assert [h.scenario.load for h in cfg.hosts] == [0.3, 0.8]

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

    @pytest.mark.parametrize("steering,jitter,loss", [
        ("ecmp", 0.0, 0.0), ("ecmp", 2.0, 0.0), ("ecmp", 0.0, 0.05),
        ("ecmp", 2.0, 0.05), ("flowlet", 2.0, 0.05)])
    def test_columns_match_per_packet_transit(self, steering, jitter, loss):
        """The columnar steering phase 1 uses gives, value for value and
        draw for draw, what per-packet ``transit`` gives, across several
        512-draw jitter batches."""
        import numpy as np

        cfg = FabricConfig(n_spines=4, spine_skew=3.0, jitter_scale=jitter,
                           loss_prob=loss, steering=steering,
                           flowlet_gap=2.0)
        gen = np.random.default_rng(5)
        flows = gen.integers(0, 40, 3_000)
        times = np.cumsum(gen.exponential(0.5, 3_000))
        one = FabricSteering(cfg, rng=np.random.default_rng(9))
        want = [one.transit(2, f, t)
                for f, t in zip(flows.tolist(), times.tolist())]
        cols = FabricSteering(cfg, rng=np.random.default_rng(9))
        got = []
        for lo in range(0, 3_000, 700):  # chunks off the batch grid
            spine, delay, lost = cols.transit_columns(
                2, flows[lo:lo + 700], times[lo:lo + 700])
            got.extend(zip(spine.tolist(), delay.tolist(), lost.tolist()))
        assert got == want
        assert cols.by_spine == one.by_spine
        assert cols.rng.random() == one.rng.random()

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

    @staticmethod
    def _kill_host0_in(phase, monkeypatch, tmp_path, deadline):
        """Run 4 hosts on 2 workers, SIGKILL the worker of host 0 in
        ``phase``; return the error the run raised."""
        import tempfile

        from repro.cluster import ClusterExecutionError, engine

        name = f"_phase{phase}"
        original = getattr(engine, name)

        def killing(cluster, host_ids, *args):
            if 0 in host_ids:
                os.kill(os.getpid(), signal.SIGKILL)
            return original(cluster, host_ids, *args)

        monkeypatch.setattr(engine, name, killing)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        with deadline(10), pytest.raises(ClusterExecutionError) as info:
            run_cluster(small_cluster(4), workers=2)
        assert multiprocessing.active_children() == []
        assert list(tmp_path.iterdir()) == []  # egress files removed
        return str(info.value)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the patched phase reaches the workers only through fork")
    def test_killed_worker_is_named(self, monkeypatch, tmp_path, deadline):
        assert self._kill_host0_in(2, monkeypatch, tmp_path, deadline) == (
            f"cluster worker for hosts [0, 1] died in phase 2 "
            f"(exit code {-signal.SIGKILL})")

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the patched phase reaches the workers only through fork")
    def test_killed_phase1_worker_is_named(self, monkeypatch, tmp_path,
                                           deadline):
        assert self._kill_host0_in(1, monkeypatch, tmp_path, deadline) == (
            f"cluster worker for hosts [0, 1] died in phase 1 "
            f"(exit code {-signal.SIGKILL})")

    def test_workers_prime_capacity_in_parent(self, monkeypatch):
        from repro.bench import scenarios

        cc = small_cluster(2)
        want = payload(run_cluster(cc, workers=1))
        monkeypatch.setattr(scenarios, "_CAPACITY_CACHE", {})
        assert payload(run_cluster(cc, workers=2)) == want
        s = cc.hosts[0].scenario
        assert list(scenarios._CAPACITY_CACHE) == [
            (s.chain, s.packet_size, s.n_flows)]


class TestEgressContract:
    """A host's egress never depends on its ingress.

    This is the premise of the two-phase map: phase 2 replays each
    host's ingress without running its source or router, so everything
    phase 1 wrote and counted for a host must hold whether the host's
    ingress is replayed in full or dropped.
    """

    CLUSTERS = {
        "ecmp-uniform": lambda: small_cluster(
            4, fabric=FabricConfig(steering="ecmp"), seed=15),
        "flowlet-lossy-incast": lambda: small_cluster(
            4, fabric=FabricConfig(steering="flowlet", loss_prob=0.01,
                                   jitter_scale=2.0),
            pattern="incast", incast_target=2, seed=16),
    }

    @staticmethod
    def _files(egress_dir):
        return {p.name: p.read_bytes() for p in egress_dir.iterdir()}

    @pytest.mark.parametrize("name", sorted(CLUSTERS))
    def test_dropping_ingress_keeps_egress_identical(self, name, tmp_path):
        import numpy as np

        from repro.cluster import engine
        from repro.dataplane.boundary import ENVELOPE_DTYPE

        cc = self.CLUSTERS[name]()
        full, dropped = tmp_path / "full", tmp_path / "dropped"
        full.mkdir()
        egress = engine._phase1(cc, range(cc.n_hosts), str(full))
        end = engine._run_end(cc, egress)
        counts = {hid: e[1] for hid, e in egress.items()}
        opts = {"telemetry_dir": None, "check": True, "forensics": None}
        written = self._files(full)
        received = 0
        for hid in range(cc.n_hosts):
            # The same files, less every envelope addressed to ``hid``.
            dropped.mkdir()
            for fname, data in written.items():
                src, dst = map(int, fname[:-len(".env")].split("-"))
                if dst != hid or src == hid:
                    (dropped / fname).write_bytes(data)
            fed = engine._phase2(cc, [hid], end, counts, str(full), opts)
            alone = engine._phase2(cc, [hid], end, counts, str(dropped),
                                   opts)
            assert self._files(full) == written  # phase 2 writes nothing
            fed, alone = fed[hid]["router"], alone[hid]["router"]
            assert alone["received"] == alone["fabric_dropped"] == {}
            received += sum(fed["received"].values())
            for key in ("generated", "local", "sent", "by_spine"):
                assert fed[key] == alone[key], (hid, key)
            sent = {str(dst): len(np.fromfile(
                engine._egress_path(str(full), hid, dst),
                dtype=ENVELOPE_DTYPE)) for dst in range(cc.n_hosts)
                if dst != hid and f"{hid}-{dst}.env" in written}
            assert fed["sent"] == sent, f"host {hid}"
            for path in dropped.iterdir():
                path.unlink()
            dropped.rmdir()
        assert received > 0  # the ingress really was there to drop


class TestPhaseOneChecks:
    def test_envelope_under_the_lookahead_is_named(self, monkeypatch,
                                                   tmp_path):
        from repro.cluster import engine
        from repro.sim import SimulationError

        transit = FabricSteering.transit_columns

        def too_fast(self, src_host, flow_ids, times):
            spine, delay, lost = transit(self, src_host, flow_ids, times)
            return spine, delay * 0.5, lost

        monkeypatch.setattr(FabricSteering, "transit_columns", too_fast)
        cc = small_cluster(2, seed=3)
        with pytest.raises(SimulationError,
                           match=r"envelope 0 from host 0 to host 1 "
                                 r"arrives [0-9.]+µs after it was sent, "
                                 r"under the 50\.0µs lookahead"):
            engine._phase1(cc, [0], str(tmp_path))

    def test_each_source_runs_once(self, monkeypatch):
        """Every host's source emits exactly ``generated`` packets over
        both phases: all of them in phase 1, none in phase 2."""
        from repro.bench import scenarios

        emitted = {}
        make_source = scenarios._make_source

        def counting(sim, factory, rngs, cfg, tracker, sink):
            src = make_source(sim, factory, rngs, cfg, tracker, sink)
            emitted.setdefault(cfg.seed, []).append(src.stats)
            return src

        monkeypatch.setattr(scenarios, "_make_source", counting)
        cc = small_cluster(3, pattern="incast", incast_target=1, seed=5)
        res = run_cluster(cc, workers=1)
        for h in res.hosts:
            seed = derived_host_seed(cc.seed, h["host_id"],
                                     cc.hosts[h["host_id"]].scenario.seed)
            (stats,) = emitted.pop(seed)
            assert stats.packets == h["router"]["generated"] == h["offered"]
        assert emitted == {}


class TestClusterDifferential:
    """Seeded draws of small clusters: one and two workers give the same
    payload digest, with per-host and cross-host conservation armed."""

    @staticmethod
    def _draw(rng):
        n = int(rng.integers(2, 6))
        fabric = FabricConfig(steering=str(rng.choice(["ecmp", "flowlet"])),
                              loss_prob=float(rng.uniform(0.0, 0.05)),
                              jitter_scale=float(rng.choice([0.0, 2.0])))
        pattern = str(rng.choice(["uniform", "incast"]))
        host = small_scenario(load=float(rng.uniform(0.2, 0.8)),
                              duration=1_500.0, warmup=100.0, drain=500.0,
                              seed=int(rng.integers(1000)))
        return ClusterConfig.uniform_hosts(
            n, host, fabric, pattern=pattern,
            incast_target=int(rng.integers(n)), seed=int(rng.integers(1000)))

    def test_workers_agree(self):
        import hashlib

        import numpy as np

        rng = np.random.default_rng(2026)
        for _ in range(10):
            cc = self._draw(rng)
            digests = []
            for workers in (1, 2):
                res = run_cluster(cc, workers=workers, check=True)
                assert res.cluster["conservation"]["ok"]
                digests.append(hashlib.sha256(
                    payload(res).encode()).hexdigest())
            assert digests[0] == digests[1], cc.to_dict()


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
        assert repro.schemas.infer_kind(data) == "sweep_result"
        assert len(data["cells"]) == 2

    def test_cluster_sweep_alias_warns_and_matches_run_cluster(
            self, capsys, tmp_path, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        out = tmp_path / "cs.json"
        rc = main(["cluster", "sweep", "--hosts", "2", "--duration", "12",
                   "--axis", "policy=single,adaptive", "--quiet",
                   "--out", str(out)])
        assert rc == 0
        err = capsys.readouterr().err
        assert err.count("deprecated") == 1 and "repro sweep --spec" in err
        sr = repro.sweep.SweepResult.load(str(out))
        for cell in sr.cells:
            want = run_cluster(ClusterConfig.from_dict(cell.config),
                               workers=1)
            assert cell.summary.to_dict() == want.summary.to_dict()
            assert cell.delivered == want.cluster["delivered"]
            assert cell.offered == want.cluster["offered"]
            # Like the loop it replaces, the alias keeps n_paths for
            # policy=single.
            assert want.config.hosts[0].scenario.n_paths == 4

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
