"""Sweep subsystem tests: spec expansion, serialization round-trips,
parallel/serial bit-identity, cache-hit identity, and seed derivation.

The determinism contract under test is the headline one: a sweep's
per-cell results are a pure function of the spec -- the same whether the
sweep runs serially, across a worker pool, twice in a row, or out of the
content-hash cache.
"""

import json
import multiprocessing
import os
import signal

import pytest

import repro
from repro.bench.scenarios import ScenarioConfig
from repro.sweep import (
    Axis,
    ResultCache,
    SweepResult,
    SweepSpec,
    canonical_json,
    coerce_field_value,
    derive_seed,
    run_sweep,
)

#: A fast base: tiny durations keep each cell ~0.1 s.
TINY = dict(chain="basic", duration=2_000.0, warmup=300.0, drain=2_000.0,
            n_flows=32)


def tiny_spec(**kw):
    defaults = dict(
        name="test-sweep",
        base=dict(TINY),
        axes=[Axis("load", [0.3, 0.6]), Axis("policy", ["single", "adaptive"])],
    )
    defaults.update(kw)
    return SweepSpec(**defaults)


def tiny_cluster_spec(**kw):
    """The same grid over a 2-host cluster base."""
    from repro.cluster import ClusterConfig

    base = ClusterConfig.uniform_hosts(2, ScenarioConfig(**TINY))
    return tiny_spec(base=base.to_dict(), **kw)


class TestSpecExpansion:
    def test_row_major_order_and_cell_count(self):
        spec = tiny_spec()
        assert spec.n_cells == 4
        cells = spec.expand()
        assert [c.params for c in cells] == [
            {"load": 0.3, "policy": "single"},
            {"load": 0.3, "policy": "adaptive"},
            {"load": 0.6, "policy": "single"},
            {"load": 0.6, "policy": "adaptive"},
        ]
        assert [c.index for c in cells] == [0, 1, 2, 3]

    def test_single_policy_gets_one_path(self):
        cells = tiny_spec().expand()
        by_policy = {c.params["policy"]: c.config_dict for c in cells}
        assert by_policy["single"]["n_paths"] == 1
        assert by_policy["adaptive"]["n_paths"] == 4

    def test_single_path_baseline_off(self):
        cells = tiny_spec(single_path_baseline=False).expand()
        assert all(c.config_dict["n_paths"] == 4 for c in cells)

    def test_dict_values_couple_fields(self):
        spec = tiny_spec(axes=[
            Axis("k", [{"n_paths": k, "load": 0.8 / k} for k in (1, 2)],
                 labels=[1, 2]),
        ])
        cells = spec.expand()
        assert cells[0].params == {"k": 1}
        assert cells[0].config_dict["n_paths"] == 1
        assert cells[0].config_dict["load"] == 0.8
        assert cells[1].config_dict["load"] == 0.4

    def test_bad_field_fails_at_expand(self):
        spec = tiny_spec(axes=[Axis("frobnicate", [1, 2])])
        with pytest.raises(ValueError, match="frobnicate"):
            spec.expand()

    def test_bad_value_fails_at_expand(self):
        spec = tiny_spec(axes=[Axis("policy", ["single", "warp-drive"])])
        with pytest.raises(ValueError, match="warp-drive"):
            spec.expand()

    def test_duplicate_axis_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            tiny_spec(axes=[Axis("load", [0.1]), Axis("load", [0.2])])

    def test_label_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            Axis("load", [0.1, 0.2], labels=["a"])

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            Axis("load", [])


class TestSeedDerivation:
    def test_fixed_mode_shares_base_seed(self):
        cells = tiny_spec(base=dict(TINY, seed=77)).expand()
        assert {c.config_dict["seed"] for c in cells} == {77}

    def test_derived_mode_distinct_and_stable(self):
        spec = tiny_spec(base=dict(TINY, seed=77), seed_mode="derived")
        seeds = [c.config_dict["seed"] for c in spec.expand()]
        assert len(set(seeds)) == 4  # distinct per cell
        assert seeds == [c.config_dict["seed"] for c in spec.expand()]

    def test_derived_seed_survives_axis_growth(self):
        small = tiny_spec(seed_mode="derived",
                          axes=[Axis("load", [0.3]),
                                Axis("policy", ["single", "adaptive"])])
        big = tiny_spec(seed_mode="derived",
                        axes=[Axis("load", [0.3, 0.6]),
                              Axis("policy", ["single", "adaptive"])])
        small_seeds = {canonical_json(c.params): c.config_dict["seed"]
                       for c in small.expand()}
        big_seeds = {canonical_json(c.params): c.config_dict["seed"]
                     for c in big.expand()}
        for coords, seed in small_seeds.items():
            assert big_seeds[coords] == seed

    def test_derive_seed_is_31_bit(self):
        s = derive_seed(42, {"policy": "adaptive", "load": 0.7})
        assert 0 <= s < 2**31

    def test_bad_seed_mode_rejected(self):
        with pytest.raises(ValueError, match="seed_mode"):
            tiny_spec(seed_mode="chaotic")


class TestSpecSerialization:
    def test_round_trip_through_json(self):
        spec = tiny_spec(seed_mode="derived", single_path_baseline=False)
        data = json.loads(json.dumps(spec.to_dict()))
        back = SweepSpec.from_dict(data)
        assert back.to_dict() == spec.to_dict()
        assert [c.config_dict for c in back.expand()] == \
               [c.config_dict for c in spec.expand()]

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown SweepSpec"):
            SweepSpec.from_dict({"name": "x", "axs": []})

    def test_cli_value_coercion(self):
        assert coerce_field_value("load", "0.7") == 0.7
        assert coerce_field_value("n_paths", "4") == 4
        assert coerce_field_value("policy", "adaptive") == "adaptive"
        assert coerce_field_value("faults", "null") is None
        with pytest.raises(ValueError, match="frobnicate"):
            coerce_field_value("frobnicate", "1")
        with pytest.raises(ValueError, match="number"):
            coerce_field_value("load", "heavy")


class TestRunSweepDeterminism:
    def test_twice_and_across_jobs_bit_identical(self, tmp_path):
        # A cluster cell shards its hosts when run inline, and runs them
        # in its pool worker otherwise: the payload must not tell.
        for spec in (tiny_spec(), tiny_cluster_spec()):
            serial = run_sweep(spec, jobs=1, cache=False)
            again = run_sweep(spec, jobs=1, cache=False)
            pooled = run_sweep(spec, jobs=4, cache=False)
            assert serial.identity() == again.identity() == pooled.identity()
            assert pooled.jobs >= 1
            assert [c.index for c in pooled.cells] == [0, 1, 2, 3]

    def test_cache_hit_returns_identical_artifact(self, tmp_path):
        for spec in (tiny_spec(), tiny_cluster_spec()):
            root = str(tmp_path / spec.to_dict()["base"].get(
                "pattern", "scenario"))
            cold = run_sweep(spec, jobs=1, cache=True, cache_dir=root)
            warm = run_sweep(spec, jobs=1, cache=True, cache_dir=root)
            assert cold.cache_misses == 4 and cold.cache_hits == 0
            assert warm.cache_hits == 4 and warm.cache_misses == 0
            assert all(c.cached for c in warm.cells)
            assert warm.identity() == cold.identity()

    def test_partial_sweep_is_incremental(self, tmp_path):
        small = tiny_spec(axes=[Axis("load", [0.3]),
                                Axis("policy", ["single", "adaptive"])])
        run_sweep(small, jobs=1, cache=True, cache_dir=str(tmp_path))
        grown = run_sweep(tiny_spec(), jobs=1, cache=True,
                          cache_dir=str(tmp_path))
        assert grown.cache_hits == 2 and grown.cache_misses == 2

    def test_cache_key_tracks_config_content(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        a = cache.key_for(ScenarioConfig(**TINY).to_dict())
        b = cache.key_for(ScenarioConfig(**dict(TINY, load=0.9)).to_dict())
        assert a != b
        assert cache.key_for(ScenarioConfig(**TINY).to_dict()) == a

    def test_progress_reports_every_cell(self):
        seen = []
        run_sweep(tiny_spec(), jobs=1, cache=False,
                  progress=lambda done, total, cell: seen.append((done, total)))
        assert seen == [(1, 4), (2, 4), (3, 4), (4, 4)]


    def test_pool_primes_capacity_in_parent(self, monkeypatch):
        from repro.bench import scenarios

        spec = tiny_spec()
        want = run_sweep(spec, jobs=1, cache=False).identity()
        monkeypatch.setattr(scenarios, "_CAPACITY_CACHE", {})
        assert run_sweep(spec, jobs=2, cache=False).identity() == want
        assert list(scenarios._CAPACITY_CACHE) == [
            (TINY["chain"], ScenarioConfig().packet_size, TINY["n_flows"])]

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the patched cell reaches the workers only through fork")
    def test_killed_worker_is_named(self, monkeypatch, deadline):
        from repro.sweep import SweepExecutionError, orchestrator

        original = orchestrator._run_config_dict

        def killing(config_dict, *args):
            if config_dict["load"] == 0.8:
                os.kill(os.getpid(), signal.SIGKILL)
            return original(config_dict, *args)

        monkeypatch.setattr(orchestrator, "_run_config_dict", killing)
        spec = tiny_spec(axes=[Axis("load", [0.4, 0.8])])
        with deadline(10), pytest.raises(SweepExecutionError) as info:
            run_sweep(spec, jobs=2, cache=False)
        assert str(info.value) == (
            f"sweep worker died running cell 1 {{'load': 0.8}} "
            f"(exit code {-signal.SIGKILL})")
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the patched cell reaches the workers only through fork")
    def test_worker_exception_is_reraised(self, monkeypatch):
        from repro.sweep import orchestrator

        def failing(config_dict, *args):
            raise ValueError(f"bad cell at load {config_dict['load']}")

        monkeypatch.setattr(orchestrator, "_run_config_dict", failing)
        spec = tiny_spec(axes=[Axis("load", [0.4, 0.8])])
        with pytest.raises(ValueError, match="bad cell at load 0.[48]"):
            run_sweep(spec, jobs=2, cache=False)
        assert multiprocessing.active_children() == []


class TestClusterBase:
    def test_kind_comes_from_the_base(self):
        assert tiny_cluster_spec().is_cluster
        assert not tiny_spec().is_cluster
        from repro.cluster import ClusterConfig

        assert all(isinstance(c.config(), ClusterConfig)
                   for c in tiny_cluster_spec().expand())

    def test_single_path_baseline_applies_per_host(self):
        for cell in tiny_cluster_spec().expand():
            want = 1 if cell.params["policy"] == "single" else 4
            assert [h["scenario"]["n_paths"]
                    for h in cell.config_dict["hosts"]] == [want, want]
        for cell in tiny_cluster_spec(single_path_baseline=False).expand():
            assert cell.config_dict["hosts"][0]["scenario"]["n_paths"] == 4

    def test_derived_mode_derives_the_cluster_seed(self):
        cells = tiny_cluster_spec(seed_mode="derived").expand()
        assert [c.config_dict["seed"] for c in cells] == [
            derive_seed(42, c.params) for c in cells]
        # Host scenarios keep their own seed (the per-host salt).
        assert {c.config_dict["hosts"][1]["scenario"]["seed"]
                for c in cells} == {42}

    def test_payload_maps_the_cluster_result(self):
        from repro.cluster import ClusterConfig, run_cluster

        spec = tiny_cluster_spec(axes=[Axis("hosts", [3])])
        cell = run_sweep(spec, jobs=1, cache=False).cells[0]
        want = run_cluster(ClusterConfig.from_dict(cell.config), workers=1)
        assert cell.summary == want.summary
        assert cell.exact["p999"] == want.p999
        assert (cell.offered, cell.delivered) == (
            want.cluster["offered"], want.cluster["delivered"])
        assert cell.delivered_pps == want.delivered_pps()
        assert [h["name"] for h in cell.stats["hosts"]] == [
            "host0", "host1", "host2"]
        assert cell.stats["envelopes_sent"] == want.cluster["envelopes_sent"]

    def test_telemetry_bundle_per_cell(self, tmp_path):
        spec = tiny_cluster_spec(axes=[Axis("load", [0.3])])
        run_sweep(spec, jobs=1, cache=False, telemetry_dir=str(tmp_path))
        (bundle,) = tmp_path.iterdir()
        assert (bundle / "manifest.json").exists()
        assert (bundle / "host1" / "trace.json").exists()

    def test_goodput_skips_hosts_that_deliver_nothing(self):
        import math

        from repro.cluster import ClusterConfig

        # Incast on host 0: hosts 1 and 2 send everything away and
        # deliver nothing, so their own goodput is NaN.
        base = ClusterConfig.uniform_hosts(3, ScenarioConfig(**TINY),
                                           pattern="incast",
                                           incast_target=0)
        sr = run_sweep(tiny_spec(base=base.to_dict(),
                                 axes=[Axis("load", [0.3, 0.5])]),
                       jobs=1, cache=False)
        for cell in sr.cells:
            assert cell.delivered > 0
            assert math.isfinite(cell.goodput_gbps)
            assert cell.goodput_gbps > 0

    def test_check_is_refused(self):
        with pytest.raises(ValueError, match="cluster base"):
            run_sweep(tiny_cluster_spec(), jobs=1, cache=False, check=True)

    def test_scenario_sweep_imports_no_cluster_module(self):
        import subprocess
        import sys

        script = (
            "import sys, repro\n"
            "from repro.sweep import Axis, SweepSpec, run_sweep\n"
            f"spec = SweepSpec('s', base={TINY!r}, "
            "axes=[Axis('load', [0.3, 0.6])])\n"
            "run_sweep(spec, jobs=2, cache=False)\n"
            "print(sorted(m for m in sys.modules "
            "if m.startswith('repro.cluster')))\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        assert proc.stdout.splitlines()[-1] == "[]"


class TestSweepResult:
    @pytest.fixture(scope="class")
    def sr(self):
        return run_sweep(tiny_spec(), jobs=1, cache=False)

    def test_get_by_coordinates(self, sr):
        cell = sr.get(load=0.6, policy="adaptive")
        assert cell.config["load"] == 0.6
        assert cell.summary.count > 0
        assert cell.exact["p99"] > 0

    def test_get_ambiguous_or_missing_raises(self, sr):
        with pytest.raises(KeyError):
            sr.get(policy="adaptive")  # two loads match
        with pytest.raises(KeyError):
            sr.get(policy="warp-drive")

    def test_artifact_round_trip(self, sr, tmp_path):
        path = tmp_path / "sweep.json"
        sr.save(path)
        back = SweepResult.load(path)
        assert back.identity() == sr.identity()
        assert back.accounting()["cells"] == 4

    def test_accounting_shape(self, sr):
        acct = sr.accounting()
        assert acct["cells"] == 4
        assert acct["cell_wall_s"] > 0
        assert acct["cache_misses"] == 4

    def test_speedup_is_cpu_over_wall(self, sr):
        # One process does at most one CPU-second per wall-second, so an
        # inline sweep can never report a parallel speedup.
        acct = sr.accounting()
        assert acct["cell_cpu_s"] > 0
        assert acct["speedup"] <= 1.05
        assert all(c.cpu_s > 0 for c in sr.cells)
        assert "cpu_s" not in sr.cells[0].identity_dict()


class TestPublicRun:
    def test_run_with_overrides(self):
        res = repro.run(**TINY, load=0.4)
        assert res.stats["delivered"] > 0
        assert res.config.load == 0.4

    def test_run_with_config_and_overrides(self):
        cfg = ScenarioConfig(**TINY)
        res = repro.run(cfg, seed=9)
        assert res.config.seed == 9
        assert cfg.seed == 42  # original untouched

    def test_run_validates(self):
        with pytest.raises(ValueError, match="unknown policy"):
            repro.run(policy="warp-drive")

    def test_result_round_trips(self):
        res = repro.run(**TINY, load=0.4)
        data = json.loads(json.dumps(res.to_dict()))
        back = repro.SimulationResult.from_dict(data)
        assert back.summary == res.summary
        assert back.exact_percentile(99) == res.exact_percentile(99)
        assert back.goodput_gbps() == res.goodput_gbps()
        assert back.to_dict() == data
