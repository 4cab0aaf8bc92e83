"""Sweep subsystem tests: spec expansion, serialization round-trips,
parallel/serial bit-identity, cache-hit identity, and seed derivation.

The determinism contract under test is the headline one: a sweep's
per-cell results are a pure function of the spec -- the same whether the
sweep runs serially, across a worker pool, twice in a row, or out of the
content-hash cache.
"""

import json

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
        spec = tiny_spec()
        serial = run_sweep(spec, jobs=1, cache=False)
        again = run_sweep(spec, jobs=1, cache=False)
        pooled = run_sweep(spec, jobs=4, cache=False)
        assert serial.identity() == again.identity() == pooled.identity()
        assert pooled.jobs >= 1
        assert [c.index for c in pooled.cells] == [0, 1, 2, 3]

    def test_cache_hit_returns_identical_artifact(self, tmp_path):
        spec = tiny_spec()
        cold = run_sweep(spec, jobs=1, cache=True, cache_dir=str(tmp_path))
        warm = run_sweep(spec, jobs=1, cache=True, cache_dir=str(tmp_path))
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
