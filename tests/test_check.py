"""Tests for repro.check: invariant engine, fuzzer, differ, RunOptions."""

import dataclasses
import json
import warnings

import pytest

import repro
from repro import RunOptions
from repro.bench.scenarios import ScenarioConfig, run_scenario
from repro.check import (
    CheckSpec, InvariantEngine, InvariantViolation, NullInvariants,
)
from repro.check.diff import deep_diff, diff_scenario
from repro.check.fuzz import fuzz_scenarios, generate_config, shrink_config
from repro.check.selftest import mutation_selftest


def fast_config(**kw):
    """A tiny scenario that still exercises the whole data plane."""
    base = dict(policy="adaptive", n_paths=3, chain="basic", load=0.6,
                duration=3000.0, warmup=300.0, drain=2000.0, seed=7,
                n_flows=32)
    base.update(kw)
    return ScenarioConfig(**base)


@pytest.fixture
def broken_dedup(monkeypatch):
    """Class-patch Deduplicator to deliver every replicated copy."""
    from repro.core.replicator import Deduplicator

    original = Deduplicator.should_deliver

    def deliver_every_copy(self, packet):
        original(self, packet)
        return True

    monkeypatch.setattr(Deduplicator, "should_deliver", deliver_every_copy)


class TestCheckSpec:
    def test_round_trip(self):
        spec = CheckSpec(sample_interval=100.0, fifo=False, strict=True,
                         max_violations=5)
        again = CheckSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            CheckSpec.from_dict({"sample_interval": 100.0, "bogus": 1})

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            CheckSpec(sample_interval=0.0).validate()

    def test_bad_max_violations_rejected(self):
        with pytest.raises(ValueError):
            CheckSpec(max_violations=0).validate()


class TestInvariantEngine:
    def test_null_singleton_is_disabled(self):
        assert NullInvariants.enabled is False
        NullInvariants.on_deliver(None)  # all hooks are no-ops

    def test_clean_run_checks_every_family(self):
        res = run_scenario(fast_config(policy="redundant2"),
                           check=CheckSpec(sample_interval=250.0))
        rep = res.check_report
        assert rep["ok"] is True
        assert rep["violation_count"] == 0
        assert rep["first_violation"] is None
        assert rep["samples"] > 0
        for name in ("conservation", "dedup", "fifo", "flow_order",
                     "control", "clock"):
            assert rep["invariants"][name] > 0, name

    def test_report_is_schema_versioned(self):
        res = run_scenario(fast_config(), check=True)
        assert repro.schemas.validate(res.check_report) == "check_report"

    def test_armed_run_identical_to_detached(self):
        cfg = fast_config()
        detached = run_scenario(cfg).to_dict()
        armed = run_scenario(cfg, check=True).to_dict()
        armed.pop("check_report")
        assert deep_diff(detached, armed) == []

    def test_fault_scenario_stays_clean(self):
        from repro.faults import FaultSchedule

        sched = FaultSchedule().crash(0, at=800.0, duration=600.0)
        res = run_scenario(fast_config(faults=sched), check=True)
        assert res.check_report["ok"] is True

    def test_broken_dedup_caught(self, broken_dedup):
        res = run_scenario(fast_config(policy="redundant2"), check=True)
        rep = res.check_report
        assert rep["ok"] is False
        first = rep["first_violation"]
        assert first["invariant"] == "dedup"
        assert "delivered twice" in first["message"]
        assert first["pid"] >= 0
        assert rep["violations"][0] == first

    def test_strict_mode_raises(self, broken_dedup):
        with pytest.raises(InvariantViolation, match="dedup"):
            run_scenario(fast_config(policy="redundant2"),
                         check=CheckSpec(strict=True))

    def test_max_violations_caps_recording(self, broken_dedup):
        res = run_scenario(fast_config(policy="redundant2"),
                           check=CheckSpec(max_violations=3))
        rep = res.check_report
        assert len(rep["violations"]) == 3
        assert rep["violation_count"] > 3  # counted past the cap

    def test_engine_rejects_reuse(self):
        engine = InvariantEngine(CheckSpec())
        run_scenario(fast_config(), check=engine)
        with pytest.raises(ValueError):
            run_scenario(fast_config(), check=engine)

    def test_run_scenario_rejects_bad_check(self):
        with pytest.raises(ValueError, match="check"):
            run_scenario(fast_config(), check="yes")


class TestSelftest:
    def test_mutation_selftest_passes(self):
        report = mutation_selftest()
        assert report["ok"] is True
        assert report["violation_caught"] is True
        assert report["first_violation"]["invariant"] == "dedup"
        assert report["drift_detected"] is True
        assert report["intact_clean"] is True


class TestFuzz:
    def test_generated_configs_are_valid_and_deterministic(self):
        import numpy as np

        a = [generate_config(np.random.default_rng(3)).to_dict()
             for _ in range(5)]
        b = [generate_config(np.random.default_rng(3)).to_dict()
             for _ in range(5)]
        assert a == b
        policies = {c["policy"] for c in a}
        assert policies  # validated configs, drawn across the registry

    def test_clean_fuzz_run(self):
        report = fuzz_scenarios(cases=2, seed=11)
        assert report["ok"] is True
        assert report["cases"] == 2
        assert report["failures"] == []
        assert repro.schemas.validate(report) == "fuzz_report"

    def test_cases_must_be_positive(self):
        with pytest.raises(ValueError):
            fuzz_scenarios(cases=0)

    def test_fuzz_catches_mutant_and_writes_repro(self, broken_dedup,
                                                  tmp_path, monkeypatch):
        # Force every generated case onto the replication policy so the
        # broken dedup is reachable.
        import repro.check.fuzz as fuzz_mod

        run_armed = fuzz_mod.run_armed

        def armed_redundant(config, sample_interval=250.0):
            return run_armed(
                dataclasses.replace(config, policy="redundant2",
                                    n_paths=max(2, config.n_paths)),
                sample_interval)

        monkeypatch.setattr(fuzz_mod, "run_armed", armed_redundant)
        report = fuzz_scenarios(cases=1, seed=0, out_dir=str(tmp_path),
                                shrink=False)
        assert report["ok"] is False
        failure = report["failures"][0]
        assert failure["first_violation"]["invariant"] == "dedup"
        with open(failure["repro_path"]) as fh:
            ScenarioConfig.from_dict(json.load(fh))  # loadable repro

    def test_shrinker_minimizes_while_violating(self, broken_dedup):
        from repro.faults import FaultSchedule

        cfg = fast_config(policy="redundant2", n_paths=4, chain="heavy",
                          traffic="onoff", n_flows=48, load=0.7,
                          duration=4000.0,
                          faults=FaultSchedule().hang(0, at=1000.0,
                                                      duration=800.0))
        minimal = shrink_config(cfg, sample_interval=500.0, budget=8)
        assert minimal.faults is None
        assert minimal.chain == "basic"
        assert minimal.traffic == "poisson"
        assert minimal.n_flows <= cfg.n_flows


class TestDeepDiff:
    def test_identical(self):
        obj = {"a": [1, 2.5, {"b": float("nan")}], "c": "x"}
        assert deep_diff(obj, json.loads(json.dumps(obj))) == []

    def test_leaf_paths_named(self):
        diffs = deep_diff({"a": {"b": [1, 2]}}, {"a": {"b": [1, 3]}})
        assert diffs == ["a.b[1]: 2 != 3"]

    def test_missing_keys(self):
        diffs = deep_diff({"a": 1}, {"b": 1})
        assert "a: missing on right" in diffs
        assert "b: missing on left" in diffs

    def test_length_mismatch(self):
        assert deep_diff([1], [1, 2]) == ["<root>: length 1 != 2"]

    def test_int_float_compare_numerically(self):
        assert deep_diff({"x": 1}, {"x": 1.0}) == []
        assert deep_diff({"x": True}, {"x": 1}) != []

    def test_nan_equal_but_values_exact(self):
        nan = float("nan")
        assert deep_diff([nan], [nan]) == []
        assert deep_diff([1.0], [1.0 + 1e-12]) != []

    def test_capped(self):
        from repro.check.diff import MAX_DIFFS

        diffs = deep_diff(list(range(100)), list(range(1, 101)))
        assert len(diffs) == MAX_DIFFS


class TestDiffScenario:
    def test_all_variants_identical(self):
        report = diff_scenario(fast_config(), jobs=2)
        assert report["all_identical"] is True
        assert report["skipped"] == {"faults_kwarg":
                                     "config has no fault schedule"}
        for name in ("telemetry", "check_armed", "jobs"):
            assert report["variants"][name]["identical"] is True
        assert repro.schemas.validate(report) == "diff_report"

    def test_variant_subset(self):
        report = diff_scenario(fast_config(), variants=["check_armed"])
        assert list(report["variants"]) == ["check_armed"]

    def test_faults_kwarg_variant(self):
        from repro.faults import FaultSchedule

        cfg = fast_config(faults=FaultSchedule().hang(0, at=900.0,
                                                      duration=500.0))
        report = diff_scenario(cfg, variants=["faults_kwarg"])
        assert report["variants"]["faults_kwarg"]["identical"] is True


class TestRunOptions:
    def test_options_equivalent_to_legacy_kwargs(self):
        from repro.slo import SloSpec

        spec = SloSpec(objectives=("p99 <= 2000us",), window=1000.0)
        cfg = fast_config()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            legacy = repro.run(cfg, slo=spec)
        modern = repro.run(cfg, RunOptions(slo=spec))
        assert deep_diff(legacy.to_dict(), modern.to_dict()) == []

    def test_legacy_kwargs_warn_once(self):
        repro._run_kwargs_warned = False
        try:
            with pytest.warns(DeprecationWarning, match="RunOptions"):
                repro.run(fast_config(), slo=None, faults=None,
                          telemetry=repro.Telemetry())
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                repro.run(fast_config(), telemetry=repro.Telemetry())
        finally:
            repro._run_kwargs_warned = True

    def test_positional_non_options_rejected(self):
        with pytest.raises(TypeError, match="RunOptions"):
            repro.run(fast_config(), {"telemetry": None})

    def test_field_set_both_places_rejected(self):
        from repro.faults import FaultSchedule

        sched = FaultSchedule().crash(0, at=500.0, duration=400.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            with pytest.raises(ValueError, match="faults"):
                repro.run(fast_config(), RunOptions(faults=sched),
                          faults=sched)

    def test_faults_on_config_and_options_rejected(self):
        from repro.faults import FaultSchedule

        sched = FaultSchedule().crash(0, at=500.0, duration=400.0)
        with pytest.raises(ValueError, match="set it once"):
            repro.run(fast_config(faults=sched), RunOptions(faults=sched))

    def test_check_spec_resolution(self):
        assert RunOptions().check_spec() is None
        assert RunOptions(check=False).check_spec() is None
        assert RunOptions(check=True).check_spec() == CheckSpec()
        spec = CheckSpec(sample_interval=100.0)
        assert RunOptions(check=spec).check_spec() is spec
        with pytest.raises(ValueError):
            RunOptions(check="yes").check_spec()

    def test_check_via_run_options(self):
        res = repro.run(fast_config(), RunOptions(check=True))
        assert res.check_report["ok"] is True
        assert "check_report" in res.to_dict()


class TestSweepCheck:
    def test_checked_sweep_bypasses_cache_and_reports(self, tmp_path):
        from repro.sweep import Axis, SweepSpec, run_sweep

        spec = SweepSpec(
            name="check-test",
            base=fast_config().to_dict(),
            axes=[Axis("policy", ["single", "redundant2"])],
        )
        sr = run_sweep(spec, jobs=1, cache_dir=str(tmp_path), check=True)
        assert sr.cache_hits == 0
        for cell in sr.cells:
            assert cell.check_report["ok"] is True
            assert "check_report" not in cell.identity_dict()
        # A second checked run still simulates (no cached check payloads).
        sr2 = run_sweep(spec, jobs=1, cache_dir=str(tmp_path), check=True)
        assert sr2.cache_hits == 0
