"""Golden-result determinism tests for the optimized kernel.

The hot-path work (batched poller service, slotted packets, deferred
metric folding, inlined fast paths) is only admissible because it is
*value-invisible*: the same seed must produce a bit-identical
``SimulationResult`` payload whatever the observation settings
(telemetry on/off), fault schedule presence, or sweep worker count.
These tests pin that contract so future optimizations cannot silently
trade determinism for speed.
"""

from __future__ import annotations

import json

import pytest

import repro
from repro import FaultSchedule, ScenarioConfig, Telemetry
from repro.sweep import Axis, SweepSpec, run_sweep

#: Small but non-trivial scenario: multi-path, adaptive policy (flowlet
#: + health + replication machinery all exercised), jittered cores.
BASE = dict(
    policy="adaptive",
    n_paths=4,
    load=0.7,
    duration=8_000.0,
    warmup=1_000.0,
    drain=4_000.0,
    seed=42,
)


def payload(result) -> str:
    """Canonical JSON payload of a result (the bit-identity unit)."""
    return json.dumps(result.to_dict(), sort_keys=True)


class TestGoldenDeterminism:
    def test_same_seed_same_payload(self):
        a = repro.run(ScenarioConfig(**BASE))
        b = repro.run(ScenarioConfig(**BASE))
        assert payload(a) == payload(b)

    def test_different_seed_differs(self):
        # Guards against the oracle comparing trivially equal payloads.
        a = repro.run(ScenarioConfig(**BASE))
        b = repro.run(ScenarioConfig(**{**BASE, "seed": 43}))
        assert payload(a) != payload(b)

    def test_telemetry_is_invisible(self):
        off = repro.run(ScenarioConfig(**BASE))
        on = repro.run(ScenarioConfig(**BASE), telemetry=Telemetry())
        assert payload(off) == payload(on)

    def test_faulted_run_is_deterministic(self):
        sched = FaultSchedule().crash(path=1, at=3_000.0, duration=2_000.0)
        a = repro.run(ScenarioConfig(**BASE), faults=sched)
        sched2 = FaultSchedule().crash(path=1, at=3_000.0, duration=2_000.0)
        b = repro.run(ScenarioConfig(**BASE), faults=sched2)
        assert payload(a) == payload(b)
        assert a.availability is not None

    def test_faults_kwarg_matches_config_field(self):
        sched = FaultSchedule().hang(path=2, at=2_000.0, duration=1_500.0)
        via_kwarg = repro.run(ScenarioConfig(**BASE), faults=sched)
        sched2 = FaultSchedule().hang(path=2, at=2_000.0, duration=1_500.0)
        via_config = repro.run(ScenarioConfig(faults=sched2, **BASE))
        assert payload(via_kwarg) == payload(via_config)

    def test_jobs_1_and_4_identical(self, tmp_path):
        spec = SweepSpec(
            name="determinism-smoke",
            base=dict(
                policy="adaptive", load=0.6, duration=6_000.0,
                warmup=1_000.0, drain=3_000.0, seed=7,
            ),
            axes=[Axis("policy", ["single", "rr", "adaptive"]),
                  Axis("load", [0.4, 0.7])],
        )
        serial = run_sweep(spec, jobs=1, cache=False, progress=None)
        parallel = run_sweep(spec, jobs=4, cache=False, progress=None)
        assert len(serial.cells) == len(parallel.cells) == 6
        for a, b in zip(serial.cells, parallel.cells):
            assert a.params == b.params
            assert a.summary.to_dict() == b.summary.to_dict()
            assert a.exact == b.exact
            assert a.stats == b.stats


class TestForensicsDeterminism:
    def test_armed_forensics_is_invisible_to_core_metrics(self):
        # Forensics is pure post-processing over telemetry: an armed run
        # must simulate the exact same trajectory as a detached one.
        # Only the forensics_report key may appear on top.
        baseline = repro.run(ScenarioConfig(**BASE))
        armed = repro.run(ScenarioConfig(**BASE),
                          repro.RunOptions(forensics=True))
        d = armed.to_dict()
        assert d.pop("forensics_report") is not None
        assert json.dumps(d, sort_keys=True) == payload(baseline)

    def test_forensics_report_same_seed_byte_identical(self):
        def once():
            result = repro.run(ScenarioConfig(**BASE),
                               repro.RunOptions(forensics=True))
            return json.dumps(result.forensics_report, sort_keys=True)
        assert once() == once()

    def test_cause_labels_stable_across_sweep_jobs(self, tmp_path):
        # A telemetry sweep leaves a forensics.json per cell; worker
        # count must change neither the cell payloads nor one cause
        # label anywhere in the bundles.
        spec_kw = dict(
            name="forensics-jobs-smoke",
            base=dict(policy="adaptive", load=0.8, duration=6_000.0,
                      warmup=1_000.0, drain=3_000.0, seed=7),
            axes=[Axis("policy", ["single", "adaptive"]),
                  Axis("load", [0.6, 0.85])],
        )
        serial = run_sweep(SweepSpec(**spec_kw), jobs=1, cache=False,
                           telemetry_dir=str(tmp_path / "j1"))
        parallel = run_sweep(SweepSpec(**spec_kw), jobs=4, cache=False,
                             telemetry_dir=str(tmp_path / "j4"))
        assert len(serial.cells) == len(parallel.cells) == 4
        for a, b in zip(serial.cells, parallel.cells):
            assert a.summary.to_dict() == b.summary.to_dict()
        bundles = sorted(p.name for p in (tmp_path / "j1").iterdir())
        assert bundles == sorted(p.name for p in (tmp_path / "j4").iterdir())
        for key in bundles:
            f1 = (tmp_path / "j1" / key / "forensics.json").read_text()
            f4 = (tmp_path / "j4" / key / "forensics.json").read_text()
            assert f1 == f4, f"cell {key} forensics differ across jobs"
            assert json.loads(f1)["cause_histogram"]


#: Autotuning spec for the SLO determinism tests: tight enough to force
#: decisions, small windows so several close inside the short run.
SLO_KW = dict(
    objectives=("p99 <= 150us", "delivery >= 99%"),
    window=1_000.0,
    autotune=True,
    start_paths=1,
    cooldown=2_000.0,
    hold_windows=3,
    margin=0.7,
)


def slo_payload(result) -> str:
    return json.dumps(result.slo_report, sort_keys=True)


class TestSloDeterminism:
    def test_same_seed_same_slo_report(self):
        a = repro.run(ScenarioConfig(**BASE), slo=repro.SloSpec(**SLO_KW))
        b = repro.run(ScenarioConfig(**BASE), slo=repro.SloSpec(**SLO_KW))
        assert a.slo_report["decisions"], "spec must exercise the autotuner"
        assert slo_payload(a) == slo_payload(b)
        assert payload(a) == payload(b)

    def test_telemetry_is_invisible_to_slo_report(self):
        bare = repro.run(ScenarioConfig(**BASE), slo=repro.SloSpec(**SLO_KW))
        traced = repro.run(ScenarioConfig(**BASE),
                           slo=repro.SloSpec(**SLO_KW), telemetry=Telemetry())
        assert slo_payload(bare) == slo_payload(traced)
        assert (bare.slo_report["decisions"]
                == traced.slo_report["decisions"])

    def test_passive_slo_is_invisible_to_core_metrics(self):
        # A non-autotuning spec only *observes*: the simulated trajectory
        # (and thus every other result field) must be bit-identical to
        # the same run without an SLO attached.
        baseline = repro.run(ScenarioConfig(**BASE))
        spec = repro.SloSpec(objectives=("p99 <= 200us",), window=1_000.0)
        observed = repro.run(ScenarioConfig(**BASE), slo=spec)
        d = observed.to_dict()
        assert d.pop("slo_report") is not None
        # The embedded config legitimately records the spec; every
        # *measured* field must match bit for bit.
        assert d["config"].pop("slo") == spec.to_dict()
        e = baseline.to_dict()
        e["config"].pop("slo")
        assert json.dumps(d, sort_keys=True) == json.dumps(e, sort_keys=True)

    def test_faulted_autotuned_run_is_deterministic(self):
        def once():
            sched = FaultSchedule().crash(path=0, at=3_000.0,
                                          duration=2_000.0)
            return repro.run(
                ScenarioConfig(**BASE), faults=sched,
                slo=repro.SloSpec(**{**SLO_KW, "start_paths": 2,
                                     "min_paths": 2}),
            )
        assert payload(once()) == payload(once())


class TestDeprecationShims:
    # The pre-2.0 shims (``repro.bench.scenarios.simulate`` and the
    # ``repro.sim.trace`` alias) completed the documented deprecation
    # cycle -- warned for a minor release, removed on the major bump
    # (docs/API.md).  Pin the removal so they do not creep back.
    def test_simulate_shim_removed(self):
        import repro.bench.scenarios as scenarios

        assert not hasattr(scenarios, "simulate")
        assert "simulate" not in repro.bench.__all__

    def test_trace_alias_removed(self):
        import importlib
        import sys

        sys.modules.pop("repro.sim.trace", None)
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.sim.trace")
        # The real home keeps working.
        from repro.obs.span import SpanTracer, Tracer

        assert Tracer is SpanTracer

    def test_run_rejects_positional_telemetry(self):
        with pytest.raises(TypeError):
            repro.run(ScenarioConfig(**BASE), Telemetry())  # noqa: B026
