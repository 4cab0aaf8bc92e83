"""Tests for repro.obs.forensics: tail root-cause attribution."""

from __future__ import annotations

import json

import pytest

import repro
from repro import FaultSchedule, RunOptions, ScenarioConfig, Telemetry
from repro.obs.forensics import (
    CAUSES,
    STAGE_TO_CAUSE,
    ForensicsSpec,
    attribute_tail,
    fault_windows,
    render_forensics,
)

#: Short single-path scenario under pressure: the tail is dominated by
#: vSwitch queueing, which makes attribution outcomes easy to reason
#: about in assertions.
SINGLE = dict(
    policy="single",
    n_paths=1,
    load=0.85,
    duration=8_000.0,
    warmup=1_000.0,
    drain=4_000.0,
    seed=42,
)

MULTI = dict(
    policy="adaptive",
    n_paths=4,
    load=0.7,
    duration=8_000.0,
    warmup=1_000.0,
    drain=4_000.0,
    seed=42,
)


def run_armed(base: dict, *, faults=None, spec=None, **over):
    """One instrumented + forensicated run."""
    cfg = ScenarioConfig(**{**base, **over})
    opts = RunOptions(telemetry=Telemetry(metrics_interval=500.0),
                      faults=faults, forensics=spec if spec else True)
    return repro.run(cfg, opts)


class TestForensicsSpec:
    def test_defaults_validate(self):
        spec = ForensicsSpec().validate()
        assert spec.quantile == 99.0
        assert spec.top_k == 5
        assert 0.0 < spec.dominance <= 1.0

    @pytest.mark.parametrize("kw", [
        {"quantile": 100.0},
        {"quantile": -1.0},
        {"top_k": -1},
        {"dominance": 0.0},
        {"dominance": 1.5},
        {"ccdf_points": 1},
    ])
    def test_bad_values_rejected(self, kw):
        with pytest.raises(ValueError):
            ForensicsSpec(**kw).validate()

    def test_round_trip(self):
        spec = ForensicsSpec(quantile=95.0, top_k=2, dominance=0.6,
                             ccdf_points=16)
        assert ForensicsSpec.from_dict(spec.to_dict()) == spec


class TestFaultWindows:
    def test_pairs_arm_and_clear(self):
        timeline = [
            (10.0, "arm", "crash", 1),
            (20.0, "clear", "crash", 1),
            (30.0, "arm", "degrade", 2),
            (40.0, "clear", "degrade", 2),
        ]
        wins = fault_windows(timeline, horizon=100.0)
        assert wins == [
            {"kind": "crash", "target": 1, "start": 10.0, "end": 20.0},
            {"kind": "degrade", "target": 2, "start": 30.0, "end": 40.0},
        ]

    def test_unclosed_arm_extends_to_horizon(self):
        wins = fault_windows([(5.0, "arm", "hang", 0)], horizon=77.0)
        assert wins == [{"kind": "hang", "target": 0,
                         "start": 5.0, "end": 77.0}]

    def test_empty_and_none(self):
        assert fault_windows([], horizon=10.0) == []
        assert fault_windows(None, horizon=10.0) == []


class TestAttribution:
    def test_requires_traced_run(self):
        bare = repro.run(ScenarioConfig(**SINGLE))
        with pytest.raises(ValueError, match="traced"):
            attribute_tail(bare)

    def test_report_invariants(self):
        result = run_armed(SINGLE)
        report = result.forensics_report
        assert report is not None
        # Histogram must account for every analyzed packet exactly once.
        assert sum(report["cause_histogram"].values()) == report["analyzed"]
        assert set(report["cause_histogram"]) == set(CAUSES)
        assert report["analyzed"] > 0
        assert report["threshold_us"] > 0
        assert report["delivered_traced"] >= report["analyzed"]
        # Blame matrix rows must re-sum to the histogram.
        for cause, row in report["blame_matrix"].items():
            assert sum(row.values()) == report["cause_histogram"][cause]
        # CCDF exists exactly for causes with mass.
        assert set(report["tail_ccdf"]) == {
            c for c, n in report["cause_histogram"].items() if n
        }

    def test_exemplars_are_slowest_first(self):
        result = run_armed(SINGLE, spec=ForensicsSpec(top_k=4))
        exemplars = result.forensics_report["exemplars"]
        assert 0 < len(exemplars) <= 4
        lats = [ex["e2e_us"] for ex in exemplars]
        assert lats == sorted(lats, reverse=True)
        for ex in exemplars:
            assert ex["cause"] in CAUSES
            assert ex["timeline"], "exemplar must embed its span timeline"
            assert ex["e2e_us"] >= result.forensics_report["threshold_us"]

    def test_single_path_tail_is_congestion_shaped(self):
        # Under 0.85 load on one path, the tail is queue/service bound:
        # stage-attributed causes only, no fault or replication labels.
        report = run_armed(SINGLE).forensics_report
        hist = report["cause_histogram"]
        assert hist["fault_window"] == 0
        assert hist["replication_loss"] == 0
        stage_mass = sum(hist[c] for c in STAGE_TO_CAUSE.values())
        assert stage_mass + hist["mixed"] == report["analyzed"]
        assert hist["queue_buildup"] > 0

    def test_fault_run_attributes_fault_window(self):
        # Round-robin keeps spraying onto the degraded path (no health
        # steering), so tail packets provably transit the armed window.
        sched = FaultSchedule().degrade(path=1, at=2_000.0,
                                        duration=6_000.0, factor=8.0)
        result = run_armed(MULTI, faults=sched, policy="rr")
        report = result.forensics_report
        assert report["fault_windows"], "availability timeline must surface"
        assert report["cause_histogram"]["fault_window"] >= 1
        blamed = report["blame_matrix"]["fault_window"]
        assert "path1" in blamed

    def test_lower_quantile_analyzes_more(self):
        p99 = run_armed(SINGLE).forensics_report
        p90 = run_armed(SINGLE,
                        spec=ForensicsSpec(quantile=90.0)).forensics_report
        assert p90["analyzed"] > p99["analyzed"]
        assert p90["threshold_us"] < p99["threshold_us"]

    def test_empty_tail_when_nothing_delivered_after_warmup(self):
        # The NIC drops every packet, so none is delivered after warmup.
        drop_all = FaultSchedule().drop_burst(at=0.0, duration=1e9)
        result = run_armed(SINGLE, faults=drop_all, duration=500.0,
                           warmup=100.0, drain=100.0)
        report = result.forensics_report
        assert report["delivered_traced"] == 0
        assert report["analyzed"] == 0
        assert report["threshold_us"] is None
        assert sum(report["cause_histogram"].values()) == 0
        # Rendering the empty report must not crash.
        assert "no delivered traced packets" in render_forensics(report)

    def test_drop_accounting_joined(self):
        report = run_armed(SINGLE).forensics_report
        drops = report["drops"]
        assert set(drops) >= {"by_reason", "nic", "suppressed_copies"}

    def test_render_mentions_causes_and_exemplars(self):
        report = run_armed(SINGLE).forensics_report
        text = render_forensics(report)
        assert "tail forensics" in text
        assert "blame matrix" in text
        for cause, n in report["cause_histogram"].items():
            if n:
                assert cause in text


class TestReplicationLoss:
    def test_crashed_path_erodes_replica_coverage(self):
        # redundant2 sprays two copies; crashing a path mid-run kills the
        # copies in flight on it.  Survivors delivered during the outage
        # either transited the faulted window themselves (fault_window)
        # or lost a sibling (replication_loss) -- the tail must show the
        # fault somewhere, and lost siblings must be recorded as
        # evidence on at least one analyzed or exemplar packet.
        sched = FaultSchedule().crash(path=1, at=2_000.0, duration=5_000.0)
        result = run_armed(MULTI, faults=sched, policy="redundant2",
                           spec=ForensicsSpec(quantile=50.0, top_k=50))
        report = result.forensics_report
        hist = report["cause_histogram"]
        assert hist["fault_window"] + hist["replication_loss"] >= 1
        assert sum(hist.values()) == report["analyzed"]


class TestDeterminism:
    def test_same_seed_byte_identical_report(self):
        a = run_armed(SINGLE).forensics_report
        b = run_armed(SINGLE).forensics_report
        assert (json.dumps(a, sort_keys=True)
                == json.dumps(b, sort_keys=True))

    def test_report_is_json_round_trippable(self):
        report = run_armed(MULTI).forensics_report
        again = json.loads(json.dumps(report))
        assert again["cause_histogram"] == report["cause_histogram"]

    def test_attribute_tail_is_idempotent(self):
        result = run_armed(SINGLE)
        first = result.forensics_report
        second = attribute_tail(result)
        assert (json.dumps(first, sort_keys=True)
                == json.dumps(second, sort_keys=True))
