"""Tests for the experiment harness (repro.bench)."""

import dataclasses

import pytest

from repro.bench import ScenarioConfig, bench_scale, scaled_duration, run_scenario, sweep
from repro.bench.runner import grid, policy_comparison
from repro.dataplane.vcpu import JitterParams


def tiny(**kw):
    """A scenario small enough for unit tests."""
    defaults = dict(duration=3_000.0, warmup=500.0, drain=5_000.0,
                    jitter=JitterParams(), load=0.4, n_flows=32)
    defaults.update(kw)
    return ScenarioConfig(**defaults)


class TestScenarioConfig:
    def test_capacity_calibration_positive_and_cached(self):
        cfg = tiny(chain="basic")
        c1 = cfg.path_capacity_pps()
        c2 = cfg.path_capacity_pps()
        assert c1 == c2 > 0

    def test_heavier_chain_lower_capacity(self):
        assert (
            tiny(chain="heavy").path_capacity_pps()
            < tiny(chain="basic").path_capacity_pps()
        )

    def test_rate_scales_with_load_and_paths(self):
        base = tiny(load=0.5, n_paths=2)
        assert tiny(load=1.0, n_paths=2).rate_pps() == pytest.approx(2 * base.rate_pps())
        assert tiny(load=0.5, n_paths=4).rate_pps() == pytest.approx(2 * base.rate_pps())

    def test_mean_off_duty_cycle(self):
        cfg = tiny(burstiness=4.0, mean_on=100.0)
        assert cfg.mean_off_us() == pytest.approx(300.0)
        with pytest.raises(ValueError):
            tiny(burstiness=0.5).mean_off_us()

    @pytest.mark.parametrize("field,traffic", [
        ("n_paths", "poisson"), ("duration", "poisson"),
        ("warmup", "poisson"), ("drain", "poisson"),
        ("packet_size", "poisson"), ("n_flows", "poisson"),
        ("interfere_intensity", "poisson"), ("load", "poisson"),
        ("load", "onoff"), ("burstiness", "onoff"), ("mean_on", "onoff"),
        ("fan_in", "incast"), ("burst_pkts", "incast"),
        ("epoch", "incast"), ("flow_load", "flows"),
        ("max_flow_pkts", "flows"),
    ])
    def test_validate_rejects_nan(self, field, traffic):
        with pytest.raises(ValueError, match=field):
            tiny(traffic=traffic, **{field: float("nan")}).validate()

    @pytest.mark.parametrize("field,traffic", [
        ("duration", "poisson"), ("warmup", "poisson"), ("drain", "poisson"),
        ("packet_size", "poisson"), ("interfere_intensity", "poisson"),
        ("load", "poisson"), ("burstiness", "onoff"), ("mean_on", "onoff"),
        ("epoch", "incast"), ("flow_load", "flows"),
    ])
    def test_validate_rejects_inf(self, field, traffic):
        with pytest.raises(ValueError, match=field):
            tiny(traffic=traffic, **{field: float("inf")}).validate()

    def test_nan_load_run_fails_before_simulating(self):
        with pytest.raises(ValueError, match="load"):
            run_scenario(ScenarioConfig(load=float("nan")))


class TestSimulate:
    def test_poisson_run_delivers(self):
        res = run_scenario(tiny())
        assert res.stats["delivered"] > 0
        assert res.offered >= res.stats["delivered"]
        assert res.summary.count > 0

    def test_load_drives_utilization(self):
        lo = run_scenario(tiny(load=0.2, duration=10_000.0))
        hi = run_scenario(tiny(load=0.8, duration=10_000.0))
        # Delivered packet count scales roughly with offered load.
        assert hi.stats["delivered"] > 2.5 * lo.stats["delivered"]

    def test_onoff_traffic(self):
        res = run_scenario(tiny(traffic="onoff", burstiness=3.0))
        assert res.stats["delivered"] > 0

    def test_incast_traffic(self):
        res = run_scenario(tiny(traffic="incast", fan_in=4, burst_pkts=4, epoch=1_000.0))
        assert res.stats["delivered"] > 0

    def test_flow_traffic_tracks_fct(self):
        res = run_scenario(tiny(traffic="flows", duration=10_000.0,
                            flow_load=0.3, max_flow_pkts=50))
        assert res.tracker is not None
        assert len(res.tracker.completed) > 0
        assert len(res.tracker.fcts()) == len(res.tracker.completed)

    def test_unknown_traffic_rejected(self):
        with pytest.raises(ValueError):
            run_scenario(tiny(traffic="carrier-pigeon"))

    def test_interference_applied(self):
        quiet = run_scenario(tiny(policy="single", n_paths=1, duration=20_000.0,
                              jitter=JitterParams(mean_run=5_000.0, stall_median=10.0)))
        noisy = run_scenario(tiny(policy="single", n_paths=1, duration=20_000.0,
                              jitter=JitterParams(mean_run=5_000.0, stall_median=10.0),
                              interfere_intensity=8.0))
        assert noisy.exact_percentile(99) > quiet.exact_percentile(99)

    def test_deterministic(self):
        a = run_scenario(tiny(seed=5))
        b = run_scenario(tiny(seed=5))
        assert a.summary == b.summary


class TestRunner:
    def test_scale_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.5")
        assert bench_scale() == 0.5
        assert scaled_duration(100.0) == 50.0

    def test_scale_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert bench_scale() == 1.0

    def test_scale_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "zero")
        with pytest.raises(ValueError):
            bench_scale()
        monkeypatch.setenv("REPRO_BENCH_SCALE", "-1")
        with pytest.raises(ValueError):
            bench_scale()

    def test_sweep_varies_parameter(self):
        results = sweep(tiny(), "load", [0.2, 0.5])
        assert len(results) == 2
        assert results[0].config.load == 0.2
        assert results[1].config.load == 0.5

    def test_policy_comparison_single_gets_one_path(self):
        results = policy_comparison(tiny(n_paths=4), ("single", "rr"))
        assert len(results["single"].host.paths) == 1
        assert len(results["rr"].host.paths) == 4

    def test_grid(self):
        out = grid(tiny(), "load", [0.2], "n_paths", [1, 2])
        assert set(out) == {(0.2, 1), (0.2, 2)}
