"""Tests for statistical comparison helpers and multi-seed replication
(a ``seed`` axis on the sweep engine)."""

import math

import numpy as np
import pytest

from repro.dataplane.vcpu import SHARED_CORE, JitterParams
from repro.metrics.compare import bootstrap_percentile_ci, percentile_ratio_ci
from repro.sweep import Axis, SweepSpec, run_sweep


class TestBootstrapCi:
    def test_point_inside_interval(self):
        rng = np.random.default_rng(1)
        s = rng.exponential(10, 5000)
        point, lo, hi = bootstrap_percentile_ci(s, 99)
        assert lo <= point <= hi

    def test_interval_shrinks_with_samples(self):
        rng = np.random.default_rng(2)
        small = rng.exponential(10, 200)
        big = rng.exponential(10, 20_000)
        _, lo_s, hi_s = bootstrap_percentile_ci(small, 95)
        _, lo_b, hi_b = bootstrap_percentile_ci(big, 95)
        assert (hi_b - lo_b) < (hi_s - lo_s)

    def test_covers_true_quantile(self):
        # Exponential(1): true p90 = ln(10).
        rng = np.random.default_rng(3)
        s = rng.exponential(1.0, 10_000)
        _, lo, hi = bootstrap_percentile_ci(s, 90)
        assert lo < math.log(10) < hi

    def test_empty_and_validation(self):
        point, lo, hi = bootstrap_percentile_ci(np.array([]), 99)
        assert math.isnan(point)
        with pytest.raises(ValueError):
            bootstrap_percentile_ci(np.ones(10), 99, confidence=1.5)

    def test_deterministic_given_seed(self):
        s = np.random.default_rng(4).exponential(5, 1000)
        assert bootstrap_percentile_ci(s, 99, seed=7) == bootstrap_percentile_ci(s, 99, seed=7)


class TestRatioCi:
    def test_clear_improvement_detected(self):
        rng = np.random.default_rng(5)
        baseline = rng.exponential(100, 5000)
        candidate = rng.exponential(10, 5000)
        point, lo, hi = percentile_ratio_ci(baseline, candidate, 99)
        assert lo > 1.0
        assert 5 < point < 20

    def test_identical_distributions_not_significant(self):
        rng = np.random.default_rng(6)
        a = rng.exponential(10, 5000)
        b = rng.exponential(10, 5000)
        assert percentile_ratio_ci(a, b, 95)[1] <= 1.0

    def test_regression_not_significant_improvement(self):
        rng = np.random.default_rng(7)
        baseline = rng.exponential(10, 3000)
        worse = rng.exponential(50, 3000)
        assert percentile_ratio_ci(baseline, worse, 95)[1] <= 1.0


class TestReplicate:
    """Multi-seed replication of one scenario: a ``seed`` axis."""

    SEEDS = [1000, 1001, 1002]

    def _run(self, seeds, **base):
        cfg = dict(chain="basic", load=0.4, duration=5_000.0, warmup=1_000.0,
                   jitter=JitterParams(), n_flows=32)
        cfg.update(base)
        spec = SweepSpec("replicate", base=cfg, axes=[Axis("seed", seeds)],
                         seed_mode="fixed")
        return run_sweep(spec, jobs=1, cache=False)

    def test_runs_n_seeds(self):
        sr = self._run(self.SEEDS)
        assert len(sr.cells) == 3
        assert sorted(c.params["seed"] for c in sr.cells) == self.SEEDS
        p99s = [c.exact["p99"] for c in sr.cells]
        assert min(p99s) <= float(np.mean(p99s)) <= max(p99s)

    def test_seeds_actually_vary(self):
        sr = self._run(self.SEEDS, load=0.5, duration=8_000.0,
                       jitter=SHARED_CORE)
        assert len({c.exact["p99"] for c in sr.cells}) > 1

    def test_custom_metric(self):
        sr = self._run(self.SEEDS[:2])
        assert all(float(c.stats["delivered"]) > 0 for c in sr.cells)

    def test_validation(self):
        with pytest.raises(ValueError):
            Axis("seed", [])


class TestCrossSeedClaim:
    def test_multipath_gain_holds_across_seeds(self):
        """The headline F3 claim, checked across 3 seeds: adaptive p99
        improves on the seed-paired single-path p99 every time, and the
        mean improvement is well clear of seed noise."""
        seeds = [1000, 1001, 1002]
        spec = SweepSpec(
            "f3-seeds",
            base=dict(chain="heavy", load=0.7, duration=25_000.0,
                      warmup=5_000.0, jitter=SHARED_CORE),
            axes=[Axis("policy", [{"policy": "single", "n_paths": 1},
                                  {"policy": "adaptive", "n_paths": 4}],
                       labels=["single", "adaptive"]),
                  Axis("seed", seeds)],
            seed_mode="fixed",
        )
        sr = run_sweep(spec, jobs=2, cache=False)
        singles = [sr.get(policy="single", seed=s).exact["p99"] for s in seeds]
        multis = [sr.get(policy="adaptive", seed=s).exact["p99"] for s in seeds]
        assert len(set(singles)) > 1 and len(set(multis)) > 1
        for m, s_v in zip(multis, singles):
            assert m < s_v
        assert np.mean(multis) < 0.6 * np.mean(singles)
