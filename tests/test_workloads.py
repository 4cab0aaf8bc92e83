"""Tests for empirical workload CDFs."""

import numpy as np
import pytest

from repro.net import DATAMINING_CDF, ENTERPRISE_CDF, WEBSEARCH_CDF, EmpiricalCDF, workload_by_name


class TestEmpiricalCDF:
    def test_samples_within_support(self, rng):
        s = WEBSEARCH_CDF.sample(rng, 10_000)
        assert s.min() >= 6_000 * 0.999
        assert s.max() <= 30_000_000 * 1.001

    def test_sample_int_at_least_one(self, rng):
        cdf = EmpiricalCDF([(1, 0.5), (10, 1.0)])
        s = cdf.sample_int(rng, 1000)
        assert s.min() >= 1
        assert s.dtype == np.int64

    def test_quantile_monotone(self):
        qs = [WEBSEARCH_CDF.quantile(q) for q in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99)]
        assert qs == sorted(qs)

    def test_quantile_endpoints(self):
        assert WEBSEARCH_CDF.quantile(1.0) == pytest.approx(30_000_000)
        assert WEBSEARCH_CDF.quantile(0.0) == pytest.approx(6_000)

    def test_quantile_out_of_range(self):
        with pytest.raises(ValueError):
            WEBSEARCH_CDF.quantile(1.5)
        with pytest.raises(ValueError, match=r"got -0\.01"):
            WEBSEARCH_CDF.quantile(-0.01)

    def test_quantile_rejects_nan(self):
        # NaN slips through plain range comparisons (NaN < 0 is False);
        # the guard must name it explicitly.
        with pytest.raises(ValueError, match="nan"):
            WEBSEARCH_CDF.quantile(float("nan"))

    def test_quantile_accepts_integer_and_numpy_q(self):
        assert WEBSEARCH_CDF.quantile(1) == pytest.approx(30_000_000)
        assert WEBSEARCH_CDF.quantile(np.float64(0.5)) == pytest.approx(
            WEBSEARCH_CDF.quantile(0.5))

    def test_empirical_quantiles_match_declared_points(self, rng):
        # Sampling then measuring must approximately recover the CDF points.
        s = WEBSEARCH_CDF.sample(rng, 200_000)
        frac_below_133k = np.mean(s <= 133_000)
        assert abs(frac_below_133k - 0.60) < 0.02

    def test_datamining_heavier_tail_than_websearch(self, rng):
        # datamining: most flows tiny, p50 far below websearch's p50.
        assert DATAMINING_CDF.quantile(0.5) < WEBSEARCH_CDF.quantile(0.5)
        # ...but its extreme tail is larger.
        assert DATAMINING_CDF.quantile(0.999) > WEBSEARCH_CDF.quantile(0.999)

    def test_mean_positive_and_finite(self):
        for cdf in (WEBSEARCH_CDF, DATAMINING_CDF, ENTERPRISE_CDF):
            m = cdf.mean(n_mc=50_000)
            assert np.isfinite(m) and m > 0

    def test_validation_rejects_bad_points(self):
        with pytest.raises(ValueError):
            EmpiricalCDF([(10, 1.0)])  # too few
        with pytest.raises(ValueError):
            EmpiricalCDF([(10, 0.5), (5, 1.0)])  # values not sorted
        with pytest.raises(ValueError):
            EmpiricalCDF([(1, 0.5), (2, 0.4)])  # probs decreasing
        with pytest.raises(ValueError):
            EmpiricalCDF([(1, 0.5), (2, 0.9)])  # doesn't end at 1
        with pytest.raises(ValueError):
            EmpiricalCDF([(-1, 0.5), (2, 1.0)])  # non-positive value

    def test_linear_interp_mode(self, rng):
        cdf = EmpiricalCDF([(10, 0.5), (20, 1.0)], log_interp=False)
        s = cdf.sample(rng, 10_000)
        assert 10 <= s.min() and s.max() <= 20
        # Uniform between the points: mean ~ 13.3 ((10+15)/2 halves)
        assert 12.0 < s.mean() < 14.5


class TestRegistry:
    def test_lookup_by_name(self):
        assert workload_by_name("websearch") is WEBSEARCH_CDF
        assert workload_by_name("datamining") is DATAMINING_CDF

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            workload_by_name("nope")
