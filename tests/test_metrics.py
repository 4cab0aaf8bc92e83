"""Tests for streaming statistics, collectors, and reports."""

import math

import numpy as np
import pytest

from repro.metrics import (
    Counter,
    Ewma,
    LatencyRecorder,
    P2Quantile,
    ReservoirSampler,
    Table,
    ThroughputMeter,
    summarize,
)


class TestP2Quantile:
    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
    def test_accuracy_on_exponential(self, q):
        rng = np.random.default_rng(42)
        data = rng.exponential(100.0, 100_000)
        est = P2Quantile(q)
        for x in data:
            est.add(float(x))
        exact = np.quantile(data, q)
        assert abs(est.value - exact) / exact < 0.03

    def test_accuracy_on_uniform(self):
        rng = np.random.default_rng(1)
        data = rng.uniform(0, 1000, 50_000)
        est = P2Quantile(0.95)
        for x in data:
            est.add(float(x))
        assert abs(est.value - 950.0) < 20.0

    def test_small_samples_exact(self):
        est = P2Quantile(0.5)
        for x in (5.0, 1.0, 3.0):
            est.add(x)
        assert est.value == 3.0

    def test_empty_is_nan(self):
        assert math.isnan(P2Quantile(0.9).value)

    def test_reset(self):
        est = P2Quantile(0.5)
        for x in range(100):
            est.add(float(x))
        est.reset()
        assert est.n == 0 and math.isnan(est.value)

    def test_invalid_quantile(self):
        with pytest.raises(ValueError):
            P2Quantile(0.0)
        with pytest.raises(ValueError):
            P2Quantile(1.0)

    def test_estimate_within_observed_range(self):
        rng = np.random.default_rng(3)
        est = P2Quantile(0.99)
        data = rng.lognormal(3, 1, 20_000)
        for x in data:
            est.add(float(x))
        assert data.min() <= est.value <= data.max()


def _textbook_p2(q, xs):
    """Jain & Chlamtac's P² written from the paper, with indexed marker
    lists: an oracle independent of ``P2Quantile``'s unrolled loop.
    Yields the marker heights and positions after each observation from
    the fifth on."""
    h = sorted(xs[:5])
    n = [1.0, 2.0, 3.0, 4.0, 5.0]
    yield list(h), list(n)
    d = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
    inc = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]
    for x in xs[5:]:
        if x < h[0]:
            h[0] = x
            k = 0
        elif x >= h[4]:
            h[4] = x
            k = 3
        else:
            k = next(i for i in range(4) if x < h[i + 1])
        for i in range(k + 1, 5):
            n[i] += 1.0
        for i in range(5):
            d[i] += inc[i]
        for i in (1, 2, 3):
            diff = d[i] - n[i]
            if (diff >= 1.0 and n[i + 1] - n[i] > 1.0) or (
                    diff <= -1.0 and n[i - 1] - n[i] < -1.0):
                s = 1.0 if diff >= 1.0 else -1.0
                hp = h[i] + s / (n[i + 1] - n[i - 1]) * (
                    (n[i] - n[i - 1] + s) * (h[i + 1] - h[i])
                    / (n[i + 1] - n[i])
                    + (n[i + 1] - n[i] - s) * (h[i] - h[i - 1])
                    / (n[i] - n[i - 1]))
                if h[i - 1] < hp < h[i + 1]:
                    h[i] = hp
                else:
                    j = i + int(s)
                    h[i] = h[i] + s * (h[j] - h[i]) / (n[j] - n[i])
                n[i] += s
        yield list(h), list(n)


class TestP2Oracle:
    """``P2Quantile`` against the textbook recurrence, bit for bit, over
    several streams, quantiles and batch splits (per-sample ``add``, one
    batch, and chunks that cut the five-sample initialisation)."""

    @staticmethod
    def _streams():
        rng = np.random.default_rng(17)
        yield rng.exponential(40.0, 3000).tolist()
        yield rng.lognormal(3.0, 1.2, 3000).tolist()
        yield rng.uniform(0.0, 1.0, 2000).tolist()
        yield rng.integers(0, 4, 2000).astype(float).tolist()  # ties
        yield sorted(rng.exponential(1.0, 1000).tolist())
        yield sorted(rng.exponential(1.0, 1000).tolist(), reverse=True)
        yield [5.0] * 7 + rng.normal(5.0, 1.0, 1000).tolist()

    @staticmethod
    def _splits(n, rng):
        yield [1] * n
        yield [n]
        yield [3, 4] + [n - 7]
        yield [2, 1, 1] + [n - 4]
        sizes = []
        while sum(sizes) < n:
            sizes.append(int(rng.integers(1, 60)))
        yield sizes

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99, 0.999])
    def test_matches_textbook(self, q):
        rng = np.random.default_rng(int(q * 1000))
        for xs in self._streams():
            states = list(_textbook_p2(q, xs))
            for sizes in self._splits(len(xs), rng):
                est = P2Quantile(q)
                lo = 0
                for size in sizes:
                    chunk = xs[lo:lo + size]
                    if size == 1:
                        est.add(chunk[0])
                    else:
                        est.add_many(chunk)
                    lo += len(chunk)
                    if lo >= 5:
                        h, n = states[lo - 5]
                        assert est._heights == h and est._positions == n
                        assert est.value == h[2] and est.n == lo


class TestReservoir:
    def test_keeps_everything_under_capacity(self):
        r = ReservoirSampler(capacity=100)
        for x in range(50):
            r.add(float(x))
        assert sorted(r.values()) == [float(x) for x in range(50)]

    def test_bounded_memory(self):
        r = ReservoirSampler(capacity=100)
        for x in range(10_000):
            r.add(float(x))
        assert len(r.values()) == 100
        assert r.count == 10_000

    def test_unbiased_percentiles(self):
        r = ReservoirSampler(capacity=5000, seed=7)
        rng = np.random.default_rng(8)
        data = rng.exponential(10.0, 200_000)
        for x in data:
            r.add(float(x))
        assert abs(r.percentile(50) - np.percentile(data, 50)) < 1.0

    def test_empty_percentile_nan(self):
        assert math.isnan(ReservoirSampler(10).percentile(99))


class TestSummaries:
    def test_summarize_known_values(self):
        s = summarize(np.arange(1, 101, dtype=float))
        assert s.count == 100
        assert s.mean == pytest.approx(50.5)
        assert s.p50 == pytest.approx(50.5)
        assert s.max == 100.0
        assert s.p99 <= s.p999 <= s.max

    def test_summarize_empty(self):
        s = summarize([])
        assert s.count == 0 and math.isnan(s.mean)


class TestEwma:
    def test_first_value_is_exact(self):
        e = Ewma(0.1)
        assert math.isnan(e.value)
        e.add(10.0)
        assert e.value == 10.0

    def test_converges_to_constant(self):
        e = Ewma(0.2)
        for _ in range(200):
            e.add(42.0)
        assert e.value == pytest.approx(42.0)

    def test_weights_recent_more(self):
        slow, fast = Ewma(0.01), Ewma(0.5)
        for v in [0.0] * 50 + [100.0] * 5:
            slow.add(v)
            fast.add(v)
        assert fast.value > slow.value

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            Ewma(0.0)
        with pytest.raises(ValueError):
            Ewma(1.5)


class TestLatencyRecorder:
    def test_streaming_matches_exact(self):
        rec = LatencyRecorder(keep_all=True)
        rng = np.random.default_rng(11)
        for x in rng.exponential(50, 20_000):
            rec.record(float(x))
        exact = rec.exact_percentile(99)
        stream = rec.quantile(0.99)
        assert abs(stream - exact) / exact < 0.05

    def test_warmup_discards_early_samples(self):
        rec = LatencyRecorder(warmup=100.0)
        rec.record(999.0, now=50.0)  # during warmup
        rec.record(1.0, now=150.0)
        assert rec.count == 1
        assert rec.dropped_warmup == 1
        assert rec.mean == 1.0

    def test_mean_max(self):
        rec = LatencyRecorder()
        for v in (1.0, 2.0, 9.0):
            rec.record(v)
        assert rec.mean == pytest.approx(4.0)
        assert rec.max == 9.0

    def test_summary_via_reservoir(self):
        rec = LatencyRecorder(keep_all=False, reservoir=1000)
        for v in range(500):
            rec.record(float(v))
        s = rec.summary()
        assert s.count == 500

    def test_no_storage_raises(self):
        rec = LatencyRecorder(keep_all=False, reservoir=0)
        rec.record(1.0)
        with pytest.raises(ValueError):
            rec.summary()


class TestLazyQuantile:
    """``LatencyRecorder.quantile`` folds P² on read; it must equal P²
    estimators fed every sample eagerly, bit for bit."""

    QS = (0.5, 0.99, 0.999)

    def _drive(self, rec, n_samples, seed, first_read=0):
        """Interleave record/values/summary/quantile calls (from sample
        ``first_read`` on); compare every quantile read with eagerly fed
        estimators."""
        rng = np.random.default_rng(seed)
        eager = {q: P2Quantile(q) for q in self.QS}
        eager_res = (ReservoirSampler(rec.reservoir.capacity, seed=0xFACE)
                     if rec.reservoir is not None else None)
        reads = 0
        seen = []

        def retained():
            if rec.keep_all:
                return np.asarray(seen)
            return eager_res.values()

        for x in rng.exponential(40.0, n_samples).tolist():
            rec.record(x)
            seen.append(x)
            for est in eager.values():
                est.add(x)
            if eager_res is not None:
                eager_res.add(x)
            op = rng.integers(40) if len(seen) > first_read else -1
            if op == 0:
                reads += 1
                for q in self.QS:
                    assert rec.quantile(q) == eager[q].value
            elif op == 1 and (rec.keep_all or eager_res is not None):
                assert np.array_equal(rec.values(), retained())
            elif op == 2 and (rec.keep_all or rec.reservoir is not None):
                rec.summary()
        assert reads > 0
        for q in self.QS:
            assert rec.quantile(q) == eager[q].value
        if rec.keep_all or eager_res is not None:
            assert np.array_equal(rec.values(), retained())

    def test_within_reservoir_capacity(self):
        self._drive(LatencyRecorder(reservoir=5_000), 3_000, seed=1)

    def test_past_reservoir_capacity(self):
        self._drive(LatencyRecorder(reservoir=300), 3_000, seed=2)

    def test_prefix_longer_than_pending_bound(self):
        # The in-order prefix folds in PENDING_MAX slices: once when the
        # reservoir first overflows, once as a quantile() catch-up.
        self._drive(LatencyRecorder(reservoir=20_000), 30_000, seed=7,
                    first_read=25_000)
        self._drive(LatencyRecorder(reservoir=20_000), 20_000, seed=8,
                    first_read=19_000)

    def test_crossing_capacity_before_first_read(self):
        rec = LatencyRecorder(reservoir=100)
        eager = P2Quantile(0.99)
        for x in np.random.default_rng(3).exponential(40.0, 250).tolist():
            rec.record(x)
            eager.add(x)
            if rec.count == 90:
                rec.values()  # 90 in-order samples, P² not folded yet
        assert rec.quantile(0.99) == eager.value

    def test_keep_all(self):
        self._drive(LatencyRecorder(keep_all=True, reservoir=200), 2_000,
                    seed=4)

    def test_no_reservoir(self):
        self._drive(LatencyRecorder(reservoir=0), 1_000, seed=5)
        self._drive(LatencyRecorder(keep_all=True, reservoir=0), 1_000,
                    seed=6)

    def test_unread_recorder_leaves_p2_unfolded(self):
        rec = LatencyRecorder(reservoir=1_000)
        for x in range(500):
            rec.record(float(x))
        rec.summary()
        assert all(est.n == 0 for est in rec.p2.values())
        rec.quantile(0.5)
        assert all(est.n == 500 for est in rec.p2.values())


class TestThroughputMeter:
    def test_goodput_computation(self):
        m = ThroughputMeter()
        # 1000 x 1250B over 1000 µs -> 1250 B/µs = 10 Gbps
        for t in range(1000):
            m.record(1250, float(t))
        assert m.mean_gbps() == pytest.approx(10.0, rel=0.01)
        assert m.mean_pps() == pytest.approx(1e6, rel=0.01)

    def test_empty_meter_nan(self):
        assert math.isnan(ThroughputMeter().mean_gbps())


class TestCounter:
    def test_inc_and_get(self):
        c = Counter()
        c.inc("a")
        c.inc("a", 4)
        assert c.get("a") == 5
        assert c.get("missing") == 0
        assert c.as_dict() == {"a": 5}


class TestReport:
    def test_table_render_aligned(self):
        t = Table(["name", "value"], title="T")
        t.add_row(["x", 1.2345])
        t.add_row(["longer-name", 12345.678])
        out = t.render()
        assert "== T ==" in out
        assert "longer-name" in out
        assert "12,346" in out  # adaptive formatting

    def test_table_row_width_mismatch(self):
        t = Table(["a", "b"])
        with pytest.raises(ValueError):
            t.add_row([1])
