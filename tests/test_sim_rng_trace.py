"""Tests for RNG streams and the tracer."""

import numpy as np

from repro.sim import NullTracer, RngRegistry, Tracer


class TestRngRegistry:
    def test_same_seed_same_stream(self):
        a = RngRegistry(seed=1).stream("x")
        b = RngRegistry(seed=1).stream("x")
        assert a.random() == b.random()

    def test_different_names_independent(self):
        reg = RngRegistry(seed=1)
        a = reg.stream("a").random(100)
        b = reg.stream("b").random(100)
        assert not np.allclose(a, b)

    def test_different_seeds_differ(self):
        a = RngRegistry(seed=1).stream("x").random(10)
        b = RngRegistry(seed=2).stream("x").random(10)
        assert not np.allclose(a, b)

    def test_creation_order_does_not_matter(self):
        r1 = RngRegistry(seed=9)
        r1.stream("first")
        v1 = r1.stream("second").random()
        r2 = RngRegistry(seed=9)
        v2 = r2.stream("second").random()  # created without "first"
        assert v1 == v2

    def test_stream_is_cached(self):
        reg = RngRegistry(seed=3)
        assert reg.stream("s") is reg.stream("s")
        assert "s" in reg
        assert len(reg) == 1

    def test_streams_vector_form(self):
        reg = RngRegistry(seed=3)
        out = reg.streams(["a", "b"])
        assert len(out) == 2


class TestTracer:
    def test_records_accumulate(self):
        t = Tracer()
        t.record(1.0, "stage_a", 1, 0.5)
        t.record(2.0, "stage_a", 2, 0.7)
        t.record(2.0, "stage_b", 1, 1.5)
        assert len(t) == 3
        assert t.by_stage()["stage_a"] == [0.5, 0.7]
        assert abs(t.stage_totals()["stage_b"] - 1.5) < 1e-12

    def test_per_packet(self):
        t = Tracer()
        t.record(1.0, "a", 7, 0.1)
        t.record(2.0, "b", 7, 0.2)
        t.record(2.0, "a", 8, 0.3)
        assert [r.stage for r in t.per_packet(7)] == ["a", "b"]

    def test_clear(self):
        t = Tracer()
        t.record(1.0, "a", 1, 0.1)
        t.clear()
        assert len(t) == 0

    def test_null_tracer_is_noop(self):
        NullTracer.record(1.0, "a", 1, 0.1)
        assert len(NullTracer) == 0
        assert NullTracer.by_stage() == {}
        assert NullTracer.stage_totals() == {}
        assert NullTracer.per_packet(1) == []
        assert not NullTracer.enabled
