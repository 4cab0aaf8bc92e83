"""Tests for the event loop (repro.sim.engine)."""

import pytest

from repro.sim import Simulator, SimulationError, StopSimulation
from repro.sim.errors import EmptySchedule
from repro.sim.engine import _COMPACT_MIN, _SEQ_MAX, LOW, NORMAL, URGENT


class TestClock:
    def test_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_custom_start_time(self):
        assert Simulator(start_time=100.0).now == 100.0

    def test_peek_empty(self, sim):
        assert sim.peek() == float("inf")

    def test_peek_returns_next_time(self, sim):
        sim.call_at(5.0, lambda: None)
        sim.call_at(3.0, lambda: None)
        assert sim.peek() == 3.0


class TestCallbacks:
    def test_call_at_runs_at_time(self, sim):
        seen = []
        sim.call_at(7.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [7.5]

    def test_call_in_relative(self, sim):
        seen = []
        sim.call_at(10.0, lambda: sim.call_in(5.0, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [15.0]

    def test_args_passed(self, sim):
        seen = []
        sim.call_at(1.0, seen.append, "x")
        sim.run()
        assert seen == ["x"]

    def test_fifo_order_same_time(self, sim):
        seen = []
        for i in range(10):
            sim.call_at(1.0, seen.append, i)
        sim.run()
        assert seen == list(range(10))

    def test_priority_order_same_time(self, sim):
        seen = []
        sim.call_at(1.0, seen.append, "low", priority=LOW)
        sim.call_at(1.0, seen.append, "normal", priority=NORMAL)
        sim.call_at(1.0, seen.append, "urgent", priority=URGENT)
        sim.run()
        assert seen == ["urgent", "normal", "low"]

    def test_cannot_schedule_in_past(self, sim):
        sim.call_at(10.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_at(5.0, lambda: None)

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.call_in(-1.0, lambda: None)

    def test_nan_times_rejected(self, sim):
        nan = float("nan")
        with pytest.raises(SimulationError, match="nan"):
            sim.call_at(nan, lambda: None)
        with pytest.raises(SimulationError, match="nan"):
            sim.call_in(nan, lambda: None)
        with pytest.raises(SimulationError):
            sim.periodic(nan, lambda: None)
        with pytest.raises(SimulationError):
            sim.run(until=nan)
        assert sim.pending_count == 0 and sim._seq == 0


class TestRun:
    def test_run_until_time_stops_clock_there(self, sim):
        sim.call_at(100.0, lambda: None)
        sim.run(until=50.0)
        assert sim.now == 50.0

    def test_run_until_excludes_boundary_events(self, sim):
        seen = []
        sim.call_at(50.0, seen.append, 1)
        sim.run(until=50.0)
        assert seen == []
        sim.run()
        assert seen == [1]

    def test_run_until_past_raises(self, sim):
        sim.call_at(10.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.run(until=5.0)

    def test_stop_halts_run(self, sim):
        sim.call_at(1.0, lambda: sim.stop("halted"))
        sim.call_at(2.0, lambda: pytest.fail("should not run"))
        assert sim.run() == "halted"

    def test_step_empty_raises(self, sim):
        with pytest.raises(EmptySchedule):
            sim.step()

    def test_reentrant_run_rejected(self, sim):
        def reenter():
            with pytest.raises(SimulationError):
                sim.run()

        sim.call_at(1.0, reenter)
        sim.run()

    def test_processed_count(self, sim):
        for i in range(5):
            sim.call_at(float(i), lambda: None)
        sim.run()
        assert sim.processed_count == 5


class TestDeterminism:
    def test_same_schedule_same_trajectory(self):
        def build():
            sim = Simulator()
            seen = []
            for i in range(100):
                sim.call_at(float(i % 7), seen.append, i)
            sim.run()
            return seen

        assert build() == build()


class TestSchedule:
    def test_same_time_priority_interleaving(self, sim):
        out = []
        sim.call_at(5.0, out.append, "low-1", priority=LOW)
        sim.call_at(5.0, out.append, "urgent-1", priority=URGENT)
        sim.call_at(5.0, out.append, "normal-1", priority=NORMAL)
        sim.call_at(5.0, out.append, "urgent-2", priority=URGENT)
        sim.call_at(5.0, out.append, "low-2", priority=LOW)
        sim.run()
        assert out == ["urgent-1", "urgent-2", "normal-1", "low-1", "low-2"]

    def test_seq_space_guard(self, sim):
        sim._seq = _SEQ_MAX  # next allocation would overflow the packing
        with pytest.raises(SimulationError, match="sequence space exhausted"):
            sim.call_at(1.0, lambda: None)
        with pytest.raises(SimulationError, match="sequence space exhausted"):
            sim.call_in(1.0, lambda: None)

    def test_seq_below_guard_still_works(self, sim):
        sim._seq = _SEQ_MAX - 2
        out = []
        sim.call_at(1.0, out.append, 1)
        sim.call_at(1.0, out.append, 2)
        sim.run()
        assert out == [1, 2]

    def test_cancel_heavy_schedule_stays_bounded(self, sim):
        # Regression test for lazy deletion: cancelling periodics leaves
        # dead entries behind, and compaction must keep the schedule from
        # growing linearly with cancellations.
        n = 40 * _COMPACT_MIN
        live = sim.periodic(1.0, lambda: None)

        def churn(i):
            sim.periodic(1_000_000.0, lambda: None).cancel()
            if i + 1 < n:
                sim.call_in(0.001, churn, i + 1)

        sim.call_in(0.0, churn, 0)
        # sample pending_count as the churn runs
        probe = sim.periodic(0.5, lambda: None)
        sim.run(until=sim.now + n * 0.001 + 1.0)
        probe.cancel()
        live.cancel()
        # dead entries never dominate: the bound is one compaction period
        # (live entries + as many dead ones), far below n.
        assert sim.pending_count <= 2 * (_COMPACT_MIN + 16)
        assert sim._dead * 2 <= sim.pending_count + 2 * _COMPACT_MIN

    def test_cancelled_periodic_never_fires_after_compaction(self, sim):
        fired = []
        handles = [sim.periodic(1.0, lambda i=i: fired.append(i))
                   for i in range(2 * _COMPACT_MIN)]
        for h in handles[1:]:
            h.cancel()
        sim.run(until=5.5)
        handles[0].cancel()
        assert set(fired) == {0}
        assert handles[0].fired == 5


class TestDeprecatedScheduler:
    def test_argument_warns_once_per_process_and_is_ignored(self,
                                                            monkeypatch):
        import json
        import warnings

        import repro
        from repro.sim import engine

        cluster = repro.ClusterConfig.uniform_hosts(
            2, repro.ScenarioConfig(duration=300.0, warmup=50.0,
                                    drain=200.0))

        def payload(**kw):
            return json.dumps(repro.run_cluster(cluster, workers=1,
                                                **kw).to_dict())

        spellings = [lambda: Simulator(scheduler="calendar"),
                     lambda: repro.RunOptions(scheduler="heap"),
                     lambda: payload(scheduler="calendar")]
        for use in spellings:
            monkeypatch.setattr(engine, "_scheduler_warned", False)
            with pytest.warns(DeprecationWarning, match="scheduler"):
                out = use()
        assert out == payload()  # ignored: the run is unchanged
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # once per process
            sim = Simulator(scheduler="no-such-backend")
            repro.RunOptions(scheduler="no-such-backend")
        sim.call_at(1.0, lambda: None)
        sim.run()
        assert sim.processed_count == 1
