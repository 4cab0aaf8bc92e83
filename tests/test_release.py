"""A finished run frees itself: dropping its result releases the runtime.

Every scenario kind runs with the cyclic garbage collector off, so only
reference counting can free it; once the caller drops the result, the
run's :class:`~repro.sim.engine.Simulator` must be gone.  The teardown
at the end of :meth:`ScenarioRuntime.finalize` must leave the host
readable: its stats, NIC counters, recorder and source counters read the
same just before and just after it, and nothing stays scheduled.
"""

import gc
import json
import weakref

import pytest

import repro
from repro import (Axis, ClusterConfig, FabricConfig, FaultSchedule,
                   RunOptions, ScenarioConfig, SloSpec, SweepSpec)
from repro.bench.scenarios import ScenarioRuntime, build_runtime
from repro.metrics.collectors import PENDING_MAX, LatencyRecorder
from repro.sim import Simulator


def _host(policy="adaptive", **kw):
    base = dict(policy=policy, n_paths=4, traffic="poisson", load=0.7,
                duration=2_000.0, warmup=200.0, drain=1_000.0, seed=5)
    base.update(kw)
    return ScenarioConfig(**base)


KINDS = {
    "plain": lambda tmp: repro.run(_host()),
    "redundant2_faults": lambda tmp: repro.run(_host(
        "redundant2", faults=FaultSchedule()
        .crash(path=1, at=600.0, duration=500.0)
        .degrade(2, at=300.0, duration=800.0, factor=3.0))),
    "drop_bursts": lambda tmp: repro.run(_host(
        faults=FaultSchedule().drop_burst(at=400.0, duration=300.0, prob=0.5)
        .drop_burst(at=1_200.0, duration=200.0))),
    "flows": lambda tmp: repro.run(_host(
        "redundant2", traffic="flows", workload="enterprise",
        flow_load=0.5)),
    "incast": lambda tmp: repro.run(_host(traffic="incast", epoch=400.0)),
    "interference": lambda tmp: repro.run(_host(interfere_intensity=0.5)),
    "weighted": lambda tmp: repro.run(_host("weighted")),
    "telemetry_forensics": lambda tmp: repro.run(
        _host("single", n_paths=1, load=0.8), RunOptions(forensics=True)),
    "check": lambda tmp: repro.run(_host(), RunOptions(check=True)),
    "slo_autotune": lambda tmp: repro.run(_host(), RunOptions(slo=SloSpec(
        objectives=("p99 <= 60us",), window=300.0, autotune=True,
        start_paths=1, cooldown=600.0))),
    "cluster": lambda tmp: repro.run(ClusterConfig.uniform_hosts(
        3, _host(load=0.5, duration=1_000.0, warmup=100.0, drain=500.0),
        FabricConfig(steering="ecmp"), pattern="uniform", seed=3),
        RunOptions(workers=1)),
    "sweep": lambda tmp: repro.run_sweep(SweepSpec(
        name="release", base={"n_paths": 2, "duration": 1_000.0,
                              "warmup": 100.0, "drain": 500.0, "seed": 2},
        axes=[Axis("policy", ["single", "po2"])]),
        jobs=1, cache_dir=str(tmp)),
}


def _readings(rt) -> str:
    """Everything a caller reads from a finished host, as JSON."""
    host, nic = rt.host, rt.host.nic
    rec = host.sink.recorder
    return json.dumps([
        host.stats(),
        [nic.received, nic.dropped, nic.fault_dropped, nic.ring_occupancy],
        rec.summary().to_dict(), rec.values().tolist(),
        [rec.exact_percentile(p) for p in (50, 99, 99.9)],
        [host.sink.throughput.mean_gbps(), host.sink.throughput.mean_pps()],
        rt.src.stats.packets,
    ])


@pytest.fixture
def teardowns(monkeypatch):
    """Each teardown's (weak reference to its simulator, readings just
    before, readings just after, entries left scheduled)."""
    seen = []
    detach = ScenarioRuntime._detach

    def spy(rt):
        before = _readings(rt)
        detach(rt)
        seen.append((weakref.ref(rt.sim), before, _readings(rt),
                     rt.sim.pending_count))

    monkeypatch.setattr(ScenarioRuntime, "_detach", spy)
    return seen


@pytest.mark.parametrize("kind", list(KINDS))
def test_dropping_the_result_frees_the_run(kind, teardowns, tmp_path):
    gc.collect()
    gc.disable()
    try:
        result = KINDS[kind](tmp_path)
        assert teardowns, "no runtime was finalized"
        for sim, before, after, pending in teardowns:
            assert after == before
            assert pending == 0
        if isinstance(result, repro.SimulationResult):
            assert teardowns[0][0]() is not None  # the result holds its host
        del result
        alive = [i for i, (sim, *_) in enumerate(teardowns)
                 if sim() is not None]
        assert not alive, f"{kind}: runtimes {alive} outlived their result"
    finally:
        gc.enable()


def test_hand_built_host_is_not_detached():
    """Only a runtime's finalize detaches; a host driven by hand keeps
    its callbacks after its own finalize."""
    rt = build_runtime(_host())
    rt.start()
    rt.sim.run(until=rt.horizon)
    rt.host.finalize()
    assert rt.host.nic.dispatch is not None
    assert all(p._complete_cb is not None for p in rt.host.paths)


def test_cancelled_periodic_handle_drops_its_callback():
    sim = Simulator()
    fired = []
    handle = sim.periodic(10.0, lambda: fired.append(sim.now))
    sim.run(until=25.0)
    handle.cancel()
    assert handle.fn is None and handle.cancelled
    sim.run(until=100.0)
    assert fired == [10.0, 20.0]


def test_recorder_buffer_stays_bounded_during_a_long_run():
    """A run that nothing reads until the end buffers at most
    PENDING_MAX samples, through the sink's inlined record."""
    rt = build_runtime(_host(duration=30_000.0, warmup=1_000.0))
    rec = rt.host.sink.recorder
    peak = [0]

    def watch(packet):
        n = len(rec._pending)
        if n > peak[0]:
            peak[0] = n

    rt.host.sink.on_delivery = watch
    rt.start()
    rt.sim.run(until=rt.horizon)
    assert rec.count > 2 * PENDING_MAX
    assert peak[0] == PENDING_MAX - 1  # folded on reaching the bound


def test_recorder_folding_at_the_bound_is_exact():
    """Folding every PENDING_MAX samples reads the same as folding each
    sample at once, past the reservoir's capacity too."""
    bounded = LatencyRecorder(reservoir=PENDING_MAX)
    eager = LatencyRecorder(reservoir=PENDING_MAX)
    for i in range(3 * PENDING_MAX):
        x = float((i * 7919) % 977)
        bounded.record(x)
        assert len(bounded._pending) < PENDING_MAX
        eager.record(x)
        eager._flush()
    assert bounded.summary() == eager.summary()
    for q in (0.5, 0.99, 0.999):
        assert bounded.quantile(q) == eager.quantile(q)
    assert bounded.values().tolist() == eager.values().tolist()
