"""The poller, sink and steering-policy fast paths against the methods
they copy.

Four per-packet sites copy a reference method inline to save a call per
packet:

* ``Poller._serve_batch`` copies ``Chain.process`` and the stall-free
  branch of ``VCpu.execute``, and pushes its completions straight onto
  the event heap instead of calling ``call_at``;
* ``DeliverySink.deliver`` copies ``LatencyRecorder.record`` and
  ``ThroughputMeter.record``;
* ``_rotating_argmin`` (``core/policies.py``) copies
  ``DataPath.expected_wait``;
* ``AdaptiveMultipath.select`` copies ``FlowletTable.lookup``.

Each is driven here next to a twin that runs the same inputs through
the reference methods, and both must agree on every output, timestamp
and counter.
"""

import json
import math

import numpy as np
import pytest

from repro.bench.scenarios import ScenarioConfig, run_scenario
from repro.core.flowlet import FlowletTable
from repro.core.policies import AdaptiveMultipath, _rotating_argmin
from repro.dataplane import PathQueue, Poller, VCpu
from repro.dataplane.path import DataPath, PathConfig
from repro.dataplane.sink import DeliverySink
from repro.dataplane.vcpu import SHARED_CORE
from repro.elements import Chain, Delay
from repro.elements.nf import AclFirewall, AclRule
from repro.faults import FaultSchedule
from repro.metrics.collectors import LatencyRecorder, ThroughputMeter
from repro.net.packet import FiveTuple, PacketFactory
from repro.obs import Telemetry
from repro.obs.span import NullTracer, SpanTracer
from repro.sim import Simulator


# ----------------------------------------------------------------------
# Poller: the one service loop against Chain.process / VCpu.execute /
# call_at
# ----------------------------------------------------------------------
def reference_serve_batch(self):
    """``Poller._serve_batch`` spelled with the methods it inlines."""
    batch = None if self.frozen else self.queue.pop_batch(self.batch_size)
    if not batch:
        self._busy = False
        self.queue.on_enqueue = self._on_enqueue
        return
    self.batches += 1
    sim = self.sim
    now = sim.now
    if self.batch_overhead > 0:
        self.vcpu.execute(now, self.batch_overhead)
    last_finish = now
    for pkt in batch:
        cost = self.chain.process(pkt, now)
        if self.degrade != 1.0:
            cost *= self.degrade
        self.service_time += cost
        start, finish = self.vcpu.execute(now, cost)
        pkt.t_deq = start
        last_finish = finish
        if self.tracer.enabled:
            self.tracer.record(now, "vswitch_queue", pkt.pid,
                               now - pkt.t_enq, self.track)
            self.tracer.record(start, "sched_stall", pkt.pid, start - now,
                               self.track)
            self.tracer.record(finish, "nf_service", pkt.pid,
                               finish - start, self.track)
        if pkt.dropped is None:
            sim.call_at(finish, self.sink, pkt)
        elif self.drop_sink is not None:
            sim.call_at(finish, self.drop_sink, pkt)
    sim.call_at(last_finish, self._serve_batch)
    self.served += len(batch)


class _ReferencePoller(Poller):
    __slots__ = ()
    _serve_batch = reference_serve_batch


def _run_poller(cls, tracing, degrade, seed):
    """One poller on a SHARED_CORE vCPU behind a jittered chain with an
    ACL deny rule, fed bursts; a degrade window and a freeze arm
    mid-run.  Returns everything the service loop writes."""
    sim = Simulator()
    rng = np.random.default_rng(seed)
    chain = Chain([
        Delay("pre", base_cost=0.6, per_byte=0.002, jitter_sigma=0.4,
              rng=np.random.default_rng(seed + 1)),
        AclFirewall(rules=[AclRule(dport=81, action="deny")]),
        Delay("post", base_cost=0.9, jitter_sigma=0.3,
              rng=np.random.default_rng(seed + 2)),
    ])
    vcpu = VCpu("v", rng=np.random.default_rng(seed + 3), params=SHARED_CORE)
    queue = PathQueue(sim, capacity_pkts=256)
    done, dropped = [], []
    tracer = SpanTracer() if tracing else NullTracer
    poller = cls(sim, queue, vcpu, chain,
                 lambda p: done.append((sim.now, p.pid, p.t_deq)),
                 drop_sink=lambda p: dropped.append((sim.now, p.pid, p.t_deq,
                                                     p.dropped)),
                 batch_overhead=0.4, tracer=tracer, track=0)
    factory = PacketFactory()
    t = 0.0
    for _ in range(400):
        t += float(rng.exponential(60.0))
        for _ in range(int(rng.integers(1, 40))):
            ft = FiveTuple(1, 2, int(rng.integers(1000, 1100)),
                           80 + int(rng.random() < 0.1))
            pkt = factory.make(ft, int(rng.integers(64, 1554)), t)
            sim.call_at(t, queue.push, pkt)
    sim.call_at(4_000.0, setattr, poller, "degrade", degrade)
    sim.call_at(14_000.0, setattr, poller, "degrade", 1.0)
    sim.call_at(16_000.0, poller.freeze)
    sim.call_at(16_300.0, poller.unfreeze)
    sim.run()
    return dict(
        done=done, dropped=dropped, spans=list(tracer.records),
        vcpu=(vcpu._free_at, vcpu.busy_time, vcpu.executions,
              vcpu.stall_count, vcpu._stall_start, vcpu._stall_end),
        chain=(chain.processed, chain.dropped,
               [(el.processed, el.drops) for el in chain.elements]),
        poller=(poller.served, poller.batches, poller.service_time),
        sim=(sim.now, sim._seq),
    )


class TestPollerInline:
    @pytest.mark.parametrize("tracing", [False, True])
    @pytest.mark.parametrize("degrade", [1.0, 4.0])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_serve_batch_matches_reference(self, tracing, degrade, seed):
        fast = _run_poller(Poller, tracing, degrade, seed)
        assert fast == _run_poller(_ReferencePoller, tracing, degrade, seed)
        assert fast["dropped"] and fast["vcpu"][3] > 3  # denials, stalls
        # Stalls land mid-service: some packet's service outlasts its
        # (degraded) cost by more than any chain cost.
        if tracing:
            assert max(r.dt for r in fast["spans"]
                       if r.stage == "nf_service") > 40.0
            assert len(fast["spans"]) == 3 * fast["poller"][0]

    @pytest.mark.parametrize("tracing", [False, True])
    def test_bursty_host_matches_reference(self, tracing, monkeypatch):
        """Twin hosts of a host-bursty-like scenario (degrade, hang and
        sched_freeze faults under ON/OFF bursts), one with the reference
        loop patched in."""
        window = 6_000.0
        faults = (FaultSchedule()
                  .degrade(1, at=0.2 * window, duration=0.3 * window,
                           factor=4.0)
                  .hang(2, at=0.45 * window, duration=0.1 * window)
                  .sched_freeze(0, at=0.7 * window, duration=0.05 * window))
        cfg = ScenarioConfig(policy="redundant2", n_paths=4, traffic="onoff",
                             burstiness=4.0, load=0.35, duration=window,
                             warmup=600.0, drain=2_000.0, seed=3,
                             faults=faults)

        def run():
            tel = Telemetry() if tracing else None
            res = run_scenario(cfg, telemetry=tel)
            spans = list(tel.tracer.records) if tracing else []
            return json.dumps(res.to_dict(), sort_keys=True), spans

        fast = run()
        monkeypatch.setattr(Poller, "_serve_batch", reference_serve_batch)
        assert fast == run()


# ----------------------------------------------------------------------
# Sink: DeliverySink.deliver against LatencyRecorder.record +
# ThroughputMeter.record
# ----------------------------------------------------------------------
def _recorder_state(rec):
    return (rec.count, rec.dropped_warmup, rec._sum, rec._max,
            list(rec.samples), list(rec._pending))


class TestSinkInline:
    @pytest.mark.parametrize("keep_all", [False, True])
    def test_deliver_matches_record(self, keep_all):
        """Deliveries before, exactly at and after the warmup boundary,
        several per timestamp, latencies tying the running maximum."""
        warmup = 500.0
        sim = Simulator()
        sink = DeliverySink(sim, LatencyRecorder(keep_all=keep_all,
                                                 reservoir=64, warmup=warmup))
        rec = LatencyRecorder(keep_all=keep_all, reservoir=64, warmup=warmup)
        meter = ThroughputMeter()
        rng = np.random.default_rng(7)
        factory = PacketFactory()
        times = np.sort(np.concatenate((
            rng.choice(np.arange(0.0, 1000.0, 0.5), 300), [warmup] * 3)))
        checks = []

        def deliver(pkt):
            sink.deliver(pkt)
            now = sim.now
            rec.record(now - pkt.t_created, now)
            meter.record(pkt.size, now)
            checks.append(pkt.t_done == now)
            assert _recorder_state(sink.recorder) == _recorder_state(rec)

        for t in times.tolist():
            lat = float(rng.choice([0.0, 3.0, 12.5, 40.0, 40.0]))
            pkt = factory.make(FiveTuple(1, 2, 3, 4),
                               int(rng.integers(64, 1554)), t - lat)
            sim.call_at(t, deliver, pkt)
        sim.run()
        assert all(checks) and sink.delivered == len(times)
        got = sink.throughput
        assert (got.packets, got.bytes, got.t_first, got.t_last) == \
            (meter.packets, meter.bytes, meter.t_first, meter.t_last)
        assert rec.dropped_warmup > 0 and rec.count > 0
        assert sink.recorder.summary() == rec.summary()
        for q in (0.5, 0.99, 0.999):
            assert sink.recorder.quantile(q) == rec.quantile(q)


# ----------------------------------------------------------------------
# Policies: the DataPath.expected_wait copy in _rotating_argmin and the
# FlowletTable.lookup copy in AdaptiveMultipath.select
# ----------------------------------------------------------------------
def _paths(sim, k=6):
    """Paths whose chains differ in cost, with pairs of equal chains so
    expected waits tie."""
    return [DataPath(sim, i, Chain([Delay("d", base_cost=1.0 + (i // 2))]),
                     lambda p: None, config=PathConfig(batch_size=4))
            for i in range(k)]


def reference_argmin(paths, now, offset):
    """Least ``expected_wait``, scanning from ``offset`` round the
    paths, the first of equal waits winning."""
    k = len(paths)
    best, best_wait = None, math.inf
    for j in range(k):
        p = paths[(offset + j) % k]
        w = p.expected_wait(now)
        if best is None or w < best_wait:
            best, best_wait = p.path_id, w
    return best


class TestExpectedWaitInline:
    def test_rotating_argmin_matches_expected_wait(self):
        rng = np.random.default_rng(21)
        twins = [_paths(Simulator()), _paths(Simulator())]
        factory = PacketFactory()
        now = 0.0
        for step in range(600):
            now += float(rng.choice([0.0, 0.5, 3.0]))
            # The same random queue depths, vCPU backlogs and cleared
            # cost caches on both twins.
            depth = rng.integers(0, 3, 6) * (rng.random(6) < 0.5)
            free_at = now + rng.choice([-5.0, 0.0, 0.0, 1.5, 4.0], 6)
            clear = rng.random(6) < 0.2
            for paths in twins:
                for p, n, f, c in zip(paths, depth, free_at, clear):
                    while len(p.queue) > n:
                        p.queue.pop_batch(1)
                    while len(p.queue) < n:
                        p.queue.push(factory.make(FiveTuple(1, 2, 3, 4),
                                                  1554, now))
                    p.vcpu._free_at = float(f)
                    if c:
                        p._mean_cost = 0.0
            fast, ref = twins
            pick = rng.choice(6, int(rng.integers(1, 7)), replace=False)
            pool = [fast[i] for i in sorted(pick)]
            ref_pool = [ref[i] for i in sorted(pick)]
            offset = int(rng.integers(0, 50))
            assert _rotating_argmin(pool, now, offset) == \
                reference_argmin(ref_pool, now, offset), step
            assert [p._mean_cost for p in fast] == \
                [p._mean_cost for p in ref]


class TestFlowletLookupInline:
    TIMEOUT = 100.0

    def test_select_matches_lookup(self):
        """Flowlet hits, boundaries (new flows and expired gaps), gaps of
        exactly ``timeout``, last-seen refresh by a hit, and mid-flowlet
        escapes from an unhealthy path, against a twin FlowletTable
        driven through ``lookup`` and ``assign``."""
        rng = np.random.default_rng(5)
        sim = Simulator()
        paths = _paths(sim, 4)
        pol = AdaptiveMultipath(flowlet_timeout=self.TIMEOUT,
                                health_refresh=math.inf)
        ref = FlowletTable(timeout=self.TIMEOUT)
        factory = PacketFactory()
        last = {}
        rerouted = 0
        gaps = [0.5, 37.25, self.TIMEOUT, self.TIMEOUT + 0.25, 250.0]
        seen_exact = 0
        now = 0.0
        for step in range(4000):
            if step % 50 == 0:
                # A new health view, fixed until the next one.
                healthy = sorted(rng.choice(4, int(rng.integers(2, 5)),
                                            replace=False).tolist())
                pol._health_t = now
                pol._health_cache = healthy
                pol._health_set = frozenset(healthy)
            fid = int(rng.integers(-1, 12))
            if fid in last and rng.random() < 0.6:
                # Land the packet a chosen gap after the flow's last one.
                t = last[fid] + float(rng.choice(gaps))
                now = max(now, t)
            now += float(rng.choice([0.0, 0.25, 2.0]))
            if fid in last and now - last[fid] == self.TIMEOUT:
                seen_exact += 1
            pkt = factory.make(FiveTuple(1, 2, fid, 80),
                               int(rng.choice([100, 1554])), now,
                               flow_id=fid)
            choice = pol.select(pkt, paths, now)
            if fid >= 0:
                last[fid] = now
                bound = ref.lookup(fid, now)
                if bound is not None and bound in pol._health_set:
                    assert choice[0] == bound, step
                else:
                    rerouted += bound is not None
                    ref.assign(fid, choice[0], now)
            assert pol.table._table == ref._table, step
            assert (pol.table.hits, pol.table.boundaries,
                    pol.rerouted_flowlets) == (ref.hits, ref.boundaries,
                                               rerouted), step
        assert seen_exact > 10 and rerouted > 10
        assert ref.hits > 100 and ref.boundaries > 100
