"""The replay's NIC receive stage against ``PhysicalNic``'s methods.

A replay that does not own its NIC hands each record to ``on_wire``;
the cluster's ingress replay is driven that way through ring overflow,
busy and idle NIC periods and two drop-burst windows (one certain, one
probabilistic), against a reference run of the same packets through the
real method.  Both runs must agree on every packet field, every NIC
counter and the order and time of every dispatch.

A replay that owns its NIC (:meth:`repro.net.traffic.Replay.own`)
computes the NIC's receive stage from its arrival columns instead of
running ``on_wire`` and ``_rx_done``, drop bursts included;
:class:`TestOwnedNic` drives the same arrivals through both and compares
departure times, ring and drop-burst drops, the NIC counters as sampled
during the run, and the ``nic_ring`` spans.  Group sources (incast,
paced flows) schedule their emissions ahead, so their arrivals tie with
departures either way round.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.mpdp import MpdpConfig, MultipathDataPlane
from repro.dataplane.boundary import ENVELOPE_DTYPE, host_ingress
from repro.dataplane.nic import PhysicalNic
from repro.net.packet import FiveTuple, Packet, PacketFactory
from repro.faults import FaultInjector, FaultSchedule
from repro.net.flow import FlowTracker
from repro.net.traffic import REPLAY_BATCH, FlowSource, IncastSource, Replay
from repro.net.workloads import EmpiricalCDF
from repro.sim import LOW, RngRegistry, Simulator

HORIZON = 600.0


def _dirty_pool(n):
    """Carcasses with every field set, as recycling leaves them."""
    pool = []
    for i in range(n):
        p = Packet(10_000 + i, FiveTuple(7, 7, 7, 7), 99, -1.0, 5, 5, 1)
        p.t_nic = p.t_enq = p.t_deq = p.t_done = 2.0
        p.path_id, p.copy_of = 3, 4
        p.dropped, p.meta = "q:overflow", {"x": i}
        pool.append(p)
    return pool


def _host(pooled):
    """A simulator, a NIC that saturates and two drop-burst windows.

    Returns ``(sim, nic, factory, dispatched, packets)``: ``packets``
    holds every packet the emitter takes from the pool.
    """
    sim = Simulator()
    dispatched = []
    nic = PhysicalNic(sim, lambda p: dispatched.append(
        (p.pid, p.t_nic, sim.now)), ring_size=6, rx_cost=0.8)
    sim.call_at(150.0, nic.inject_drop_burst, 190.0)
    sim.call_at(320.0, nic.inject_drop_burst, 380.0, 0.5,
                np.random.default_rng(3))
    packets = _dirty_pool(4000) if pooled else []
    factory = PacketFactory()
    factory.free = list(packets)
    return sim, nic, factory, dispatched, packets


def _outcome(sim, nic, dispatched, packets):
    fields = [[getattr(p, f) for f in Packet.__slots__]
              for p in sorted(packets, key=lambda p: p.pid)]
    return (repr(fields), dispatched, nic.received, nic.dropped,
            nic.fault_dropped, sim._seq, sim.processed_count)


def _ingress(tmp_path, n=450):
    """A host-0 ingress: local rows and two remote sources, bursty."""
    rng = np.random.default_rng(4)
    rows = np.zeros(n, dtype=ENVELOPE_DTYPE)
    gaps = rng.exponential(0.5, n) * np.where(rng.random(n) < 0.05, 20, 1)
    rows["arrive_time"] = rows["send_time"] = np.cumsum(gaps)
    rows["src_host"] = rng.integers(0, 3, n)
    flows = rng.integers(0, 16, n)
    rows["flow_id"], rows["sport"], rows["dport"] = flows, 1024 + flows, 80
    rows["seq"] = np.arange(n)
    rows["size"] = rng.integers(64, 1554, n)
    rows["priority"] = rng.integers(0, 2, n)
    rows["t_created"] = rows["arrive_time"] - 3.0
    paths = []
    for src in range(3):
        paths.append(str(tmp_path / f"{src}-0.env"))
        rows[rows["src_host"] == src].tofile(paths[-1])
    return host_ingress(paths, [], 0, n)


def _run_replay(tmp_path, inline, pooled):
    sim, nic, factory, dispatched, packets = _host(pooled)
    ing = _ingress(tmp_path)
    recs = ing.rows[ing.order]
    assert recs["time"][-1] < HORIZON
    if inline:
        host = SimpleNamespace(factory=factory, nic=nic,
                               replicator=SimpleNamespace())
        ing.bind(sim, host).start()
        factory = host.factory
    else:
        def emit(rec):
            # The replay's packet, built the reference way.
            free = factory.free
            pkt = free.pop() if free else Packet.__new__(Packet)
            ft, flow_id = ing.flows[int(rec["flow"])]
            Packet.__init__(pkt, factory.next_pid(), ft, int(rec["size"]),
                            float(rec["t_created"]), flow_id,
                            int(rec["seq"]), int(rec["priority"]))
            nic.on_wire(pkt)

        for rec in recs:
            sim.call_at(float(rec["time"]), emit, rec)
    sim.run(until=HORIZON)
    used = packets[len(factory.free):] if pooled else []
    out = _outcome(sim, nic, dispatched, used)
    # Sequence numbers differ in how the two schedule their records.
    return out[:-2]


class TestReplayPath:
    @pytest.mark.parametrize("pooled", [True, False])
    def test_inline_matches_on_wire(self, pooled, tmp_path):
        inline = _run_replay(tmp_path, True, pooled)
        assert inline == _run_replay(tmp_path, False, pooled)
        _, dispatched, received, dropped, fault_dropped = inline
        assert dispatched and received == len(dispatched)
        assert fault_dropped > 0 and dropped > fault_dropped


# ----------------------------------------------------------------------
# A replay that owns its NIC
# ----------------------------------------------------------------------
def _arrivals(case):
    """``(times, ring_size, rx_cost)`` of one arrival pattern."""
    rng = np.random.default_rng(11)
    if case == "burst":
        # Runs of arrivals closer than rx_cost, separated by idle gaps.
        gaps = rng.exponential(0.3, 600) * np.where(rng.random(600) < 0.04,
                                                    80, 1)
        return np.cumsum(gaps), 256, 0.8
    if case == "overflow":
        gaps = rng.exponential(0.2, 600) * np.where(rng.random(600) < 0.03,
                                                    60, 1)
        return np.cumsum(gaps), 8, 0.8
    if case == "ties":
        # Arrivals on a grid that departures also land on: exact ties
        # either way round, some timestamps shared, the ring full at times.
        return np.sort(rng.choice(np.arange(0.0, 150.0, 0.25), 500)), 8, 1.0
    if case == "edges":
        # A grid holding every arm and clear time of BURSTS.
        grid = rng.choice(np.arange(0.0, 150.0, 0.25), 240, replace=False)
        edges = [0.0, 2.0, 20.0, 35.0, 50.0, 80.0, 100.0, 110.0, 120.0,
                 130.0]
        return np.sort(np.concatenate((grid, edges))), 8, 0.5
    if case == "long":
        # Several REPLAY_BATCH window cuts, the ring overflowing at times.
        gaps = rng.exponential(0.3, 6000) * np.where(rng.random(6000) < 0.02,
                                                     40, 1)
        return np.cumsum(gaps), 8, 0.25
    # rx_cost 0: groups of equal timestamps, some longer than the ring.
    groups = rng.integers(1, 12, 120)
    return np.repeat(np.cumsum(rng.exponential(2.0, 120)), groups), 8, 0.0


class _Columns(Replay):
    """A replay of one column batch, ``cols``."""

    def _records(self):
        yield self.cols


class _Tracer:
    enabled = True

    def __init__(self):
        self.spans = []

    def record(self, t, stage, pid, duration, args=None):
        self.spans.append((t, stage, pid, duration))


#: Drop bursts over the arrival patterns: two certain ones (the first
#: takes the first arrivals), a p=0.3 one, and two overlapping ones, the
#: first one's clear ending the second.  The "edges" grid has arrivals
#: at every arm and clear time.
BURSTS = (FaultSchedule()
          .drop_burst(at=0.0, duration=2.0)
          .drop_burst(at=20.0, duration=15.0)
          .drop_burst(at=50.0, duration=30.0, prob=0.3)
          .drop_burst(at=100.0, duration=20.0, prob=0.5)
          .drop_burst(at=110.0, duration=20.0))


def _run_nic(case, owned, faults=None):
    times, ring, cost = _arrivals(case)
    sim = Simulator()
    dispatched, samples = [], []
    nic = PhysicalNic(sim, lambda p: dispatched.append(
        (sim.now, p.pid, p.t_nic, p.seq)), ring_size=ring, rx_cost=cost)
    nic.tracer = _Tracer()
    factory = PacketFactory()
    host = SimpleNamespace(factory=factory, nic=nic,
                           replicator=SimpleNamespace())
    flows = [(FiveTuple(0, 1, 1024 + f, 80), f) for f in range(4)]
    n = len(times)
    cols = [times.tolist(), [0] * n, [i % 4 for i in range(n)],
            list(range(n)), [100] * n, [0] * n, times.tolist()]
    if owned:
        replay = _Columns(sim, factory, nic.on_wire, flows)
        replay.cols = cols
        replay.own(host)
    if faults is not None:
        FaultInjector(sim, host, faults,
                      rng=np.random.default_rng(8)).install(horizon=1e4)
    if owned:
        replay.start()
    else:
        # Each timestamp's arrivals in one event, which schedules the
        # next timestamp's, as a replay that does not own its NIC does.
        def arrive(i):
            t = times[i]
            while i < n and times[i] == t:
                ft, flow_id = flows[cols[2][i]]
                nic.on_wire(Packet(factory.next_pid(), ft, 100, t, flow_id,
                                   i))
                i += 1
            if i < n:
                sim.call_at(float(times[i]), arrive, i)

        sim.call_at(float(times[0]), arrive, 0)
    sim.periodic(0.7, lambda: samples.append(
        (sim.now, nic.received, nic.dropped, nic.ring_occupancy,
         nic.fault_dropped)), priority=LOW)
    sim.run(until=float(times[-1]) + 50.0)
    return (dispatched, nic.tracer.spans, samples, nic.received,
            nic.dropped, nic.ring_occupancy, nic.fault_dropped)


class TestOwnedNic:
    @pytest.mark.parametrize("case", ["burst", "overflow", "ties",
                                      "rx_cost0"])
    def test_receive_stage_matches_on_wire(self, case):
        owned = _run_nic(case, True)
        assert owned == _run_nic(case, False)
        dispatched, spans, samples, received, dropped = owned[:5]
        assert received == len(dispatched) == len(spans)
        if case == "burst":
            assert dropped == 0 and max(s[3] for s in samples) > 8
        else:  # the ring overflows
            assert dropped > 0

    @pytest.mark.parametrize("case", ["edges", "ties", "overflow"])
    def test_drop_bursts_match_on_wire(self, case):
        """Drop-burst windows from a fault injector: certain,
        probabilistic (the draws in arrival order), overlapping, and on
        the "edges" grid arrivals exactly at arm and clear times."""
        owned = _run_nic(case, True, BURSTS)
        assert owned == _run_nic(case, False, BURSTS)
        dispatched, _, _, received, dropped, _, fault_dropped = owned
        assert received == len(dispatched) and fault_dropped > 0
        if case == "edges":
            # Arrivals at a clear time pass, at a certain arm time not,
            # and the first overlapping burst's clear ends the second.
            t_nic = {t for _, _, t, _ in dispatched}
            assert {2.0, 35.0, 80.0, 120.0, 130.0} <= t_nic
            assert not {20.0, 110.0} & t_nic and min(t_nic) >= 2.0
            assert any(120.0 < t < 130.0 for t in t_nic)
        else:
            assert fault_dropped < dropped  # the ring overflows too

    def test_drop_bursts_across_window_cuts(self):
        """Bursts over a run of several window cuts, which let go of
        the drops behind them: the counters sampled during the run stay
        those of ``on_wire``."""
        bursts = (FaultSchedule()
                  .drop_burst(at=300.0, duration=400.0)
                  .drop_burst(at=900.0, duration=500.0, prob=0.3)
                  .drop_burst(at=2000.0, duration=30.0))
        owned = _run_nic("long", True, bursts)
        assert owned == _run_nic("long", False, bursts)
        dispatched, _, samples, received, dropped, _, fault_dropped = owned
        assert received == len(dispatched) > 2 * REPLAY_BATCH
        assert 0 < fault_dropped < dropped  # the ring overflows too

    def test_drop_lists_stay_bounded(self):
        """A host-steady run under a certain 8 ms drop burst: once the
        burst is over, the replay keeps only the NIC drops its window
        still needs (the whole burst's drops before the fix)."""
        from repro.bench.scenarios import ScenarioConfig, build_runtime

        cfg = ScenarioConfig(
            policy="adaptive", n_paths=4, load=0.7, duration=15_000.0,
            warmup=1_500.0, drain=5_000.0, seed=1,
            faults=FaultSchedule().drop_burst(at=2_000.0, duration=8_000.0))
        rt = build_runtime(cfg)
        rt.start()
        src, lengths = rt.src, []
        rt.sim.periodic(250.0, lambda: lengths.append(
            (rt.sim.now, len(src._drop_t), len(src._drop_g),
             len(src._fault_t))))
        rt.sim.run(until=rt.horizon)
        assert rt.host.nic.fault_dropped > 10 * REPLAY_BATCH
        after = [n for t, *ns in lengths if t >= 11_000.0 for n in ns]
        assert after and max(after) <= 2 * REPLAY_BATCH

    def test_inject_on_owned_nic_raises(self):
        sim = Simulator()
        nic = PhysicalNic(sim, lambda p: None)
        replay = _Columns(sim, PacketFactory(), nic.on_wire, [])
        replay.own(SimpleNamespace(factory=PacketFactory(), nic=nic,
                                   replicator=SimpleNamespace()))
        with pytest.raises(RuntimeError, match="_Columns replay.*"
                                               "FaultSchedule.drop_burst"):
            nic.inject_drop_burst(10.0)

    @staticmethod
    def _flows(owned, rx_cost, pacing_bps):
        sim = Simulator()
        tracker = FlowTracker()
        host = MultipathDataPlane(sim, MpdpConfig(
            n_paths=3, policy="redundant2", warmup=0.0, nic_ring=16,
            nic_rx_cost=rx_cost), RngRegistry(seed=6), tracker=tracker)
        host.enable_packet_recycling()
        got, ingress = [], host.nic.dispatch

        def dispatch(p):
            got.append((sim.now, p.pid, p.flow_id, p.seq, p.t_nic))
            ingress(p)

        host.nic.dispatch = dispatch
        sizes = EmpiricalCDF([(1_000, 0.0), (8_000, 0.6), (30_000, 1.0)])
        src = FlowSource(sim, host.factory, host.input,
                         np.random.default_rng(9), flow_rate_fps=1.5e5,
                         size_cdf=sizes, tracker=tracker,
                         pacing_bps=pacing_bps, max_flow_pkts=20,
                         duration=2_000.0)
        if owned:
            src.own(host)
        src.start()
        sim.run(until=3_000.0)
        return (got, src.stats.packets, src.stats.flows, host.nic.received,
                host.nic.dropped, host.replicator.replicas_created,
                tracker.fcts().tolist())

    @pytest.mark.parametrize("rx_cost,pacing_bps", [
        (0.5, 24.864e9), (0.25, 24.864e9), (1.0, 12.432e9)])
    def test_flows_match_on_wire(self, rx_cost, pacing_bps):
        """A flow's packets are all scheduled at its launch, 1554 B
        apart at ``pacing_bps``: a multiple of rx_cost (1 and 2 times),
        so arrivals tie with departures, and a flow's second packet
        with the departure its first one scheduled."""
        owned = self._flows(True, rx_cost, pacing_bps)
        assert owned == self._flows(False, rx_cost, pacing_bps)
        got, packets, flows, received, dropped = owned[:5]
        assert flows > 100 and received == len(got)
        assert received + dropped == packets
        assert dropped > 0 or rx_cost < 0.5  # a slow NIC's ring overflows

    @staticmethod
    def _incast(owned, seed, rx_cost):
        sim = Simulator()
        host = MultipathDataPlane(sim, MpdpConfig(
            n_paths=3, policy="redundant2", warmup=0.0, nic_ring=16,
            nic_rx_cost=rx_cost), RngRegistry(seed=5))
        host.enable_packet_recycling()
        got, ingress = [], host.nic.dispatch

        def dispatch(p):
            got.append((sim.now, p.pid, p.flow_id, p.seq, p.t_nic))
            ingress(p)

        host.nic.dispatch = dispatch
        src = IncastSource(sim, host.factory, host.input,
                           np.random.default_rng(seed), fan_in=12,
                           burst_pkts=10, epoch=50.0, spacing=0.3,
                           duration=2_000.0)
        if owned:
            src.own(host)
        src.start()
        sim.run(until=3_000.0)
        return (got, src.stats.packets, host.nic.received, host.nic.dropped,
                host.replicator.replicas_created)

    @pytest.mark.parametrize("seed,rx_cost", [(1, 0.1), (2, 0.15), (3, 0.5)])
    def test_incast_matches_on_wire(self, seed, rx_cost):
        """Incast emissions are all scheduled at their epoch's start, so
        with spacing a multiple of rx_cost arrivals tie with departures;
        replicas take pids in between."""
        assert self._incast(True, seed, rx_cost) == \
            self._incast(False, seed, rx_cost)
