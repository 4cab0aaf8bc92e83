"""Tests for traffic sources."""

import numpy as np
import pytest

from repro.net import (
    CBRSource,
    FlowSource,
    FlowTracker,
    IncastSource,
    OnOffSource,
    PacketFactory,
    PoissonSource,
    TraceReplaySource,
    WEBSEARCH_CDF,
)
from repro.units import US_PER_S


class TestCBR:
    def test_exact_rate_and_spacing(self, sim, factory, rng):
        got = []
        src = CBRSource(sim, factory, got.append, rng, rate_pps=1e6, duration=100.0)
        src.start()
        sim.run(200.0)
        # 1 pps/µs for 100 µs -> 100 packets (first at t=0)
        assert len(got) == 100
        times = [p.t_created for p in got]
        diffs = np.diff(times)
        assert np.allclose(diffs, 1.0)

    def test_stats_track_emissions(self, sim, factory, rng):
        src = CBRSource(sim, factory, lambda p: None, rng, rate_pps=1e6, size=100, duration=50.0)
        src.start()
        sim.run(100.0)
        assert src.stats.packets == 50
        assert src.stats.bytes == 5000


class TestPoisson:
    def test_mean_rate_close_to_nominal(self, sim, factory, rng):
        got = []
        src = PoissonSource(sim, factory, got.append, rng, rate_pps=1e6, duration=20_000.0)
        src.start()
        sim.run(30_000.0)
        rate = len(got) / 20_000.0  # packets per µs
        assert abs(rate - 1.0) < 0.05

    def test_interarrivals_exponential(self, sim, factory, rng):
        got = []
        src = PoissonSource(sim, factory, got.append, rng, rate_pps=1e6, duration=50_000.0)
        src.start()
        sim.run(60_000.0)
        iats = np.diff([p.t_created for p in got])
        # Exponential: std ~= mean, CV ~= 1.
        cv = iats.std() / iats.mean()
        assert 0.9 < cv < 1.1

    def test_size_sampler_used(self, sim, factory, rng):
        got = []
        sampler = lambda r, n: r.integers(100, 200, n)
        src = PoissonSource(
            sim, factory, got.append, rng, rate_pps=1e6, size_sampler=sampler, duration=5000.0
        )
        src.start()
        sim.run(6000.0)
        sizes = {p.size for p in got}
        assert all(100 <= s < 200 for s in sizes)
        assert len(sizes) > 10

    def test_pseudo_flow_structure(self, sim, factory, rng):
        got = []
        src = PoissonSource(
            sim, factory, got.append, rng, rate_pps=1e6, duration=5000.0, n_flows=8
        )
        src.start()
        sim.run(6000.0)
        flows = {p.flow_id for p in got}
        assert flows <= set(range(8))
        assert len(flows) == 8
        # Per-flow seqs are contiguous from 0.
        for fid in flows:
            seqs = sorted(p.seq for p in got if p.flow_id == fid)
            assert seqs == list(range(len(seqs)))

    def test_zipf_skews_flow_popularity(self, sim, factory, rng):
        got = []
        src = PoissonSource(
            sim, factory, got.append, rng, rate_pps=1e6, duration=20_000.0,
            n_flows=16, zipf_s=1.5,
        )
        src.start()
        sim.run(30_000.0)
        counts = np.bincount([p.flow_id for p in got], minlength=16)
        assert counts[0] > 3 * counts[8]  # rank-0 flow much hotter


class TestOnOff:
    def test_mean_rate_formula(self, sim, factory, rng):
        src = OnOffSource(
            sim, factory, lambda p: None, rng,
            peak_rate_pps=2e6, mean_on=100.0, mean_off=100.0,
        )
        assert src.mean_rate_pps == pytest.approx(1e6)

    def test_bursty_structure(self, sim, factory, rng):
        got = []
        src = OnOffSource(
            sim, factory, got.append, rng,
            peak_rate_pps=2e6, mean_on=50.0, mean_off=500.0, duration=50_000.0,
        )
        src.start()
        sim.run(60_000.0)
        iats = np.diff([p.t_created for p in got])
        # Bursty: CV of inter-arrivals well above Poisson's 1.
        cv = iats.std() / iats.mean()
        assert cv > 1.5

    def test_invalid_params(self, sim, factory, rng):
        with pytest.raises(ValueError):
            OnOffSource(sim, factory, lambda p: None, rng,
                        peak_rate_pps=1e6, mean_on=0.0, mean_off=10.0)


class TestIncast:
    def test_epoch_bursts(self, sim, factory, rng):
        got = []
        src = IncastSource(
            sim, factory, got.append, rng,
            fan_in=4, burst_pkts=3, epoch=1000.0, duration=5000.0, jitter=1.0,
        )
        src.start()
        sim.run(7000.0)
        # 5 epochs x 4 workers x 3 packets
        assert len(got) == 5 * 4 * 3
        # Packets cluster at epoch starts.
        times = np.array([p.t_created for p in got])
        assert np.all((times % 1000.0) < 20.0)


class TestFlowSource:
    def test_flows_registered_and_sized(self, sim, factory, rng):
        tracker = FlowTracker()
        got = []
        src = FlowSource(
            sim, factory, got.append, rng,
            flow_rate_fps=10_000.0, size_cdf=WEBSEARCH_CDF,
            tracker=tracker, duration=20_000.0,
        )
        src.start()
        sim.run(100_000.0)
        assert src.stats.flows > 50
        assert len(tracker.flows) == src.stats.flows
        # Every emitted packet belongs to a registered flow.
        assert all(p.flow_id in tracker.flows for p in got)

    def test_packets_paced_not_simultaneous(self, sim, factory, rng):
        got = []
        src = FlowSource(
            sim, factory, got.append, rng,
            flow_rate_fps=100.0, size_cdf=WEBSEARCH_CDF, pacing_bps=10e9,
            duration=10_000.0,
        )
        src.start()
        sim.run(200_000.0)
        by_flow = {}
        for p in got:
            by_flow.setdefault(p.flow_id, []).append(p.t_created)
        multi = [ts for ts in by_flow.values() if len(ts) > 3]
        assert multi, "expected some multi-packet flows"
        for ts in multi:
            gaps = np.diff(sorted(ts))
            # 1554B at 10 Gbps = 1.24 µs serialization spacing.
            assert gaps.min() > 1.0

    def test_giant_flows_truncated(self, sim, factory, rng):
        from repro.net.workloads import EmpiricalCDF

        huge = EmpiricalCDF([(10**9, 0.5), (2 * 10**9, 1.0)])
        tracker = FlowTracker()
        src = FlowSource(
            sim, factory, lambda p: None, rng,
            flow_rate_fps=1000.0, size_cdf=huge, tracker=tracker,
            max_flow_pkts=100, duration=2000.0,
        )
        src.start()
        sim.run(5000.0)
        assert all(f.n_packets <= 100 for f in tracker.flows.values())


class TestTraceReplay:
    def test_replays_exact_schedule(self, sim, factory, rng):
        got = []
        src = TraceReplaySource(
            sim, factory, got.append, rng,
            times=[0.0, 5.0, 5.0, 12.0], sizes=[100, 200, 300, 400],
        )
        src.start()
        sim.run()
        assert [p.t_created for p in got] == [0.0, 5.0, 5.0, 12.0]
        assert [p.size for p in got] == [100, 200, 300, 400]

    def test_validation(self, sim, factory, rng):
        with pytest.raises(ValueError):
            TraceReplaySource(sim, factory, lambda p: None, rng, times=[1, 0], sizes=[1, 1])
        with pytest.raises(ValueError):
            TraceReplaySource(sim, factory, lambda p: None, rng, times=[0], sizes=[1, 2])

    @pytest.mark.parametrize("times,match", [
        ([0.0, float("nan"), 5.0], "finite"),
        ([0.0, 3.0, float("inf")], "finite"),
        ([-5.0, 0.0, 3.0], ">= 0"),
    ])
    def test_rejects_bad_times(self, sim, factory, rng, times, match):
        with pytest.raises(ValueError, match=match):
            TraceReplaySource(sim, factory, lambda p: None, rng,
                              times=times, sizes=[100] * len(times))

    @pytest.mark.parametrize("trace_first,expected", [
        (True, [(0.0, 0, 100), (0.0, 1, 101), (0.0, 2, 64), (2.0, 3, 102),
                (2.0, 4, 64), (3.0, 5, 103), (4.0, 6, 64), (4.0, 7, 104),
                (4.0, 8, 105), (6.0, 9, 64), (8.0, 10, 106), (8.0, 11, 64),
                (9.0, 12, 107)]),
        (False, [(0.0, 0, 64), (0.0, 1, 100), (0.0, 2, 101), (2.0, 3, 64),
                 (2.0, 4, 102), (3.0, 5, 103), (4.0, 6, 64), (4.0, 7, 104),
                 (4.0, 8, 105), (6.0, 9, 64), (8.0, 10, 106), (8.0, 11, 64),
                 (9.0, 12, 107)]),
    ])
    def test_ties_with_cbr_break_in_recorded_order(self, sim, factory, rng,
                                                    trace_first, expected):
        # Coincident timestamps with a CBR source (size 64) tie-break by
        # schedule order; the expected (t_created, pid, size) sequences
        # pin the order the replay produced when it ran as a generator
        # process.
        got = []
        sink = lambda p: got.append((p.t_created, p.pid, p.size))
        trace = TraceReplaySource(
            sim, factory, sink, rng, times=[0, 0, 2, 3, 4, 4, 8, 9],
            sizes=[100, 101, 102, 103, 104, 105, 106, 107],
            flow_id_base=100)
        cbr = CBRSource(sim, factory, sink, rng, rate_pps=500_000, size=64,
                        duration=10.0)
        for src in ((trace, cbr) if trace_first else (cbr, trace)):
            src.start()
        sim.run()
        assert got == expected


class TestReplayDropLists:
    def test_counts_every_arrival_once_under_replication(self):
        """Replicas take pids in the middle of drop bursts and ring
        overflows, so a loaded batch's drops get their pids a few at a
        time: every arrival is counted once, with its bytes."""
        from repro import FaultSchedule, ScenarioConfig
        from repro.bench.scenarios import build_runtime

        bursts = (FaultSchedule()
                  .drop_burst(at=600.0, duration=200.0)
                  .drop_burst(at=1_200.0, duration=400.0, prob=0.3))
        cfg = ScenarioConfig(
            policy="redundant2", n_paths=4, traffic="onoff", load=0.8,
            duration=3_000.0, warmup=300.0, drain=2_000.0, seed=26,
            faults=bursts, mpdp_overrides={"nic_ring": 16,
                                           "nic_rx_cost": 0.5})
        packets = nbytes = 0
        for times, _, _, sizes, _ in build_runtime(cfg).src.chunks(0.0):
            packets += len(times)
            nbytes += int(np.broadcast_to(sizes, times.shape).sum())
        rt = build_runtime(cfg)
        rt.start()
        rt.sim.run(until=rt.horizon)
        nic, stats = rt.host.nic, rt.src.stats
        assert rt.host.replicator.replicas_created > 0
        assert nic.dropped > nic.fault_dropped > 0
        assert (stats.packets, stats.bytes) == (packets, nbytes)
        assert nic.received + nic.dropped == packets
