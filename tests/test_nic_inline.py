"""The inlined NIC receive paths against ``PhysicalNic.on_wire``.

Three emitters copy ``on_wire``'s no-drop-burst branch inline to save a
call per packet: ``_BaseSource._emit``, ``FlowSource._emit_flow_packet``
and the cluster's ``IngressReplay._tick``.  Each is driven here through
ring overflow, busy and idle NIC periods and two drop-burst windows
(one certain, one probabilistic), against a reference run of the same
packets through the real method.  Both runs must agree on every packet
field, every NIC counter, the order and time of every dispatch and the
simulator's sequence and event counts.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.dataplane.boundary import ENVELOPE_DTYPE, host_ingress
from repro.dataplane.nic import PhysicalNic
from repro.net.packet import FiveTuple, Packet, PacketFactory
from repro.net.traffic import FlowSource, OnOffSource
from repro.net.workloads import EmpiricalCDF
from repro.sim import Simulator

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


def _run_source(make, inline, pooled):
    sim, nic, factory, dispatched, packets = _host(pooled)
    sink = nic if inline else (lambda p: nic.on_wire(p))
    src = make(sim, factory, sink)
    assert (src._nic is nic) is inline
    src.start()
    sim.run(until=HORIZON)
    used = packets[len(factory.free):] if pooled else []
    assert not pooled or used, "the pool was never drawn from"
    return _outcome(sim, nic, dispatched, used)


def _onoff(sim, factory, sink):
    return OnOffSource(sim, factory, sink, np.random.default_rng(1),
                       peak_rate_pps=3e6, mean_on=25.0, mean_off=40.0,
                       duration=500.0)


def _flows(sim, factory, sink):
    sizes = EmpiricalCDF([(1_000, 0.0), (8_000, 0.6), (30_000, 1.0)])
    return FlowSource(sim, factory, sink, np.random.default_rng(2),
                      flow_rate_fps=2e5, size_cdf=sizes, pacing_bps=20e9,
                      max_flow_pkts=20, duration=500.0)


class TestSourcePaths:
    @pytest.mark.parametrize("pooled", [True, False])
    @pytest.mark.parametrize("make", [_onoff, _flows],
                             ids=["emit", "emit_flow_packet"])
    def test_inline_matches_on_wire(self, make, pooled):
        inline = _run_source(make, True, pooled)
        reference = _run_source(make, False, pooled)
        assert inline == reference
        _, dispatched, received, dropped, fault_dropped = inline[:5]
        assert dispatched and received == len(dispatched)
        assert fault_dropped > 0 and dropped > fault_dropped  # overflow too


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
