"""Every public traffic source's emission sequence, pinned by digest.

Each source runs at a fixed seed twice: once into a recording sink and
once into a host NIC (``host.input`` of a two-path data plane with
packet recycling on, where each packet is recorded as the NIC hands it
to the data plane).  The four scenario traffic kinds also run through
:func:`~repro.bench.scenarios.build_runtime`.  A record is ``(time, pid, flow_id, seq,
size)`` plus, for a NIC, the arrival stamp and the packet's creation
time; the digest covers the whole sequence and the final counters.

The configurations cross every per-source batch boundary: 4096-draw
inter-arrival and flow-pick refills (mid ON period for on-off, with and
without OFF periods), Zipf flow picks with a size sampler, incast
bursts that overlap the next epoch, and a trace with tied timestamps.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.bench.scenarios import ScenarioConfig, build_runtime
from repro.core.mpdp import MpdpConfig, MultipathDataPlane
from repro.net import (CBRSource, EmpiricalCDF, FlowSource, IncastSource,
                       OnOffSource, PacketFactory, PoissonSource,
                       TraceReplaySource)
from repro.sim import RngRegistry, Simulator

HORIZON = 12_000.0


def _digest(records, *extra) -> str:
    text = json.dumps([records, list(extra)], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _poisson(sim, factory, sink, rng):
    return PoissonSource(sim, factory, sink, rng, rate_pps=2e6, n_flows=16,
                         zipf_s=1.1, duration=3_000.0,
                         size_sampler=lambda r, n: r.integers(64, 1500, n))


def _cbr(sim, factory, sink, rng):
    return CBRSource(sim, factory, sink, rng, rate_pps=1.6e6, size=300,
                     n_flows=8, duration=3_000.0)


def _onoff(sim, factory, sink, rng):
    return OnOffSource(sim, factory, sink, rng, peak_rate_pps=3e6,
                       mean_on=25.0, mean_off=40.0, n_flows=32,
                       duration=8_000.0)


def _onoff_long(sim, factory, sink, rng):
    # ON periods of thousands of packets: inter-arrival refills fall
    # mid period, and with no OFF time each cycle starts at once.
    return OnOffSource(sim, factory, sink, rng, peak_rate_pps=3e6,
                       mean_on=2_000.0, mean_off=0.0, duration=5_000.0)


def _incast(sim, factory, sink, rng):
    return IncastSource(sim, factory, sink, rng, fan_in=5, burst_pkts=40,
                        epoch=10.0, spacing=0.3, jitter=5.0,
                        duration=1_000.0)


def _flows(sim, factory, sink, rng):
    sizes = EmpiricalCDF([(1_000, 0.0), (8_000, 0.6), (30_000, 1.0)])
    return FlowSource(sim, factory, sink, rng, flow_rate_fps=2e5,
                      size_cdf=sizes, pacing_bps=20e9, max_flow_pkts=20,
                      duration=1_000.0)


def _trace(sim, factory, sink, rng):
    gen = np.random.default_rng(77)
    times = np.round(np.cumsum(gen.exponential(0.7, 3_000)), 1) + 2.5
    sizes = gen.integers(64, 1554, 3_000)
    return TraceReplaySource(sim, factory, sink, rng, times=times,
                             sizes=sizes, n_flows=12)


SOURCES = {
    "poisson": _poisson, "cbr": _cbr, "onoff": _onoff,
    "onoff_long": _onoff_long, "incast": _incast, "flows": _flows,
    "trace": _trace,
}

#: Digest of each source's emissions into a recording sink.
SINK_DIGESTS = {
    "poisson":
        "3151331f6aa7379ff9feaf80e6817e5ee5058e94633c0ec70cfcccb8809a0373",
    "cbr":
        "d80a9376fec9e907b1bfb12eef1dd5931ffddfae55d406788829bffea424f3d2",
    "onoff":
        "6007761d916cab87c758fdca6d3c3d6d02334cc52847713b5a5523b93e6a5133",
    "onoff_long":
        "1a04cdf660f9aa54d147a58e6e5f2bf96d3d8c64d5b1e92909db2e49afa0847c",
    "incast":
        "676c5d0be0f8a6f57b3809035c1efdc15155782ce3649268e1b05e9293358fab",
    "flows":
        "646f895391a59369a1b90076220981cb86b82d96b202f4a73b633721073c3b91",
    "trace":
        "ba0343ef2ebd46ec6a620fc456cb0dcc2bbff993becc18a2d72b68c5c6fe834c",
}

#: Digest of each source's emissions into a host NIC (``host.input``).
NIC_DIGESTS = {
    "poisson":
        "ebd3826c623854c2fddfeab2944b3a61efd73a979ba3e23fa6de088d98609c91",
    "cbr":
        "87f99455dce2e22ff392634e2b7118b7c7ed4338617f507a102254f77f1c1727",
    "onoff":
        "936b87974221ce8758e03a5ca603b40e8b425102f3e66deaccc038b0886bc095",
    "onoff_long":
        "e5f46b63146a93af17cd4fb25afa57f576d9da6598992dd4f536c1345ffbe392",
    "incast":
        "224606cee438449793db484ada738ad0eebbbe07c67245ab7d32345eac9ac109",
    "flows":
        "718e8c276b3611485ec3f1ae9a063726227810028ffae1b8dd5a7d7580f8eb08",
    "trace":
        "a17804ae913e5db7c85558249c09df8459314c4b04283893a053c922ad84190e",
}

#: Digest of each scenario traffic kind's emissions into its host's NIC.
RUNTIME_DIGESTS = {
    "poisson":
        "b5302926972ade1fae29f8037edbba334511c9de01a5fe4e0b6c6221077e194d",
    "onoff":
        "bbc72ee04595bf53170b9007a7bfd637727e17ff48317a33da7c82a978997608",
    "incast":
        "b3d55fd754d395e543924e5cfe64cc101c5beed17f913f4d649e2062d6c070ee",
    "flows":
        "a1f96c9c6b2c2ed43aa37c8889d6c7fcfc39d68b1e6a8e4634634151c1624308",
}


def _sink_digest(name: str) -> str:
    sim = Simulator()
    got = []

    def sink(p):
        got.append((sim.now, p.pid, p.flow_id, p.seq, p.size, p.t_created))

    src = SOURCES[name](sim, PacketFactory(), sink,
                        np.random.default_rng(2024))
    src.start()
    sim.run(until=HORIZON)
    return _digest(got, src.stats.packets, src.stats.bytes, src.stats.flows)


def _nic_recorder(sim, host):
    got = []
    ingress = host.nic.dispatch

    def dispatch(p):
        got.append((sim.now, p.pid, p.flow_id, p.seq, p.size, p.t_nic,
                    p.t_created))
        ingress(p)

    host.nic.dispatch = dispatch
    return got


def _nic_digest(name: str) -> str:
    sim = Simulator()
    rngs = RngRegistry(seed=5)
    host = MultipathDataPlane(
        sim, MpdpConfig(n_paths=2, policy="redundant2", warmup=0.0), rngs)
    host.enable_packet_recycling()
    got = _nic_recorder(sim, host)
    src = SOURCES[name](sim, host.factory, host.input,
                        np.random.default_rng(2024))
    src.start()
    sim.run(until=HORIZON)
    host.finalize()
    return _digest(got, src.stats.packets, host.nic.received,
                   host.nic.dropped, host.sink.delivered,
                   host.replicator.replicas_created)


def _runtime_digest(traffic: str) -> str:
    cfg = ScenarioConfig(policy="redundant2", n_paths=3, traffic=traffic,
                         load=0.8, duration=4_000.0, warmup=400.0,
                         drain=2_000.0, seed=31, epoch=500.0)
    rt = build_runtime(cfg)
    got = _nic_recorder(rt.sim, rt.host)
    rt.start()
    rt.sim.run(until=rt.horizon)
    res = rt.finalize()
    return _digest(got, res.offered, rt.host.nic.received,
                   rt.host.nic.dropped, res.stats["delivered"],
                   res.stats["replicas"])


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_emissions_into_a_sink(name):
    assert _sink_digest(name) == SINK_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_emissions_into_a_host_nic(name):
    assert _nic_digest(name) == NIC_DIGESTS[name]


@pytest.mark.parametrize("traffic", sorted(RUNTIME_DIGESTS))
def test_scenario_source_into_its_nic(traffic):
    assert _runtime_digest(traffic) == RUNTIME_DIGESTS[traffic]
