"""Tests for the fabric model, host link, and unit helpers."""

import numpy as np
import pytest

from repro import units
from repro.net import FabricModel, HostLink


class TestUnits:
    def test_pps_to_iat(self):
        assert units.pps_to_iat_us(1_000_000) == pytest.approx(1.0)
        assert units.pps_to_iat_us(500_000) == pytest.approx(2.0)

    def test_bps_to_bytes_per_us(self):
        assert units.bps_to_bytes_per_us(8e6) == pytest.approx(1.0)
        assert units.bps_to_bytes_per_us(10e9) == pytest.approx(1250.0)

    def test_converters(self):
        assert units.ms(2) == 2000.0
        assert units.seconds(1) == 1_000_000.0

    def test_invalid_rates(self):
        with pytest.raises(ValueError):
            units.pps_to_iat_us(0)
        with pytest.raises(ValueError):
            units.bps_to_bytes_per_us(-1)


class TestFabricModel:
    def test_fixed_delay(self, sim, mk_packet):
        got = []
        fab = FabricModel(sim, lambda p: got.append((sim.now, p)), base_delay=25.0)
        fab.send(mk_packet())
        sim.run()
        assert got[0][0] == 25.0
        assert fab.forwarded == 1

    def test_jitter_requires_rng(self, sim):
        with pytest.raises(ValueError):
            FabricModel(sim, lambda p: None, base_delay=10.0, jitter_sigma=0.3)

    def test_jitter_spreads_delays(self, sim, mk_packet, rng):
        got = []
        fab = FabricModel(sim, lambda p: got.append(sim.now), rng=rng,
                          base_delay=10.0, jitter_sigma=0.5)
        send_times = []
        for i in range(500):
            sim.call_at(float(i * 100), fab.send, mk_packet(flow_id=-1))
            send_times.append(i * 100.0)
        sim.run()
        delays = np.array(got) - np.array(send_times)
        assert delays.std() > 1.0
        assert np.all(delays > 0)

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            FabricModel(sim, lambda p: None, base_delay=-1.0)


class TestHostLink:
    def test_serialization_delay(self, sim, mk_packet):
        got = []
        link = HostLink(sim, lambda p: got.append(sim.now), rate_bps=10e9)
        link.send(mk_packet(size=1250))
        sim.run()
        assert got == [pytest.approx(1.0)]

    def test_back_to_back_packets_queue(self, sim, mk_packet):
        got = []
        link = HostLink(sim, lambda p: got.append(sim.now), rate_bps=10e9)
        link.send(mk_packet(size=1250))
        link.send(mk_packet(size=1250))
        sim.run()
        assert got == [pytest.approx(1.0), pytest.approx(2.0)]

    def test_idle_gap_resets_wire(self, sim, mk_packet):
        got = []
        link = HostLink(sim, lambda p: got.append(sim.now), rate_bps=10e9)
        link.send(mk_packet(size=1250))
        sim.call_at(100.0, link.send, mk_packet(size=1250))
        sim.run()
        assert got == [pytest.approx(1.0), pytest.approx(101.0)]
