"""Arrival-process generators.

Every source is a self-rescheduling callback tick that emits packets into
a *sink* callable (normally the data plane's ingress).  Random draws are
**pre-sampled in numpy batches** (inter-arrival times, sizes, flow picks)
rather than drawn one scalar at a time -- the vectorization idiom from the
HPC guides -- so the per-packet Python work is a tuple index plus the event
itself.

Sources share infrastructure through :class:`_BaseSource`:

* deterministic named RNG usage (callers pass a dedicated stream);
* per-source emission statistics (:class:`SourceStats`);
* pseudo-flow management so that hash/flowlet policies see realistic
  flow structure even for packet-level (non `FlowSource`) traffic.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.net.flow import Flow, FlowTracker
from repro.net.packet import HEADER_BYTES, MTU, FiveTuple, Packet, PacketFactory

#: Stage-timestamp placeholder for pooled packet resets.
_NAN = Packet.NAN
from repro.sim.engine import NORMAL, _SEQ_BITS, Simulator
from repro.units import US_PER_S, bps_to_bytes_per_us, pps_to_iat_us

#: Packed ordering key base for NORMAL-priority heap entries; hot ticks
#: push their re-arm entries directly (identical tuples to ``call_in``).
_NORMAL_KEY = NORMAL << _SEQ_BITS

#: Number of random variates pre-sampled per refill.
BATCH = 4096


class SourceStats:
    """Counters every source maintains."""

    __slots__ = ("packets", "bytes", "flows")

    def __init__(self) -> None:
        self.packets = 0
        self.bytes = 0
        self.flows = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SourceStats pkts={self.packets} bytes={self.bytes} flows={self.flows}>"


class _BaseSource:
    """Common machinery: pseudo-flows, sequence numbers, emission.

    Parameters
    ----------
    sim, factory, sink:
        Simulator, shared :class:`PacketFactory`, and the callable that
        receives each emitted packet.
    rng:
        Dedicated random stream for this source.
    n_flows:
        Size of the pseudo-flow pool packets are attributed to.
    flow_id_base:
        Flow ids are ``flow_id_base + flow_index``; give distinct bases to
        concurrent sources to avoid collisions.
    src, dst:
        Host indices stamped into the five-tuple.
    zipf_s:
        If > 0, pick pseudo-flows with Zipf(s) popularity (hash-collision
        stress); uniform otherwise.
    """

    def __init__(
        self,
        sim: Simulator,
        factory: PacketFactory,
        sink: Callable[[Packet], None],
        rng: np.random.Generator,
        n_flows: int = 64,
        flow_id_base: int = 0,
        src: int = 0,
        dst: int = 1,
        priority: int = 0,
        zipf_s: float = 0.0,
    ) -> None:
        if n_flows <= 0:
            raise ValueError(f"n_flows must be positive, got {n_flows}")
        self.sim = sim
        self.factory = factory
        self.sink = sink
        self.rng = rng
        self.n_flows = n_flows
        self.flow_id_base = flow_id_base
        self.src = src
        self.dst = dst
        self.priority = priority
        self.stats = SourceStats()
        self._seq = [0] * n_flows
        self._tuples = [
            FiveTuple(src, dst, 1024 + i, 80) for i in range(n_flows)
        ]
        if zipf_s > 0.0:
            ranks = np.arange(1, n_flows + 1, dtype=np.float64)
            w = ranks ** (-zipf_s)
            self._flow_probs: Optional[np.ndarray] = w / w.sum()
        else:
            self._flow_probs = None
        # Batched flow picks as a plain Python list (converted once per
        # refill) so per-packet indexing yields Python ints.
        self._flow_picks: list = []
        self._flow_pick_i = 0
        # Resolve the sink back to a PhysicalNic when possible so _emit
        # can run the inlined rx fast path (one call fewer per packet).
        from repro.dataplane.nic import PhysicalNic  # local: import cycle

        if isinstance(sink, PhysicalNic):
            self._nic = sink
        elif getattr(sink, "__func__", None) is PhysicalNic.on_wire:
            self._nic = sink.__self__
        else:
            self._nic = None

    # ------------------------------------------------------------------
    def start(self):  # pragma: no cover - abstract
        """Begin emitting: schedule the source's first tick."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _refill_flow_picks(self) -> list:
        """Draw the next batch of pseudo-flow picks (same draws as ever)."""
        if self._flow_probs is None:
            picks = self.rng.integers(0, self.n_flows, BATCH).tolist()
        else:
            picks = self.rng.choice(
                self.n_flows, size=BATCH, p=self._flow_probs
            ).tolist()
        self._flow_picks = picks
        self._flow_pick_i = 0
        return picks

    def _next_flow_index(self) -> int:
        """Pick the pseudo-flow for the next packet (batch-sampled)."""
        i = self._flow_pick_i
        picks = self._flow_picks
        if i >= len(picks):
            picks = self._refill_flow_picks()
            i = 0
        self._flow_pick_i = i + 1
        return picks[i]

    def _emit(self, size: int, flow_index: Optional[int] = None) -> Packet:
        """Create one packet on a pseudo-flow and hand it to the sink."""
        fi = flow_index
        if fi is None:
            i = self._flow_pick_i
            picks = self._flow_picks
            if i >= len(picks):
                picks = self._refill_flow_picks()
                i = 0
            self._flow_pick_i = i + 1
            fi = picks[i]
        factory = self.factory
        pid = factory._next_pid
        factory._next_pid = pid + 1
        factory.created += 1
        seqs = self._seq
        free = factory.free
        if free:
            # Pool hit: reset every field a fresh Packet would carry.
            pkt = free.pop()
            pkt.pid = pid
            pkt.ftuple = self._tuples[fi]
            pkt.flow_id = self.flow_id_base + fi
            pkt.seq = seqs[fi]
            pkt.size = size
            pkt.priority = self.priority
            pkt.t_created = self.sim._now
            pkt.t_nic = _NAN
            pkt.t_enq = _NAN
            pkt.t_deq = _NAN
            pkt.t_done = _NAN
            pkt.path_id = -1
            pkt.copy_of = -1
            pkt.dropped = None
            pkt.meta = None
        else:
            pkt = Packet(
                pid,
                self._tuples[fi],
                size,
                self.sim._now,
                self.flow_id_base + fi,
                seqs[fi],
                self.priority,
            )
        seqs[fi] += 1
        stats = self.stats
        stats.packets += 1
        stats.bytes += size
        nic = self._nic
        if nic is not None and self.sim._now >= nic._fault_until:
            # Inlined PhysicalNic.on_wire (no active drop burst); the
            # slow/faulted case falls back to the real method.
            sim = self.sim
            now = sim._now
            pkt.t_nic = now
            ring = nic._ring
            if len(ring) >= nic.ring_size:
                pkt.dropped = f"{nic.name}:ring-overflow"
                nic.dropped += 1
            else:
                nic.received += 1
                ring.append(pkt)
                if not nic._busy:
                    nic._busy = True
                    sim._seq = seq = sim._seq + 1
                    sim._push((now + nic.rx_cost, _NORMAL_KEY | seq,
                               nic._rx_done, ()))
        else:
            self.sink(pkt)
        return pkt


class CBRSource(_BaseSource):
    """Constant-bit-rate source: fixed inter-arrival, fixed size."""

    def __init__(
        self,
        sim: Simulator,
        factory: PacketFactory,
        sink: Callable[[Packet], None],
        rng: np.random.Generator,
        rate_pps: float,
        size: int = MTU + HEADER_BYTES,
        duration: float = float("inf"),
        **kw,
    ) -> None:
        super().__init__(sim, factory, sink, rng, **kw)
        self.iat = pps_to_iat_us(rate_pps)
        self.size = int(size)
        self.duration = duration
        self._t0 = 0.0

    def start(self):
        self._t0 = self.sim.now
        self.sim.call_in(0.0, self._tick)
        return None

    def _tick(self) -> None:
        sim = self.sim
        if sim._now - self._t0 >= self.duration:
            return
        self._emit(self.size)
        sim._seq = seq = sim._seq + 1
        sim._push((sim._now + self.iat, _NORMAL_KEY | seq, self._tick, ()))


class PoissonSource(_BaseSource):
    """Poisson arrivals at ``rate_pps`` with fixed or sampled sizes.

    Parameters
    ----------
    size_sampler:
        Optional ``f(rng, n) -> int array`` drawing ``n`` packet sizes;
        fixed ``size`` otherwise.
    """

    def __init__(
        self,
        sim: Simulator,
        factory: PacketFactory,
        sink: Callable[[Packet], None],
        rng: np.random.Generator,
        rate_pps: float,
        size: int = MTU + HEADER_BYTES,
        size_sampler: Optional[Callable[[np.random.Generator, int], np.ndarray]] = None,
        duration: float = float("inf"),
        **kw,
    ) -> None:
        super().__init__(sim, factory, sink, rng, **kw)
        self.mean_iat = pps_to_iat_us(rate_pps)
        self.size = int(size)
        self.size_sampler = size_sampler
        self.duration = duration
        self._t0 = 0.0
        # Batched draws converted to Python scalars once per refill, so
        # the per-packet path never touches a numpy scalar.
        self._iats: list = []
        self._sizes: list = []
        self._i = 0

    def start(self):
        self._t0 = self.sim.now
        self.sim.call_in(0.0, self._tick)
        return None

    def _tick(self) -> None:
        sim = self.sim
        if sim._now - self._t0 >= self.duration:
            return
        i = self._i
        if i >= len(self._iats):
            self._iats = self.rng.exponential(self.mean_iat, BATCH).tolist()
            if self.size_sampler is not None:
                self._sizes = np.asarray(self.size_sampler(self.rng, BATCH)).tolist()
            i = 0
        size = self._sizes[i] if self.size_sampler is not None else self.size
        self._emit(size)
        self._i = i + 1
        sim._seq = seq = sim._seq + 1
        sim._push((sim._now + self._iats[i], _NORMAL_KEY | seq, self._tick, ()))


class OnOffSource(_BaseSource):
    """Markov-modulated ON/OFF bursty source.

    During an ON period (exponential, mean ``mean_on``) packets are emitted
    at ``peak_rate_pps`` with exponential spacing; OFF periods (mean
    ``mean_off``) are silent.  Average rate is
    ``peak * mean_on / (mean_on + mean_off)``.
    """

    def __init__(
        self,
        sim: Simulator,
        factory: PacketFactory,
        sink: Callable[[Packet], None],
        rng: np.random.Generator,
        peak_rate_pps: float,
        mean_on: float,
        mean_off: float,
        size: int = MTU + HEADER_BYTES,
        duration: float = float("inf"),
        **kw,
    ) -> None:
        super().__init__(sim, factory, sink, rng, **kw)
        if mean_on <= 0 or mean_off < 0:
            raise ValueError("mean_on must be > 0 and mean_off >= 0")
        self.peak_iat = pps_to_iat_us(peak_rate_pps)
        self.mean_on = mean_on
        self.mean_off = mean_off
        self.size = int(size)
        self.duration = duration
        self._t0 = 0.0
        self._on_end = 0.0
        self._iats: list = []
        self._i = 0

    @property
    def mean_rate_pps(self) -> float:
        """Long-run average emission rate in packets/second."""
        duty = self.mean_on / (self.mean_on + self.mean_off)
        return duty * US_PER_S / self.peak_iat

    def start(self):
        self._t0 = self.sim.now
        self.sim.call_in(0.0, self._begin_cycle)
        return None

    def _begin_cycle(self) -> None:
        sim = self.sim
        if sim.now - self._t0 >= self.duration:
            return
        on_len = float(self.rng.exponential(self.mean_on))
        self._on_end = sim.now + on_len
        # Emit with exponential spacing at peak rate until ON ends.
        self._iats = self.rng.exponential(self.peak_iat, BATCH).tolist()
        self._i = 0
        self._tick_on()

    def _tick_on(self) -> None:
        sim = self.sim
        if sim._now < self._on_end:
            self._emit(self.size)
            i = self._i
            if i >= len(self._iats):
                self._iats = self.rng.exponential(self.peak_iat, BATCH).tolist()
                i = 0
            self._i = i + 1
            sim._seq = seq = sim._seq + 1
            sim._push((sim._now + self._iats[i], _NORMAL_KEY | seq,
                       self._tick_on, ()))
            return
        if self.mean_off > 0:
            sim.call_in(float(self.rng.exponential(self.mean_off)), self._begin_cycle)
        else:
            self._begin_cycle()


class IncastSource(_BaseSource):
    """Synchronized fan-in bursts (partition/aggregate pattern).

    Every ``epoch`` µs, ``fan_in`` workers each deliver a ``burst_pkts``
    packet response nearly simultaneously (small per-packet spacing models
    NIC serialization at the senders).
    """

    def __init__(
        self,
        sim: Simulator,
        factory: PacketFactory,
        sink: Callable[[Packet], None],
        rng: np.random.Generator,
        fan_in: int = 16,
        burst_pkts: int = 8,
        epoch: float = 1000.0,
        spacing: float = 0.3,
        size: int = MTU + HEADER_BYTES,
        jitter: float = 5.0,
        duration: float = float("inf"),
        **kw,
    ) -> None:
        kw.setdefault("n_flows", max(fan_in, 1))
        super().__init__(sim, factory, sink, rng, **kw)
        self.fan_in = fan_in
        self.burst_pkts = burst_pkts
        self.epoch = epoch
        self.spacing = spacing
        self.size = int(size)
        self.jitter = jitter
        self.duration = duration
        self._t0 = 0.0

    def start(self):
        self._t0 = self.sim.now
        self.sim.call_in(0.0, self._tick)
        return None

    def _tick(self) -> None:
        sim = self.sim
        if sim.now - self._t0 >= self.duration:
            return
        # Each worker's burst starts with a small random skew.
        skews = self.rng.uniform(0.0, self.jitter, self.fan_in)
        for w in range(self.fan_in):
            for k in range(self.burst_pkts):
                sim.call_in(
                    float(skews[w]) + k * self.spacing,
                    self._emit,
                    self.size,
                    w % self.n_flows,
                )
        sim.call_in(self.epoch, self._tick)


class FlowSource(_BaseSource):
    """Poisson flow arrivals with empirically distributed sizes.

    Each flow is segmented into MTU packets paced at ``pacing_bps`` and
    registered with a :class:`FlowTracker` so FCT can be measured.  Flow
    ids are globally unique per source.
    """

    def __init__(
        self,
        sim: Simulator,
        factory: PacketFactory,
        sink: Callable[[Packet], None],
        rng: np.random.Generator,
        flow_rate_fps: float,
        size_cdf,
        tracker: Optional[FlowTracker] = None,
        pacing_bps: float = 10e9,
        max_flow_pkts: int = 10_000,
        duration: float = float("inf"),
        **kw,
    ) -> None:
        super().__init__(sim, factory, sink, rng, **kw)
        self.mean_flow_iat = US_PER_S / flow_rate_fps
        self.size_cdf = size_cdf
        self.tracker = tracker
        self.pacing_Bpu = bps_to_bytes_per_us(pacing_bps)
        self.max_flow_pkts = max_flow_pkts
        self.duration = duration
        self._next_flow_id = self.flow_id_base
        self._t0 = 0.0
        self._iats: list = []
        self._sizes: list = []
        self._i = 0

    def start(self):
        self._t0 = self.sim.now
        self.sim.call_in(0.0, self._tick)
        return None

    def _tick(self) -> None:
        sim = self.sim
        if sim.now - self._t0 >= self.duration:
            return
        i = self._i
        if i >= len(self._iats):
            self._iats = self.rng.exponential(self.mean_flow_iat, BATCH).tolist()
            self._sizes = np.asarray(
                self.size_cdf.sample_int(self.rng, BATCH)
            ).tolist()
            i = 0
        self._launch_flow(self._sizes[i])
        self._i = i + 1
        sim._seq = seq = sim._seq + 1
        sim._push((sim._now + self._iats[i], _NORMAL_KEY | seq, self._tick, ()))

    def _launch_flow(self, size: int) -> Flow:
        """Register one flow and schedule its paced packet emissions."""
        flow_id = self._next_flow_id
        self._next_flow_id += 1
        sport = 1024 + (flow_id % 50_000)
        ftuple = FiveTuple(self.src, self.dst, sport, 80)
        flow = Flow(flow_id, ftuple, size, self.sim.now)
        if flow.n_packets > self.max_flow_pkts:
            # Truncate absurdly large flows to bound experiment runtime;
            # FCT analyses exclude them (they are in the >max bucket).
            flow = Flow(flow_id, ftuple, self.max_flow_pkts * MTU, self.sim.now)
        if self.tracker is not None:
            self.tracker.register(flow)
        self.stats.flows += 1
        offset = 0.0
        for seq, psize in enumerate(flow.packet_sizes()):
            self.sim.call_in(offset, self._emit_flow_packet, flow, seq, psize)
            offset += psize / self.pacing_Bpu
        return flow

    def _emit_flow_packet(self, flow: Flow, seq: int, size: int) -> None:
        factory = self.factory
        pid = factory._next_pid
        factory._next_pid = pid + 1
        factory.created += 1
        free = factory.free
        if free:
            pkt = free.pop()
            pkt.pid = pid
            pkt.ftuple = flow.ftuple
            pkt.flow_id = flow.flow_id
            pkt.seq = seq
            pkt.size = size
            pkt.priority = self.priority
            pkt.t_created = self.sim._now
            pkt.t_nic = _NAN
            pkt.t_enq = _NAN
            pkt.t_deq = _NAN
            pkt.t_done = _NAN
            pkt.path_id = -1
            pkt.copy_of = -1
            pkt.dropped = None
            pkt.meta = None
        else:
            pkt = Packet(
                pid, flow.ftuple, size, self.sim._now, flow.flow_id, seq,
                self.priority
            )
        stats = self.stats
        stats.packets += 1
        stats.bytes += size
        nic = self._nic
        if nic is not None and self.sim._now >= nic._fault_until:
            # Inlined PhysicalNic.on_wire (see _emit).
            sim = self.sim
            now = sim._now
            pkt.t_nic = now
            ring = nic._ring
            if len(ring) >= nic.ring_size:
                pkt.dropped = f"{nic.name}:ring-overflow"
                nic.dropped += 1
            else:
                nic.received += 1
                ring.append(pkt)
                if not nic._busy:
                    nic._busy = True
                    sim._seq = seq = sim._seq + 1
                    sim._push((now + nic.rx_cost, _NORMAL_KEY | seq,
                               nic._rx_done, ()))
        else:
            self.sink(pkt)


class TraceReplaySource(_BaseSource):
    """Replay explicit ``(time, size)`` arrays (times relative to start).

    Times must be finite, non-negative and non-decreasing.  The tick
    emits every packet due now and schedules itself once per positive
    gap, so packets sharing a timestamp go out back to back.
    """

    def __init__(
        self,
        sim: Simulator,
        factory: PacketFactory,
        sink: Callable[[Packet], None],
        rng: np.random.Generator,
        times: Sequence[float],
        sizes: Sequence[int],
        **kw,
    ) -> None:
        super().__init__(sim, factory, sink, rng, **kw)
        times = np.asarray(times, dtype=np.float64)
        sizes = np.asarray(sizes, dtype=np.int64)
        if len(times) != len(sizes):
            raise ValueError("times and sizes must have equal length")
        if not np.all(np.isfinite(times)):
            raise ValueError("trace times must be finite")
        if len(times) and times[0] < 0:
            raise ValueError(f"trace times must be >= 0, got {times[0]}")
        if np.any(np.diff(times) < 0):
            raise ValueError("trace times must be non-decreasing")
        self.times = times
        self.sizes = sizes
        self._next = 0
        self._prev = 0.0

    def start(self):
        self.sim.call_in(0.0, self._tick)
        return None

    def _tick(self) -> None:
        times = self.times
        i = self._next
        while i < len(times):
            t = float(times[i])
            if t > self._prev:
                # Sleep through the gap; packet i goes out on wake-up.
                self.sim.call_in(t - self._prev, self._tick)
                self._prev = t
                break
            self._emit(int(self.sizes[i]))
            i += 1
        self._next = i
