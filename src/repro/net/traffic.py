"""Arrival-process generators and the replay tick that feeds them to a host.

Every source -- Poisson, CBR, on-off, incast, paced flows, trace replay
-- is open loop and a generator of arrival *columns*: it draws its
variates from its own stream in numpy batches (inter-arrival times,
sizes, pseudo-flow picks, flow launches), always in the same order, and
yields ``(times, flows, sizes)`` chunks.  The same columns feed a
standalone host and a cluster's routing phase
(:mod:`repro.cluster.engine`), which runs no simulator.

:class:`Replay` is the one tick that turns columns into packets inside a
simulation, for these sources and for a cluster host's merged ingress
(:class:`~repro.dataplane.boundary.IngressReplay`).  By default it hands
each record to its sink at its arrival time.  As its NIC's only producer
(:meth:`Replay.own`) it computes the NIC's receive stage from the columns,
NIC drop bursts included, and gives each packet to the data plane at its
NIC departure time: one event per arriving packet instead of two.
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

#: Records a replay converts to Python objects at a time; it also cuts
#: the records it has handed over from its window this many at a time.
REPLAY_BATCH = 1024


class SourceStats:
    """Counters every source maintains."""

    __slots__ = ("packets", "bytes", "flows")

    def __init__(self) -> None:
        self.packets = 0
        self.bytes = 0
        self.flows = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SourceStats pkts={self.packets} bytes={self.bytes} flows={self.flows}>"


def _arrival(rec) -> float:
    return rec[1]


class ReplayFactory(PacketFactory):
    """A replayed host's packet factory: each pid is the one the host
    would allocate with every packet created at its arrival.

    Before any other allocation (a replica), an owning replay gives a pid
    to every arrival up to now (:meth:`Replay._reserve`).  A cluster
    host's fabric-bound emissions never reach it but took pids too:
    ``sends`` holds their times, and the counter skips past them just
    before each allocation -- to a record's floor (:meth:`catch_up`) or
    to the sends strictly before now.  It never goes back.
    """

    __slots__ = ("_replay", "_sends", "_counted")

    def __init__(self, replay: "Replay",
                 sends: Optional[np.ndarray] = None) -> None:
        super().__init__()
        self._replay = replay
        self._sends = sends
        self._counted = 0

    def catch_up(self, floor: int) -> None:
        gap = floor - self._counted
        if gap > 0:
            self._next_pid += gap
            self.created += gap
            self._counted = floor

    def next_pid(self) -> int:
        replay = self._replay
        now = replay.sim._now
        if replay._nic is not None:
            recs, k = replay._recs, replay._k
            if k == len(recs) or recs[k][1] <= now:  # an arrival is due
                replay._reserve(now)
        if self._sends is not None:
            self.catch_up(int(np.searchsorted(self._sends, now)))
        pid = self._next_pid
        self._next_pid = pid + 1
        self.created += 1
        return pid


class Replay:
    """The one replay tick: arrival columns in, packets out.

    Subclasses write :meth:`_records`, called once at :meth:`start`: an
    iterator of column batches ``[time, floor, flow, seq, size, priority,
    t_created]`` in arrival order, optionally with an eighth column, the
    time each arrival was scheduled (else the previous arrival scheduled
    it).  ``floor`` is the pid floor (:class:`ReplayFactory`; 0 for a
    source) and ``flow`` indexes ``flows``, ``(FiveTuple, flow_id)``
    pairs.  Batches become Python tuples one at a time.

    By default each record goes to ``sink`` at its arrival time, all
    records of one timestamp in one event.  After :meth:`own`, the
    replay runs its host NIC's receive stage -- departure ``d =
    max(arrival, previous d) + rx_cost``, an arrival finding
    ``ring_size`` admitted packets not yet departed dropped, and one in a
    drop burst (:meth:`drop_bursts`) dropped before it reaches the ring
    -- and hands each packet to the NIC's ``dispatch`` at ``d``, stamped
    ``t_nic`` at arrival, with its ``nic_ring`` span when tracing.  The
    NIC reads its counters from :meth:`nic_counts`.  An arrival counts in
    ``_stats`` once it has a pid.
    """

    __slots__ = ("sim", "factory", "sink", "flows", "sends", "_stats",
                 "_feed", "_recs", "_i", "_k", "_loaded", "_nic", "_out",
                 "_reserved", "_drop_t", "_drop_g", "_fault_t", "_gone",
                 "_bursts", "_burst_at", "_burst_rng", "_prev", "_pa", "_hp",
                 "_hidle", "_late", "_counts")

    def __init__(self, sim: Simulator, factory: Optional[PacketFactory],
                 sink: Callable[[Packet], None], flows: list,
                 sends: Optional[np.ndarray] = None) -> None:
        self.sim = sim
        self.factory = factory
        self.sink = sink
        self.flows = flows
        self.sends = sends
        self._stats = SourceStats()
        self._feed = None
        #: Loaded records ``(when, time, floor, flow, seq, size, priority,
        #: t_created)``: ``when`` is the event time, ``None`` for a NIC
        #: drop.
        self._recs: list = []
        self._i = self._k = 0  # next record to hand over / to take a pid
        self._loaded = 0
        self._nic = None
        self._drop_t: list = []  # arrival times of NIC drops
        self._drop_g: list = []  # and their record numbers
        self._fault_t: list = []  # arrival times of drop-burst drops
        self._gone = (0, 0)  # drops and drop-burst drops let go of
        #: Drop-burst windows ``(start, end, prob)``, the next one last,
        #: and the start of the next one.
        self._bursts: list = []
        self._burst_at = float("inf")

    def _records(self):  # pragma: no cover - abstract
        raise NotImplementedError

    # ------------------------------------------------------------------
    def adopt(self, host) -> None:
        """Make a :class:`ReplayFactory` on ``host``'s free list the
        host's (and its replicator's) packet factory."""
        factory = ReplayFactory(self, self.sends)
        factory.free = host.factory.free
        host.factory = host.replicator.factory = self.factory = factory

    def own(self, host) -> None:
        """Become ``host.nic``'s only producer; the caller guarantees
        nothing else feeds it.  Drop bursts reach it only through
        :meth:`drop_bursts` (a :class:`~repro.faults.FaultInjector`
        installed afterwards calls it)."""
        from collections import deque

        if not isinstance(self.factory, ReplayFactory):
            self.adopt(host)
        self._nic = host.nic
        host.nic._feed = self
        self._out = deque()  # departures of admitted, undeparted arrivals
        self._reserved = deque()  # pids of arrivals still in the NIC
        # The latest arrival event's time and when it was scheduled; when
        # the head departure was scheduled, and whether by an arrival.
        self._prev = self._pa = self._hp = -float("inf")
        self._hidle = True
        self._late = set()  # arrival times a departure there preceded

    def drop_bursts(self, events, rng) -> None:
        """Drop the arrivals the ``drop_burst`` events of a fault
        timeline (:meth:`~repro.faults.FaultSchedule.materialize`) would
        drop at an owned NIC, as ``inject_drop_burst`` does: an arm at
        ``t`` drops each arrival in ``[t, t + duration)`` with its
        probability, until a later clear ends the burst, and a
        probabilistic drop draws from ``rng`` in arrival order.  An
        arrival at an event's time sees the event applied."""
        bursts = [ev for ev in events if ev.kind == "drop_burst"]
        wins = []
        for ev, nxt in zip(bursts, bursts[1:] + [None]):
            end = ev.time + ev.duration if ev.action == "arm" else ev.time
            if nxt is not None:
                end = min(end, nxt.time)
            if end > ev.time:
                wins.append((ev.time, end, ev.magnitude))
        self._bursts = wins[::-1]
        self._burst_at = wins[0][0] if wins else float("inf")
        self._burst_rng = rng

    def start(self) -> None:
        """Schedule the first record (past NIC drops, which have no
        event)."""
        self._feed = self._records()
        if self._nic is None:
            self.sim.call_in(0.0, self._wake)
        elif self._load():
            recs = self._recs
            while recs[self._i][0] is None:
                self._i += 1
                if self._i == len(recs) and not self._load():
                    return
            self.sim.call_at(recs[self._i][0], self._tick)

    def nic_counts(self):
        """``(received, dropped, ring occupancy, drop-burst drops)`` of
        the owned NIC now: every arrival at or before now has reached
        it."""
        from bisect import bisect_left, bisect_right

        now, recs = self.sim._now, self._recs
        while (not recs or recs[-1][1] <= now) and self._load():
            pass
        base = self._loaded - len(recs)
        drops, faults = self._gone
        dropped = drops + bisect_right(self._drop_t, now)
        received = base + bisect_right(recs, now, key=_arrival) - dropped
        gone = base + self._i
        return (received, dropped,
                received - gone + drops + bisect_left(self._drop_g, gone),
                faults + bisect_right(self._fault_t, now))

    # ------------------------------------------------------------------
    def _load(self) -> int:
        """Append the next non-empty batch to the window; its length, or
        0 once the columns are done (and let go of)."""
        while self._feed is not None:
            cols = next(self._feed, None)
            if cols is None:
                self._feed = None
            elif cols[0]:
                times = cols[0]
                when = times if self._nic is None else self._nic_stage(
                    times, cols[7] if len(cols) > 7 else None)
                self._recs.extend(zip(when, *cols[:7]))
                self._loaded += len(times)
                return len(times)
        return 0

    def _nic_stage(self, times: list, sched: Optional[list]) -> list:
        """Each arrival's NIC departure time, or ``None`` if dropped,
        with arrival and departure events merged as ``on_wire`` and
        ``_rx_done`` would see them.  A departure is scheduled by the
        arrival that finds the NIC idle, or else by the departure before
        it; an exact tie goes to the event scheduled first (at one
        instant: the departure, unless the departure that scheduled it
        came after that instant's arrivals, or the arrival that scheduled
        it was scheduled with this one, as a group's first emission is).
        An arrival in a drop-burst window is dropped before the ring."""
        out = self._out
        popleft, push = out.popleft, out.append
        ring, cost = self._nic.ring_size, self._nic.rx_cost
        prev, pa, hp, hidle = self._prev, self._pa, self._hp, self._hidle
        late = self._late
        burst_at = self._burst_at
        g = self._loaded - 1
        deps = []
        keep = deps.append
        for a in times:
            g += 1
            if a != prev:
                pa, prev = prev, a
                # Departures due first free their slots (the busy test),
                # each scheduling the next one.
                while out and a >= out[0]:
                    if a == out[0]:
                        at = pa if sched is None else sched[g - self._loaded]
                        if hp > at or hp == at and (
                                sched is not None if hidle
                                else at not in late):
                            break
                        late.add(a)
                    hp, hidle = popleft(), False
            if a >= burst_at:
                taken, burst_at = self._burst(a)
                if taken:
                    keep(None)
                    self._drop_t.append(a)
                    self._drop_g.append(g)
                    self._fault_t.append(a)
                    continue
            if len(out) >= ring:
                keep(None)
                self._drop_t.append(a)
                self._drop_g.append(g)
            else:
                if out:
                    d = out[-1] + cost
                else:
                    d = a + cost
                    hp, hidle = a, True
                push(d)
                keep(d)
        self._prev, self._pa, self._hp, self._hidle = prev, pa, hp, hidle
        return deps

    def _burst(self, a: float):
        """Whether a drop burst takes the arrival at ``a``, which is at
        or past the next window's start (windows over by ``a`` go), and
        the next window's start after that."""
        wins = self._bursts
        while wins and a >= wins[-1][1]:
            wins.pop()
        self._burst_at = wins[-1][0] if wins else float("inf")
        if a < self._burst_at:
            return False, self._burst_at
        prob = wins[-1][2]
        return (prob >= 1.0 or self._burst_rng.random() < prob,
                self._burst_at)

    def _reserve(self, now: float) -> None:
        """Give a pid to every arrival up to ``now`` that has none: those
        at ``now`` too, unless a departure at ``now`` came first."""
        recs, k = self._recs, self._k
        while k < len(recs) or self._load():
            t = recs[k][1]
            if t > now or (t == now and t in self._late):
                break
            k += 1
        self._assign(k)

    def _assign(self, end: int) -> None:
        """Give pids to the records up to ``end``, in arrival order; an
        admitted one keeps its pid until it leaves the NIC."""
        factory, stats = self.factory, self._stats
        for rec in self._recs[self._k:end]:
            if rec[2] > factory._counted:
                factory.catch_up(rec[2])
            pid = factory._next_pid
            factory._next_pid = pid + 1
            factory.created += 1
            stats.packets += 1
            stats.bytes += rec[5]
            if rec[0] is not None:
                self._reserved.append(pid)
        self._k = max(self._k, end)

    def _wake(self) -> None:
        """First event of a replay that does not own its NIC."""
        if self._load():
            if self._recs[0][0] == self.sim._now:
                self._tick()
            else:
                self.sim.call_at(self._recs[0][0], self._tick)

    def _tick(self) -> None:
        sim = self.sim
        now = sim._now
        factory = self.factory
        free = factory.free
        flows = self.flows
        nic = self._nic
        recs = self._recs
        i = self._i
        while True:
            _, t, floor, flow, seq, size, priority, t_created = recs[i]
            if self._k == i:
                if floor and floor > factory._counted:
                    factory.catch_up(floor)
                pid = factory._next_pid
                factory._next_pid = pid + 1
                factory.created += 1
                stats = self._stats
                stats.packets += 1
                stats.bytes += size
                self._k = i + 1
            else:
                if self._k < i:  # NIC drops before it still need pids
                    self._assign(i + 1)
                pid = self._reserved.popleft()
            ft, flow_id = flows[flow]
            if free:
                # Pool hit: reset every field a fresh Packet would carry.
                pkt = free.pop()
                pkt.pid = pid
                pkt.ftuple = ft
                pkt.flow_id = flow_id
                pkt.seq = seq
                pkt.size = size
                pkt.priority = priority
                pkt.t_created = t_created
                pkt.t_nic = _NAN
                pkt.t_enq = _NAN
                pkt.t_deq = _NAN
                pkt.t_done = _NAN
                pkt.path_id = -1
                pkt.copy_of = -1
                pkt.dropped = None
                pkt.meta = None
            else:
                pkt = Packet(pid, ft, size, t_created, flow_id, seq, priority)
            # The next record with an event (a NIC drop has none).
            i += 1
            while True:
                try:
                    when = recs[i][0]
                except IndexError:
                    if self._load():
                        continue
                    when = None
                    break
                if when is not None:
                    break
                i += 1
            self._i = i
            if nic is not None:
                # Leaving the NIC: the next departure is sequenced before
                # anything the data plane schedules, as ``_rx_done`` does.
                pkt.t_nic = t
                if when is not None:
                    sim._seq = s = sim._seq + 1
                    sim._push((when, _NORMAL_KEY | s, self._tick, ()))
                if nic.tracer.enabled:
                    nic.tracer.record(now, "nic_ring", pid, now - t)
                nic.dispatch(pkt)
                break
            self.sink(pkt)
            if when != now:
                if when is not None:
                    sim._seq = s = sim._seq + 1
                    sim._push((when, _NORMAL_KEY | s, self._tick, ()))
                break
        if self._i >= REPLAY_BATCH:
            from bisect import bisect_left, bisect_right

            cut = min(self._i, self._k)
            del recs[:cut]
            self._i -= cut
            self._k -= cut
            # Count and let go of the NIC drops before the window (all
            # arrived by now): nic_counts never looks back past it.
            n = bisect_left(self._drop_g, self._loaded - len(recs))
            f = bisect_right(self._fault_t, now)
            del self._drop_t[:n], self._drop_g[:n], self._fault_t[:f]
            self._gone = (self._gone[0] + n, self._gone[1] + f)


def _leading(stop: np.ndarray) -> int:
    """How many arrivals go out before the first one ``stop`` marks."""
    over = np.flatnonzero(stop)
    return int(over[0]) if len(over) else len(stop)


class _ColumnSource(Replay):
    """An open-loop source: a generator of arrival columns (subclasses
    write :meth:`_columns`, or :meth:`_groups`) and its own replay.

    Pseudo-flows are drawn :data:`BATCH` at a time, exactly when a packet
    needs one; a flow's ``seq`` counts its packets.

    A group source (incast, paced flows) writes :meth:`_groups` instead:
    each group -- an incast epoch, a flow launch -- schedules all its
    emissions at its start, so they go out in (time, scheduling order),
    each scheduled at its group's start.  Into a sink that is not an
    owned NIC, each group is an event that schedules its emissions.

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

    #: ``_groups(t0)`` yields each group's start, then its emission
    #: times, flows and sizes in scheduling order; ``None``: no groups.
    _groups = None

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
        super().__init__(sim, factory, sink, [
            (FiveTuple(src, dst, 1024 + i, 80), flow_id_base + i)
            for i in range(n_flows)])
        self.rng = rng
        self.n_flows = n_flows
        self.flow_id_base = flow_id_base
        self.src = src
        self.dst = dst
        self.priority = priority
        if zipf_s > 0.0:
            ranks = np.arange(1, n_flows + 1, dtype=np.float64)
            w = ranks ** (-zipf_s)
            self._flow_probs: Optional[np.ndarray] = w / w.sum()
        else:
            self._flow_probs = None
        self._picks = np.empty(0, dtype=np.int64)
        self._seqs = np.zeros(n_flows, dtype=np.int64)

    def start(self):
        if self._nic is not None or self._groups is None:
            return Replay.start(self)
        # No NIC stage to compute: each group schedules its emissions.
        self._feed = self._groups(self.sim.now)
        self._counts = {}
        self.sim.call_in(0.0, self._schedule, next(self._feed, None))
        return None

    def _schedule(self, group) -> None:
        if group is None:
            return
        _, times, flows, sizes = group
        for t, flow, size in zip(times.tolist(), flows.tolist(),
                                 sizes.tolist()):
            self.sim.call_at(t, self._emit, flow, size)
        group = next(self._feed, None)
        if group is not None:
            self.sim.call_at(group[0], self._schedule, group)

    def _emit(self, flow: int, size: int) -> None:
        seq = self._counts.get(flow, 0)
        self._counts[flow] = seq + 1
        self._stats.packets += 1
        self._stats.bytes += size
        ft, flow_id = self.flows[flow]
        self.sink(self.factory.make(ft, size, self.sim._now, flow_id, seq,
                                    self.priority))

    @property
    def stats(self) -> SourceStats:
        """Emission counters, as of the current time."""
        if self._nic is not None:  # count the arrivals still in the NIC
            self._reserve(self.sim._now)
        return self._stats

    def chunks(self, t0: float):
        """``(times, flows, seqs, sizes, sched)`` numpy chunks of the
        emissions of a source started at ``t0``, in order; ``sizes`` may
        be one int, and ``sched`` is when each arrival was scheduled, or
        ``None``: by the one before."""
        for times, flows, sizes, *sched in self._columns(t0):
            if len(times):
                yield (times, flows, self._seq_column(flows), sizes,
                       sched[0] if sched else None)

    def _columns(self, t0: float):
        """A group source's emissions: each group merged into those
        pending, sent up to the next group's start (a later group sends
        at or after it starts, after everything already scheduled for
        that instant)."""
        pending = [np.empty(0), np.empty(0, dtype=np.int64),
                   np.empty(0, dtype=np.int64), np.empty(0)]
        for t, *group in self._groups(t0):
            n = int(np.searchsorted(pending[0], t, side="right"))
            yield [c[:n] for c in pending]
            merged = [np.concatenate((c[n:], new)) for c, new in
                      zip(pending, group + [np.full(len(group[0]), t)])]
            order = np.argsort(merged[0], kind="stable")
            pending = [c[order] for c in merged]
        yield pending

    def _records(self):
        from itertools import repeat

        zero, priority = repeat(0), repeat(self.priority)
        for chunk in self.chunks(self.sim.now):
            for lo in range(0, len(chunk[0]), REPLAY_BATCH):
                times, flows, seqs, sizes, sched = (
                    c if c is None or np.ndim(c) == 0
                    else c[lo:lo + REPLAY_BATCH] for c in chunk)
                t = times.tolist()
                size = repeat(sizes) if np.ndim(sizes) == 0 else sizes.tolist()
                cols = [t, zero, flows.tolist(), seqs.tolist(), size,
                        priority, t]
                yield cols if sched is None else cols + [sched.tolist()]

    def _flow_column(self, n: int) -> np.ndarray:
        """The pseudo-flows of the next ``n`` packets."""
        picks = self._picks
        while len(picks) < n:
            if self._flow_probs is None:
                batch = self.rng.integers(0, self.n_flows, BATCH)
            else:
                batch = self.rng.choice(self.n_flows, size=BATCH,
                                        p=self._flow_probs)
            picks = np.concatenate((picks, batch))
        self._picks = picks[n:]
        return picks[:n]

    def _seq_column(self, flows: np.ndarray) -> np.ndarray:
        """Per-flow sequence numbers of a chunk of packets."""
        order = np.argsort(flows, kind="stable")
        f = flows[order]
        counts = np.bincount(flows, minlength=len(self._seqs))
        if len(counts) > len(self._seqs):  # a flow source's new flows
            self._seqs = np.concatenate(
                (self._seqs, np.zeros(len(counts) - len(self._seqs), int)))
        seqs = np.empty(len(f), dtype=np.int64)
        seqs[order] = self._seqs[f] + np.arange(len(f)) - np.searchsorted(f, f)
        self._seqs += counts
        return seqs


class CBRSource(_ColumnSource):
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

    def _columns(self, t0: float):
        t = t0
        while not t - t0 >= self.duration:
            times = np.cumsum(np.concatenate(([t], np.full(BATCH, self.iat))))
            n = _leading(times[:-1] - t0 >= self.duration)
            yield times[:n], self._flow_column(n), self.size
            if n < BATCH:
                return
            t = float(times[-1])


class PoissonSource(_ColumnSource):
    """Poisson arrivals at ``rate_pps`` with fixed or sampled sizes.

    Every :data:`BATCH` packets it draws the inter-arrival batch, then
    the size batch (with a sampler), then the flow-pick batch.

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

    def _columns(self, t0: float):
        rng, t, sampler = self.rng, t0, self.size_sampler
        while not t - t0 >= self.duration:
            times = np.cumsum(np.concatenate(
                ([t], rng.exponential(self.mean_iat, BATCH))))
            sizes = self.size if sampler is None else np.asarray(
                sampler(rng, BATCH))
            n = _leading(times[:-1] - t0 >= self.duration)
            yield times[:n], self._flow_column(n), (
                sizes if sampler is None else sizes[:n])
            if n < BATCH:
                return
            t = float(times[-1])


class OnOffSource(_ColumnSource):
    """Markov-modulated ON/OFF bursty source.

    During an ON period (exponential, mean ``mean_on``) packets are emitted
    at ``peak_rate_pps`` with exponential spacing; OFF periods (mean
    ``mean_off``) are silent.  Average rate is
    ``peak * mean_on / (mean_on + mean_off)``.

    Each period draws its length, then a fresh inter-arrival batch (the
    rest of the last one is discarded), refilled mid period when it runs
    out; its first arrival at or past the period's end closes it, and the
    OFF draw follows.
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

    @property
    def mean_rate_pps(self) -> float:
        """Long-run average emission rate in packets/second."""
        duty = self.mean_on / (self.mean_on + self.mean_off)
        return duty * US_PER_S / self.peak_iat

    def _columns(self, t0: float):
        rng, t = self.rng, t0
        while not t - t0 >= self.duration:
            on_end = t + float(rng.exponential(self.mean_on))
            times = np.cumsum(np.concatenate(
                ([t], rng.exponential(self.peak_iat, BATCH))))
            first = 0  # a later batch starts at an arrival already out
            while True:
                n = _leading(times[first:] >= on_end)
                yield times[first:first + n], self._flow_column(n), self.size
                if first + n < len(times):
                    t = float(times[first + n])
                    break
                times = np.cumsum(np.concatenate(
                    ([times[-1]], rng.exponential(self.peak_iat, BATCH))))
                first = 1
            if self.mean_off > 0:
                t += float(rng.exponential(self.mean_off))


class IncastSource(_ColumnSource):
    """Synchronized fan-in bursts (partition/aggregate pattern).

    Every ``epoch`` µs, ``fan_in`` workers each deliver a ``burst_pkts``
    packet response nearly simultaneously (small per-packet spacing models
    NIC serialization at the senders): worker ``w`` draws a skew and sends
    packet ``k`` at ``epoch start + (skew + k * spacing)``.  Each epoch
    schedules all its emissions; they go out in (time, scheduling order).
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

    def _groups(self, t0: float):
        """Epochs, each scheduling its emissions worker by worker."""
        offsets = np.arange(self.burst_pkts) * self.spacing
        workers = np.repeat(np.arange(self.fan_in) % self.n_flows,
                            self.burst_pkts)
        sizes = np.full(len(workers), self.size)
        t = t0
        while not t - t0 >= self.duration:
            skews = self.rng.uniform(0.0, self.jitter, self.fan_in)
            yield t, t + (skews[:, None] + offsets).ravel(), workers, sizes
            t += self.epoch


class FlowSource(_ColumnSource):
    """Poisson flow arrivals with empirically distributed sizes.

    Each flow is segmented into MTU packets paced at ``pacing_bps`` and
    registered with a :class:`FlowTracker` so FCT can be measured.  Flow
    ids are globally unique per source.

    Every :data:`BATCH` flows it draws the inter-arrival batch, then the
    size batch.  A flow is a group launched at its arrival: its packets
    go out at ``launch + offset``, and it is registered, in launch
    order, when its columns are generated, before its first packet.
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
        self.flows = []  # one (FiveTuple, flow_id) per launched flow
        self._seqs = np.zeros(0, dtype=np.int64)
        self.mean_flow_iat = US_PER_S / flow_rate_fps
        self.size_cdf = size_cdf
        self.tracker = tracker
        self.pacing_Bpu = bps_to_bytes_per_us(pacing_bps)
        self.max_flow_pkts = max_flow_pkts
        self.duration = duration

    def _groups(self, t0: float):
        """Flow launches, each scheduling its packets in order."""
        rng, t, i = self.rng, t0, BATCH
        while not t - t0 >= self.duration:
            if i == BATCH:
                iats = rng.exponential(self.mean_flow_iat, BATCH).tolist()
                sizes = np.asarray(
                    self.size_cdf.sample_int(rng, BATCH)).tolist()
                i = 0
            flow_id = self.flow_id_base + len(self.flows)
            ftuple = FiveTuple(self.src, self.dst, 1024 + flow_id % 50_000, 80)
            flow = Flow(flow_id, ftuple, sizes[i], t)
            if flow.n_packets > self.max_flow_pkts:
                # Truncate absurdly large flows to bound experiment runtime;
                # FCT analyses exclude them (they are in the >max bucket).
                flow = Flow(flow_id, ftuple, self.max_flow_pkts * MTU, t)
            if self.tracker is not None:
                self.tracker.register(flow)
            self._stats.flows += 1
            psizes = np.array(flow.packet_sizes())
            offsets = np.concatenate(
                ([0.0], np.cumsum(psizes[:-1] / self.pacing_Bpu)))
            index = len(self.flows)
            self.flows.append((ftuple, flow_id))
            yield t, t + offsets, np.full(len(psizes), index), psizes
            t += iats[i]
            i += 1


class TraceReplaySource(_ColumnSource):
    """Replay explicit ``(time, size)`` arrays (times relative to start).

    Times must be finite, non-negative and non-decreasing.  Packets
    sharing a timestamp go out back to back in one event; each positive
    gap is added to the previous packet's time.
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

    def _columns(self, t0: float):
        gaps = np.diff(self.times, prepend=0.0)
        for lo in range(0, len(gaps), BATCH):
            times = np.cumsum(np.concatenate(([t0], gaps[lo:lo + BATCH])))
            t0 = float(times[-1])
            yield (times[1:], self._flow_column(len(times) - 1),
                   self.sizes[lo:lo + BATCH])
