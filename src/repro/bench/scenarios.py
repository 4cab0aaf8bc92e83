"""Canned experiment scenarios.

:func:`run_scenario` is the one-call experiment runner every figure
uses (via the :func:`repro.run` facade): it
builds a host from a :class:`ScenarioConfig`, attaches the requested
traffic source, runs the simulation, and returns a
:class:`SimulationResult` with everything the analyses need.

Load convention
---------------
``load`` is the offered utilization of **one** path's service capacity
aggregated across k paths: ``rate_pps = load * k * path_capacity_pps``.
Path capacity is derived from the chain's expected per-packet cost, so
``load=0.9, policy=single, n_paths=1`` genuinely means a 90%-utilized
single path, and the same load against k=4 offers 4x the packets.
"""

from __future__ import annotations

import dataclasses
import time as _time
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.core.mpdp import MpdpConfig, MultipathDataPlane
from repro.core.policies import Policy
from repro.dataplane.path import PathConfig
from repro.dataplane.vcpu import JitterParams, SHARED_CORE
from repro.elements.nf import standard_chain
from repro.metrics.stats import LatencySummary
from repro.net.flow import FlowTracker
from repro.net.traffic import FlowSource, IncastSource, OnOffSource, PoissonSource
from repro.net.workloads import workload_by_name
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry

#: Traffic source kinds :func:`run_scenario` understands.
TRAFFIC_KINDS = ("poisson", "onoff", "incast", "flows")

_INF = float("inf")


@dataclass
class ScenarioConfig:
    """Everything one experiment run needs.

    Attributes
    ----------
    policy / n_paths / jitter / chain:
        Host shape (see :class:`MpdpConfig`).
    traffic:
        ``"poisson"``, ``"onoff"``, ``"incast"`` or ``"flows"``.
    load:
        Offered utilization (see module docstring); ignored for
        ``incast`` and ``flows`` (which use their own knobs).
    duration:
        Traffic duration (µs); measurement continues until drained.
    warmup:
        Latency samples before this time are discarded.
    """

    policy: str | Dict | Policy = "adaptive"
    n_paths: int = 4
    jitter: JitterParams = field(default_factory=lambda: SHARED_CORE)
    chain: str = "basic"
    traffic: str = "poisson"
    load: float = 0.6
    duration: float = 100_000.0
    warmup: float = 10_000.0
    seed: int = 42
    n_flows: int = 256
    packet_size: int = 1554
    # ON/OFF knobs
    burstiness: float = 2.0  # peak rate multiplier over mean
    mean_on: float = 300.0
    # incast knobs
    fan_in: int = 16
    burst_pkts: int = 8
    epoch: float = 2_000.0
    # flow-workload knobs
    workload: str = "websearch"
    flow_load: float = 0.4  # fraction of aggregate bandwidth
    max_flow_pkts: int = 500
    # interference: contention factor applied to one path's core for the
    # middle [start_frac, end_frac] of the run (0 disables)
    interfere_intensity: float = 0.0
    interfere_path: int = 0
    interfere_start_frac: float = 0.25
    interfere_end_frac: float = 0.75
    # fault injection: a FaultSchedule (see repro.faults) installed over
    # the whole run; None = no faults, nothing armed, zero overhead.
    # Installing a schedule also enables controller ejection/recovery.
    faults: Optional[object] = None
    # service-level objectives: an SloSpec (see repro.slo) measured over
    # the run; None = no tracker installed, zero overhead.  Specs with
    # autotune/start_paths also arm the SloAutotuner control process.
    slo: Optional[object] = None
    # host extras
    mpdp_overrides: Dict = field(default_factory=dict)
    drain: float = 20_000.0

    def path_capacity_pps(self) -> float:
        """Packets/second one path sustains (no jitter), measured.

        Analytic ``chain.mean_cost`` undershoots reality (DPI deep
        scans, NAT state, cache warmth), so capacity is calibrated by
        driving a few thousand steady-state packets through a throwaway
        chain replica -- cached per (chain, packet_size).
        """
        return _calibrated_capacity(self.chain, self.packet_size, self.n_flows)

    def rate_pps(self) -> float:
        """Offered packet rate implied by ``load``."""
        return self.load * self.n_paths * self.path_capacity_pps()

    def mean_off_us(self) -> float:
        """OFF period making the ON/OFF source's peak = burstiness * mean.

        duty = on/(on+off) = 1/burstiness  =>  off = on * (burstiness-1).
        """
        if self.burstiness < 1.0:
            raise ValueError("burstiness must be >= 1")
        return self.mean_on * (self.burstiness - 1.0)

    # -- validation -----------------------------------------------------
    def validate(self) -> "ScenarioConfig":
        """Check every field, raising ``ValueError`` with an actionable
        message on the first problem.  Returns ``self`` for chaining.

        :func:`repro.run` calls this up front so bad names or
        non-positive knobs fail immediately instead of deep inside the
        engine.
        """
        from repro.core.policies import POLICY_NAMES, POLICY_REGISTRY, Policy
        from repro.elements.nf import STANDARD_CHAINS

        if isinstance(self.policy, str):
            if self.policy not in POLICY_REGISTRY:
                raise ValueError(
                    f"unknown policy {self.policy!r}; "
                    f"available: {', '.join(POLICY_NAMES)}"
                )
        elif isinstance(self.policy, dict):
            name = self.policy.get("name")
            if name not in POLICY_REGISTRY:
                raise ValueError(
                    f"unknown policy {name!r} in spec mapping; "
                    f"available: {', '.join(POLICY_NAMES)}"
                )
        elif not isinstance(self.policy, Policy):
            raise ValueError(
                f"policy must be a registry name, a spec mapping with a "
                f"'name' key, or a Policy instance, "
                f"got {type(self.policy).__name__}"
            )
        if isinstance(self.chain, str) and self.chain not in STANDARD_CHAINS:
            raise ValueError(
                f"unknown chain {self.chain!r}; "
                f"available: {', '.join(sorted(STANDARD_CHAINS))}"
            )
        if self.traffic not in TRAFFIC_KINDS:
            raise ValueError(
                f"unknown traffic kind {self.traffic!r}; "
                f"available: {', '.join(TRAFFIC_KINDS)}"
            )
        # Every bound is written ``not <in range>`` so NaN fails it too;
        # ``_INF`` bounds reject infinities where a value must be finite.
        if not self.n_paths >= 1:
            raise ValueError(f"n_paths must be >= 1, got {self.n_paths}")
        if not 0 < self.duration < _INF:
            raise ValueError(
                f"duration must be positive and finite (µs), got {self.duration}"
            )
        if not (0 <= self.warmup < _INF and 0 <= self.drain < _INF):
            raise ValueError(
                f"warmup/drain must be >= 0 and finite (µs), got "
                f"warmup={self.warmup}, drain={self.drain}"
            )
        if not self.warmup < self.duration:
            raise ValueError(
                f"warmup ({self.warmup} µs) must be shorter than duration "
                f"({self.duration} µs): latency samples before warmup are "
                f"discarded, so the run would measure almost nothing"
            )
        if not 0 < self.packet_size < _INF:
            raise ValueError(f"packet_size must be positive bytes, got {self.packet_size}")
        if not self.n_flows >= 1:
            raise ValueError(f"n_flows must be >= 1, got {self.n_flows}")
        if not 0 <= self.interfere_intensity < _INF:
            raise ValueError(
                f"interfere_intensity must be >= 0 and finite, got "
                f"{self.interfere_intensity}"
            )
        if self.traffic in ("poisson", "onoff") and not 0 < self.load < _INF:
            raise ValueError(
                f"load must be positive and finite for {self.traffic!r} "
                f"traffic, got {self.load}"
            )
        if self.traffic == "onoff":
            if not 1.0 <= self.burstiness < _INF:
                raise ValueError(
                    f"burstiness must be >= 1 and finite, got {self.burstiness}"
                )
            if not 0 < self.mean_on < _INF:
                raise ValueError(
                    f"mean_on must be positive and finite (µs), got {self.mean_on}"
                )
        if self.traffic == "incast":
            if not (self.fan_in >= 1 and self.burst_pkts >= 1):
                raise ValueError(
                    f"incast fan_in/burst_pkts must be >= 1, got "
                    f"fan_in={self.fan_in}, burst_pkts={self.burst_pkts}"
                )
            if not 0 < self.epoch < _INF:
                raise ValueError(
                    f"epoch must be positive and finite (µs), got {self.epoch}"
                )
            if self.n_flows != ScenarioConfig.n_flows:
                raise ValueError(
                    f"n_flows does not apply to incast traffic (each of its "
                    f"fan_in workers is one flow), got {self.n_flows}"
                )
        if self.traffic == "flows":
            from repro.net.workloads import workload_by_name

            try:
                workload_by_name(self.workload)
            except KeyError as exc:
                raise ValueError(str(exc).strip('"')) from None
            if not 0 < self.flow_load < _INF:
                raise ValueError(
                    f"flow_load must be positive and finite, got {self.flow_load}"
                )
            if not self.max_flow_pkts >= 1:
                raise ValueError(
                    f"max_flow_pkts must be >= 1, got {self.max_flow_pkts}"
                )
        if self.faults is not None and not hasattr(self.faults, "empty"):
            raise ValueError(
                f"faults must be None or a FaultSchedule, "
                f"got {type(self.faults).__name__}"
            )
        if self.slo is not None:
            if not hasattr(self.slo, "objectives"):
                raise ValueError(
                    f"slo must be None or an SloSpec, "
                    f"got {type(self.slo).__name__}"
                )
            self.slo.validate()
        return self

    # -- serialization --------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-friendly representation (inverse of :meth:`from_dict`).

        Units are the dataclass units: every time in µs, sizes in bytes,
        ``load``/``flow_load`` as utilization fractions.  ``jitter``
        serializes via :meth:`JitterParams.to_dict` and ``faults`` via
        :meth:`FaultSchedule.to_dict`.  A policy serializes as its
        registry name or its spec mapping; configured policy *objects*
        (custom detectors, timeouts) have no declarative form and raise
        ``TypeError``.
        """
        out = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.name == "policy":
                if isinstance(value, dict):
                    value = dict(value)
                elif not isinstance(value, str):
                    raise TypeError(
                        "only policy names and spec mappings are "
                        f"serializable; got a {type(value).__name__} instance"
                    )
                out["policy"] = value
            elif f.name == "jitter":
                out["jitter"] = value.to_dict()
            elif f.name in ("faults", "slo"):
                out[f.name] = None if value is None else value.to_dict()
            elif f.name == "mpdp_overrides":
                out["mpdp_overrides"] = dict(value)
            else:
                out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: Dict) -> "ScenarioConfig":
        """Build a config from :meth:`to_dict`-shaped (JSON) data.

        ``jitter`` may be a profile name (``"shared"``) or a parameter
        dict; ``faults`` a :meth:`FaultSchedule.to_dict` payload or
        ``None``.  Unknown keys raise ``ValueError`` naming the closest
        valid field set.
        """
        from repro.dataplane.vcpu import JitterParams
        from repro.faults import FaultSchedule

        names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - names
        if unknown:
            raise ValueError(
                f"unknown ScenarioConfig field(s) {sorted(unknown)}; "
                f"valid fields: {sorted(names)}"
            )
        kw = dict(data)
        if "jitter" in kw and kw["jitter"] is not None:
            kw["jitter"] = JitterParams.from_dict(kw["jitter"])
        if kw.get("faults") is not None and not hasattr(kw["faults"], "empty"):
            kw["faults"] = FaultSchedule.from_dict(kw["faults"])
        if kw.get("slo") is not None and not hasattr(kw["slo"], "objectives"):
            from repro.slo import SloSpec

            kw["slo"] = SloSpec.from_dict(kw["slo"])
        return cls(**kw)


@dataclass
class SimulationResult:
    """Output of one :func:`repro.run` / :func:`run_scenario` call."""

    config: ScenarioConfig
    summary: LatencySummary
    stats: Dict
    host: Optional[MultipathDataPlane]
    tracker: Optional[FlowTracker]
    offered: int  # packets offered by the source
    sim_time: float
    #: Availability report (fault runs only; see repro.metrics.availability).
    availability: Optional[Dict] = None
    #: Derived values captured at serialization time; set by
    #: :meth:`from_dict` so round-tripped results (``host is None``) keep
    #: answering :meth:`exact_percentile` / :meth:`goodput_gbps`.
    restored: Optional[Dict] = None
    #: Observability bundle (:class:`repro.obs.Telemetry`) when the run
    #: was instrumented; ``None`` otherwise.  Deliberately excluded from
    #: :meth:`to_dict` -- telemetry is an observation of the run, not
    #: part of the result contract, so artifacts stay byte-identical
    #: whether or not a run was traced.
    telemetry: Optional[object] = None
    #: SLO attainment report (runs with ``config.slo`` only; see
    #: :class:`repro.slo.SloTracker.report`).  Serialized only when
    #: present, so pre-SLO result payloads stay byte-identical.
    slo_report: Optional[Dict] = None
    #: Invariant-engine report (runs with checking armed only; see
    #: :meth:`repro.check.InvariantEngine.report`).  Serialized only
    #: when present -- checking is an observation, so unchecked payloads
    #: stay byte-identical.
    check_report: Optional[Dict] = None
    #: Tail-attribution report (runs with forensics armed only; see
    #: :func:`repro.obs.forensics.attribute_tail`).  Serialized only
    #: when present -- forensics is post-processing over telemetry, so
    #: un-forensicated payloads stay byte-identical.
    forensics_report: Optional[Dict] = None

    #: Exact-percentile keys available after a round-trip.
    EXACT_KEYS = ((50.0, "p50"), (90.0, "p90"), (95.0, "p95"),
                  (99.0, "p99"), (99.9, "p999"))

    @property
    def p99(self) -> float:
        return self.summary.p99

    @property
    def p999(self) -> float:
        return self.summary.p999

    def exact_percentile(self, pct) -> float:
        if self.host is not None:
            return self.host.sink.recorder.exact_percentile(pct)
        for value, key in self.EXACT_KEYS:
            if float(pct) == value:
                return self.restored["exact"][key]
        raise KeyError(
            f"percentile {pct} not retained by to_dict(); available: "
            f"{[v for v, _ in self.EXACT_KEYS]}"
        )

    def goodput_gbps(self) -> float:
        if self.host is not None:
            return self.host.sink.throughput.mean_gbps()
        return self.restored["goodput_gbps"]

    def delivered_pps(self) -> float:
        if self.host is not None:
            return self.host.sink.throughput.mean_pps()
        return self.restored["delivered_pps"]

    def to_dict(self) -> Dict:
        """JSON-friendly representation (inverse of :meth:`from_dict`).

        Stable key names shared by sweep artifacts, the files under
        ``benchmarks/results/`` and the figure code.  Units follow the
        config: latencies and ``sim_time`` in µs, ``goodput_gbps`` in
        Gbit/s, ``delivered_pps`` in packets/s.  The live ``host`` and
        ``tracker`` objects do not serialize; exact reservoir
        percentiles (:data:`EXACT_KEYS`) and throughput are captured so
        the round-tripped result still answers the standard queries.
        """
        from repro import schemas

        out = {
            "schema_version": schemas.version_for("simulation_result"),
            "config": self.config.to_dict(),
            "summary": self.summary.to_dict(),
            "stats": self.stats,
            "offered": self.offered,
            "delivered": self.stats["delivered"],
            "sim_time": self.sim_time,
            "availability": self.availability,
            "exact": {key: float(self.exact_percentile(pct))
                      for pct, key in self.EXACT_KEYS},
            "goodput_gbps": float(self.goodput_gbps()),
            "delivered_pps": float(self.delivered_pps()),
        }
        if self.slo_report is not None:
            out["slo_report"] = self.slo_report
        if self.check_report is not None:
            out["check_report"] = self.check_report
        if self.forensics_report is not None:
            out["forensics_report"] = self.forensics_report
        return out

    @classmethod
    def from_dict(cls, data: Dict) -> "SimulationResult":
        """Rebuild a (host-less) result from :meth:`to_dict` output.

        Rejects payloads whose ``schema_version`` has an unsupported
        major version (see :mod:`repro.schemas`); payloads written
        before versioning existed load as before.
        """
        from repro import schemas

        schemas.check_version(data, "simulation_result")
        return cls(
            config=ScenarioConfig.from_dict(data["config"]),
            summary=LatencySummary.from_dict(data["summary"]),
            stats=data["stats"],
            host=None,
            tracker=None,
            offered=int(data["offered"]),
            sim_time=float(data["sim_time"]),
            availability=data.get("availability"),
            restored={
                "exact": dict(data.get("exact", {})),
                "goodput_gbps": float(data.get("goodput_gbps", 0.0)),
                "delivered_pps": float(data.get("delivered_pps", 0.0)),
            },
            slo_report=data.get("slo_report"),
            check_report=data.get("check_report"),
            forensics_report=data.get("forensics_report"),
        )


_CAPACITY_CACHE: Dict = {}


def _calibrated_capacity(chain_name: str, packet_size: int, n_flows: int) -> float:
    """Measure one path's sustainable pps by replaying steady-state traffic
    through a fresh chain replica (flow cache included)."""
    key = (chain_name, packet_size, n_flows)
    cached = _CAPACITY_CACHE.get(key)
    if cached is not None:
        return cached
    from repro.dataplane.vswitch import FlowCache
    from repro.net.packet import FiveTuple, PacketFactory

    rng = np.random.default_rng(0xCA11B)
    chain = standard_chain(chain_name, rng)
    fc = FlowCache("calib.fc")
    factory = PacketFactory()
    tuples = [FiveTuple(0, 1, 1024 + i, 80) for i in range(n_flows)]
    n_warm, n_measure = 2 * n_flows, 4096
    total = 0.0
    for i in range(n_warm + n_measure):
        pkt = factory.make(tuples[i % n_flows], packet_size, 0.0,
                           flow_id=i % n_flows, seq=i)
        cost = fc.process(pkt, 0.0) + chain.process(pkt, 0.0)
        if i >= n_warm:
            total += cost
    # Charge the full per-batch overhead: below saturation the poller
    # mostly serves singleton batches, so it is not amortized.  (Under
    # backlog real batching makes effective capacity higher than this,
    # which errs on the safe side for load calibration.)
    per_pkt = total / n_measure + 0.25
    capacity = 1e6 / per_pkt
    _CAPACITY_CACHE[key] = capacity
    return capacity


def prime_capacity_cache(configs) -> None:
    """Calibrate every capacity ``configs`` will ask for, in this process.

    Called before forking workers, so each worker inherits a warm cache
    instead of calibrating cold.  A capacity is a pure function of its
    ``(chain, packet_size, n_flows)`` key; incast traffic needs none.
    """
    for cfg in configs:
        if cfg.traffic != "incast":
            cfg.path_capacity_pps()


class ScenarioRuntime:
    """One fully-built scenario host, not yet (or partially) run.

    :func:`build_runtime` assembles everything :func:`run_scenario`
    needs -- simulator, RNG registry, data plane, traffic source,
    injector/SLO/check/telemetry attachments -- without advancing the
    clock, so callers control the run loop.  ``run_scenario`` drives it
    to completion in one ``sim.run``; the cluster engine
    (:mod:`repro.cluster`) builds it around a replayed ingress stream
    instead of a traffic source and runs it to the cluster's end.
    Splitting build from run is what lets every shard reuse the
    single-host engine *unmodified*.
    """

    __slots__ = ("config", "sim", "rngs", "host", "tracker", "src",
                 "engine", "telemetry", "injector", "slo_tracker",
                 "forensics_spec", "_wall_start", "_finalized")

    def __init__(self, config, sim, rngs, host, tracker, src, engine,
                 telemetry, injector, slo_tracker, forensics_spec,
                 wall_start) -> None:
        self.config = config
        self.sim = sim
        self.rngs = rngs
        self.host = host
        self.tracker = tracker
        self.src = src
        self.engine = engine
        self.telemetry = telemetry
        self.injector = injector
        self.slo_tracker = slo_tracker
        self.forensics_spec = forensics_spec
        self._wall_start = wall_start
        self._finalized = False

    @property
    def horizon(self) -> float:
        """Nominal run end (traffic duration + drain), in µs."""
        return self.config.duration + self.config.drain

    def start(self) -> None:
        """Begin traffic emission (does not advance the clock)."""
        self.src.start()

    def finalize(self) -> SimulationResult:
        """Close out the run and build the :class:`SimulationResult`.

        Call exactly once, after the event loop has been driven to the
        horizon (``sim.run``).
        """
        if self._finalized:
            raise RuntimeError("ScenarioRuntime.finalize() called twice")
        self._finalized = True
        host, sim, config = self.host, self.sim, self.config
        host.finalize()
        if self.engine is not None:
            self.engine.finalize()

        availability = None
        if self.injector is not None:
            availability = _availability_report(self.injector, host, sim.now)

        if self.telemetry is not None:
            try:
                config_dict = config.to_dict()
            except TypeError:  # policy objects have no declarative form
                config_dict = None
            self.telemetry.finalize(
                host,
                config=config_dict,
                seed=config.seed,
                injector=self.injector,
                wall_s=_time.perf_counter() - self._wall_start,
            )
            if self.slo_tracker is not None:
                self.slo_tracker.emit_events(self.telemetry)

        result = SimulationResult(
            config=config,
            summary=host.sink.recorder.summary(),
            stats=host.stats(),
            host=host,
            tracker=self.tracker,
            offered=self.src.stats.packets,
            sim_time=sim.now,
            availability=availability,
            telemetry=self.telemetry,
            slo_report=(self.slo_tracker.report()
                        if self.slo_tracker is not None else None),
            check_report=(self.engine.report()
                          if self.engine is not None else None),
        )
        if self.forensics_spec is not None:
            from repro.obs.forensics import attribute_tail

            result.forensics_report = attribute_tail(result,
                                                     self.forensics_spec)
            self.telemetry.forensics = result.forensics_report
        return result


def build_runtime(config: ScenarioConfig,
                  telemetry=None,
                  check=None,
                  recycle: bool = True,
                  forensics=None,
                  ingress=None) -> ScenarioRuntime:
    """Build (but do not run) one scenario host; see :class:`ScenarioRuntime`.

    ``ingress`` (an unbound
    :class:`~repro.dataplane.boundary.IngressReplay`) replaces the
    traffic source; the cluster engine passes each host's merged ingress
    here.  Single-host runs leave it ``None``.  The source or ingress is
    its NIC's only producer and replays past the NIC, drop bursts
    included (:meth:`repro.net.traffic.Replay.own`).
    """
    forensics_spec = None
    if forensics is not None and forensics is not False:
        from repro.obs.forensics import ForensicsSpec

        forensics_spec = (forensics if isinstance(forensics, ForensicsSpec)
                          else ForensicsSpec()).validate()
        if telemetry is None:
            from repro.obs import Telemetry

            telemetry = Telemetry()
    config.validate()
    wall_start = _time.perf_counter() if telemetry is not None else 0.0
    sim = Simulator()
    rngs = RngRegistry(seed=config.seed)
    tracker = FlowTracker() if config.traffic == "flows" else None

    mpdp_kw = dict(
        n_paths=config.n_paths,
        policy=config.policy,
        chain=config.chain,
        path=PathConfig(jitter=config.jitter),
        warmup=config.warmup,
    )
    mpdp_kw.update(config.mpdp_overrides)
    host = MultipathDataPlane(sim, MpdpConfig(**mpdp_kw), rngs, tracker=tracker,
                              telemetry=telemetry)
    if recycle:
        # The harness retains no Packet objects past delivery, so
        # terminal packets can be recycled through the factory free list.
        host.enable_packet_recycling()
    engine = None
    if check is not None and check is not False:
        from repro.check.invariants import InvariantEngine
        from repro.check.spec import CheckSpec

        if isinstance(check, InvariantEngine):
            engine = check
        elif isinstance(check, CheckSpec):
            engine = InvariantEngine(check)
        elif check is True:
            engine = InvariantEngine()
        else:
            raise ValueError(
                f"check must be None, a bool, a CheckSpec, or an "
                f"InvariantEngine, got {type(check).__name__}"
            )
        engine.attach(sim, host)
    if telemetry is not None:
        telemetry.attach(sim, horizon=config.duration + config.drain)

    if config.interfere_intensity > 0:
        from repro.dataplane.interference import NoisyNeighbor

        victim = host.paths[config.interfere_path % len(host.paths)].vcpu
        neighbor = NoisyNeighbor(
            sim, victim, config.jitter, intensity=config.interfere_intensity
        )
        start = config.interfere_start_frac * config.duration
        end = config.interfere_end_frac * config.duration
        neighbor.schedule_burst(start, end - start)

    if ingress is None:
        src = _make_source(sim, host.factory, rngs, config, tracker,
                           host.input)
    else:
        src = ingress.bind(sim, host)
    # Nothing else feeds the NIC: the source computes its receive stage,
    # one event per arriving packet.
    src.own(host)

    injector = None
    if config.faults is not None and not config.faults.empty:
        from repro.faults import FaultInjector

        injector = FaultInjector(sim, host, config.faults,
                                 rng=rngs.stream("faults"))
        injector.install(horizon=config.duration + config.drain)

    slo_tracker = None
    if config.slo is not None:
        from repro.slo import SloTracker

        slo_tracker = SloTracker(sim, config.slo, host, warmup=config.warmup)
        slo_tracker.start()

    return ScenarioRuntime(config, sim, rngs, host, tracker, src, engine,
                           telemetry, injector, slo_tracker, forensics_spec,
                           wall_start)


def run_scenario(config: ScenarioConfig,
                 telemetry=None,
                 check=None,
                 recycle: bool = True,
                 forensics=None) -> SimulationResult:
    """Run one scenario to completion and collect results.

    This is the engine-room entry point behind :func:`repro.run`; call
    that facade instead unless you are inside ``repro.bench`` itself.

    ``telemetry`` (a :class:`repro.obs.Telemetry`) instruments the run:
    stage spans, metric snapshots and fault/control instant events are
    collected into the bundle and attached to the result.  ``check``
    (``True`` or a :class:`repro.check.CheckSpec`) arms the runtime
    invariant engine and attaches its report; ``recycle=False`` disables
    terminal-packet recycling.  ``forensics`` (``True`` or a
    :class:`~repro.obs.forensics.ForensicsSpec`) runs tail attribution
    after the run and attaches ``result.forensics_report``; it needs
    telemetry and attaches a default :class:`~repro.obs.Telemetry` when
    none was passed.  All of these are *observation/harness* parameters,
    deliberately not part of :class:`ScenarioConfig`: the simulated
    trajectory, the result payload and all cache keys are bit-identical
    whichever way they are set.
    """
    rt = build_runtime(config, telemetry=telemetry, check=check,
                       recycle=recycle, forensics=forensics)
    rt.start()
    rt.sim.run(until=rt.horizon)
    return rt.finalize()


def _availability_report(injector, host, horizon: float) -> Dict:
    """Merge tracker timings with data-plane loss/reroute accounting."""
    path_ids = [p.path_id for p in host.paths]
    out = injector.tracker.summary(horizon=horizon, targets=path_ids)
    ctl = host.controller
    if ctl is not None:
        out["ejections"] = ctl.ejections
        out["reinstatements"] = ctl.reinstatements
        out["rerouted"] = ctl.rerouted
    out["lost_to_faults"] = (
        sum(p.fault_dropped for p in host.paths) + host.nic.fault_dropped
    )
    out["timeline"] = list(injector.timeline)
    return out


def _make_source(sim, factory, rngs, cfg: ScenarioConfig, tracker, sink):
    rng = rngs.stream("traffic")
    common = dict(n_flows=cfg.n_flows, duration=cfg.duration)
    if cfg.traffic == "poisson":
        return PoissonSource(
            sim, factory, sink, rng,
            rate_pps=cfg.rate_pps(), size=cfg.packet_size, **common,
        )
    if cfg.traffic == "onoff":
        duty = cfg.mean_on / (cfg.mean_on + cfg.mean_off_us())
        peak = cfg.rate_pps() / duty
        return OnOffSource(
            sim, factory, sink, rng,
            peak_rate_pps=peak, mean_on=cfg.mean_on, mean_off=cfg.mean_off_us(),
            size=cfg.packet_size, **common,
        )
    if cfg.traffic == "incast":
        return IncastSource(
            sim, factory, sink, rng,
            fan_in=cfg.fan_in, burst_pkts=cfg.burst_pkts, epoch=cfg.epoch,
            size=cfg.packet_size, duration=cfg.duration,
        )
    if cfg.traffic == "flows":
        cdf = workload_by_name(cfg.workload)
        mean_size = cdf.mean(n_mc=100_000)
        # Aggregate byte capacity of the host (B/µs): derive from pps.
        agg_Bpu = cfg.n_paths * cfg.path_capacity_pps() * cfg.packet_size / 1e6
        fps = cfg.flow_load * agg_Bpu * 1e6 / mean_size
        return FlowSource(
            sim, factory, sink, rng,
            flow_rate_fps=fps, size_cdf=cdf, tracker=tracker,
            max_flow_pkts=cfg.max_flow_pkts, duration=cfg.duration,
        )
    raise ValueError(f"unknown traffic kind {cfg.traffic!r}")
