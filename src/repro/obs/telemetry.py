"""The telemetry bundle: one object carrying a run's observability state.

A :class:`Telemetry` instance bundles the three observability channels
-- the span tracer, the metrics registry, and the instant-event log --
plus the run manifest built at finalization.  Pass one to
:func:`repro.run` (or ``simulate``) to instrument a run::

    from repro import RunOptions, Telemetry

    tel = Telemetry()
    result = repro.run(repro.ScenarioConfig(policy="single", n_paths=1,
                                            load=0.7),
                       RunOptions(telemetry=tel))
    print(tel.breakdown_table().render())
    tel.export("my-trace/")          # trace.json + events.jsonl + ...

Passing no telemetry (the default) keeps every hot path on the
:data:`~repro.obs.span.NullTracer` guard -- the simulation is
bit-identical and effectively free of observability cost (measured by
``benchmarks/record_obs_overhead.py``).
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional

from repro.obs.registry import MetricsRegistry, MetricsSampler
from repro.obs.span import NullTracer, SpanTracer


class InstantEvent(NamedTuple):
    """A zero-duration occurrence placed at one simulation instant."""

    time: float
    name: str  #: e.g. "fault:arm:crash", "path:eject", "detector:unhealthy"
    track: str  #: display track, e.g. "control" or "path3"
    args: Any  #: JSON-friendly payload (target ids etc.)


class Telemetry:
    """Observability bundle for one simulation run.

    Parameters
    ----------
    spans:
        Collect per-packet stage spans (the expensive channel).
    metrics_interval:
        Gauge/counter snapshot cadence in sim-µs; 0 disables sampling.
    """

    def __init__(self, spans: bool = True,
                 metrics_interval: float = 1_000.0) -> None:
        if metrics_interval < 0:
            raise ValueError(
                f"metrics_interval must be >= 0, got {metrics_interval}"
            )
        self.enabled = True
        self.tracer = SpanTracer() if spans else NullTracer
        self.registry = MetricsRegistry()
        self.metrics_interval = metrics_interval
        self.events: List[InstantEvent] = []
        #: Run manifest (config, seed, code fingerprint, versions);
        #: populated by :meth:`finalize`.
        self.manifest: Optional[Dict] = None
        #: Tail-attribution report (``forensics_report`` dict); set when
        #: the run was forensicated, exported as ``forensics.json`` in
        #: the bundle and annotated into the Perfetto trace.
        self.forensics: Optional[Dict] = None
        self._sampler: Optional[MetricsSampler] = None

    # ------------------------------------------------------------------
    # Wiring (called by the host / simulate)
    # ------------------------------------------------------------------
    def instant(self, time: float, name: str, track: str = "control",
                args: Any = None) -> None:
        """Record one instant event."""
        self.events.append(InstantEvent(time, name, track, args))

    def register_host(self, host) -> None:
        """Register the standard gauges of a
        :class:`~repro.core.mpdp.MultipathDataPlane`.

        Per-path queue depth and completion counts, NIC ring occupancy
        and receive/drop counters, reorder-buffer occupancy, and sink
        deliveries -- everything the post-run time series need to answer
        "what did the queues look like when this cell's p99.9 happened?".
        """
        reg = self.registry
        for path in host.paths:
            name = path.name
            reg.gauge(f"{name}.depth", lambda p=path: p.depth)
            reg.gauge(f"{name}.completed", lambda p=path: p.completed)
            reg.gauge(f"{name}.ewma_latency_us",
                      lambda p=path: p.ewma_latency.value)
        reg.gauge("nic.ring_occupancy", lambda: host.nic.ring_occupancy)
        reg.gauge("nic.received", lambda: host.nic.received)
        reg.gauge("nic.dropped", lambda: host.nic.dropped)
        if host.reorder is not None:
            reg.gauge("reorder.occupancy", lambda: host.reorder.occupancy)
        reg.gauge("sink.delivered", lambda: host.sink.delivered)

    def attach(self, sim, horizon: Optional[float] = None) -> None:
        """Start periodic metric sampling on ``sim`` (if configured)."""
        if self.metrics_interval > 0 and self._sampler is None:
            self._sampler = MetricsSampler(
                sim, self.registry, self.metrics_interval, horizon=horizon
            ).start()

    # ------------------------------------------------------------------
    # Finalization (called once, after the run)
    # ------------------------------------------------------------------
    def finalize(self, host=None, config: Optional[Dict] = None,
                 seed: Optional[int] = None, injector=None,
                 wall_s: Optional[float] = None) -> "Telemetry":
        """Derive instant events from run history and build the manifest.

        Fault arm/clear events come from the injector's applied timeline;
        path ejection/reinstatement and straggler-detector health flips
        are reconstructed from the controller's tick history.  All of
        this is post-processing over state the run keeps anyway, so event
        telemetry adds zero per-packet cost.
        """
        if self._sampler is not None:
            self._sampler.stop()
        if injector is not None:
            for t, action, kind, target in injector.timeline:
                self.instant(t, f"fault:{action}:{kind}", track="control",
                             args={"target": target})
        ctl = getattr(host, "controller", None) if host is not None else None
        if ctl is not None:
            self._derive_controller_events(ctl)
        from repro.obs.manifest import run_manifest

        self.manifest = run_manifest(config=config, seed=seed, wall_s=wall_s)
        return self

    def detach(self) -> None:
        """Drop the registered gauges, which read the host (after
        :meth:`finalize`: the sampler has stopped; every recorded series
        stays)."""
        self.registry._gauges.clear()

    def _derive_controller_events(self, ctl) -> None:
        """Diff consecutive control snapshots into health/eject/park flips."""
        n_paths = len(ctl.paths)
        prev_healthy = set(range(n_paths))
        prev_ejected: set = set()
        prev_parked: set = set()
        for snap in ctl.history:
            healthy = set(snap.healthy)
            ejected = set(snap.ejected)
            parked = set(getattr(snap, "admin_down", ()))
            for pid in sorted(prev_healthy - healthy):
                self.instant(snap.time, "detector:unhealthy",
                             track=f"path{pid}", args={"path": pid})
            for pid in sorted(healthy - prev_healthy):
                self.instant(snap.time, "detector:healthy",
                             track=f"path{pid}", args={"path": pid})
            for pid in sorted(ejected - prev_ejected):
                self.instant(snap.time, "path:eject",
                             track=f"path{pid}", args={"path": pid})
            for pid in sorted(prev_ejected - ejected):
                self.instant(snap.time, "path:reinstate",
                             track=f"path{pid}", args={"path": pid})
            # Administrative parking (SLO autotuner scale-down) is a
            # distinct lifecycle from ejection: policy, not fault.
            for pid in sorted(parked - prev_parked):
                self.instant(snap.time, "path:park",
                             track=f"path{pid}", args={"path": pid})
            for pid in sorted(prev_parked - parked):
                self.instant(snap.time, "path:unpark",
                             track=f"path{pid}", args={"path": pid})
            prev_healthy, prev_ejected, prev_parked = healthy, ejected, parked

    # ------------------------------------------------------------------
    # Convenience views (delegating to report/export)
    # ------------------------------------------------------------------
    def breakdown_table(self, warmup: float = 0.0):
        """Stage-breakdown :class:`~repro.metrics.report.Table`."""
        from repro.obs.report import breakdown_table

        return breakdown_table(self.tracer, warmup=warmup)

    def export(self, outdir) -> Dict[str, str]:
        """Write the full artifact bundle; returns ``{kind: path}``."""
        from repro.obs.export import export_bundle

        return export_bundle(self, outdir)
