"""Streaming SLO attainment over sliding sim-time windows.

The :class:`SloTracker` chains onto the delivery sink's ``on_delivery``
hook (one list-append per delivered packet -- nothing else rides the
per-packet hot path) and closes one attainment window every
``spec.window`` µs from a LOW-priority periodic tick, after all same-time
data-plane events.  Each close folds the buffered latencies into a fresh
:class:`~repro.metrics.stats.QuantileSet`, evaluates every objective,
and hands the window record to the autotuner (when one is armed).

Determinism contract: the tracker consumes only the simulated trajectory
(latencies, delivery/drop counters) and the autotuner uses no RNG, so a
fixed ``(seed, config, spec)`` produces a bit-identical
:meth:`report` -- with or without telemetry attached.  Violation
*attribution* (which leaf stage dominated the violating packets) needs
span data, so it is derived post-run by :meth:`emit_events` into the
telemetry event stream and deliberately kept **out** of the report,
mirroring how telemetry itself is excluded from result payloads.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.metrics.stats import QuantileSet
from repro.obs.span import LEAF_STAGES
from repro.sim.engine import LOW, Simulator
from repro.slo.autotuner import SloAutotuner
from repro.slo.spec import QUANTILE_METRICS, SloSpec


class SloTracker:
    """Measures windowed SLO attainment for one simulation run.

    Parameters
    ----------
    sim / spec / host:
        The simulator, the (validated) :class:`SloSpec`, and the
        :class:`~repro.core.mpdp.MultipathDataPlane` under measurement.
    warmup:
        Deliveries before this sim time are ignored and the first
        window opens here, aligned with the latency recorder's warmup.
    """

    def __init__(self, sim: Simulator, spec: SloSpec, host,
                 warmup: float = 0.0) -> None:
        self.sim = sim
        self.spec = spec.validate()
        self.host = host
        self.warmup = float(warmup)
        self.windows: List[Dict] = []
        self.autotuner: Optional[SloAutotuner] = None
        if spec.autotune or spec.start_paths is not None:
            self.autotuner = SloAutotuner(sim, spec, host, warmup=self.warmup)
        self._buf: List[float] = []
        self._append = self._buf.append
        self._qs = spec.quantiles()
        self._win_start = self.warmup
        self._last_delivered = 0
        self._last_dropped = 0
        self._prev_hook = None
        self._handle = None
        self._started = False

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Install the sink hook and the periodic window close (idempotent)."""
        if self._started:
            return
        self._started = True
        sink = self.host.sink
        self._prev_hook = sink.on_delivery
        sink.on_delivery = self._on_delivery
        if self.autotuner is not None:
            self.autotuner.start()
        # Baseline the delivery/drop counters at warmup so the first
        # window's deltas exclude pre-warmup traffic (latencies already
        # are, via the t_done guard in the hook).
        if self.warmup > 0:
            self.sim.call_at(self.warmup, self._snap_baseline, priority=LOW)
        # LOW priority: the close runs after every same-timestamp
        # data-plane event, so a delivery landing exactly on the window
        # edge is counted in the window it closes.
        self._handle = self.sim.periodic(
            self.spec.window,
            self._close_window,
            priority=LOW,
            first_at=self.warmup + self.spec.window,
        )

    def detach(self) -> None:
        """Stop closing windows and give the sink back its previous hook
        (the end of a run; :meth:`report` reads as before)."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
        self.host.sink.on_delivery = self._prev_hook

    def _snap_baseline(self) -> None:
        self._last_delivered = self.host.sink.delivered
        self._last_dropped = self.host.drop_count()

    def _on_delivery(self, packet) -> None:
        prev = self._prev_hook
        if prev is not None:
            prev(packet)
        done = packet.t_done
        if done >= self.warmup:
            self._append(done - packet.t_created)

    # ------------------------------------------------------------------
    # Window accounting
    # ------------------------------------------------------------------
    def _close_window(self) -> None:
        now = self.sim.now
        buf = self._buf
        count = len(buf)
        sink = self.host.sink
        delivered = sink.delivered
        dropped = self.host.drop_count()
        d_delivered = delivered - self._last_delivered
        d_dropped = dropped - self._last_dropped
        self._last_delivered = delivered
        self._last_dropped = dropped

        metrics: Dict[str, float] = {}
        if count:
            if self._qs:
                bank = QuantileSet(self._qs)
                bank.add_many(buf)
                for obj_q, value in bank.values().items():
                    if not math.isnan(value):
                        metrics[_METRIC_BY_Q[obj_q]] = value
            if self.spec.wants_mean():
                metrics["mean"] = sum(buf) / count
        total = d_delivered + d_dropped
        metrics["delivery"] = (
            100.0 * d_delivered / total if total > 0 else 100.0
        )

        violations = [
            o.canonical() for o in self.spec.objectives if not o.check(metrics)
        ]
        record = {
            "start": self._win_start,
            "end": now,
            "count": count,
            "delivered": d_delivered,
            "dropped": d_dropped,
            "metrics": metrics,
            "ok": not violations,
            "violations": violations,
        }
        self.windows.append(record)
        buf.clear()
        self._win_start = now
        if self.autotuner is not None:
            self.autotuner.observe(record, len(self.windows) - 1)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def report(self) -> Dict:
        """The run's SLO report (JSON-friendly, deterministic).

        ``path_seconds`` is the resource cost: the integral of the
        active path count over the measured span (warmup to now), in
        path-seconds.  ``decisions`` and ``active_log`` come from the
        autotuner when armed (empty / static otherwise).
        """
        end = self.sim.now
        n = len(self.windows)
        attained = sum(1 for w in self.windows if w["ok"])
        if self.autotuner is not None:
            path_seconds = self.autotuner.path_seconds(end)
            decisions = list(self.autotuner.decisions)
            active_log = list(self.autotuner.active_log)
        else:
            n_paths = len(self.host.paths)
            path_seconds = n_paths * max(0.0, end - self.warmup) / 1e6
            decisions = []
            active_log = [[0.0, n_paths]]
        from repro import schemas

        return {
            "schema_version": schemas.version_for("slo_report"),
            "spec": self.spec.to_dict(),
            "n_windows": n,
            "attained": attained,
            "attainment": attained / n if n else 1.0,
            "violated_windows": [w["start"] for w in self.windows if not w["ok"]],
            "windows": list(self.windows),
            "path_seconds": path_seconds,
            "decisions": decisions,
            "active_log": active_log,
        }

    # ------------------------------------------------------------------
    # Post-run attribution (telemetry only)
    # ------------------------------------------------------------------
    def emit_events(self, telemetry) -> None:
        """Derive ``slo:violation`` instant events with stage attribution.

        For each violated window, the packets delivered inside it whose
        end-to-end latency exceeded the tightest violated latency
        threshold are pulled from the span tracer, their per-leaf-stage
        time summed, and the dominant stage named in the event.  Runs
        post-simulation so it cannot perturb the trajectory; a telemetry
        bundle without span tracing gets events without attribution.
        """
        if telemetry is None:
            return
        tracer = telemetry.tracer
        spans = bool(getattr(tracer, "enabled", False)) and len(
            getattr(tracer, "records", ())
        ) > 0
        deliveries: List = []
        if spans:
            deliveries = [
                (rec.time, rec.packet_id)
                for rec in tracer.records
                if rec.stage == "sink"
            ]
        for w in self.windows:
            if w["ok"]:
                continue
            args: Dict = {
                "start": w["start"],
                "violations": list(w["violations"]),
                "count": w["count"],
            }
            if spans:
                stage, share, n_pkts = self._attribute(
                    tracer, deliveries, w
                )
                if stage is not None:
                    args["dominant_stage"] = stage
                    args["stage_share"] = share
                    args["attributed_packets"] = n_pkts
            telemetry.instant(w["end"], "slo:violation", track="slo",
                              args=args)

    def _attribute(self, tracer, deliveries, window):
        """(dominant leaf stage, its share of time, packets considered)."""
        violated = {
            o.metric: o.threshold
            for o in self.spec.latency_objectives
            if o.canonical() in window["violations"]
        }
        threshold = min(violated.values()) if violated else None
        start, end = window["start"], window["end"]
        totals = {stage: 0.0 for stage in LEAF_STAGES}
        n_pkts = 0
        for t, pid in deliveries:
            if not start <= t < end:
                continue
            if threshold is not None and tracer.packet_total(pid) <= threshold:
                continue
            n_pkts += 1
            for rec in tracer.per_packet(pid):
                if rec.stage in totals:
                    totals[rec.stage] += rec.dt
        grand = sum(totals.values())
        if n_pkts == 0 or grand <= 0:
            return None, 0.0, 0
        # Deterministic tie-break: stage order in LEAF_STAGES.
        stage = max(LEAF_STAGES, key=lambda s: totals[s])
        return stage, totals[stage] / grand, n_pkts


#: Reverse map quantile fraction -> metric name for window records.
_METRIC_BY_Q = {q: name for name, q in QUANTILE_METRICS.items()}
