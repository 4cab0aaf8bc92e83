"""``repro.obs`` -- the observability subsystem.

One import surface for everything a run can tell you about itself:

* :class:`Telemetry` -- the per-run bundle: span tracer + metrics
  registry + instant events + manifest.  Pass one to ``repro.run`` /
  ``simulate`` to instrument a run; omit it and every hot path stays on
  a no-op guard (bit-identical results, near-zero cost).
* :class:`SpanTracer` / :data:`NullTracer` -- packet-lifecycle stage
  spans (``nic_ring → vswitch_queue → sched_stall → nf_service →
  reorder_buffer → sink``); leaf stages partition end-to-end latency.
* :class:`MetricsRegistry` / :class:`MetricsSampler` / :class:`Histogram`
  -- counters, gauges and P² histograms with sim-time snapshots.
* Exporters -- Chrome trace-event JSON (Perfetto-loadable),
  JSONL event log, metrics dump and run manifest
  (:func:`export_bundle`).
* Reports -- terminal stage-breakdown and slowest-packet timelines
  (:func:`breakdown_table`, :func:`render_report`) plus the
  machine-readable ``trace_report`` (:func:`json_report`).
* Forensics -- deterministic tail attribution: every p99+ packet gets
  one dominant-cause label from a fixed taxonomy
  (:func:`attribute_tail`; ``repro why``, docs/FORENSICS.md).
* Ledger -- the append-only cross-run regression record with
  bootstrap-CI diffs (:mod:`repro.obs.ledger`; ``repro ledger``).
"""

from repro import _lazy_exports

_EXPORTS = {
    "repro.obs.forensics": ("CAUSES", "ForensicsSpec", "attribute_tail",
                            "render_forensics"),
    "repro.obs.ledger": ("append_entry", "build_cluster_entry", "build_entry",
                         "diff_entries", "load_ledger", "render_diff",
                         "render_ledger", "select_entry"),
    "repro.obs.export": ("export_bundle", "load_spans", "to_chrome_trace",
                         "validate_chrome_trace", "write_chrome_trace",
                         "write_jsonl"),
    "repro.obs.manifest": ("run_manifest", "write_manifest"),
    "repro.obs.registry": ("Histogram", "MetricsRegistry", "MetricsSampler"),
    "repro.obs.report": ("breakdown_table", "dominant_stage", "json_report",
                         "packet_totals", "percentile_packet",
                         "render_report", "slowest_packets",
                         "stage_breakdown", "timeline_table"),
    "repro.obs.span": ("ALL_STAGES", "ENCLOSING_STAGES", "INSTANT_STAGES",
                       "LEAF_STAGES", "NullTracer", "SpanTracer",
                       "TraceRecord", "Tracer"),
    "repro.obs.telemetry": ("InstantEvent", "Telemetry"),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
