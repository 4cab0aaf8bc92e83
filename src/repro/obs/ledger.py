"""The run ledger: an append-only cross-run regression record.

The ROADMAP's north-star ("fast as the hardware allows") needs a bench
*trajectory*, not isolated per-PR snapshots: the per-PR
``BENCH_*.json`` files under ``benchmarks/results/`` were never
consolidated, so "did this change regress the tail?" had no recorded
answer.  The ledger fixes that with one append-only JSONL file
(:data:`DEFAULT_LEDGER`): every entry captures what a run *was* (config
hash, seed, code fingerprint, git commit, schema version) and what it
*did* (latency summary + exact percentiles, retained latency samples
for bootstrap CIs, stage breakdown, forensics cause histogram, kernel
pps when known).

``repro ledger record`` appends an entry, ``repro ledger list`` shows
the trajectory, and ``repro ledger diff`` compares any two entries with
:func:`repro.metrics.compare.percentile_ratio_ci` bootstrap confidence
intervals -- a tail delta is flagged as a *regression* only when it
exceeds the threshold **and** the CI excludes "no change", so seeded
but sample-level noise never fails CI.  The simulated latencies are a
pure function of (config, seed, code), so on an unchanged tree a ledger
diff is exact -- that is what the CI ledger-gate relies on.
"""

from __future__ import annotations

import datetime
import json
import os
import pathlib
from typing import Dict, List, Optional, Sequence

import numpy as np

#: Canonical ledger location, relative to the repo root.
DEFAULT_LEDGER = os.path.join("benchmarks", "results", "LEDGER.jsonl")

#: Latency samples retained per entry: enough for stable bootstrap CIs
#: on p99.9 without bloating the JSONL (~2000 floats per entry).
MAX_SAMPLES = 2000

#: Percentiles a diff compares by default.
DIFF_PERCENTILES = (50.0, 99.0, 99.9)


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ"
    )


def _retained_samples(values: np.ndarray, max_samples: int) -> List[float]:
    """Deterministic downsample: evenly spaced order statistics.

    Sorting first makes the retained subset a pure function of the
    sample distribution (no RNG, no insertion-order dependence) while
    preserving the quantile structure bootstrap CIs need.
    """
    arr = np.sort(np.asarray(values, dtype=np.float64))
    if arr.size <= max_samples:
        return [float(v) for v in arr]
    idx = np.linspace(0, arr.size - 1, max_samples).astype(int)
    return [float(v) for v in arr[idx]]


def build_entry(result, label: str, kind: str = "run",
                kernel_pps: Optional[float] = None,
                kernel_pps_source: Optional[str] = None,
                max_samples: int = MAX_SAMPLES,
                extra: Optional[Dict] = None) -> Dict:
    """Build one ledger entry from a :class:`SimulationResult`.

    ``label`` names the tracked quantity (e.g. ``"gate"``,
    ``"f1-single"``); diffs select the latest entry per label by
    default.  ``kind`` distinguishes simulation entries from recorded
    benches.  ``kernel_pps`` is wall-clock packets/s when measured --
    machine-dependent, so the CI gate records it for trend reading but
    never fails on it -- and ``kernel_pps_source`` says where that number
    came from (a bench file, a flag); both stay ``None`` when nothing
    measured it.
    """
    import hashlib

    from repro import schemas
    from repro.obs.manifest import git_commit
    from repro.sweep.cache import code_fingerprint

    config_dict = result.config.to_dict()
    canonical = json.dumps(config_dict, sort_keys=True,
                           separators=(",", ":"))
    entry = {
        "schema_version": schemas.version_for("ledger_entry"),
        "label": label,
        "kind": kind,
        "recorded_utc": _utc_now(),
        "git_commit": git_commit(),
        "code_fingerprint": code_fingerprint(),
        "config": config_dict,
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "seed": result.config.seed,
        "summary": result.summary.to_dict(),
        "exact": {key: float(result.exact_percentile(pct))
                  for pct, key in result.EXACT_KEYS},
        "offered": result.offered,
        "delivered": result.stats["delivered"],
        "kernel_pps": kernel_pps,
        "kernel_pps_source": kernel_pps_source,
    }
    if result.host is not None:
        entry["latency_samples"] = _retained_samples(
            result.host.sink.recorder.values(), max_samples
        )
    telemetry = result.telemetry
    if telemetry is not None and getattr(telemetry.tracer, "enabled", False):
        from repro.obs.report import stage_breakdown

        entry["stage_breakdown"] = stage_breakdown(
            telemetry.tracer, warmup=result.config.warmup
        )
    if result.forensics_report is not None:
        entry["cause_histogram"] = result.forensics_report["cause_histogram"]
        entry["forensics_threshold_us"] = \
            result.forensics_report["threshold_us"]
    if extra:
        entry["extra"] = dict(extra)
    return entry


def build_cluster_entry(result, label: str, kind: str = "cluster",
                        max_samples: int = MAX_SAMPLES,
                        extra: Optional[Dict] = None) -> Dict:
    """Build one ledger entry from a :class:`~repro.cluster.ClusterResult`.

    Same shape as :func:`build_entry` so ``ledger list``/``ledger diff``
    work unchanged; ``exact`` carries the cluster-wide merged
    percentiles (computed from per-host retained order statistics, not
    the full population -- the per-host payloads keep the exact ones)
    and ``latency_samples`` is the pooled per-host retained sample set
    the diff bootstrap resamples.
    """
    import hashlib

    from repro import schemas
    from repro.obs.manifest import git_commit
    from repro.sweep.cache import code_fingerprint

    config_dict = result.config.to_dict()
    canonical = json.dumps(config_dict, sort_keys=True,
                           separators=(",", ":"))
    pooled = [x for h in result.hosts for x in h.get("latency_samples", [])]
    s = result.summary
    entry = {
        "schema_version": schemas.version_for("ledger_entry"),
        "label": label,
        "kind": kind,
        "recorded_utc": _utc_now(),
        "git_commit": git_commit(),
        "code_fingerprint": code_fingerprint(),
        "config": config_dict,
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "seed": result.config.seed,
        "summary": s.to_dict(),
        "exact": {"p50": s.p50, "p90": s.p90, "p95": s.p95,
                  "p99": s.p99, "p999": s.p999},
        "offered": result.cluster["offered"],
        "delivered": result.cluster["delivered"],
        "kernel_pps": None,
        "kernel_pps_source": None,
        "latency_samples": _retained_samples(
            np.asarray(pooled, dtype=np.float64), max_samples
        ),
        "extra": {
            "n_hosts": result.n_hosts,
            "pattern": result.cluster["pattern"],
            "envelopes_sent": result.cluster["envelopes_sent"],
            "fabric_dropped": result.cluster["fabric_dropped"],
            **(extra or {}),
        },
    }
    return entry


def append_entry(entry: Dict, path=DEFAULT_LEDGER) -> int:
    """Append one entry to the ledger; returns its index."""
    p = pathlib.Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    index = 0
    if p.exists():
        with open(p) as fh:
            index = sum(1 for line in fh if line.strip())
    with open(p, "a") as fh:
        fh.write(json.dumps(entry, sort_keys=True))
        fh.write("\n")
    return index


def load_ledger(path=DEFAULT_LEDGER) -> List[Dict]:
    """All ledger entries, in append (index) order."""
    from repro import schemas

    p = pathlib.Path(path)
    if not p.exists():
        return []
    out = []
    with open(p) as fh:
        for i, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            entry = json.loads(line)
            schemas.check_version(entry, "ledger_entry",
                                  where=f"{path}:{i + 1}")
            out.append(entry)
    return out


def select_entry(entries: Sequence[Dict], ref: str) -> Dict:
    """Resolve a diff reference: a numeric index, or a label (latest
    entry carrying it).  Raises ``ValueError`` with the available
    labels/indices when nothing matches."""
    if not entries:
        raise ValueError("ledger is empty; run `repro ledger record` first")
    try:
        index = int(ref)
    except ValueError:
        matches = [e for e in entries if e.get("label") == ref]
        if not matches:
            labels = sorted({e.get("label", "?") for e in entries})
            raise ValueError(
                f"no ledger entry labeled {ref!r}; labels: "
                f"{', '.join(labels)} (or an index 0..{len(entries) - 1})"
            ) from None
        return matches[-1]
    if not -len(entries) <= index < len(entries):
        raise ValueError(
            f"ledger index {index} out of range (have {len(entries)} entries)"
        )
    return entries[index]


def diff_entries(base: Dict, candidate: Dict,
                 percentiles: Sequence[float] = DIFF_PERCENTILES,
                 confidence: float = 0.95,
                 max_regress: float = 0.2) -> Dict:
    """Compare two ledger entries; returns the ``ledger_diff`` payload.

    Per percentile: both point values, the delta ratio, and -- when both
    entries retain latency samples -- a bootstrap CI on the ratio
    ``pct(base)/pct(candidate)`` (>1 means the candidate improved).  A
    percentile *regresses* when the candidate is more than
    ``max_regress`` worse (ratio of points < 1/(1+max_regress)) and the
    CI, if available, confirms a real slowdown (hi < 1).  ``ok`` is
    False iff any percentile regressed.
    """
    from repro import schemas
    from repro.metrics.compare import percentile_ratio_ci

    base_samples = base.get("latency_samples") or []
    cand_samples = candidate.get("latency_samples") or []
    key_for = {50.0: "p50", 90.0: "p90", 95.0: "p95",
               99.0: "p99", 99.9: "p999"}

    metrics: Dict[str, Dict] = {}
    regressions: List[str] = []
    for pct in percentiles:
        key = key_for.get(float(pct), f"p{pct:g}")
        b = (base.get("exact") or {}).get(key,
                                          (base.get("summary") or {}).get(key))
        c = (candidate.get("exact") or {}).get(
            key, (candidate.get("summary") or {}).get(key))
        m: Dict = {"base": b, "candidate": c}
        if b and c:
            m["ratio"] = float(b / c)  # >1: candidate faster
            m["delta_pct"] = float((c - b) / b * 100.0)
        ci = None
        if base_samples and cand_samples:
            point, lo, hi = percentile_ratio_ci(
                np.asarray(base_samples), np.asarray(cand_samples), pct,
                confidence=confidence,
            )
            ci = {"point": point, "lo": lo, "hi": hi,
                  "confidence": confidence}
            m["ratio_ci"] = ci
        regressed = False
        if b and c and c > b * (1.0 + max_regress):
            # Point estimate over threshold; require the CI (when we
            # have one) to agree the slowdown is real, not resampling
            # noise around an unchanged distribution.
            regressed = ci is None or ci["hi"] < 1.0
        m["regressed"] = regressed
        if regressed:
            regressions.append(key)
        metrics[key] = m

    # Wall-clock kernel pps is machine-dependent: report, never gate.
    kernel = None
    if base.get("kernel_pps") and candidate.get("kernel_pps"):
        kernel = {
            "base": base["kernel_pps"],
            "candidate": candidate["kernel_pps"],
            "ratio": float(candidate["kernel_pps"] / base["kernel_pps"]),
        }

    causes = None
    if base.get("cause_histogram") and candidate.get("cause_histogram"):
        causes = {
            cause: {"base": base["cause_histogram"].get(cause, 0),
                    "candidate": candidate["cause_histogram"].get(cause, 0)}
            for cause in sorted(set(base["cause_histogram"])
                                | set(candidate["cause_histogram"]))
        }

    return {
        "schema_version": schemas.version_for("ledger_diff"),
        "base": _entry_ref(base),
        "candidate": _entry_ref(candidate),
        "comparable": base.get("config_sha256")
        == candidate.get("config_sha256"),
        "max_regress": max_regress,
        "metrics": metrics,
        "kernel_pps": kernel,
        "cause_histogram": causes,
        "regressions": regressions,
        "ok": not regressions,
    }


def _entry_ref(entry: Dict) -> Dict:
    """The provenance slice of an entry a diff reproduces."""
    return {
        "label": entry.get("label"),
        "recorded_utc": entry.get("recorded_utc"),
        "git_commit": entry.get("git_commit"),
        "code_fingerprint": entry.get("code_fingerprint"),
        "config_sha256": entry.get("config_sha256"),
        "seed": entry.get("seed"),
    }


# ----------------------------------------------------------------------
# Terminal rendering (used by ``repro ledger``)
# ----------------------------------------------------------------------
def render_ledger(entries: Sequence[Dict]) -> str:
    """``repro ledger list`` table: one row per entry."""
    from repro.metrics.report import Table

    t = Table(["#", "label", "kind", "recorded (UTC)", "commit",
               "p50 (us)", "p99 (us)", "p99.9 (us)", "kernel pps"],
              title=f"run ledger ({len(entries)} entries)")
    for i, e in enumerate(entries):
        exact = e.get("exact") or {}
        summary = e.get("summary") or {}
        commit = e.get("git_commit")
        pps = e.get("kernel_pps")
        t.add_row([
            i, e.get("label", "?"), e.get("kind", "?"),
            e.get("recorded_utc", "?"),
            commit[:10] if commit else "-",
            exact.get("p50", summary.get("p50", float("nan"))),
            exact.get("p99", summary.get("p99", float("nan"))),
            exact.get("p999", summary.get("p999", float("nan"))),
            f"{pps:,.0f}" if pps else "-",
        ])
    return t.render()


def render_diff(diff: Dict) -> str:
    """``repro ledger diff`` report."""
    from repro.metrics.report import Table

    b, c = diff["base"], diff["candidate"]
    t = Table(["metric", "base (us)", "candidate (us)", "delta",
               "ratio CI (base/cand)", "verdict"],
              title=f"ledger diff: {b['label']!r} -> {c['label']!r}"
                    + ("" if diff["comparable"]
                       else "  [configs differ -- deltas are not "
                            "apples-to-apples]"))
    for key, m in diff["metrics"].items():
        ci = m.get("ratio_ci")
        ci_str = (f"[{ci['lo']:.3f}, {ci['hi']:.3f}]" if ci else "-")
        delta = (f"{m['delta_pct']:+.1f}%" if "delta_pct" in m else "-")
        t.add_row([key, m["base"], m["candidate"], delta, ci_str,
                   "REGRESSED" if m["regressed"] else "ok"])
    parts = [t.render()]
    if diff.get("kernel_pps"):
        k = diff["kernel_pps"]
        parts.append(
            f"kernel pps: {k['base']:,.0f} -> {k['candidate']:,.0f} "
            f"({k['ratio']:.2f}x, informational -- machine-dependent)"
        )
    if diff.get("cause_histogram"):
        ct = Table(["cause", "base", "candidate"],
                   title="tail cause histogram")
        for cause, row in diff["cause_histogram"].items():
            if row["base"] or row["candidate"]:
                ct.add_row([cause, row["base"], row["candidate"]])
        parts.append(ct.render())
    parts.append("verdict: " + ("OK" if diff["ok"] else
                                "TAIL REGRESSION: "
                                + ", ".join(diff["regressions"])))
    return "\n\n".join(parts)
