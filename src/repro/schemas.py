"""Versioned result-payload schemas.

Every JSON artifact the library emits -- ``SimulationResult.to_dict``,
``SweepResult.to_dict``, ``slo_report``, ``check_report``, the
``repro check`` fuzz/diff reports -- carries a ``schema_version`` key
(``"<major>.<minor>"``).  The major version changes only when a payload
becomes structurally incompatible (keys renamed/removed, units changed);
minor bumps are additive.

Loaders call :func:`check_version` and reject payloads whose *major*
version they do not understand, while accepting any minor.  Payloads
written before versioning existed (no ``schema_version`` key) are
accepted as-is -- the v1 schemas are strict supersets of those shapes.

:func:`validate` is the public one-call helper::

    import repro

    kind = repro.schemas.validate(json.load(fh))   # e.g. "sweep_result"
"""

from __future__ import annotations

from typing import Dict, Optional

#: Current schema version per payload kind.
SCHEMA_VERSIONS: Dict[str, str] = {
    "simulation_result": "1.0",
    "sweep_result": "1.0",
    "slo_report": "1.0",
    "check_report": "1.0",
    "fuzz_report": "1.0",
    "diff_report": "1.0",
    "forensics_report": "1.0",
    "trace_report": "1.0",
    "ledger_entry": "1.0",
    "ledger_diff": "1.0",
    "cluster_config": "1.0",
    "host_config": "1.0",
    "fabric_config": "1.0",
    "cluster_result": "1.0",
    "cluster_envelope": "1.0",
    "cluster_sweep": "1.0",
}

#: Marker keys used to infer a payload's kind (checked in order; the
#: first kind whose every marker key is present wins, so more specific
#: shapes must precede more generic ones).
_MARKERS = (
    ("cluster_result", ("hosts", "cluster", "summary")),
    ("cluster_config", ("hosts", "fabric", "pattern")),
    ("cluster_envelope", ("env_seq", "src_host", "arrive_time")),
    ("fabric_config", ("n_spines", "base_latency", "steering")),
    ("cluster_sweep", ("cells", "cluster_config")),
    ("sweep_result", ("spec", "cells")),
    ("check_report", ("invariants", "violations")),
    ("fuzz_report", ("cases", "failures")),
    ("diff_report", ("variants", "all_identical")),
    ("slo_report", ("n_windows", "windows", "attainment")),
    ("forensics_report", ("cause_histogram", "threshold_us", "analyzed")),
    ("ledger_diff", ("base", "candidate", "metrics", "regressions")),
    ("ledger_entry", ("label", "recorded_utc", "summary", "config_sha256")),
    ("trace_report", ("stage_breakdown", "slowest")),
    ("simulation_result", ("config", "summary", "offered")),
    ("host_config", ("scenario", "name")),
)


def version_for(kind: str) -> str:
    """The current schema version string for ``kind`` (KeyError if unknown)."""
    return SCHEMA_VERSIONS[kind]


def infer_kind(obj: Dict) -> Optional[str]:
    """Best-effort payload-kind inference from marker keys (None if unknown)."""
    if not isinstance(obj, dict):
        return None
    for kind, markers in _MARKERS:
        if all(key in obj for key in markers):
            return kind
    return None


def _major(version: str) -> str:
    return str(version).split(".", 1)[0]


def check_version(data: Dict, kind: str, where: str = "") -> None:
    """Reject ``data`` if its ``schema_version`` has an unsupported major.

    Loaders (``SimulationResult.from_dict``, ``SweepResult.from_dict``,
    report consumers) call this before touching any other key.  A
    missing ``schema_version`` is accepted: pre-versioning payloads are
    compatible by construction.
    """
    found = data.get("schema_version") if isinstance(data, dict) else None
    if found is None:
        return
    supported = SCHEMA_VERSIONS[kind]
    if _major(found) != _major(supported):
        ctx = f" in {where}" if where else ""
        raise ValueError(
            f"unsupported {kind} schema_version {found!r}{ctx}; "
            f"this version of repro reads major version "
            f"{_major(supported)} (current: {supported})"
        )


def validate(obj: Dict, kind: Optional[str] = None) -> str:
    """Validate a payload's shape markers + schema version; returns its kind.

    ``kind`` may name the expected payload kind explicitly; otherwise it
    is inferred from marker keys.  Raises ``ValueError`` when the object
    is not a dict, its kind cannot be determined, it does not match the
    expected kind, or its major schema version is unsupported.
    """
    if not isinstance(obj, dict):
        raise ValueError(
            f"expected a result payload dict, got {type(obj).__name__}"
        )
    inferred = infer_kind(obj)
    if kind is None:
        kind = inferred
        if kind is None:
            raise ValueError(
                "cannot infer payload kind; known kinds: "
                + ", ".join(sorted(SCHEMA_VERSIONS))
            )
    else:
        if kind not in SCHEMA_VERSIONS:
            raise ValueError(
                f"unknown payload kind {kind!r}; known kinds: "
                + ", ".join(sorted(SCHEMA_VERSIONS))
            )
        if inferred is not None and inferred != kind:
            raise ValueError(
                f"payload looks like a {inferred!r}, not a {kind!r}"
            )
    check_version(obj, kind)
    return kind
