"""Differential replay harness.

One determinism contract underpins every artifact this library emits:
harness toggles -- telemetry, how faults are passed, worker counts,
invariant checking -- must never change *what* a scenario computes.
:func:`diff_scenario` enforces it by brute force: re-run the same
scenario under each variant and diff the result payloads field by
field.  Any drift is a bug in the harness (or a component secretly
keying behaviour off an observation hook), and the per-leaf diff names
exactly which field moved.

Variants exercised (each skipped with a reason when not applicable):

``telemetry``     full observability bundle attached vs bare.
``faults_kwarg``  fault schedule passed per-invocation (``RunOptions``)
                  vs embedded in the config (fault scenarios only).
``check_armed``   invariant engine armed vs detached.
``jobs``          a 2-cell sweep run with ``jobs=1`` vs ``jobs=2``
                  (fork pool), compared cell by cell, cache bypassed.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.bench.scenarios import ScenarioConfig, run_scenario

#: Cap on recorded leaf diffs per variant (the first one names the bug).
MAX_DIFFS = 20


def deep_diff(a, b, path: str = "", out: Optional[List[str]] = None,
              ) -> List[str]:
    """Recursively compare two JSON-ish values; returns leaf-level
    difference descriptions (empty when identical).

    NaNs compare equal to each other (latency percentiles of empty
    windows are NaN on both sides); floats compare exactly otherwise --
    the whole point is bit-identity, not tolerance.
    """
    if out is None:
        out = []
    if len(out) >= MAX_DIFFS:
        return out
    where = path or "<root>"
    if type(a) is not type(b) and not (
        isinstance(a, (int, float)) and isinstance(b, (int, float))
        and not isinstance(a, bool) and not isinstance(b, bool)
    ):
        out.append(f"{where}: type {type(a).__name__} != {type(b).__name__}")
        return out
    if isinstance(a, dict):
        for key in sorted(set(a) | set(b)):
            child = f"{path}.{key}" if path else str(key)
            if key not in a:
                out.append(f"{child}: missing on left")
            elif key not in b:
                out.append(f"{child}: missing on right")
            else:
                deep_diff(a[key], b[key], child, out)
            if len(out) >= MAX_DIFFS:
                return out
        return out
    if isinstance(a, (list, tuple)):
        if len(a) != len(b):
            out.append(f"{where}: length {len(a)} != {len(b)}")
            return out
        for i, (x, y) in enumerate(zip(a, b)):
            deep_diff(x, y, f"{path}[{i}]", out)
            if len(out) >= MAX_DIFFS:
                return out
        return out
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) \
            and math.isnan(b):
        return out
    if a != b:
        out.append(f"{where}: {a!r} != {b!r}")
    return out


def _identity(result) -> Dict:
    """A result's comparable payload: everything except observations."""
    out = result.to_dict()
    out.pop("check_report", None)
    return out


def diff_scenario(config: ScenarioConfig,
                  jobs: int = 2,
                  variants: Optional[List[str]] = None) -> Dict:
    """Differentially replay ``config`` across harness variants.

    Returns a ``diff_report`` payload; ``all_identical`` is the
    headline, per-variant entries carry ``identical`` plus the leaf
    diffs when drift was found.  ``variants`` restricts the run to a
    subset of variant names (default: all applicable).
    """
    import dataclasses as _dc

    from repro import schemas

    config.validate()
    wanted = None if variants is None else set(variants)
    report: Dict[str, Dict] = {}
    skipped: Dict[str, str] = {}

    def want(name: str) -> bool:
        return wanted is None or name in wanted

    base = _identity(run_scenario(config))

    def compare(name: str, other: Dict) -> None:
        diffs = deep_diff(base, other)
        report[name] = {"identical": not diffs, "diffs": diffs}

    if want("telemetry"):
        from repro.obs import Telemetry

        compare("telemetry",
                _identity(run_scenario(config, telemetry=Telemetry())))
    if want("faults_kwarg"):
        if config.faults is None:
            skipped["faults_kwarg"] = "config has no fault schedule"
        else:
            # Same schedule, passed per-invocation instead of embedded.
            import repro

            bare = _dc.replace(config, faults=None)
            result = repro.run(bare, repro.RunOptions(faults=config.faults))
            compare("faults_kwarg", _identity(result))
    if want("check_armed"):
        compare("check_armed", _identity(run_scenario(config, check=True)))
    if want("jobs"):
        jobs = max(2, jobs)
        serial = _sweep_identity(config, jobs=1)
        parallel = _sweep_identity(config, jobs=jobs)
        diffs = deep_diff(serial, parallel)
        report["jobs"] = {"identical": not diffs, "diffs": diffs}

    return {
        "schema_version": schemas.version_for("diff_report"),
        "config": config.to_dict(),
        "variants": report,
        "skipped": skipped,
        "all_identical": all(v["identical"] for v in report.values()),
    }


def _sweep_identity(config: ScenarioConfig, jobs: int) -> List[Dict]:
    """Identity dicts of a 2-cell sweep over ``config`` (seed axis).

    Two cells so a multi-worker pool genuinely exercises parallel
    workers (``resolve_jobs`` caps jobs at the cell count); the cache is
    bypassed so both runs actually simulate.
    """
    from repro.sweep import Axis, SweepSpec, run_sweep

    base = config.to_dict()
    spec = SweepSpec(
        name="check-diff-jobs",
        base=base,
        axes=[Axis("seed", [config.seed, config.seed + 1])],
    )
    sweep = run_sweep(spec, jobs=jobs, cache=False, progress=None)
    return sweep.identity()
