"""Structured sweep artifacts.

A :class:`SweepResult` is the single JSON artifact one sweep run
produces: the spec that generated it, one :class:`CellResult` per grid
point (latency summary, data-plane stats, exact reservoir percentiles,
availability when faults ran) and wall-clock accounting.  Everything
round-trips via ``to_dict``/``from_dict`` with stable key names, so
``benchmarks/results/*.json``, ``repro sweep --out`` files and the
figure code all consume one shape.

Identity vs. provenance: ``wall_s`` / ``cpu_s`` (measured wall-clock and
CPU seconds) and ``cached`` (whether the cell came from the cache) are
*provenance* -- they vary
between runs of the same experiment.  :meth:`CellResult.identity_dict`
strips them, and the determinism tests assert that identity dicts are
bit-identical across worker counts and cache hits/misses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.bench.scenarios import SimulationResult
from repro.metrics.stats import LatencySummary


@dataclass
class CellResult:
    """Outcome of one sweep cell (all latencies in µs)."""

    index: int
    #: Axis coordinates, ``{axis.param: label}``.
    params: Dict
    #: Canonical config dict the cell ran (cache-key material).
    config: Dict
    summary: LatencySummary
    stats: Dict
    #: Exact reservoir percentiles: ``p50/p90/p95/p99/p999``.
    exact: Dict[str, float]
    offered: int
    delivered: int
    sim_time: float
    goodput_gbps: float
    delivered_pps: float
    availability: Optional[Dict] = None
    #: SLO attainment report (cells whose config carries an ``slo`` spec
    #: only; see :meth:`repro.slo.SloTracker.report`).
    slo_report: Optional[Dict] = None
    #: Invariant-engine report (sweeps run with ``check=...`` only; see
    #: :meth:`repro.check.InvariantEngine.report`).  Observational --
    #: excluded from :meth:`identity_dict`.
    check_report: Optional[Dict] = None
    #: Wall-clock seconds the simulation took (provenance, not identity).
    wall_s: float = 0.0
    #: CPU seconds the simulating process spent on the cell (provenance).
    cpu_s: float = 0.0
    #: True when this cell was served from the result cache.
    cached: bool = False

    def to_dict(self) -> Dict:
        """JSON-friendly representation (inverse of :meth:`from_dict`)."""
        out = {
            "index": self.index,
            "params": self.params,
            "config": self.config,
            "summary": self.summary.to_dict(),
            "stats": self.stats,
            "exact": self.exact,
            "offered": self.offered,
            "delivered": self.delivered,
            "sim_time": self.sim_time,
            "goodput_gbps": self.goodput_gbps,
            "delivered_pps": self.delivered_pps,
            "availability": self.availability,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "cached": self.cached,
        }
        if self.slo_report is not None:
            out["slo_report"] = self.slo_report
        if self.check_report is not None:
            out["check_report"] = self.check_report
        return out

    def identity_dict(self) -> Dict:
        """The run-invariant part: everything except provenance and
        observations (the check report describes the checking, not the
        simulated trajectory)."""
        out = self.to_dict()
        del out["wall_s"], out["cpu_s"], out["cached"]
        out.pop("check_report", None)
        return out

    @classmethod
    def from_dict(cls, data: Dict) -> "CellResult":
        """Rebuild a cell from :meth:`to_dict` output."""
        return cls(
            index=int(data["index"]),
            params=dict(data["params"]),
            config=dict(data["config"]),
            summary=LatencySummary.from_dict(data["summary"]),
            stats=data["stats"],
            exact=dict(data["exact"]),
            offered=int(data["offered"]),
            delivered=int(data["delivered"]),
            sim_time=float(data["sim_time"]),
            goodput_gbps=float(data["goodput_gbps"]),
            delivered_pps=float(data["delivered_pps"]),
            availability=data.get("availability"),
            slo_report=data.get("slo_report"),
            check_report=data.get("check_report"),
            wall_s=float(data.get("wall_s", 0.0)),
            cpu_s=float(data.get("cpu_s", 0.0)),
            cached=bool(data.get("cached", False)),
        )


def measure(result: SimulationResult, wall_s: float,
            cpu_s: float = 0.0) -> Dict:
    """Extract the serializable cell payload from a live simulation.

    The returned dict is a :meth:`CellResult.to_dict` fragment (no
    index/params/config) -- exactly what crosses the worker-pool pickle
    boundary and what the cache stores.  A ``ClusterResult`` maps onto
    the same keys (docs/SWEEPS.md, "Cluster bases").
    """
    if not isinstance(result, SimulationResult):
        return _measure_cluster(result, wall_s, cpu_s)
    rd = result.to_dict()
    out = {key: rd[key] for key in _PAYLOAD_KEYS}
    out.update(wall_s=wall_s, cpu_s=cpu_s)
    for key in ("slo_report", "check_report"):
        if key in rd:
            out[key] = rd[key]
    return out


#: The :meth:`SimulationResult.to_dict` keys a cell payload carries.
_PAYLOAD_KEYS = ("summary", "stats", "exact", "offered", "delivered",
                 "sim_time", "goodput_gbps", "delivered_pps", "availability")


def _measure_cluster(result, wall_s: float, cpu_s: float) -> Dict:
    summary, hosts = result.summary.to_dict(), result.hosts
    return {
        "summary": summary,
        "stats": {**result.cluster,
                  "hosts": [{"name": h["name"], "summary": h["summary"]}
                            for h in hosts]},
        "exact": {k: summary[k] for _, k in SimulationResult.EXACT_KEYS},
        "offered": result.cluster["offered"],
        "delivered": result.cluster["delivered"],
        "sim_time": result.sim_time,
        # A host that delivered too little to time (goodput NaN)
        # contributes nothing, rather than turning the sum into NaN.
        "goodput_gbps": sum(g for h in hosts
                            if not math.isnan(g := h["goodput_gbps"])),
        "delivered_pps": result.delivered_pps(),
        "availability": None,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
    }


@dataclass
class SweepResult:
    """One sweep run: spec + per-cell results + wall-clock accounting."""

    spec: Dict
    cells: List[CellResult] = field(default_factory=list)
    jobs: int = 1
    #: End-to-end wall-clock of the orchestrator call, seconds.
    wall_s: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0

    def get(self, **params) -> CellResult:
        """The unique cell whose coordinates match every given param.

        ``sr.get(policy="adaptive", load=0.7)`` -- raises ``KeyError``
        with the known coordinates when nothing (or several) match.
        """
        matches = [c for c in self.cells
                   if all(c.params.get(k) == v for k, v in params.items())]
        if len(matches) == 1:
            return matches[0]
        axes = {k: sorted({str(c.params.get(k)) for c in self.cells})
                for k in (self.cells[0].params if self.cells else {})}
        raise KeyError(
            f"{len(matches)} cells match {params!r}; axis coordinates: {axes}"
        )

    def cell_wall_s(self) -> float:
        """Sum of per-cell simulation wall-clock (CPU-bound work)."""
        return sum(c.wall_s for c in self.cells)

    def cell_cpu_s(self) -> float:
        """CPU seconds of the cells this run simulated (cache hits did
        no work here)."""
        return sum(c.cpu_s for c in self.cells if not c.cached)

    def identity(self) -> List[Dict]:
        """Per-cell identity dicts, for bit-identical comparisons."""
        return [c.identity_dict() for c in self.cells]

    def accounting(self) -> Dict:
        """Wall-clock + cache bookkeeping of this run.

        ``speedup`` is the CPU seconds this run spent simulating cells
        over its wall seconds: near ``jobs`` when every worker had a core
        of its own, at most about 1 on one core, whatever ``jobs`` was.
        """
        return {
            "jobs": self.jobs,
            "cells": len(self.cells),
            "wall_s": self.wall_s,
            "cell_wall_s": self.cell_wall_s(),
            "cell_cpu_s": self.cell_cpu_s(),
            "speedup": (self.cell_cpu_s() / self.wall_s
                        if self.wall_s > 0 else 0.0),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }

    def to_dict(self) -> Dict:
        """JSON-friendly representation (inverse of :meth:`from_dict`)."""
        from repro import schemas

        return {
            "schema_version": schemas.version_for("sweep_result"),
            "spec": self.spec,
            "accounting": self.accounting(),
            "cells": [c.to_dict() for c in self.cells],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "SweepResult":
        """Rebuild a sweep artifact from :meth:`to_dict` output.

        Rejects payloads whose ``schema_version`` has an unsupported
        major version (see :mod:`repro.schemas`); pre-versioning
        payloads load as before.
        """
        from repro import schemas

        schemas.check_version(data, "sweep_result")
        acct = data.get("accounting", {})
        return cls(
            spec=data["spec"],
            cells=[CellResult.from_dict(c) for c in data["cells"]],
            jobs=int(acct.get("jobs", 1)),
            wall_s=float(acct.get("wall_s", 0.0)),
            cache_hits=int(acct.get("cache_hits", 0)),
            cache_misses=int(acct.get("cache_misses", 0)),
        )

    def save(self, path) -> None:
        """Write the artifact as JSON."""
        import json

        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "SweepResult":
        """Read an artifact written by :meth:`save`."""
        import json

        with open(path) as fh:
            return cls.from_dict(json.load(fh))
