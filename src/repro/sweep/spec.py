"""Declarative sweep specifications.

A :class:`SweepSpec` names a parameter grid over
:class:`~repro.bench.scenarios.ScenarioConfig` fields: a ``base`` dict of
fixed overrides plus ordered :class:`Axis` objects whose cross product
(row-major, last axis fastest) expands into :class:`SweepCell` jobs.  An
axis value may be a scalar (assigned to the axis field) or a dict of
several field overrides for coupled parameters -- e.g. path-count
scaling at fixed aggregate load sweeps ``{"n_paths": k, "load": 0.8/k}``
under one labelled axis.

A ``base`` that is a full ``ClusterConfig.to_dict()`` payload makes a
*cluster* sweep: each cell is one cluster, its axes name
:meth:`~repro.cluster.ClusterConfig.with_overrides` overrides, and a
derived seed is the cluster seed.

Seed-derivation contract
------------------------
``seed_mode="fixed"`` (default) gives every cell the base seed, exactly
like the hand-rolled loops the spec replaces: two cells differing only
in ``policy`` see identical traffic.  ``seed_mode="derived"`` gives each
cell ``derive_seed(base_seed, cell.params)`` -- a stable SHA-256 hash of
the base seed and the cell's axis coordinates, independent of cell
*order*, so inserting axis values never reshuffles the seeds of existing
cells.  Either way the mapping is pure: the same spec always expands to
the same per-cell configs, which is what makes parallel execution and
caching bit-identical to a serial run.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import schemas
from repro.bench.scenarios import ScenarioConfig


def canonical_json(data) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace).

    The canonical form feeds cache keys and seed derivation, so it
    refuses NaN/Infinity -- those have no portable JSON spelling.
    """
    return json.dumps(data, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def derive_seed(base_seed: int, params: Dict) -> int:
    """Stable per-cell seed: SHA-256 of the base seed + axis coordinates.

    Returns a non-negative 31-bit int.  Cells are identified by their
    axis *coordinates* (not their expansion index), so growing an axis
    leaves every existing cell's derived seed unchanged.
    """
    digest = hashlib.sha256(
        f"{base_seed}|{canonical_json(params)}".encode()
    ).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


@dataclass
class Axis:
    """One swept dimension.

    ``param`` names a :class:`ScenarioConfig` field (or, for dict-valued
    entries, just the axis itself).  Each value is either a scalar
    assigned to ``param`` or a dict of coupled field overrides.
    ``labels`` (optional, same length) are the values cells report in
    ``cell.params[param]``; they default to the scalar value itself, or
    to the canonical JSON of a dict value.
    """

    param: str
    values: List
    labels: Optional[List] = None

    def __post_init__(self) -> None:
        self.values = list(self.values)
        if not self.values:
            raise ValueError(f"axis {self.param!r} has no values")
        if self.labels is not None:
            self.labels = list(self.labels)
            if len(self.labels) != len(self.values):
                raise ValueError(
                    f"axis {self.param!r}: {len(self.labels)} labels for "
                    f"{len(self.values)} values"
                )

    def points(self) -> List:
        """``(label, overrides)`` pairs, one per value."""
        out = []
        for i, value in enumerate(self.values):
            if isinstance(value, dict):
                overrides = dict(value)
                label = self.labels[i] if self.labels else canonical_json(value)
            else:
                overrides = {self.param: value}
                label = self.labels[i] if self.labels else value
            out.append((label, overrides))
        return out

    def to_dict(self) -> Dict:
        out = {"param": self.param, "values": self.values}
        if self.labels is not None:
            out["labels"] = self.labels
        return out

    @classmethod
    def from_dict(cls, data: Dict) -> "Axis":
        unknown = set(data) - {"param", "values", "labels"}
        if unknown:
            raise ValueError(f"unknown Axis key(s) {sorted(unknown)}")
        return cls(data["param"], data["values"], data.get("labels"))


@dataclass
class SweepCell:
    """One expanded grid point: coordinates plus the full config."""

    index: int
    #: Axis coordinates, ``{axis.param: label}`` in axis order.
    params: Dict
    #: Canonical full config dict (every field, serialized form).
    config_dict: Dict

    def config(self):
        """Materialize the runnable :class:`ScenarioConfig`, or the
        :class:`~repro.cluster.ClusterConfig` of a cluster cell."""
        if schemas.infer_kind(self.config_dict) == "cluster_config":
            from repro.cluster import ClusterConfig

            return ClusterConfig.from_dict(self.config_dict)
        return ScenarioConfig.from_dict(self.config_dict)


@dataclass
class SweepSpec:
    """A named, declarative experiment grid (see module docstring).

    ``single_path_baseline``: a cell whose policy is ``"single"`` runs
    with ``n_paths=1`` (it *is* the one-lane baseline) unless the cell's
    own axis overrides pin ``n_paths`` explicitly.  In a cluster sweep
    the rule applies per host.
    """

    name: str
    base: Dict = field(default_factory=dict)
    axes: List[Axis] = field(default_factory=list)
    seed_mode: str = "fixed"
    single_path_baseline: bool = True

    def __post_init__(self) -> None:
        if self.seed_mode not in ("fixed", "derived"):
            raise ValueError(
                f"seed_mode must be 'fixed' or 'derived', got {self.seed_mode!r}"
            )
        self.axes = [a if isinstance(a, Axis) else Axis.from_dict(a)
                     for a in self.axes]
        seen = set()
        for axis in self.axes:
            if axis.param in seen:
                raise ValueError(f"duplicate axis {axis.param!r}")
            seen.add(axis.param)

    @property
    def n_cells(self) -> int:
        n = 1
        for axis in self.axes:
            n *= len(axis.values)
        return n

    @property
    def is_cluster(self) -> bool:
        """Whether ``base`` is a full cluster config (module docstring)."""
        return schemas.infer_kind(self.base) == "cluster_config"

    def expand(self) -> List[SweepCell]:
        """Cross-product expansion into runnable cells (row-major)."""
        cluster = None
        if self.is_cluster:
            from repro.cluster import ClusterConfig

            cluster = ClusterConfig.from_dict(self.base)
        cells: List[SweepCell] = []
        axis_points = [axis.points() for axis in self.axes]
        for index, combo in enumerate(itertools.product(*axis_points)):
            params: Dict = {}
            overrides: Dict = {}
            for axis, (label, ov) in zip(self.axes, combo):
                params[axis.param] = label
                overrides.update(ov)
            if cluster is None:
                config = ScenarioConfig.from_dict({**self.base, **overrides})
                scenarios = [config]
            else:
                config = cluster.with_overrides(overrides)
                scenarios = [h.scenario for h in config.hosts]
            if self.single_path_baseline and "n_paths" not in overrides:
                for scenario in scenarios:
                    if scenario.policy == "single":
                        scenario.n_paths = 1
            if self.seed_mode == "derived" and "seed" not in overrides:
                config.seed = derive_seed(int(config.seed), params)
            cells.append(SweepCell(index, params,
                                   config.validate().to_dict()))
        return cells

    # -- serialization --------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-friendly representation (inverse of :meth:`from_dict`)."""
        base = {}
        for key, value in self.base.items():
            base[key] = value.to_dict() if hasattr(value, "to_dict") else value
        return {
            "name": self.name,
            "base": base,
            "axes": [a.to_dict() for a in self.axes],
            "seed_mode": self.seed_mode,
            "single_path_baseline": self.single_path_baseline,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "SweepSpec":
        """Build a spec from :meth:`to_dict`-shaped (JSON) data."""
        known = {"name", "base", "axes", "seed_mode", "single_path_baseline"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown SweepSpec key(s) {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}"
            )
        if "name" not in data:
            raise ValueError("SweepSpec needs a 'name'")
        return cls(
            name=data["name"],
            base=dict(data.get("base", {})),
            axes=[Axis.from_dict(a) if not isinstance(a, Axis) else a
                  for a in data.get("axes", [])],
            seed_mode=data.get("seed_mode", "fixed"),
            single_path_baseline=data.get("single_path_baseline", True),
        )


def coerce_field_value(name: str, text: str, cls=ScenarioConfig):
    """Parse a CLI string into the type of field ``name`` of ``cls``.

    Used by ``repro sweep --axis/--set``: ints and floats by the field's
    declared type, ``jitter`` left as a profile name, JSON accepted for
    dict-typed values (``faults``, ``slo``, ``mpdp_overrides``, compound axis
    points).
    """
    import dataclasses as _dc

    text = text.strip()
    if text.startswith(("{", "[")):
        return json.loads(text)
    fields = {f.name: f for f in _dc.fields(cls)}
    if name not in fields:
        raise ValueError(
            f"unknown {cls.__name__} field {name!r}; "
            f"valid fields: {sorted(fields)}"
        )
    hint = str(fields[name].type)
    try:
        if "int" in hint and "float" not in hint:
            return int(text)
        if "float" in hint:
            return float(text)
    except ValueError:
        raise ValueError(f"field {name!r} expects a number, got {text!r}") from None
    if text in ("true", "True"):
        return True
    if text in ("false", "False"):
        return False
    if text in ("null", "None", "none") and name in ("faults", "slo"):
        return None
    return text


def coerce_cluster_value(name: str, text: str):
    """Parse a CLI string for one cluster-sweep axis name (see
    :meth:`ClusterConfig.with_overrides
    <repro.cluster.ClusterConfig.with_overrides>`)."""
    from repro.cluster import ClusterConfig
    from repro.net.fabric import FabricConfig

    if name == "hosts":
        return int(text)
    if name.startswith("fabric."):
        return coerce_field_value(name[len("fabric."):], text, FabricConfig)
    if name in ("pattern", "incast_target", "seed", "epoch"):
        return coerce_field_value(name, text, ClusterConfig)
    return coerce_field_value(name, text)
