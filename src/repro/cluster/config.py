"""Cluster configuration: hosts + fabric + traffic pattern.

A :class:`ClusterConfig` is N :class:`HostConfig`\\ s (each wrapping the
familiar single-host :class:`~repro.bench.scenarios.ScenarioConfig`)
joined by a :class:`~repro.net.fabric.FabricConfig` topology and a
cluster-level **pattern** deciding which host each flow is destined to:

* ``"uniform"`` -- every flow picks a destination uniformly over all
  hosts (including its own, so ``1/N`` of traffic stays local);
* ``"incast"`` -- every non-target host sends *all* its flows to
  ``incast_target`` (the classic fan-in hotspot); the target's own
  traffic stays local.

All three config classes carry the same
``validate()/to_dict()/from_dict()`` round-trip contract as
``ScenarioConfig`` and are registered payload kinds in
:mod:`repro.schemas`, so cluster specs serialize, hash and load exactly
like single-host specs.

Seeds: ``ClusterConfig.seed`` is the cluster seed.  Each host runs with
a derived seed mixed from ``(cluster seed, host id, the host scenario's
own seed)`` via :func:`numpy.random.SeedSequence`, so hosts are
decorrelated by construction and a host's random streams never depend
on which worker simulates it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..bench.scenarios import ScenarioConfig
from ..net.fabric import FabricConfig

#: Flow-destination patterns :func:`repro.cluster.run_cluster` understands.
PATTERN_KINDS = ("uniform", "incast")


def derived_host_seed(cluster_seed: int, host_id: int,
                      scenario_seed: int) -> int:
    """The effective scenario seed for one host of a cluster run.

    Mixed through :class:`numpy.random.SeedSequence` so nearby cluster
    seeds / host ids give statistically independent streams, and stable
    across platforms and worker counts (pure function of its inputs).
    """
    ss = np.random.SeedSequence(
        entropy=cluster_seed & 0xFFFFFFFFFFFFFFFF,
        spawn_key=(host_id, scenario_seed & 0xFFFFFFFFFFFFFFFF),
    )
    return int(ss.generate_state(1)[0])


@dataclass
class HostConfig:
    """One host of a cluster: a scenario plus a label.

    ``scenario.seed`` acts as a per-host salt: the host's effective
    seed is derived from it together with the cluster seed and host id
    (see :func:`derived_host_seed`), so two hosts sharing a template
    scenario still run decorrelated traffic.
    """

    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    name: str = ""

    def validate(self) -> "HostConfig":
        """Check the wrapped scenario, plus cluster-only restrictions.

        The cluster engine relies on **egress independence**: a host's
        outgoing envelopes must depend only on its own traffic source
        and routing streams, never on the envelopes it receives.  That
        is what lets it compute every host's egress before simulating
        any host.  Every traffic kind is open loop and keeps it, but
        ``traffic="flows"`` is rejected: its flow completion times need
        the flow's packets delivered on the host whose ``FlowTracker``
        registered the flow, and a flow routed to another host is
        delivered there.
        """
        self.scenario.validate()
        if self.scenario.traffic == "flows":
            raise ValueError(
                "traffic='flows' is not supported inside a cluster: a "
                "flow's packets are delivered on another host than the "
                "one whose FlowTracker registered the flow, so no host "
                "can measure its completion time; use 'poisson', "
                "'onoff' or 'incast' per host"
            )
        try:
            self.scenario.to_dict()
        except TypeError as exc:
            raise ValueError(
                f"cluster host scenarios must be serializable (they "
                f"cross process boundaries): {exc}"
            ) from None
        return self

    def to_dict(self) -> Dict:
        """JSON-friendly representation (inverse of :meth:`from_dict`)."""
        from repro import schemas

        return {
            "schema_version": schemas.version_for("host_config"),
            "scenario": self.scenario.to_dict(),
            "name": self.name,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "HostConfig":
        """Build a config from :meth:`to_dict`-shaped (JSON) data."""
        kw = dict(data)
        kw.pop("schema_version", None)
        unknown = set(kw) - {"scenario", "name"}
        if unknown:
            raise ValueError(
                f"unknown HostConfig field(s) {sorted(unknown)}; "
                f"valid fields: ['name', 'scenario']"
            )
        scenario = kw.get("scenario", {})
        if not isinstance(scenario, ScenarioConfig):
            scenario = ScenarioConfig.from_dict(scenario)
        return cls(scenario=scenario, name=kw.get("name", ""))


@dataclass
class ClusterConfig:
    """A rack of hosts behind a multipath fabric.

    Attributes
    ----------
    hosts:
        Per-host configs; the list index is the host id.
    fabric:
        Topology + steering between hosts (:class:`FabricConfig`).
    pattern / incast_target:
        Flow-destination pattern (see module docstring).
    seed:
        Cluster seed; per-host seeds derive from it.
    epoch:
        Synchronization epoch length (µs) for the sharded engine, or
        ``None`` for the maximum conservative value
        (``fabric.min_latency()``).  Must not exceed the fabric's
        minimum latency -- that is the lookahead contract.
    """

    hosts: List[HostConfig] = field(default_factory=list)
    fabric: FabricConfig = field(default_factory=FabricConfig)
    pattern: str = "uniform"
    incast_target: int = 0
    seed: int = 42
    epoch: Optional[float] = None

    # -- construction ---------------------------------------------------
    @classmethod
    def uniform_hosts(cls, n_hosts: int,
                      scenario: Optional[ScenarioConfig] = None,
                      fabric: Optional[FabricConfig] = None,
                      **kw) -> "ClusterConfig":
        """N identical hosts from one template scenario.

        The template is copied per host through its serialized form, so
        later mutation of the template never aliases into the cluster.
        Remaining keyword arguments go to the :class:`ClusterConfig`
        constructor (``pattern=...``, ``seed=...``, ...).
        """
        if n_hosts < 1:
            raise ValueError(f"n_hosts must be >= 1, got {n_hosts}")
        template = scenario if scenario is not None else ScenarioConfig()
        as_dict = template.to_dict()
        hosts = [HostConfig(scenario=ScenarioConfig.from_dict(dict(as_dict)),
                            name=f"host{i}")
                 for i in range(n_hosts)]
        return cls(hosts=hosts,
                   fabric=fabric if fabric is not None else FabricConfig(),
                   **kw)

    def with_overrides(self, overrides: Dict) -> "ClusterConfig":
        """A copy with one sweep cell's overrides applied.

        ``pattern``/``incast_target``/``seed``/``epoch`` set that
        cluster field, ``fabric.<field>`` a fabric field, and any other
        name a scenario field on every host.  ``hosts`` goes last: it
        rebuilds that many hosts from the scenario they all share, and
        raises ``ValueError`` when their scenarios differ.
        """
        cfg = ClusterConfig.from_dict(self.to_dict())  # no aliasing
        for name, value in overrides.items():
            if name in ("pattern", "incast_target", "seed", "epoch"):
                setattr(cfg, name, value)
            elif name.startswith("fabric."):
                cfg.fabric = dataclasses.replace(
                    cfg.fabric, **{name[len("fabric."):]: value})
            elif name != "hosts":
                for h in cfg.hosts:
                    h.scenario = dataclasses.replace(h.scenario,
                                                     **{name: value})
        if "hosts" in overrides:
            shared = cfg.hosts[0].scenario
            if any(h.scenario.to_dict() != shared.to_dict()
                   for h in cfg.hosts):
                raise ValueError(
                    "sweeping 'hosts' rebuilds every host from one shared "
                    "scenario, but these hosts differ in scenario; edit "
                    "the host list in the spec's base instead")
            cfg.hosts = ClusterConfig.uniform_hosts(
                int(overrides["hosts"]), shared).hosts
        return cfg

    # -- derived quantities --------------------------------------------
    @property
    def n_hosts(self) -> int:
        return len(self.hosts)

    def epoch_length(self) -> float:
        """Effective epoch length: the explicit one or the lookahead."""
        return self.epoch if self.epoch is not None \
            else self.fabric.min_latency()

    def horizon(self) -> float:
        """Nominal cluster run end: the slowest host's duration+drain."""
        return max(h.scenario.duration + h.scenario.drain
                   for h in self.hosts)

    # -- validation -----------------------------------------------------
    def validate(self) -> "ClusterConfig":
        """Check every field and host, raising ``ValueError`` with an
        actionable message on the first problem."""
        if not self.hosts:
            raise ValueError("a cluster needs at least one host")
        for i, h in enumerate(self.hosts):
            if not isinstance(h, HostConfig):
                raise ValueError(
                    f"hosts[{i}] must be a HostConfig, "
                    f"got {type(h).__name__}"
                )
            try:
                h.validate()
            except ValueError as exc:
                raise ValueError(f"hosts[{i}]: {exc}") from None
        self.fabric.validate()
        if self.pattern not in PATTERN_KINDS:
            raise ValueError(
                f"unknown pattern {self.pattern!r}; "
                f"available: {', '.join(PATTERN_KINDS)}"
            )
        if not 0 <= self.incast_target < len(self.hosts):
            raise ValueError(
                f"incast_target {self.incast_target} out of range for "
                f"{len(self.hosts)} host(s)"
            )
        if self.epoch is not None:
            if self.epoch <= 0:
                raise ValueError(
                    f"epoch must be positive (µs), got {self.epoch}"
                )
            if self.epoch > self.fabric.min_latency():
                raise ValueError(
                    f"epoch {self.epoch}µs exceeds the fabric's minimum "
                    f"latency {self.fabric.min_latency()}µs: the "
                    f"conservative lookahead contract requires epoch <= "
                    f"min inter-host wire latency"
                )
        return self

    # -- serialization --------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-friendly representation (inverse of :meth:`from_dict`)."""
        from repro import schemas

        return {
            "schema_version": schemas.version_for("cluster_config"),
            "hosts": [h.to_dict() for h in self.hosts],
            "fabric": self.fabric.to_dict(),
            "pattern": self.pattern,
            "incast_target": self.incast_target,
            "seed": self.seed,
            "epoch": self.epoch,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "ClusterConfig":
        """Build a config from :meth:`to_dict`-shaped (JSON) data."""
        kw = dict(data)
        kw.pop("schema_version", None)
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(kw) - names
        if unknown:
            raise ValueError(
                f"unknown ClusterConfig field(s) {sorted(unknown)}; "
                f"valid fields: {sorted(names)}"
            )
        hosts = [h if isinstance(h, HostConfig) else HostConfig.from_dict(h)
                 for h in kw.get("hosts", [])]
        fabric = kw.get("fabric", None)
        if fabric is None:
            fabric = FabricConfig()
        elif not isinstance(fabric, FabricConfig):
            fabric = FabricConfig.from_dict(fabric)
        return cls(
            hosts=hosts,
            fabric=fabric,
            pattern=kw.get("pattern", "uniform"),
            incast_target=kw.get("incast_target", 0),
            seed=kw.get("seed", 42),
            epoch=kw.get("epoch", None),
        )
