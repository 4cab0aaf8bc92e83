"""repro -- multipath intra-host data plane for tail-latency mitigation.

Reproduction of *"Last-mile Matters: Mitigating the Tail Latency of
Virtualized Networks with Multipath Data Plane"* (CLUSTER 2022) as a
discrete-event simulation library.  See DESIGN.md for the system
inventory and the source-text caveat, and EXPERIMENTS.md for measured
results.

Quickstart -- :func:`run` is the public one-call experiment runner::

    import repro

    result = repro.run(policy="adaptive", n_paths=4, load=0.7)
    print(result.summary)          # latency percentiles (µs)

and :func:`repro.sweep.run_sweep` fans a declarative grid of such runs
across a worker pool (see docs/SWEEPS.md).  For rack-scale experiments,
:func:`run` also accepts a :class:`ClusterConfig` -- N hosts behind a
multipath fabric, sharded across a worker pool with conservative
lookahead synchronization (see docs/CLUSTER.md)::

    cluster = repro.ClusterConfig.uniform_hosts(
        8, repro.ScenarioConfig(policy="adaptive", load=0.7))
    cres = repro.run(cluster, repro.RunOptions(workers=4))
    print(cres.summary)            # cluster-wide percentiles (µs)

This module is the frozen v1 public surface: every name in ``__all__``
follows the deprecation policy in docs/API.md (one minor release with a
warning before removal; removals only on a major bump).  The composable
layer is still fully public when an experiment needs custom wiring::

    from repro import (
        Simulator, RngRegistry, MultipathDataPlane, MpdpConfig,
        PathConfig, SHARED_CORE, PoissonSource,
    )

    sim = Simulator()
    rngs = RngRegistry(seed=1)
    cfg = MpdpConfig(n_paths=4, policy="adaptive",
                     path=PathConfig(jitter=SHARED_CORE))
    host = MultipathDataPlane(sim, cfg, rngs)
    src = PoissonSource(sim, host.factory, host.input,
                        rngs.stream("traffic"), rate_pps=400_000)
    src.start()
    sim.run(until=200_000.0)   # 200 ms
    host.finalize()
    print(host.sink.recorder.summary())
"""

import importlib
import sys


def _lazy_exports(package, table, *own):
    """Export ``package``'s public names, each imported on first access.

    ``table`` maps a module to the names the package re-exports from
    it; ``own`` names the package binds itself or are its submodules.
    Returns ``(__all__, __getattr__, __dir__)`` for the package to bind
    (PEP 562), so ``__all__`` and the lookup derive from one table.  A
    resolved name is bound on the package, so only its first access
    runs the hook; any other name that is a submodule is imported, so
    ``repro.sweep``-style attribute access keeps working.
    """
    source = {name: module for module, names in table.items()
              for name in names}
    exports = [*source, *own]

    def __getattr__(name):
        if name in source:
            value = getattr(importlib.import_module(source[name]), name)
        else:
            try:
                value = importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise  # the submodule exists but failed to import
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        setattr(sys.modules[package], name, value)
        return value

    def __dir__():
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return exports, __getattr__, __dir__


#: The frozen v1 surface, by defining package.  Nothing here is imported
#: by ``import repro``; each name loads its module on first access.
_EXPORTS = {
    "repro.sim": ("Simulator", "RngRegistry"),
    "repro.net": (
        "Packet", "FiveTuple", "PacketFactory", "Flow", "FlowTracker",
        "PoissonSource", "CBRSource", "OnOffSource", "IncastSource",
        "FlowSource", "TraceReplaySource", "EmpiricalCDF", "WEBSEARCH_CDF",
        "DATAMINING_CDF", "ENTERPRISE_CDF", "workload_by_name",
        "FabricModel", "HostLink", "ClosedLoopRpcClient",
    ),
    "repro.elements": ("Chain", "Element", "ElementGraph", "standard_chain",
                       "STANDARD_CHAINS"),
    "repro.dataplane": (
        "DataPath", "VCpu", "JitterParams", "DEDICATED_CORE", "SHARED_CORE",
        "CONTENDED_CORE", "NoisyNeighbor", "InterferenceSchedule",
        "DeliverySink",
    ),
    "repro.dataplane.path": ("PathConfig", "QDISC_REGISTRY"),
    "repro.core": (
        "MultipathDataPlane", "MpdpConfig", "Policy", "make_policy",
        "POLICY_NAMES", "POLICY_REGISTRY", "StragglerDetector",
        "ReorderBuffer", "FlowletTable",
    ),
    "repro.metrics": ("LatencyRecorder", "LatencySummary", "summarize",
                      "Table", "TimeSeries", "AvailabilityTracker"),
    "repro.faults": ("FaultInjector", "FaultSchedule", "FaultSpec",
                     "StochasticFaultSpec", "FAULT_KINDS"),
    "repro.bench.scenarios": ("ScenarioConfig", "SimulationResult"),
    "repro.options": ("RunOptions",),
    "repro.check": ("CheckSpec", "InvariantEngine", "InvariantViolation"),
    "repro.obs": ("Telemetry", "ForensicsSpec"),
    "repro.slo": ("SloSpec", "SloObjective", "SloTracker", "SloAutotuner"),
    "repro.sweep": ("Axis", "SweepSpec", "SweepResult", "CellResult",
                    "run_sweep"),
    "repro.cluster": ("ClusterConfig", "ClusterResult", "HostConfig",
                      "FabricConfig", "run_cluster"),
}

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__, _EXPORTS, "run", "schemas", "__version__")

__version__ = "2.0.0"

#: Legacy-kwarg deprecation fired already?  Module-level so sweeps and
#: loops hitting the shim thousands of times warn exactly once per
#: process (same contract as repro.bench.scenarios._simulate_warned).
_run_kwargs_warned = False


def run(config=None, options=None, *, telemetry=None, faults=None,
        slo=None, **overrides):
    """Run one experiment and return its :class:`SimulationResult`.

    The unified single-scenario entry point: every example, figure and
    sweep cell reduces to this call.  Pass a ready
    :class:`ScenarioConfig`, keyword overrides for one, or both (the
    overrides are applied on top of the config)::

        result = repro.run(policy="adaptive", n_paths=4, load=0.7)
        result = repro.run(cfg, seed=7)

    Everything orthogonal to the scenario -- observations and harness
    toggles -- rides in a :class:`RunOptions`::

        opts = repro.RunOptions(telemetry=repro.Telemetry(), check=True)
        result = repro.run(cfg, opts)
        print(result.check_report["ok"])

    * ``options.telemetry`` (a :class:`Telemetry`) instruments the run
      with stage spans, metric time series and instant events; the
      simulated result is bit-identical with or without it.
    * ``options.faults`` (a :class:`FaultSchedule`) installs a
      fault-injection schedule, folded into -- and stored as --
      ``config.faults``, so results and cache keys treat it as part of
      the scenario.
    * ``options.slo`` (an :class:`SloSpec`) declares service-level
      objectives, folded into ``config.slo`` the same way; the result
      gains an ``slo_report`` (see docs/SLO.md).
    * ``options.check`` (``True`` or a :class:`CheckSpec`) arms the
      runtime invariant engine; the result gains a ``check_report``
      (see docs/CHECKING.md).
    * ``options.forensics`` (``True`` or a :class:`ForensicsSpec`) runs
      post-run tail attribution; the result gains a ``forensics_report``
      (see docs/FORENSICS.md).  Attaches a default :class:`Telemetry`
      when none was passed.

    ``run`` also dispatches on the config kind: pass a
    :class:`ClusterConfig` and the rack-scale sharded engine
    (:func:`repro.cluster.run_cluster`) runs it, returning a
    :class:`ClusterResult` instead::

        cluster = repro.ClusterConfig.uniform_hosts(8, load=...)
        result = repro.run(cluster, repro.RunOptions(workers=4))

    For cluster runs ``options.workers`` picks the worker-pool size
    (an execution knob -- the serialized result is bit-identical at any
    worker count), ``options.telemetry`` is a *directory path* the
    merged per-host telemetry bundle is written under, and
    ``options.faults``/``options.slo`` are rejected (set them on each
    host's scenario instead).

    The bare keywords ``telemetry=`` / ``faults=`` / ``slo=`` are the
    pre-1.3 spelling, kept as a deprecated shim (one warning per
    process); new code should pass a :class:`RunOptions`.

    The config is validated up front (:meth:`ScenarioConfig.validate` /
    :meth:`ClusterConfig.validate`), so unknown policy/chain/traffic
    names and non-positive knobs fail with actionable messages.
    """
    import dataclasses as _dc
    import os

    from repro.bench.scenarios import ScenarioConfig, run_scenario
    from repro.options import RunOptions

    if options is not None and not isinstance(options, RunOptions):
        raise TypeError(
            f"run()'s second positional argument is a RunOptions, got "
            f"{type(options).__name__}; pass telemetry/faults/slo inside "
            f"RunOptions (or, deprecated, by keyword)"
        )
    is_cluster = False
    if config is not None and not isinstance(config, ScenarioConfig):
        # Only a non-scenario config can be a cluster: host runs never
        # import the cluster engine.
        from repro.cluster import ClusterConfig

        is_cluster = isinstance(config, ClusterConfig)
    if is_cluster:
        if telemetry is not None or faults is not None or slo is not None:
            raise TypeError(
                "the legacy telemetry=/faults=/slo= keywords do not apply "
                "to cluster runs; pass a RunOptions (telemetry is a bundle "
                "directory path; faults/slo belong on each host's scenario)"
            )
        opts = options or RunOptions()
        if opts.faults is not None or opts.slo is not None:
            raise ValueError(
                "faults/slo options do not apply to a ClusterConfig; set "
                "them on each host's ScenarioConfig instead"
            )
        telemetry_dir = opts.telemetry
        if telemetry_dir is not None and not isinstance(
                telemetry_dir, (str, os.PathLike)):
            raise TypeError(
                f"for cluster runs options.telemetry is a bundle directory "
                f"path (str or PathLike), got "
                f"{type(telemetry_dir).__name__}; per-host Telemetry "
                f"objects are created by the engine and merged under it"
            )
        if overrides:
            config = _dc.replace(config, **overrides)
        # Looked up on the package, where a caller may have wrapped it.
        from repro import run_cluster

        return run_cluster(
            config,
            workers=opts.workers,
            telemetry_dir=(os.fspath(telemetry_dir)
                           if telemetry_dir is not None else None),
            check=opts.check_spec(),
            forensics=opts.forensics_spec(),
        )
    if telemetry is not None or faults is not None or slo is not None:
        global _run_kwargs_warned
        if not _run_kwargs_warned:
            _run_kwargs_warned = True
            import warnings

            warnings.warn(
                "repro.run(telemetry=/faults=/slo=) keywords are "
                "deprecated; pass repro.run(config, "
                "RunOptions(telemetry=..., faults=..., slo=...)) instead",
                DeprecationWarning,
                stacklevel=2,
            )
    opts = (options or RunOptions()).merged_with(
        telemetry=telemetry, faults=faults, slo=slo
    )
    if config is None:
        config = ScenarioConfig(**overrides)
    elif overrides:
        config = _dc.replace(config, **overrides)
    if opts.faults is not None:
        if config.faults is not None:
            raise ValueError(
                "faults set both on the config and in the run options; "
                "set it once"
            )
        config = _dc.replace(config, faults=opts.faults)
    if opts.slo is not None:
        if config.slo is not None:
            raise ValueError(
                "slo set both on the config and in the run options; "
                "set it once"
            )
        config = _dc.replace(config, slo=opts.slo)
    return run_scenario(config, telemetry=opts.telemetry,
                        check=opts.check_spec(),
                        forensics=opts.forensics_spec())

