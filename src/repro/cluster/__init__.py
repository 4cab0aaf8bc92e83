"""repro.cluster -- rack-scale parallel simulation.

Runs a :class:`ClusterConfig` (N hosts + a fabric topology) as an exact
two-phase map over a worker pool, one contiguous shard of hosts per
worker: phase 1 runs every host's traffic source and router once and
writes each packet down as an envelope row (open-loop traffic makes a
host's egress independent of its ingress), and phase 2 simulates each
host in full against one merged stream of its local emissions and the
envelopes addressed to it, replayed at their exact times.  Every
envelope arrives at least one lookahead (the fabric's minimum
inter-host latency) after it was sent.  Each host runs the existing
single-host engine unmodified, so the paper's intra-host ("last-mile")
multipath composes with fabric multipath (ECMP/flowlet); cross-host
sends travel as schema-versioned envelopes and merge into one
:class:`ClusterResult`.

Quickstart::

    import repro
    from repro import ClusterConfig, ScenarioConfig

    cluster = ClusterConfig.uniform_hosts(
        n_hosts=8,
        scenario=ScenarioConfig(policy="adaptive", n_paths=4, load=0.6,
                                duration=50_000.0),
        seed=7,
    )
    result = repro.run(cluster, repro.RunOptions(workers=4))
    print(result.summary, result.cluster["delivery_ratio"])

Same seed => bit-identical :meth:`ClusterResult.to_dict` at any worker
count.  See ``docs/CLUSTER.md`` for the two phases, the lookahead contract and
the determinism guarantees.
"""

from repro import _lazy_exports

_EXPORTS = {
    "repro.cluster.config": ("PATTERN_KINDS", "ClusterConfig", "HostConfig",
                             "derived_host_seed"),
    "repro.cluster.engine": ("ClusterExecutionError", "partition_hosts",
                             "resolve_workers", "run_cluster"),
    "repro.cluster.result": ("ClusterResult", "merge_summaries"),
    "repro.net.fabric": ("FabricConfig",),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
