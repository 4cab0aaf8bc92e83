"""repro.cluster -- rack-scale sharded simulation.

Partitions a :class:`ClusterConfig` (N hosts + a fabric topology)
across a multiprocessing worker pool, one shard of hosts per worker,
synchronized with conservative barrier epochs whose length equals the
fabric's minimum inter-host latency (the lookahead).  Each shard runs
the existing single-host engine unmodified, so the paper's intra-host
("last-mile") multipath composes with fabric multipath (ECMP/flowlet);
cross-shard sends travel as schema-versioned envelopes and merge into
one :class:`ClusterResult`.

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
count.  See ``docs/CLUSTER.md`` for the sharding model, the lookahead
contract and the determinism guarantees.
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
