#!/usr/bin/env python
"""Record the cluster sharding scale measurement + determinism gate.

Runs the C1 scale scenario (8 uniform hosts, adaptive k=4, ecmp fabric)
twice -- ``workers=1`` (every shard inline) and ``workers=4`` (shards
across a process pool) -- and writes the wall-clock comparison to
``benchmarks/results/BENCH_CLUSTER_SCALE.json``.

Two gates:

* **Determinism (always enforced):** the serialized ``ClusterResult``
  must be byte-identical at both worker counts -- shard placement is an
  execution detail, never an input to the simulation.
* **Speedup (enforced on capable hosts):** with >= 4 CPUs available,
  ``workers=4`` must beat ``workers=1`` by >= 2x aggregate throughput
  (wall-clock).  On smaller hosts the measurement is still recorded --
  honestly, including the cpu_count that explains it -- but cannot
  gate: four workers on one core cannot go faster than one.

Each side also records its CPU seconds (this process plus its reaped
workers) and CPU seconds per million delivered packets, next to wall
seconds: CPU says what the sharding costs, wall what it buys.

Usage:  python benchmarks/record_cluster_scale.py
        (REPRO_BENCH_SCALE scales the simulated duration)
"""

import json
import os
import pathlib
import resource
import sys

from repro.bench.runner import scaled_duration
from repro.bench.scenarios import ScenarioConfig
from repro.cluster import ClusterConfig, run_cluster
from repro.net.fabric import FabricConfig

RESULTS = pathlib.Path(__file__).resolve().parent / "results"
#: Required workers=4 speedup on a >=4-core host; below the 4x ideal
#: because the barrier serializes epoch exchange and CI runners share.
MIN_SPEEDUP = 2.0
N_HOSTS = 8
LOAD = 0.6


def _config() -> ClusterConfig:
    d = scaled_duration(25_000.0)
    template = ScenarioConfig(policy="adaptive", n_paths=4, load=LOAD,
                              duration=d, warmup=0.15 * d)
    return ClusterConfig.uniform_hosts(
        N_HOSTS, template,
        FabricConfig(n_spines=4, base_latency=50.0, spine_skew=5.0),
        pattern="uniform", seed=42,
    )


def _cpu_s() -> float:
    """User + system CPU of this process and every reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main() -> int:
    cfg = _config()
    runs = {}
    payloads = {}
    cpu = {}
    for workers in (1, 4):
        cpu0 = _cpu_s()
        res = run_cluster(cfg, workers=workers)
        cpu[workers] = _cpu_s() - cpu0
        runs[workers] = res
        payloads[workers] = json.dumps(res.to_dict(), sort_keys=True)
        print(f"workers={workers}: {res.cluster['delivered']} delivered "
              f"in {res.wall_s:.2f}s wall, {cpu[workers]:.2f}s CPU "
              f"({res.cluster['delivered'] / res.wall_s:,.0f} pps wall)")

    def per_mpkt(workers: int) -> float:
        return cpu[workers] / runs[workers].cluster["delivered"] * 1e6

    deterministic = payloads[1] == payloads[4]
    speedup = runs[1].wall_s / max(runs[4].wall_s, 1e-9)
    cores = os.cpu_count() or 1
    gated = cores >= 4

    record = {
        "name": "cluster-scale",
        "hosts": N_HOSTS,
        "load": LOAD,
        "duration_us": cfg.hosts[0].scenario.duration,
        "cpu_count": cores,
        "offered": runs[4].cluster["offered"],
        "delivered": runs[4].cluster["delivered"],
        "envelopes_sent": runs[4].cluster["envelopes_sent"],
        "p99_us": runs[4].p99,
        "wall_s_workers_1": runs[1].wall_s,
        "wall_s_workers_4": runs[4].wall_s,
        "cpu_s_workers_1": cpu[1],
        "cpu_s_workers_4": cpu[4],
        "cpu_s_per_mpkt_workers_1": per_mpkt(1),
        "cpu_s_per_mpkt_workers_4": per_mpkt(4),
        "speedup_4_workers": speedup,
        "wall_pps_workers_4": runs[4].cluster["delivered"] / runs[4].wall_s,
        "deterministic_1_vs_4": deterministic,
        "speedup_gate_enforced": gated,
        "min_speedup": MIN_SPEEDUP,
    }
    out = RESULTS / "BENCH_CLUSTER_SCALE.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))

    if not deterministic:
        print("DETERMINISM VIOLATION: workers=1 and workers=4 produced "
              "different ClusterResult payloads", file=sys.stderr)
        return 1
    if gated and speedup < MIN_SPEEDUP:
        print(f"cluster speedup {speedup:.2f}x < {MIN_SPEEDUP}x on a "
              f"{cores}-core host", file=sys.stderr)
        return 1
    if not gated:
        print(f"(speedup gate skipped: only {cores} CPU(s) -- recorded "
              f"{speedup:.2f}x for the trajectory)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
