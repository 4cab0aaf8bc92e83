"""Cluster experiments: rack-scale composition of the two multipath layers.

* **C1** (:func:`c1_cluster_scale`): a hosts × load grid under the
  uniform pattern -- every flow picks a destination uniformly over all
  hosts, so ``(N-1)/N`` of traffic crosses the fabric.  Reports the
  cluster-wide tail and the aggregate delivered packet rate, plus the
  envelope accounting that the cross-shard conservation identity makes
  exact.  Expected shape: aggregate pps scales ~linearly with the host
  count at fixed load (hosts are independent last miles), while the
  cluster p99 tracks the single-host p99 at the same load plus the
  fabric's base latency for the remote fraction.
* **C2** (:func:`c2_incast_fanin`): the classic fan-in hotspot --
  every non-target host directs *all* its flows at one target, so the
  target's last mile absorbs ``N-1`` senders' load on top of fabric
  skew.  Compares intra-host policies on the target under identical
  offered load.  Expected shape: the target's tail dominates the
  cluster tail; adaptive multipath absorbs the fan-in at full delivery
  while single-path saturates -- delivery collapses and every
  *surviving* packet pays a nearly-full bounded queue (median within a
  small factor of the tail).  The honest comparison is delivery +
  median, not survivor p99: a policy that drops half the offered load
  has an infinite p99 over *offered* packets however its survivors
  fare -- the paper's last-mile argument, reproduced at rack scale.

Both experiments are cluster-base sweeps (one
:func:`repro.cluster.run_cluster` per cell), so the numbers here are the
same bit-identical payloads the determinism gate checks at ``workers=1``
vs ``workers=4``.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.bench.runner import scaled_duration
from repro.bench.scenarios import ScenarioConfig
from repro.cluster import ClusterConfig
from repro.metrics.report import Table
from repro.net.fabric import FabricConfig
from repro.sweep import Axis, SweepSpec, run_sweep


def _host_template(duration: float, *, policy: str = "adaptive",
                   load: float = 0.6, floor: float = 0.0) -> ScenarioConfig:
    """The per-host scenario every cluster cell shares (heavy chain,
    15% warmup, scaled duration -- the same conventions as the
    single-host figures).  ``floor`` bounds how far ``REPRO_BENCH_SCALE``
    may shrink the horizon, for experiments whose steady state needs a
    minimum measurement window."""
    d = max(scaled_duration(duration), floor)
    return ScenarioConfig(policy=policy, n_paths=4, load=load,
                          duration=d, warmup=0.15 * d)


def _fabric() -> FabricConfig:
    """The rack fabric both experiments use: 4 spines, 50us base wire
    latency (the lookahead), mild skew so spine choice is visible."""
    return FabricConfig(n_spines=4, base_latency=50.0, spine_skew=5.0)


# ----------------------------------------------------------------------
# C1 -- cluster scale: hosts x load -> tail + aggregate pps
# ----------------------------------------------------------------------
def c1_cluster_scale(
    duration: float = 25_000.0,
    hosts=(2, 4, 8),
    loads=(0.4, 0.7),
) -> Tuple[str, Dict]:
    """Cluster-wide tail and aggregate delivered pps, hosts x load.

    Expected shape: delivered pps scales ~linearly with the host count
    at fixed load; the cluster p99 is load-driven, not host-count
    driven; every envelope sent is received (uniform pattern, lossless
    fabric).
    """
    base = ClusterConfig.uniform_hosts(
        hosts[0], _host_template(duration, load=loads[0]), _fabric(),
        pattern="uniform", seed=42,
    )
    sr = run_sweep(SweepSpec(
        name="C1-cluster-scale", base=base.to_dict(),
        axes=[Axis("hosts", list(hosts)), Axis("load", list(loads))],
    ))
    t = Table(
        ["hosts", "load", "delivered", "pps (M/s)", "remote %",
         "p50 (us)", "p99 (us)", "p99.9 (us)"],
        title="C1  cluster scale: uniform pattern, adaptive k=4, "
              "ecmp x4 fabric",
    )
    cells = []
    for n in hosts:
        for load in loads:
            cell = sr.get(hosts=n, load=load)
            c, s = cell.stats, cell.summary  # stats: the cluster totals
            cells.append({
                **c, "hosts": n, "load": load,
                "delivered_pps": cell.delivered_pps,
                "remote_fraction": c["envelopes_sent"] / max(c["offered"], 1),
                "p50": s.p50, "p99": s.p99, "p999": s.p999,
                "wall_s": cell.wall_s,
            })
            t.add_row([n, f"{load:.2f}", c["delivered"],
                       cell.delivered_pps / 1e6,
                       100.0 * c["envelopes_sent"] / max(c["offered"], 1),
                       s.p50, s.p99, s.p999])
    return t.render(), {"hosts": list(hosts), "loads": list(loads),
                        "cells": cells}


# ----------------------------------------------------------------------
# C2 -- incast fan-in: single vs adaptive on the hotspot host
# ----------------------------------------------------------------------
def c2_incast_fanin(
    duration: float = 25_000.0,
    n_hosts: int = 4,
    load: float = 0.15,
    policies=("single", "adaptive"),
) -> Tuple[str, Dict]:
    """Fan-in hotspot: N-1 senders converge on one target host.

    Under the incast pattern all deliveries happen at the target (the
    senders' last miles only transmit), so the target's summary *is*
    the cluster tail.  Per-sender load is chosen so the aggregate
    arriving at the target (N x per-sender load) fits inside its
    four-path capacity but overwhelms any single path: adaptive
    multipath absorbs the fan-in at full delivery, while single-path
    saturates -- delivery collapses and the survivors' whole
    distribution compresses against the bounded-queue sojourn cap (the
    median blows up to within a small factor of the tail, so the
    survivor p99 understates the damage).  Identical offered load in
    both rows; only the last-mile policy differs.

    The horizon is floored at 20 ms regardless of ``REPRO_BENCH_SCALE``:
    the fan-in ramp transient lasts a few ms, and a shorter window
    measures the ramp, not the steady state the claim is about.
    """
    t = Table(
        ["policy", "target p50", "target p99", "target p99.9",
         "delivered", "delivered %"],
        title=f"C2  incast fan-in: {n_hosts - 1} senders -> host0, "
              f"latency (us)",
    )
    base = ClusterConfig.uniform_hosts(
        n_hosts,
        _host_template(duration, policy=policies[0], load=load,
                       floor=20_000.0),
        _fabric(), pattern="incast", incast_target=0, seed=42,
    )
    # The single-path row keeps all four paths: same hosts, other policy.
    sr = run_sweep(SweepSpec(
        name="C2-incast-fanin", base=base.to_dict(),
        axes=[Axis("policy", list(policies))], single_path_baseline=False,
    ))
    cells = []
    for policy in policies:
        cell = sr.get(policy=policy)
        c = cell.stats
        target = c["hosts"][0]["summary"]
        cells.append({
            **c, "policy": policy, "target_p50": target["p50"],
            "target_p99": target["p99"], "target_p999": target["p999"],
            "cluster_p99": cell.summary.p99,
        })
        t.add_row([policy, target["p50"], target["p99"], target["p999"],
                   c["delivered"], 100.0 * c["delivery_ratio"]])
    return t.render(), {"n_hosts": n_hosts, "load": load,
                        "policies": list(policies), "cells": cells}
