"""The cluster engine: an exact two-phase map over hosts.

A host's egress -- every envelope it sends across the fabric -- depends
only on its traffic source and its ``cluster.route``/``cluster.fabric``
RNG streams, never on what it receives: traffic is open loop, and the
fabric is latency plus loss with no shared queue state (the contract
:meth:`HostConfig.validate` enforces).  So :func:`run_cluster` needs no
lockstep between hosts; it runs three steps:

1. **Routing, per host, on the workers, with no simulator.**  Each
   host's source generates its arrival columns and its
   :class:`ClusterRouter` routes them in numpy -- the only time any
   source, router or fabric steering runs.  Every emission is written
   to a per-run temporary directory as envelope columns, one file per
   source->destination pair; a local emission goes to the host's own
   ``h-h`` file.  A vectorized check holds each envelope to
   the lookahead ``arrive_time - send_time >= L``, and the
   ``(send_time, arrive_time)`` of every envelope that can reach the
   run's horizon goes back to the parent.
2. **Grid, in the parent.**  :func:`_drive_epochs` replays the epoch
   schedule over those pairs: epochs of length ``L <=
   fabric.min_latency()`` (the lookahead), with the horizon pushed out
   until every envelope has arrived.  The last epoch end is the run's
   end; the grid also fixes ``sim_time``.
3. **Hosts, per host, on the workers.**  Each host is built in full with
   one ingress stream instead of a source: its local emissions plus the
   envelopes addressed to it, merged in numpy in canonical
   ``(arrive_time, src_host, env_seq)`` order
   (:func:`~repro.dataplane.boundary.host_ingress`) and replayed past
   the host's NIC by the same tick that feeds a standalone host
   (:class:`~repro.net.traffic.Replay`), straight to the run's end.
   Dropped envelopes are counted in bulk.  Packet ids are allocated as
   if the host's source were running: the host's own fabric-bound
   emissions still advance its pid counter
   (:class:`~repro.net.traffic.ReplayFactory`).

Determinism is structural: each host has its own :class:`Simulator`,
RNG registry (seeded by :func:`derived_host_seed`) and packet factory,
so its trajectory is a pure function of its derived seed and the
envelopes addressed to it.  ``workers=1`` runs the same steps inline;
the worker count only changes which process simulates a host.
``tests/test_cluster.py`` pins workers=1 vs workers=4 bit-identity of
the full :class:`ClusterResult` payload.
"""

from __future__ import annotations

import functools
import os
import shutil
import tempfile
import time as _time
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..bench import scenarios
from ..bench.scenarios import (ScenarioConfig, build_runtime,
                               prime_capacity_cache)
from ..dataplane.boundary import IngressReplay, host_ingress
from ..sim.engine import warn_scheduler_ignored
from ..sim.errors import SimulationError
from ..sim.rng import RngRegistry
from ..sweep.pool import TaskFailed, TaskPool, resolve_processes
from .config import ClusterConfig, derived_host_seed
from .result import ClusterResult, merge_summaries, retained_samples
from .router import ClusterRouter, host_router_stats

#: Phase-1 output for one host: the ``(send_time, arrive_time)`` of
#: each envelope that can reach the horizon (see :func:`_phase1`), and
#: the router's counters (:meth:`ClusterRouter.stats`).
Egress = Tuple[List[Tuple[float, float]], Dict]


def resolve_workers(workers: Optional[int], n_hosts: int) -> int:
    """Worker count: the sweep orchestrator's rules
    (:func:`~repro.sweep.pool.resolve_processes`) over the hosts, with
    ``REPRO_CLUSTER_WORKERS`` as the environment default."""
    return resolve_processes(workers, n_hosts, "REPRO_CLUSTER_WORKERS")


def partition_hosts(n_hosts: int, workers: int) -> List[List[int]]:
    """Contiguous balanced shards: host ids per worker, no gaps."""
    base, extra = divmod(n_hosts, workers)
    shards, start = [], 0
    for w in range(workers):
        size = base + (1 if w < extra else 0)
        shards.append(list(range(start, start + size)))
        start += size
    return [s for s in shards if s]


def _host_scenario(cluster: ClusterConfig, hid: int) -> ScenarioConfig:
    """Canonical per-host copy of the scenario, with the derived seed."""
    scenario = cluster.hosts[hid].scenario
    scen = ScenarioConfig.from_dict(scenario.to_dict())
    scen.seed = derived_host_seed(cluster.seed, hid, scenario.seed)
    return scen


def _egress_path(egress_dir: str, src: int, dst: int) -> str:
    return os.path.join(egress_dir, f"{src}-{dst}.env")


def _phase1(cluster: ClusterConfig, host_ids: Iterable[int],
            egress_dir: str) -> Dict[int, Egress]:
    """Generate and route each host's traffic, with no simulator; append
    its rows to the egress files chunk by chunk.

    Only envelopes with ``arrive_time + L >= cluster.horizon()`` report
    their times.  The epoch grid reads an epoch's latest arrival only to
    push the horizon out (``latest + L > horizon``) and, once an epoch
    ends at or past the horizon, to see whether it sent anything; such
    an envelope arrives at or past the horizon, since the fabric's
    latency is at least ``L``.  The horizon never falls below
    ``cluster.horizon()``, so no other envelope can change the grid.
    Local rows never reach the grid.
    """
    L, horizon = cluster.epoch_length(), cluster.horizon()
    out: Dict[int, Egress] = {}
    for hid in host_ids:
        scenario = _host_scenario(cluster, hid)
        rngs = RngRegistry(seed=scenario.seed)
        src = scenarios._make_source(None, None, rngs, scenario, None, None)
        router = ClusterRouter(hid, cluster.n_hosts, cluster.pattern,
                               cluster.incast_target, cluster.fabric, src,
                               rngs)
        late: List[Tuple[float, float]] = []
        for times, flows, seqs, sizes, _ in src.chunks(0.0):
            src.stats.packets += len(times)
            for dst, cols in router.route(times, flows, seqs, sizes).items():
                with open(_egress_path(egress_dir, hid, dst), "ab") as fh:
                    cols.tofile(fh)
                if dst == hid:
                    continue
                _check_lookahead(cols, L)
                tail = cols[cols["arrive_time"] + L >= horizon]
                late.extend(zip(tail["send_time"].tolist(),
                                tail["arrive_time"].tolist()))
        out[hid] = (late, router.stats())
    return out


def _check_lookahead(cols: np.ndarray, L: float) -> None:
    """Raise unless every envelope arrives at least ``L`` after it was
    sent: the epoch grid is a lockstep only under that bound."""
    bad = np.flatnonzero(cols["arrive_time"] < cols["send_time"] + L)
    if len(bad):
        env = cols[bad[0]]
        raise SimulationError(
            f"envelope {int(env['env_seq'])} from host "
            f"{int(env['src_host'])} to host {int(env['dst_host'])} "
            f"arrives {float(env['arrive_time'] - env['send_time'])}µs "
            f"after it was sent, under the {L}µs lookahead: the fabric's "
            f"latency must be at least the epoch length")


def _run_end(config: ClusterConfig, egress: Dict[int, Egress]) -> float:
    """The last epoch end a lockstep over this egress would step to."""
    late = sorted(pair for e in egress.values() for pair in e[0])
    sends = [send for send, _ in late]
    last = [0.0]

    def step(end: float, start: float) -> Optional[float]:
        lo, hi = bisect_left(sends, start), bisect_left(sends, end)
        last[0] = end
        return max(arrive for _, arrive in late[lo:hi]) if hi > lo else None

    _drive_epochs(config, step)
    return last[0]


def _host_ingress(cluster: ClusterConfig, hid: int, egress_dir: str,
                  offered: int) -> IngressReplay:
    """Merge every row addressed to ``hid`` (:func:`host_ingress`)."""
    hosts = range(cluster.n_hosts)
    return host_ingress(
        [_egress_path(egress_dir, src, hid) for src in hosts],
        [_egress_path(egress_dir, hid, dst) for dst in hosts if dst != hid],
        hid, offered)


def _phase2(cluster: ClusterConfig, host_ids: Iterable[int], end: float,
            counts: Dict[int, Dict], egress_dir: str,
            opts: Dict) -> Dict[int, Dict]:
    """Simulate each host in full against its ingress, up to ``end``;
    return payloads.

    ``counts`` holds each host's phase-1 :meth:`ClusterRouter.stats`.
    """
    payloads: Dict[int, Dict] = {}
    telemetry_dir = opts["telemetry_dir"]
    for hid in host_ids:
        tel = None
        if telemetry_dir is not None:
            from repro.obs import Telemetry

            tel = Telemetry()
        rt = build_runtime(_host_scenario(cluster, hid), telemetry=tel,
                           check=opts["check"], recycle=opts["recycle"],
                           forensics=opts["forensics"],
                           ingress=_host_ingress(cluster, hid, egress_dir,
                                                 counts[hid]["generated"]))
        rt.start()
        rt.sim.run(until=end)

        result = rt.finalize()
        payload = result.to_dict()
        payload["host_id"] = hid
        payload["name"] = cluster.hosts[hid].name or f"host{hid}"
        payload["router"] = host_router_stats(counts[hid], rt.src)
        payload["latency_samples"] = retained_samples(
            result.host.sink.recorder.values()
        )
        if telemetry_dir is not None and result.telemetry is not None:
            result.telemetry.export(
                os.path.join(telemetry_dir, f"host{hid}")
            )
        payloads[hid] = payload
    return payloads


class ClusterExecutionError(RuntimeError):
    """A cluster worker failed or died; the message names the phase, the
    worker's hosts, and the worker's error or exit code."""


def run_cluster(config: ClusterConfig,
                workers: Optional[int] = None,
                *,
                telemetry_dir: Optional[str] = None,
                check=None,
                forensics=None,
                recycle: bool = True,
                scheduler: Optional[str] = None) -> ClusterResult:
    """Run a cluster scenario, its hosts spread over worker processes.

    Parameters
    ----------
    config:
        The cluster to simulate (validated up front).
    workers:
        Worker processes (see :func:`resolve_workers`); each takes one
        contiguous shard of hosts (:func:`partition_hosts`).  ``1`` runs
        both phases inline.
    telemetry_dir:
        When given, each host runs instrumented and exports its bundle
        to ``<telemetry_dir>/host<k>/``, with one cluster-level
        provenance ``manifest.json`` on top.
    check:
        Arm the per-host invariant engine (``True`` or a ``CheckSpec``)
        *plus* the cross-host conservation check
        (:func:`repro.check.cluster.check_cluster_conservation`), which
        raises on any unaccounted envelope.
    forensics:
        Arm per-host tail attribution (``True`` or a ``ForensicsSpec``);
        reports land in each host's payload (and bundle).
    scheduler:
        Deprecated and ignored; a non-None value warns once per process.

    Returns
    -------
    ClusterResult
        Per-host payloads plus cluster-wide summaries.  The serialized
        payload is a pure function of ``config`` -- never of
        ``workers`` or the observation knobs' wall-clock effects.
    """
    if scheduler is not None:
        warn_scheduler_ignored()
    config.validate()
    wall_start = _time.perf_counter()
    n_hosts = config.n_hosts
    workers = resolve_workers(workers, n_hosts)
    shards = partition_hosts(n_hosts, workers)
    opts = {"telemetry_dir": telemetry_dir, "check": check,
            "forensics": forensics, "recycle": recycle}

    egress_dir = tempfile.mkdtemp(prefix="repro-cluster-")
    try:
        if len(shards) == 1:
            egress = _phase1(config, range(n_hosts), egress_dir)
            end = _run_end(config, egress)
            counts = {hid: e[1] for hid, e in egress.items()}
            payloads = _phase2(config, range(n_hosts), end, counts,
                               egress_dir, opts)
        else:
            payloads = _map_pool(config, shards, egress_dir, opts)
    finally:
        shutil.rmtree(egress_dir, ignore_errors=True)

    hosts = [payloads[hid] for hid in range(n_hosts)]
    result = ClusterResult(
        config=config,
        hosts=hosts,
        summary=merge_summaries([h["summary"] for h in hosts],
                                [h["latency_samples"] for h in hosts]),
        cluster=_cluster_totals(config, hosts),
        sim_time=float(hosts[0]["sim_time"]) if hosts else 0.0,
        workers=workers,
        wall_s=_time.perf_counter() - wall_start,
    )
    if check is not None and check is not False:
        from repro.check.cluster import check_cluster_conservation

        report = check_cluster_conservation(result)
        result.cluster["conservation"] = report
        if not report["ok"]:
            from repro.check.invariants import InvariantViolation

            raise InvariantViolation(
                "cross-shard conservation violated: "
                + "; ".join(report["violations"][:5])
            )
    if telemetry_dir is not None:
        _write_cluster_manifest(config, result, telemetry_dir)
    return result


def _drive_epochs(config: ClusterConfig, step_fn) -> None:
    """The epoch schedule and its horizon rule, in one place.

    ``step_fn(end, start) -> latest`` is called once per epoch
    ``[start, end)``, in order.  ``latest`` is the latest
    ``arrive_time`` among the envelopes sent during the epoch, ``None``
    when there were none.  The horizon starts at the nominal run end and
    is pushed out whenever an envelope's arrival (plus one epoch of
    settling) falls beyond it, so every envelope is delivered and
    accounted before the run closes -- the cross-host conservation
    identity is exact, not best-effort.
    """
    L = config.epoch_length()
    horizon = config.horizon()
    t = 0.0
    latest = None
    while t < horizon or latest is not None:
        end = min(t + L, horizon) if t < horizon else t + L
        latest = step_fn(end, t)
        if latest is not None and latest + L > horizon:
            horizon = latest + L
        t = end


def _shard_task(cluster_dict: Dict, egress_dir: str, opts: Dict,
                task: Tuple):
    """Pool task body: ``(1, host_ids)`` or ``(2, host_ids, end,
    counts)`` runs that phase for one shard."""
    cluster = ClusterConfig.from_dict(cluster_dict)
    if task[0] == 1:
        return _phase1(cluster, task[1], egress_dir)
    return _phase2(cluster, task[1], task[2], task[3], egress_dir, opts)


def _map_pool(config: ClusterConfig, shards: List[List[int]],
              egress_dir: str, opts: Dict) -> Dict[int, Dict]:
    # Workers fork with the calibration cache warm.
    prime_capacity_cache(h.scenario for h in config.hosts)
    task = functools.partial(_shard_task, config.to_dict(), egress_dir, opts)
    phase = 1
    try:
        with TaskPool(task, len(shards)) as pool:
            egress: Dict[int, Egress] = {}
            for _, part in pool.imap_unordered([(1, ids) for ids in shards]):
                egress.update(part)
            end = _run_end(config, egress)
            phase = 2
            payloads: Dict[int, Dict] = {}
            for _, part in pool.imap_unordered([
                    (2, ids, end, {hid: egress[hid][1] for hid in ids})
                    for ids in shards]):
                payloads.update(part)
            return payloads
    except TaskFailed as exc:
        who = f"cluster worker for hosts {shards[exc.index]}"
        if exc.error is not None:
            raise ClusterExecutionError(
                f"{who} failed in phase {phase}: "
                f"{type(exc.error).__name__}: {exc.error}") from exc.error
        raise ClusterExecutionError(
            f"{who} died in phase {phase} (exit code {exc.exitcode})"
        ) from None


def _cluster_totals(config: ClusterConfig, hosts: List[Dict]) -> Dict:
    """Cluster-level accounting over the per-host payloads."""
    offered = sum(h["offered"] for h in hosts)
    delivered = sum(h["delivered"] for h in hosts)
    local = sum(h["router"]["local"] for h in hosts)
    sent = sum(sum(h["router"]["sent"].values()) for h in hosts)
    received = sum(sum(h["router"]["received"].values()) for h in hosts)
    dropped = sum(sum(h["router"]["fabric_dropped"].values()) for h in hosts)
    return {
        "n_hosts": len(hosts),
        "pattern": config.pattern,
        "epoch_us": config.epoch_length(),
        "offered": offered,
        "delivered": delivered,
        "delivery_ratio": (delivered / offered) if offered else 0.0,
        "local": local,
        "envelopes_sent": sent,
        "envelopes_received": received,
        "fabric_dropped": dropped,
    }


def _write_cluster_manifest(config: ClusterConfig, result: ClusterResult,
                            telemetry_dir: str) -> None:
    """One provenance manifest covering every per-host bundle."""
    import hashlib
    import json

    from repro.obs.manifest import git_commit

    os.makedirs(telemetry_dir, exist_ok=True)
    config_json = json.dumps(config.to_dict(), sort_keys=True)
    manifest = {
        "kind": "cluster_bundle",
        "n_hosts": config.n_hosts,
        "hosts": [f"host{hid}" for hid in range(config.n_hosts)],
        "seed": config.seed,
        "config_sha256": hashlib.sha256(config_json.encode()).hexdigest(),
        "git_commit": git_commit(),
        "workers": result.workers,
        "wall_s": result.wall_s,
        "sim_time": result.sim_time,
    }
    with open(os.path.join(telemetry_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
