"""The spatially-sharded parallel discrete-event engine.

:func:`run_cluster` partitions a :class:`ClusterConfig`'s hosts into
contiguous shards, one shard per worker process, and synchronizes them
with **conservative barrier epochs**: the global timeline is cut into
epochs of length ``L <= fabric.min_latency()`` (the lookahead), every
shard independently simulates ``[T, T + L)``, and cross-host packet
envelopes are exchanged at the barrier.  Because the fabric's latency
model is bounded below by ``L`` (see :mod:`repro.net.fabric`), an
envelope emitted during an epoch can only arrive in a *later* epoch --
so no shard can ever receive an event for simulated time it has already
passed, and no rollbacks or null messages are needed beyond the barrier
itself.

Determinism is structural, not incidental:

* each host is its own logical process -- own :class:`Simulator`, own
  RNG registry (seeded by :func:`derived_host_seed`), own packet
  factory -- so a host's trajectory is a pure function of its derived
  seed and the envelopes it receives;
* incoming envelopes are injected in the canonical order
  ``(arrive_time, src_host, env_seq)`` whatever order shards produced
  them in -- the receiving shard sorts its own arrivals, and since the
  key is unique that is the order a global sort would give;
* ``workers=1`` runs the *same* epoch loop inline -- worker count only
  changes which OS process executes a host, never what the host
  computes.  ``tests/test_cluster.py`` pins workers=1 vs workers=4
  bit-identity of the full :class:`ClusterResult` payload.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time as _time
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from ..bench.scenarios import ScenarioConfig, build_runtime
from ..dataplane.boundary import ARRIVE_IDX, SEQ_IDX, SRC_IDX
from ..sim.engine import warn_scheduler_ignored
from .config import ClusterConfig, derived_host_seed
from .result import ClusterResult, merge_summaries, retained_samples
from .router import ClusterRouter

#: Canonical injection order for envelopes arriving at one host.
_envelope_key = itemgetter(ARRIVE_IDX, SRC_IDX, SEQ_IDX)
_arrive_time = itemgetter(ARRIVE_IDX)

#: One shard's egress for one destination shard: destination host ->
#: envelopes.  Lists are in emission order per source host, not sorted.
Bucket = Dict[int, List[Tuple]]


def resolve_workers(workers: Optional[int], n_hosts: int) -> int:
    """Worker-count resolution, mirroring the sweep orchestrator rules.

    Explicit argument wins; else the ``REPRO_CLUSTER_WORKERS`` env var;
    else ``min(n_hosts, cpu_count)``.  Nested inside a daemonized pool
    worker the count is forced to 1 (no grandchild processes).
    """
    if workers is None:
        env = os.environ.get("REPRO_CLUSTER_WORKERS")
        if env is not None:
            try:
                workers = int(env)
            except ValueError:
                raise ValueError(
                    f"REPRO_CLUSTER_WORKERS must be an int, got {env!r}"
                ) from None
    if workers is None or workers <= 0:
        workers = min(n_hosts, os.cpu_count() or 1) or 1
    if multiprocessing.current_process().daemon:
        return 1  # nested inside a pool worker: no grandchild processes
    return max(1, min(workers, n_hosts or 1))


def partition_hosts(n_hosts: int, workers: int) -> List[List[int]]:
    """Contiguous balanced shards: host ids per worker, no gaps."""
    base, extra = divmod(n_hosts, workers)
    shards, start = [], 0
    for w in range(workers):
        size = base + (1 if w < extra else 0)
        shards.append(list(range(start, start + size)))
        start += size
    return [s for s in shards if s]


class _Shard:
    """One shard: a set of host logical processes in one OS process."""

    def __init__(self, cluster: ClusterConfig, host_ids: Sequence[int],
                 shard_of_host: Sequence[int], *, telemetry: bool = False,
                 check=None, forensics=None, recycle: bool = True) -> None:
        self.cluster = cluster
        self.host_ids = list(host_ids)
        #: Shard index of every host in the cluster (egress bucketing).
        self.shard_of_host = list(shard_of_host)
        self.n_shards = max(self.shard_of_host) + 1
        self.telemetry = telemetry
        self.runtimes: Dict[int, object] = {}
        self.routers: Dict[int, ClusterRouter] = {}
        n = cluster.n_hosts
        for hid in self.host_ids:
            hcfg = cluster.hosts[hid]
            # Canonical per-host copy (same object graph a worker gets
            # after crossing a process boundary) with the derived seed.
            scen = ScenarioConfig.from_dict(hcfg.scenario.to_dict())
            scen.seed = derived_host_seed(cluster.seed, hid,
                                          hcfg.scenario.seed)
            router = ClusterRouter(hid, n, cluster.pattern,
                                   cluster.incast_target, cluster.fabric)
            tel = None
            if telemetry:
                from repro.obs import Telemetry

                tel = Telemetry()
            rt = build_runtime(scen, telemetry=tel, check=check,
                               recycle=recycle, forensics=forensics,
                               sink=router)
            router.bind(rt)
            rt.start()
            self.runtimes[hid] = rt
            self.routers[hid] = router

    def run_epoch(self, end: float, incoming: Sequence[Bucket]
                  ) -> Tuple[Optional[float], List[Bucket]]:
        """Deliver ``incoming``, then advance every host to ``end``.

        ``incoming`` holds the buckets addressed to this shard at the
        last barrier, one per sending shard, in any order.  Each host's
        arrivals are sorted into canonical order here and injected in
        one pass.  Returns the latest ``arrive_time`` emitted during the
        epoch (``None`` when nothing crossed the fabric) and this
        epoch's egress as one bucket per destination shard.
        """
        arrivals: Bucket = {}
        for bucket in incoming:
            for hid, envs in bucket.items():
                got = arrivals.get(hid)
                if got is None:
                    arrivals[hid] = envs
                else:
                    got.extend(envs)
        routers = self.routers
        for hid, envs in arrivals.items():
            envs.sort(key=_envelope_key)
            routers[hid].inject(envs)

        shard_of_host = self.shard_of_host
        buckets: List[Bucket] = [{} for _ in range(self.n_shards)]
        latest = None
        for hid in self.host_ids:
            self.runtimes[hid].sim.run_epoch(end)
            router = routers[hid]
            if not router.outgoing:
                continue
            out, router.outgoing = router.outgoing, {}
            for dst, envs in out.items():
                bucket = buckets[shard_of_host[dst]]
                got = bucket.get(dst)
                if got is None:
                    bucket[dst] = envs
                else:
                    got.extend(envs)
                arrive = max(map(_arrive_time, envs))
                if latest is None or arrive > latest:
                    latest = arrive
        return latest, buckets

    def finalize(self, telemetry_dir: Optional[str] = None) -> Dict[int, Dict]:
        """Finalize every host; return per-host payload dicts."""
        payloads: Dict[int, Dict] = {}
        for hid in self.host_ids:
            rt = self.runtimes[hid]
            result = rt.finalize()
            payload = result.to_dict()
            payload["host_id"] = hid
            payload["name"] = self.cluster.hosts[hid].name or f"host{hid}"
            payload["router"] = self.routers[hid].stats()
            payload["latency_samples"] = retained_samples(
                result.host.sink.recorder.values()
            )
            if telemetry_dir is not None and result.telemetry is not None:
                result.telemetry.export(
                    os.path.join(telemetry_dir, f"host{hid}")
                )
            payloads[hid] = payload
        return payloads


def _worker_main(conn, cluster_dict: Dict, host_ids: List[int],
                 shard_of_host: List[int], opts: Dict) -> None:
    """Worker process body: build the shard, serve epoch/finalize requests.

    Epoch traffic is bytes both ways: each bucket arrives and leaves
    pickled once, so the parent forwards blobs without opening them.
    """
    try:
        shard = _Shard(ClusterConfig.from_dict(cluster_dict), host_ids,
                       shard_of_host,
                       telemetry=opts.get("telemetry", False),
                       check=opts.get("check"),
                       forensics=opts.get("forensics"),
                       recycle=opts.get("recycle", True))
        loads, dumps = pickle.loads, pickle.dumps
        protocol = pickle.HIGHEST_PROTOCOL
        while True:
            msg = conn.recv()
            tag = msg[0]
            if tag == "epoch":
                latest, buckets = shard.run_epoch(
                    msg[1], [loads(blob) for blob in msg[2]])
                blobs = [dumps(b, protocol) if b else None for b in buckets]
                conn.send(("out", (latest, blobs)))
            elif tag == "finalize":
                conn.send(("done", shard.finalize(msg[1])))
                return
            elif tag == "stop":
                return
    except EOFError:  # parent died; exit quietly
        return
    except BaseException as exc:  # surface worker failures to the parent
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except OSError:
            pass
        raise
    finally:
        conn.close()


class ClusterExecutionError(RuntimeError):
    """A shard worker failed or died; the message names the shard, its
    hosts and the epoch, plus the worker's error or exit code."""


def _shard_name(si: int, shards: List[List[int]]) -> str:
    return f"cluster worker for shard {si} (hosts {shards[si]})"


def run_cluster(config: ClusterConfig,
                workers: Optional[int] = None,
                *,
                telemetry_dir: Optional[str] = None,
                check=None,
                forensics=None,
                recycle: bool = True,
                scheduler: Optional[str] = None) -> ClusterResult:
    """Run a cluster scenario across a sharded worker pool.

    Parameters
    ----------
    config:
        The cluster to simulate (validated up front).
    workers:
        Worker processes (see :func:`resolve_workers`); ``1`` runs every
        shard inline through the identical epoch loop.
    telemetry_dir:
        When given, each host runs instrumented and exports its bundle
        to ``<telemetry_dir>/host<k>/``, with one cluster-level
        provenance ``manifest.json`` on top.
    check:
        Arm the per-host invariant engine (``True`` or a ``CheckSpec``)
        *plus* the cross-shard conservation check
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
    opts = {"telemetry": telemetry_dir is not None, "check": check,
            "forensics": forensics, "recycle": recycle}

    if len(shards) == 1:
        shard = _Shard(config, shards[0], [0] * n_hosts,
                       telemetry=opts["telemetry"], check=check,
                       forensics=forensics, recycle=recycle)
        payloads = _drive_inline(config, shard, telemetry_dir)
    else:
        payloads = _drive_pool(config, shards, opts, telemetry_dir)

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
    """Shared barrier loop: epoch schedule + horizon extension.

    ``step_fn(end, incoming) -> (latest, outgoing)`` advances every
    shard to ``end``.  ``incoming`` is the ``outgoing`` the previous
    step returned (``None`` before the first epoch): the envelopes
    emitted during the last epoch, in whatever form the step forwards
    them.  ``latest`` is the latest ``arrive_time`` among the envelopes
    emitted during this epoch, ``None`` when there were none.  The
    horizon starts at the nominal run end and is pushed out whenever an
    envelope's arrival (plus one epoch of settling) falls beyond it, so
    every envelope is delivered and accounted before the run closes --
    the cross-shard conservation identity is exact, not best-effort.
    """
    L = config.epoch_length()
    horizon = config.horizon()
    t = 0.0
    in_flight = None
    latest = None
    while t < horizon or latest is not None:
        end = min(t + L, horizon) if t < horizon else t + L
        latest, in_flight = step_fn(end, in_flight)
        if latest is not None and latest + L > horizon:
            horizon = latest + L
        t = end


def _drive_inline(config: ClusterConfig, shard: _Shard,
                  telemetry_dir: Optional[str]) -> Dict[int, Dict]:
    def step(end: float, incoming: Optional[List[Bucket]]):
        return shard.run_epoch(end, incoming or ())

    _drive_epochs(config, step)
    return shard.finalize(telemetry_dir)


def _drive_pool(config: ClusterConfig, shards: List[List[int]],
                opts: Dict, telemetry_dir: Optional[str]) -> Dict[int, Dict]:
    # Fork is preferred (cheap, inherits the warm capacity-calibration
    # cache); spawn works too since the worker body is importable.
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context(
        "fork" if "fork" in methods else None
    )
    shard_of_host = [0] * config.n_hosts
    for si, ids in enumerate(shards):
        for hid in ids:
            shard_of_host[hid] = si
    cluster_dict = config.to_dict()
    conns, procs = [], []
    try:
        for ids in shards:
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, cluster_dict, ids, shard_of_host, opts),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            conns.append(parent_conn)
            procs.append(proc)

        def send(si: int, msg: Tuple, when: str) -> None:
            try:
                conns[si].send(msg)
            except OSError:  # broken pipe: the worker is gone
                raise lost(si, when) from None

        def recv(si: int, when: str):
            try:
                tag, payload = conns[si].recv()
            except (EOFError, OSError):
                raise lost(si, when) from None
            if tag == "error":
                raise ClusterExecutionError(
                    f"{_shard_name(si, shards)} failed {when}: {payload}")
            return payload

        def lost(si: int, when: str) -> ClusterExecutionError:
            procs[si].join(timeout=5)
            return ClusterExecutionError(
                f"{_shard_name(si, shards)} died {when} "
                f"(exit code {procs[si].exitcode})")

        def step(end: float, incoming: Optional[List[List[bytes]]]):
            # Buckets cross the parent as pickled blobs, never opened.
            when = f"in the epoch ending at t={end:.3f}us"
            for si in range(len(shards)):
                send(si, ("epoch", end, incoming[si] if incoming else []),
                     when)
            outgoing: List[List[bytes]] = [[] for _ in shards]
            latest = None
            for si in range(len(shards)):
                shard_latest, blobs = recv(si, when)
                for dst, blob in enumerate(blobs):
                    if blob is not None:
                        outgoing[dst].append(blob)
                if shard_latest is not None and (
                        latest is None or shard_latest > latest):
                    latest = shard_latest
            return latest, outgoing

        _drive_epochs(config, step)

        payloads: Dict[int, Dict] = {}
        for si in range(len(shards)):
            send(si, ("finalize", telemetry_dir), "while finalizing")
        for si in range(len(shards)):
            payloads.update(recv(si, "while finalizing"))
        return payloads
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            proc.join(timeout=30)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join(timeout=5)


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
