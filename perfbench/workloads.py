"""The four benchmark workloads: inputs built from a seed, one job each,
and the correctness gate every job passes.

A job is closed and runs to completion: it is handed a config built
here and nothing else, and the program runs at its own defaults (no
scheduler, recycling, telemetry or check knob is set).  Parallel jobs
use exactly :data:`PROCS` processes.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro
from repro import (Axis, ClusterConfig, FabricConfig, FaultSchedule,
                   RunOptions, ScenarioConfig, SweepSpec)

#: Worker processes of the parallel workloads: the two CPUs of the
#: reference machine.  Fixed, never resolved from ``os.cpu_count()``.
PROCS = 2


def sub_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th distinct job of a run made with ``--seed``."""
    digest = hashlib.sha256(f"perfbench|{seed}|{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


def payload_digest(payload) -> str:
    """sha256 of the canonical JSON of a result payload."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def cpu_seconds() -> float:
    """User + system CPU of this process and every reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Bracket:
    """Wall and CPU time of the top-level calls of one job.

    Enter it around each top-level call; ``profile`` (a
    ``cProfile.Profile``) is enabled only inside the bracket, so the
    checks a job runs afterwards are neither timed nor profiled.
    """

    def __init__(self, profile=None) -> None:
        self.profile = profile
        self.segments: List[float] = []
        self.cpu = 0.0

    @property
    def wall(self) -> float:
        return sum(self.segments)

    def __enter__(self) -> "Bracket":
        self._cpu0 = cpu_seconds()
        if self.profile is not None:
            self.profile.enable()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        t1 = time.perf_counter()
        if self.profile is not None:
            self.profile.disable()
        self.segments.append(t1 - self._t0)
        self.cpu += cpu_seconds() - self._cpu0


@dataclass
class Outcome:
    """What one job produced, and whether it passed the gate."""

    wall: float
    cpu: float
    delivered: int
    offered: int
    digest: str
    #: Summed data-plane counters: ingress, replicas, delivered,
    #: queue_drops, held, envelopes_sent.
    counters: Dict[str, int]
    errors: List[str] = field(default_factory=list)
    #: ``(packets, latency sample)`` per host; the sample is every
    #: latency or evenly spaced order statistics standing for them.
    latency: List[Tuple[int, np.ndarray]] = field(default_factory=list)
    #: Per-cell p99 (µs) and simulation seconds, and the warm pass's
    #: wall seconds (sweep-8 only).
    cell_p99: List[float] = field(default_factory=list)
    cell_s: List[float] = field(default_factory=list)
    warm_s: float = 0.0


def pooled_p99(parts: Sequence[Tuple[int, np.ndarray]]) -> float:
    """p99 of the union of several hosts' latency samples, each sample
    value weighted by the packets it stands for."""
    values = np.concatenate([np.asarray(v, dtype=np.float64)
                             for _, v in parts])
    weights = np.concatenate([np.full(len(v), n / len(v)) for n, v in parts])
    order = np.argsort(values, kind="stable")
    cum = np.cumsum(weights[order])
    return float(values[order][np.searchsorted(cum, 0.99 * cum[-1])])


def _host_counters(stats: Dict, errors: List[str], where: str) -> Dict:
    """Check one host's packet conservation; return its counters."""
    supplied = stats["ingress"] + stats["replicas"]
    accounted = (stats["delivered"] + stats["suppressed"]
                 + sum(stats["drops"].values()) + stats["nic_drops"]
                 + stats.get("fault_drops", 0) + sum(stats["path_depth"]))
    if supplied != accounted:
        errors.append(f"{where}: ingress+replicas={supplied} but "
                      f"delivered+suppressed+drops+depth={accounted}")
    return {
        "ingress": stats["ingress"],
        "replicas": stats["replicas"],
        "delivered": stats["delivered"],
        "queue_drops": sum(stats["queue_drops"]),
        "held": stats.get("reorder", {}).get("held", 0),
    }


def _sum_counters(parts: List[Dict]) -> Dict:
    out: Dict[str, int] = {}
    for part in parts:
        for key, value in part.items():
            out[key] = out.get(key, 0) + value
    return out


class Workload:
    """One named workload: ``config(seed)`` builds its input,
    ``run(seed, procs, bracket)`` runs one job on it."""

    name = ""
    #: Distinct seeds a measured run covers; the guard metrics are taken
    #: over exactly these jobs, whatever the run length.
    seeds = 1
    #: Layer that runs the job's process pool, when ``procs`` matters.
    pool: Optional[str] = None

    def config(self, seed: int):
        raise NotImplementedError

    def setup_config(self, seed: int) -> Dict:
        """``ScenarioConfig`` dict of the job's first host runtime."""
        raise NotImplementedError

    def run(self, seed: int, procs: int, bracket: Bracket) -> Outcome:
        raise NotImplementedError

    def sim_p99(self, outcomes: Sequence[Outcome]) -> float:
        """Modelled p99 over several jobs: the p99 of all their packets."""
        return pooled_p99([part for out in outcomes for part in out.latency])


class HostWorkload(Workload):
    """One host run through ``repro.run``."""

    def setup_config(self, seed: int) -> Dict:
        return self.config(seed).to_dict()

    def run(self, seed: int, procs: int, bracket: Bracket) -> Outcome:
        cfg = self.config(seed)
        with bracket:
            result = repro.run(cfg)
        payload = result.to_dict()
        errors: List[str] = []
        counters = _host_counters(result.stats, errors, self.name)
        sample = np.array(result.host.sink.recorder.values())
        return Outcome(bracket.wall, bracket.cpu, result.stats["delivered"],
                       result.offered, payload_digest(payload), counters,
                       errors,
                       latency=[(len(sample), sample)])


class HostSteady(HostWorkload):
    name = "host-steady"
    seeds = 16

    def config(self, seed: int) -> ScenarioConfig:
        return ScenarioConfig(policy="adaptive", n_paths=4, traffic="poisson",
                              load=0.7, duration=15_000.0, warmup=1_500.0,
                              drain=5_000.0, seed=seed)


class HostBursty(HostWorkload):
    name = "host-bursty"
    seeds = 12

    def config(self, seed: int) -> ScenarioConfig:
        window = 15_000.0  # traffic duration; fault times are fractions of it
        faults = (FaultSchedule()
                  .degrade(1, at=0.20 * window, duration=0.20 * window,
                           factor=4.0)
                  .hang(2, at=0.45 * window, duration=0.10 * window)
                  .sched_freeze(0, at=0.70 * window, duration=0.05 * window))
        return ScenarioConfig(policy="redundant2", n_paths=4, traffic="onoff",
                              burstiness=4.0, load=0.35, duration=window,
                              warmup=0.1 * window, drain=2_500.0, seed=seed,
                              faults=faults)


class Cluster4h(Workload):
    name = "cluster-4h"
    seeds = 8
    pool = "cluster"

    def config(self, seed: int) -> ClusterConfig:
        host = ScenarioConfig(policy="adaptive", n_paths=4, traffic="poisson",
                              load=0.6, duration=10_000.0, warmup=1_000.0,
                              drain=5_000.0, seed=seed)
        return ClusterConfig.uniform_hosts(4, host,
                                           FabricConfig(steering="ecmp"),
                                           pattern="uniform", seed=seed)

    def setup_config(self, seed: int) -> Dict:
        return self.config(seed).hosts[0].scenario.to_dict()

    def run(self, seed: int, procs: int, bracket: Bracket) -> Outcome:
        cfg = self.config(seed)
        with bracket:
            result = repro.run(cfg, RunOptions(workers=procs))
        errors: List[str] = []
        totals = result.cluster
        if totals["envelopes_sent"] != (totals["envelopes_received"]
                                        + totals["fabric_dropped"]):
            errors.append(f"cluster-4h: envelopes sent "
                          f"{totals['envelopes_sent']} != received "
                          f"{totals['envelopes_received']} + fabric-dropped "
                          f"{totals['fabric_dropped']}")
        counters = _sum_counters([
            _host_counters(h["stats"], errors, f"cluster-4h host{i}")
            for i, h in enumerate(result.hosts)])
        counters["envelopes_sent"] = totals["envelopes_sent"]
        return Outcome(bracket.wall, bracket.cpu, totals["delivered"],
                       totals["offered"], payload_digest(result.to_dict()),
                       counters, errors,
                       latency=[(h["summary"]["count"],
                                 np.array(h["latency_samples"]))
                                for h in result.hosts])


class Sweep8(Workload):
    name = "sweep-8"
    seeds = 12
    pool = "sweep"

    def __init__(self, tmp_root: str) -> None:
        self.tmp_root = tmp_root

    def config(self, seed: int) -> SweepSpec:
        return SweepSpec(
            name="perfbench-sweep-8",
            base={"n_paths": 4, "duration": 4_000.0, "warmup": 400.0,
                  "drain": 1_000.0, "seed": seed},
            axes=[Axis("policy", ["single", "adaptive", "redundant2", "po2"]),
                  Axis("load", [0.4, 0.8])],
        )

    def setup_config(self, seed: int) -> Dict:
        return self.config(seed).expand()[0].config_dict

    def run(self, seed: int, procs: int, bracket: Bracket) -> Outcome:
        spec = self.config(seed)
        cache_dir = tempfile.mkdtemp(prefix="sweep-cache-", dir=self.tmp_root)
        try:
            with bracket:
                cold = repro.run_sweep(spec, jobs=procs, cache_dir=cache_dir)
            with bracket:
                warm = repro.run_sweep(spec, jobs=procs, cache_dir=cache_dir)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        n = spec.n_cells
        errors: List[str] = []
        if cold.cache_misses != n or warm.cache_hits != n:
            errors.append(f"sweep-8: cold pass missed {cold.cache_misses}/{n}"
                          f", warm pass hit {warm.cache_hits}/{n}")
        identity = cold.identity()
        if warm.identity() != identity:
            errors.append("sweep-8: warm pass identity differs from cold")
        counters = _sum_counters([
            _host_counters(c.stats, errors, f"sweep-8 cell{c.index}")
            for c in cold.cells])
        return Outcome(bracket.wall, bracket.cpu,
                       sum(c.delivered for c in cold.cells),
                       sum(c.offered for c in cold.cells),
                       payload_digest(identity), counters, errors,
                       cell_p99=[c.exact["p99"] for c in cold.cells],
                       cell_s=[c.wall_s for c in cold.cells],
                       warm_s=bracket.segments[-1])

    def sim_p99(self, outcomes: Sequence[Outcome]) -> float:
        """Cells keep no latency sample: the median of every cell's p99."""
        return statistics.median(p for out in outcomes for p in out.cell_p99)


def workloads(tmp_root: str) -> Dict[str, Workload]:
    """Every workload by name; sweep caches live under ``tmp_root``."""
    return {w.name: w for w in (HostSteady(), HostBursty(), Cluster4h(),
                                Sweep8(tmp_root))}
