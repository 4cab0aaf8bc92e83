#!/usr/bin/env python3
"""Repository benchmark: simulator throughput end to end, and the cost of
each layer of the simulator in a separate traced run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload host-steady --seed 1 --seconds 20 --trace 0

Workloads: ``host-steady``, ``host-bursty``, ``cluster-4h``, ``sweep-8``
(see perfbench/README.md).  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it are a record of the host and the run.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Environment knobs the program reads; cleared (and recorded) before
#: ``repro`` is imported so every run sees the program's defaults.
REPRO_ENV = {k: os.environ.pop(k) for k in sorted(os.environ)
             if k.startswith("REPRO_")}

#: ``setup_s`` samples per measured run, taken between jobs and spread
#: evenly over the run, so they see the same machine as the timed jobs.
SETUP_SAMPLES = 7

SETUP_CODE = """\
import json, sys, time
t0 = time.perf_counter()
import repro
from repro.bench.scenarios import build_runtime
build_runtime(repro.ScenarioConfig.from_dict(json.loads(sys.argv[1])))
print(time.perf_counter() - t0)
"""

E2E_UNITS = {"pps": "pkt/s", "cpu_s_per_mpkt": "s", "setup_s": "s",
             "peak_rss_mb": "MiB", "sim_p99_us": "us", "sim_delivery": "ratio"}


def _import_program():
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no program sources at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))


def fingerprint() -> dict:
    import numpy

    from repro.obs.manifest import git_commit
    from repro.sweep.cache import code_fingerprint

    # The commit is the checkout's own, or none: git must not report a
    # repository that merely contains the checkout.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)

    return {
        "loadavg_before": list(os.getloadavg()),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "code_fingerprint": code_fingerprint(),
        "repro_env_cleared": REPRO_ENV,
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def setup_sample(workload, seed: int) -> float:
    """Seconds a fresh interpreter takes to import repro and build the
    job's first host runtime, capacity calibration included."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE,
         json.dumps(workload.setup_config(seed))],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


class Gate:
    """Counts jobs and failures; every job passes through :meth:`check`."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def check(self, outcome, expect_digest=None) -> None:
        self.attempted += 1
        errors = list(outcome.errors)
        if outcome.delivered < 1:
            errors.append("no packet delivered")
        if expect_digest is not None and outcome.digest != expect_digest:
            errors.append(f"payload digest {outcome.digest[:16]} differs "
                          f"from {expect_digest[:16]} at the same seed")
        if errors:
            self.failed += 1
            self.errors.extend(errors)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


def measured_run(workload, seed: int, seconds: float, gate: Gate):
    """End-to-end metrics: jobs on sub-seeds 0..K-1, then more jobs cycling
    over them until ``seconds`` have been measured.  The first job warms
    the process up and is not timed; a repeated sub-seed must reproduce
    its payload digest."""
    from workloads import PROCS, Bracket, payload_digest, sub_seed

    setup = []
    k = workload.seeds
    digests, first = {}, []
    pps, cpu_per_mpkt = [], []
    start = None
    job = 0
    while job < k or time.perf_counter() - start < seconds:
        out = workload.run(sub_seed(seed, job % k), PROCS, Bracket())
        gate.check(out, digests.get(job % k))
        if job < k:
            digests[job] = out.digest
            first.append(out)
        if job == 0:
            start = time.perf_counter()
        else:
            pps.append(out.delivered / out.wall)
            cpu_per_mpkt.append(out.cpu / out.delivered * 1e6)
        if time.perf_counter() - start >= len(setup) * seconds / SETUP_SAMPLES:
            setup.append(setup_sample(workload, seed))
        job += 1
    metrics = {
        "pps": statistics.median(pps),
        "cpu_s_per_mpkt": statistics.median(cpu_per_mpkt),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(),
        "sim_p99_us": workload.sim_p99(first),
        "sim_delivery": (sum(o.delivered for o in first)
                         / sum(o.offered for o in first)),
    }
    record = {"timed_jobs": len(pps), "seeds": k,
              "digest": payload_digest([digests[i] for i in range(k)]),
              "setup_samples_s": setup, "pps_samples": pps}
    return metrics, record


def traced_run(workload, seed: int, gate: Gate):
    """Per-layer metrics from separate runs of the sub-seed-0 job (see
    perfbench/README.md)."""
    import cProfile
    import pstats

    from layers import LAYERS, Spans, check_layer_map, fold_profile
    from workloads import PROCS, Bracket, sub_seed

    check_layer_map()
    s0 = sub_seed(seed, 0)
    warm = workload.run(s0, PROCS, Bracket())          # caches, bytecode
    gate.check(warm)
    with Spans() as par_spans:                          # as measured
        par = workload.run(s0, PROCS, Bracket())
    gate.check(par, warm.digest)
    if workload.pool:                                   # same job inline
        with Spans() as inl_spans:
            inline = workload.run(s0, 1, Bracket())
        gate.check(inline, warm.digest)
    else:
        inline, inl_spans = par, par_spans
    traced = []
    for _ in range(2):
        profile = cProfile.Profile()
        with Spans() as spans:
            out = workload.run(s0, 1, Bracket(profile))
        gate.check(out, warm.digest)
        traced.append((out, spans, fold_profile(pstats.Stats(profile).stats)))

    out, spans, folded = traced[0]
    counts = [({lay: f[lay]["calls"] for lay in LAYERS}, sp.events,
               len(sp.epoch_ms), o.counters.get("envelopes_sent", 0))
              for o, sp, f in traced]
    if counts[0] != counts[1]:
        gate.fail("count metrics differ between two traced runs")
    if len(par_spans.epoch_ms) != counts[0][2]:
        gate.fail("epoch count differs between 1 and 2 workers")

    n = out.delivered
    m = {}
    for lay in LAYERS:
        m[f"{lay}.self_ns_per_pkt"] = (folded[lay]["self_s"] * 1e9 / n, "ns/pkt")
        m[f"{lay}.calls_per_pkt"] = (folded[lay]["calls"] / n, "calls/pkt")
    c = out.counters
    supplied = c["ingress"] + c["replicas"]
    m["sim.events_per_pkt"] = (spans.events / n, "events/pkt")
    m["bench.setup_ms"] = (inl_spans.ms["build_runtime"], "ms")
    m["bench.finalize_ms"] = (inl_spans.ms["ScenarioRuntime.finalize"], "ms")
    m["bench.to_dict_ms"] = (inl_spans.ms["SimulationResult.to_dict"], "ms")
    m["core.replicator.useful_ratio"] = (c["delivered"] / supplied, "ratio")
    m["core.reorder.held_frac"] = (c["held"] / c["delivered"], "ratio")
    m["dataplane.queues.drop_frac"] = (c["queue_drops"] / supplied, "ratio")

    epochs = sorted(par_spans.epoch_ms)
    barrier_ms = par_spans.barrier_s * 1e3
    m["cluster.envelopes_per_pkt"] = (c.get("envelopes_sent", 0) / n, "1/pkt")
    m["cluster.epochs"] = (len(epochs), "count")
    m["cluster.epoch_ms.p50"] = (_pct(epochs, 50), "ms")
    m["cluster.epoch_ms.p99"] = (_pct(epochs, 99), "ms")
    m["cluster.epoch_ms.n"] = (len(epochs), "count")
    m["cluster.barrier_wait_ms"] = (barrier_ms, "ms")
    m["cluster.exchange_ms"] = (
        par_spans.drive_s * 1e3 - barrier_ms if epochs else 0.0, "ms")
    for lay in ("cluster", "sweep"):
        eff = par.cpu / (PROCS * par.wall) if workload.pool == lay else 0.0
        m[f"{lay}.parallel_eff"] = (eff, "ratio")

    cells = sorted(par.cell_s)
    m["sweep.cell_s.p50"] = (_pct(cells, 50), "s")
    m["sweep.cell_s.max"] = (cells[-1] if cells else 0.0, "s")
    m["sweep.key_ms"] = (par_spans.ms["ResultCache.key_for"], "ms")
    m["sweep.cache_put_ms"] = (par_spans.ms["ResultCache.put"], "ms")
    m["sweep.cache_get_ms"] = (par_spans.ms["ResultCache.get"], "ms")
    m["sweep.warm_s"] = (par.warm_s, "s")
    m["trace.overhead"] = (out.wall / inline.wall, "ratio")

    total_s = sum(f["self_s"] for f in folded.values())
    record = {
        "digest": warm.digest,
        "traced_wall_s": out.wall, "untraced_wall_s": inline.wall,
        "spans_ms": dict(inl_spans.ms),
        "coordinator_spans_ms": dict(par_spans.ms),
        "layer_share": {lay: round(folded[lay]["self_s"] / total_s, 4)
                        for lay in LAYERS if folded[lay]["self_s"] > 0},
    }
    return m, record


def _pct(sorted_values: list, pct: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    _import_program()
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
    from workloads import workloads

    tmp_root = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        table = workloads(tmp_root)
        if args.workload not in table:
            parser.error(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(table)}")
        workload = table[args.workload]
        record = {"workload": workload.name, "seed": args.seed,
                  "trace": args.trace, **fingerprint()}
        gate = Gate()
        metrics = {}
        try:
            if args.trace:
                values, detail = traced_run(workload, args.seed, gate)
                metrics = {k: {"value": v, "unit": u}
                           for k, (v, u) in values.items()}
            else:
                values, detail = measured_run(workload, args.seed,
                                              args.seconds, gate)
                metrics = {k: {"value": v, "unit": E2E_UNITS[k]}
                           for k, v in values.items()}
            record.update(detail)
        except Exception as exc:  # a failing job ends the run, counted
            traceback.print_exc()
            gate.attempted += 1
            gate.fail(f"{type(exc).__name__}: {exc}")
        record["loadavg_after"] = list(os.getloadavg())
        record["errors"] = gate.errors
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": gate.failed == 0,
                      "attempted": gate.attempted,
                      "failed": gate.failed,
                      "metrics": metrics}))
    return 0 if gate.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
