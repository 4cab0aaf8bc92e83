#!/usr/bin/env python
"""Measure single-core simulation-kernel throughput and record it.

The metric is **delivered packets per wall-clock second** for a fixed
reference scenario (adaptive policy, 4 paths, load 0.7) run on one core.
It is the number every sweep cell pays, so it is the throughput
trajectory BENCH_KERNEL.json tracks across PRs.

Result identity across commits is not this script's business: the
golden digests (``tests/test_golden_digests.py``) pin the payloads.

Modes
-----
* default       -- best-of-N full-length runs; rewrites
                   ``benchmarks/results/BENCH_KERNEL.json``.
* ``--quick``    -- one short run (CI-sized); prints the measured pps.
* ``--check``    -- compare the measured pps against the committed
                   baseline JSON and exit nonzero on a regression worse
                   than ``--tolerance`` (default 20%).  With ``--quick``
                   the comparison uses the recorded ``quick.pps`` field.
                   Events per delivered packet (``events_per_pkt``:
                   ``Simulator.processed_count`` / delivered) is exact
                   for a given code version and seed, so ``--check``
                   also fails on any increase over the recorded value,
                   whatever the machine's timing noise.  It gates the
                   ``events`` runs the same way: a paced-flows scenario
                   (F7's source kind), a host under a NIC drop burst
                   and replicated transmission (``redundant2`` under
                   on-off bursts and path faults), each recorded by its
                   events per delivered packet.  Each of these runs
                   must also free itself: with the cyclic garbage
                   collector off, its ``Simulator`` must be gone once
                   the result is dropped, or ``--check`` fails.
* ``--base REF`` -- with ``--check``: compare the pps against commit REF
                   measured now on the same machine, not against the
                   recorded number.  REF's ``src`` is extracted with
                   ``git archive`` to a temporary directory, base and
                   working-tree runs alternate in fresh interpreters
                   (three pairs), and the median working-tree/base pps
                   ratio must stay within ``--tolerance``.  The events
                   per packet gates are unchanged.

The recorded ``baseline_pps`` field is the pre-optimization kernel's
throughput on the same scenario; ``speedup`` is measured against it.

Usage:
  python benchmarks/record_kernel_throughput.py [--repeats N]
  python benchmarks/record_kernel_throughput.py --quick --check
  python benchmarks/record_kernel_throughput.py --quick --check --base REF
"""

import argparse
import gc
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import weakref

import repro
from repro.bench.scenarios import ScenarioConfig, build_runtime

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results"
OUT = RESULTS / "BENCH_KERNEL.json"

#: One timed run in a fresh interpreter: argv is the ``src`` directory to
#: import ``repro`` from and the scenario as ``ScenarioConfig.to_dict``
#: JSON.
_TIMED_RUN = """
import json, pathlib, sys, time
import repro
from repro.bench.scenarios import ScenarioConfig, build_runtime
assert pathlib.Path(repro.__file__).resolve().is_relative_to(
    pathlib.Path(sys.argv[1]).resolve()), repro.__file__
cfg = ScenarioConfig.from_dict(json.loads(sys.argv[2]))
t0 = time.perf_counter()
rt = build_runtime(cfg)
rt.start()
rt.sim.run(until=rt.horizon)
delivered = rt.finalize().stats["delivered"]
print(json.dumps({"delivered": delivered, "events": rt.sim.processed_count,
                  "wall_s": time.perf_counter() - t0}))
"""

#: Pre-optimization throughput of the same reference scenario on the
#: machine that recorded the committed baseline (delivered pkts / wall s).
#: Kept for the speedup trajectory; --check compares like-for-like pps.
PRE_OPT_BASELINE_PPS = 24_131.0


def _scenario(quick: bool) -> ScenarioConfig:
    if quick:
        return ScenarioConfig(policy="adaptive", n_paths=4, load=0.7,
                              duration=30_000.0, warmup=5_000.0,
                              drain=10_000.0, seed=42)
    return ScenarioConfig(policy="adaptive", n_paths=4, load=0.7,
                          duration=120_000.0, warmup=10_000.0,
                          drain=20_000.0, seed=42)


def _event_scenarios() -> dict:
    """Runs gated by their events per delivered packet alone (seed 1)."""
    burst = repro.FaultSchedule().drop_burst(at=5_000.0, duration=2_000.0,
                                             prob=0.3)
    window = 15_000.0  # host-bursty's shape: faults at fractions of it
    faults = (repro.FaultSchedule()
              .degrade(1, at=0.20 * window, duration=0.20 * window,
                       factor=4.0)
              .hang(2, at=0.45 * window, duration=0.10 * window)
              .sched_freeze(0, at=0.70 * window, duration=0.05 * window))
    return {
        "flows": ScenarioConfig(policy="adaptive", n_paths=4,
                                traffic="flows", workload="websearch",
                                flow_load=0.5, duration=40_000.0,
                                warmup=4_000.0, drain=5_000.0, seed=1),
        "drop_burst": ScenarioConfig(policy="adaptive", n_paths=4, load=0.7,
                                     duration=15_000.0, warmup=1_500.0,
                                     drain=5_000.0, seed=1, faults=burst),
        "redundant2": ScenarioConfig(policy="redundant2", n_paths=4,
                                     traffic="onoff", burstiness=4.0,
                                     load=0.35, duration=window,
                                     warmup=0.1 * window, drain=2_500.0,
                                     seed=1, faults=faults),
    }


def _run(cfg: ScenarioConfig) -> tuple:
    """``(delivered packets, simulator events, weak reference to the
    simulator)`` of one run; the runtime and result are dropped on
    return."""
    rt = build_runtime(cfg)  # what repro.run does, keeping the runtime
    rt.start()
    rt.sim.run(until=rt.horizon)
    return (rt.finalize().stats["delivered"], rt.sim.processed_count,
            weakref.ref(rt.sim))


def _events() -> tuple:
    """Each event scenario's delivered packets and events per delivered
    packet, and the names of those whose simulator outlived its dropped
    result (run with the cyclic garbage collector off)."""
    out, kept = {}, []
    for name, cfg in _event_scenarios().items():
        gc.disable()
        try:
            delivered, events, sim = _run(cfg)
            if sim() is not None:
                kept.append(name)
        finally:
            gc.enable()
        out[name] = {"delivered": delivered,
                     "events_per_pkt": events / delivered}
        print(f"[{name}] delivered={delivered} "
              f"events/pkt={out[name]['events_per_pkt']:.4f}")
    return out, kept


def _measure(quick: bool, repeats: int) -> dict:
    """Best-of-N wall clock (min rejects scheduler noise)."""
    best_wall = float("inf")
    delivered = events = 0
    for _ in range(repeats):
        t0 = time.perf_counter()
        delivered, events, _ = _run(_scenario(quick))
        best_wall = min(best_wall, time.perf_counter() - t0)
    return {
        "delivered": delivered,
        "wall_s": best_wall,
        "pps": delivered / best_wall,
        "events_per_pkt": events / delivered,
    }


def _timed_run(src: pathlib.Path, cfg: ScenarioConfig) -> dict:
    """One run of ``cfg`` with ``repro`` imported from ``src``."""
    out = subprocess.run(
        [sys.executable, "-c", _TIMED_RUN, str(src),
         json.dumps(cfg.to_dict())],
        env={**os.environ, "PYTHONPATH": str(src)}, check=True,
        capture_output=True, text=True).stdout
    return json.loads(out)


def _extract_src(ref: str, dest: str) -> pathlib.Path:
    """``src`` of commit ``ref``, extracted under ``dest``."""
    archive = subprocess.Popen(["git", "archive", ref, "src"], cwd=ROOT,
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() or untar.returncode:
        raise SystemExit(f"cannot extract src of {ref!r} with git archive")
    return pathlib.Path(dest) / "src"


def _paired(ref: str, cfg: ScenarioConfig, pairs: int = 3) -> tuple:
    """Alternate runs of commit ``ref`` and of the working tree; returns
    the median working-tree/base pps ratio and the working tree's last
    run (``delivered``, ``wall_s``, ``pps``, ``events_per_pkt``)."""
    ratios = []
    with tempfile.TemporaryDirectory(prefix="kernel-base-") as tmp:
        base_src = _extract_src(ref, tmp)
        for i in range(pairs):
            base = _timed_run(base_src, cfg)
            head = _timed_run(ROOT / "src", cfg)
            ratios.append((head["delivered"] / head["wall_s"])
                          / (base["delivered"] / base["wall_s"]))
            print(f"pair {i + 1}: base {base['delivered'] / base['wall_s']:,.0f}"
                  f" pps, working tree "
                  f"{head['delivered'] / head['wall_s']:,.0f} pps")
    measured = {"delivered": head["delivered"], "wall_s": head["wall_s"],
                "pps": head["delivered"] / head["wall_s"],
                "events_per_pkt": head["events"] / head["delivered"]}
    return statistics.median(ratios), measured


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="short CI-sized run; does not rewrite the JSON")
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed JSON")
    parser.add_argument("--repeats", type=int, default=3,
                        help="repetitions, best-of (default 3; 2 in --quick)")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="max allowed regression for --check (default 0.20)")
    parser.add_argument("--base", default=None, metavar="REF",
                        help="with --check: compare pps against commit REF "
                             "run now, in alternating pairs")
    args = parser.parse_args(argv)
    if args.base is not None and not args.check:
        parser.error("--base needs --check")

    repeats = min(args.repeats, 2) if args.quick else args.repeats
    if args.base is not None:
        ratio, measured = _paired(args.base, _scenario(args.quick))
    else:
        measured = _measure(args.quick, repeats)
    mode = "quick" if args.quick else "full"
    print(f"[{mode}] delivered={measured['delivered']} "
          f"wall={measured['wall_s']:.2f}s pps={measured['pps']:,.0f} "
          f"events/pkt={measured['events_per_pkt']:.4f}")

    if args.check:
        if not OUT.exists():
            print(f"no committed baseline at {OUT}", file=sys.stderr)
            return 1
        committed = json.loads(OUT.read_text())
        key = "quick" if args.quick else "full"
        if args.base is not None:
            print(f"median working-tree/{args.base} pps ratio = "
                  f"{ratio:.2f}")
        else:
            base_pps = committed[key]["pps"]
            ratio = measured["pps"] / base_pps
            print(f"committed {key} baseline: {base_pps:,.0f} pps; "
                  f"measured/baseline = {ratio:.2f}")
        failed = False
        if ratio < 1.0 - args.tolerance:
            print(f"kernel throughput regressed {1 - ratio:.1%} "
                  f"(> {args.tolerance:.0%} tolerance)", file=sys.stderr)
            failed = True
        base_events = committed[key]["events_per_pkt"]
        print(f"committed {key} events/pkt: {base_events:.4f}")
        if measured["events_per_pkt"] > base_events:
            print(f"events per delivered packet rose from {base_events:.4f} "
                  f"to {measured['events_per_pkt']:.4f}", file=sys.stderr)
            failed = True
        events, kept = _events()
        for name, got in events.items():
            base = committed["events"][name]["events_per_pkt"]
            if got["events_per_pkt"] > base:
                print(f"{name}: events per delivered packet rose from "
                      f"{base:.4f} to {got['events_per_pkt']:.4f}",
                      file=sys.stderr)
                failed = True
        for name in kept:
            print(f"{name}: the runtime outlived its dropped result "
                  f"(a reference cycle holds it)", file=sys.stderr)
            failed = True
        return 1 if failed else 0

    if args.quick:
        return 0  # quick mode never rewrites the committed baseline

    quick_measured = _measure(True, 2)
    print(f"[quick] delivered={quick_measured['delivered']} "
          f"wall={quick_measured['wall_s']:.2f}s "
          f"pps={quick_measured['pps']:,.0f} "
          f"events/pkt={quick_measured['events_per_pkt']:.4f}")

    record = {
        "name": "kernel-throughput",
        "version": repro.__version__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "scenario": {"policy": "adaptive", "n_paths": 4, "load": 0.7,
                     "seed": 42},
        "repeats": repeats,
        "full": measured,
        "quick": quick_measured,
        "events": _events()[0],
        "baseline_pps": PRE_OPT_BASELINE_PPS,
        "speedup": measured["pps"] / PRE_OPT_BASELINE_PPS,
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(record, indent=2) + "\n")
    print(f"\nwrote {OUT}")
    print(f"speedup vs pre-optimization baseline "
          f"({PRE_OPT_BASELINE_PPS:,.0f} pps): {record['speedup']:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
