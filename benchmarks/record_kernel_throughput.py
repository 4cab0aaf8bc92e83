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

The recorded ``baseline_pps`` field is the pre-optimization kernel's
throughput on the same scenario; ``speedup`` is measured against it.

Usage:
  python benchmarks/record_kernel_throughput.py [--repeats N]
  python benchmarks/record_kernel_throughput.py --quick --check
"""

import argparse
import json
import os
import pathlib
import platform
import sys
import time

import repro
from repro.bench.scenarios import ScenarioConfig

RESULTS = pathlib.Path(__file__).resolve().parent / "results"
OUT = RESULTS / "BENCH_KERNEL.json"

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


def _measure(quick: bool, repeats: int) -> dict:
    """Best-of-N wall clock (min rejects scheduler noise)."""
    best_wall = float("inf")
    delivered = 0
    for _ in range(repeats):
        cfg = _scenario(quick)
        t0 = time.perf_counter()
        result = repro.run(cfg)
        wall = time.perf_counter() - t0
        delivered = result.stats["delivered"]
        best_wall = min(best_wall, wall)
    return {
        "delivered": delivered,
        "wall_s": best_wall,
        "pps": delivered / best_wall,
    }


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
    args = parser.parse_args(argv)

    repeats = min(args.repeats, 2) if args.quick else args.repeats
    measured = _measure(args.quick, repeats)
    mode = "quick" if args.quick else "full"
    print(f"[{mode}] delivered={measured['delivered']} "
          f"wall={measured['wall_s']:.2f}s pps={measured['pps']:,.0f}")

    if args.check:
        if not OUT.exists():
            print(f"no committed baseline at {OUT}", file=sys.stderr)
            return 1
        committed = json.loads(OUT.read_text())
        key = "quick" if args.quick else "full"
        base_pps = committed[key]["pps"]
        ratio = measured["pps"] / base_pps
        print(f"committed {key} baseline: {base_pps:,.0f} pps; "
              f"measured/baseline = {ratio:.2f}")
        if ratio < 1.0 - args.tolerance:
            print(f"kernel throughput regressed {1 - ratio:.1%} "
                  f"(> {args.tolerance:.0%} tolerance)", file=sys.stderr)
            return 1
        return 0

    if args.quick:
        return 0  # quick mode never rewrites the committed baseline

    quick_measured = _measure(True, 2)
    print(f"[quick] delivered={quick_measured['delivered']} "
          f"wall={quick_measured['wall_s']:.2f}s "
          f"pps={quick_measured['pps']:,.0f}")

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
