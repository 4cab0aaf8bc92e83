"""The CI tail-regression gate, built on the run ledger.

Runs the canonical gate scenario (fixed config + seed, forensicated),
records it into ``benchmarks/results/LEDGER.jsonl``, and diffs the
fresh entry against the committed ``baseline`` entry with bootstrap
CIs (:func:`repro.obs.ledger.diff_entries`).  The simulated latencies
are a pure function of (config, seed, code), so on an unchanged tree
the diff is exact and the gate is noise-free; a change that slows the
tail by more than ``--max-regress`` (default 20%) fails with exit 1.

Usage::

    python benchmarks/record_ledger_gate.py              # CI gate
    python benchmarks/record_ledger_gate.py --baseline   # re-baseline

``--baseline`` appends a new ``baseline`` entry (diffs always pick the
latest entry per label) -- run it after an *intentional*
perf-affecting change and commit the updated LEDGER.jsonl.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"),
)

import repro  # noqa: E402
from repro.obs.ledger import (  # noqa: E402
    DEFAULT_LEDGER,
    append_entry,
    build_entry,
    diff_entries,
    load_ledger,
    render_diff,
    select_entry,
)

#: The gate scenario: the repo's reference multipath configuration,
#: long enough for a stable p99.9 yet a few seconds of wall clock.
GATE_CONFIG = dict(
    policy="adaptive",
    n_paths=4,
    load=0.7,
    duration=30_000.0,
    warmup=5_000.0,
    drain=10_000.0,
    seed=42,
)


def run_gate_entry(label: str) -> dict:
    """Simulate the gate scenario, forensicated, and build its entry."""
    result = repro.run(
        repro.ScenarioConfig(**GATE_CONFIG),
        repro.RunOptions(
            telemetry=repro.Telemetry(metrics_interval=0.0),
            forensics=True,
        ),
    )
    # No throughput: this run did not measure one, and a committed bench
    # record's pps describes a different run.
    return build_entry(result, label, kind="gate")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", action="store_true",
                        help="append a fresh 'baseline' entry instead of "
                             "gating against the committed one")
    parser.add_argument("--ledger", default=DEFAULT_LEDGER,
                        help=f"ledger path (default {DEFAULT_LEDGER})")
    parser.add_argument("--max-regress", type=float, default=0.2,
                        help="tail regression bar (default 0.2 = 20%%)")
    args = parser.parse_args(argv)

    if args.baseline:
        entry = run_gate_entry("baseline")
        index = append_entry(entry, args.ledger)
        print(f"baseline recorded as entry {index} in {args.ledger}: "
              f"p50={entry['exact']['p50']:.1f}us "
              f"p99={entry['exact']['p99']:.1f}us "
              f"p99.9={entry['exact']['p999']:.1f}us")
        print("commit the updated ledger to make this the gate reference")
        return 0

    entries = load_ledger(args.ledger)
    try:
        baseline = select_entry(entries, "baseline")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("run `python benchmarks/record_ledger_gate.py --baseline` "
              "and commit the ledger first", file=sys.stderr)
        return 2

    candidate = run_gate_entry("gate")
    append_entry(candidate, args.ledger)
    diff = diff_entries(baseline, candidate, max_regress=args.max_regress)
    print(render_diff(diff))
    if not diff["comparable"]:
        print("error: gate config drifted from the baseline entry -- "
              "re-baseline with --baseline", file=sys.stderr)
        return 2
    return 0 if diff["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
