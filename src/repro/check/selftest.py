"""Mutation self-test: prove the checker catches real bugs.

A green invariant report is only trustworthy if the engine demonstrably
*fires* when the property it guards is broken.  This module deliberately
breaks the deduplicator -- every replicated copy is delivered instead of
first-copy-wins -- and asserts that:

1. the armed invariant engine reports a ``dedup`` violation naming the
   twice-delivered packet, and
2. the differential comparison between the intact and the broken run
   flags result drift (delivered counts, latency percentiles),

then restores the guard and re-runs the same scenario armed, expecting a
clean report.  Run via ``repro check selftest`` (CI does).
"""

from __future__ import annotations

from typing import Dict

from repro.bench.scenarios import ScenarioConfig, run_scenario
from repro.check.diff import deep_diff
from repro.check.spec import CheckSpec

#: Replication scenario the mutation runs against: every packet takes
#: two paths, so an unguarded dedup double-delivers almost everything.
SELFTEST_CONFIG = dict(
    policy="redundant2",
    n_paths=3,
    load=0.35,
    duration=6000.0,
    warmup=500.0,
    drain=3000.0,
    seed=42,
    n_flows=32,
)


def mutation_selftest(seed: int = 42) -> Dict:
    """Break dedup, expect the engine and the differ to both catch it.

    Returns a JSON-friendly report; ``ok`` means all three expectations
    held (violation fired, drift flagged, intact run clean).
    """
    from repro.core.replicator import Deduplicator

    config = ScenarioConfig(**{**SELFTEST_CONFIG, "seed": seed})
    armed = CheckSpec(sample_interval=250.0)

    intact = run_scenario(config, check=armed)
    intact_clean = intact.check_report["ok"]

    original = Deduplicator.should_deliver

    def deliver_every_copy(self, packet):
        # Keep the table bookkeeping (entries still expire) but ignore
        # the first-copy-wins verdict -- the exact bug the dedup
        # invariant exists to catch.
        original(self, packet)
        return True

    Deduplicator.should_deliver = deliver_every_copy
    try:
        broken = run_scenario(config, check=armed)
    finally:
        Deduplicator.should_deliver = original

    report = broken.check_report
    first = report["first_violation"]
    caught = (not report["ok"]) and first is not None \
        and first["invariant"] == "dedup"

    intact_payload = intact.to_dict()
    broken_payload = broken.to_dict()
    intact_payload.pop("check_report", None)
    broken_payload.pop("check_report", None)
    drift = deep_diff(intact_payload, broken_payload)

    return {
        "ok": bool(caught and drift and intact_clean),
        "mutation": "Deduplicator.should_deliver delivers every copy",
        "violation_caught": bool(caught),
        "first_violation": first,
        "broken_violation_count": report["violation_count"],
        "drift_detected": bool(drift),
        "drift_example": drift[:5],
        "intact_clean": bool(intact_clean),
    }
