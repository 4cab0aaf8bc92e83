"""Golden payload digests: results pinned across commits.

Each reference run below is small and fixed.  Its digest is the sha256
of the canonical JSON (sorted keys, no whitespace) of its ``to_dict()``
payload -- for a sweep, of the per-cell identity dicts, which leave out
wall-clock provenance.  ``DIGESTS.json`` next to this file holds the
committed digests; ``tests/test_golden_digests.py`` recomputes them, so
a change that moves any simulated result fails there even when it moves
every result the same way.

Usage (from the repository root)::

    PYTHONPATH=src python -m tests.golden.digests        # check
    PYTHONPATH=src python -m tests.golden.digests --update --reason TEXT

``--update`` rewrites ``DIGESTS.json``.  It refuses to run unless TEXT
appears in a line of ``CHANGES.md`` and is not a reason already
recorded in ``DIGESTS.json``: results may move only with a written
reason for why they moved, and every reason is kept.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import sys
import tempfile
from typing import Callable, Dict, List, Optional

import repro
from repro import (Axis, ClusterConfig, FabricConfig, FaultSchedule,
                   RunOptions, ScenarioConfig, SloSpec, SweepSpec)

HERE = pathlib.Path(__file__).resolve().parent
DIGESTS_PATH = HERE / "DIGESTS.json"
CHANGES_PATH = HERE.parent.parent / "CHANGES.md"


def digest(payload) -> str:
    """sha256 of the canonical JSON of a payload."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _host(policy: str = "adaptive", **kw) -> ScenarioConfig:
    base = dict(policy=policy, n_paths=4, traffic="poisson", load=0.7,
                duration=4_000.0, warmup=500.0, drain=2_000.0, seed=11)
    base.update(kw)
    return ScenarioConfig(**base)


def _single(policy: str) -> Callable[[], Dict]:
    return lambda: repro.run(_host(policy)).to_dict()


def _crash() -> Dict:
    faults = FaultSchedule().crash(path=1, at=1_500.0, duration=1_000.0)
    return repro.run(_host(seed=12), RunOptions(faults=faults)).to_dict()


def _armed_check() -> Dict:
    return repro.run(_host(seed=13), RunOptions(check=True)).to_dict()


def _mtbf_faults() -> Dict:
    faults = (FaultSchedule()
              .renewal("crash", path=1, mtbf=1_200.0, mttr=300.0)
              .renewal("hang", path=2, mtbf=1_500.0, mttr=200.0))
    return repro.run(_host(seed=17), RunOptions(faults=faults)).to_dict()


def _slo_autotune() -> Dict:
    slo = SloSpec(objectives=("p99 <= 60us", "delivery >= 99.9%"),
                  window=400.0, autotune=True, start_paths=1,
                  cooldown=800.0)
    return repro.run(_host(seed=18), RunOptions(slo=slo)).to_dict()


def _forensics() -> Dict:
    return repro.run(_host("single", seed=19, load=0.85),
                     RunOptions(forensics=True)).to_dict()


def _sweep() -> List[Dict]:
    spec = SweepSpec(
        name="golden-sweep-4",
        base={"n_paths": 4, "duration": 2_000.0, "warmup": 200.0,
              "drain": 1_000.0, "seed": 14},
        axes=[Axis("policy", ["single", "adaptive"]),
              Axis("load", [0.4, 0.8])],
    )
    with tempfile.TemporaryDirectory(prefix="golden-sweep-") as cache_dir:
        return repro.run_sweep(spec, jobs=1, cache_dir=cache_dir).identity()


def _ecmp_cluster() -> ClusterConfig:
    host = _host(load=0.6, duration=2_000.0, warmup=200.0, drain=1_000.0)
    return ClusterConfig.uniform_hosts(4, host, FabricConfig(steering="ecmp"),
                                       pattern="uniform", seed=15)


def _lossy_incast_cluster() -> ClusterConfig:
    host = _host(load=0.3, duration=2_000.0, warmup=200.0, drain=1_000.0)
    fabric = FabricConfig(steering="flowlet", loss_prob=0.01,
                          jitter_scale=2.0)
    return ClusterConfig.uniform_hosts(4, host, fabric, pattern="incast",
                                       incast_target=2, seed=16)


def _cluster(make: Callable[[], ClusterConfig],
             workers: int) -> Callable[[], Dict]:
    return lambda: repro.run(make(), RunOptions(workers=workers)).to_dict()


#: Reference run name -> payload builder.  Clusters run at one and two
#: workers and both must match the one committed digest per cluster.
RUNS: Dict[str, Callable[[], object]] = {
    "single": _single("single"),
    "adaptive": _single("adaptive"),
    "redundant2": _single("redundant2"),
    "crash_fault": _crash,
    "armed_check": _armed_check,
    "mtbf_faults": _mtbf_faults,
    "slo_autotune": _slo_autotune,
    "forensics": _forensics,
    "sweep_4": _sweep,
    "cluster_ecmp@1": _cluster(_ecmp_cluster, 1),
    "cluster_ecmp@2": _cluster(_ecmp_cluster, 2),
    "cluster_flowlet_lossy_incast@1": _cluster(_lossy_incast_cluster, 1),
    "cluster_flowlet_lossy_incast@2": _cluster(_lossy_incast_cluster, 2),
}


def golden_key(run_name: str) -> str:
    """``DIGESTS.json`` entry of a run (worker count stripped)."""
    return run_name.split("@", 1)[0]


def compute(run_name: str) -> str:
    return digest(RUNS[run_name]())


def load() -> Dict:
    return json.loads(DIGESTS_PATH.read_text())


def check_reason(reason: Optional[str], changes: str,
                 recorded: List[str]) -> str:
    """Return ``reason`` if it may justify an update, else exit.

    It must be non-empty, appear in a line of ``changes`` (the text of
    CHANGES.md) and not be one of the ``recorded`` reasons.
    """
    reason = (reason or "").strip()
    if not reason:
        raise SystemExit("refusing to update: pass --reason with the "
                         "CHANGES.md text that says why the results moved")
    if not any(reason in line for line in changes.splitlines()):
        raise SystemExit(f"refusing to update: no CHANGES.md line contains "
                         f"the reason {reason!r}")
    if reason in recorded:
        raise SystemExit(f"refusing to update: {reason!r} is already a "
                         f"recorded reason; say why the results moved now")
    return reason


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--update", action="store_true",
                        help="re-record DIGESTS.json")
    parser.add_argument("--reason",
                        help="why the results moved; must appear in "
                             "CHANGES.md (required with --update)")
    args = parser.parse_args(argv)
    recorded = load() if DIGESTS_PATH.exists() else {}
    reasons = list(recorded.get("reasons", []))
    if args.update:
        reasons.append(check_reason(args.reason, CHANGES_PATH.read_text(),
                                    reasons))
    digests: Dict[str, str] = {}
    mismatched = []
    for name in RUNS:
        value = compute(name)
        key = golden_key(name)
        if digests.setdefault(key, value) != value:
            raise SystemExit(f"{name}: digest {value[:16]} differs from "
                             f"{digests[key][:16]} at another worker count")
        expected = recorded.get("digests", {}).get(key)
        status = "ok" if value == expected else "CHANGED"
        if status != "ok":
            mismatched.append(name)
        print(f"{status:8} {name:34} {value}")
    if args.update:
        DIGESTS_PATH.write_text(json.dumps(
            {"reasons": reasons, "digests": digests}, indent=2,
            sort_keys=True) + "\n")
        print(f"wrote {DIGESTS_PATH}")
        return 0
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
