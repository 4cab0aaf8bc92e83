"""Golden payload digests: results pinned across commits.

Each reference run below is small and fixed.  Its digest is the sha256
of the canonical JSON (sorted keys, no whitespace) of its ``to_dict()``
payload -- for a sweep, of the per-cell identity dicts, which leave out
wall-clock provenance.  ``DIGESTS.json`` next to this file holds the
committed digests; ``tests/test_golden_digests.py`` recomputes them, so
a change that moves any simulated result fails there even when it moves
every result the same way.  Some paper experiments are pinned by the
sha256 of their rendered table instead, run twice against one fresh
result cache so a table served from the cache must equal a simulated one.

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
import contextlib
import hashlib
import json
import os
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


def _onoff_bursty() -> Dict:
    # The perfbench host-bursty shape on a 4 ms window: replication under
    # ON/OFF bursts with a degrade, a hang and a scheduler freeze.
    window = 4_000.0
    faults = (FaultSchedule()
              .degrade(1, at=0.20 * window, duration=0.20 * window,
                       factor=4.0)
              .hang(2, at=0.45 * window, duration=0.10 * window)
              .sched_freeze(0, at=0.70 * window, duration=0.05 * window))
    return repro.run(_host("redundant2", traffic="onoff", burstiness=4.0,
                           load=0.35, seed=21, faults=faults)).to_dict()


def _forensics_redundant2() -> Dict:
    # Replicas take pids between a packet's NIC arrival and departure;
    # the tail exemplars show them.
    return repro.run(_host("redundant2", seed=22, load=0.8),
                     RunOptions(forensics=True)).to_dict()


def _incast() -> Dict:
    return repro.run(_host(traffic="incast", epoch=500.0, seed=23)).to_dict()


def _flows() -> Dict:
    # F7's source kind: paced flows with their completion times, under
    # replication (replicas take pids while flows are in flight).
    res = repro.run(_host("redundant2", traffic="flows", workload="enterprise",
                          flow_load=0.5, duration=10_000.0, warmup=1_000.0,
                          drain=5_000.0, seed=25),
                    RunOptions(forensics=True))
    return {"payload": res.to_dict(), "fcts": res.tracker.fcts().tolist(),
            "incomplete": res.tracker.incomplete}


def _nic_drop_bursts() -> FaultSchedule:
    # A certain burst, a probabilistic one, and two overlapping bursts
    # (the first one's clear ends the second early).
    return (FaultSchedule()
            .drop_burst(at=600.0, duration=200.0)
            .drop_burst(at=1_200.0, duration=400.0, prob=0.3)
            .drop_burst(at=2_000.0, duration=600.0, prob=0.5)
            .drop_burst(at=2_300.0, duration=600.0))


def _drop_bursts() -> Dict:
    return repro.run(_host("redundant2", seed=26, load=0.8,
                           faults=_nic_drop_bursts()),
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


def _onoff_cluster() -> ClusterConfig:
    host = _host(traffic="onoff", load=0.5, duration=2_000.0, warmup=200.0,
                 drain=1_000.0)
    fabric = FabricConfig(steering="ecmp", jitter_scale=1.0, loss_prob=0.005)
    return ClusterConfig.uniform_hosts(4, host, fabric, pattern="uniform",
                                       seed=24)


def _drop_burst_cluster() -> ClusterConfig:
    faults = (FaultSchedule()
              .drop_burst(at=400.0, duration=300.0, prob=0.3)
              .drop_burst(at=1_000.0, duration=200.0))
    host = _host(load=0.6, duration=2_000.0, warmup=200.0, drain=1_000.0,
                 faults=faults)
    return ClusterConfig.uniform_hosts(4, host, FabricConfig(steering="ecmp"),
                                       pattern="uniform", seed=27)


def _cluster(make: Callable[[], ClusterConfig], workers: int,
             **options) -> Callable[[], Dict]:
    return lambda: repro.run(
        make(), RunOptions(workers=workers, **options)).to_dict()


@contextlib.contextmanager
def _environ(**values: str):
    """Set environment variables for the block, then restore them."""
    saved = {key: os.environ.get(key) for key in values}
    os.environ.update(values)
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


#: Experiments whose rendered table is pinned, and the duration scale.
TABLE_EXPERIMENTS = ("F2", "F8", "F10", "F11", "A3", "SLO1", "SLO2")
TABLE_SCALE = "0.05"


def _table(exp_id: str) -> Callable[[], str]:
    """Render ``exp_id`` on a cold cache, then again from that cache;
    the two tables must be equal."""
    def run() -> str:
        from repro.bench.figures import ALL_EXPERIMENTS

        with tempfile.TemporaryDirectory(prefix="golden-table-") as cache, \
                _environ(REPRO_BENCH_SCALE=TABLE_SCALE, REPRO_CACHE_DIR=cache,
                         REPRO_SWEEP_CACHE="1", REPRO_SWEEP_JOBS="1"):
            cold, _ = ALL_EXPERIMENTS[exp_id]()
            warm, _ = ALL_EXPERIMENTS[exp_id]()
        if warm != cold:
            raise AssertionError(f"{exp_id}: the table rendered from a warm "
                                 f"cache differs from the cold one")
        return cold
    return run


#: Reference run name -> payload function.  Clusters run at one, two and
#: four workers (four: one host per process) and all must match the one
#: committed digest per cluster.  The forensics-armed cluster is the only
#: cluster payload that shows packet ids (its tail exemplars), so it is
#: what pins each host's pid allocation.
RUNS: Dict[str, Callable[[], object]] = {
    "single": _single("single"),
    "adaptive": _single("adaptive"),
    "redundant2": _single("redundant2"),
    "po2": _single("po2"),
    "spray": _single("spray"),
    "weighted": _single("weighted"),
    "crash_fault": _crash,
    "armed_check": _armed_check,
    "mtbf_faults": _mtbf_faults,
    "slo_autotune": _slo_autotune,
    "forensics": _forensics,
    "onoff_bursty_faults": _onoff_bursty,
    "forensics_redundant2": _forensics_redundant2,
    "incast": _incast,
    "flows_redundant2": _flows,
    "drop_bursts": _drop_bursts,
    "sweep_4": _sweep,
    "cluster_ecmp@1": _cluster(_ecmp_cluster, 1),
    "cluster_ecmp@2": _cluster(_ecmp_cluster, 2),
    "cluster_ecmp@4": _cluster(_ecmp_cluster, 4),
    "cluster_ecmp_forensics@1": _cluster(_ecmp_cluster, 1, forensics=True),
    "cluster_ecmp_forensics@2": _cluster(_ecmp_cluster, 2, forensics=True),
    "cluster_flowlet_lossy_incast@1": _cluster(_lossy_incast_cluster, 1),
    "cluster_flowlet_lossy_incast@2": _cluster(_lossy_incast_cluster, 2),
    "cluster_flowlet_lossy_incast@4": _cluster(_lossy_incast_cluster, 4),
    "cluster_onoff@1": _cluster(_onoff_cluster, 1),
    "cluster_onoff@2": _cluster(_onoff_cluster, 2),
    "cluster_drop_bursts@1": _cluster(_drop_burst_cluster, 1),
    "cluster_drop_bursts@2": _cluster(_drop_burst_cluster, 2),
    **{f"table_{exp_id}": _table(exp_id) for exp_id in TABLE_EXPERIMENTS},
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
