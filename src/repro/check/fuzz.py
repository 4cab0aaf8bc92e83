"""Property-based scenario fuzzing.

:func:`fuzz_scenarios` generates random-but-valid
:class:`~repro.bench.scenarios.ScenarioConfig`\\ s -- spanning policies,
chains, traffic models, qdisc-free host shapes, interference, and fault
schedules -- and runs each with every invariant armed.  The property
under test is simply *"no armed invariant fires"*: conservation, dedup,
ordering and controller consistency must hold on every reachable
configuration, not just the canned experiment grid.

A failing case is **shrunk** greedily toward a minimal reproducer
(drop the faults, calm the traffic, fewer paths/flows, shorter run),
re-running after each candidate reduction and keeping it only while the
violation persists.  The minimal config is written to disk as JSON
(``ScenarioConfig.from_dict``-loadable) so a failure travels as one
small file.

Everything is seeded: the same ``seed`` regenerates the same cases.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

import numpy as np

from repro.bench.scenarios import ScenarioConfig, run_scenario
from repro.check.invariants import InvariantEngine
from repro.check.spec import CheckSpec

#: Policies the fuzzer draws from (all registry names; replication
#: variants need n_paths >= their copy count and are gated below).
_POLICIES = ("single", "hash", "rr", "spray", "flowlet", "leastload",
             "po2", "weighted", "redundant2", "redundant3", "adaptive")
_CHAINS = ("basic", "nat", "heavy", "tunnel")
_TRAFFIC = ("poisson", "onoff", "incast")
_FAULT_KINDS = ("crash", "hang", "degrade", "drop_burst", "sched_freeze")


def generate_config(rng: np.random.Generator) -> ScenarioConfig:
    """Draw one random-but-valid scenario (validated before return)."""
    n_paths = int(rng.integers(1, 6))
    policy = str(rng.choice(_POLICIES))
    if policy == "redundant3" and n_paths < 3:
        n_paths = 3
    elif policy == "redundant2" and n_paths < 2:
        n_paths = 2
    traffic = str(rng.choice(_TRAFFIC))
    duration = float(rng.integers(4, 13)) * 1000.0
    cfg = ScenarioConfig(
        policy=policy,
        n_paths=n_paths,
        chain=str(rng.choice(_CHAINS)),
        traffic=traffic,
        load=float(rng.uniform(0.15, 0.9)),
        duration=duration,
        warmup=float(rng.integers(0, 3)) * 250.0,
        drain=2000.0,
        seed=int(rng.integers(0, 2**31 - 1)),
        n_flows=int(rng.integers(8, 65)),
    )
    if traffic == "onoff":
        cfg.burstiness = float(rng.uniform(1.0, 4.0))
        cfg.mean_on = float(rng.uniform(100.0, 600.0))
    elif traffic == "incast":
        cfg.n_flows = ScenarioConfig.n_flows  # its workers are its flows
        cfg.fan_in = int(rng.integers(2, 25))
        cfg.burst_pkts = int(rng.integers(1, 13))
        cfg.epoch = float(rng.uniform(500.0, 3000.0))
    if rng.random() < 0.3:
        cfg.interfere_intensity = float(rng.uniform(0.5, 4.0))
        cfg.interfere_path = int(rng.integers(0, n_paths))
    if rng.random() < 0.25:
        cfg.mpdp_overrides = {"evacuation": True}
    if rng.random() < 0.45:
        cfg.faults = _random_faults(rng, n_paths, duration)
    return cfg.validate()


def _random_faults(rng: np.random.Generator, n_paths: int, duration: float):
    """A 1-3 event schedule with kind-correct parameters."""
    from repro.faults import FaultSchedule

    sched = FaultSchedule()
    for _ in range(int(rng.integers(1, 4))):
        kind = str(rng.choice(_FAULT_KINDS))
        at = float(rng.uniform(0.1, 0.6)) * duration
        dur = float(rng.uniform(0.1, 0.35)) * duration
        path = int(rng.integers(0, n_paths))
        if kind == "crash":
            sched.crash(path, at=at, duration=dur)
        elif kind == "hang":
            sched.hang(path, at=at, duration=dur)
        elif kind == "degrade":
            sched.degrade(path, at=at, duration=dur,
                          factor=float(rng.uniform(2.0, 8.0)))
        elif kind == "drop_burst":
            sched.drop_burst(at=at, duration=dur,
                             prob=float(rng.uniform(0.2, 1.0)))
        else:
            sched.sched_freeze(path, at=at, duration=min(dur, 2000.0))
    return sched


def run_armed(config: ScenarioConfig,
              sample_interval: float = 250.0) -> Dict:
    """Run one config with every invariant armed; returns the check report."""
    engine = InvariantEngine(CheckSpec(sample_interval=sample_interval))
    result = run_scenario(config, check=engine)
    return result.check_report


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------

def _shrink_steps(cfg: ScenarioConfig) -> List:
    """Candidate reductions, most drastic first; each returns a new config."""
    import dataclasses as _dc

    steps = []
    if cfg.faults is not None:
        steps.append(lambda c: _dc.replace(c, faults=None))
    if cfg.interfere_intensity > 0:
        steps.append(lambda c: _dc.replace(c, interfere_intensity=0.0))
    if cfg.mpdp_overrides:
        steps.append(lambda c: _dc.replace(c, mpdp_overrides={}))
    if cfg.traffic != "poisson":
        steps.append(lambda c: _dc.replace(c, traffic="poisson"))
    if cfg.chain != "basic":
        steps.append(lambda c: _dc.replace(c, chain="basic"))
    if cfg.n_flows > 8:
        steps.append(lambda c: _dc.replace(c, n_flows=8))
    if cfg.n_paths > 2 and not str(cfg.policy).startswith("redundant3"):
        steps.append(lambda c: _dc.replace(c, n_paths=2))
    if cfg.duration > 2000.0:
        steps.append(
            lambda c: _dc.replace(c, duration=max(2000.0, c.duration / 2),
                                  warmup=0.0)
        )
    if cfg.load > 0.5:
        steps.append(lambda c: _dc.replace(c, load=0.5))
    return steps


def shrink_config(cfg: ScenarioConfig,
                  sample_interval: float = 250.0,
                  budget: int = 20) -> ScenarioConfig:
    """Greedily minimize a violating config, keeping each reduction only
    while the run still reports a violation; at most ``budget`` re-runs."""
    current = cfg
    runs = 0
    progress = True
    while progress and runs < budget:
        progress = False
        for step in _shrink_steps(current):
            if runs >= budget:
                break
            try:
                candidate = step(current).validate()
            except ValueError:
                continue
            runs += 1
            if not run_armed(candidate, sample_interval)["ok"]:
                current = candidate
                progress = True
                break
    return current


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------

def fuzz_scenarios(cases: int = 25,
                   seed: int = 0,
                   out_dir: Optional[str] = None,
                   sample_interval: float = 250.0,
                   shrink: bool = True,
                   progress=None) -> Dict:
    """Fuzz ``cases`` random scenarios with all invariants armed.

    Returns a ``fuzz_report`` payload: per-failure the violating config
    (original and shrunk), the first violation, and -- when ``out_dir``
    is given -- the path of the minimal repro JSON written there.
    ``progress`` is an optional ``fn(index, config, report)`` callback
    (the CLI prints one line per case).
    """
    from repro import schemas

    if cases < 1:
        raise ValueError(f"cases must be >= 1, got {cases}")
    rng = np.random.default_rng(seed)
    failures = []
    for i in range(cases):
        cfg = generate_config(rng)
        report = run_armed(cfg, sample_interval)
        if progress is not None:
            progress(i, cfg, report)
        if report["ok"]:
            continue
        entry = {
            "case": i,
            "config": cfg.to_dict(),
            "first_violation": report["first_violation"],
            "violation_count": report["violation_count"],
        }
        if shrink:
            minimal = shrink_config(cfg, sample_interval)
            entry["shrunk_config"] = minimal.to_dict()
            minimal_report = run_armed(minimal, sample_interval)
            entry["shrunk_first_violation"] = minimal_report["first_violation"]
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            path = os.path.join(out_dir, f"fuzz-repro-{seed}-{i}.json")
            with open(path, "w") as fh:
                json.dump(entry.get("shrunk_config", entry["config"]),
                          fh, indent=2, sort_keys=True)
                fh.write("\n")
            entry["repro_path"] = path
        failures.append(entry)
    return {
        "schema_version": schemas.version_for("fuzz_report"),
        "ok": not failures,
        "cases": cases,
        "seed": seed,
        "sample_interval": sample_interval,
        "failures": failures,
    }
