"""SLO experiments: attainment vs. resource cost, and fault reaction.

* **E-SLO1** (:func:`slo1_attainment`): across a load × interference
  grid, compares three provisioning strategies at *identical offered
  load* -- static-1 (one active path), static-4 (all paths), and the
  autotuner starting from one path -- on SLO attainment and the
  path-seconds they spend.  Expected shape: static-1 misses the p99
  objective once a single path saturates; static-4 always meets it but
  burns 4x path-seconds even when idle; the autotuner meets it at a
  cost that tracks the offered load.
* **E-SLO2** (:func:`slo2_fault_recovery`): a mid-run path crash under
  an autotuned run that has parked spare capacity.  Measures
  time-to-recover-attainment -- how long after the crash the windows go
  green again once the autotuner unparks a spare -- against a static
  baseline with the same initial active set and no tuner.

All configs share ``n_paths=4`` so ``load`` means the same offered
packet rate everywhere (see the load convention in
:mod:`repro.bench.scenarios`); only the *active* path count differs,
via ``SloSpec.start_paths``.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.bench.runner import scaled_duration
from repro.faults import FaultSchedule
from repro.metrics.report import Table
from repro.slo import SloSpec
from repro.sweep import Axis, SweepSpec, run_sweep

#: The headline objectives both experiments measure against.
SLO_OBJECTIVES = ("p99 <= 150us", "delivery >= 99%")


def _slo_spec(duration: float, *, autotune: bool,
              start_paths: Optional[int], min_paths: int = 1) -> SloSpec:
    """The spec both experiments share; windows scale with duration so
    short smoke runs still close enough windows to be meaningful."""
    window = max(1_000.0, duration / 30.0)
    return SloSpec(
        objectives=SLO_OBJECTIVES,
        window=window,
        autotune=autotune,
        start_paths=start_paths,
        min_paths=min_paths,
        cooldown=3 * window,
        hold_windows=4,
        margin=0.7,
        penalty=duration,  # at most one relearn probe per run
    )


def _steady(report: Dict) -> float:
    """Attainment over the second half of the traffic-bearing windows.

    Ramp windows (first half) show the autotuner *learning*; empty
    drain windows are vacuously attained and would dilute the signal at
    small ``REPRO_BENCH_SCALE``, so both are excluded.
    """
    wins = [w for w in report["windows"] if w["count"] > 0]
    tail = wins[len(wins) // 2:]
    if not tail:
        return 1.0
    return sum(1 for w in tail if w["ok"]) / len(tail)


# ----------------------------------------------------------------------
# E-SLO1 -- attainment & resource cost across load x interference
# ----------------------------------------------------------------------
def slo1_attainment(duration: float = 120_000.0) -> Tuple[str, Dict]:
    """Static-1 vs static-4 vs autotuned: attainment and path-seconds.

    Expected shape: at low load every strategy attains, but the
    autotuner (like static-1) spends a fraction of static-4's
    path-seconds; past single-path saturation static-1 collapses while
    the autotuner scales out and keeps attainment near static-4 at
    lower cost.  Interference on path 0 stresses the same trade under
    asymmetric slowdown.
    """
    dur = scaled_duration(duration)
    loads = [0.2, 0.35, 0.5]
    interference = [0.0, 2.5]
    strategies = [
        ("static-1", dict(autotune=False, start_paths=1)),
        ("static-4", dict(autotune=False, start_paths=None)),
        ("autotuned", dict(autotune=True, start_paths=1)),
    ]

    t = Table(
        ["load", "interf", "strategy", "attain %", "steady %", "path-s",
         "p99 (us)", "decisions"],
        title="E-SLO1  SLO attainment vs resource cost "
              f"({'; '.join(SLO_OBJECTIVES)}, k=4)",
    )
    spec = SweepSpec(
        name="SLO1-attainment",
        base=dict(policy="adaptive", n_paths=4, chain="heavy",
                  duration=dur, warmup=0.15 * dur),
        axes=[Axis("load", loads),
              Axis("interfere_intensity", interference),
              Axis("strategy",
                   [{"slo": _slo_spec(dur, **knobs).to_dict()}
                    for _, knobs in strategies],
                   labels=[name for name, _ in strategies])],
    )
    sr = run_sweep(spec)
    data: Dict = {"loads": loads, "interference": interference, "cells": []}
    for load in loads:
        for intensity in interference:
            for name, _ in strategies:
                res = sr.get(load=load, interfere_intensity=intensity,
                             strategy=name)
                rep = res.slo_report
                cell = {
                    "load": load,
                    "interference": intensity,
                    "strategy": name,
                    "attainment": rep["attainment"],
                    "steady_attainment": _steady(rep),
                    "path_seconds": rep["path_seconds"],
                    "p99": res.summary.p99,
                    "n_decisions": len(rep["decisions"]),
                }
                data["cells"].append(cell)
                t.add_row([load, intensity, name,
                           100.0 * cell["attainment"],
                           100.0 * cell["steady_attainment"],
                           cell["path_seconds"], cell["p99"],
                           cell["n_decisions"]])
    return t.render(), data


# ----------------------------------------------------------------------
# E-SLO2 -- autotuner reaction to an injected path crash
# ----------------------------------------------------------------------
def slo2_fault_recovery(duration: float = 120_000.0) -> Tuple[str, Dict]:
    """Time to recover SLO attainment after a mid-run path crash.

    Both runs start with 2 of 4 paths active (the other 2 parked) at a
    load one active path cannot carry alone; path 0 crashes at 40% of
    the run and stays down for 30%.  The static baseline is left with a
    single live path and violates until the crashed path returns; the
    autotuner unparks a spare within a cooldown or two and the windows
    go green while the fault is still active.  ``recover_us`` is the
    gap between the crash and the end of the first subsequently-OK
    window (NaN-free: ``None`` when attainment never recovers in-run).
    """
    dur = scaled_duration(duration)
    crash_at, crash_for = 0.40 * dur, 0.30 * dur
    load = 0.35

    t = Table(
        ["strategy", "attain %", "pre-crash %", "during-crash %",
         "recover (us)", "unparks", "path-s"],
        title="E-SLO2  recovery of SLO attainment after a path crash "
              f"(crash at {crash_at:.0f}us for {crash_for:.0f}us, load {load})",
    )
    strategies = (("static-2", False), ("autotuned", True))
    crash = FaultSchedule().crash(path=0, at=crash_at, duration=crash_for)
    spec = SweepSpec(
        name="SLO2-fault-recovery",
        base=dict(policy="adaptive", n_paths=4, chain="heavy", load=load,
                  duration=dur, warmup=0.15 * dur, faults=crash.to_dict()),
        axes=[Axis("strategy",
                   [{"slo": _slo_spec(dur, autotune=autotune, start_paths=2,
                                      min_paths=2).to_dict()}
                    for _, autotune in strategies],
                   labels=[name for name, _ in strategies])],
    )
    sr = run_sweep(spec)
    data: Dict = {"crash_at": crash_at, "crash_for": crash_for, "load": load}
    for name, _ in strategies:
        rep = sr.get(strategy=name).slo_report
        wins = rep["windows"]
        pre = [w for w in wins if w["end"] <= crash_at]
        during = [w for w in wins if crash_at < w["end"] <= crash_at + crash_for]
        recover = None
        seen_bad = False
        for w in wins:
            if w["end"] <= crash_at:
                continue
            if not w["ok"]:
                seen_bad = True
            elif seen_bad:
                recover = w["end"] - crash_at
                break
        unparks = sum(1 for d in rep["decisions"]
                      if d["knob"] == "paths" and d["action"] == "scale_up")
        row = {
            "strategy": name,
            "attainment": rep["attainment"],
            "pre_attain": (sum(w["ok"] for w in pre) / len(pre)) if pre else 1.0,
            "crash_attain": (sum(w["ok"] for w in during) / len(during))
                            if during else 1.0,
            "recover_us": recover,
            "unparks": unparks,
            "path_seconds": rep["path_seconds"],
            "decisions": rep["decisions"],
        }
        data[name] = row
        t.add_row([name, 100.0 * row["attainment"], 100.0 * row["pre_attain"],
                   100.0 * row["crash_attain"],
                   ("-" if recover is None else recover), unparks,
                   row["path_seconds"]])
    return t.render(), data
