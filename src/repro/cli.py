"""Command-line interface.

``python -m repro <command>``:

* ``experiments`` -- list the reconstructed experiments (id + summary);
* ``run <ID ...>`` -- regenerate one or more experiments and print their
  tables (``--scale`` overrides ``REPRO_BENCH_SCALE``);
* ``policies`` -- list the path-selection policy registry;
* ``capacity [--chain NAME] [--size BYTES]`` -- print the calibrated
  single-path capacity used for load normalization;
* ``faults`` -- run one fault-injection scenario (inline flags or a JSON
  schedule file) and print the latency + availability report;
* ``sweep`` -- expand a declarative parameter grid (JSON spec file or
  inline ``--axis``/``--set`` flags), fan it out across a worker pool
  with result caching, print the per-cell table and optionally write the
  structured JSON artifact (see docs/SWEEPS.md);
* ``trace`` -- run one instrumented scenario (a ScenarioConfig JSON file
  or inline flags) and print the stage-latency breakdown plus the
  slowest packets' span timelines; ``--out DIR`` also writes the
  Perfetto-loadable trace bundle (see docs/OBSERVABILITY.md);
* ``slo`` -- run one scenario against declared service-level objectives
  (``--objective "p99 <= 800us"``, repeatable, or an SloSpec JSON file)
  and print the attainment report; ``--autotune`` arms the online
  autotuner, ``--experiment SLO1|SLO2`` regenerates the canned SLO
  experiments (see docs/SLO.md);
* ``check`` -- the runtime invariant engine (see docs/CHECKING.md):
  ``check run`` simulates one scenario with every invariant armed,
  ``check fuzz`` property-tests random scenarios (shrinking failures to
  minimal repro files), ``check diff`` differentially replays one
  scenario across harness variants, and ``check selftest`` proves the
  engine catches a deliberately broken deduplicator;
* ``report`` -- re-render those tables from a previously exported bundle
  (directory or ``events.jsonl``), no simulation needed;
* ``why`` -- run one scenario with tail forensics armed and print the
  attribution report: every packet above the latency quantile gets one
  dominant-cause label (``sched_stall``, ``queue_buildup``, ...,
  ``fault_window``, ``replication_loss``), plus the blame matrix and
  annotated exemplar timelines (see docs/FORENSICS.md);
* ``cluster`` -- rack-scale sharded simulation (see docs/CLUSTER.md):
  ``cluster run`` simulates N hosts behind a multipath fabric across a
  worker pool and prints per-host + cluster-wide tails (ClusterConfig
  ``--spec`` or inline flags, ``--jobs`` workers).  Cluster grids run
  through ``sweep`` with a ClusterConfig base; ``cluster sweep`` is a
  deprecated alias that builds that spec from its flags;
* ``ledger`` -- the append-only cross-run regression ledger
  (``benchmarks/results/LEDGER.jsonl``): ``ledger record`` appends one
  instrumented run, ``ledger list`` shows the trajectory, ``ledger
  diff`` compares two entries with bootstrap CIs and flags tail
  regressions (the CI perf gate runs this);
* ``demo`` -- run the quickstart comparison (single vs adaptive k=4).

``trace``/``report`` take ``--json`` to emit the machine-readable
``trace_report`` payload instead of terminal tables; ``why`` and
``ledger diff`` take ``--json`` for their respective payloads.

Scenario-running commands (``faults``/``trace``/``slo``/``check``) share
one flag vocabulary -- ``--policy/--paths/--load/--traffic/--duration/
--seed`` plus ``--spec`` (a JSON spec file, meaning the command's native
spec kind) and ``--out`` (write the command's JSON artifact) -- via a
common argparse parent; only the per-command ``--load`` default differs.

The CLI is a thin shell over :mod:`repro.bench`; everything it prints is
obtainable programmatically.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional


def _scenario_parent() -> argparse.ArgumentParser:
    """Shared inline-scenario flags, identical across every command that
    runs a single scenario; per-command ``--load`` defaults are applied
    with ``set_defaults`` so existing invocations keep their behaviour."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--policy", default="adaptive",
                   help="path-selection policy (see `repro policies`)")
    p.add_argument("--paths", type=int, default=4,
                   help="path count (default 4)")
    p.add_argument("--load", type=float, default=0.6,
                   help="offered load as a fraction of aggregate capacity")
    p.add_argument("--traffic", default="poisson",
                   choices=["poisson", "onoff", "incast", "flows"],
                   help="traffic model (default poisson)")
    p.add_argument("--duration", type=float, default=100.0,
                   help="traffic duration in ms (default 100)")
    p.add_argument("--seed", type=int, default=42,
                   help="root RNG seed (default 42)")
    return p


def _load_config(path: str, cls):
    """``cls.from_dict`` of the JSON file at ``path``."""
    import json

    if os.path.isdir(path):
        raise ValueError(
            f"{path} is a directory, not a {cls.__name__} JSON file; to "
            f"inspect an exported bundle use `python -m repro report {path}`"
        )
    with open(path) as fh:
        return cls.from_dict(json.load(fh))


def _scenario_from_args(args, spec_path: Optional[str] = None):
    """The ScenarioConfig a subcommand should run: the JSON file at
    ``spec_path`` when given, the shared inline flags otherwise."""
    from repro.bench.scenarios import ScenarioConfig

    if spec_path is not None:
        return _load_config(spec_path, ScenarioConfig)
    return ScenarioConfig(
        policy=args.policy, n_paths=args.paths, load=args.load,
        traffic=args.traffic, duration=args.duration * 1000.0,
        seed=args.seed,
    )


def _cmd_experiments(args) -> int:
    from repro.bench.figures import ALL_EXPERIMENTS

    for exp_id, fn in ALL_EXPERIMENTS.items():
        doc = (fn.__doc__ or "").strip().splitlines()[0]
        print(f"{exp_id:>3}  {doc}")
    return 0


def _cmd_run(args) -> int:
    from repro.bench.figures import ALL_EXPERIMENTS

    if args.scale is not None:
        os.environ["REPRO_BENCH_SCALE"] = str(args.scale)
    unknown = [e for e in args.ids if e.upper() not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiment id(s): {unknown}; "
              f"available: {sorted(ALL_EXPERIMENTS)}", file=sys.stderr)
        return 2
    for exp_id in args.ids:
        fn = ALL_EXPERIMENTS[exp_id.upper()]
        text, _data = fn()
        print(text)
        print()
    return 0


def _cmd_policies(args) -> int:
    from repro.core.policies import POLICY_NAMES, make_policy
    import numpy as np

    rng = np.random.default_rng(0)
    for name in POLICY_NAMES:
        pol = make_policy(name, rng=rng)
        doc = (type(pol).__doc__ or "").strip().splitlines()[0]
        print(f"{name:>11}  {doc}")
    return 0


def _cmd_capacity(args) -> int:
    from repro.bench.scenarios import ScenarioConfig

    cfg = ScenarioConfig(chain=args.chain, packet_size=args.size)
    cap = cfg.path_capacity_pps()
    print(f"chain={args.chain} packet={args.size}B: "
          f"{cap:,.0f} pps/path ({cap * args.size * 8 / 1e9:.2f} Gbps/path)")
    return 0


def _cmd_faults(args) -> int:
    import json
    import math

    from repro.bench.scenarios import run_scenario
    from repro.metrics.report import Table

    try:
        sched = _build_schedule(args)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    cfg = _scenario_from_args(args)
    cfg.faults = sched
    try:
        res = run_scenario(cfg)
    except ValueError as exc:  # e.g. fault target out of range
        print(f"error: {exc}", file=sys.stderr)
        return 2
    s = res.summary
    table = Table(["metric", "value"],
                  title=f"faults: {args.policy} k={args.paths} "
                        f"load={args.load}")
    table.add_row(["offered pkts", res.offered])
    table.add_row(["delivered pkts", res.stats["delivered"]])
    table.add_row(["delivered %", 100.0 * res.stats["delivered"] / res.offered])
    table.add_row(["p50 (us)", s.p50])
    table.add_row(["p99 (us)", s.p99])
    table.add_row(["p99.9 (us)", s.p999])
    print(table.render())

    av = res.availability or {}
    if av:
        print()
        at_ = Table(["metric", "value"], title="availability")
        def _fmt(x):
            if isinstance(x, float) and math.isnan(x):
                return "n/a"
            return x
        for key in ("faults", "detected", "mean_detection_lag",
                    "max_detection_lag", "mean_recovery_time",
                    "path_uptime_fraction", "ejections", "reinstatements",
                    "rerouted", "lost_to_faults", "unmatched_ejections"):
            if key in av:
                at_.add_row([key, _fmt(av[key])])
        print(at_.render())
        if args.timeline:
            print()
            for t, action, kind, target in av["timeline"]:
                print(f"  {t:12.1f}  {action:<5}  {kind:<12}  target={target}")
    if args.out:
        print()
        _write_json(args.out, res.to_dict())
    return 0


def _build_schedule(args):
    from repro.faults import FaultSchedule

    if args.spec is not None:
        return _load_config(args.spec, FaultSchedule)
    return _quick_faults(args, args.kind, args.target, args.at,
                         args.magnitude, mtbf=args.mtbf)


def _quick_faults(args, kind, target, at_frac, magnitude, mtbf=None):
    """An inline fault schedule: one ``kind`` fault on ``target`` from
    ``at_frac`` of the run for ``--fault-duration`` ms, or with ``mtbf``
    (ms) a renewal process of them on every path.  Magnitudes default
    per kind; explicit values validate strictly."""
    from repro.faults import FaultSchedule

    sched = FaultSchedule()
    at = at_frac * args.duration * 1000.0
    dur = args.fault_duration * 1000.0
    if magnitude is None:
        magnitude = 4.0 if kind == "degrade" else 1.0
    if mtbf is not None:
        for path in range(args.paths):
            sched.renewal(kind, path=path, mtbf=mtbf * 1000.0, mttr=dur,
                          magnitude=magnitude)
    elif kind == "drop_burst":
        sched.drop_burst(at=at, duration=dur, prob=magnitude)
    elif kind == "degrade":
        sched.degrade(target, at=at, duration=dur, factor=magnitude)
    else:
        getattr(sched, kind)(target, at=at, duration=dur)
    return sched


def _cmd_sweep(args) -> int:
    import json

    try:
        spec = _build_sweep_spec(args)
        if args.seed is not None:
            spec.base = {**spec.base, "seed": args.seed}
    except (OSError, TypeError, ValueError, KeyError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _run_sweep_spec(spec, args)


def _run_sweep_spec(spec, args) -> int:
    """Run ``spec`` and print the per-cell table, accounting and
    artifacts; shared by ``sweep`` and the ``cluster sweep`` alias."""
    import time

    from repro.metrics.report import Table
    from repro.sweep import run_sweep

    try:
        total = len(spec.expand())  # fail fast on bad fields before forking
        if args.check and spec.is_cluster:
            raise ValueError("--check does not apply to a cluster base; "
                             "use `repro cluster run --check` per cell")
    except (TypeError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()

    def progress(done, _total, cell):
        if args.quiet:
            return
        coords = " ".join(f"{k}={v}" for k, v in cell.params.items())
        src = "cache" if cell.cached else f"{cell.wall_s:.1f}s"
        print(f"[{done}/{total}] {coords}  p99={cell.exact['p99']:.1f}us  "
              f"({src})", file=sys.stderr)

    sr = run_sweep(spec, jobs=args.jobs,
                   cache=False if args.no_cache else None,
                   cache_dir=args.cache_dir, progress=progress,
                   telemetry=args.telemetry,
                   check=True if args.check else None)

    axis_names = [a.param for a in spec.axes]
    table = Table(
        axis_names + ["p50 (us)", "p99 (us)", "p99.9 (us)", "delivered %"],
        title=f"sweep: {spec.name} ({total} cells, jobs={sr.jobs})",
    )
    for cell in sr.cells:
        delivered = 100.0 * cell.delivered / max(cell.offered, 1)
        table.add_row([cell.params[n] for n in axis_names]
                      + [cell.summary.p50, cell.exact["p99"],
                         cell.exact["p999"], delivered])
    print(table.render())
    acct = sr.accounting()
    print(f"\n{total} cells in {time.perf_counter() - t0:.1f}s wall "
          f"({acct['cell_cpu_s']:.1f} CPU-s in simulated cells, "
          f"speedup {acct['speedup']:.2f}x, "
          f"jobs={acct['jobs']}, cache {acct['cache_hits']} hit / "
          f"{acct['cache_misses']} miss)")
    if args.telemetry:
        from repro.sweep.cache import ResultCache

        tel_root = os.path.join(str(ResultCache(args.cache_dir).root),
                                "telemetry")
        print(f"per-cell telemetry bundles under {tel_root}/<cache-key>/ "
              f"(inspect with: python -m repro report <dir>)")
    if args.out:
        sr.save(args.out)
        print(f"artifact written to {args.out}")
        from repro.obs import write_manifest

        manifest_path = args.out + ".manifest.json"
        write_manifest(manifest_path,
                       extra={"sweep": spec.name, "cells": total,
                              "cache_hits": acct["cache_hits"],
                              "cache_misses": acct["cache_misses"]})
        print(f"manifest written to {manifest_path}")
    if args.check:
        bad = [c for c in sr.cells
               if c.check_report is not None and not c.check_report["ok"]]
        print(f"invariants: {total - len(bad)}/{total} cells clean")
        if bad:
            first = bad[0].check_report["first_violation"]
            print(f"first violation (cell {bad[0].index}): "
                  f"[{first['invariant']}] t={first['time']:.1f} "
                  f"{first['message']}", file=sys.stderr)
            return 1
    return 0


def _build_sweep_spec(args):
    from repro.sweep import SweepSpec, coerce_field_value

    if args.spec is not None:
        spec = _load_config(args.spec, SweepSpec)
        if not spec.axes:
            raise ValueError(f"spec {args.spec!r} declares no axes")
        return spec
    base = {}
    for item in args.sets:
        if "=" not in item:
            raise ValueError(f"--set expects FIELD=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        base[key] = coerce_field_value(key, value)
    return SweepSpec(name=args.name, base=base,
                     axes=_parse_axes(args.axes, coerce_field_value),
                     seed_mode=args.seed_mode)


def _parse_axes(items, coerce):
    """``--axis FIELD=V1,V2,...`` flags as :class:`Axis` objects, each
    value parsed by ``coerce(field, text)``."""
    from repro.sweep import Axis

    axes = []
    for item in items:
        if "=" not in item:
            raise ValueError(f"--axis expects FIELD=V1,V2,..., got {item!r}")
        key, _, values = item.partition("=")
        axes.append(Axis(key, [coerce(key, v) for v in values.split(",")]))
    if not axes:
        raise ValueError("nothing to sweep: give --spec FILE or --axis flags")
    return axes


def _cmd_trace(args) -> int:
    import json

    from repro.bench.scenarios import run_scenario
    from repro.obs import Telemetry, json_report, render_report

    try:
        cfg = _scenario_from_args(
            args, args.spec if args.spec is not None else args.config)
        tel = Telemetry(metrics_interval=args.metrics_interval)
        res = run_scenario(cfg, telemetry=tel)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(json_report(tel.tracer, warmup=cfg.warmup,
                                     top_k=args.top,
                                     e2e_summary=res.summary),
                         indent=1, sort_keys=True))
    else:
        print(render_report(tel.tracer, warmup=cfg.warmup, top_k=args.top,
                            e2e_summary=res.summary))
    if args.out:
        paths = tel.export(args.out)
        if not args.json:
            print()
            for kind in sorted(paths):
                print(f"{kind:>8}: {paths[kind]}")
    return 0


def _cmd_report(args) -> int:
    import json
    import pathlib

    from repro.obs import json_report, load_spans, render_report

    p = pathlib.Path(args.artifact)
    # The manifest kind outranks a root events.jsonl: a cluster bundle
    # exported into a previously-used directory may sit next to stale
    # single-run artifacts, and rendering those would be misleading.
    if p.is_dir() and (_bundle_kind(p) == "cluster_bundle"
                       or not (p / "events.jsonl").exists()):
        print(f"error: {_bundle_without_telemetry(p)}", file=sys.stderr)
        return 2
    events = p / "events.jsonl" if p.is_dir() else p
    try:
        tracer = load_spans(events)
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: cannot load {events}: {exc}", file=sys.stderr)
        return 2
    if not tracer.records:
        print(f"error: no span records in {events} (was the run traced "
              f"with spans enabled?)", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(json_report(tracer, warmup=args.warmup,
                                     top_k=args.top),
                         indent=1, sort_keys=True))
        return 0
    manifest_path = events.parent / "manifest.json"
    if manifest_path.exists():
        try:
            with open(manifest_path) as fh:
                man = json.load(fh)
            print(f"run: seed={man.get('seed')} "
                  f"config_sha={str(man.get('config_sha256'))[:12]} "
                  f"code={str(man.get('code_fingerprint'))[:12]} "
                  f"at {man.get('wall_clock_utc')}\n")
        except (OSError, json.JSONDecodeError):
            pass
    print(render_report(tracer, warmup=args.warmup, top_k=args.top))
    forensics_path = events.parent / "forensics.json"
    if forensics_path.exists():
        from repro.obs import render_forensics

        try:
            with open(forensics_path) as fh:
                print()
                print(render_forensics(json.load(fh), top_k=0))
        except (OSError, json.JSONDecodeError, KeyError):
            pass
    return 0


def _bundle_kind(p):
    """The ``kind`` recorded in a bundle directory's manifest.json, or
    None when there is no readable manifest."""
    import json

    try:
        with open(p / "manifest.json") as fh:
            return json.load(fh).get("kind")
    except (OSError, json.JSONDecodeError):
        return None


def _bundle_without_telemetry(p) -> str:
    """Actionable message for a bundle directory with no usable root
    telemetry: cluster bundles point at their per-host sub-bundles,
    anything else explains how to produce telemetry in the first
    place."""
    if _bundle_kind(p) == "cluster_bundle":
        hosts = sorted(d.name for d in p.iterdir()
                       if d.is_dir() and d.name.startswith("host"))
        where = f"{p}/{hosts[0]}" if hosts else f"{p}/host0"
        return (f"{p} is a cluster bundle; telemetry lives in its "
                f"per-host sub-bundles -- pass one of "
                f"{', '.join(hosts) or 'host<k>'}, e.g. "
                f"`python -m repro report {where}`")
    return (f"no telemetry in {p} (no events.jsonl): the run was not "
            f"instrumented; re-run with `python -m repro trace --out {p}` "
            f"or repro.RunOptions(telemetry=...) to produce a bundle")


def _why_schedule(args):
    """The optional quick-fault schedule of ``repro why`` (None = clean
    run; spec files can instead carry faults inside the config)."""
    if args.fault is None:
        return None
    return _quick_faults(args, args.fault, args.fault_target, args.fault_at,
                         args.fault_magnitude)


def _cmd_why(args) -> int:
    import json

    from repro.bench.scenarios import run_scenario
    from repro.obs import Telemetry, render_forensics
    from repro.obs.forensics import ForensicsSpec

    try:
        cfg = _scenario_from_args(
            args, args.spec if args.spec is not None else args.config)
        sched = _why_schedule(args)
        if sched is not None:
            if cfg.faults is not None:
                raise ValueError(
                    "faults set both in the scenario spec and via --fault; "
                    "set them once"
                )
            cfg.faults = sched
        spec = ForensicsSpec(quantile=args.quantile, top_k=args.top,
                             dominance=args.dominance).validate()
        tel = Telemetry(metrics_interval=args.metrics_interval)
        res = run_scenario(cfg, telemetry=tel, forensics=spec)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = res.forensics_report
    if args.json:
        print(json.dumps(report, indent=1, sort_keys=True))
    else:
        s = res.summary
        print(f"scenario: {cfg.policy} k={cfg.n_paths} load={cfg.load} "
              f"seed={cfg.seed}  p50={s.p50:.1f}us p99={s.p99:.1f}us "
              f"p99.9={s.p999:.1f}us\n")
        print(render_forensics(report))
    if args.out:
        _write_json(args.out, report)
    return 0


def _ledger_path(args) -> str:
    from repro.obs.ledger import DEFAULT_LEDGER

    return args.ledger if args.ledger is not None else DEFAULT_LEDGER


def _cmd_ledger_record(args) -> int:
    import json

    from repro.bench.scenarios import run_scenario
    from repro.obs import Telemetry
    from repro.obs.ledger import append_entry, build_entry

    if args.spec is not None and not os.path.isdir(args.spec):
        # A ClusterConfig spec records a cluster entry: dispatch on the
        # inferred payload kind, mirroring repro.run()'s config dispatch.
        from repro import schemas

        try:
            with open(args.spec) as fh:
                spec_data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if schemas.infer_kind(spec_data) == "cluster_config":
            return _ledger_record_cluster(args, spec_data)

    try:
        cfg = _scenario_from_args(args, args.spec)
        tel = Telemetry(metrics_interval=0.0)
        res = run_scenario(cfg, telemetry=tel,
                           forensics=not args.no_forensics)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Throughput is recorded only when this invocation names its source:
    # a committed bench record measured some other run on some other day.
    kernel_pps, kernel_source = args.kernel_pps, None
    if kernel_pps is not None:
        kernel_source = "--kernel-pps"
    elif args.kernel_from is not None:
        try:
            with open(args.kernel_from) as fh:
                kernel_pps = json.load(fh).get("full", {}).get("pps")
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read {args.kernel_from}: {exc}",
                  file=sys.stderr)
            return 2
        kernel_source = args.kernel_from if kernel_pps is not None else None
    entry = build_entry(res, args.label, kind=args.kind,
                        kernel_pps=kernel_pps,
                        kernel_pps_source=kernel_source)
    index = append_entry(entry, _ledger_path(args))
    s = res.summary
    print(f"recorded entry {index} label={args.label!r} "
          f"p50={s.p50:.1f}us p99={s.p99:.1f}us p99.9={s.p999:.1f}us "
          f"-> {_ledger_path(args)}")
    return 0


def _ledger_record_cluster(args, spec_data) -> int:
    """``repro ledger record --spec <ClusterConfig json>``: run the
    cluster and append a cluster-kind entry."""
    from repro.cluster import ClusterConfig, run_cluster
    from repro.obs.ledger import append_entry, build_cluster_entry

    try:
        cfg = ClusterConfig.from_dict(spec_data)
        res = run_cluster(cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    entry = build_cluster_entry(
        res, args.label,
        kind=args.kind if args.kind != "run" else "cluster",
    )
    index = append_entry(entry, _ledger_path(args))
    s = res.summary
    print(f"recorded entry {index} label={args.label!r} "
          f"[cluster, {res.n_hosts} hosts] "
          f"p50={s.p50:.1f}us p99={s.p99:.1f}us p99.9={s.p999:.1f}us "
          f"-> {_ledger_path(args)}")
    return 0


def _cmd_ledger_list(args) -> int:
    from repro.obs.ledger import load_ledger, render_ledger

    try:
        entries = load_ledger(_ledger_path(args))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not entries:
        print(f"ledger {_ledger_path(args)} is empty; "
              f"run `repro ledger record` first")
        return 0
    print(render_ledger(entries))
    return 0


def _cmd_ledger_diff(args) -> int:
    import json

    from repro.obs.ledger import (
        diff_entries, load_ledger, render_diff, select_entry,
    )

    try:
        entries = load_ledger(_ledger_path(args))
        base = select_entry(entries, args.base)
        cand = select_entry(entries, args.candidate)
        percentiles = ([float(p) for p in args.percentiles]
                       if args.percentiles else (50.0, 99.0, 99.9))
        diff = diff_entries(base, cand, percentiles=percentiles,
                            max_regress=args.max_regress)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(diff, indent=1, sort_keys=True))
    else:
        print(render_diff(diff))
    if args.out:
        _write_json(args.out, diff)
    return 0 if diff["ok"] else 1


def _cmd_demo(args) -> int:
    import repro
    from repro import ScenarioConfig, Table

    table = Table(["config", "p50", "p99", "p99.9"],
                  title="demo: single vs multipath (latency, us)")
    for label, policy, k in [("single-path", "single", 1),
                             ("adaptive k=4", "adaptive", 4)]:
        # The same offered rate on both hosts: 40% of one path's capacity.
        cfg = ScenarioConfig(policy=policy, n_paths=k, load=0.4 / k,
                             duration=args.duration * 1000.0,
                             drain=10_000.0, seed=7)
        try:
            s = repro.run(cfg).summary
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        table.add_row([label, s.p50, s.p99, s.p999])
    print(table.render())
    return 0


def _cluster_from_args(args):
    """The ClusterConfig a cluster subcommand should run: the JSON file
    at ``--spec`` when given, N uniform hosts from the shared inline
    scenario flags plus the fabric flags otherwise."""
    from repro.bench.scenarios import ScenarioConfig
    from repro.cluster import ClusterConfig
    from repro.net.fabric import FabricConfig

    if args.spec is not None:
        return _load_config(args.spec, ClusterConfig)
    template = ScenarioConfig(
        policy=args.policy, n_paths=args.paths, load=args.load,
        traffic=args.traffic, duration=args.duration * 1000.0,
    )
    fabric = FabricConfig(
        n_spines=args.spines, base_latency=args.base_latency,
        spine_skew=args.spine_skew, jitter_scale=args.jitter,
        steering=args.steering, loss_prob=args.loss,
    )
    return ClusterConfig.uniform_hosts(
        args.hosts, template, fabric, pattern=args.pattern,
        incast_target=args.incast_target, seed=args.seed, epoch=args.epoch,
    )


def _cmd_cluster_run(args) -> int:
    import json

    from repro.check.invariants import InvariantViolation
    from repro.cluster import run_cluster
    from repro.metrics.report import Table

    try:
        cfg = _cluster_from_args(args)
        res = run_cluster(cfg, workers=args.jobs,
                          telemetry_dir=args.telemetry,
                          check=True if args.check else None)
    except InvariantViolation as exc:
        print(f"cluster invariant violation: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(res.to_dict(), indent=1, sort_keys=True))
    else:
        table = Table(
            ["host", "delivered", "remote %", "p50 (us)", "p99 (us)",
             "p99.9 (us)"],
            title=f"cluster: {cfg.n_hosts} hosts pattern={cfg.pattern} "
                  f"{cfg.fabric.steering}x{cfg.fabric.n_spines} "
                  f"(workers={res.workers})",
        )
        for h in res.hosts:
            s = h["summary"]
            sent = sum(h["router"]["sent"].values())
            remote = 100.0 * sent / max(h["router"]["generated"], 1)
            table.add_row([h["name"], h["delivered"], remote,
                           s["p50"], s["p99"], s["p999"]])
        cs = res.summary
        c = res.cluster
        table.add_row(["cluster", c["delivered"],
                       100.0 * c["envelopes_sent"] / max(c["offered"], 1),
                       cs.p50, cs.p99, cs.p999])
        print(table.render())
        print(f"\nenvelopes: {c['envelopes_sent']} sent, "
              f"{c['envelopes_received']} received, "
              f"{c['fabric_dropped']} dropped in fabric; "
              f"delivery {100.0 * c['delivery_ratio']:.2f}%; "
              f"epoch {c['epoch_us']:.0f}us "
              f"({res.wall_s:.1f}s wall, workers={res.workers})")
        if args.check:
            cons = c.get("conservation", {})
            print(f"cross-shard conservation: "
                  f"{'ok' if cons.get('ok') else 'VIOLATED'}")
        if args.telemetry:
            print(f"per-host bundles under {args.telemetry}/host<k>/ "
                  f"(inspect with: python -m repro report "
                  f"{args.telemetry}/host0)")
    if args.out:
        _write_json(args.out, res.to_dict())
    return 0


def _cmd_cluster_sweep(args) -> int:
    """Deprecated alias: build the cluster-base :class:`SweepSpec` from
    the flags and forward to ``repro sweep``."""
    import json

    from repro.sweep import SweepSpec
    from repro.sweep.spec import coerce_cluster_value

    print("warning: `repro cluster sweep` is deprecated; write a sweep "
          "spec whose base is a ClusterConfig and run `repro sweep "
          "--spec FILE` (docs/CLUSTER.md, Sweeps)", file=sys.stderr)
    try:
        spec = SweepSpec(name=args.name,
                         base=_cluster_from_args(args).to_dict(),
                         axes=_parse_axes(args.axes, coerce_cluster_value),
                         single_path_baseline=False)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _run_sweep_spec(spec, args)


def _cmd_slo(args) -> int:
    import json

    from repro.bench.scenarios import run_scenario
    from repro.metrics.report import Table
    from repro.slo import SloSpec

    if args.experiment is not None:
        from repro.bench.figures import ALL_EXPERIMENTS

        exp_id = args.experiment.upper()
        if exp_id not in ("SLO1", "SLO2"):
            print(f"error: unknown SLO experiment {args.experiment!r}; "
                  f"available: SLO1, SLO2", file=sys.stderr)
            return 2
        if args.scale is not None:
            os.environ["REPRO_BENCH_SCALE"] = str(args.scale)
        text, _data = ALL_EXPERIMENTS[exp_id]()
        print(text)
        return 0

    try:
        if args.spec is not None:
            spec = _load_config(args.spec, SloSpec)
        else:
            objectives = args.objectives or ["p99 <= 500us"]
            spec = SloSpec(
                objectives=tuple(objectives),
                window=args.window * 1000.0,
                autotune=args.autotune,
                start_paths=args.start_paths,
            )
        spec.validate()
        cfg = _scenario_from_args(args)
        cfg.slo = spec
        res = run_scenario(cfg)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    rep = res.slo_report
    table = Table(["metric", "value"],
                  title=f"slo: {args.policy} k={args.paths} load={args.load} "
                        f"[{'; '.join(o.canonical() for o in spec.objectives)}]")
    table.add_row(["windows", rep["n_windows"]])
    table.add_row(["attained", rep["attained"]])
    table.add_row(["attainment %", 100.0 * rep["attainment"]])
    table.add_row(["path-seconds", rep["path_seconds"]])
    table.add_row(["p99 (us)", res.summary.p99])
    table.add_row(["p99.9 (us)", res.summary.p999])
    print(table.render())
    if rep["decisions"]:
        print()
        dt = Table(["time (us)", "action", "knob", "from", "to", "reason"],
                   title="autotuner decisions")
        for d in rep["decisions"]:
            dt.add_row([d["time"], d["action"], d["knob"], d["from"],
                        d["to"], d["reason"]])
        print(dt.render())
    if args.windows:
        print()
        wt = Table(["start", "end", "count", "delivery %", "ok", "violations"],
                   title="attainment windows")
        for w in rep["windows"]:
            wt.add_row([w["start"], w["end"], w["count"],
                        w["metrics"].get("delivery", 100.0),
                        "yes" if w["ok"] else "NO",
                        "; ".join(w["violations"]) or "-"])
        print(wt.render())
    if args.out is not None:
        print()
        _write_json(args.out, rep)
    return 0


def _write_json(path: str, payload) -> None:
    import json

    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")


def _cmd_check_run(args) -> int:
    import json

    from repro.bench.scenarios import run_scenario
    from repro.check import CheckSpec, InvariantViolation
    from repro.metrics.report import Table

    try:
        cfg = _scenario_from_args(args, args.spec)
        spec = CheckSpec(sample_interval=args.sample_interval,
                         strict=args.strict)
        res = run_scenario(cfg, check=spec)
    except InvariantViolation as exc:
        print(f"invariant violation (strict): {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    rep = res.check_report
    table = Table(["invariant", "checks"],
                  title=f"check: {cfg.policy} k={cfg.n_paths} "
                        f"load={cfg.load} ({rep['samples']} samples)")
    for name, count in rep["invariants"].items():
        table.add_row([name, count])
    print(table.render())
    if rep["ok"]:
        print("\nall invariants held")
    else:
        first = rep["first_violation"]
        print(f"\n{rep['violation_count']} violation(s); first: "
              f"[{first['invariant']}] t={first['time']:.1f} "
              f"{first['message']}")
    if args.out:
        _write_json(args.out, rep)
    return 0 if rep["ok"] else 1


def _cmd_check_fuzz(args) -> int:
    from repro.check.fuzz import fuzz_scenarios

    def progress(i, cfg, report):
        if args.quiet:
            return
        status = "ok" if report["ok"] else (
            f"VIOLATION [{report['first_violation']['invariant']}]")
        faults = " +faults" if cfg.faults is not None else ""
        print(f"[{i + 1}/{args.cases}] {cfg.policy} k={cfg.n_paths} "
              f"{cfg.traffic} load={cfg.load:.2f}{faults}  {status}",
              file=sys.stderr)

    report = fuzz_scenarios(cases=args.cases, seed=args.seed,
                            out_dir=args.repro_dir,
                            sample_interval=args.sample_interval,
                            shrink=not args.no_shrink, progress=progress)
    if report["ok"]:
        print(f"{args.cases} fuzzed scenarios, all invariants held")
    else:
        print(f"{len(report['failures'])}/{args.cases} scenarios violated "
              f"an invariant:")
        for f in report["failures"]:
            v = f.get("shrunk_first_violation") or f["first_violation"]
            where = f" (repro: {f['repro_path']})" if "repro_path" in f else ""
            print(f"  case {f['case']}: [{v['invariant']}] "
                  f"{v['message']}{where}")
    if args.out:
        _write_json(args.out, report)
    return 0 if report["ok"] else 1


def _cmd_check_diff(args) -> int:
    import json

    from repro.check.diff import diff_scenario
    from repro.metrics.report import Table

    try:
        cfg = _scenario_from_args(args, args.spec)
        report = diff_scenario(cfg, jobs=args.jobs if args.jobs else 2,
                               variants=args.variants or None)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    table = Table(["variant", "identical", "first drift"],
                  title=f"diff: {cfg.policy} k={cfg.n_paths} "
                        f"load={cfg.load}")
    for name, entry in report["variants"].items():
        table.add_row([name, "yes" if entry["identical"] else "NO",
                       entry["diffs"][0] if entry["diffs"] else "-"])
    for name, reason in report["skipped"].items():
        table.add_row([name, "skipped", reason])
    print(table.render())
    print("\nall variants identical" if report["all_identical"]
          else "\nDRIFT DETECTED (see diffs above)")
    if args.out:
        _write_json(args.out, report)
    return 0 if report["all_identical"] else 1


def _cmd_check_selftest(args) -> int:
    from repro.check.selftest import mutation_selftest

    report = mutation_selftest(seed=args.seed)
    print(f"mutation: {report['mutation']}")
    print(f"intact run clean:   {report['intact_clean']}")
    print(f"violation caught:   {report['violation_caught']} "
          f"({report['broken_violation_count']} violations)")
    if report["first_violation"] is not None:
        first = report["first_violation"]
        print(f"first violation:    [{first['invariant']}] "
              f"t={first['time']:.1f} {first['message']}")
    print(f"result drift found: {report['drift_detected']}")
    for line in report["drift_example"]:
        print(f"  {line}")
    print("\nself-test PASSED" if report["ok"] else "\nself-test FAILED")
    if args.out:
        _write_json(args.out, report)
    return 0 if report["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multipath intra-host data plane (CLUSTER'22 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("experiments", help="list reconstructed experiments"
                   ).set_defaults(func=_cmd_experiments)

    p_run = sub.add_parser("run", help="regenerate experiment(s) by id")
    p_run.add_argument("ids", nargs="+", help="experiment ids, e.g. F3 T1 A2")
    p_run.add_argument("--scale", type=float, default=None,
                       help="duration scale factor (overrides REPRO_BENCH_SCALE)")
    p_run.set_defaults(func=_cmd_run)

    sub.add_parser("policies", help="list path-selection policies"
                   ).set_defaults(func=_cmd_policies)

    p_cap = sub.add_parser("capacity", help="print calibrated path capacity")
    p_cap.add_argument("--chain", default="heavy")
    p_cap.add_argument("--size", type=int, default=1554)
    p_cap.set_defaults(func=_cmd_capacity)

    p_flt = sub.add_parser("faults", parents=[_scenario_parent()],
                           help="run a fault-injection scenario")
    p_flt.add_argument("--spec", default=None,
                       help="JSON fault-schedule file (see docs/FAULTS.md); "
                            "overrides the inline fault flags")
    p_flt.add_argument("--kind", default="crash",
                       choices=["crash", "hang", "degrade", "drop_burst",
                                "sched_freeze"])
    p_flt.add_argument("--target", type=int, default=0,
                       help="path index to fault (ignored for drop_burst)")
    p_flt.add_argument("--at", type=float, default=0.3,
                       help="fault onset as a fraction of the run (default 0.3)")
    p_flt.add_argument("--fault-duration", type=float, default=20.0,
                       help="fault duration in ms (default 20)")
    p_flt.add_argument("--mtbf", type=float, default=None,
                       help="per-path MTBF in ms: replaces the one-shot fault "
                            "with a renewal process on every path")
    p_flt.add_argument("--magnitude", type=float, default=None,
                       help="drop probability (drop_burst, default 1.0) or "
                            "slowdown factor (degrade, default 4.0)")
    p_flt.add_argument("--timeline", action="store_true",
                       help="also print the applied fault timeline")
    p_flt.add_argument("--out", default=None,
                       help="write the SimulationResult JSON here")
    p_flt.set_defaults(func=_cmd_faults, load=0.55)

    p_sw = sub.add_parser("sweep",
                          help="run a parameter sweep (parallel, cached)")
    p_sw.add_argument("--spec", default=None,
                      help="SweepSpec JSON file (docs/SWEEPS.md; a "
                           "ClusterConfig base sweeps clusters); overrides "
                           "the inline --axis/--set flags")
    p_sw.add_argument("--axis", action="append", default=[], dest="axes",
                      metavar="FIELD=V1,V2,...",
                      help="swept ScenarioConfig field (repeatable; cross "
                           "product in flag order)")
    p_sw.add_argument("--set", action="append", default=[], dest="sets",
                      metavar="FIELD=VALUE",
                      help="fixed ScenarioConfig field override (repeatable)")
    p_sw.add_argument("--name", default="cli-sweep",
                      help="sweep name recorded in the artifact")
    p_sw.add_argument("--seed-mode", choices=["fixed", "derived"],
                      default="fixed",
                      help="per-cell seed derivation (docs/SWEEPS.md)")
    p_sw.add_argument("--jobs", type=int, default=None,
                      help="worker processes (default: REPRO_SWEEP_JOBS or "
                           "cpu count; 1 = run inline)")
    p_sw.add_argument("--no-cache", action="store_true",
                      help="bypass the .repro-cache result cache")
    p_sw.add_argument("--cache-dir", default=None,
                      help="cache root (default .repro-cache or "
                           "REPRO_CACHE_DIR)")
    p_sw.add_argument("--out", default=None,
                      help="write the SweepResult JSON artifact here")
    p_sw.add_argument("--quiet", action="store_true",
                      help="suppress per-cell progress lines")
    p_sw.add_argument("--telemetry", action="store_true",
                      help="instrument every cell and persist its trace "
                           "bundle under the cache root (docs/OBSERVABILITY.md)")
    p_sw.add_argument("--seed", type=int, default=None,
                      help="base seed override merged into the sweep's base "
                           "config (default: spec / ScenarioConfig default)")
    p_sw.add_argument("--check", action="store_true",
                      help="arm the runtime invariant engine in every cell "
                           "(bypasses the cache; docs/CHECKING.md)")
    p_sw.set_defaults(func=_cmd_sweep)

    p_tr = sub.add_parser("trace", parents=[_scenario_parent()],
                          help="run one instrumented scenario and print its "
                               "stage breakdown")
    p_tr.add_argument("config", nargs="?", default=None,
                      help="ScenarioConfig JSON file (alias for --spec)")
    p_tr.add_argument("--spec", default=None,
                      help="ScenarioConfig JSON file (overrides the inline "
                           "scenario flags)")
    p_tr.add_argument("--top", type=int, default=3,
                      help="slowest packets to show timelines for (default 3)")
    p_tr.add_argument("--metrics-interval", type=float, default=1000.0,
                      help="metric snapshot cadence in sim-us (0 disables)")
    p_tr.add_argument("--out", default=None,
                      help="also export the trace bundle (trace.json + "
                           "events.jsonl + metrics.json + manifest.json) here")
    p_tr.add_argument("--json", action="store_true",
                      help="emit the schema-versioned trace_report JSON "
                           "instead of terminal tables")
    p_tr.set_defaults(func=_cmd_trace, load=0.7)

    p_rep = sub.add_parser("report",
                           help="render breakdown tables from an exported "
                                "trace bundle")
    p_rep.add_argument("artifact",
                       help="bundle directory or events.jsonl path")
    p_rep.add_argument("--top", type=int, default=3,
                       help="slowest packets to show timelines for (default 3)")
    p_rep.add_argument("--warmup", type=float, default=0.0,
                       help="discard spans completing before this sim time (us)")
    p_rep.add_argument("--json", action="store_true",
                       help="emit the schema-versioned trace_report JSON "
                            "instead of terminal tables")
    p_rep.set_defaults(func=_cmd_report)

    p_why = sub.add_parser("why", parents=[_scenario_parent()],
                           help="run one scenario with tail forensics and "
                                "print the cause-attribution report")
    p_why.add_argument("config", nargs="?", default=None,
                       help="ScenarioConfig JSON file (alias for --spec)")
    p_why.add_argument("--spec", default=None,
                       help="ScenarioConfig JSON file (overrides the inline "
                            "scenario flags; may carry faults)")
    p_why.add_argument("--quantile", type=float, default=99.0,
                       help="analyze packets above this latency percentile "
                            "(default 99)")
    p_why.add_argument("--top", type=int, default=3,
                       help="exemplar packets to show timelines for "
                            "(default 3)")
    p_why.add_argument("--dominance", type=float, default=0.5,
                       help="stage share of e2e latency needed to name a "
                            "single cause (default 0.5; below it: mixed)")
    p_why.add_argument("--metrics-interval", type=float, default=1000.0,
                       help="queue-depth snapshot cadence in sim-us "
                            "(0 disables the exemplar depth join)")
    p_why.add_argument("--fault", default=None,
                       choices=["crash", "hang", "degrade", "drop_burst",
                                "sched_freeze"],
                       help="inject one fault (quick form; full schedules "
                            "go in the --spec config)")
    p_why.add_argument("--fault-target", type=int, default=0,
                       help="path index to fault (default 0)")
    p_why.add_argument("--fault-at", type=float, default=0.3,
                       help="fault onset as a fraction of the run "
                            "(default 0.3)")
    p_why.add_argument("--fault-duration", type=float, default=20.0,
                       help="fault duration in ms (default 20)")
    p_why.add_argument("--fault-magnitude", type=float, default=None,
                       help="drop probability (drop_burst) or slowdown "
                            "factor (degrade)")
    p_why.add_argument("--json", action="store_true",
                       help="emit the schema-versioned forensics_report "
                            "JSON instead of terminal tables")
    p_why.add_argument("--out", default=None,
                       help="write the forensics_report JSON here")
    p_why.set_defaults(func=_cmd_why, load=0.7)

    p_led = sub.add_parser("ledger",
                           help="append-only cross-run regression ledger "
                                "(record / list / diff)")
    led_sub = p_led.add_subparsers(dest="ledger_command", required=True)

    p_lr = led_sub.add_parser("record", parents=[_scenario_parent()],
                              help="run one instrumented scenario and "
                                   "append its entry to the ledger")
    p_lr.add_argument("--spec", default=None,
                      help="ScenarioConfig JSON file (overrides the inline "
                           "scenario flags)")
    p_lr.add_argument("--label", required=True,
                      help="entry label (diffs pick the latest per label)")
    p_lr.add_argument("--kind", default="run",
                      help="entry kind tag (default 'run'; e.g. 'gate', "
                           "'baseline')")
    p_lr.add_argument("--ledger", default=None,
                      help="ledger file (default "
                           "benchmarks/results/LEDGER.jsonl)")
    p_lr.add_argument("--no-forensics", action="store_true",
                      help="skip tail attribution (entry carries no "
                           "cause histogram)")
    p_lr.add_argument("--kernel-pps", type=float, default=None,
                      help="record this wall-clock kernel throughput "
                           "(informational)")
    p_lr.add_argument("--kernel-from", default=None,
                      help="read kernel pps from a BENCH_KERNEL.json-style "
                           "file ('full.pps'); without this or "
                           "--kernel-pps the entry records none")
    p_lr.set_defaults(func=_cmd_ledger_record)

    p_ll = led_sub.add_parser("list", help="show the ledger trajectory")
    p_ll.add_argument("--ledger", default=None,
                      help="ledger file (default "
                           "benchmarks/results/LEDGER.jsonl)")
    p_ll.set_defaults(func=_cmd_ledger_list)

    p_ld = led_sub.add_parser("diff",
                              help="compare two ledger entries with "
                                   "bootstrap CIs; exit 1 on tail "
                                   "regression")
    p_ld.add_argument("base", help="entry index or label (latest wins)")
    p_ld.add_argument("candidate", help="entry index or label")
    p_ld.add_argument("--ledger", default=None,
                      help="ledger file (default "
                           "benchmarks/results/LEDGER.jsonl)")
    p_ld.add_argument("--max-regress", type=float, default=0.2,
                      help="tail regression threshold as a fraction "
                           "(default 0.2 = 20%%)")
    p_ld.add_argument("--percentile", action="append", default=[],
                      dest="percentiles", metavar="PCT",
                      help="percentile to compare (repeatable; default "
                           "50, 99, 99.9)")
    p_ld.add_argument("--json", action="store_true",
                      help="emit the schema-versioned ledger_diff JSON "
                           "instead of terminal tables")
    p_ld.add_argument("--out", default=None,
                      help="write the ledger_diff JSON here")
    p_ld.set_defaults(func=_cmd_ledger_diff)

    p_slo = sub.add_parser("slo", parents=[_scenario_parent()],
                           help="run a scenario against declared SLOs "
                                "(optionally autotuned)")
    p_slo.add_argument("--experiment", default=None, metavar="SLO1|SLO2",
                       help="regenerate a canned SLO experiment instead of "
                            "a single run")
    p_slo.add_argument("--scale", type=float, default=None,
                       help="experiment duration scale factor "
                            "(with --experiment)")
    p_slo.add_argument("--spec", default=None,
                       help="SloSpec JSON file (see docs/SLO.md); overrides "
                            "the inline objective flags")
    p_slo.add_argument("--objective", action="append", default=[],
                       dest="objectives", metavar="'p99 <= 800us'",
                       help="SLO objective (repeatable; default "
                            "'p99 <= 500us')")
    p_slo.add_argument("--window", type=float, default=5.0,
                       help="attainment window in ms (default 5)")
    p_slo.add_argument("--autotune", action="store_true",
                       help="arm the online autotuner")
    p_slo.add_argument("--start-paths", type=int, default=None,
                       help="initial active path count (rest parked)")
    p_slo.add_argument("--windows", action="store_true",
                       help="also print the per-window attainment table")
    p_slo.add_argument("--out", default=None,
                       help="write the slo_report JSON here")
    p_slo.set_defaults(func=_cmd_slo)

    p_chk = sub.add_parser("check",
                           help="runtime invariant engine: armed runs, "
                                "scenario fuzzing, differential replay")
    chk_sub = p_chk.add_subparsers(dest="check_command", required=True)

    p_cr = chk_sub.add_parser("run", parents=[_scenario_parent()],
                              help="run one scenario with every invariant "
                                   "armed and print the check report")
    p_cr.add_argument("--spec", default=None,
                      help="ScenarioConfig JSON file (overrides the inline "
                           "scenario flags)")
    p_cr.add_argument("--sample-interval", type=float, default=500.0,
                      help="conservation sample cadence in sim-us "
                           "(default 500)")
    p_cr.add_argument("--strict", action="store_true",
                      help="raise on the first violation instead of "
                           "recording and continuing")
    p_cr.add_argument("--out", default=None,
                      help="write the check_report JSON here")
    p_cr.set_defaults(func=_cmd_check_run)

    p_cf = chk_sub.add_parser("fuzz",
                              help="property-test random scenarios with all "
                                   "invariants armed (shrinks failures)")
    p_cf.add_argument("--cases", type=int, default=25,
                      help="scenarios to generate (default 25)")
    p_cf.add_argument("--seed", type=int, default=0,
                      help="fuzzer seed; same seed = same cases (default 0)")
    p_cf.add_argument("--sample-interval", type=float, default=250.0,
                      help="conservation sample cadence in sim-us "
                           "(default 250)")
    p_cf.add_argument("--repro-dir", default=None,
                      help="write minimal repro configs for failing cases "
                           "into this directory")
    p_cf.add_argument("--no-shrink", action="store_true",
                      help="report original failing configs without "
                           "shrinking them")
    p_cf.add_argument("--quiet", action="store_true",
                      help="suppress per-case progress lines")
    p_cf.add_argument("--out", default=None,
                      help="write the fuzz_report JSON here")
    p_cf.set_defaults(func=_cmd_check_fuzz)

    p_cd = chk_sub.add_parser("diff", parents=[_scenario_parent()],
                              help="differentially replay one scenario "
                                   "across harness variants")
    p_cd.add_argument("--spec", default=None,
                      help="ScenarioConfig JSON file (overrides the inline "
                           "scenario flags)")
    p_cd.add_argument("--jobs", type=int, default=None,
                      help="worker processes for the jobs variant "
                           "(default 2)")
    p_cd.add_argument("--variant", action="append", default=[],
                      dest="variants",
                      choices=["telemetry", "faults_kwarg", "check_armed",
                               "jobs"],
                      help="restrict to specific variants (repeatable; "
                           "default: all applicable)")
    p_cd.add_argument("--out", default=None,
                      help="write the diff_report JSON here")
    p_cd.set_defaults(func=_cmd_check_diff)

    p_cs = chk_sub.add_parser("selftest",
                              help="prove the engine catches a deliberately "
                                   "broken deduplicator")
    p_cs.add_argument("--seed", type=int, default=42,
                      help="scenario seed (default 42)")
    p_cs.add_argument("--out", default=None,
                      help="write the self-test report JSON here")
    p_cs.set_defaults(func=_cmd_check_selftest)

    p_cl = sub.add_parser("cluster",
                          help="rack-scale sharded simulation "
                               "(run / sweep; docs/CLUSTER.md)")
    cl_sub = p_cl.add_subparsers(dest="cluster_command", required=True)

    cluster_parent = argparse.ArgumentParser(add_help=False,
                                             parents=[_scenario_parent()])
    cluster_parent.add_argument("--spec", default=None,
                                help="ClusterConfig JSON file (overrides the "
                                     "inline scenario/fabric flags)")
    cluster_parent.add_argument("--hosts", type=int, default=4,
                                help="host count (default 4); the inline "
                                     "scenario flags become every host's "
                                     "template")
    cluster_parent.add_argument("--pattern", default="uniform",
                                choices=["uniform", "incast"],
                                help="flow destination pattern")
    cluster_parent.add_argument("--incast-target", type=int, default=0,
                                help="fan-in target host id (pattern=incast)")
    cluster_parent.add_argument("--spines", type=int, default=4,
                                help="fabric spine paths (default 4)")
    cluster_parent.add_argument("--base-latency", type=float, default=50.0,
                                help="minimum inter-host wire latency in us "
                                     "(the lookahead; default 50)")
    cluster_parent.add_argument("--spine-skew", type=float, default=0.0,
                                help="extra latency per spine index (us)")
    cluster_parent.add_argument("--jitter", type=float, default=0.0,
                                help="in-fabric lognormal jitter scale (us)")
    cluster_parent.add_argument("--steering", default="ecmp",
                                choices=["ecmp", "flowlet"],
                                help="fabric steering policy")
    cluster_parent.add_argument("--loss", type=float, default=0.0,
                                help="in-fabric per-packet drop probability")
    cluster_parent.add_argument("--epoch", type=float, default=None,
                                help="sync epoch in us (default: the "
                                     "lookahead, i.e. --base-latency)")
    cluster_parent.add_argument("--jobs", type=int, default=None,
                                help="worker processes (default: "
                                     "REPRO_CLUSTER_WORKERS or cpu count, "
                                     "capped at the host count; 1 = inline)")

    p_clr = cl_sub.add_parser("run", parents=[cluster_parent],
                              help="run one cluster scenario and print "
                                   "per-host + cluster-wide tails")
    p_clr.add_argument("--check", action="store_true",
                       help="arm per-host invariants plus the cross-shard "
                            "conservation check")
    p_clr.add_argument("--telemetry", default=None, metavar="DIR",
                       help="export per-host trace bundles under DIR/host<k> "
                            "with a cluster manifest on top")
    p_clr.add_argument("--json", action="store_true",
                       help="emit the schema-versioned cluster_result JSON "
                            "instead of terminal tables")
    p_clr.add_argument("--out", default=None,
                       help="write the ClusterResult JSON here")
    p_clr.set_defaults(func=_cmd_cluster_run, duration=20.0)

    p_cls = cl_sub.add_parser("sweep", parents=[cluster_parent],
                              help="deprecated alias of `repro sweep` "
                                   "over a cluster base (--jobs: cells)")
    p_cls.add_argument("--axis", action="append", default=[], dest="axes",
                       metavar="FIELD=V1,V2,...",
                       help="swept field (repeatable; scenario fields, "
                            "'hosts', 'pattern', 'seed', 'epoch', or "
                            "'fabric.<field>')")
    p_cls.add_argument("--name", default="cli-cluster-sweep",
                       help="sweep name recorded in the artifact")
    p_cls.add_argument("--quiet", action="store_true",
                       help="suppress per-cell progress lines")
    p_cls.add_argument("--out", default=None,
                       help="write the sweep_result JSON artifact here")
    p_cls.set_defaults(func=_cmd_cluster_sweep, duration=20.0,
                       no_cache=False, cache_dir=None, telemetry=False,
                       check=False)

    p_demo = sub.add_parser("demo", help="quick single-vs-multipath comparison")
    p_demo.add_argument("--duration", type=float, default=100.0,
                        help="traffic duration in ms (default 100)")
    p_demo.set_defaults(func=_cmd_demo)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
