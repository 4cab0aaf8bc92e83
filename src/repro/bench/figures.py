"""Regeneration functions for every reconstructed figure and table.

Each ``fig_*`` / ``table_*`` / ``ablation_*`` function runs the full
experiment and returns ``(text, data)``: ``text`` is the rendered
paper-style output, ``data`` the raw values the bench assertions and
EXPERIMENTS.md use.  Durations respect ``REPRO_BENCH_SCALE``.

The evaluation chain is the 5-element ``heavy`` SFC (classifier ->
firewall -> DPI -> NAT -> monitor) unless an experiment says otherwise:
its ~3 µs/packet cost matches the service chains the NFV literature
evaluates and keeps packet counts tractable.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

import numpy as np

from repro.bench.runner import scaled_duration
from repro.bench.scenarios import ScenarioConfig, build_runtime, run_scenario
from repro.sweep import Axis, SweepSpec, run_sweep
from repro.faults import FaultSchedule
from repro.core.detector import DetectorConfig, StragglerDetector
from repro.core.policies import AdaptiveMultipath, FlowletSwitching
from repro.dataplane.vcpu import (
    CONTENDED_CORE,
    DEDICATED_CORE,
    JitterParams,
    SHARED_CORE,
)
from repro.metrics.report import Table

#: Policies compared in the headline experiments.
HEADLINE_POLICIES = ("single", "hash", "spray", "leastload", "adaptive", "redundant2")

_JITTER_PROFILES = [
    ("none (bare-metal-like)", JitterParams()),
    ("dedicated core", DEDICATED_CORE),
    ("shared core", SHARED_CORE),
    ("contended core", CONTENDED_CORE),
]


def _sweep_base(duration: float, **kw) -> Dict:
    """Config fields every experiment starts from: heavy chain, scaled
    duration, 15% warmup.  A :class:`SweepSpec` base as it stands; the
    few hand-run experiments build ``ScenarioConfig(**...)`` from it."""
    base = dict(chain="heavy", duration=scaled_duration(duration),
                warmup=scaled_duration(duration) * 0.15)
    base.update(kw)
    return base


# ----------------------------------------------------------------------
# F1 -- motivation: the virtualization tail tax
# ----------------------------------------------------------------------
def fig1_motivation(duration: float = 60_000.0) -> Tuple[str, Dict]:
    """Latency percentiles of a single-path host across jitter profiles.

    Expected shape: medians barely move, p99/p99.9 inflate by orders of
    magnitude as scheduling jitter grows -- the 'last mile' tail tax.
    """
    labels = [label for label, _ in _JITTER_PROFILES]
    spec = SweepSpec(
        name="F1-motivation",
        base=_sweep_base(duration, policy="single", n_paths=1, load=0.6),
        axes=[Axis("jitter", ["none", "dedicated", "shared", "contended"],
                   labels=labels)],
    )
    sr = run_sweep(spec)
    t = Table(
        ["vCPU profile", "p50 (us)", "p99 (us)", "p99.9 (us)", "max (us)"],
        title="F1  single-path latency vs scheduling-jitter profile (load 0.6)",
    )
    data = {}
    for label in labels:
        s = sr.get(jitter=label).summary
        t.add_row([label, s.p50, s.p99, s.p999, s.max])
        data[label] = s
    return t.render(), data


# ----------------------------------------------------------------------
# F2 -- last-mile latency breakdown
# ----------------------------------------------------------------------
def fig2_breakdown(duration: float = 60_000.0) -> Tuple[str, Dict]:
    """Per-stage latency decomposition on a single path.

    Stages from packet timestamps: NIC rx (t_enq - t_nic), queue wait
    (t_deq - t_enq), service incl. stalls (t_done - t_deq).  Expected
    shape: at the mean, service dominates; at p99, queue wait + stall
    time dominate -- the tail is a *waiting* problem, not a work problem.
    """
    cfg = ScenarioConfig(**_sweep_base(duration, policy="single", n_paths=1,
                                       load=0.7, jitter=SHARED_CORE))
    # Collect stamps via a delivery hook; it runs before the sink
    # recycles the packet.
    samples: List[Tuple[float, float, float]] = []

    def collect(pkt):
        samples.append((pkt.t_enq - pkt.t_nic, pkt.t_deq - pkt.t_enq,
                        pkt.t_done - pkt.t_deq))

    rt = build_runtime(cfg)
    rt.host.sink.on_delivery = collect
    rt.start()
    rt.sim.run(until=rt.horizon)
    rt.finalize()

    arr = np.array(samples)
    arr = arr[int(0.15 * len(arr)):]  # warmup trim
    names = ("nic_rx", "queue_wait", "service+stall")
    t = Table(
        ["stage", "mean (us)", "share of mean", "p99 (us)", "share of p99 sum"],
        title="F2  last-mile latency breakdown, single path @ load 0.7",
    )
    means = arr.mean(axis=0)
    p99s = np.percentile(arr, 99, axis=0)
    data = {}
    for i, name in enumerate(names):
        t.add_row([name, float(means[i]), f"{means[i]/means.sum():.0%}",
                   float(p99s[i]), f"{p99s[i]/p99s.sum():.0%}"])
        data[name] = {"mean": float(means[i]), "p99": float(p99s[i])}
    return t.render(), data


# ----------------------------------------------------------------------
# F3 -- p99 vs offered load (the headline figure)
# ----------------------------------------------------------------------
def fig3_load_sweep(
    duration: float = 40_000.0,
    loads=(0.3, 0.5, 0.7, 0.8, 0.9),
) -> Tuple[str, Dict]:
    """p99 latency vs offered load for every headline policy, k=4.

    Expected shape: single-path p99 grows fastest; multipath policies
    stay flat far longer; redundancy is excellent at low load and
    collapses first as load rises (it doubles the work).
    """
    spec = SweepSpec(
        name="F3-load-sweep",
        base=_sweep_base(duration, n_paths=4),
        axes=[Axis("load", list(loads)),
              Axis("policy", list(HEADLINE_POLICIES))],
    )
    sr = run_sweep(spec)
    t = Table(
        ["load"] + list(HEADLINE_POLICIES),
        title="F3  p99 latency (us) vs offered load, k=4, heavy chain",
    )
    data: Dict[str, List[float]] = {p: [] for p in HEADLINE_POLICIES}
    for load in loads:
        row = [f"{load:.2f}"]
        for p in HEADLINE_POLICIES:
            v = sr.get(load=load, policy=p).exact["p99"]
            data[p].append(float(v))
            row.append(float(v))
        t.add_row(row)
    data["loads"] = list(loads)
    return t.render(), data


# ----------------------------------------------------------------------
# F4 -- latency CDF under bursty traffic
# ----------------------------------------------------------------------
def fig4_bursty(
    duration: float = 50_000.0,
    burstiness=(1.0, 2.0, 4.0, 8.0),
) -> Tuple[str, Dict]:
    """p99/p99.9 vs traffic burstiness for single vs spray vs adaptive.

    Expected shape: bursts amplify the single-path tail sharply (burst +
    stall overlap); multipath spreads each burst over k queues.
    """
    policies = ("single", "spray", "adaptive")
    # burstiness 1.0 *is* Poisson: express the degenerate point as a
    # coupled override instead of a special-cased loop iteration.
    values = [{"burstiness": b, "traffic": "poisson"} if b == 1.0 else b
              for b in burstiness]
    spec = SweepSpec(
        name="F4-bursty",
        base=_sweep_base(duration, traffic="onoff", load=0.5, n_paths=4),
        axes=[Axis("burstiness", values, labels=list(burstiness)),
              Axis("policy", list(policies))],
    )
    sr = run_sweep(spec)
    t = Table(
        ["burstiness"] + [f"{p} p99" for p in policies] + [f"{p} p99.9" for p in policies],
        title="F4  tail latency (us) vs ON/OFF burstiness, load 0.5",
    )
    data: Dict = {p: {"p99": [], "p999": []} for p in policies}
    for b in burstiness:
        row = [f"{b:g}x"]
        for p in policies:
            v = sr.get(burstiness=b, policy=p).exact["p99"]
            data[p]["p99"].append(float(v))
            row.append(float(v))
        for p in policies:
            v = sr.get(burstiness=b, policy=p).exact["p999"]
            data[p]["p999"].append(float(v))
            row.append(float(v))
        t.add_row(row)
    data["burstiness"] = list(burstiness)
    return t.render(), data


# ----------------------------------------------------------------------
# F5 -- scalability in path count
# ----------------------------------------------------------------------
def fig5_path_scaling(
    duration: float = 50_000.0,
    ks=(1, 2, 3, 4, 6, 8),
) -> Tuple[str, Dict]:
    """Fixed aggregate offered load spread over k paths.

    The aggregate equals 80% of ONE path's capacity, so k=1 is a busy
    single lane and each added path dilutes per-path load.  Expected
    shape: steep tail improvement from k=1 to 2-4, diminishing returns
    after; CPU/packet grows mildly (smaller batches, per-path caches).
    """
    spec = SweepSpec(
        name="F5-path-scaling",
        base=_sweep_base(duration, policy="adaptive"),
        axes=[Axis("k", [{"n_paths": k, "load": 0.8 / k} for k in ks],
                   labels=list(ks))],
        single_path_baseline=False,
    )
    sr = run_sweep(spec)
    t = Table(
        ["k", "p50 (us)", "p99 (us)", "p99.9 (us)", "cpu us/pkt", "goodput Gbps"],
        title="F5  adaptive MPDP vs path count, fixed aggregate load (0.8 of one path)",
    )
    data = {"k": list(ks), "p99": [], "p999": [], "cpu": []}
    for k in ks:
        cell = sr.get(k=k)
        s = cell.summary
        cpu = cell.stats["cpu_per_delivered"]
        t.add_row([k, s.p50, s.p99, s.p999, cpu, cell.goodput_gbps])
        data["p99"].append(s.p99)
        data["p999"].append(s.p999)
        data["cpu"].append(cpu)
    return t.render(), data


# ----------------------------------------------------------------------
# F6 -- interference resilience
# ----------------------------------------------------------------------
def fig6_interference(
    duration: float = 60_000.0,
    intensities=(0.0, 2.0, 4.0, 6.0),
) -> Tuple[str, Dict]:
    """p99 vs noisy-neighbor intensity on one core.

    The neighbor hits the single path's only core, or one of the
    multipath host's four.  Expected shape: single-path p99 scales with
    intensity; adaptive stays near its baseline by steering around the
    victim path.
    """
    policies = ("single", "hash", "adaptive")
    spec = SweepSpec(
        name="F6-interference",
        base=_sweep_base(duration, load=0.5, n_paths=4,
                         interfere_start_frac=0.2, interfere_end_frac=0.8),
        axes=[Axis("interfere_intensity", list(intensities)),
              Axis("policy", list(policies))],
    )
    sr = run_sweep(spec)
    t = Table(
        ["intensity"] + list(policies),
        title="F6  p99 latency (us) vs interference intensity (victim: path 0)",
    )
    data: Dict = {p: [] for p in policies}
    for inten in intensities:
        row = [f"{inten:g}x"]
        for p in policies:
            v = sr.get(interfere_intensity=inten, policy=p).exact["p99"]
            data[p].append(float(v))
            row.append(float(v))
        t.add_row(row)
    data["intensities"] = list(intensities)
    return t.render(), data


# ----------------------------------------------------------------------
# F7 -- short-flow FCT on the websearch workload
# ----------------------------------------------------------------------
def fig7_fct(duration: float = 400_000.0) -> Tuple[str, Dict]:
    """Short-flow (<100 KB) FCT percentiles per policy, websearch flows.

    Same-absolute-workload framing (the paper's): every configuration
    receives the identical flow arrival process, sized to ~88% of ONE
    path's capacity -- the regime that motivates adding datapath
    instances on spare cores.  The single-path baseline is therefore a
    heavily loaded status-quo host, and the k=4 hosts relieve it.

    Expected shape: multipath cuts short-flow p99 FCT by multiples --
    short flows live or die by whether they land behind a queue/stall.
    """
    policies = ("single", "hash", "adaptive")
    t = Table(
        ["policy", "flows", "short p50 (us)", "short p99 (us)", "all p99 (us)"],
        title="F7  flow completion times, websearch workload "
              "(same workload, ~0.88 of one path)",
    )
    data = {}
    for p in policies:
        base = ScenarioConfig(**_sweep_base(duration, traffic="flows",
                                            workload="websearch",
                                            flow_load=0.22))
        overrides = {"policy": p}
        if p == "single":
            # flow_load scales with n_paths; 0.88 x 1 path == 0.22 x 4
            # paths in absolute flows/second.
            overrides.update(n_paths=1, flow_load=0.88)
        res = run_scenario(dataclasses.replace(base, **overrides))
        short = res.tracker.fcts_by_size(max_size=100_000)
        allf = res.tracker.fcts()
        data[p] = {
            "flows": len(res.tracker.completed),
            "short_p50": float(np.percentile(short, 50)) if len(short) else float("nan"),
            "short_p99": float(np.percentile(short, 99)) if len(short) else float("nan"),
            "all_p99": float(np.percentile(allf, 99)) if len(allf) else float("nan"),
        }
        d = data[p]
        t.add_row([p, d["flows"], d["short_p50"], d["short_p99"], d["all_p99"]])
    return t.render(), data


# ----------------------------------------------------------------------
# F8 -- reordering overhead
# ----------------------------------------------------------------------
def fig8_reorder(duration: float = 40_000.0) -> Tuple[str, Dict]:
    """Reorder-buffer footprint per policy at load 0.7.

    Expected shape: per-packet spraying holds a significant fraction of
    packets and adds measurable hold delay; flowlet/adaptive rarely
    reorder; hash never does (buffer unused).
    """
    policies = ("rr", "spray", "leastload", "flowlet", "adaptive")
    spec = SweepSpec(
        name="F8-reorder",
        base=_sweep_base(duration, load=0.7,
                         mpdp_overrides={"use_reorder": True}),
        axes=[Axis("policy", list(policies))],
    )
    sr = run_sweep(spec)
    t = Table(
        ["policy", "held pkts", "held frac", "mean hold (us)",
         "timeout flushes", "peak occupancy", "p99 (us)"],
        title="F8  reordering cost at load 0.7, k=4",
    )
    data = {}
    for p in policies:
        cell = sr.get(policy=p)
        ro = cell.stats["reorder"]
        held_frac = ro["held"] / max(cell.delivered, 1)
        data[p] = {**ro, "held_frac": held_frac, "p99": cell.summary.p99}
        t.add_row([p, ro["held"], f"{held_frac:.2%}", ro["mean_hold"],
                   ro["timeout_flushes"], ro["peak_occupancy"], cell.summary.p99])
    return t.render(), data


# ----------------------------------------------------------------------
# T1 -- the percentile comparison table
# ----------------------------------------------------------------------
def table1_percentiles(duration: float = 60_000.0) -> Tuple[str, Dict]:
    """p50/p90/p95/p99/p99.9 for every policy at the canonical mix."""
    policies = HEADLINE_POLICIES + ("rr", "po2", "flowlet")
    spec = SweepSpec(
        name="T1-percentiles",
        base=_sweep_base(duration, load=0.7, n_paths=4),
        axes=[Axis("policy", list(policies))],
    )
    sr = run_sweep(spec)
    t = Table(
        ["policy", "paths", "p50", "p90", "p95", "p99", "p99.9", "max"],
        title="T1  latency percentiles (us), load 0.7, heavy chain, shared-core jitter",
    )
    data = {}
    for p in policies:
        cell = sr.get(policy=p)
        s = cell.summary
        data[p] = s
        t.add_row([p, cell.config["n_paths"],
                   s.p50, s.p90, s.p95, s.p99, s.p999, s.max])
    return t.render(), data


# ----------------------------------------------------------------------
# T2 -- CPU overhead table
# ----------------------------------------------------------------------
def table2_overhead(duration: float = 60_000.0) -> Tuple[str, Dict]:
    """CPU us/packet, replica counts, drops, goodput for every policy.

    Expected shape: multipath steering costs a few percent over single
    path (per-path caches, batching dilution); redundancy costs ~2x.
    Measured at load 0.4 so that redundancy is *not* saturating -- at
    saturation its replicas die in full queues before being processed,
    which understates the overhead this table is meant to expose.
    """
    policies = HEADLINE_POLICIES + ("rr", "po2", "flowlet")
    spec = SweepSpec(
        name="T2-overhead",
        base=_sweep_base(duration, load=0.4, n_paths=4),
        axes=[Axis("policy", list(policies))],
    )
    sr = run_sweep(spec)
    t = Table(
        ["policy", "cpu us/pkt", "vs single", "replicas", "suppressed",
         "drops", "goodput Gbps"],
        title="T2  CPU overhead per delivered packet, load 0.4",
    )
    single_cpu = sr.get(policy="single").stats["cpu_per_delivered"]
    data = {}
    for p in policies:
        cell = sr.get(policy=p)
        st = cell.stats
        cpu = st["cpu_per_delivered"]
        drops = sum(st["drops"].values()) + st["nic_drops"]
        data[p] = {"cpu": cpu, "replicas": st["replicas"], "drops": drops}
        t.add_row([p, cpu, f"{cpu/single_cpu:.2f}x", st["replicas"],
                   st["suppressed"], drops, cell.goodput_gbps])
    return t.render(), data


# ----------------------------------------------------------------------
# A1 -- ablation: flowlet timeout
# ----------------------------------------------------------------------
def ablation1_flowlet_timeout(
    duration: float = 40_000.0,
    timeouts=(10.0, 50.0, 100.0, 250.0, 500.0, 2_000.0),
) -> Tuple[str, Dict]:
    """p99 and reordering vs flowlet timeout.

    Expected shape: tiny timeouts behave like spraying (reorder cost);
    huge timeouts behave like per-flow hashing (no rebalancing); the
    middle is best -- a U-shaped p99 curve.
    """
    t = Table(
        ["timeout (us)", "p99 (us)", "p99.9 (us)", "held frac", "boundaries/pkt"],
        title="A1  flowlet-timeout sweep, load 0.7, k=4",
    )
    data = {"timeout": list(timeouts), "p99": [], "held_frac": []}
    for to in timeouts:
        policy = FlowletSwitching(timeout=to)
        res = run_scenario(ScenarioConfig(**_sweep_base(
            duration, policy=policy, load=0.7,
            mpdp_overrides={"use_reorder": True})))
        ro = res.stats["reorder"]
        held_frac = ro["held"] / max(res.stats["delivered"], 1)
        boundaries = policy.table.boundaries / max(res.stats["ingress"], 1)
        t.add_row([to, res.summary.p99, res.summary.p999,
                   f"{held_frac:.2%}", f"{boundaries:.3f}"])
        data["p99"].append(res.summary.p99)
        data["held_frac"].append(held_frac)
    return t.render(), data


# ----------------------------------------------------------------------
# A2 -- ablation: detector sensitivity
# ----------------------------------------------------------------------
def ablation2_detector(
    duration: float = 50_000.0,
    hol_thresholds=(10.0, 25.0, 50.0, 100.0, 200.0, 400.0),
) -> Tuple[str, Dict]:
    """Adaptive p99/p99.9 vs head-of-line detection threshold, with a
    4x noisy neighbor active mid-run.

    Expected shape: too-low thresholds cause jumpy steering (false
    trips); too-high thresholds miss stalls and let the tail grow; the
    knee sits near the typical stall duration.
    """
    t = Table(
        ["hol threshold (us)", "p99 (us)", "p99.9 (us)", "straggler verdicts"],
        title="A2  detector sensitivity (adaptive, 4x neighbor on path 0, load 0.6)",
    )
    data = {"threshold": list(hol_thresholds), "p99": [], "p999": []}
    for thr in hol_thresholds:
        detector = StragglerDetector(DetectorConfig(hol_threshold=thr))
        policy = AdaptiveMultipath(detector=detector)
        res = run_scenario(ScenarioConfig(**_sweep_base(
            duration, policy=policy, load=0.6, interfere_intensity=4.0)))
        t.add_row([thr, res.summary.p99, res.summary.p999,
                   detector.straggler_verdicts])
        data["p99"].append(res.summary.p99)
        data["p999"].append(res.summary.p999)
    return t.render(), data


# ----------------------------------------------------------------------
# A3 -- ablation: selective-replication budget
# ----------------------------------------------------------------------
def ablation3_replication(
    duration: float = 40_000.0,
    budgets=(0.0, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0),
    loads=(0.4, 0.8),
) -> Tuple[str, Dict]:
    """p99.9 and CPU cost vs replication budget, small-RPC traffic.

    Uses 200-byte packets (all replication-eligible).  Expected shape:
    at low load, more replication keeps buying tail; at high load the
    curve turns -- replicas congest the paths they were meant to insure
    against.
    """
    t = Table(
        ["budget"] + [f"p99.9 @load {l}" for l in loads] + [f"cpu/pkt @load {l}" for l in loads],
        title="A3  selective-replication budget sweep (200B RPC packets)",
    )
    spec = SweepSpec(
        name="A3-replication",
        base=_sweep_base(duration, packet_size=200),
        axes=[Axis("load", list(loads)),
              Axis("budget",
                   [{"policy": {"name": "adaptive", "replication_budget": b,
                                "critical_size": 300}} for b in budgets],
                   labels=list(budgets))],
    )
    sr = run_sweep(spec)
    data: Dict = {"budgets": list(budgets)}
    rows = {b: {} for b in budgets}
    for load in loads:
        for b in budgets:
            cell = sr.get(load=load, budget=b)
            rows[b][load] = (cell.exact["p999"],
                             cell.stats["cpu_per_delivered"])
    for b in budgets:
        row = [f"{b:.2f}"]
        row += [float(rows[b][l][0]) for l in loads]
        row += [float(rows[b][l][1]) for l in loads]
        t.add_row(row)
    data["rows"] = {b: rows[b] for b in budgets}
    return t.render(), data


# ----------------------------------------------------------------------
# A4 -- ablation: intra-chain (ParaGraph) vs cross-chain (MPDP) parallelism
# ----------------------------------------------------------------------
def _branching_gateway_graph(rng):
    """classifier -> {firewall, dpi, monitor} -> nat: three independent
    middle elements, parallelizable ParaGraph-style."""
    from repro.elements import AclFirewall, AclRule, Classifier, Dpi, ElementGraph, FlowMonitor, Nat

    g = ElementGraph("gateway-dag")
    g.add(Classifier("cls", rules=[], rng=rng))
    # The three independent middle elements are cost-balanced: with one
    # dominant element (e.g. full-cost DPI) Amdahl's law erases the
    # intra-chain win, which is precisely why ParaGraph selects
    # subgraphs -- the balanced case shows the best-case contrast.
    g.add(AclFirewall("fw", rules=[AclRule(dport=22, action="deny")],
                      base_cost=0.6, rng=rng))
    g.add(Dpi("dpi", base_cost=0.3, per_byte=0.0003, rng=rng))
    g.add(FlowMonitor("mon", base_cost=0.6, rng=rng))
    g.add(Nat("nat", rng=rng))
    for mid in ("fw", "dpi", "mon"):
        g.connect("cls", mid)
        g.connect(mid, "nat")
    return g


def ablation4_intrachain(duration: float = 50_000.0) -> Tuple[str, Dict]:
    """Intra-chain parallelism (ParaGraph-style) vs multipath replicas.

    Three compositions of the same branching gateway DAG:

    * **serial, 1 path** -- baseline linear pipeline;
    * **stage-parallel, 1 path** -- independent elements run concurrently
      on packet copies (max-of-costs + copy/merge overheads);
    * **serial, 4 paths (MPDP)** -- the paper's approach.

    Expected shape: intra-chain parallelism shortens *service time*
    (better median) but shares the single vCPU's stalls, so its tail
    stays near the serial baseline; multipath leaves the median alone
    and crushes the tail.  The two mechanisms are complementary, which
    is the paper's positioning vs the ParaGraph line of work.
    """
    from repro.bench.scenarios import _make_source
    from repro.core.mpdp import MpdpConfig, MultipathDataPlane
    from repro.dataplane.path import PathConfig
    from repro.sim.engine import Simulator
    from repro.sim.rng import RngRegistry

    def run(kind: str):
        sim = Simulator()
        rngs = RngRegistry(seed=97)
        g = _branching_gateway_graph(rngs.stream("chain"))
        if kind == "stage-parallel, 1 path":
            chain = g.compile_parallel()
        elif kind == "subgraph-optimal, 1 path":
            chain = g.compile_optimal()
        else:
            from repro.elements.base import Chain

            chain = Chain(g.topological_order(), name="gateway-serial")
        n_paths = 4 if "4 paths" in kind else 1
        policy = "adaptive" if n_paths > 1 else "single"
        host = MultipathDataPlane(
            sim,
            MpdpConfig(n_paths=n_paths, policy=policy,
                       path=PathConfig(jitter=SHARED_CORE),
                       warmup=scaled_duration(duration) * 0.15),
            rngs,
            chain=chain,
        )
        cfg = ScenarioConfig(chain="heavy", load=0.55, n_paths=n_paths,
                             duration=scaled_duration(duration))
        src = _make_source(sim, host.factory, rngs, cfg, None, host.input)
        src.start()
        sim.run(until=cfg.duration + cfg.drain)
        host.finalize()
        return host

    kinds = ("serial, 1 path", "stage-parallel, 1 path",
             "subgraph-optimal, 1 path", "serial, 4 paths (MPDP)")
    t = Table(
        ["composition", "p50 (us)", "p99 (us)", "p99.9 (us)"],
        title="A4  intra-chain (ParaGraph-style) vs cross-chain (MPDP) parallelism",
    )
    data = {}
    for kind in kinds:
        host = run(kind)
        s = host.sink.recorder.summary()
        data[kind] = s
        t.add_row([kind, s.p50, s.p99, s.p999])
    return t.render(), data


# ----------------------------------------------------------------------
# F9 -- end-to-end RPC RTT across a fabric
# ----------------------------------------------------------------------
def fig9_end_to_end(duration: float = 100_000.0) -> Tuple[str, Dict]:
    """RPC round-trip time between two hosts behind a 12 µs fabric.

    Both hosts carry background load; only the *hosts'* data planes
    change between rows.  Expected shape: the fabric contributes a fixed
    ~24 µs; everything above it is last-mile, so multipath hosts cut RTT
    p99 by multiples while the median barely moves.
    """
    from repro.bench.e2e import run_rpc_world

    configs = [("single-path hosts", "single", 1),
               ("hash k=4 hosts", "hash", 4),
               ("adaptive k=4 hosts", "adaptive", 4)]
    t = Table(
        ["hosts", "RTTs", "p50 (us)", "p99 (us)", "p99.9 (us)"],
        title="F9  end-to-end RPC RTT (12 us fabric each way, loaded hosts)",
    )
    data = {}
    for label, policy, k in configs:
        res = run_rpc_world(policy, k, duration=scaled_duration(duration))
        data[label] = {
            "rtts": len(res.rtts),
            "p50": res.rtt_percentile(50),
            "p99": res.rtt_percentile(99),
            "p999": res.rtt_percentile(99.9),
        }
        d = data[label]
        t.add_row([label, d["rtts"], d["p50"], d["p99"], d["p999"]])
    return t.render(), data


# ----------------------------------------------------------------------
# T3 -- closed-loop throughput/RTT vs concurrency
# ----------------------------------------------------------------------
def table3_closed_loop(
    duration: float = 50_000.0,
    concurrencies=(4, 16, 64),
) -> Tuple[str, Dict]:
    """Closed-loop RPC: throughput and RTT tail vs request concurrency.

    Closed-loop clients self-throttle, so offered load follows achieved
    latency.  Expected shape: at low concurrency both configurations
    deliver similar throughput (RTT-bound) but multipath already wins
    the RTT tail; at high concurrency the single path saturates while
    multipath keeps scaling throughput.
    """
    from repro.bench.e2e import run_closed_loop

    t = Table(
        ["concurrency", "single krps", "adaptive krps",
         "single RTT p99", "adaptive RTT p99"],
        title="T3  closed-loop RPC: throughput and RTT p99 vs concurrency",
    )
    data: Dict = {"concurrency": list(concurrencies), "single": [], "adaptive": []}
    for c in concurrencies:
        per = {}
        for policy, k in (("single", 1), ("adaptive", 4)):
            res = run_closed_loop(policy, k, concurrency=c,
                                  duration=scaled_duration(duration))
            per[policy] = {
                "rps": res.throughput_rps,
                "rtt_p99": res.rtt_percentile(99),
            }
            data[policy].append(per[policy])
        t.add_row([c, per["single"]["rps"] / 1e3, per["adaptive"]["rps"] / 1e3,
                   per["single"]["rtt_p99"], per["adaptive"]["rtt_p99"]])
    return t.render(), data


# ----------------------------------------------------------------------
# F10 -- resilience to a mid-run path crash
# ----------------------------------------------------------------------
def fig10_faults(duration: float = 100_000.0) -> Tuple[str, Dict]:
    """Tail latency and loss under a mid-run path crash, per policy.

    Path 0 crashes at 30% of the run and restarts 25% later.  Expected
    shape: the single path loses availability outright (explicit loss +
    a huge p99.9 from the surviving backlog); adaptive and redundant
    multipath mask the crash, keeping p99.9 within a small multiple of
    the fault-free run and near-total delivery; detection lag and
    recovery time come from the availability collectors.
    """
    dur = scaled_duration(duration)
    crash = FaultSchedule().crash(path=0, at=0.30 * dur, duration=0.25 * dur)
    pairs = (("single", 1), ("hash", 4), ("adaptive", 4), ("redundant2", 4))
    spec = SweepSpec(
        name="F10-faults",
        base=_sweep_base(duration, load=0.55),
        axes=[Axis("policy", [{"policy": p, "n_paths": k} for p, k in pairs],
                   labels=[p for p, _ in pairs]),
              Axis("faults", [{"faults": None}, {"faults": crash.to_dict()}],
                   labels=["clean", "crash"])],
    )
    sr = run_sweep(spec)

    t = Table(
        ["policy", "p99.9 clean", "p99 crash", "p99.9 crash", "delivered %",
         "rerouted", "lost", "detect (us)", "recover (us)"],
        title="F10  mid-run path crash: tail + availability per policy "
              "(load 0.55, crash 30%->55% of run)",
    )
    data: Dict = {}
    for policy, _ in pairs:
        clean = sr.get(policy=policy, faults="clean")
        fault = sr.get(policy=policy, faults="crash")
        delivered_frac = fault.delivered / fault.offered
        avail = fault.availability
        lost = fault.offered - fault.delivered
        data[policy] = {
            "clean_p999": clean.summary.p999,
            "fault_p99": fault.summary.p99,
            "fault_p999": fault.summary.p999,
            "delivered_frac": delivered_frac,
            "lost": lost,
            "rerouted": avail["rerouted"],
            "detection_lag": avail["mean_detection_lag"],
            "recovery_time": avail["mean_recovery_time"],
            "uptime": avail["path_uptime_fraction"],
        }
        t.add_row([policy, clean.summary.p999, fault.summary.p99,
                   fault.summary.p999, 100.0 * delivered_frac,
                   avail["rerouted"], lost,
                   avail["mean_detection_lag"], avail["mean_recovery_time"]])
    return t.render(), data


# ----------------------------------------------------------------------
# F11 -- tail + availability vs fault rate (MTBF sweep)
# ----------------------------------------------------------------------
def fig11_mtbf_sweep(duration: float = 100_000.0) -> Tuple[str, Dict]:
    """Delivered fraction and p99.9 vs per-path crash rate (MTBF sweep).

    Every path runs an independent crash/restart renewal process (mean
    repair 2 ms) with per-path MTBF swept from none to 10 ms.  Expected
    shape: the single path's availability falls roughly with its down
    fraction; adaptive multipath holds near-total delivery and a bounded
    p99.9 because the controller ejects crashed paths and re-steers.
    """
    mttr = 2_000.0
    mtbfs = [None, 50_000.0, 20_000.0, 10_000.0]
    pairs = (("single", 1), ("adaptive", 4))

    def crashes(mtbf, k):
        if mtbf is None:
            return None
        sched = FaultSchedule()
        for path in range(k):
            sched.renewal("crash", path=path, mtbf=mtbf, mttr=mttr)
        return sched.to_dict()

    # Each path count gets a crash process per path, so the fault
    # schedule and the policy vary together on one axis.
    runs = [(mtbf, p, k) for mtbf in mtbfs for p, k in pairs]
    spec = SweepSpec(
        name="F11-mtbf-sweep",
        base=_sweep_base(duration, load=0.5),
        axes=[Axis("run", [{"policy": p, "n_paths": k,
                            "faults": crashes(mtbf, k)}
                           for mtbf, p, k in runs],
                   labels=[f"{p} mtbf={mtbf}" for mtbf, p, _ in runs])],
    )
    sr = run_sweep(spec)

    t = Table(
        ["per-path MTBF", "single del %", "single p99.9", "adaptive del %",
         "adaptive p99.9", "adaptive uptime %"],
        title="F11  crash-rate sweep: delivered fraction + p99.9 "
              "(MTTR 2 ms, load 0.5)",
    )
    data: Dict = {"mtbf": mtbfs, "single": [], "adaptive": []}
    for mtbf in mtbfs:
        row = [("none" if mtbf is None else f"{mtbf / 1000:.0f} ms")]
        per = {}
        for policy, _ in pairs:
            cell = sr.get(run=f"{policy} mtbf={mtbf}")
            per[policy] = {
                "delivered_frac": cell.delivered / cell.offered,
                "p999": cell.summary.p999,
                "uptime": (1.0 if mtbf is None else
                           cell.availability["path_uptime_fraction"]),
            }
            data[policy].append(per[policy])
        t.add_row(row + [100.0 * per["single"]["delivered_frac"],
                         per["single"]["p999"],
                         100.0 * per["adaptive"]["delivered_frac"],
                         per["adaptive"]["p999"],
                         100.0 * per["adaptive"]["uptime"]])
    return t.render(), data


#: Experiment registry: id -> regeneration function.
ALL_EXPERIMENTS = {
    "F1": fig1_motivation,
    "F2": fig2_breakdown,
    "F3": fig3_load_sweep,
    "F4": fig4_bursty,
    "F5": fig5_path_scaling,
    "F6": fig6_interference,
    "F7": fig7_fct,
    "F8": fig8_reorder,
    "F9": fig9_end_to_end,
    "F10": fig10_faults,
    "F11": fig11_mtbf_sweep,
    "T1": table1_percentiles,
    "T2": table2_overhead,
    "T3": table3_closed_loop,
    "A1": ablation1_flowlet_timeout,
    "A2": ablation2_detector,
    "A3": ablation3_replication,
    "A4": ablation4_intrachain,
}

# SLO engine experiments live in their own module (they pull in
# repro.slo); registered here so `repro run SLO1` just works.
from repro.bench.slo_experiments import slo1_attainment, slo2_fault_recovery  # noqa: E402

ALL_EXPERIMENTS["SLO1"] = slo1_attainment
ALL_EXPERIMENTS["SLO2"] = slo2_fault_recovery

# Cluster experiments likewise live in their own module (they pull in
# repro.cluster and its multiprocessing machinery).
from repro.bench.cluster_figures import c1_cluster_scale, c2_incast_fanin  # noqa: E402

ALL_EXPERIMENTS["C1"] = c1_cluster_scale
ALL_EXPERIMENTS["C2"] = c2_incast_fanin
