"""Per-layer cost of a run: the module->layer map, the profile fold and
the wall spans recorded around the program's entry points.

Everything here observes ``repro`` from outside.  Spans come from
wrappers that :class:`Spans` patches over a fixed list of entry points
for the length of a ``with`` block; layer self time and call counts come
from a :mod:`cProfile` run folded by :func:`fold_profile`.
"""

from __future__ import annotations

import multiprocessing.connection
import os
import pathlib
import time
from collections import defaultdict
from typing import Dict, List, Optional

import repro
import repro.bench.scenarios as scenarios
import repro.cluster.engine as cluster_engine
from repro.sim.engine import Simulator
from repro.sweep.cache import ResultCache

SRC_REPRO = pathlib.Path(os.path.realpath(repro.__file__)).parent

#: Layers named in the benchmark's contract, then the layers that hold
#: the rest of the package, then ``harness``: the benchmark's own code
#: and anything outside ``repro`` that no ``repro`` function called.
LAYERS = (
    "sim", "net.traffic", "dataplane.nic", "dataplane.poller",
    "dataplane.queues", "dataplane.vcpu", "dataplane.sink", "core.mpdp",
    "core.policies", "core.replicator", "core.reorder", "core.controller",
    "elements", "metrics", "faults", "cluster", "sweep", "bench",
    "obs", "check", "slo", "analysis", "api", "harness",
)

#: Whole packages folded into one layer; a module added under them is
#: covered automatically.
PACKAGE_LAYERS = {
    "sim": "sim", "elements": "elements", "metrics": "metrics",
    "faults": "faults", "cluster": "cluster", "sweep": "sweep",
    "bench": "bench", "obs": "obs", "check": "check", "slo": "slo",
    "analysis": "analysis",
}

#: Modules mapped one by one.  A module under ``repro`` that is in
#: neither table is an error (see :func:`check_layer_map`), so a new
#: module never lands silently in a catch-all layer.
MODULE_LAYERS = {
    "__init__": "api", "__main__": "api", "cli": "api", "options": "api",
    "schemas": "api", "units": "api",
    "net.__init__": "api", "net.traffic": "net.traffic",
    "net.packet": "net.traffic", "net.flow": "net.traffic",
    "net.workloads": "net.traffic", "net.rpc": "net.traffic",
    "net.topology": "net.traffic", "net.fabric": "cluster",
    "dataplane.__init__": "api", "dataplane.nic": "dataplane.nic",
    "dataplane.poller": "dataplane.poller",
    "dataplane.vswitch": "dataplane.poller",
    "dataplane.queues": "dataplane.queues",
    "dataplane.path": "dataplane.queues",
    "dataplane.scheduler": "dataplane.queues",
    "dataplane.vcpu": "dataplane.vcpu",
    "dataplane.interference": "dataplane.vcpu",
    "dataplane.sink": "dataplane.sink",
    "dataplane.boundary": "cluster",
    "core.__init__": "api", "core.mpdp": "core.mpdp",
    "core.policies": "core.policies", "core.flowlet": "core.policies",
    "core.replicator": "core.replicator", "core.reorder": "core.reorder",
    "core.controller": "core.controller",
    "core.detector": "core.controller",
}


def module_layer(module: str) -> Optional[str]:
    """Layer of a module named relative to ``repro`` (``"core.mpdp"``)."""
    if module in MODULE_LAYERS:
        return MODULE_LAYERS[module]
    return PACKAGE_LAYERS.get(module.split(".", 1)[0])


def _module_of(path: pathlib.Path) -> str:
    return ".".join(path.relative_to(SRC_REPRO).with_suffix("").parts)


def check_layer_map() -> None:
    """Raise ``ValueError`` naming every ``repro`` module with no layer."""
    unmapped = sorted(m for m in map(_module_of, SRC_REPRO.rglob("*.py"))
                      if module_layer(m) is None)
    if unmapped:
        raise ValueError(f"modules with no layer: {', '.join(unmapped)}; "
                         f"add them to perfbench/layers.py")


# ---------------------------------------------------------------------------
# Profile fold
# ---------------------------------------------------------------------------

def fold_profile(stats: Dict) -> Dict[str, Dict[str, float]]:
    """Fold ``pstats.Stats(...).stats`` into ``{layer: {"self_s", "calls"}}``.

    A Python function defined under ``repro`` adds its self time and its
    call count to the layer of its module.  Any other function -- a C
    built-in, the standard library, numpy -- adds its self time (not its
    calls) to the layers of its callers, split in proportion to the
    time each caller edge accounts for and followed up through callers
    outside ``repro`` until a ``repro`` function or a root is reached
    (the gprof approximation).  Roots outside ``repro`` are ``harness``.
    """
    layer_of_file: Dict[str, Optional[str]] = {}

    def own_layer(func) -> Optional[str]:
        filename = func[0]
        if filename not in layer_of_file:
            layer = None
            if not filename.startswith(("~", "<")):
                path = pathlib.Path(os.path.realpath(filename))
                if SRC_REPRO in path.parents:
                    layer = module_layer(_module_of(path))
                    if layer is None:
                        raise ValueError(f"no layer for {path}")
            layer_of_file[filename] = layer
        return layer_of_file[filename]

    memo: Dict = {}

    def shares(func, stack: frozenset) -> Dict[str, float]:
        layer = own_layer(func)
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        edges = {c: e for c, e in stats[func][4].items()
                 if c not in stack and c in stats}
        total_t = sum(e[2] for e in edges.values())
        total_n = sum(e[0] for e in edges.values())
        out: Dict[str, float] = defaultdict(float)
        for caller, edge in edges.items():
            weight = (edge[2] / total_t if total_t > 0
                      else edge[0] / total_n if total_n > 0 else 0.0)
            if weight:
                for lay, share in shares(caller, stack | {func}).items():
                    out[lay] += weight * share
        if not out:
            out = {"harness": 1.0}
        memo[func] = dict(out)
        return memo[func]

    folded = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        layer = own_layer(func)
        if layer is not None:
            folded[layer]["self_s"] += tt
            folded[layer]["calls"] += nc
            continue
        for lay, share in shares(func, frozenset()).items():
            folded[lay]["self_s"] += tt * share
    return folded


# ---------------------------------------------------------------------------
# Wall spans
# ---------------------------------------------------------------------------

class Spans:
    """Wall spans around the program's entry points, for one ``with`` block.

    ``ms[name]`` sums the wall milliseconds of every call to the named
    entry point made in this process.  Cluster runs also record each
    barrier epoch's wall time (``epoch_ms``) and the coordinator's time
    blocked in ``Connection.recv`` during the epoch loop
    (``barrier_s``).  ``events`` sums ``Simulator.processed_count`` over
    every runtime finalized in this process.
    """

    def __init__(self) -> None:
        self.ms: Dict[str, float] = defaultdict(float)
        self.events = 0
        self.epoch_ms: List[float] = []
        self.drive_s = 0.0
        self.barrier_s = 0.0
        self._in_drive = False
        self._pid = os.getpid()
        self._saved: List = []

    def _patch(self, owner, attr: str, wrapper_factory) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original, attr in vars(owner)))
        setattr(owner, attr, wrapper_factory(original))

    def _timed(self, name: str, after=None):
        def factory(original):
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                out = original(*args, **kwargs)
                if os.getpid() == self._pid:
                    self.ms[name] += (time.perf_counter() - t0) * 1e3
                    if after is not None:
                        after(args)
                return out
            return wrapper
        return factory

    def _count_events(self, args) -> None:
        self.events += args[0].sim.processed_count

    def _drive(self, original):
        def wrapper(config, step_fn):
            def step(end, incoming):
                t0 = time.perf_counter()
                out = step_fn(end, incoming)
                self.epoch_ms.append((time.perf_counter() - t0) * 1e3)
                return out
            self._in_drive = True
            t0 = time.perf_counter()
            try:
                return original(config, step)
            finally:
                self.drive_s += time.perf_counter() - t0
                self._in_drive = False
        return wrapper

    def _recv(self, original):
        def wrapper(conn, *args, **kwargs):
            if not self._in_drive or os.getpid() != self._pid:
                return original(conn, *args, **kwargs)
            t0 = time.perf_counter()
            try:
                return original(conn, *args, **kwargs)
            finally:
                self.barrier_s += time.perf_counter() - t0
        return wrapper

    def __enter__(self) -> "Spans":
        self._patch(scenarios, "build_runtime", self._timed("build_runtime"))
        self._patch(cluster_engine, "build_runtime",
                    self._timed("build_runtime"))
        self._patch(Simulator, "run", self._timed("Simulator.run"))
        self._patch(scenarios.ScenarioRuntime, "finalize",
                    self._timed("ScenarioRuntime.finalize",
                                after=self._count_events))
        self._patch(scenarios.SimulationResult, "to_dict",
                    self._timed("SimulationResult.to_dict"))
        self._patch(repro, "run_cluster", self._timed("run_cluster"))
        self._patch(repro, "run_sweep", self._timed("run_sweep"))
        for method in ("key_for", "get", "put"):
            self._patch(ResultCache, method,
                        self._timed(f"ResultCache.{method}"))
        self._patch(cluster_engine, "_drive_epochs", self._drive)
        self._patch(multiprocessing.connection.Connection, "recv",
                    self._recv)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original, own = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
