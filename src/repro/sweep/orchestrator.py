"""Parallel sweep execution with caching and progress reporting.

:func:`run_sweep` expands a :class:`~repro.sweep.spec.SweepSpec`, serves
every cell it can from the content-hash cache, and fans the misses out
across a :class:`~repro.sweep.pool.TaskPool`.  Each cell is an independent
simulation with its own :class:`~repro.sim.rng.RngRegistry` seeded from
the cell config, so results are bit-identical whatever the worker count
-- parallelism changes only *when* a cell runs, never *what* it computes.
Cells are reassembled in expansion order regardless of completion order.
A cluster-base cell runs :func:`~repro.cluster.run_cluster`: sharded
when run inline, in one process on a pool worker, to the same payload.
A worker that dies mid-cell stops the sweep with a
:class:`SweepExecutionError` naming the cell.

Worker-count resolution: an explicit ``jobs`` argument wins, else the
``REPRO_SWEEP_JOBS`` env var, else ``min(n_cells, cpu_count)``.  Caching
defaults on; disable per call (``cache=False``) or globally with
``REPRO_SWEEP_CACHE=0``.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro import schemas
from repro.sweep.cache import ResultCache
from repro.sweep.pool import resolve_processes
from repro.sweep.result import CellResult, SweepResult, measure
from repro.sweep.spec import SweepCell, SweepSpec

#: Progress callback signature: (done_count, total, finished_cell).
ProgressFn = Callable[[int, int, CellResult], None]


def _run_config_dict(config_dict: Dict,
                     telemetry_dir: Optional[str] = None,
                     check=None) -> Dict:
    """Simulate one canonical config dict and return its cell payload.

    With ``telemetry_dir`` set, the run is instrumented and its bundle
    (trace.json / events.jsonl / metrics.json / manifest.json /
    forensics.json) is exported under ``<telemetry_dir>/<cache-key>/``
    -- per host under ``host<k>/`` for a cluster cell.  Tail forensics
    runs over every instrumented cell, so a sweep leaves a per-cell
    cause attribution behind.  With ``check`` (a
    :class:`~repro.check.spec.CheckSpec`), the invariant engine runs
    armed and the payload gains a ``check_report``.  The simulated cell
    identity is byte-identical either way -- telemetry, forensics and
    checking are observations, never part of the cell result.
    """
    bundle = None
    if telemetry_dir is not None:
        bundle = os.path.join(telemetry_dir,
                              ResultCache().key_for(config_dict))
    telemetry = None
    t0, c0 = time.perf_counter(), _cpu_s()
    if schemas.infer_kind(config_dict) == "cluster_config":
        from repro.cluster import ClusterConfig, run_cluster

        # Default worker count: 1 inside a pool worker, sharded inline.
        result = run_cluster(ClusterConfig.from_dict(config_dict),
                             telemetry_dir=bundle,
                             forensics=bundle is not None)
    else:
        from repro.bench.scenarios import ScenarioConfig, run_scenario

        if bundle is not None:
            from repro.obs import Telemetry

            telemetry = Telemetry()
        result = run_scenario(ScenarioConfig.from_dict(config_dict),
                              telemetry=telemetry, check=check,
                              forensics=telemetry is not None)
    payload = measure(result, wall_s=time.perf_counter() - t0,
                      cpu_s=_cpu_s() - c0)
    if telemetry is not None:
        telemetry.export(bundle)
    return payload


def _cpu_s() -> float:
    """CPU seconds of this process and its reaped children (the shard
    workers of a cluster cell run inline)."""
    import resource

    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def _worker(item: Tuple[Dict, Optional[str], Optional[object]]) -> Dict:
    """Pool entry point: (config dict, telemetry dir, check spec) ->
    payload."""
    return _run_config_dict(*item)


class SweepExecutionError(RuntimeError):
    """A sweep worker died; the message names the cell index, its
    params and the worker's exit code."""


def resolve_jobs(jobs: Optional[int], n_cells: int) -> int:
    """Apply the worker-count resolution rules (see module docstring)."""
    return resolve_processes(jobs, n_cells, "REPRO_SWEEP_JOBS")


def _cache_enabled(cache: Optional[bool]) -> bool:
    if cache is not None:
        return cache
    return os.environ.get("REPRO_SWEEP_CACHE", "1") != "0"


def run_sweep(
    spec: SweepSpec,
    jobs: Optional[int] = None,
    cache: Optional[bool] = None,
    cache_dir: Optional[str] = None,
    progress: Optional[ProgressFn] = None,
    telemetry: bool = False,
    telemetry_dir: Optional[str] = None,
    check=None,
) -> SweepResult:
    """Run every cell of ``spec`` and return the structured artifact.

    Parameters
    ----------
    jobs:
        Worker processes; ``None``/``0`` = auto (env, then cpu count).
        ``jobs=1`` runs inline in this process -- results are identical
        either way.
    cache:
        Tri-state: ``None`` honors ``REPRO_SWEEP_CACHE`` (default on),
        ``True``/``False`` force it.
    cache_dir:
        Cache root (default ``.repro-cache/`` or ``REPRO_CACHE_DIR``).
    progress:
        Called after every finished cell with
        ``(done, total, cell_result)``; cache hits report up front.
    telemetry:
        Instrument every simulated cell and persist its observability
        bundle under ``<telemetry_dir>/<cache-key>/`` (default
        ``<cache root>/telemetry/``).  Cell payloads are bit-identical
        with or without this; a cached cell whose bundle is missing is
        re-simulated so the sweep always ends with telemetry for every
        cell.
    telemetry_dir:
        Override the bundle root (implies ``telemetry=True``).
    check:
        Arm the runtime invariant engine in every simulated cell
        (``True`` for defaults, or a :class:`~repro.check.CheckSpec`).
        Cached payloads carry no check report, so checked sweeps bypass
        the cache entirely -- every cell is re-simulated armed.
    """
    check_spec = None
    if check is not None and check is not False:
        from repro.check.spec import CheckSpec

        if spec.is_cluster:
            raise ValueError(
                "check= has no cell report for a cluster base; arm the "
                "checks on one cell with run_cluster(config, check=True) "
                "or `repro cluster run --check`")
        check_spec = check if isinstance(check, CheckSpec) else CheckSpec()
    t0 = time.perf_counter()
    cells = spec.expand()
    total = len(cells)
    jobs = resolve_jobs(jobs, total)
    use_cache = _cache_enabled(cache) and check_spec is None
    store = ResultCache(cache_dir) if use_cache else None
    tel_dir: Optional[str] = None
    if telemetry or telemetry_dir is not None:
        tel_dir = telemetry_dir or os.path.join(
            str(ResultCache(cache_dir).root), "telemetry"
        )

    done: Dict[int, CellResult] = {}
    keys: Dict[int, str] = {}
    misses: List[SweepCell] = []
    hits = 0
    keyer = store if store is not None else ResultCache(cache_dir)
    for cell in cells:
        payload = None
        keys[cell.index] = keyer.key_for(cell.config_dict)
        if store is not None:
            payload = store.get(keys[cell.index])
        if payload is not None and tel_dir is not None and not os.path.isdir(
            os.path.join(tel_dir, keys[cell.index])
        ):
            payload = None  # cached result but no bundle: re-simulate
        if payload is None:
            misses.append(cell)
        else:
            done[cell.index] = _assemble(cell, payload, cached=True)
            hits += 1
            if progress is not None:
                progress(len(done), total, done[cell.index])

    def finish(cell: SweepCell, payload: Dict) -> None:
        if store is not None:
            store.put(keys[cell.index], payload)
        done[cell.index] = _assemble(cell, payload, cached=False)
        if progress is not None:
            progress(len(done), total, done[cell.index])

    if misses and (jobs == 1 or len(misses) == 1):
        for cell in misses:
            finish(cell,
                   _run_config_dict(cell.config_dict, tel_dir, check_spec))
    elif misses:
        from repro.bench.scenarios import prime_capacity_cache
        from repro.sweep.pool import TaskFailed, TaskPool

        # Workers fork with the calibration cache warm.
        configs = [cell.config() for cell in misses]
        prime_capacity_cache(
            [h.scenario for c in configs for h in c.hosts]
            if spec.is_cluster else configs)
        work = [(cell.config_dict, tel_dir, check_spec) for cell in misses]
        with TaskPool(_worker, min(jobs, len(misses))) as pool:
            try:
                for i, payload in pool.imap_unordered(work):
                    finish(misses[i], payload)
            except TaskFailed as exc:
                if exc.error is not None:
                    raise exc.error from None
                cell = misses[exc.index]
                raise SweepExecutionError(
                    f"sweep worker died running cell {cell.index} "
                    f"{cell.params} (exit code {exc.exitcode})") from None

    return SweepResult(
        spec=spec.to_dict(),
        cells=[done[i] for i in sorted(done)],
        jobs=jobs,
        wall_s=time.perf_counter() - t0,
        cache_hits=hits,
        cache_misses=len(misses),
    )


def _assemble(cell: SweepCell, payload: Dict, cached: bool) -> CellResult:
    """Join a cell's coordinates with its (possibly cached) payload."""
    out = CellResult.from_dict({
        "index": cell.index,
        "params": cell.params,
        "config": cell.config_dict,
        **payload,
    })
    out.cached = cached
    return out
