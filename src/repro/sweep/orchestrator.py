"""Parallel sweep execution with caching and progress reporting.

:func:`run_sweep` expands a :class:`~repro.sweep.spec.SweepSpec`, serves
every cell it can from the content-hash cache, and fans the misses out
across a ``multiprocessing`` pool.  Each cell is an independent
simulation with its own :class:`~repro.sim.rng.RngRegistry` seeded from
the cell config, so results are bit-identical whatever the worker count
-- parallelism changes only *when* a cell runs, never *what* it computes.
Cells are reassembled in expansion order regardless of completion order.

Worker-count resolution: an explicit ``jobs`` argument wins, else the
``REPRO_SWEEP_JOBS`` env var, else ``min(n_cells, cpu_count)``.  Caching
defaults on; disable per call (``cache=False``) or globally with
``REPRO_SWEEP_CACHE=0``.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.sweep.cache import ResultCache
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
    -- tail forensics runs over every instrumented cell, so a sweep
    leaves a per-cell cause attribution behind.  With ``check`` (a
    :class:`~repro.check.spec.CheckSpec`), the invariant engine runs
    armed and the payload gains a ``check_report``.  The simulated cell
    identity is byte-identical either way -- telemetry, forensics and
    checking are observations, never part of the cell result.
    """
    from repro.bench.scenarios import ScenarioConfig, run_scenario

    telemetry = None
    if telemetry_dir is not None:
        from repro.obs import Telemetry

        telemetry = Telemetry()
    t0, c0 = time.perf_counter(), time.process_time()
    result = run_scenario(ScenarioConfig.from_dict(config_dict),
                      telemetry=telemetry, check=check,
                      forensics=telemetry is not None)
    payload = measure(result, wall_s=time.perf_counter() - t0,
                      cpu_s=time.process_time() - c0)
    if telemetry is not None:
        key = ResultCache().key_for(config_dict)
        telemetry.export(os.path.join(telemetry_dir, key))
    return payload


def _worker(item: Tuple[int, Dict, Optional[str], Optional[object]]
            ) -> Tuple[int, Dict]:
    """Pool entry point: (index, config dict, telemetry dir, check spec)
    -> (index, payload)."""
    index, config_dict, telemetry_dir, check = item
    return index, _run_config_dict(config_dict, telemetry_dir, check)


def resolve_jobs(jobs: Optional[int], n_cells: int) -> int:
    """Apply the worker-count resolution rules (see module docstring)."""
    if jobs is None:
        env = os.environ.get("REPRO_SWEEP_JOBS")
        if env is not None:
            try:
                jobs = int(env)
            except ValueError:
                raise ValueError(
                    f"REPRO_SWEEP_JOBS must be an int, got {env!r}"
                ) from None
    if jobs is None or jobs <= 0:
        jobs = min(n_cells, os.cpu_count() or 1) or 1
    if multiprocessing.current_process().daemon:
        return 1  # nested inside a pool worker: no grandchild pools
    return max(1, min(jobs, n_cells or 1))


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

    by_index = {cell.index: cell for cell in misses}
    if misses and (jobs == 1 or len(misses) == 1):
        for cell in misses:
            finish(cell,
                   _run_config_dict(cell.config_dict, tel_dir, check_spec))
    elif misses:
        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else None
        )
        with ctx.Pool(processes=min(jobs, len(misses))) as pool:
            work = [(cell.index, cell.config_dict, tel_dir, check_spec)
                    for cell in misses]
            for index, payload in pool.imap_unordered(_worker, work,
                                                      chunksize=1):
                finish(by_index[index], payload)

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
