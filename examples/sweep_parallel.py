#!/usr/bin/env python
"""Parallel parameter sweep with the declarative experiment API.

Builds a :class:`~repro.SweepSpec` -- a load x policy grid over
:class:`~repro.ScenarioConfig` fields -- and hands it to
:func:`~repro.run_sweep`, which fans the cells out across a worker pool
with content-hash result caching.  Per-cell results are bit-identical
whatever the worker count, and a re-run of this script completes in
milliseconds once the cache is warm (delete ``.repro-cache/`` to force
recomputation).

The same grid is reachable from the shell::

    python -m repro sweep --axis load=0.3,0.5,0.7 \\
        --axis policy=single,hash,spray,adaptive --out sweep.json

Run:  python examples/sweep_parallel.py
"""

import repro
from repro import Axis, SweepSpec, Table, run_sweep

SPEC = SweepSpec(
    name="load-vs-policy",
    base=dict(chain="heavy", duration=60_000.0, warmup=8_000.0, seed=1),
    axes=[
        Axis("load", [0.3, 0.5, 0.7]),
        Axis("policy", ["single", "hash", "spray", "adaptive"]),
    ],
)


def main():
    print(f"expanding '{SPEC.name}': {SPEC.n_cells} cells ...")
    sr = run_sweep(
        SPEC,
        progress=lambda done, total, cell: print(
            f"  [{done:2d}/{total}] {cell.params}  "
            f"p99={cell.exact['p99']:.1f}us"
            f"{'  (cached)' if cell.cached else ''}"
        ),
    )

    table = Table(["load", "policy", "p50", "p99", "p99.9"],
                  title="p99 latency across the load x policy grid (us)")
    for cell in sr.cells:
        table.add_row([cell.params["load"], cell.params["policy"],
                       cell.summary.p50, cell.exact["p99"],
                       cell.exact["p999"]])
    print(table.render())

    acct = sr.accounting()
    print(f"\n{acct['cells']} cells in {acct['wall_s']:.1f}s wall, "
          f"{acct['cell_cpu_s']:.1f} CPU-s of simulation "
          f"(jobs={acct['jobs']}, speedup {acct['speedup']:.1f}x, "
          f"cache {acct['cache_hits']} hit / {acct['cache_misses']} miss)")

    # Any single grid point is just one repro.run away -- same seed, same
    # config, bit-identical summary to the sweep's cell:
    cell = sr.get(load=0.7, policy="adaptive")
    solo = repro.run(repro.ScenarioConfig.from_dict(cell.config))
    assert solo.summary.to_dict() == cell.summary.to_dict()
    print("\nspot check: repro.run on the (0.7, adaptive) cell config "
          "reproduces the sweep result exactly.")


if __name__ == "__main__":
    main()
