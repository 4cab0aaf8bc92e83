"""Import hygiene: ``import repro`` loads only what a simulation needs.

Every fresh process -- a CLI call, a sweep or cluster worker on a spawn
platform -- pays for ``import repro`` before it simulates anything, so
networkx, the multiprocessing engines and the operations stack load on
first use instead.  The public surface is unchanged: every ``__all__``
name of ``repro`` and of each subpackage resolves and is listed by
``dir()``.
"""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro

LAZY_PACKAGES = ["repro", "repro.obs", "repro.check", "repro.faults",
                 "repro.bench", "repro.sweep", "repro.cluster", "repro.slo"]
EAGER_PACKAGES = ["repro.analysis", "repro.core", "repro.dataplane",
                  "repro.elements", "repro.metrics", "repro.net", "repro.sim"]

#: Modules a single-host simulation run must not import.
NOT_FOR_A_RUN = ["networkx", "multiprocessing", "repro.sweep",
                 "repro.cluster", "repro.slo", "repro.obs.forensics",
                 "repro.obs.ledger", "repro.obs.export"]

RUN_ONE_HOST = """\
import json, sys
import repro
from repro.bench.scenarios import build_runtime
build_runtime(repro.ScenarioConfig())
print(json.dumps(sorted(set(sys.argv[1:]) & set(sys.modules))))
"""


def test_simulation_run_imports_no_operations_stack():
    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src, *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, "-c", RUN_ONE_HOST, *NOT_FOR_A_RUN],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    assert json.loads(proc.stdout.splitlines()[-1]) == []


@pytest.mark.parametrize("name", LAZY_PACKAGES + EAGER_PACKAGES)
def test_every_export_resolves_and_is_listed(name):
    package = importlib.import_module(name)
    listed = dir(package)
    for attr in package.__all__:
        assert getattr(package, attr) is not None, f"{name}.{attr}"
        assert attr in listed, f"{name}.{attr} missing from dir()"
    assert len(set(package.__all__)) == len(package.__all__)


def test_from_import_and_submodule_access():
    from repro import ClusterConfig, FabricConfig, run_sweep, schemas

    assert ClusterConfig is repro.cluster.ClusterConfig
    assert FabricConfig is repro.net.fabric.FabricConfig
    assert run_sweep is repro.sweep.run_sweep
    assert schemas is repro.schemas
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        repro.nonexistent
    with pytest.raises(ImportError):
        from repro.obs import nonexistent  # noqa: F401
