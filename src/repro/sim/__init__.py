"""Discrete-event simulation kernel.

This subpackage provides the event-driven substrate on which the virtualized
data plane (:mod:`repro.dataplane`) and the multipath core
(:mod:`repro.core`) are built.  It is deliberately small and fast:

* :class:`~repro.sim.engine.Simulator` -- binary-heap event loop whose
  whole scheduling API is plain callbacks
  (:meth:`~repro.sim.engine.Simulator.call_at`,
  :meth:`~repro.sim.engine.Simulator.call_in`,
  :meth:`~repro.sim.engine.Simulator.periodic`): one tuple per event,
  no event objects.
* :mod:`~repro.sim.rng` -- deterministic, named random streams spawned
  from a single root seed so every experiment is reproducible.
Structured tracing lives in :mod:`repro.obs` (the pre-2.0
``repro.sim.trace`` alias was removed); the ``Tracer`` names
re-exported here come from there.

Example
-------
>>> from repro.sim import Simulator
>>> sim = Simulator()
>>> log = []
>>> sim.call_at(5.0, lambda: log.append(sim.now))
>>> sim.run()
>>> log
[5.0]
"""

from repro.sim.engine import Simulator, NORMAL, URGENT, LOW
from repro.sim.errors import SimulationError, StopSimulation
from repro.sim.rng import RngRegistry
from repro.obs.span import Tracer, TraceRecord, NullTracer

__all__ = [
    "Simulator",
    "NORMAL",
    "URGENT",
    "LOW",
    "SimulationError",
    "StopSimulation",
    "RngRegistry",
    "Tracer",
    "TraceRecord",
    "NullTracer",
]
