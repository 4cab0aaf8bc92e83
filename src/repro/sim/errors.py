"""Exception types used by the simulation kernel."""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for all kernel-level errors.

    Raised for misuse of the kernel API: scheduling into the past or at
    a NaN time, re-entering a running simulator, and so on.  Model-level errors (e.g. a queue overflow the model
    chooses to treat as fatal) should define their own exception types.
    """


class StopSimulation(Exception):
    """Raised inside a callback to halt :meth:`Simulator.run`.

    The event loop catches this exception, stops dispatching and returns
    normally.  ``Simulator.stop()`` is the usual way to trigger it.
    """

    def __init__(self, value=None):
        super().__init__(value)
        self.value = value


class EmptySchedule(SimulationError):
    """:meth:`Simulator.step` found the event heap empty."""
