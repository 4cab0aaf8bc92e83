"""The event loop.

:class:`Simulator` keeps its schedule in a single binary heap
(``heapq``) of ``(time, key, fn, args)`` tuples and dispatches each one
as ``fn(*args)``.  :meth:`Simulator.call_at` / :meth:`Simulator.call_in`
are the whole scheduling API: one tuple per event, no Event object.

Entries are ordered by ``(time, key)`` where ``key`` packs
``(priority << 52) | sequence`` into one integer: the monotonically
increasing sequence number makes ordering total and FIFO-stable among
same-time, same-priority entries, and packing keeps schedule tuples at
four elements so comparisons rarely go past the second slot.  The
sequence space is guarded: exhausting 2**52 entries raises a
:class:`~repro.sim.errors.SimulationError` rather than silently folding
priorities into each other.

Hot-path producers (traffic sources, the NIC, the poller) push
pre-packed tuples through :attr:`Simulator._push`, a bound ``heappush``
installed at construction, and advance :attr:`Simulator._seq`
themselves; every such push allocates exactly the entry ``call_at``
would have.

Cancelled periodic callbacks are deleted lazily: :meth:`PeriodicHandle.cancel`
is O(1) and leaves the pending entry in place as a no-op, but the
simulator counts the dead entries and compacts the heap once they
outnumber the live ones (see :meth:`Simulator._compact`), so cancel-heavy
workloads -- control loops, liveness probes, ejected-path timers -- keep
a bounded schedule.
"""

from __future__ import annotations

import warnings
from functools import partial
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional

from repro.sim.errors import EmptySchedule, SimulationError, StopSimulation

#: Runs before NORMAL entries at the same timestamp (e.g. preemptions).
URGENT = 0
#: Default scheduling priority.
NORMAL = 1
#: Runs after NORMAL entries at the same timestamp (e.g. bookkeeping).
LOW = 2

#: Bits reserved for the sequence number inside a packed ordering key.
#: 2**52 entries is far beyond any run; priority occupies the top bits.
_SEQ_BITS = 52
#: Largest sequence number that still packs without touching priority bits.
_SEQ_MAX = (1 << _SEQ_BITS) - 1

_INF = float("inf")

#: Compaction trigger: at least this many dead entries *and* dead
#: entries at least half the schedule (amortized O(1) per cancel).
_COMPACT_MIN = 64

_scheduler_warned = False


def warn_scheduler_ignored(stacklevel: int = 3) -> None:
    """Deprecation shim for the removed ``scheduler=`` argument.

    ``Simulator``, ``RunOptions`` and ``run_cluster`` still accept
    ``scheduler=``; any non-None value warns once per process and is
    then ignored, since the binary heap is the only schedule.
    ``stacklevel`` counts from this function to the caller's own code,
    so the warning points at the line that passed ``scheduler=``.
    """
    global _scheduler_warned
    if not _scheduler_warned:
        _scheduler_warned = True
        warnings.warn(
            "the scheduler= argument is deprecated and ignored: the "
            "binary heap is the only event schedule",
            DeprecationWarning,
            stacklevel=stacklevel,
        )


def _seq_space_error(seq: int) -> SimulationError:
    """The error for a sequence number past :data:`_SEQ_MAX`."""
    return SimulationError(
        f"sequence space exhausted: {seq} entries exceed the "
        f"2**{_SEQ_BITS} packing headroom of the ordering key; "
        f"widen _SEQ_BITS if a run legitimately needs more"
    )


class PeriodicHandle:
    """A cancellable periodic callback scheduled by :meth:`Simulator.periodic`.

    Each firing runs ``fn()`` first and reschedules afterwards, so any
    entries ``fn`` pushes onto the schedule are sequenced *before* the
    next firing -- the same ordering a self-rescheduling callback written
    as ``fn(); sim.call_in(interval, fn)`` produces.  :meth:`cancel` is
    lazy: the pending entry stays but becomes a no-op, which keeps
    cancellation O(1); the simulator's dead-entry accounting compacts
    the schedule when cancelled entries pile up.
    """

    __slots__ = ("sim", "interval", "fn", "priority", "cancelled", "fired")

    def __init__(self, sim: "Simulator", interval: float,
                 fn: Callable[[], Any], priority: int) -> None:
        self.sim = sim
        self.interval = interval
        self.fn = fn
        self.priority = priority
        self.cancelled = False
        #: Number of completed firings (diagnostics).
        self.fired = 0

    def cancel(self) -> None:
        """Stop firing; the already-scheduled entry becomes a no-op.

        O(1): the entry is deleted lazily.  The simulator counts dead
        entries and compacts the schedule once they dominate, so
        cancel-heavy workloads cannot grow the schedule without bound.
        """
        if not self.cancelled:
            self.cancelled = True
            self.sim._note_dead()

    def _fire(self) -> None:
        if self.cancelled:
            # The no-op entry just left the schedule naturally.
            sim = self.sim
            if sim._dead:
                sim._dead -= 1
            return
        self.fn()
        self.fired += 1
        if not self.cancelled:  # fn may have cancelled us
            self.sim.call_in(self.interval, self._fire, priority=self.priority)


_BOUND_METHOD = type(PeriodicHandle.cancel.__get__(object()))


def _entry_is_dead(entry) -> bool:
    """True for a schedule entry belonging to a cancelled periodic handle."""
    fn = entry[2]
    if type(fn) is not _BOUND_METHOD or fn.__func__ is not PeriodicHandle._fire:
        return False
    return fn.__self__.cancelled


class Simulator:
    """A discrete-event simulator.

    Parameters
    ----------
    start_time:
        Initial value of the simulation clock (default ``0.0``).  Time
        units are whatever the model chooses; the data-plane models in this
        repository use **microseconds**.
    scheduler:
        Deprecated and ignored (the binary heap is the only schedule);
        a non-None value warns once per process.

    Notes
    -----
    The simulator is single-threaded and deterministic: given the same
    seeded random streams and the same schedule of calls it always produces
    the same trajectory.
    """

    __slots__ = (
        "_now",
        "_heap",
        "_push",
        "_seq",
        "_running",
        "_processed",
        "_dead",
    )

    def __init__(self, start_time: float = 0.0,
                 scheduler: Optional[str] = None) -> None:
        if scheduler is not None:
            warn_scheduler_ignored()
        self._now: float = float(start_time)
        self._heap: list = []
        #: Hot-path producers call this with a pre-packed
        #: ``(time, key, fn, args)`` tuple.
        self._push = partial(heappush, self._heap)
        self._seq: int = 0
        self._running: bool = False
        self._processed: int = 0
        #: Lazily-deleted (cancelled) entries still on the schedule.
        self._dead: int = 0

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def processed_count(self) -> int:
        """Number of schedule entries dispatched so far (cheap progress metric)."""
        return self._processed

    @property
    def pending_count(self) -> int:
        """Number of entries currently scheduled.

        Includes lazily-cancelled periodic entries that have not been
        compacted away yet, so treat this as an upper bound; the
        invariant sampler and tests use it as a liveness signal.
        """
        return len(self._heap)

    def peek(self) -> float:
        """Time of the next scheduled entry, or ``inf`` if none."""
        heap = self._heap
        return heap[0][0] if heap else _INF

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def call_at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = NORMAL,
    ) -> None:
        """Schedule ``fn(*args)`` at absolute simulation ``time``.

        This is the hot-path API: it allocates a single schedule tuple
        and no Event object.  ``fn`` must not raise ``StopIteration``.
        A ``time`` before now, or NaN, raises :class:`SimulationError`.
        """
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule at {time!r}: not a time at or after "
                f"now={self._now}"
            )
        self._seq = seq = self._seq + 1
        if seq > _SEQ_MAX:
            raise _seq_space_error(seq)
        self._push((time, (priority << _SEQ_BITS) | seq, fn, args))

    def call_in(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = NORMAL,
    ) -> None:
        """Schedule ``fn(*args)`` ``delay`` time units from now.

        A negative or NaN ``delay`` raises :class:`SimulationError`.
        """
        if not delay >= 0:
            raise SimulationError(f"delay must be >= 0, got {delay!r}")
        self._seq = seq = self._seq + 1
        if seq > _SEQ_MAX:
            raise _seq_space_error(seq)
        self._push((self._now + delay, (priority << _SEQ_BITS) | seq, fn, args))

    def periodic(
        self,
        interval: float,
        fn: Callable[[], Any],
        *,
        priority: int = NORMAL,
        first_at: Optional[float] = None,
    ) -> PeriodicHandle:
        """Run ``fn()`` every ``interval`` time units until cancelled.

        The first firing is at ``now + interval`` (or at the absolute
        time ``first_at`` when given); each firing runs ``fn`` and then
        reschedules, so control loops written against this helper are
        order-identical to the traditional self-rescheduling callback.
        Returns a :class:`PeriodicHandle`; call its
        :meth:`~PeriodicHandle.cancel` to stop.
        """
        if not interval > 0:
            raise SimulationError(
                f"periodic interval must be positive, got {interval!r}"
            )
        handle = PeriodicHandle(self, interval, fn, priority)
        if first_at is None:
            self.call_in(interval, handle._fire, priority=priority)
        else:
            self.call_at(first_at, handle._fire, priority=priority)
        return handle

    # ------------------------------------------------------------------
    # Lazy deletion
    # ------------------------------------------------------------------
    def _note_dead(self) -> None:
        """Account one lazily-cancelled entry; compact when they dominate."""
        self._dead = dead = self._dead + 1
        if dead >= _COMPACT_MIN and dead * 2 >= len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled periodic entries from the heap.

        Removal never reallocates sequence numbers or reorders live
        entries, so compaction is invisible to the simulated trajectory.
        Safe to run from inside a callback: the heap list is filtered in
        place, so a draining loop's hoisted reference stays valid.
        """
        heap = self._heap
        kept = [e for e in heap if not _entry_is_dead(e)]
        if len(kept) != len(heap):
            heap[:] = kept
            heapify(heap)
        self._dead = 0

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Dispatch the single next entry on the schedule.

        Raises :class:`EmptySchedule` if the schedule is empty.
        """
        heap = self._heap
        if not heap:
            raise EmptySchedule("event schedule is empty")
        e = heappop(heap)
        self._now = e[0]
        self._processed += 1
        e[2](*e[3])

    def run(self, until: Optional[float] = None) -> Any:
        """Run the event loop.

        Parameters
        ----------
        until:
            * ``None`` -- run until the schedule is empty.
            * a number -- run until the clock reaches that time; entries at
              exactly ``until`` are *not* dispatched and the clock is left
              at ``until``.

        Returns
        -------
        The value passed to :meth:`stop`, or ``None``.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        until = _INF if until is None else float(until)
        if not until >= self._now:
            raise SimulationError(f"until={until} is in the past (now={self._now})")
        self._running = True
        try:
            self._drain(until)
        except StopSimulation as exc:
            return exc.value
        finally:
            self._running = False
        if self._now < until < _INF:
            self._now = until
        return None

    def _drain(self, until: float) -> None:
        # The dispatch loop is inlined (rather than calling step()) --
        # this is the hottest loop in the package.  Attribute lookups
        # are hoisted, and the boundary check costs one extra pop/push
        # round-trip at the end of the drain instead of a peek per entry.
        heap = self._heap
        pop = heappop
        n = 0
        try:
            while heap:
                e = pop(heap)
                t = e[0]
                if t >= until:
                    heappush(heap, e)
                    return
                self._now = t
                n += 1
                e[2](*e[3])
        finally:
            self._processed += n

    def stop(self, value: Any = None) -> None:
        """Halt :meth:`run` from inside a callback."""
        raise StopSimulation(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator now={self._now} pending={len(self._heap)}>"
