"""A small process pool that names the task a dead worker took with it.

``multiprocessing.Pool`` never returns a task whose worker was killed
(SIGKILL, the OOM killer): the caller blocks forever.  :class:`TaskPool`
gives each worker its own pipe, hands tasks out one at a time to
whichever worker is idle, and watches every busy worker's pipe *and*
process sentinel, so a death surfaces at once as a :class:`TaskFailed`
carrying the task index and the exit code.  Both parallel engines run
on it: sweep cells (:func:`repro.sweep.run_sweep`) and the two cluster
phases (:func:`repro.cluster.run_cluster`).

Workers are started once and serve tasks until the pool closes, so a
caller can map several rounds of tasks over the same processes.  The
task function is fixed when the pool starts; under ``fork`` it is never
pickled, and everything the parent set up before starting the pool
(warm caches, imported modules) is inherited.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from multiprocessing.connection import wait
from typing import Callable, Iterator, List, Optional, Sequence, Tuple


def resolve_processes(requested: Optional[int], n_items: int,
                      env_var: str) -> int:
    """Worker count for ``n_items`` tasks: ``requested``, else the
    ``env_var`` environment variable, else ``min(n_items, cpu_count)``;
    capped at ``n_items``, and 1 inside a daemonized pool worker."""
    if requested is None:
        env = os.environ.get(env_var)
        if env is not None:
            try:
                requested = int(env)
            except ValueError:
                raise ValueError(
                    f"{env_var} must be an int, got {env!r}") from None
    if requested is None or requested <= 0:
        requested = min(n_items, os.cpu_count() or 1) or 1
    if multiprocessing.current_process().daemon:
        return 1
    return max(1, min(requested, n_items or 1))


class TaskFailed(RuntimeError):
    """Task ``index`` did not complete: its worker raised ``error`` or
    died with ``exitcode`` (``error`` is then ``None``)."""

    def __init__(self, index: int, error: Optional[BaseException] = None,
                 exitcode: Optional[int] = None) -> None:
        super().__init__(index, error, exitcode)
        self.index = index
        self.error = error
        self.exitcode = exitcode


def _worker_main(conn, fn: Callable, inherited: Sequence) -> None:
    """Worker body: run ``fn(arg)`` for every task until told to stop.

    ``inherited`` are the parent's ends of every pipe made before this
    worker forked; closing them lets each worker see EOF as soon as the
    parent closes its own end, instead of holding it open for the
    others.
    """
    for other in inherited:
        other.close()
    try:
        while True:
            arg = conn.recv()
            if arg is None:
                return
            try:
                reply = ("ok", fn(arg))
            except Exception as exc:  # the parent re-raises it
                try:
                    pickle.loads(pickle.dumps(exc))
                except Exception:
                    exc = RuntimeError(f"{type(exc).__name__}: {exc}")
                reply = ("error", exc)
            conn.send(reply)
    except EOFError:  # parent gone: exit quietly
        return
    finally:
        conn.close()


class TaskPool:
    """``processes`` persistent workers, each running ``fn`` on its tasks.

    Use as a context manager: leaving the block stops the workers, and
    leaving it on an exception terminates them without waiting.
    """

    def __init__(self, fn: Callable, processes: int) -> None:
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context("fork" if "fork" in methods
                                          else None)
        forked = ctx.get_start_method() == "fork"
        self._conns: List = []
        self._procs: List = []
        try:
            for _ in range(processes):
                parent_end, child_end = ctx.Pipe()
                inherited = list(self._conns) + [parent_end] if forked else []
                proc = ctx.Process(target=_worker_main,
                                   args=(child_end, fn, inherited),
                                   daemon=True)
                proc.start()
                child_end.close()
                self._conns.append(parent_end)
                self._procs.append(proc)
        except BaseException:
            self.close(terminate=True)
            raise

    def __enter__(self) -> "TaskPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(terminate=exc_type is not None)

    def imap_unordered(self, args: Sequence) -> Iterator[Tuple[int, object]]:
        """Yield ``(index, fn(args[index]))`` as tasks finish.

        Raises :class:`TaskFailed` for the first task whose worker raised
        or died; the pool is then unusable and should be closed.
        """
        pending = list(range(len(args)))[::-1]
        idle = list(range(len(self._procs)))[::-1]
        busy = {}  # worker -> task index
        while pending or busy:
            while pending and idle:
                w, index = idle.pop(), pending.pop()
                try:
                    self._conns[w].send(args[index])
                except OSError:  # broken pipe: the worker is gone
                    raise self._lost(w, index) from None
                busy[w] = index
            ready = set(wait([self._conns[w] for w in busy]
                             + [self._procs[w].sentinel for w in busy]))
            for w in list(busy):
                conn = self._conns[w]
                if conn not in ready and self._procs[w].sentinel not in ready:
                    continue
                index = busy.pop(w)
                try:
                    if not conn.poll():
                        raise EOFError
                    tag, value = conn.recv()
                except (EOFError, OSError):
                    raise self._lost(w, index) from None
                if tag == "error":
                    raise TaskFailed(index, error=value)
                idle.append(w)
                yield index, value

    def _lost(self, w: int, index: int) -> TaskFailed:
        proc = self._procs[w]
        proc.join(timeout=5)
        return TaskFailed(index, exitcode=proc.exitcode)

    def close(self, terminate: bool = False) -> None:
        """Stop every worker: ask politely, or ``terminate`` at once."""
        for conn in self._conns:
            if not terminate:
                try:
                    conn.send(None)
                except OSError:
                    pass
            conn.close()
        for proc in self._procs:
            if terminate and proc.is_alive():
                proc.terminate()
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.kill()
                proc.join()
        self._conns, self._procs = [], []
