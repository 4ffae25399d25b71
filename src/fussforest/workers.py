"""Forked workers: zero-argument units run one share per usable CPU.

`verify` runs its checks here and `map` its blocks of lines.  Units share
nothing, so each process runs every unit of its share and sends back their
outcomes, pickled over a pipe: what each unit returned, or the exception it
raised, each tried once for a pickle that loads back.  The caller gets one
outcome per unit in unit order, the same for any number of workers, and
decides itself which failure wins.
"""

from __future__ import annotations

import os
import threading


class WorkerError(RuntimeError):
    """A worker could not be started, could not send an outcome, or ended
    without sending its outcomes."""


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has affinity masks
        return os.cpu_count() or 1


def _outcome(unit):
    """What the unit returns, or the exception it raises."""
    try:
        return unit()
    except Exception as err:
        return err


def _sendable(outcome, name: str):
    """The outcome if it pickles and loads back; else a WorkerError in its
    place: with its text for an exception, naming the error for a value."""
    import pickle  # here, so that start-up does not pay for it

    try:
        pickle.loads(pickle.dumps(outcome))  # some exceptions pickle but do not load
        return outcome
    except Exception as err:
        return WorkerError(
            f"{type(outcome).__name__}: {outcome}" if isinstance(outcome, Exception)
            else f"a {name} unit returned a value that cannot be sent: {type(err).__name__}: {err}")


def _fork(units: list, name: str) -> tuple[int, int]:
    """Start a worker that runs the units and pickles what `_sendable` makes of
    their outcomes, as one list, into a pipe; return its pid and the read end."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError as err:
        os.close(read)
        os.close(write)
        raise WorkerError(f"cannot start a {name} worker: {err}") from None
    if pid == 0:
        try:
            import pickle

            os.close(read)
            data = pickle.dumps([_sendable(_outcome(unit), name) for unit in units])
            with open(write, "wb") as stream:
                stream.write(data)
        finally:
            os._exit(0)  # never back into the caller's stack, its buffers or its atexit hooks
    os.close(write)
    return pid, read


def _receive(pid: int, read: int, count: int, name: str) -> list:
    """Drain a worker's pipe, reap the worker, and return the outcomes of its
    `count` units: what it sent, or one WorkerError each if it sent nothing."""
    import pickle

    with open(read, "rb") as stream:
        data = stream.read()
    status = os.waitpid(pid, 0)[1]
    try:
        return pickle.loads(data)
    except Exception:
        code = os.waitstatus_to_exitcode(status)
        how = f"was killed by signal {-code}" if code < 0 else f"exited with {code}"
        return [WorkerError(f"{name} worker {pid} {how} before it sent its results")] * count


def run_units(units: list, name: str) -> list:
    """Run zero-argument units that return picklable values, not exceptions;
    one outcome per unit, in unit order: its value, or the exception it raised.

    With W = min(units, usable CPUs) or 1, W - 1 forked workers and this
    process share the units: process w runs units w, w + W, ..., every one of
    them even after one raises, so W = 1 is the same loop with no fork.  W is
    1 without os.fork, and while other threads run, since a fork copies the
    locks they may hold.  A worker's outcome that cannot be sent back, and
    each outcome of a worker that died before it sent them, is a WorkerError.
    Only a worker that cannot be started raises one here.  `name` says whose
    workers they are in a WorkerError.
    """
    workers = 1
    if hasattr(os, "fork") and threading.active_count() == 1:
        workers = min(len(units), usable_cpus()) or 1
    outcomes = [None] * len(units)
    children = []
    try:
        for w in range(1, workers):
            children.append((w, *_fork(units[w::workers], name)))
        outcomes[::workers] = map(_outcome, units[::workers])
    finally:
        # On every way out, so that no pipe stays open and no worker unreaped.
        for w, pid, read in children:
            outcomes[w::workers] = _receive(pid, read, len(outcomes[w::workers]), name)
    return outcomes
