"""Forked workers: zero-argument units run one share per usable CPU.

`verify` runs its checks here and `map` its blocks of lines.  Units share
nothing, so each process runs every unit of its share; a worker sends back
each outcome (what the unit returned, or the exception it raised) as one
pickle, tried once to load back.  The caller gets one outcome per unit in unit
order, the same for any number of workers, and decides which failure wins.
"""

from __future__ import annotations

import os
import pickle
import threading

from . import WorkerError


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


def _pickled(outcome, name: str) -> bytes:
    """The outcome's pickle if it loads back; else the pickle of a WorkerError in
    its place: with its text for an exception, naming the error for a value."""
    try:
        pickle.loads(data := pickle.dumps(outcome))  # some exceptions pickle but do not load
        return data
    except Exception as err:
        return pickle.dumps(WorkerError(
            f"{type(outcome).__name__}: {outcome}" if isinstance(outcome, Exception)
            else f"a {name} unit returned a value that cannot be sent: {type(err).__name__}: {err}"))


def _fork(units: list, name: str) -> tuple[int, int]:
    """Start a worker that runs the units, then writes the pickles `_pickled` makes
    of their outcomes in one write (a write each could fill the pipe and wait on
    the caller's own share); return its pid and the pipe's read end."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError as err:
        os.close(read)
        os.close(write)
        raise WorkerError(f"cannot start a {name} worker: {err}") from None
    if pid == 0:
        try:
            os.close(read)
            with open(write, "wb") as stream:
                stream.write(b"".join([_pickled(_outcome(unit), name) for unit in units]))
        finally:
            os._exit(0)  # never back into the caller's stack, its buffers or its atexit hooks
    os.close(write)
    return pid, read


def _receive(pid: int, read: int, count: int, name: str) -> list:
    """Load a worker's `count` outcomes from its pipe, one pickle each, then reap
    it; each outcome it did not send in full is a WorkerError saying how it ended."""
    outcomes = []
    with open(read, "rb") as stream:
        try:
            while len(outcomes) < count:
                outcomes.append(pickle.load(stream))
        except Exception:  # the stream ends, or breaks off, where the worker did
            pass
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    how = f"was killed by signal {-code}" if code < 0 else f"exited with {code}"
    error = WorkerError(f"{name} worker {pid} {how} before it sent its results")
    return outcomes + [error] * (count - len(outcomes))


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
