"""Forked workers: zero-argument units run one share per usable CPU.

`verify` runs its checks here and `map` its blocks of lines.  Units share
nothing, so each process runs its share and sends back what the units
returned, pickled over a pipe; the caller gets the values in unit order,
the same for any number of workers.
"""

from __future__ import annotations

import os
import threading


class WorkerError(RuntimeError):
    """A worker could not be started, could not send a value or an error, or
    ended without sending its results."""


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has affinity masks
        return os.cpu_count() or 1


def _run_share(units: list) -> tuple[list, Exception | None]:
    """Run units in order until one raises: their values, and that exception."""
    values = []
    try:
        for unit in units:
            values.append(unit())
    except Exception as err:
        return values, err
    return values, None


def _pickled(values: list, error: Exception | None, name: str) -> bytes:
    """What a worker sends back, pickled: `_run_share`'s values and error.

    If a value does not pickle, the values before it go, with a WorkerError
    naming its pickling error in place of the error.  An error that does not
    pickle, or pickles but does not load, goes as a WorkerError with its text.
    """
    import pickle  # here, so that start-up does not pay for it

    try:
        data = pickle.dumps((values, error))
        pickle.loads(data)  # some exceptions pickle but do not load
        return data
    except Exception:
        pass
    for i, value in enumerate(values):
        try:
            pickle.loads(pickle.dumps(value))
        except Exception as err:
            values = values[:i]
            error = WorkerError(f"a {name} unit returned a value that cannot be sent: "
                                f"{type(err).__name__}: {err}")
            break
    else:
        error = WorkerError(f"{type(error).__name__}: {error}")
    return pickle.dumps((values, error))


def _fork(units: list, name: str) -> tuple[int, int]:
    """Start a worker that runs the units and writes what `_pickled` makes
    of their values into a pipe; return its pid and the pipe's read end."""
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
            data = _pickled(*_run_share(units), name)
            with open(write, "wb") as stream:
                stream.write(data)
        finally:
            os._exit(0)  # never back into the caller's stack, its buffers or its atexit hooks
    os.close(write)
    return pid, read


def _receive(pid: int, read: int, name: str) -> tuple[list, Exception | None]:
    """Drain a worker's pipe, reap the worker, and return what it sent."""
    import pickle

    with open(read, "rb") as stream:
        data = stream.read()
    status = os.waitpid(pid, 0)[1]
    try:
        return pickle.loads(data)
    except Exception:
        code = os.waitstatus_to_exitcode(status)
        how = f"was killed by signal {-code}" if code < 0 else f"exited with {code}"
        return [], WorkerError(f"{name} worker {pid} {how} before it sent its results")


def run_units(units: list, name: str) -> list:
    """Run zero-argument units that return picklable values; the values in unit order.

    With W = min(units, usable CPUs) or 1, W - 1 forked workers and this
    process share the units: process w runs units w, w + W, ..., so W = 1 is
    the same loop with no fork.  W is 1 without os.fork, and while other
    threads run, since a fork copies the locks they may hold.  The exception
    of the lowest-numbered failing unit is raised here with its own type; a
    unit whose value a worker cannot pickle fails with a WorkerError that
    names the pickling error.  `name` says whose workers they are in a
    WorkerError.
    """
    workers = 1
    if hasattr(os, "fork") and threading.active_count() == 1:
        workers = min(len(units), usable_cpus()) or 1
    children = []
    try:
        for w in range(1, workers):
            children.append(_fork(units[w::workers], name))
        mine = _run_share(units[::workers])
    finally:
        # On every way out, so that no pipe stays open and no worker unreaped.
        received = [_receive(pid, read, name) for pid, read in children]
    ordered = [None] * len(units)
    failed = []
    for w, (values, error) in enumerate([mine, *received]):
        for i, value in enumerate(values):
            ordered[w + i * workers] = value
        if error is not None:
            failed.append((w + len(values) * workers, error))
    if failed:
        raise min(failed, key=lambda pair: pair[0])[1]
    return ordered
