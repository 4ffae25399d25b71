"""The forked-worker runner that `verify` and `map` share."""

import os

import pytest

from fussforest import workers

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="workers are forked")


@needs_fork
def test_plain_values_come_back_in_unit_order_from_two_processes(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    caller = os.getpid()

    def unit(i):
        return lambda: (i, os.getpid() == caller)

    values = workers.run_units([unit(i) for i in range(5)], "test")
    assert [i for i, _ in values] == [0, 1, 2, 3, 4]
    # Process w runs units w, w + 2, ...: the caller the even ones, a worker the odd ones.
    assert [here for _, here in values] == [True, False, True, False, True]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["one_cpu", "two_cpus"])
def test_no_units_give_no_values(monkeypatch, cpus):
    # At one and at two usable CPUs, no units run the one-process loop.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    assert workers.run_units([], "test") == []


@needs_fork
def test_a_value_that_does_not_pickle_is_reported_by_its_own_error(monkeypatch):
    # At two processes the worker runs units 1 and 3, the caller 0 and 2.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def fails():
        raise ValueError("unit 2")

    units = [lambda: 0, lambda: (lambda: 1), lambda: 2, lambda: 3]
    with pytest.raises(workers.WorkerError,
                       match="^a test unit returned a value that cannot be sent: "):
        workers.run_units(units, "test")
    # The values before it are sent, so a failure at a lower unit still wins.
    units = [lambda: 0, lambda: 1, fails, lambda: (lambda: 3)]
    with pytest.raises(ValueError, match="^unit 2$"):
        workers.run_units(units, "test")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
