"""The forked-worker runner that `verify` and `map` share."""

import os
import re
import signal

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
    outcomes = workers.run_units(units, "test")
    assert [outcomes[i] for i in (0, 2, 3)] == [0, 2, 3]
    assert type(outcomes[1]) is workers.WorkerError
    assert str(outcomes[1]).startswith("a test unit returned a value that cannot be sent: ")
    # Each outcome stands in its own place: the error that unit 2 raised, and
    # the value of unit 3 that the worker cannot send.
    units = [lambda: 0, lambda: 1, fails, lambda: (lambda: 3)]
    outcomes = workers.run_units(units, "test")
    assert outcomes[:2] == [0, 1]
    assert type(outcomes[2]) is ValueError and str(outcomes[2]) == "unit 2"
    assert type(outcomes[3]) is workers.WorkerError
    assert str(outcomes[3]).startswith("a test unit returned a value that cannot be sent: ")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class _TwoArguments(Exception):
    """Pickles as its one argument, so loading it calls __init__ with too few."""

    def __init__(self, a, b):
        super().__init__(a)


@needs_fork
def test_an_exception_that_pickles_but_does_not_load_comes_back_as_its_text(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def fails():
        raise _TwoArguments("no second argument", None)

    # The worker runs units 1 and 3; the one beside the exception arrives intact.
    outcomes = workers.run_units([lambda: 0, fails, lambda: 2, lambda: [3, "three"]], "test")
    assert outcomes[0::2] == [0, 2] and outcomes[3] == [3, "three"]
    assert type(outcomes[1]) is workers.WorkerError
    assert str(outcomes[1]) == "_TwoArguments: no second argument"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["one_cpu", "two_cpus"])
def test_a_unit_that_raises_does_not_stop_the_later_units_of_its_process(monkeypatch, cpus):
    if len(cpus) > 1 and not hasattr(os, "fork"):
        pytest.skip("workers are forked")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)

    def fails(i):
        def unit():
            raise KeyError(i)
        return unit

    # Units 0 and 1 raise, one in each process at two CPUs; every later unit still runs.
    units = [fails(0), fails(1), *(lambda i=i: i for i in range(2, 6))]
    outcomes = workers.run_units(units, "test")
    assert [type(outcome) for outcome in outcomes[:2]] == [KeyError, KeyError]
    assert [outcome.args for outcome in outcomes[:2]] == [(0,), (1,)]
    assert outcomes[2:] == [2, 3, 4, 5]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
def test_each_unit_of_a_killed_worker_comes_back_as_an_error_that_names_it(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    caller = os.getpid()

    def unit(i):
        def run():
            if os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return i
        return run

    outcomes = workers.run_units([unit(i) for i in range(5)], "test")
    assert outcomes[::2] == [0, 2, 4]
    for outcome in outcomes[1::2]:
        assert type(outcome) is workers.WorkerError
        assert re.fullmatch(rf"test worker \d+ was killed by signal {int(signal.SIGKILL)} "
                            "before it sent its results", str(outcome))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
