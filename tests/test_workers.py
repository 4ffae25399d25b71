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

