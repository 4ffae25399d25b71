"""Verification sweeps: the routes they compare stay independent, and failures read as trees."""

import ast
import inspect
import itertools
import os
import re
import signal

import pytest

from conftest import needs_fork
from fussforest import bijection, cli, series, trees, verify, workers
from fussforest.exact import Identity, Side, identity_side
from fussforest.trees import LEAF, leaf
from fussforest.verify import CheckResult

BIJECTION_NAMES = {"bijection", "encode", "decode", "phi", "phi_inverse",
                   "phi_forest", "phi_inverse_forest"}


def _names(source: str) -> set[str]:
    """Every name, attribute and imported module or name that the source mentions."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(part for alias in node.names for part in alias.name.split("."))
            if isinstance(node, ast.ImportFrom) and node.module:
                names.update(node.module.split("."))
    return names


def test_trees_does_not_import_the_other_layers():
    # The colored generator must not be derived from phi, nor the generators
    # from the closed forms they are checked against.
    assert not _names(inspect.getsource(trees)) & {"bijection", "series", "exact"}


def test_counts_checks_do_not_call_the_bijection():
    # Follow the counts suite through every verify function it reaches.
    seen, todo = set(), ["_counts_suite"]
    while todo:
        name = todo.pop()
        seen.add(name)
        names = _names(inspect.getsource(getattr(verify, name)))
        assert not names & BIJECTION_NAMES, name
        todo += [n for n in names - seen
                 if inspect.isfunction(getattr(verify, n, None))
                 and getattr(verify, n).__module__ == verify.__name__]
    assert {"_check_binary_generator", "_check_colored_generator",
            "_check_forest_generators"} <= seen


def _failures(cases, **bounds) -> list:
    """The failures of one check's case generator at the given bounds."""
    return verify._run_check("example", cases, bounds).failures


def test_counts_checks_catch_a_wrong_form_and_a_lost_forest(monkeypatch):
    # Weight 4 with one internal vertex: (~0, ~0, 0, 1) has the right
    # absolute sum but two internal vertices, (~0, 0, 0, 3) the right
    # internal count but color sum 3.
    real_forms, real_forests = trees.enumerate_ternary_preorders, trees.enumerate_forest_forms
    for wrong in ((~0, ~0, 0, 1), (~0, 0, 0, 3)):
        def corrupt(n, p=None, wrong=wrong):
            forms = list(real_forms(n, p))
            return forms[:-1] + [wrong] if (n, p) == (4, 1) else forms

        monkeypatch.setattr(trees, "enumerate_ternary_preorders", corrupt)
        failures = _failures(verify._check_colored_generator, n_max=5)
        assert [f.params for f in failures] == [{"n": 4, "p": 1, "property": "members"}]
    monkeypatch.setattr(trees, "enumerate_forest_forms",
                        lambda *args, **kwargs: itertools.islice(real_forests(*args, **kwargs), 1))
    failures = _failures(verify._check_forest_generators, n_max=2, m_max=1)
    assert [(f.params["n"], f.params["family"], f.actual) for f in failures] == [
        (2, trees.BINARY, "1"), (2, trees.COLORED_TERNARY, "1")]


def test_failures_show_trees_as_canonical_text():
    result = CheckResult("example", {})
    result.case({"n": 3}, ((~1, 0, 0, 0), (3,)), ((~1, 0, 0, 0), (0,)))
    result.case({"n": 1}, True, False, True)
    assert [(f.expected, f.actual) for f in result.failures] == [
        ("(1: 0 0 0);3;", "(1: 0 0 0);0;"),
        ("True", "False / True"),
    ]


def test_identity_failures_show_both_sides_in_a_fixed_order(monkeypatch):
    # Each LHS is one too large: the witnessed check shows LHS / RHS against
    # its witness, the others LHS against RHS.
    real = verify.identity_sides
    monkeypatch.setattr(verify, "identity_sides", lambda identity, side, m=1:
                        (value + (side is Side.LHS) for value in real(identity, side, m)))
    report = verify.run_suite("identities", n_max=3, m_max=2)
    firsts = {c.name: (c.failures[0].params, c.failures[0].expected, c.failures[0].actual)
              for c in report.checks if c.failures}
    assert firsts == {
        "ternary_identity": ({"n": 0}, "1", "2 / 1"),
        "ternary_forest_identity": ({"n": 0, "m": 1}, "1", "2"),
        "quinary_forest_identity": ({"n": 0, "m": 1}, "1", "2"),
        "quinary_identity": ({"n": 0}, "1", "2"),
    }


def test_bijection_suite_checks_the_public_maps(monkeypatch):
    # encode and decode alone pass; a fault in the object-level maps must not.
    assert verify.run_suite("bijection", n_max=3, m_max=2).passed
    for name, constant in (("phi", LEAF), ("phi_inverse", leaf())):
        with monkeypatch.context() as patch:
            patch.setattr(bijection, name, lambda tree: constant)
            report = verify.run_suite("bijection", n_max=3, m_max=2)
        assert [c.name for c in report.checks if c.failures] == ["tree_bijection"], name


def test_termwise_check_fails_on_one_perturbed_term(monkeypatch):
    # ternary_forest_m1_termwise compares each by-parts term with the
    # single-tree term written out; one wrong term must show as one failure.
    real = verify.by_parts_terms

    def perturbed(k, n, m):
        for p, term in enumerate(real(k, n, m)):
            yield term + (n == 7 and p == 2)

    monkeypatch.setattr(verify, "by_parts_terms", perturbed)
    report = verify.run_suite("identities", n_max=10, m_max=2)
    failed = {c.name: c.failures for c in report.checks if c.failures}
    assert list(failed) == ["ternary_forest_m1_termwise"]
    [failure] = failed["ternary_forest_m1_termwise"]
    assert failure.params == {"n": 7, "p": 2}
    assert int(failure.actual) == int(failure.expected) + 1


def test_failing_bijection_cases_carry_canonical_tree_text(monkeypatch):
    # Labels are rendered only for failing cases; they must read as before.
    real = bijection.decode
    monkeypatch.setattr(bijection, "decode", lambda word: (2,) if word == "11000" else real(word))
    report = verify.run_suite("bijection", n_max=2, m_max=2)
    failures = {c.name: [(f.params, f.expected, f.actual) for f in c.failures]
                for c in report.checks}
    assert failures == {
        "tree_bijection": [
            ({"n": 2, "tree": "(0: 0 0 0)"}, "True", "True / True / False"),
            ({"n": 2, "tree": "((L L) L)"}, "True", "True / False"),
        ],
        "forest_bijection": [
            ({"n": 2, "m": 1, "forest": "(0: 0 0 0);"}, "(0: 0 0 0);", "2;"),
            ({"n": 2, "m": 2, "forest": "0;(0: 0 0 0);"}, "0;(0: 0 0 0);", "0;2;"),
            ({"n": 2, "m": 2, "forest": "(0: 0 0 0);0;"}, "(0: 0 0 0);0;", "2;0;"),
        ],
    }
    assert report.to_text().splitlines()[1] == \
        "  first failure: n=2 tree=(0: 0 0 0): expected True, got True / True / False"


def test_a_corrupt_series_kernel_is_reported_not_raised(monkeypatch, capsys):
    # One running sum off by one in the substitution kernel: the series
    # suite must say which claims fail, not stop with an exception.
    real = series.accumulate

    def corrupt(values):
        sums = list(real(values))
        if len(sums) > 3:
            sums[3] += 1
        return sums

    monkeypatch.setattr(series, "accumulate", corrupt)
    code = cli.main(["verify", "--suite", "series"])
    out = capsys.readouterr().out
    assert code == cli.EXIT_VERIFY_FAILED
    for name in ("substitution_functional_equations", "colored_ternary_equals_catalan"):
        assert re.search(rf"^check {name} \[[^]]*\]: cases=\d+ \d+ FAILED$", out, re.M), name
    # A failing series comparison shows its first wrong coefficient, not both series.
    for name in ("substitution_functional_equations", "forest_expansion_route"):
        first = re.search(rf"^check {name} .*\n(  first failure: .*)$", out, re.M).group(1)
        assert " i=" in first and len(first) < 100, first
    assert out.splitlines()[-1].startswith("suite series: FAIL (")


def test_quinary_three_way_report():
    for n_max, m_max in ((20, 3), (4, 1)):
        bounds = {"n_max": n_max, "m_max": m_max}
        result = verify._run_check("quinary_forest_three_way", verify._check_quinary_three_way, bounds)
        assert (result.cases, result.failures) == ((n_max + 1) * m_max, [])


def test_quinary_three_way_failure_shows_series_and_rhs_against_lhs(monkeypatch):
    # The right side is one too large at n=9, m=2 only; the failure shows
    # the series coefficient and the right side against the left side.
    real = verify.identity_sides

    def perturbed(identity, side, m=1):
        for n, value in enumerate(real(identity, side, m)):
            yield value + (identity is Identity.QUINARY_FOREST and side is Side.RHS
                           and (n, m) == (9, 2))

    monkeypatch.setattr(verify, "identity_sides", perturbed)
    report = verify.run_suite("series", order=12, m_max=2)
    assert [c.name for c in report.checks if c.failures] == ["quinary_forest_three_way"]
    lhs = identity_side(Identity.QUINARY_FOREST, Side.LHS, 9, 2)
    lines = report.to_text().splitlines()
    at = lines.index("check quinary_forest_three_way [n_max=12 m_max=2]: cases=26 1 FAILED")
    assert lines[at + 1] == f"  first failure: n=9 m=2: expected {lhs}, got {lhs} / {lhs + 1}"


def test_every_power_check_reads_every_power(monkeypatch):
    # The third power repeats the second: each check that sweeps m must fail
    # at m=3 and only there.
    real = verify._powers

    def stuck(f, m_max):
        powers = list(real(f, m_max))
        return powers[:2] + powers[1:2] + powers[3:]

    monkeypatch.setattr(verify, "_powers", stuck)
    report = verify.run_suite("series", order=12, m_max=4)
    failed_at = {c.name: [f.params["m"] for f in c.failures] for c in report.checks if c.failures}
    assert sorted(failed_at) == ["forest_expansion_route", "power_coefficients_vs_forest_counts",
                                 "quinary_forest_three_way"]
    assert all(ms[0] == 3 and set(ms) == {3} for ms in failed_at.values()), failed_at


def test_check_seconds_are_recorded_but_never_rendered():
    report = verify.run_suite("series", order=8, m_max=2)
    assert all(c.seconds > 0 for c in report.checks)
    text, payload = report.to_text(), report.to_json()
    for seconds in (0.0, 1e9, float("nan")):
        for check in report.checks:
            check.seconds = seconds
        assert (report.to_text(), report.to_json()) == (text, payload)


# ---------------------------------------------------------------------------
# Checks run in forked workers, one per usable CPU
# ---------------------------------------------------------------------------

@needs_fork
def test_all_reports_are_byte_identical_for_one_and_two_cpus(usable_cpus):
    reports = []
    for count in (1, 2):
        usable_cpus(count)
        report = verify.run_suite("all")
        reports.append((report.to_text(), report.to_json()))
    assert reports[0] == reports[1]
    assert "(cases=12737, failures=0)" in reports[0][0]


@needs_fork
def test_units_run_in_one_process_per_cpu_and_workers_are_reaped(usable_cpus, monkeypatch):
    def where(**bounds):
        # One failing case whose label is the pid of the process that ran it.
        yield {"pid": os.getpid()}, True, False

    def reported_pids() -> list:
        return [c.failures[0].params["pid"] for c in verify.run_suite("counts").checks]

    for name in ("_check_binary_generator", "_check_colored_generator",
                 "_check_forest_generators"):
        monkeypatch.setattr(verify, name, where)
    usable_cpus(1)
    assert reported_pids() == [os.getpid()] * 3
    usable_cpus(2)
    pids = reported_pids()
    assert pids[0] == pids[2] == os.getpid() != pids[1]


def _fail_in_worker(monkeypatch, fault) -> None:
    """Make the counts suite's second unit, which the worker runs at two CPUs, call fault."""
    caller = os.getpid()

    def unit(**bounds):
        assert os.getpid() != caller, "the unit ran in the caller"
        fault()

    monkeypatch.setattr(verify, "_check_colored_generator", unit)


@needs_fork
def test_memory_error_in_a_worker_exits_6_with_one_line(usable_cpus, monkeypatch, capsys):
    def fault():
        raise MemoryError("worker out of memory")

    _fail_in_worker(monkeypatch, fault)
    usable_cpus(2)
    code = cli.main(["verify", "--suite", "counts", "--n-max", "4", "--m-max", "2"])
    out, err = capsys.readouterr()
    assert (code, out) == (cli.EXIT_RESOURCE, "")
    assert err == "error: out of resources: MemoryError: worker out of memory\n"


@needs_fork
def test_worker_killed_by_a_signal_exits_6_without_a_traceback(usable_cpus, monkeypatch, capsys):
    _fail_in_worker(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
    usable_cpus(2)
    code = cli.main(["verify", "--suite", "counts", "--n-max", "4", "--m-max", "2"])
    out, err = capsys.readouterr()
    assert (code, out) == (cli.EXIT_RESOURCE, "")
    assert err.count("\n") == 1
    assert err.startswith("error: out of resources: WorkerError: verify worker ")
    assert err.endswith(f" was killed by signal {int(signal.SIGKILL)} before it sent its results\n")


@needs_fork
def test_the_lowest_failing_unit_raises_with_its_own_type(usable_cpus, monkeypatch):
    # Unit 1 fails in the worker, unit 2 in the caller: unit 1's error wins.
    def worker_fault():
        raise trees.SizeCapError("unit 1")

    def caller_fault(**bounds):
        raise MemoryError("unit 2")

    _fail_in_worker(monkeypatch, worker_fault)
    monkeypatch.setattr(verify, "_check_forest_generators", caller_fault)
    usable_cpus(2)
    with pytest.raises(trees.SizeCapError, match="^unit 1$") as raised:
        verify.run_suite("counts", n_max=4, m_max=2)
    assert type(raised.value) is trees.SizeCapError


@needs_fork
def test_an_error_that_cannot_be_sent_arrives_as_its_text(usable_cpus, monkeypatch):
    class Local(Exception):  # a local class does not pickle
        pass

    def fault():
        raise Local("not picklable")

    _fail_in_worker(monkeypatch, fault)
    usable_cpus(2)
    with pytest.raises(workers.WorkerError, match="^Local: not picklable$"):
        verify.run_suite("counts", n_max=4, m_max=2)
