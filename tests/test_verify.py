"""Verification sweeps: the routes they compare stay independent, and failures read as trees."""

import ast
import inspect

from fussforest import bijection, trees, verify
from fussforest.exact import Side
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


def test_failures_show_trees_as_canonical_text():
    result = CheckResult("example", {})
    result.case({"n": 2}, [~0, 0, 0, 0], [2])
    result.case({"n": 3}, ([~1, 0, 0, 0], [3]), ([~1, 0, 0, 0], [0]))
    result.case({"n": 1}, True, False, True)
    assert [(f.expected, f.actual) for f in result.failures] == [
        ("(0: 0 0 0)", "2"),
        ("(1: 0 0 0);3;", "(1: 0 0 0);0;"),
        ("True", "False / True"),
    ]


def test_identity_failures_show_both_sides_in_a_fixed_order(monkeypatch):
    # Each LHS is one too large: the witnessed check shows LHS / RHS against
    # its witness, the others LHS against RHS.
    real = verify.identity_side
    monkeypatch.setattr(verify, "identity_side", lambda identity, side, n, m=1:
                        real(identity, side, n, m) + (side is Side.LHS))
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
