"""The names every layer shares, defined once in the package root: the family
names, the error classes and the range check, whose one wording each
"below its least" error reads."""

import ast
from pathlib import Path

import pytest

import fussforest
from fussforest import cli, exact, series, trees, verify, workers
from fussforest.exact import Identity, Side
from fussforest.series import TruncatedSeries

# Each shared name and the submodule that owns it among the public names.
SHARED = [("BINARY", trees), ("COLORED_TERNARY", trees), ("SizeCapError", trees),
          ("ParseError", trees), ("ExactnessError", exact), ("WorkerError", workers)]


@pytest.mark.parametrize("name, owner", SHARED, ids=[name for name, _ in SHARED])
def test_each_shared_name_is_one_object(name, owner):
    shared = vars(fussforest)[name]  # defined in the root, not loaded from a submodule
    assert getattr(owner, name) is shared
    assert getattr(cli, name) is shared


def test_shared_errors_are_defined_in_the_root():
    for name, _ in SHARED[2:]:
        assert getattr(fussforest, name).__module__ == "fussforest"


# (call, function, name, least, value): each call's first bound below its least, the one home
# of every range message. A row that repeats an id, "function-name", is a pytest.param.
BELOW_LEAST = [
    (lambda: trees.enumerate_binary_words(-1), "enumerate_binary_words", "n", 0, -1),
    (lambda: trees.enumerate_binary(-2), "enumerate_binary_words", "n", 0, -2),
    (lambda: trees.enumerate_ternary_preorders(-1), "enumerate_ternary_preorders", "n", 0, -1),
    (lambda: trees.enumerate_ternary_preorders(4, -1), "enumerate_ternary_preorders", "p", 0, -1),
    (lambda: trees.enumerate_ternary_preorders(-1, -1), "enumerate_ternary_preorders", "p", 0, -1),
    (lambda: trees.enumerate_colored_ternary(4, -2), "enumerate_ternary_preorders", "p", 0, -2),
    (lambda: trees.enumerate_forest_forms(trees.BINARY, 2, 0), "enumerate_forest_forms",
     "m", 1, 0),
    (lambda: trees.enumerate_forest_forms(trees.COLORED_TERNARY, -1, 1),
     "enumerate_forest_forms", "n", 0, -1),
    (lambda: trees.enumerate_forests(trees.COLORED_TERNARY, 2, -1), "enumerate_forest_forms",
     "m", 1, -1),
    (lambda: cli.cmd_enumerate(cli.build_parser().parse_args(
        ["enumerate", "--family", "binary", "--n", "3", "--max-n", "-1"])), "enumerate",
     "max_n", 0, -1),
    (lambda: exact.binomial(-1, 0), "binomial", "n", 0, -1),
    (lambda: exact.k_catalan(-1, 2), "k_catalan", "n", 0, -1),
    (lambda: exact.k_catalan(3, 1), "k_catalan", "k", 2, 1),
    (lambda: exact.forest_catalan(-1, 2, 1), "forest_catalan", "p", 0, -1),
    (lambda: exact.forest_catalan(2, 1, 1), "forest_catalan", "k", 2, 1),
    (lambda: exact.forest_catalan(2, 2, 0), "forest_catalan", "m", 1, 0),
    (lambda: exact.colored_ternary_count(-1, 0), "colored_ternary_count", "n", 0, -1),
    (lambda: exact.colored_ternary_count(4, -1), "colored_ternary_count", "p", 0, -1),
    (lambda: exact.by_parts_terms(1, 3, 1), "by_parts_terms", "k", 2, 1),
    (lambda: exact.by_parts_terms(3, -1, 1), "by_parts_terms", "n", 0, -1),
    (lambda: exact.by_parts_terms(3, 2, 0), "by_parts_terms", "m", 1, 0),
    pytest.param(lambda: exact.by_parts_terms(5, 4, -2), "by_parts_terms", "m", 1, -2,
                 id="by_parts_terms-m=-2"),
    (lambda: exact.identity_side(Identity.TERNARY, Side.LHS, -1), "identity_side", "n", 0, -1),
    (lambda: exact.identity_side(Identity.TERNARY, Side.LHS, 3, 0), "identity_side", "m", 1, 0),
    (lambda: exact.identity_sides(Identity.QUINARY_FOREST, Side.RHS, 0), "identity_sides",
     "m", 1, 0),
    *(pytest.param(lambda m=m: exact.identity_sides(Identity.TERNARY_FOREST, Side.RHS, m),
                   "identity_sides", "m", 1, m, id=f"identity_sides-m={m}") for m in (-1, -2)),
    (lambda: series.fuss_catalan_series(1, 4), "fuss_catalan_series", "k", 2, 1),
    (lambda: series.fuss_catalan_series(2, -1), "fuss_catalan_series", "order", 0, -1),
    (lambda: series.colored_tree_series(1, 4), "colored_tree_series", "k", 2, 1),
    (lambda: series.colored_tree_series(3, -2), "colored_tree_series", "order", 0, -2),
    (lambda: series.forest_expansion_series(0, 4), "forest_expansion_series", "m", 1, 0),
    (lambda: series.forest_expansion_series(1, -1), "forest_expansion_series", "order", 0, -1),
    (lambda: TruncatedSeries.constant(5, -1), "TruncatedSeries.constant", "order", 0, -1),
    (lambda: TruncatedSeries.x(-1), "TruncatedSeries.x", "order", 0, -1),
    *(pytest.param(lambda order=order: TruncatedSeries.x(order), "TruncatedSeries.x", "order",
                   0, order, id=f"TruncatedSeries.x-order={order}") for order in (-2, -3)),
    (lambda: TruncatedSeries((1,)) ** -1, "TruncatedSeries.__pow__", "exponent", 0, -1),
    (lambda: verify.run_suite("identities", n_max=-1), "suite identities", "n_max", 0, -1),
    pytest.param(lambda: verify.run_suite("all", n_max=-3, m_max=-2), "suite identities",
                 "n_max", 0, -3, id="suite identities-n_max=-3"),
    (lambda: verify.run_suite("identities", m_max=0), "suite identities", "m_max", 1, 0),
    (lambda: verify.run_suite("bijection", n_max=-1), "suite bijection", "n_max", 0, -1),
    (lambda: verify.run_suite("bijection", m_max=0), "suite bijection", "m_max", 1, 0),
    (lambda: verify.run_suite("all", order=-2), "suite series", "order", 0, -2),
    pytest.param(lambda: verify.run_suite("series", order=-1), "suite series", "order", 0, -1,
                 id="suite series-order=-1"),
    (lambda: verify.run_suite("series", m_max=0), "suite series", "m_max", 1, 0),
    (lambda: verify.run_suite("counts", n_max=-1), "suite counts", "n_max", 0, -1),
    (lambda: verify.run_suite("counts", m_max=0), "suite counts", "m_max", 1, 0),
]


def _values(row) -> tuple:
    return getattr(row, "values", row)  # a pytest.param keeps the row in .values


@pytest.mark.parametrize("call, function, name, least, value", BELOW_LEAST,
                         ids=["{1}-{2}".format(*_values(row)) for row in BELOW_LEAST])
def test_a_value_below_its_least_reads_one_way(call, function, name, least, value):
    with pytest.raises(ValueError) as raised:
        call()
    assert raised.type is ValueError  # not a subclass, such as SizeCapError
    assert str(raised.value) == f"{function} requires {name} >= {least}, got {name}={value}"


# Each function whose calls name a range check, with the bounds it adds to a call's tuples.
ADDED_BOUNDS = {"_require_least": (), "_side": ("m",)}


def test_every_range_check_under_src_has_a_row():
    checked = {(f"suite {suite}", bound) for suite, (_, bounds) in verify._SUITES.items()
               for bound in bounds}
    for path in Path(fussforest.__file__).parent.glob("*.py"):
        for call in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(call, ast.Call) and getattr(call.func, "id", None) in ADDED_BOUNDS):
                continue
            names = [arg.value for arg in call.args
                     if isinstance(arg, ast.Constant) and isinstance(arg.value, str)]
            if names:  # none: a helper passing on the name it was given
                bounds = [arg.elts[0].value for arg in call.args if isinstance(arg, ast.Tuple)]
                checked |= {(names[0], bound) for bound in (*ADDED_BOUNDS[call.func.id], *bounds)}
    assert {_values(row)[1:3] for row in BELOW_LEAST} == checked

