"""What start-up loads: the package's names resolve on first use, and each
command imports only the modules it runs."""

import subprocess
import sys

import pytest

import fussforest
from conftest import SRC
from fussforest import bijection, exact, series, trees, verify

# The public names, pinned by the submodule that defines each: a name added,
# dropped or moved is a change to the API.
PUBLIC_NAMES = {
    exact: ["Count", "ExactnessError", "Identity", "Side", "binomial", "colored_ternary_count",
            "forest_catalan", "identity_side", "k_catalan"],
    trees: ["BINARY", "COLORED_TERNARY", "LEAF", "BinaryTree", "ColoredTernaryTree", "ParseError",
            "SizeCapError", "ValidationReport", "binary_from_word", "binary_word_text",
            "color_sum", "enumerate_binary", "enumerate_binary_words",
            "enumerate_colored_ternary", "enumerate_forest_forms", "enumerate_forests",
            "enumerate_ternary_preorders", "form_dot", "internal_count", "leaf", "node",
            "parse_binary", "parse_binary_word", "parse_forest_forms", "parse_ternary",
            "parse_ternary_preorder", "serialize", "ternary_from_preorder",
            "ternary_preorder_text", "ternary_weight", "validate"],
    bijection: ["decode", "encode", "phi", "phi_inverse"],
    series: ["TruncatedSeries", "colored_tree_series", "forest_expansion_series",
             "fuss_catalan_series"],
    verify: ["VerificationReport", "run_suite"],
}
OWNED_NAMES = [(module, name) for module, names in PUBLIC_NAMES.items() for name in names]
HEAVY = ["fussforest.verify", "fussforest.series", "fussforest.exact",
         "dataclasses", "inspect", "json"]
# What only enumerate, map and verify run: the trees, the bijection and the
# worker runner, which brings in threading.
TREE_MODULES = ["fussforest.trees", "fussforest.bijection", "fussforest.workers", "threading"]


def _loaded_after(code: str) -> set[str]:
    """The modules a fresh interpreter without site-packages holds after running `code`."""
    probe = f"import sys; sys.path.insert(0, {str(SRC)!r}); {code}; print(*sys.modules)"
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                          text=True, timeout=60, check=True)
    return set(proc.stdout.splitlines()[-1].split())


def _loaded_by(exit_code: int, *argv: str) -> set[str]:
    """The modules loaded once `fussforest.cli.main(argv)` has returned `exit_code`."""
    return _loaded_after(f"import fussforest.cli; "
                         f"assert fussforest.cli.main({list(argv)!r}) == {exit_code}")


def test_cli_start_up_loads_no_module_only_one_command_uses():
    loaded = _loaded_after("import fussforest.cli; fussforest.cli.build_parser()")
    assert {name for name in loaded if name.startswith("fussforest")} == {
        "fussforest", "fussforest.cli"}
    # `cli`'s annotations all evaluate on Python 3.10+, so it needs no `__future__` import.
    unwanted = HEAVY + TREE_MODULES + ["__future__"]
    assert loaded.isdisjoint(unwanted), sorted(loaded.intersection(unwanted))


def test_bare_package_import_loads_no_submodule():
    loaded = _loaded_after("import fussforest")
    assert "fussforest" in loaded
    assert [name for name in loaded if name.startswith("fussforest.")] == []


def test_number_loads_the_exact_counts():
    loaded = _loaded_by(0, "number", "--k", "2", "--n", "3")
    assert "fussforest.exact" in loaded
    assert loaded.isdisjoint(TREE_MODULES), sorted(loaded.intersection(TREE_MODULES))


def test_an_error_exit_loads_no_module_to_classify_the_error():
    # Exit 2 for a ValueError of exact: no tree module is imported to rule out its errors.
    loaded = _loaded_by(2, "number", "--k", "1", "--n", "3")
    assert "fussforest.exact" in loaded
    assert loaded.isdisjoint(TREE_MODULES), sorted(loaded.intersection(TREE_MODULES))


def test_enumerate_loads_the_trees_alone():
    loaded = _loaded_by(0, "enumerate", "--family", "binary", "--n", "3")
    assert "fussforest.trees" in loaded
    unwanted = ["fussforest.bijection", "fussforest.workers", "threading", "fussforest.exact"]
    assert loaded.isdisjoint(unwanted), sorted(loaded.intersection(unwanted))


def test_map_loads_the_trees_the_bijection_and_the_workers(tmp_path):
    src = tmp_path / "in.txt"
    src.write_text("(0: 0 0 0)\n", encoding="ascii")
    loaded = _loaded_by(0, "map", "--direction", "t2b", "--in", str(src))
    assert loaded.issuperset(TREE_MODULES)
    unwanted = ["fussforest.exact", "fussforest.series", "fussforest.verify"]
    assert loaded.isdisjoint(unwanted), sorted(loaded.intersection(unwanted))


@pytest.mark.parametrize("suite, bounds, loaded_modules, unloaded_modules", [
    ("series", ["--order", "4", "--m-max", "1"], [], ["fussforest.trees", "fussforest.bijection"]),
    ("identities", ["--n-max", "4", "--m-max", "1"], [],
     ["fussforest.trees", "fussforest.bijection"]),
    ("counts", ["--n-max", "2", "--m-max", "1"], ["fussforest.trees"], ["fussforest.bijection"]),
    ("bijection", ["--n-max", "2", "--m-max", "1"],
     ["fussforest.trees", "fussforest.bijection"], []),
])
def test_verify_loads_the_tree_modules_only_for_suites_that_run_them(
        suite, bounds, loaded_modules, unloaded_modules):
    # On one usable CPU every check runs in this process, so what it loads shows here.
    loaded = _loaded_after("import fussforest.cli, fussforest.workers; "
                           "fussforest.workers.usable_cpus = lambda: 1; "
                           f"assert fussforest.cli.main({['verify', '--suite', suite, *bounds]!r}) == 0")
    assert "fussforest.verify" in loaded
    assert loaded.issuperset(loaded_modules)
    assert loaded.isdisjoint(unloaded_modules), sorted(loaded.intersection(unloaded_modules))


def test_public_names_are_pinned():
    assert fussforest.__all__ == [name for _, name in OWNED_NAMES]
    assert len(set(fussforest.__all__)) == 50


@pytest.mark.parametrize("module, name", OWNED_NAMES, ids=[name for _, name in OWNED_NAMES])
def test_each_public_name_is_its_submodule_own_object(module, name):
    assert getattr(fussforest, name) is getattr(module, name)
    assert name in dir(fussforest)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from fussforest import *", namespace)
    for module, name in OWNED_NAMES:
        assert namespace[name] is getattr(module, name)


def test_submodules_resolve_as_attributes():
    assert "fussforest.trees" in _loaded_after("import fussforest; fussforest.trees.LEAF")
    assert fussforest.trees is trees and fussforest.verify is verify


def test_unknown_name_raises_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match=r"^module 'fussforest' has no attribute 'nonesuch'$"):
        fussforest.nonesuch  # noqa: B018
