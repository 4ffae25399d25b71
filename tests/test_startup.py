"""What start-up loads: the package's names resolve on first use, and each
command imports only the modules it runs."""

import subprocess
import sys
from pathlib import Path

import pytest

import fussforest
from fussforest import bijection, exact, series, trees, verify

SRC = Path(__file__).resolve().parent.parent / "src"

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
             "fuss_catalan_series", "geometric_series_power"],
    verify: ["VerificationReport", "run_suite"],
}
OWNED_NAMES = [(module, name) for module, names in PUBLIC_NAMES.items() for name in names]
HEAVY = ["fussforest.verify", "fussforest.series", "fussforest.exact",
         "dataclasses", "inspect", "json"]


def _loaded_after(code: str) -> set[str]:
    """The modules a fresh interpreter without site-packages holds after running `code`."""
    probe = f"import sys; sys.path.insert(0, {str(SRC)!r}); {code}; print(*sys.modules)"
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                          text=True, timeout=60, check=True)
    return set(proc.stdout.splitlines()[-1].split())


def test_cli_start_up_loads_no_module_only_one_command_uses():
    loaded = _loaded_after("import fussforest.cli; fussforest.cli.build_parser()")
    assert "fussforest.trees" in loaded
    assert loaded.isdisjoint(HEAVY), sorted(loaded.intersection(HEAVY))


def test_bare_package_import_loads_no_submodule():
    loaded = _loaded_after("import fussforest")
    assert "fussforest" in loaded
    assert [name for name in loaded if name.startswith("fussforest.")] == []


def test_number_loads_the_exact_counts():
    loaded = _loaded_after("import fussforest.cli; "
                           "fussforest.cli.main(['number', '--k', '2', '--n', '3'])")
    assert "fussforest.exact" in loaded


def test_public_names_are_pinned():
    assert fussforest.__all__ == [name for _, name in OWNED_NAMES]
    assert len(set(fussforest.__all__)) == 51


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
