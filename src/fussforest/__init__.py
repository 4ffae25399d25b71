"""Exact combinatorics of complete binary trees and colored complete ternary trees.

The package provides four layers that double-check each other:

- exact counting formulas (binomials, k-ary Catalan and forest numbers,
  closed-form identity evaluators),
- exhaustive deterministic tree and forest generators,
- a weight-preserving bijection between the two tree families, computed
  as a prefix code on preorder forms,
- a truncated power-series engine for the generating-function route.

``python -m fussforest verify --suite all`` runs every cross-check.

The public names below are loaded on first use (PEP 562): ``import
fussforest`` loads no submodule, and ``fussforest.phi`` loads only
:mod:`fussforest.bijection` and what it imports.

The family names, error classes and range check that every layer shares
are defined here, in the one module that all of them load; `trees`, `exact`
and `workers` re-export them, so each public name keeps its owner.
"""

from importlib import import_module

# The two tree families: complete binary trees and colored complete ternary trees.
BINARY = "binary"
COLORED_TERNARY = "colored-ternary"


class SizeCapError(ValueError):
    """Refused an enumeration whose size parameter exceeds the configured cap."""


class ParseError(ValueError):
    """Malformed tree text; carries the byte offset and what was expected there."""

    def __init__(self, offset: int, expected: str, found: str):
        self.offset = offset
        self.expected = expected
        self.found = found
        super().__init__(f"offset {offset}: expected {expected}, found {found}")

    def __reduce__(self):  # so that the error a `map` worker raised loads in the caller
        return type(self), (self.offset, self.expected, self.found)


class ExactnessError(ArithmeticError):
    """An internal division left a remainder, or an alternating sum went negative."""


class WorkerError(RuntimeError):
    """A worker could not be started, could not send an outcome, or ended
    without sending its outcomes."""


def _require_least(function: str, *bounds: tuple[str, int | None, int]) -> None:
    """Raise ValueError for the first (name, value, least) whose value is below its
    least; a value of None is no bound."""
    for name, value, least in bounds:
        if value is not None and value < least:
            raise ValueError(f"{function} requires {name} >= {least}, got {name}={value}")


# Each submodule and the public names it provides (those defined above too,
# by re-export), in the order of __all__.
_EXPORTS = {
    "exact": (
        "Count", "ExactnessError", "Identity", "Side", "binomial", "colored_ternary_count",
        "forest_catalan", "identity_side", "k_catalan",
    ),
    "trees": (
        "BINARY", "COLORED_TERNARY", "LEAF", "BinaryTree", "ColoredTernaryTree", "ParseError",
        "SizeCapError", "ValidationReport", "binary_from_word", "binary_word_text", "color_sum",
        "enumerate_binary", "enumerate_binary_words", "enumerate_colored_ternary",
        "enumerate_forest_forms", "enumerate_forests", "enumerate_ternary_preorders", "form_dot",
        "internal_count", "leaf", "node", "parse_binary", "parse_binary_word",
        "parse_forest_forms", "parse_ternary", "parse_ternary_preorder", "serialize",
        "ternary_from_preorder", "ternary_preorder_text", "ternary_weight", "validate",
    ),
    "bijection": ("decode", "encode", "phi", "phi_inverse"),
    "series": (
        "TruncatedSeries", "colored_tree_series", "forest_expansion_series", "fuss_catalan_series",
    ),
    "verify": ("VerificationReport", "run_suite"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule not imported yet, so `fussforest.trees` needs no import
        return import_module(f"{__name__}.{name}")
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups find the name without this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
