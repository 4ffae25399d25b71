"""Exact combinatorics of complete binary trees and colored complete ternary trees.

The package provides four layers that double-check each other:

- exact counting formulas (binomials, k-ary Catalan and forest numbers,
  closed-form identity evaluators),
- exhaustive deterministic tree and forest generators,
- a weight-preserving bijection between the two tree families, computed
  as a prefix code on preorder forms,
- a truncated power-series engine for the generating-function route.

``python -m fussforest verify --suite all`` runs every cross-check.
"""

from .exact import (
    Count,
    ExactnessError,
    Identity,
    Side,
    binomial,
    colored_ternary_count,
    forest_catalan,
    identity_side,
    k_catalan,
)
from .trees import (
    BINARY,
    COLORED_TERNARY,
    LEAF,
    BinaryTree,
    ColoredTernaryTree,
    ParseError,
    SizeCapError,
    ValidationReport,
    binary_from_word,
    binary_word_text,
    color_sum,
    enumerate_binary,
    enumerate_binary_words,
    enumerate_colored_ternary,
    enumerate_forest_forms,
    enumerate_forests,
    enumerate_ternary_preorders,
    form_dot,
    internal_count,
    leaf,
    node,
    parse_binary,
    parse_binary_word,
    parse_forest_forms,
    parse_ternary,
    parse_ternary_preorder,
    serialize,
    ternary_from_preorder,
    ternary_preorder_text,
    ternary_weight,
    validate,
)
from .bijection import decode, encode, phi, phi_inverse
from .series import (
    TruncatedSeries,
    colored_tree_series,
    forest_expansion_series,
    fuss_catalan_series,
    geometric_series_power,
)
from .verify import VerificationReport, run_suite
