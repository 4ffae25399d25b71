"""Immutable tree values, exhaustive generators, preorder forms, text format, validation.

Two families live here: complete binary trees (every vertex has 0 or 2
children) and colored complete ternary trees (0 or 3 children, every vertex
carries a color >= 0).  The deterministic generators below are the
enumeration oracles the closed-form counts in :mod:`fussforest.exact` are
checked against.

Canonical text format (bit-exact, one tree per line in files):
  binary          L                    leaf
                  (<left> <right>)     internal, single space separator
  colored ternary <c>                  leaf with color c (decimal, no sign)
                  (<c>: <t1> <t2> <t3>)   internal vertex with color c
Parsers accept spaces and tabs between tokens and report the offset of the
first error.  Parsing and rendering go through the preorder forms, without
recursion, so the text of a tree of any depth can be read and written.
"""

from __future__ import annotations

import itertools
import os
import re
import sys
from dataclasses import dataclass
from typing import Iterator, Sequence

DEFAULT_MAX_N = 12
MAX_N_ENV = "FUSS_FOREST_MAX_N"

BINARY = "binary"
COLORED_TERNARY = "colored-ternary"
FAMILIES = (BINARY, COLORED_TERNARY)


class SizeCapError(ValueError):
    """Refused an enumeration whose size parameter exceeds the configured cap."""


@dataclass(frozen=True)
class BinaryTree:
    """A complete binary tree; a leaf has both children None."""

    left: BinaryTree | None = None
    right: BinaryTree | None = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None and self.right is None


LEAF = BinaryTree()


@dataclass(frozen=True)
class ColoredTernaryTree:
    """A complete ternary tree vertex with a nonnegative color; leaves have no children."""

    color: int = 0
    children: tuple[ColoredTernaryTree, ...] = ()

    @property
    def is_leaf(self) -> bool:
        return not self.children


def leaf(color: int = 0) -> ColoredTernaryTree:
    return ColoredTernaryTree(color)


def node(color: int, first: ColoredTernaryTree, second: ColoredTernaryTree,
         third: ColoredTernaryTree) -> ColoredTernaryTree:
    return ColoredTernaryTree(color, (first, second, third))


# ---------------------------------------------------------------------------
# Vertex statistics
# ---------------------------------------------------------------------------

def internal_count(tree: BinaryTree | ColoredTernaryTree) -> int:
    """Number of vertices that have children."""
    if isinstance(tree, BinaryTree):
        if tree.is_leaf:
            return 0
        return 1 + internal_count(tree.left) + internal_count(tree.right)
    if tree.is_leaf:
        return 0
    return 1 + sum(internal_count(c) for c in tree.children)


def leaf_count(tree: BinaryTree | ColoredTernaryTree) -> int:
    if isinstance(tree, BinaryTree):
        return internal_count(tree) + 1
    return 2 * internal_count(tree) + 1


def color_sum(tree: ColoredTernaryTree) -> int:
    """Sum of the colors over all vertices."""
    return tree.color + sum(color_sum(c) for c in tree.children)


def ternary_weight(tree: ColoredTernaryTree) -> int:
    """The n for which this tree belongs to the weight-n colored family.

    A colored ternary tree with p internal vertices and color sum s has
    weight n = 2p + s; the bijection sends it to a binary tree with n
    internal vertices.
    """
    return 2 * internal_count(tree) + color_sum(tree)


# ---------------------------------------------------------------------------
# Deterministic exhaustive generators
# ---------------------------------------------------------------------------

def _enumeration_cap(max_n: int | None) -> int:
    if max_n is not None:
        if max_n < 0:
            raise ValueError(f"max_n must be >= 0, got {max_n}")
        return max_n
    env = os.environ.get(MAX_N_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"{MAX_N_ENV} must be an integer, got {env!r}") from None
    return DEFAULT_MAX_N


def _check_cap(n: int, max_n: int | None) -> None:
    cap = _enumeration_cap(max_n)
    if n > cap:
        raise SizeCapError(
            f"n={n} exceeds the enumeration cap {cap}; pass max_n or set {MAX_N_ENV} to override"
        )


def _gen_binary(n: int) -> Iterator[BinaryTree]:
    if n == 0:
        yield LEAF
        return
    for left_size in range(n):
        for left in _gen_binary(left_size):
            for right in _gen_binary(n - 1 - left_size):
                yield BinaryTree(left, right)


def enumerate_binary(n: int, max_n: int | None = None) -> Iterator[BinaryTree]:
    """Yield every complete binary tree with n internal vertices exactly once.

    Order is fixed: left subtree internal size ascending 0..n-1, recursively.
    Total count equals k_catalan(n, 2).
    """
    if n < 0:
        raise ValueError(f"enumerate_binary requires n >= 0, got n={n}")
    _check_cap(n, max_n)
    return _gen_binary(n)


def _weak_compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` nonnegative ints summing to total, lexicographically ascending."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _weak_compositions(total - head, parts - 1):
            yield (head,) + rest


def _gen_ternary_shapes(p: int) -> Iterator[ColoredTernaryTree]:
    """All uncolored ternary shapes (colors 0) with p internal vertices."""
    if p == 0:
        yield ColoredTernaryTree()
        return
    for i in range(p):
        for j in range(p - i):
            for first in _gen_ternary_shapes(i):
                for second in _gen_ternary_shapes(j):
                    for third in _gen_ternary_shapes(p - 1 - i - j):
                        yield ColoredTernaryTree(0, (first, second, third))


def _paint(shape: ColoredTernaryTree, colors: Iterator[int]) -> ColoredTernaryTree:
    # Colors are consumed in preorder: vertex first, then children left to right.
    color = next(colors)
    if shape.is_leaf:
        return ColoredTernaryTree(color)
    return ColoredTernaryTree(color, tuple(_paint(c, colors) for c in shape.children))


def _gen_colored_ternary(n: int, p: int) -> Iterator[ColoredTernaryTree]:
    if 2 * p > n:
        return
    for shape in _gen_ternary_shapes(p):
        for composition in _weak_compositions(n - 2 * p, 3 * p + 1):
            yield _paint(shape, iter(composition))


def enumerate_colored_ternary(n: int, p: int | None = None,
                              max_n: int | None = None) -> Iterator[ColoredTernaryTree]:
    """Yield the weight-n colored ternary trees exactly once, in fixed order.

    With p given, restricts to trees with p internal vertices (color sum
    n-2p); an out-of-range p yields nothing.  With p None, runs p ascending
    from 0 to floor(n/2).  Shapes are enumerated recursively (child sizes
    ascending lexicographically) and colors as weak compositions of n-2p
    assigned to vertices in preorder.
    """
    if n < 0:
        raise ValueError(f"enumerate_colored_ternary requires n >= 0, got n={n}")
    if p is not None and p < 0:
        raise ValueError(f"enumerate_colored_ternary requires p >= 0, got p={p}")
    _check_cap(n, max_n)
    if p is not None:
        return _gen_colored_ternary(n, p)

    def all_p() -> Iterator[ColoredTernaryTree]:
        for q in range(n // 2 + 1):
            yield from _gen_colored_ternary(n, q)

    return all_p()


def enumerate_forests(family: str, n: int, m: int,
                      max_n: int | None = None) -> Iterator[tuple]:
    """Yield every ordered m-tuple of trees with total weight n, exactly once.

    Weight is internal-vertex count for binary components and
    :func:`ternary_weight` for colored ternary components.  Outer order is
    the weak composition of n into m component weights (lexicographic
    ascending), inner order the per-component generators.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if m < 1:
        raise ValueError(f"enumerate_forests requires m >= 1, got m={m}")
    if n < 0:
        raise ValueError(f"enumerate_forests requires n >= 0, got n={n}")
    _check_cap(n, max_n)

    def component(weight: int) -> Iterator:
        if family == BINARY:
            return _gen_binary(weight)

        def colored() -> Iterator[ColoredTernaryTree]:
            for q in range(weight // 2 + 1):
                yield from _gen_colored_ternary(weight, q)

        return colored()

    def tuples(weights: tuple[int, ...]) -> Iterator[tuple]:
        if not weights:
            yield ()
            return
        for head in component(weights[0]):
            for rest in tuples(weights[1:]):
                yield (head,) + rest

    def forests() -> Iterator[tuple]:
        for weights in _weak_compositions(n, m):
            yield from tuples(weights)

    return forests()


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationReport:
    """Outcome of structural validation; `path` locates the first violation."""

    ok: bool
    path: tuple[int, ...] | None = None
    message: str | None = None

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        where = "/".join(str(i) for i in self.path) if self.path else "root"
        return f"invalid at {where}: {self.message}"


def _validate_binary(tree, path) -> ValidationReport:
    if not isinstance(tree, BinaryTree):
        return ValidationReport(False, path, f"expected a BinaryTree node, got {type(tree).__name__}")
    if (tree.left is None) != (tree.right is None):
        return ValidationReport(False, path, "binary vertex must have 0 or 2 children")
    if tree.left is None:
        return ValidationReport(True)
    for index, child in enumerate((tree.left, tree.right)):
        report = _validate_binary(child, path + (index,))
        if not report.ok:
            return report
    return ValidationReport(True)


def _validate_ternary(tree, path) -> ValidationReport:
    if not isinstance(tree, ColoredTernaryTree):
        return ValidationReport(False, path, f"expected a ColoredTernaryTree node, got {type(tree).__name__}")
    if not isinstance(tree.color, int) or isinstance(tree.color, bool):
        return ValidationReport(False, path, f"color must be an int, got {type(tree.color).__name__}")
    if tree.color < 0:
        return ValidationReport(False, path, f"color must be >= 0, got {tree.color}")
    if len(tree.children) not in (0, 3):
        return ValidationReport(False, path, f"ternary vertex must have 0 or 3 children, has {len(tree.children)}")
    for index, child in enumerate(tree.children):
        report = _validate_ternary(child, path + (index,))
        if not report.ok:
            return report
    return ValidationReport(True)


def validate(obj, family: str) -> ValidationReport:
    """Check completeness (0-or-2 / 0-or-3 children) and color nonnegativity.

    `obj` may be a single tree or a forest (sequence of trees); for forests
    the first path component is the component index.  Never raises; the
    report carries the first violation in preorder.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    check = _validate_binary if family == BINARY else _validate_ternary
    if isinstance(obj, (BinaryTree, ColoredTernaryTree)):
        return check(obj, ())
    if isinstance(obj, Sequence):
        if len(obj) == 0:
            return ValidationReport(False, (), "a forest needs at least one component")
        for index, tree in enumerate(obj):
            report = check(tree, (index,))
            if not report.ok:
                return report
        return ValidationReport(True)
    return ValidationReport(False, (), f"expected a tree or forest, got {type(obj).__name__}")


# ---------------------------------------------------------------------------
# Preorder forms
# ---------------------------------------------------------------------------
#
# The parsers, the renderers and the bijection work on flat preorder forms,
# so no tree depth reaches Python's recursion limit:
#   binary word       a str with "1" for an internal vertex and "0" for a leaf
#   ternary preorder  a list with c for a leaf of color c and ~c (= -1 - c)
#                     for an internal vertex of color c
# The functions below take valid forms and trees; validate() checks trees.

def binary_word(tree: BinaryTree) -> str:
    """Preorder word of a binary tree."""
    letters = []
    stack = [tree]
    while stack:
        vertex = stack.pop()
        if vertex.left is None:
            letters.append("0")
        else:
            letters.append("1")
            stack += (vertex.right, vertex.left)
    return "".join(letters)


def ternary_preorder(tree: ColoredTernaryTree) -> list[int]:
    """Preorder list of a colored ternary tree; raises ValueError on a negative color."""
    preorder = []
    stack = [tree]
    while stack:
        vertex = stack.pop()
        if vertex.color < 0:
            raise ValueError(f"colors must be >= 0, got {vertex.color}")
        if vertex.children:
            preorder.append(~vertex.color)
            stack += reversed(vertex.children)
        else:
            preorder.append(vertex.color)
    return preorder


def binary_from_word(word: str) -> BinaryTree:
    """The binary tree whose preorder word is `word`."""
    built = []  # finished subtrees; the next one in preorder on top
    for letter in reversed(word):
        built.append(LEAF if letter == "0" else BinaryTree(built.pop(), built.pop()))
    return built.pop()


def ternary_from_preorder(preorder: Sequence[int]) -> ColoredTernaryTree:
    """The colored ternary tree whose preorder list is `preorder`."""
    built = []
    for c in reversed(preorder):
        if c >= 0:
            built.append(ColoredTernaryTree(c))
        else:
            built.append(ColoredTernaryTree(~c, (built.pop(), built.pop(), built.pop())))
    return built.pop()


# ---------------------------------------------------------------------------
# Canonical text format
# ---------------------------------------------------------------------------

class ParseError(ValueError):
    """Malformed tree text; carries the byte offset and what was expected there."""

    def __init__(self, offset: int, expected: str, found: str):
        self.offset = offset
        self.expected = expected
        self.found = found
        super().__init__(f"offset {offset}: expected {expected}, found {found}")


def _error_at(text: str, offset: int, expected: str) -> ParseError:
    found = repr(text[offset]) if offset < len(text) else "end of input"
    return ParseError(offset, expected, found)


def binary_word_text(word: str) -> str:
    """Canonical text of a binary preorder word."""
    out = []
    on_right = []  # per open vertex: whether its right subtree is being written
    for letter in word:
        if letter == "1":
            out.append("(")
            on_right.append(False)
            continue
        out.append("L")
        while on_right:
            if not on_right[-1]:
                on_right[-1] = True
                out.append(" ")
                break
            on_right.pop()
            out.append(")")
    return "".join(out)


def ternary_preorder_text(preorder: Sequence[int]) -> str:
    """Canonical text of a colored ternary preorder list."""
    out = []
    pending = []
    for c in preorder:
        if c < 0:
            out.append(f"({~c}: ")
            pending.append(3)
            continue
        out.append(str(c))
        while pending:
            pending[-1] -= 1
            if pending[-1]:
                out.append(" ")
                break
            pending.pop()
            out.append(")")
    return "".join(out)


def serialize(tree: BinaryTree | ColoredTernaryTree) -> str:
    """Canonical single-line text for one tree of either family."""
    if isinstance(tree, BinaryTree):
        return binary_word_text(binary_word(tree))
    return ternary_preorder_text(ternary_preorder(tree))


def serialize_forest(forest: Sequence) -> str:
    """One tree per line, trailing newline included."""
    return "".join(serialize(t) + "\n" for t in forest)


_BLANKS = str.maketrans("", "", " \t")
_BINARY_LETTERS = str.maketrans({"(": "1", "L": "0", ")": None})
_NOT_BLANK = re.compile(r"[^ \t]")


def parse_binary_word(text: str) -> str:
    """Parse one canonical binary tree to its preorder word.

    Spaces and tabs may stand between any two tokens and every token is one
    character, so the scan runs over the text without them.
    """
    compact = text.translate(_BLANKS)
    pending = []  # per open vertex: subtrees still to read before its ')'
    done = False
    for index, ch in enumerate(compact):
        if done:
            raise _binary_error(text, index, "end of input")
        if pending and not pending[-1]:
            if ch != ")":
                raise _binary_error(text, index, "')'")
            pending.pop()
        elif ch == "(":
            pending.append(2)
            continue
        elif ch != "L":
            raise _binary_error(text, index, "'L' or '('")
        # A subtree ended here.
        if pending:
            pending[-1] -= 1
        else:
            done = True
    if not done:
        expected = "')'" if pending and not pending[-1] else "'L' or '('"
        raise ParseError(len(text), expected, "end of input")
    return compact.translate(_BINARY_LETTERS)


def _binary_error(text: str, index: int, expected: str) -> ParseError:
    """The error at the index-th character of `text` that is not a space or tab."""
    token = next(itertools.islice(_NOT_BLANK.finditer(text), index, None))
    return _error_at(text, token.start(), expected)


# One token after optional blanks: '(' with the color and ':' that must follow
# it (either may be missing), a leaf color, ')', or any other character.
_TERNARY_TOKEN = re.compile(r"[ \t]*(?:(\()[ \t]*([0-9]*)(:?)|([0-9]+)|(\))|[^ \t])")


def parse_ternary_preorder(text: str) -> list[int]:
    """Parse one canonical colored ternary tree to its preorder list."""
    preorder = []
    pending = []  # per open vertex: subtrees still to read before its ')'
    done = False
    try:
        for index, (opener, color, colon, digits, closer) in enumerate(_TERNARY_TOKEN.findall(text)):
            if done:
                raise _ternary_error(text, index, "end of input")
            if pending and not pending[-1]:
                if not closer:
                    raise _ternary_error(text, index, "')'")
                pending.pop()
            elif digits:
                preorder.append(int(digits))
            elif color and colon:
                preorder.append(~int(color))
                pending.append(3)
                continue
            elif opener:
                token = _ternary_token(text, index)
                if color:
                    raise _error_at(text, token.end(2), "':' after the color")
                raise _error_at(text, token.start(2), "an unsigned decimal color")
            else:
                raise _ternary_error(text, index, "a color digit or '('")
            # A subtree ended here.
            if pending:
                pending[-1] -= 1
            else:
                done = True
    except ParseError:
        raise
    except ValueError:  # int() refuses more digits than sys.get_int_max_str_digits()
        token = _ternary_token(text, index)
        group = 2 if token.group(1) else 4
        raise ParseError(token.start(group),
                         f"a color of at most {sys.get_int_max_str_digits()} digits",
                         f"{len(token.group(group))} digits") from None
    if not done:
        expected = "')'" if pending and not pending[-1] else "a color digit or '('"
        raise ParseError(len(text), expected, "end of input")
    return preorder


def _ternary_token(text: str, index: int) -> re.Match:
    """The index-th token of `text`, matched again to locate an error."""
    return next(itertools.islice(_TERNARY_TOKEN.finditer(text), index, None))


def _ternary_error(text: str, index: int, expected: str) -> ParseError:
    token = _ternary_token(text, index)
    return _error_at(text, token.end() - len(token.group().lstrip(" \t")), expected)


def parse_binary(text: str) -> BinaryTree:
    """Parse one canonical binary tree; inverse of :func:`serialize`."""
    return binary_from_word(parse_binary_word(text))


def parse_ternary(text: str) -> ColoredTernaryTree:
    """Parse one canonical colored ternary tree; inverse of :func:`serialize`."""
    return ternary_from_preorder(parse_ternary_preorder(text))


def parse_forest(text: str, family: str) -> tuple:
    """Parse one tree per line; ParseError offsets are relative to the whole text."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    parse_one = parse_binary if family == BINARY else parse_ternary
    trees = []
    offset = 0
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    for line in lines:
        try:
            trees.append(parse_one(line))
        except ParseError as err:
            raise ParseError(offset + err.offset, err.expected, err.found) from None
        offset += len(line) + 1
    return tuple(trees)


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

def to_dot(tree: BinaryTree | ColoredTernaryTree, index: int = 0) -> str:
    """One digraph per tree: circles for internal vertices, points for leaves.

    Colors label the vertices (xlabel for point-shaped leaves); child order is
    preserved through ordinal edge labels 1, 2, 3 left to right.
    """
    lines = [f"digraph tree{index} {{"]
    counter = [0]

    def emit(sub) -> str:
        name = f"v{counter[0]}"
        counter[0] += 1
        color = getattr(sub, "color", None)
        is_leaf = sub.is_leaf
        if is_leaf:
            label = "" if color is None else f', xlabel="{color}"'
            lines.append(f'  {name} [shape=point{label}];')
        else:
            label = "" if color is None else str(color)
            lines.append(f'  {name} [shape=circle, label="{label}"];')
        children = (sub.left, sub.right) if isinstance(sub, BinaryTree) else sub.children
        if is_leaf:
            return name
        for ordinal, child in enumerate(children, start=1):
            child_name = emit(child)
            lines.append(f'  {name} -> {child_name} [label="{ordinal}"];')
        return name

    emit(tree)
    lines.append("}")
    return "\n".join(lines) + "\n"
