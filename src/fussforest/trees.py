"""Tree values, exhaustive generators, preorder forms, text format, validation.

Two families live here: complete binary trees (every vertex has 0 or 2
children) and colored complete ternary trees (0 or 3 children, every vertex
carries a color >= 0).  The deterministic generators below are the
enumeration oracles the closed-form counts in :mod:`fussforest.exact` are
checked against.

A tree value is a frozen view of its flat preorder form (see "Preorder
forms"): equality and hashing are those of the form, and `left`, `right`,
`children` and `color` slice it.  The constructors refuse a malformed
vertex (ValueError for a color that is not an int >= 0, TypeError for a
wrong child count or child type); the `*_from_*` wrappers trust their form,
and `validate` checks it.
Building a tree vertex by vertex copies the forms of the children, so a
chain of depth d costs O(d^2); parsing is linear, and the `*_from_*`
wrappers take O(1).

Canonical text format (bit-exact, one tree per line in files):
  binary          L                    leaf
                  (<left> <right>)     internal, single space separator
  colored ternary <c>                  leaf with color c (decimal, no sign)
                  (<c>: <t1> <t2> <t3>)   internal vertex with color c
Parsers accept spaces and tabs between tokens and report the offset of the
first error.  Generating, parsing, rendering (text and DOT) and comparing
trees go through flat preorder forms or explicit stacks, without
recursion, so no tree depth reaches Python's recursion limit.
"""

from __future__ import annotations

import itertools
import operator
import re
import sys
from collections.abc import Iterator, Sequence

# SizeCapError is re-exported: this module is its public owner, though only the CLI raises it.
from . import BINARY, COLORED_TERNARY, ParseError, SizeCapError, _require_least  # noqa: F401

FAMILIES = (BINARY, COLORED_TERNARY)


def _pick(family: str, binary, colored):
    """`binary` for the binary family and `colored` for the colored-ternary one."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    return binary if family == BINARY else colored


class _Frozen:
    """An immutable value made of the fields named in `__match_args__`.

    The fields live in the instance dict, in that order, so pickle and
    `copy` rebuild a value as they would any object.  Two values are equal,
    and hash alike, when they are of the same class with equal fields; the
    repr names the class and each field.  Setting or deleting an attribute
    raises AttributeError.  It stands in for a frozen dataclass: importing
    `dataclasses` for this module's three classes adds about 9 ms to each
    `enumerate` or `map` run (2-vCPU x86-64, Python 3.11, no bytecode cache).
    """

    __match_args__: tuple[str, ...] = ()

    def _freeze(self, *values) -> None:
        self.__dict__.update(zip(self.__match_args__, values))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class BinaryTree(_Frozen):
    """A complete binary tree, held as its preorder word (see "Preorder forms").

    ``BinaryTree()`` is a leaf and ``BinaryTree(left, right)`` an internal
    vertex; see the module docstring.
    """

    __match_args__ = ("word",)
    word: str

    def __init__(self, left: BinaryTree | None = None, right: BinaryTree | None = None):
        if left is None and right is None:
            word = "0"
        elif isinstance(left, BinaryTree) and isinstance(right, BinaryTree):
            word = f"1{left.word}{right.word}"
        else:
            raise TypeError("a binary vertex has no children or two BinaryTree children, got "
                            f"{type(left).__name__} and {type(right).__name__}")
        self._freeze(word)

    @property
    def is_leaf(self) -> bool:
        return self.word == "0"

    @property
    def left(self) -> BinaryTree | None:
        return None if self.is_leaf else binary_from_word(_children(self.word, 2)[0])

    @property
    def right(self) -> BinaryTree | None:
        return None if self.is_leaf else binary_from_word(_children(self.word, 2)[1])


LEAF = BinaryTree()


class ColoredTernaryTree(_Frozen):
    """A colored complete ternary tree, held as its preorder tuple (see "Preorder forms").

    ``ColoredTernaryTree(color)`` is a leaf and ``ColoredTernaryTree(color,
    (first, second, third))`` an internal vertex; see the module docstring.
    """

    __match_args__ = ("preorder",)
    preorder: tuple[int, ...]

    def __init__(self, color: int = 0, children: Sequence[ColoredTernaryTree] = ()):
        if not isinstance(color, int) or isinstance(color, bool) or color < 0:
            raise ValueError(f"a color must be an int >= 0, got {color!r}")
        if children and not (len(children) == 3
                             and all(isinstance(c, ColoredTernaryTree) for c in children)):
            raise TypeError("a ternary vertex has no children or three ColoredTernaryTree "
                            f"children, got {', '.join(type(c).__name__ for c in children)}")
        preorder = (color,)
        if children:  # one concatenation, so a vertex costs the size of its subtree
            preorder = (~color, *children[0].preorder, *children[1].preorder, *children[2].preorder)
        self._freeze(preorder)

    @property
    def is_leaf(self) -> bool:
        return self.preorder[0] >= 0

    @property
    def color(self) -> int:
        c = self.preorder[0]
        return c if c >= 0 else ~c

    @property
    def children(self) -> tuple[ColoredTernaryTree, ...]:
        return tuple(map(ternary_from_preorder, _children(self.preorder, 3)))


def leaf(color: int = 0) -> ColoredTernaryTree:
    return ColoredTernaryTree(color)


def node(color: int, first: ColoredTernaryTree, second: ColoredTernaryTree,
         third: ColoredTernaryTree) -> ColoredTernaryTree:
    return ColoredTernaryTree(color, (first, second, third))


# By arity, how a vertex changes the count of subtrees still to read in a preorder form.
_NEED_STEP = {2: lambda v: 1 if v == "1" else -1, 3: lambda v: 2 if v < 0 else -1}


def _children(form: str | tuple[int, ...], arity: int) -> list:
    """The forms of the root's children, cut in one scan: a child ends where
    the vertices since the one before it first make a whole tree."""
    step = _NEED_STEP[arity]
    children = []
    start = need = 1
    for end in range(1, len(form)):
        need += step(form[end])
        if not need:
            children.append(form[start:end + 1])
            start, need = end + 1, 1
    return children


# ---------------------------------------------------------------------------
# Vertex statistics
# ---------------------------------------------------------------------------

def internal_count(tree: BinaryTree | ColoredTernaryTree) -> int:
    """Number of vertices that have children."""
    return tree.word.count("1") if isinstance(tree, BinaryTree) else sum(c < 0 for c in tree.preorder)


def color_sum(tree: ColoredTernaryTree) -> int:
    """Sum of the colors over all vertices."""
    return sum(c if c >= 0 else ~c for c in tree.preorder)


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
#
# The generators yield preorder forms (see below); the object-level ones
# wrap each form in a tree value.

def _next_composition(parts: list[int]) -> bool:
    """Step `parts` in place to the next weak composition in ascending
    lexicographic order: move one unit from the rightmost nonzero part after
    the first to the part before it, and the rest of that part to the last
    part.  After the last composition, return False and leave `parts` as is.
    """
    right = len(parts) - 1
    while right > 0 and not parts[right]:
        right -= 1
    if right <= 0:
        return False
    parts[right - 1] += 1
    parts[right], parts[-1] = 0, parts[right] - 1
    return True


def _forests(forms: Sequence[Sequence], n: int, m: int) -> Iterator[tuple]:
    """Every m-tuple of forms with sizes summing to n, `forms[s]` listing those
    of size s: the sizes step through the weak compositions of n into m parts,
    ascending, each giving a product of lists, the first component slowest."""
    sizes, more = [0] * (m - 1) + [n], True
    while more:
        yield from itertools.product(*[forms[s] for s in sizes])
        more = _next_composition(sizes)


# The shape tables of `_shape_words`, by arity: table s lists the words of
# size s, for the sizes whose trees have at most `_TABLE_VERTICES` vertices
# (binary to 9, ternary to 6: under 1 MB).  They are built once per process,
# as far as a call needs.  A new size replaces the stored list, never appends
# to it, so two threads cannot store one size twice and a suspended generator
# keeps the list it read.
_TABLE_VERTICES = 19
_TABLES: dict[int, list[list[str]]] = {}


def _shape_words(p: int, k: int) -> Iterator[str]:
    """Preorder words of the complete k-ary trees with p internal vertices.

    Vertex by vertex in preorder, child sizes run through the weak
    compositions of size - 1 into k parts, ascending: from the right comb to
    the left comb.  So the table of size s, built smallest first, is a root
    before each k-forest of size s - 1 that `_forests` makes of the smaller
    tables, kept in `_TABLES` and grown through size p up to the cap.  One
    loop makes every word.  Each pass restarts the pieces after a head: the
    longest suffix of them whose sizes have a table runs as a Cartesian
    product of the tables, the last fastest, and the rest are right combs.
    The first pass restarts the whole tree, so a size with a table is read
    from it.  Then a step, in one frame, scans from the right with a stack of
    subtree sizes; the first vertex whose child sizes step is the last that
    can, and its children and all subtrees after it are the next pass's
    pieces.
    """
    tables = _TABLES.get(k, [["0"]])
    while len(tables) <= p and k * len(tables) < _TABLE_VERTICES:
        tables = [*tables, ["1" + "".join(f) for f in _forests(tables, len(tables) - 1, k)]]
        _TABLES[k] = tables
    unit = "1" + "0" * (k - 1)
    head, pieces = "", [p]
    while True:
        cut = len(pieces)
        while cut and pieces[cut - 1] < len(tables):
            cut -= 1
        prefix = head + "".join(unit * s + "0" for s in pieces[:cut])
        tail = [tables[s] for s in pieces[cut:]]
        yield from map(prefix.__add__, map("".join, itertools.product(*tail)))
        word = prefix + "".join(table[-1] for table in tail)
        sizes = []  # internal sizes of the subtrees right of the scan, the nearest last
        for index in range(len(word) - 1, -1, -1):
            if word[index] == "1":
                children = sizes[:-k - 1:-1]
                del sizes[-k:]
                if _next_composition(children):
                    break
                sizes.append(sum(children) + 1)
            else:
                sizes.append(0)
        else:
            return
        head, pieces = word[:index] + "1", children + sizes[::-1]


def _ternary_preorders(n: int, p: int | None) -> Iterator[tuple[int, ...]]:
    """Weight-n colored ternary preorder tuples with p internal vertices, or every p ascending.

    Each shape is painted by stepping one list of colors, one per vertex in
    preorder, through the weak compositions of the color sum n - 2p, ascending.
    """
    for q in range(n // 2 + 1) if p is None else range(p, min(p, n // 2) + 1):
        for shape in _shape_words(q, 3):
            flips = [-1 if letter == "1" else 0 for letter in shape]  # c ^ -1 == ~c
            colors, more = [0] * (3 * q) + [n - 2 * q], True
            while more:
                yield tuple(map(operator.xor, flips, colors))
                more = _next_composition(colors)


def enumerate_binary_words(n: int) -> Iterator[str]:
    """Yield the preorder word of every binary tree with n internal vertices, once each.

    Order is fixed: left subtree internal size ascending 0..n-1, recursively,
    as :func:`_shape_words` yields them.
    Total count equals k_catalan(n, 2).
    """
    _require_least("enumerate_binary_words", ("n", n, 0))
    return _shape_words(n, 2)


def enumerate_binary(n: int) -> Iterator[BinaryTree]:
    """Yield every complete binary tree with n internal vertices: :func:`enumerate_binary_words`."""
    return map(binary_from_word, enumerate_binary_words(n))


def enumerate_ternary_preorders(n: int, p: int | None = None) -> Iterator[tuple[int, ...]]:
    """Yield the preorder tuple of every weight-n colored ternary tree once, in fixed order.

    With p given, restricts to trees with p internal vertices (color sum
    n-2p); an out-of-range p yields nothing.  With p None, runs p ascending
    from 0 to floor(n/2).  Shapes come in the order of :func:`_shape_words`
    and colors as weak compositions of n-2p assigned to vertices in preorder.
    """
    _require_least("enumerate_ternary_preorders", ("p", p, 0), ("n", n, 0))
    return _ternary_preorders(n, p)


def enumerate_colored_ternary(n: int, p: int | None = None) -> Iterator[ColoredTernaryTree]:
    """Yield the weight-n colored ternary trees: :func:`enumerate_ternary_preorders`."""
    return map(ternary_from_preorder, enumerate_ternary_preorders(n, p))


def enumerate_forest_forms(family: str, n: int, m: int) -> Iterator[tuple]:
    """Yield every ordered m-tuple of forms with total weight n, exactly once.

    Components are binary words or colored ternary preorder tuples; weight is
    the internal-vertex count of a binary tree and :func:`ternary_weight`
    of a colored one.  The order is that of :func:`_forests`: component
    weights as weak compositions of n ascending, then the per-component
    generators, the first component's slowest.  The call lists every
    component form of weight <= n, and forests share those forms.
    """
    forms_of = _pick(family, lambda s: _shape_words(s, 2), lambda s: _ternary_preorders(s, None))
    _require_least("enumerate_forest_forms", ("m", m, 1), ("n", n, 0))
    return _forests([list(forms_of(s)) for s in range(n + 1)], n, m)


def enumerate_forests(family: str, n: int, m: int) -> Iterator[tuple]:
    """Yield every ordered m-tuple of trees with total weight n: :func:`enumerate_forest_forms`."""
    build = _pick(family, binary_from_word, ternary_from_preorder)
    return (tuple(map(build, forest)) for forest in enumerate_forest_forms(family, n, m))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

class ValidationReport(_Frozen):
    """Outcome of structural validation; `path` locates the first violation."""

    __match_args__ = ("ok", "path", "message")
    ok: bool
    path: tuple[int, ...] | None
    message: str | None

    def __init__(self, ok: bool, path: tuple[int, ...] | None = None, message: str | None = None):
        self._freeze(ok, path, message)


def validate(obj, family: str) -> ValidationReport:
    """Check that `obj` is a tree of the family, or a non-empty forest (sequence) of them,
    and that each tree's preorder form is complete.

    The constructors build complete forms, but the `*_from_*` wrappers trust
    theirs, so each form is scanned once.  The path is () for a tree and (i,)
    for the i-th component of a forest.  Never raises on foreign input.
    """
    kind = _pick(family, BinaryTree, ColoredTernaryTree)
    forest = (obj,) if isinstance(obj, kind) else obj
    if not isinstance(forest, Sequence):
        return ValidationReport(False, (), f"expected a {kind.__name__} or a forest of them, "
                                           f"got {type(obj).__name__}")
    if len(forest) == 0:
        return ValidationReport(False, (), "a forest needs at least one component")
    for index, tree in enumerate(forest):
        fault = _tree_fault(tree, kind)
        if fault is not None:
            return ValidationReport(False, (index,) if forest is obj else (), fault)
    return ValidationReport(True)


def _tree_fault(tree, kind: type) -> str | None:
    """What makes `tree` not a complete tree of type `kind`, or None; the form
    is read in one scan that counts the subtrees still to read."""
    if not isinstance(tree, kind):
        return f"expected a {kind.__name__}, got {type(tree).__name__}"
    binary = kind is BinaryTree
    form = tree.word if binary else tree.preorder
    if not isinstance(form, str if binary else tuple):
        return f"expected a {'str' if binary else 'tuple'} form, got {type(form).__name__}"
    step = _NEED_STEP[2 if binary else 3]
    need = 1
    for index, item in enumerate(form):
        if item not in ("0", "1") if binary else type(item) is not int:  # bool is not a color
            return f"item {index} is {item!r}, not {'a letter 0 or 1' if binary else 'an int'}"
        if not need:
            return f"item {index} is past the end of the tree"
        need += step(item)
    return f"the form ends {need} subtree(s) short" if need else None


# ---------------------------------------------------------------------------
# Preorder forms
# ---------------------------------------------------------------------------
#
# The parsers, the renderers and the bijection work on flat preorder forms,
# so no tree depth reaches Python's recursion limit:
#   binary word       a str with "1" for an internal vertex and "0" for a leaf
#   ternary preorder  a tuple with c for a leaf of color c and ~c (= -1 - c)
#                     for an internal vertex of color c
# Both forms are immutable and hashable.  A tree value holds its form, as
# `tree.word` or `tree.preorder`; the *_from_* functions below wrap a form
# in O(1) and trust it.

def binary_from_word(word: str) -> BinaryTree:
    """The binary tree whose preorder word is `word`."""
    tree = object.__new__(BinaryTree)
    tree.__dict__["word"] = word
    return tree


def ternary_from_preorder(preorder: tuple[int, ...]) -> ColoredTernaryTree:
    """The colored ternary tree whose preorder tuple is `preorder`."""
    tree = object.__new__(ColoredTernaryTree)
    tree.__dict__["preorder"] = preorder
    return tree


# ---------------------------------------------------------------------------
# Canonical text format
# ---------------------------------------------------------------------------

def _error_at(text: str, offset: int, expected: str) -> ParseError:
    """The error at `offset`; a byte that was not ASCII, which the
    "surrogateescape" decoding turned into a lone surrogate, is named by value."""
    if offset >= len(text):
        return ParseError(offset, expected, "end of input")
    ch = text[offset]
    found = f"byte {ord(ch) - 0xDC00:#04x}" if "\udc80" <= ch <= "\udcff" else repr(ch)
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
    """Canonical text of a colored ternary preorder tuple."""
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
        return binary_word_text(tree.word)
    return ternary_preorder_text(tree.preorder)


_BLANKS = str.maketrans("", "", " \t")
_BINARY_LETTERS = str.maketrans({"(": "1", "L": "0", ")": None})
_NOT_BLANK = re.compile(r"[^ \t]")

# Both parsers run one scan over their tokens with `need`, the subtrees the
# innermost open vertex (or, outside every vertex, the text) still needs,
# and a stack of what each enclosing vertex still needs after the one open
# inside it.  An opener takes one from `need`, pushes the rest and opens a
# vertex that needs its arity; a leaf takes one; ')' is due exactly when
# `need` is 0 with a vertex open, and pops.  The text is one tree when
# `need` and the stack both end empty.


def parse_binary_word(text: str) -> str:
    """Parse one canonical binary tree to its preorder word.

    Spaces and tabs may stand between any two tokens and every token is one
    character, so the scan runs over the text without them.
    """
    compact = text.translate(_BLANKS)
    need = 1
    above = []
    for index, ch in enumerate(compact):
        if need:
            if ch == "L":
                need -= 1
            elif ch == "(":
                above.append(need - 1)
                need = 2
            else:
                raise _token_error(_NOT_BLANK, text, index, "'L' or '('")
        elif ch == ")" and above:
            need = above.pop()
        else:
            raise _token_error(_NOT_BLANK, text, index, "')'" if above else "end of input")
    if need or above:
        raise ParseError(len(text), "'L' or '('" if need else "')'", "end of input")
    return compact.translate(_BINARY_LETTERS)


def _token(pattern: re.Pattern, text: str, index: int) -> re.Match:
    """The index-th match of `pattern` in `text`, found again to place an error."""
    return next(itertools.islice(pattern.finditer(text), index, None))


def _token_error(pattern: re.Pattern, text: str, index: int, expected: str) -> ParseError:
    return _error_at(text, _token(pattern, text, index).start(), expected)


# One token, which starts at the next character that is not a blank: '(' with
# the blanks, color and ':' that must follow it (any of them may be missing),
# a leaf color, or any other one character.
_TERNARY_TOKEN = re.compile(r"\([ \t]*[0-9]*:?|[0-9]+|[^ \t]")
_DIGITS = "0123456789"


def parse_ternary_preorder(text: str) -> tuple[int, ...]:
    """Parse one canonical colored ternary tree to its preorder tuple."""
    preorder = []
    need = 1
    above = []
    try:
        for index, token in enumerate(_TERNARY_TOKEN.findall(text)):
            if not need:
                if token != ")" or not above:
                    raise _token_error(_TERNARY_TOKEN, text, index, "')'" if above else "end of input")
                need = above.pop()
            elif token[0] in _DIGITS:
                preorder.append(int(token))
                need -= 1
            elif token[0] != "(":
                raise _token_error(_TERNARY_TOKEN, text, index, "a color digit or '('")
            elif token[-1] == ":" and token[-2] in _DIGITS:
                preorder.append(~int(token[1:-1]))  # int() skips the blanks after '('
                above.append(need - 1)
                need = 3
            else:
                # The color, or the ':' after it, is missing where the token ends.
                offset = _token(_TERNARY_TOKEN, text, index).end() - (token[-1] == ":")
                raise _error_at(text, offset, "':' after the color" if token[-1] in _DIGITS
                                else "an unsigned decimal color")
    except ParseError:
        raise
    except ValueError:  # int() refuses more digits than sys.get_int_max_str_digits()
        digits = token.lstrip("( \t").rstrip(":")
        raise ParseError(_token(_TERNARY_TOKEN, text, index).start() + token.index(digits),
                         f"a color of at most {sys.get_int_max_str_digits()} digits",
                         f"{len(digits)} digits") from None
    if need or above:
        raise ParseError(len(text), "a color digit or '('" if need else "')'", "end of input")
    return tuple(preorder)


def parse_binary(text: str) -> BinaryTree:
    """Parse one canonical binary tree; inverse of :func:`serialize`."""
    return binary_from_word(parse_binary_word(text))


def parse_ternary(text: str) -> ColoredTernaryTree:
    """Parse one canonical colored ternary tree; inverse of :func:`serialize`."""
    return ternary_from_preorder(parse_ternary_preorder(text))


def parse_forest_forms(text: str, family: str) -> list:
    """Parse one tree per line to its preorder form; the final newline is
    optional, and ParseError offsets are relative to the whole text."""
    parse_one = _pick(family, parse_binary_word, parse_ternary_preorder)
    forms = []
    offset = 0
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    for line in lines:
        try:
            forms.append(parse_one(line))
        except ParseError as err:
            raise ParseError(offset + err.offset, err.expected, err.found) from None
        offset += len(line) + 1
    return forms


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

def form_dot(form: str | Sequence[int], index: int = 0) -> str:
    """One digraph per tree, from a binary word or a colored ternary preorder tuple.

    Circles are internal vertices and points leaves, numbered v0, v1, ... in
    preorder.  Colors label the vertices (xlabel for point-shaped leaves);
    child order is preserved through ordinal edge labels 1, 2, 3 left to
    right.  An edge is written once the subtree below it is.
    """
    if isinstance(form, str):
        vertices = ((2, None) if letter == "1" else (0, None) for letter in form)
    else:
        vertices = ((3, ~c) if c < 0 else (0, c) for c in form)
    lines = [f"digraph tree{index} {{"]
    open_vertices = []  # per open vertex: [name, children written, children]
    for number, (count, color) in enumerate(vertices):
        name = f"v{number}"
        if count:
            lines.append(f'  {name} [shape=circle, label="{"" if color is None else color}"];')
            open_vertices.append([name, 0, count])
            continue
        xlabel = "" if color is None else f', xlabel="{color}"'
        lines.append(f'  {name} [shape=point{xlabel}];')
        while open_vertices:
            parent = open_vertices[-1]
            parent[1] += 1
            lines.append(f'  {parent[0]} -> {name} [label="{parent[1]}"];')
            if parent[1] < parent[2]:
                break
            open_vertices.pop()
            name = parent[0]
    lines.append("}")
    return "\n".join(lines) + "\n"
