"""Test oracle: the paper's L/R-path form of the bijection and the recursive parsers.

The library computes `phi` as a prefix code on preorder forms.  This module
keeps the construction the paper states, as recursive rewriting passes over
nested trees, so the tests can check the prefix code against it.

Forward direction (colored ternary -> binary), two rewriting passes:

  1. expand_colors: a vertex v with color k is stripped of its color and a
     chain of k new vertices is grafted above it; each chain vertex gets a
     fresh left leaf and passes v down as the bottom right child.
  2. binarize: every remaining 3-child vertex v with subtrees T1 T2 T3 keeps
     T3 as its right child and gains a new left child carrying T1 and T2.

A tree of weight n (2*internal + color sum) becomes a binary tree with n
internal vertices.  The inverse runs two contraction passes:

  3. contract_l_paths: along every maximal left-child chain v1..vk (k >= 3),
     v1 absorbs v2, v3 absorbs v4, ... producing 3-child vertices; absorbing
     means the ordered children become (left of absorbed, right of absorbed,
     right of absorber).
  4. contract_r_paths: every maximal chain of 2-child vertices with leaf left
     children collapses onto the vertex u below its last right edge, and u is
     colored with the chain length; untouched vertices get color 0.

Both passes process vertices in deterministic preorder; intermediate trees of
mixed arity are private to this module.  Everything here recurses, so it only
handles trees a few hundred vertices deep.

The recursive descent parsers at the end are the ones the library used
before its parsers became iterative; the parser fuzz compares errors with
them.
"""

from __future__ import annotations

from dataclasses import dataclass

from fussforest.trees import LEAF, BinaryTree, ColoredTernaryTree, ParseError


class BijectionError(RuntimeError):
    """A contraction pass met an arity it cannot occur on valid input."""


@dataclass(frozen=True)
class _Mixed:
    """Uncolored intermediate vertex with 0, 2 or 3 children."""

    children: tuple[_Mixed, ...] = ()

    @property
    def is_leaf(self) -> bool:
        return not self.children


_MLEAF = _Mixed()


# ---------------------------------------------------------------------------
# Forward direction
# ---------------------------------------------------------------------------

def expand_colors(tree: ColoredTernaryTree) -> _Mixed:
    """Replace every color k by a k-vertex chain of left-leafed binary vertices."""
    if tree.color < 0:
        raise ValueError(f"colors must be >= 0, got {tree.color}")
    if tree.is_leaf:
        expanded = _MLEAF
    else:
        expanded = _Mixed(tuple(expand_colors(c) for c in tree.children))
    for _ in range(tree.color):
        expanded = _Mixed((_MLEAF, expanded))
    return expanded


def binarize(tree: _Mixed) -> BinaryTree:
    """Rewrite every 3-child vertex into two binary vertices, recursively."""
    arity = len(tree.children)
    if arity == 0:
        return LEAF
    if arity == 2:
        first, second = tree.children
        return BinaryTree(binarize(first), binarize(second))
    if arity == 3:
        first, second, third = tree.children
        return BinaryTree(BinaryTree(binarize(first), binarize(second)), binarize(third))
    raise BijectionError(f"vertex with {arity} children cannot be binarized")


def phi(tree: ColoredTernaryTree) -> BinaryTree:
    """Map a colored ternary tree of weight n to a binary tree with n internal vertices."""
    return binarize(expand_colors(tree))


# ---------------------------------------------------------------------------
# Inverse direction
# ---------------------------------------------------------------------------

def contract_l_paths(tree: BinaryTree) -> _Mixed:
    """Absorb alternate vertices along every maximal left-child chain of length >= 3.

    Maximal left chains partition the vertices of a binary tree (each vertex
    extends upward while it is a left child and downward through left
    children to a leaf), so the chains can be contracted independently; the
    recursion below visits them in preorder.
    """
    return _contract_chain_from(tree)


def _contract_chain_from(head: BinaryTree) -> _Mixed:
    chain = [head]
    while not chain[-1].is_leaf:
        chain.append(chain[-1].left)
    return _contract_chain(chain, 0)


def _contract_chain(chain: list[BinaryTree], i: int) -> _Mixed:
    last = len(chain) - 1
    vertex = chain[i]
    if i == last:
        return _MLEAF
    if i <= last - 2:
        # vertex absorbs chain[i+1]; both are internal here.
        absorbed = chain[i + 1]
        return _Mixed((
            _contract_chain(chain, i + 2),
            _contract_chain_from(absorbed.right),
            _contract_chain_from(vertex.right),
        ))
    # i == last - 1: the left child is the chain's final leaf; no partner to absorb.
    return _Mixed((_MLEAF, _contract_chain_from(vertex.right)))


def contract_r_paths(tree: _Mixed) -> ColoredTernaryTree:
    """Collapse maximal chains of left-leafed binary vertices into colors.

    After contract_l_paths every remaining 2-child vertex has a leaf as its
    left child; a residual one without is a bijection bug and raises.
    """
    length = 0
    current = tree
    while len(current.children) == 2:
        left, right = current.children
        if not left.is_leaf:
            raise BijectionError("residual 2-child vertex whose left child is not a leaf")
        length += 1
        current = right
    if current.is_leaf:
        return ColoredTernaryTree(length)
    if len(current.children) != 3:
        raise BijectionError(f"vertex with {len(current.children)} children after contraction")
    return ColoredTernaryTree(length, tuple(contract_r_paths(c) for c in current.children))


def phi_inverse(tree: BinaryTree) -> ColoredTernaryTree:
    """Map a binary tree with n internal vertices to a colored ternary tree of weight n."""
    return contract_r_paths(contract_l_paths(tree))


# ---------------------------------------------------------------------------
# Path machinery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TreePath:
    """A maximal L- or R-path, with the reasons it cannot be extended.

    `vertices` holds root-relative positions (tuples of child indices,
    0 = left, 1 = right) from the top of the path downward.
    """

    kind: str  # "L" or "R"
    vertices: tuple[tuple[int, ...], ...]
    head_blocker: str
    tail_blocker: str

    @property
    def length(self) -> int:
        return len(self.vertices)


def maximal_l_paths(tree: BinaryTree) -> tuple[TreePath, ...]:
    """All maximal left-child chains, in preorder of their heads.

    An L-path only requires each vertex after the first to be the left child
    of its predecessor, so every vertex lies on exactly one maximal L-path:
    the paths partition the tree.
    """
    paths: list[TreePath] = []

    def walk(vertex: BinaryTree, position: tuple[int, ...], head_blocker: str) -> None:
        chain = [(vertex, position)]
        while not chain[-1][0].is_leaf:
            v, pos = chain[-1]
            chain.append((v.left, pos + (0,)))
        paths.append(TreePath(
            kind="L",
            vertices=tuple(pos for _, pos in chain),
            head_blocker=head_blocker,
            tail_blocker="ends at a leaf",
        ))
        for v, pos in chain[:-1]:
            walk(v.right, pos + (1,), "is a right child")

    walk(tree, (), "is the root")
    return tuple(paths)


def _on_r_path(vertex: BinaryTree) -> bool:
    return not vertex.is_leaf and vertex.left.is_leaf


def maximal_r_paths(tree: BinaryTree) -> tuple[TreePath, ...]:
    """All maximal right-child chains of vertices whose left child is a leaf."""
    paths: list[TreePath] = []

    def walk(vertex: BinaryTree, position: tuple[int, ...], head_blocker: str | None) -> None:
        if vertex.is_leaf:
            return
        if _on_r_path(vertex) and head_blocker is not None:
            chain = [(vertex, position)]
            while _on_r_path(chain[-1][0].right):
                v, pos = chain[-1]
                chain.append((v.right, pos + (1,)))
            bottom, bottom_pos = chain[-1]
            tail_blocker = ("right child is a leaf" if bottom.right.is_leaf
                            else "right child's left child is not a leaf")
            paths.append(TreePath(
                kind="R",
                vertices=tuple(pos for _, pos in chain),
                head_blocker=head_blocker,
                tail_blocker=tail_blocker,
            ))
            for v, pos in chain:
                walk(v.left, pos + (0,), "is a left child")
            walk(bottom.right, bottom_pos + (1,), None)
        else:
            blocker = None if _on_r_path(vertex) else "parent's left child is not a leaf"
            walk(vertex.left, position + (0,), "is a left child")
            walk(vertex.right, position + (1,), blocker)

    walk(tree, (), "is the root")
    return tuple(paths)


# ---------------------------------------------------------------------------
# Recursive descent parsers
# ---------------------------------------------------------------------------

class _Cursor:
    __slots__ = ("text", "pos")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_spaces(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def expect(self, ch: str, expected: str) -> None:
        if self.peek() != ch:
            raise ParseError(self.pos, expected, _describe(self.peek()))
        self.pos += 1

    def number(self) -> int:
        start = self.pos
        while self.peek().isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError(start, "an unsigned decimal color", _describe(self.peek()))
        return int(self.text[start:self.pos])


def _describe(ch: str) -> str:
    return "end of input" if ch == "" else repr(ch)


def _finish(cursor: _Cursor, value):
    cursor.skip_spaces()
    if cursor.pos != len(cursor.text):
        raise ParseError(cursor.pos, "end of input", _describe(cursor.peek()))
    return value


def parse_binary(text: str) -> BinaryTree:
    """Parse one canonical binary tree by recursive descent."""
    cursor = _Cursor(text)
    return _finish(cursor, _parse_binary(cursor))


def _parse_binary(cursor: _Cursor) -> BinaryTree:
    cursor.skip_spaces()
    ch = cursor.peek()
    if ch == "L":
        cursor.take()
        return LEAF
    if ch == "(":
        cursor.take()
        left = _parse_binary(cursor)
        cursor.skip_spaces()
        right = _parse_binary(cursor)
        cursor.skip_spaces()
        cursor.expect(")", "')'")
        return BinaryTree(left, right)
    raise ParseError(cursor.pos, "'L' or '('", _describe(ch))


def parse_ternary(text: str) -> ColoredTernaryTree:
    """Parse one canonical colored ternary tree by recursive descent.

    Digits are whatever str.isdigit accepts, so on non-ASCII digits this
    parser differs from the library's, which takes only 0-9.
    """
    cursor = _Cursor(text)
    return _finish(cursor, _parse_ternary(cursor))


def _parse_ternary(cursor: _Cursor) -> ColoredTernaryTree:
    cursor.skip_spaces()
    ch = cursor.peek()
    if ch.isdigit():
        return ColoredTernaryTree(cursor.number())
    if ch == "(":
        cursor.take()
        cursor.skip_spaces()
        color = cursor.number()
        cursor.expect(":", "':' after the color")
        children = []
        for _ in range(3):
            cursor.skip_spaces()
            children.append(_parse_ternary(cursor))
        cursor.skip_spaces()
        cursor.expect(")", "')'")
        return ColoredTernaryTree(color, tuple(children))
    raise ParseError(cursor.pos, "a color digit or '('", _describe(ch))
