"""Recursive tree generators, a stepwise shape generator and DOT export,
kept as oracles for the flat ones.

The recursive ones build nested tree objects directly and recurse once per
vertex, as the library did before it generated and rendered preorder forms.
The stepwise one steps each shape word to the next, as the library did
before it yielded restarted tails from tables.  The tests compare
`fussforest.trees` against them: the same trees in the same order, and
byte-identical DOT text.
"""

from __future__ import annotations

from typing import Iterator

from fussforest.trees import (
    BINARY,
    FAMILIES,
    LEAF,
    BinaryTree,
    ColoredTernaryTree,
    _next_composition,
)


def weak_compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` nonnegative ints summing to total, lexicographically ascending."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in weak_compositions(total - head, parts - 1):
            yield (head,) + rest


def gen_binary(n: int) -> Iterator[BinaryTree]:
    """Binary trees with n internal vertices, left subtree size ascending, recursively."""
    if n == 0:
        yield LEAF
        return
    for left_size in range(n):
        for left in gen_binary(left_size):
            for right in gen_binary(n - 1 - left_size):
                yield BinaryTree(left, right)


def shape_words_stepwise(p: int, k: int) -> Iterator[str]:
    """Preorder words of the complete k-ary trees with p internal vertices, one
    successor step per word, from the right comb to the left comb.

    A step scans from the right with a stack of subtree sizes; the first
    vertex whose child sizes step to the next weak composition is the last
    that can, and its children and all subtrees after it restart as right combs.
    """
    unit = "1" + "0" * (k - 1)
    word = unit * p + "0"
    while True:
        yield word
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
        word = word[:index] + "1" + "".join(unit * s + "0" for s in children + sizes[::-1])


def gen_ternary_shapes(p: int) -> Iterator[ColoredTernaryTree]:
    """All uncolored ternary shapes (colors 0) with p internal vertices."""
    if p == 0:
        yield ColoredTernaryTree()
        return
    for i in range(p):
        for j in range(p - i):
            for first in gen_ternary_shapes(i):
                for second in gen_ternary_shapes(j):
                    for third in gen_ternary_shapes(p - 1 - i - j):
                        yield ColoredTernaryTree(0, (first, second, third))


def paint(shape: ColoredTernaryTree, colors: Iterator[int]) -> ColoredTernaryTree:
    # Colors are consumed in preorder: vertex first, then children left to right.
    color = next(colors)
    if shape.is_leaf:
        return ColoredTernaryTree(color)
    return ColoredTernaryTree(color, tuple(paint(c, colors) for c in shape.children))


def gen_colored_ternary(n: int, p: int | None = None) -> Iterator[ColoredTernaryTree]:
    """Weight-n colored ternary trees with p internal vertices, or every p ascending."""
    for q in range(n // 2 + 1) if p is None else (p,):
        if 2 * q > n:
            return
        for shape in gen_ternary_shapes(q):
            for composition in weak_compositions(n - 2 * q, 3 * q + 1):
                yield paint(shape, iter(composition))


def gen_forests(family: str, n: int, m: int) -> Iterator[tuple]:
    """Ordered m-tuples of trees of total weight n: weights outer, components inner."""
    assert family in FAMILIES
    component = gen_binary if family == BINARY else gen_colored_ternary

    def tuples(weights: tuple[int, ...]) -> Iterator[tuple]:
        if not weights:
            yield ()
            return
        for head in component(weights[0]):
            for rest in tuples(weights[1:]):
                yield (head,) + rest

    for weights in weak_compositions(n, m):
        yield from tuples(weights)


def to_dot(tree: BinaryTree | ColoredTernaryTree, index: int = 0) -> str:
    """One digraph per tree: circles for internal vertices, points for leaves."""
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
