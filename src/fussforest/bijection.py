"""The weight-preserving bijection between colored ternary trees and binary trees.

`phi` is a substitution on preorder forms (see :mod:`fussforest.trees`).
Each colored ternary vertex, taken in preorder, becomes the code word

    "10" * color + "11"     for an internal vertex
    "10" * color + "0"      for a leaf

and the concatenation is the preorder word of the image, a binary tree.  A
vertex of color c with 3 or 0 children yields c + 2 or c code letters "1",
so a tree of weight n (2*internal + color sum) becomes a binary tree with n
internal vertices.  {0, 10, 11} is a complete prefix code, so `phi_inverse`
is greedy decoding: cut the word into code words from the left, and read
each back as one vertex.  Both directions are single passes over flat
sequences and have no depth limit.  `encode` takes a preorder tuple and
`decode` returns one.  A tree value holds its preorder form, so `phi` and
`phi_inverse` are `encode` and `decode` with the form unwrapped and the
image wrapped.  See Knuth, TAOCP 4A, section 7.2.1.6,
on preorder (Lukasiewicz) codes of trees.

In the paper's terms, the code word of a vertex of color k is the chain of
k left-leafed vertices that its color expands to (each "10"), then the
vertex itself, whose three subtrees become the left child's two and the
right child ("11").  Decoding contracts the maximal L- and R-paths of the
binary tree.  tests/oracle_paths.py keeps that L/R-path construction, as
recursive rewriting passes, and the tests check this module against it.
"""

from __future__ import annotations

import re

from .trees import BinaryTree, ColoredTernaryTree, binary_from_word, ternary_from_preorder

_CODE_WORD = re.compile(r"(?:10)*(?:0|11)")


def encode(preorder: tuple[int, ...]) -> str:
    """Binary preorder word of the image of a colored ternary preorder tuple."""
    return "".join(["10" * c + "0" if c >= 0 else "10" * ~c + "11" for c in preorder])


def decode(word: str) -> tuple[int, ...]:
    """Colored ternary preorder tuple whose image is the binary preorder word `word`.

    A code word of length l is "10" * (l // 2) + "0" for a leaf and
    "10" * (l // 2 - 1) + "11" for an internal vertex.
    """
    return tuple([len(w) >> 1 if w[-1] == "0" else -(len(w) >> 1) for w in _CODE_WORD.findall(word)])


def phi(tree: ColoredTernaryTree) -> BinaryTree:
    """Map a colored ternary tree of weight n to a binary tree with n internal vertices."""
    return binary_from_word(encode(tree.preorder))


def phi_inverse(tree: BinaryTree) -> ColoredTernaryTree:
    """Map a binary tree with n internal vertices to a colored ternary tree of weight n."""
    return ternary_from_preorder(decode(tree.word))
