"""Input generators and independent output oracles for the benchmark.

Nothing here imports fussforest: every expected output is computed by a
route that shares no code with the program under test.

Trees are handled as preorder codes, never as nested objects, so nothing
recurses and tree size is limited only by memory:

- a binary tree is its preorder word, a str over "1" (internal vertex) and
  "0" (leaf);
- a colored ternary tree is its preorder list of colors, with each internal
  vertex's color stored as ``-1 - color`` so one int carries both facts.

The bijection is the prefix-code substitution: each ternary vertex, in
preorder, becomes ``"10" * color`` followed by ``"11"`` (internal) or
``"0"`` (leaf).  Its inverse is greedy decoding over the complete prefix
code {0, 10, 11}.
"""

from __future__ import annotations

import math
import random

# A Mersenne prime far above every k*n+1 the number ladder reaches, so the
# factorials in count_mod are invertible modulo it.
PRIME = (1 << 61) - 1

_CHUNK = 18  # decimal digits per int() call in digits_mod; far below any str<->int limit


# ---------------------------------------------------------------------------
# Random inputs
# ---------------------------------------------------------------------------

def remy_word(n: int, rng: random.Random) -> str:
    """Preorder word of a uniform random binary tree with n internal vertices (Remy 1985)."""
    left = [-1]   # child arrays; -1 marks a leaf
    right = [-1]
    parent = [-1]
    root = 0
    for _ in range(n):
        target = rng.randrange(len(left))
        new_leaf = len(left)
        new_node = new_leaf + 1
        left.append(-1)
        right.append(-1)
        parent.append(new_node)
        left.append(-1)
        right.append(-1)
        parent.append(parent[target])
        above = parent[target]
        if above == -1:
            root = new_node
        elif left[above] == target:
            left[above] = new_node
        else:
            right[above] = new_node
        parent[target] = new_node
        if rng.random() < 0.5:
            left[new_node], right[new_node] = target, new_leaf
        else:
            left[new_node], right[new_node] = new_leaf, target
    out = []
    stack = [root]
    while stack:
        vertex = stack.pop()
        if left[vertex] == -1:
            out.append("0")
        else:
            out.append("1")
            stack.append(right[vertex])
            stack.append(left[vertex])
    return "".join(out)


def log_uniform_weights(total: int, low: int, high: int, rng: random.Random) -> list[int]:
    """Weights drawn log-uniformly from [low, high] that sum to exactly `total`.

    The last weight is cut to fit; if that would leave it below `low`, it is
    merged into the one before, so every weight stays >= low.
    """
    weights = []
    left_over = total
    while left_over > 0:
        w = min(int(math.exp(rng.uniform(math.log(low), math.log(high + 1)))), high, left_over)
        weights.append(w)
        left_over -= w
    if len(weights) > 1 and weights[-1] < low:
        weights[-2] += weights.pop()
    return weights


# ---------------------------------------------------------------------------
# The prefix code
# ---------------------------------------------------------------------------

def encode(colors: list[int]) -> str:
    """Binary preorder word of the image of a colored ternary preorder list."""
    parts = []
    for c in colors:
        parts.append("10" * (-1 - c) + "11" if c < 0 else "10" * c + "0")
    return "".join(parts)


def decode(word: str) -> list[int]:
    """Colored ternary preorder list whose image is the binary preorder word `word`."""
    colors = []
    pending = 0
    i = 0
    end = len(word)
    while i < end:
        if word[i] == "0":
            colors.append(pending)
            pending = 0
            i += 1
        elif word[i + 1] == "0":
            pending += 1
            i += 2
        else:
            colors.append(-1 - pending)
            pending = 0
            i += 2
    if pending:
        raise ValueError("word ends inside a color run")
    return colors


def weight(colors: list[int]) -> int:
    """Weight 2*internal + color sum of a colored ternary preorder list."""
    return sum(1 - c if c < 0 else c for c in colors)


# ---------------------------------------------------------------------------
# Canonical text, written without recursion
# ---------------------------------------------------------------------------

def binary_text(word: str) -> str:
    """Canonical text of a binary preorder word: L for a leaf, (left right) inside."""
    out = []
    pending = []  # per open vertex: children still to write
    for ch in word:
        if ch == "1":
            out.append("(")
            pending.append(2)
            continue
        out.append("L")
        while pending:
            pending[-1] -= 1
            if pending[-1]:
                out.append(" ")
                break
            pending.pop()
            out.append(")")
    return "".join(out)


def ternary_text(colors: list[int]) -> str:
    """Canonical text of a colored ternary preorder list: c for a leaf, (c: t1 t2 t3) inside."""
    out = []
    pending = []
    for c in colors:
        if c < 0:
            out.append(f"({-1 - c}: ")
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


# ---------------------------------------------------------------------------
# Exact counts modulo a prime, for checking printed big numbers
# ---------------------------------------------------------------------------

def count_mod(n: int, k: int, p: int = PRIME) -> int:
    """binom(k*n+1, n) / (k*n+1) modulo the prime p, for k*n+1 < p."""
    top = k * n + 1
    if top >= p:
        raise ValueError("k*n+1 must stay below the prime")
    numerator = 1
    denominator = top % p
    for i in range(n):
        numerator = numerator * (top - i) % p
        denominator = denominator * (i + 1) % p
    return numerator * pow(denominator, p - 2, p) % p


def digits_mod(digits: str, p: int = PRIME) -> int:
    """A decimal string modulo p, read in short chunks so no big int is ever built."""
    value = 0
    for start in range(0, len(digits), _CHUNK):
        chunk = digits[start:start + _CHUNK]
        value = (value * pow(10, len(chunk), p) + int(chunk)) % p
    return value
