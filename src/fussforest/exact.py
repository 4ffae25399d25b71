"""Exact big-integer kernel: binomials, Fuss-Catalan counts, identity evaluators.

Every identity's left side is one by-parts sum over forests, and the two
quinary identities share one alternating right side; the single-tree
identities are evaluated as the m=1 case of the forest ones.  Their literal
single-tree transcriptions are kept in the test suite as an oracle.  Both
sums are hypergeometric (Petkovsek-Wilf-Zeilberger, *A=B*): each computes
its first term as one binomial and every later term from the one before it,
by one big-by-small product and one checked exact division, so a sum over
n/2 terms costs O(n) such steps instead of two binomials per term.

Every quantity here is a plain Python int (arbitrary precision), so there is
no overflow and no rounding anywhere.  All divisions hidden inside the
Catalan-family formulas are checked: a nonzero remainder raises
:class:`ExactnessError`, which always indicates a bug in a formula
transcription, never bad user input.
"""

from __future__ import annotations

import math
from enum import Enum

# Counts are plain nonnegative Python ints; the alias is documentation only.
Count = int


class ExactnessError(ArithmeticError):
    """An internal division left a remainder, or an alternating sum went negative."""


class Identity(Enum):
    """The four verified identities, named by the tree family on their left side.

    TERNARY         sum_p C3(p) * binom(n+p, 3p)  ==  Catalan(n),
                        the m=1 case of TERNARY_FOREST
    TERNARY_FOREST  sum_p FC3(p,m) * binom(n+p+m-1, n-2p)  ==  FC2(n,m)
    QUINARY_FOREST  sum_p FC5(p,m) * binom(n+p+m-1, n-4p)
                        ==  sum_p (-1)^p (m/(m+n)) binom(m+n+p-1, p) binom(m+2n-2p-1, n-2p)
    QUINARY         the m=1 case of QUINARY_FOREST

    where C3(p) is the ternary Catalan number, FCk(p,m) the k-ary forest count
    (see :func:`k_catalan`, :func:`forest_catalan`).
    """

    TERNARY = "ternary"
    TERNARY_FOREST = "ternary_forest"
    QUINARY_FOREST = "quinary_forest"
    QUINARY = "quinary"


class Side(Enum):
    LHS = "lhs"
    RHS = "rhs"


def _exact_div(numerator: int, divisor: int) -> int:
    q, r = divmod(numerator, divisor)
    if r != 0:
        raise ExactnessError(f"{numerator} is not divisible by {divisor} (remainder {r})")
    return q


def binomial(n: int, k: int) -> Count:
    """n choose k, total in k: returns 0 for k < 0 or k > n.  Requires n >= 0.

    Totality means identity sums can run p over a safe over-approximation of
    their support without boundary special cases.
    """
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def k_catalan(n: int, k: int) -> Count:
    """Number of complete k-ary trees with n internal vertices.

    Computed as binom(k*n+1, n) / (k*n+1) with the division checked exact.
    """
    if n < 0:
        raise ValueError(f"k_catalan requires n >= 0, got n={n}")
    if k < 2:
        raise ValueError(f"k_catalan requires k >= 2, got k={k}")
    return _exact_div(binomial(k * n + 1, n), k * n + 1)


def forest_catalan(p: int, k: int, m: int) -> Count:
    """Number of ordered forests of m complete k-ary trees with p internal vertices total.

    Computed as m * binom(k*p+m, p) / (k*p+m), division checked exact.
    """
    if p < 0:
        raise ValueError(f"forest_catalan requires p >= 0, got p={p}")
    if k < 2:
        raise ValueError(f"forest_catalan requires k >= 2, got k={k}")
    if m < 1:
        raise ValueError(f"forest_catalan requires m >= 1, got m={m}")
    return _exact_div(m * binomial(k * p + m, p), k * p + m)


def colored_ternary_count(n: int, p: int) -> Count:
    """Number of colored complete ternary trees with p internal vertices and color sum n-2p.

    A ternary tree with p internal vertices has 3p+1 vertices; distributing
    n-2p color units over them (repetition allowed) gives binom(n+p, n-2p)
    colorings per shape.  Returns 0 when 2p > n (empty family).
    """
    if n < 0 or p < 0:
        raise ValueError(f"colored_ternary_count requires n, p >= 0, got n={n}, p={p}")
    if 2 * p > n:
        return 0
    return k_catalan(p, 3) * binomial(n + p, n - 2 * p)


def by_parts_terms(k: int, n: int, m: int):
    """Yield FCk(p, m) * binom(n+p+m-1, n-(k-1)p) for p from 0 to floor(n/(k-1)).

    The terms of the by-parts sum, each computed from the one before it.
    Term p is m (n+p+m-1)! / (p! ((k-1)p+m)! (n-(k-1)p)!), so term 0 is
    binom(n+m-1, n) and the ratio of term p+1 to term p is

        (n+p+m) * prod_{j<k-1} (n-(k-1)p-j)  /  ((p+1) * prod_{j=1..k-1} ((k-1)p+m+j)).

    Each step is one big-by-small product and one checked exact division.
    """
    term = binomial(n + m - 1, n)
    yield term
    for p in range(n // (k - 1)):
        rest, parts = n - (k - 1) * p, (k - 1) * p + m
        numerator, denominator = n + p + m, p + 1
        for j in range(k - 1):
            numerator *= rest - j
            denominator *= parts + j + 1
        term = _exact_div(term * numerator, denominator)
        yield term


def _forest_by_parts(k: int, n: int, m: int) -> int:
    """The left side of every identity: the sum of :func:`by_parts_terms`."""
    return sum(by_parts_terms(k, n, m))


def _binary_forest_count(n: int, m: int) -> int:
    return forest_catalan(n, 2, m)


def _quinary_forest_rhs(n: int, m: int) -> int:
    """sum_p (-1)^p binom(m+n+p-1, p) binom(m+2n-2p-1, n-2p), times m/(m+n).

    The common factor m/(m+n) is pulled out so the signed part stays in
    plain integers, then divided back exactly at the end.  Term 0 is
    binom(m+2n-1, n), and the ratio of term p+1 to term p is
    (m+n+p)(n-2p)(n-2p-1) / ((p+1)(m+2n-2p-1)(m+2n-2p-2)).
    """
    term = binomial(m + 2 * n - 1, n)
    signed = term
    for p in range(n // 2):
        rest = m + 2 * n - 2 * p
        term = _exact_div(term * ((m + n + p) * (n - 2 * p) * (n - 2 * p - 1)),
                          (p + 1) * (rest - 1) * (rest - 2))
        signed += term if p % 2 else -term
    value = _exact_div(m * signed, m + n)
    if value < 0:
        raise ExactnessError(f"alternating sum evaluated negative: {value} at n={n}, m={m}")
    return value


# Each identity's arity k, whose by-parts sum is its left side, and its right side.
_EVALUATORS = {
    Identity.TERNARY: (3, _binary_forest_count),
    Identity.TERNARY_FOREST: (3, _binary_forest_count),
    Identity.QUINARY_FOREST: (5, _quinary_forest_rhs),
    Identity.QUINARY: (5, _quinary_forest_rhs),
}

# Identities stated only for a single component: m must be exactly 1.
SINGLE_COMPONENT = (Identity.TERNARY, Identity.QUINARY)


def identity_side(identity: Identity, side: Side, n: int, m: int = 1) -> Count:
    """Evaluate one side of one identity exactly.

    The single-tree identities are evaluated as the m=1 case of their forest
    identities, and for them m must be 1.  Sums over p run to floor(n/2) or
    floor(n/4) as the formulas state.
    """
    if n < 0:
        raise ValueError(f"identity_side requires n >= 0, got n={n}")
    if m < 1:
        raise ValueError(f"identity_side requires m >= 1, got m={m}")
    if identity in SINGLE_COMPONENT and m != 1:
        raise ValueError(f"{identity.value} is a single-component identity; m must be 1, got m={m}")
    k, rhs = _EVALUATORS[identity]
    if side is Side.RHS:
        return rhs(n, m)
    if side is not Side.LHS:
        raise ValueError(f"identity_side requires a Side, got {side!r}")
    return _forest_by_parts(k, n, m)
