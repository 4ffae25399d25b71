"""Exact big-integer kernel: binomials, Fuss-Catalan counts, identity evaluators.

Every identity's left side is one by-parts sum over forests, and the two
quinary identities share one alternating right side; the single-tree
identities are evaluated as the m=1 case of the forest ones.  Their literal
single-tree transcriptions are kept in the test suite as an oracle.  Both
sums are hypergeometric in p and in n (Petkovsek-Wilf-Zeilberger, *A=B*).
One side at one n takes O(n) steps along p: one binomial, then each term from
the one before it by one big-by-small product and one checked exact division.
A sweep over n keeps the row of terms and steps it to n+1 by its ratios in n,
each term by one `_exact_div` call: the time is in the big-integer arithmetic.

Every quantity here is a plain Python int (arbitrary precision), so there is
no overflow and no rounding anywhere.  All divisions hidden inside the
Catalan-family formulas are checked: a nonzero remainder raises
:class:`ExactnessError`, which always indicates a bug in a formula
transcription, never bad user input.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum
from functools import lru_cache
from itertools import count, repeat
from math import perm
from operator import mul

from . import ExactnessError, _require_least

# Counts are plain nonnegative Python ints; the alias is documentation only.
Count = int


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
    if n < 0:  # compared here, the call only raising: a sweep to n = 300 makes 52,697 calls
        _require_least("binomial", ("n", n, 0))
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def k_catalan(n: int, k: int) -> Count:
    """Number of complete k-ary trees with n internal vertices.

    Computed as binom(k*n+1, n) / (k*n+1) with the division checked exact.
    """
    _require_least("k_catalan", ("n", n, 0), ("k", k, 2))
    return _exact_div(binomial(k * n + 1, n), k * n + 1)


def forest_catalan(p: int, k: int, m: int) -> Count:
    """Number of ordered forests of m complete k-ary trees with p internal vertices total.

    Computed as m * binom(k*p+m, p) / (k*p+m), division checked exact.
    """
    _require_least("forest_catalan", ("p", p, 0), ("k", k, 2), ("m", m, 1))
    return _exact_div(m * binomial(k * p + m, p), k * p + m)


def colored_ternary_count(n: int, p: int) -> Count:
    """Number of colored complete ternary trees with p internal vertices and color sum n-2p.

    A ternary tree with p internal vertices has 3p+1 vertices; distributing
    n-2p color units over them (repetition allowed) gives binom(n+p, n-2p)
    colorings per shape.  Returns 0 when 2p > n (empty family).
    """
    if n < 0 or p < 0:  # compared here, as in binomial: 22,801 calls a sweep to n = 300
        _require_least("colored_ternary_count", ("n", n, 0), ("p", p, 0))
    if 2 * p > n:
        return 0
    return _ternary_catalan(p) * binomial(n + p, n - 2 * p)


# A sweep over n asks for C3(p) once per (n, p), p <= n/2: at n <= 300, 22,801
# times for 151 values.  The cache holds a sweep's values to n = 2047.
@lru_cache(maxsize=1024)
def _ternary_catalan(p: int) -> Count:
    """k_catalan(p, 3), the shapes that colored_ternary_count paints."""
    return k_catalan(p, 3)


def _exact_steps(term: int, numerators, denominators):
    """Yield term * a / b, from each term the next, every division checked exact."""
    for a, b in zip(numerators, denominators):
        term = _exact_div(term * a, b)
        yield term


def _step_row(row: list, numerators, denominators) -> list:
    """Step each term of a row by its ratio, every division checked exact."""
    return list(map(_exact_div, map(mul, row, numerators), denominators))


# A sum of T(n, p) over p <= n // period, hypergeometric in p and in n: first(n, m)
# is T(n, 0), p_ratio(n, m, p) gives the numerators and denominators of T(n, q+1) /
# T(n, q) for q >= p, n_ratio(n, m, size) those of T(n+1, q) / T(n, q) for q < size,
# and value(sum of the terms, n, m) is the side.
_Sum = namedtuple("_Sum", "period first p_ratio n_ratio value")


def _terms(how: _Sum, n: int, m: int):
    term = how.first(n, m)
    yield term
    yield from _exact_steps(term, *how.p_ratio(n, m, 0))


def _rows(how: _Sum, m: int):
    """The rows of terms at n = 0, 1, 2, ..., each stepped from the one before it."""
    row, n = [how.first(0, m)], 0
    while True:
        yield row
        row = _step_row(row, *how.n_ratio(n, m, len(row)))
        n += 1
        if n // how.period == len(row):
            row.append(next(_exact_steps(row[-1], *how.p_ratio(n, m, len(row) - 1))))


def _by_parts(k: int) -> _Sum:
    """FCk(p, m) * binom(n+p+m-1, n-(k-1)p), that is m (n+p+m-1)! / (p! ((k-1)p+m)! (n-(k-1)p)!)."""
    j = k - 1

    def p_ratio(n, m, p):  # (n+p+m) (n-jp)_j / ((p+1) (jp+m+j)_j), in falling factorials
        return (map(mul, count(n + p + m), map(perm, range(n - j * p, j - 1, -j), repeat(j))),
                map(mul, count(p + 1), map(perm, count(j * p + m + j, j), repeat(j))))

    def n_ratio(n, m, size):  # (n+p+m) / (n+1-jp)
        return range(n + m, n + m + size), range(n + 1, n + 1 - j * size, -j)

    return _Sum(j, lambda n, m: binomial(n + m - 1, n), p_ratio, n_ratio, lambda total, n, m: total)


def by_parts_terms(k: int, n: int, m: int):
    """Yield FCk(p, m) * binom(n+p+m-1, n-(k-1)p) for p from 0 to floor(n/(k-1)).

    Term 0 is binom(n+m-1, n), and every later term comes from the one before
    it by one big-by-small product and one checked exact division.  Arguments
    are checked at the call.
    """
    _require_least("by_parts_terms", ("k", k, 2), ("n", n, 0), ("m", m, 1))
    return _terms(_by_parts(k), n, m)


def _alternating_p_ratio(n: int, m: int, p: int):
    # -(m+n+p)(n-2p)(n-2p-1) / ((p+1)(m+2n-2p-1)(m+2n-2p-2)): each term carries its sign.
    return (map(mul, count(-(m + n + p), -1), map(perm, range(n - 2 * p, 1, -2), repeat(2))),
            map(mul, count(p + 1), map(perm, count(m + 2 * n - 2 * p - 1, -2), repeat(2))))


def _alternating_n_ratio(n: int, m: int, size: int):
    # (m+n+p)(m+2n-2p+1)(m+2n-2p) / ((m+n)^2 (n-2p+1))
    return (map(mul, range(m + n, m + n + size), map(perm, range(m + 2 * n + 1, m, -2), repeat(2))),
            map(mul, range(n + 1, n + 1 - 2 * size, -2), repeat((m + n) ** 2)))


def _alternating_value(signed: int, n: int, m: int) -> int:
    value = _exact_div(m * signed, m + n)
    if value < 0:
        raise ExactnessError(f"alternating sum evaluated negative: {value} at n={n}, m={m}")
    return value


# sum_p (-1)^p binom(m+n+p-1, p) binom(m+2n-2p-1, n-2p), times m/(m+n).  The
# common factor is pulled out so the signed part stays in plain integers, then
# divided back exactly at the end.
_ALTERNATING = _Sum(2, lambda n, m: binomial(m + 2 * n - 1, n), _alternating_p_ratio,
                    _alternating_n_ratio, _alternating_value)


def _binary_forest_count(n: int, m: int) -> int:
    return forest_catalan(n, 2, m)


# Each identity's left side, a by-parts sum of arity k, and its right side.
_SIDES = {
    Identity.TERNARY: (_by_parts(3), _binary_forest_count),
    Identity.TERNARY_FOREST: (_by_parts(3), _binary_forest_count),
    Identity.QUINARY_FOREST: (_by_parts(5), _ALTERNATING),
    Identity.QUINARY: (_by_parts(5), _ALTERNATING),
}

# Identities stated only for a single component: m must be exactly 1.
SINGLE_COMPONENT = (Identity.TERNARY, Identity.QUINARY)


def _side(identity: Identity, side: Side, m: int, function: str):
    """One side's sum, or for FC2(n, m) its closed form, once m is checked for `function`."""
    _require_least(function, ("m", m, 1))
    if identity in SINGLE_COMPONENT and m != 1:
        raise ValueError(f"{identity.value} is a single-component identity; m must be 1, got m={m}")
    if not isinstance(side, Side):
        raise ValueError(f"identity sides require a Side, got {side!r}")
    return _SIDES[identity][side is Side.RHS]


def identity_side(identity: Identity, side: Side, n: int, m: int = 1) -> Count:
    """Evaluate one side of one identity exactly, in O(n) steps along one row of terms.

    The single-tree identities are evaluated as the m=1 case of their forest
    identities, and for them m must be 1.  Sums over p run to floor(n/2) or
    floor(n/4) as the formulas state.
    """
    _require_least("identity_side", ("n", n, 0))
    how = _side(identity, side, m, "identity_side")
    if not isinstance(how, _Sum):
        return how(n, m)
    return how.value(sum(_terms(how, n, m)), n, m)


def identity_sides(identity: Identity, side: Side, m: int = 1):
    """Iterate identity_side(identity, side, n, m) for n = 0, 1, 2, ...; a sum steps
    its whole row of terms from n to n+1 in C.  Arguments are checked at the call."""
    how = _side(identity, side, m, "identity_sides")
    if not isinstance(how, _Sum):
        return map(how, count(), repeat(m))
    return map(how.value, map(sum, _rows(how, m)), count(), repeat(m))
