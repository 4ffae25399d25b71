"""The identities' sides as the paper states them, kept as an oracle for `exact`.

The library evaluates every left side with one by-parts sum over forests,
and the single-tree identities as the m=1 case of the forest ones.  These
are the literal per-identity transcriptions, in plain `math.comb`, so the
tests can check the shared evaluators against them.
"""

from __future__ import annotations

from math import comb


def _exact_div(numerator: int, divisor: int) -> int:
    q, r = divmod(numerator, divisor)
    assert r == 0, f"{numerator} is not divisible by {divisor}"
    return q


def catalan(n: int) -> int:
    """binom(2n, n) / (n+1)."""
    return _exact_div(comb(2 * n, n), n + 1)


def ternary_lhs(n: int) -> int:
    """sum_p C3(p) * binom(n+p, 3p), with C3(p) = binom(3p+1, p) / (3p+1)."""
    total = 0
    for p in range(n // 2 + 1):
        total += _exact_div(comb(3 * p + 1, p), 3 * p + 1) * comb(n + p, 3 * p)
    return total


def ternary_forest_lhs(n: int, m: int) -> int:
    """sum_p FC3(p, m) * binom(n+p+m-1, n-2p), with FC3(p, m) = m binom(3p+m, p) / (3p+m)."""
    total = 0
    for p in range(n // 2 + 1):
        coeff = _exact_div(m * comb(3 * p + m, p), 3 * p + m)
        total += coeff * comb(n + p + m - 1, n - 2 * p)
    return total


def quinary_forest_lhs(n: int, m: int) -> int:
    """sum_p FC5(p, m) * binom(n+p+m-1, n-4p), with FC5(p, m) = m binom(5p+m, p) / (5p+m)."""
    total = 0
    for p in range(n // 4 + 1):
        coeff = _exact_div(m * comb(5 * p + m, p), 5 * p + m)
        total += coeff * comb(n + p + m - 1, n - 4 * p)
    return total


def quinary_lhs(n: int) -> int:
    """sum_p C5(p) * binom(n+p, 5p), with C5(p) = binom(5p, p) / (4p+1)."""
    total = 0
    for p in range(n // 4 + 1):
        total += _exact_div(comb(5 * p, p), 4 * p + 1) * comb(n + p, 5 * p)
    return total


def quinary_rhs(n: int) -> int:
    """sum_p (-1)^p binom(n+p, n) binom(2n-2p, n) / (n+1)."""
    signed = 0
    for p in range(n // 2 + 1):
        term = comb(n + p, n) * comb(2 * n - 2 * p, n)
        signed += -term if p % 2 else term
    return _exact_div(signed, n + 1)
