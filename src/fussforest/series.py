"""Truncated formal power series over exact integers.

Everything is computed mod x^(order+1) with plain int coefficients; the
counting series used here all have integer coefficients, and dividing by
(1-x)^j is j running sums, so no rational arithmetic is ever needed.
This module only computes; every comparison of a series with its
functional equation or with a closed form lives in `verify`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, repeat
from operator import add, mul, sub

from . import _require_least
# identity_side goes unused here; perfbench/spans.py wraps it under this name.
from .exact import _exact_div, forest_catalan, identity_side  # noqa: F401


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients a_0..a_N of a series mod x^(N+1); equality is coefficientwise."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.coeffs, tuple):  # a list or generator, kept as a tuple
            object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if not self.coeffs:
            raise ValueError("a truncated series needs at least the constant coefficient")
        for c in self.coeffs:
            if not isinstance(c, int):
                raise ValueError(f"coefficients must be ints, got {type(c).__name__}")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i]

    @classmethod
    def constant(cls, value: int, order: int) -> TruncatedSeries:
        _require_least("TruncatedSeries.constant", ("order", order, 0))
        return cls((value, *(0,) * order))

    @classmethod
    def x(cls, order: int) -> TruncatedSeries:
        _require_least("TruncatedSeries.x", ("order", order, 0))
        return cls((0, 1, *(0,) * (order - 1))[:order + 1])  # order 0: (0,)

    def _termwise(self, op, other) -> TruncatedSeries:
        """op on each pair of coefficients, to the smaller order.  An int is the
        constant of this order; any other operand is NotImplemented, so that
        Python raises TypeError."""
        if isinstance(other, int):
            other = TruncatedSeries.constant(other, self.order)
        elif not isinstance(other, TruncatedSeries):
            return NotImplemented
        return TruncatedSeries(tuple(map(op, self.coeffs, other.coeffs)))

    def __add__(self, other) -> TruncatedSeries:
        return self._termwise(add, other)

    __radd__ = __add__

    def __sub__(self, other) -> TruncatedSeries:
        return self._termwise(sub, other)

    def __rsub__(self, other) -> TruncatedSeries:
        return self._termwise(lambda a, b: b - a, other)

    def __mul__(self, other) -> TruncatedSeries:
        """The Cauchy product, to the smaller order; an int scales every coefficient."""
        if isinstance(other, int):
            return TruncatedSeries(tuple(c * other for c in self.coeffs))
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        return TruncatedSeries(tuple(sum(map(mul, a[:i + 1], b[i::-1]))
                                     for i in range(min(len(a), len(b)))))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> TruncatedSeries:
        """The running product self * self * ..., as `verify` takes its powers:
        exponent - 1 products for exponent >= 1, and the constant 1 for 0."""
        _require_least("TruncatedSeries.__pow__", ("exponent", exponent, 0))
        if exponent == 0:
            return TruncatedSeries.constant(1, self.order)
        return reduce(mul, repeat(self, exponent - 1), self)


def _over_one_minus_x(coeffs, j: int) -> list[int]:
    """The coefficients divided by (1-x)^j: j running sums, each one factor 1/(1-x)."""
    for _ in range(j):
        coeffs = accumulate(coeffs)
    return list(coeffs)


def fuss_catalan_series(k: int, order: int) -> TruncatedSeries:
    """The series s with constant term 1 satisfying s = 1 + x*s^k, coefficientwise.

    With P = s^k the equation reads s_n = P_(n-1), and J.C.P. Miller's power
    recurrence (Knuth, TAOCP 2 section 4.7), which follows from s*P' = k*s'*P,
    gives n*P_n = sum_(i=1..n) ((k+1)i - n) s_i P_(n-i).  Each coefficient
    costs O(n) products and one checked exact division by n, O(order^2) in
    all.  Coefficient i equals k_catalan(i, k), which is never called here.
    """
    _require_least("fuss_catalan_series", ("k", k, 2), ("order", order, 0))
    s, power = [1], [1]
    for n in range(1, order + 1):
        s.append(power[n - 1])
        if n < order:
            power.append(_exact_div(
                sum(((k + 1) * i - n) * s[i] * power[n - i] for i in range(1, n + 1)), n))
    return TruncatedSeries(tuple(s))


def colored_tree_series(k: int, order: int) -> TruncatedSeries:
    """Ordinary generating series of colored complete k-ary trees by weight.

    Weight counts (k-1) per internal vertex plus the color sum, so the series
    is C_k(x^(k-1)/(1-x)^k) / (1-x) where C_k solves s = 1 + x*s^k.  The
    substitution runs Horner over C_k's coefficients; multiplying by the
    inner series is a shift by k-1 followed by k running sums (each one a
    factor 1/(1-x)), and one more running sum applies the final 1/(1-x).  That
    is O(k * order^2) additions, with no multiplications and no binomials.
    """
    _require_least("colored_tree_series", ("k", k, 2), ("order", order, 0))
    # Coefficient p of C_k first shows at x^((k-1)p), so later ones are cut off.
    outer = fuss_catalan_series(k, order // (k - 1))
    acc = [0] * (order + 1)
    for a in reversed(outer.coeffs):
        acc = _over_one_minus_x(([0] * (k - 1) + acc)[:order + 1], k)
        acc[0] += a
    return TruncatedSeries(tuple(_over_one_minus_x(acc, 1)))


def forest_expansion_series(m: int, order: int) -> TruncatedSeries:
    """Sum over p of forest_catalan(p,3,m) * x^(2p) / (1-x)^(3p+m).

    Expanding the m-th power of the colored ternary series this way is what
    turns the forest counts into the ternary-forest identity; the result must
    equal colored_tree_series(3, order) ** m.  Each power 1/(1-x)^(3p+m) is
    the one before it after three more running sums.
    """
    _require_least("forest_expansion_series", ("m", m, 1), ("order", order, 0))
    power = _over_one_minus_x([1] + [0] * order, m)
    total = [0] * (order + 1)
    for p in range(order // 2 + 1):
        count = forest_catalan(p, 3, m)
        total[2 * p:] = map(add, total[2 * p:], (count * c for c in power))
        power = _over_one_minus_x(power, 3)
    return TruncatedSeries(tuple(total))
