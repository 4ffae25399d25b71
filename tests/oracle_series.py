"""The series route as it was first written, kept as an oracle for `series`.

The library computes s = 1 + x*s^k by J.C.P. Miller's power recurrence and
substitutes x^(k-1)/(1-x)^k by shifts and running sums.  These are the
direct transcriptions: the fixed-point iteration, about order^3 work, and
Horner composition with series products, O(order^3).  They use the
library's series arithmetic but nothing of its kernels.

The library multiplies two series by one Cauchy sum per coefficient and
takes a power as a running product.  `product` and `power` are the
arithmetic it replaced: a double loop that skips zero coefficients, and
square-and-multiply over it.
"""

from __future__ import annotations

from math import comb

from fussforest.series import TruncatedSeries


def product(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """a * b to the smaller order, one term per pair of nonzero coefficients."""
    n = min(a.order, b.order)
    out = [0] * (n + 1)
    for i, x in enumerate(a.coeffs[:n + 1]):
        if x == 0:
            continue
        for j in range(n + 1 - i):
            y = b.coeffs[j]
            if y:
                out[i + j] += x * y
    return TruncatedSeries(tuple(out))


def power(s: TruncatedSeries, e: int) -> TruncatedSeries:
    """s ** e by square-and-multiply over `product`."""
    if e < 0:
        raise ValueError("only nonnegative powers are defined")
    result = TruncatedSeries.constant(1, s.order)
    while e:
        if e & 1:
            result = product(result, s)
        e >>= 1
        if e:
            s = product(s, s)
    return result


def compose(outer: TruncatedSeries, inner: TruncatedSeries) -> TruncatedSeries:
    """Substitute `inner` (constant term must be 0) into `outer`, by Horner."""
    if inner.coeffs[0] != 0:
        raise ValueError("composition needs an inner series with zero constant term")
    n = min(outer.order, inner.order)
    inner = TruncatedSeries(inner.coeffs[:n + 1])
    result = TruncatedSeries.constant(outer.coeffs[n], n)
    for a in reversed(outer.coeffs[:n]):
        result = result * inner + a
    return result


def fuss_catalan_series(k: int, order: int) -> TruncatedSeries:
    """Fixed-point iteration from s = 1; each pass freezes one more coefficient."""
    if order == 0:
        return TruncatedSeries.constant(1, 0)
    x = TruncatedSeries.x(order)
    s = TruncatedSeries.constant(1, order)
    for _ in range(order + 1):
        s = x * s ** k + 1
    return s


def colored_tree_series(k: int, order: int) -> TruncatedSeries:
    """C_k(x^(k-1)/(1-x)^k) / (1-x), by compose and products with binomial series."""
    inner = TruncatedSeries(tuple(comb(i, k - 1) for i in range(order + 1)))
    geometric = TruncatedSeries((1,) * (order + 1))
    return geometric * compose(fuss_catalan_series(k, order), inner)
