"""The series route as it was first written, kept as an oracle for `series`.

The library computes s = 1 + x*s^k by J.C.P. Miller's power recurrence and
substitutes x^(k-1)/(1-x)^k by shifts and running sums.  These are the
direct transcriptions: the fixed-point iteration, about order^3 work, and
Horner composition with series products, O(order^3).  They use the
library's series arithmetic but nothing of its kernels.
"""

from __future__ import annotations

from math import comb

from fussforest.series import TruncatedSeries


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
