"""Truncated series engine: arithmetic, substitutions, coefficient cross-checks."""

import pytest
from hypothesis import given, settings, strategies as st

import oracle_series as oracle

from fussforest import exact, series, verify
from fussforest.exact import (colored_ternary_count, forest_catalan, identity_side, k_catalan,
                              Identity, Side)
from fussforest.series import (
    TruncatedSeries,
    colored_tree_series,
    forest_expansion_series,
    fuss_catalan_series,
)

S = TruncatedSeries

small_series = st.lists(st.integers(min_value=-9, max_value=9), min_size=5, max_size=5).map(S)
valuation_one = small_series.map(lambda s: TruncatedSeries((0,) + s.coeffs[1:]))


def test_basic_arithmetic():
    one_plus_x = S([1, 1, 0])
    one_minus_x = S([1, -1, 0])
    assert one_plus_x * one_minus_x == S([1, 0, -1])
    assert S([4, 7]) ** 0 == S([1, 0])
    assert S([1, 1, 0, 0]) ** 3 == S([1, 3, 3, 1])
    assert one_plus_x + 1 == S([2, 1, 0])
    assert 2 * one_plus_x == S([2, 2, 0])
    assert one_plus_x - one_plus_x == S([0, 0, 0])
    assert 1 - S([1, 2]) == S([0, -2])


def test_arithmetic_truncates_to_the_smaller_order():
    assert (S([1, 1, 1, 1]) + S([1, 1])).order == 1
    assert (S([0, 1, 2, 3]) * S([1, 1])) == S([0, 1])


def test_getitem():
    assert S([5, 6])[1] == 6


def test_x_is_zero_at_order_zero():
    # Mod x^1, x is the zero series.
    assert TruncatedSeries.x(0) == TruncatedSeries((0,))
    assert TruncatedSeries.x(2) == S([0, 1, 0])


@pytest.mark.parametrize("order", [-1, -3])
def test_constant_refuses_a_negative_order(order):
    assert TruncatedSeries.constant(5, 0) == TruncatedSeries((5,))
    with pytest.raises(ValueError):
        TruncatedSeries.constant(5, order)


def test_rejects_non_integer_coefficients():
    with pytest.raises(ValueError):
        TruncatedSeries((1.5, 2))
    with pytest.raises(ValueError):
        TruncatedSeries(())


def test_a_list_or_a_generator_is_kept_as_a_tuple():
    for coeffs in ([1, 2], (c for c in (1, 2))):
        s = TruncatedSeries(coeffs)
        assert (s.coeffs, s, hash(s)) == ((1, 2), S((1, 2)), hash(S((1, 2))))


def test_an_operand_neither_a_series_nor_an_int_is_a_type_error():
    s = S([1, 2])
    for operate in (lambda: s + 1.5, lambda: 1.5 + s, lambda: s - 1.5, lambda: s * "a",
                    lambda: s * 1.5, lambda: 1.5 * s):
        with pytest.raises(TypeError):
            operate()


def test_compose_basics():
    outer = S([1, 1, 0])  # 1 + y
    assert oracle.compose(outer, S([0, 0, 1])) == S([1, 0, 1])
    assert oracle.compose(S([7, 3, 9]), S([0, 0, 0])) == S([7, 0, 0])
    with pytest.raises(ValueError):
        oracle.compose(outer, S([1, 0, 0]))


def test_compose_ternary_substitution_by_hand():
    # C3 at x^2/(1-x)^3, truncated to x^3: 1 + x^2 + 3x^3
    inner = S([0, 0, 1, 3])
    composed = oracle.compose(fuss_catalan_series(3, 3), inner)
    assert composed == S([1, 0, 1, 3])
    assert TruncatedSeries((1,) * 4) * composed == S([1, 1, 2, 5])


@given(small_series, valuation_one, valuation_one)
def test_compose_is_associative(outer, mid, inner):
    compose = oracle.compose
    assert compose(compose(outer, mid), inner) == compose(outer, compose(mid, inner))


@given(small_series, small_series, small_series)
def test_mul_is_commutative_and_distributive(a, b, c):
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


big_coefficient = st.one_of(st.just(0), st.integers(min_value=-10**30, max_value=10**30))
sparse_series = st.lists(big_coefficient, min_size=1, max_size=12).map(S)


@settings(max_examples=300)
@given(sparse_series, sparse_series, st.integers(min_value=-10**30, max_value=10**30),
       st.integers(min_value=0, max_value=9))
def test_arithmetic_matches_the_loop_oracle(a, b, c, e):
    # Orders differ and many coefficients are 0, so truncation to the smaller
    # order and the oracle's zero skipping both run.
    n = min(a.order, b.order)
    assert a * b == oracle.product(a, b)
    assert a ** e == oracle.power(a, e)
    assert a + b == S([a[i] + b[i] for i in range(n + 1)])
    assert a - b == S([a[i] - b[i] for i in range(n + 1)])
    assert a * c == c * a == S([a[i] * c for i in range(a.order + 1)])
    assert a + c == c + a == S([a[0] + c] + [a[i] for i in range(1, a.order + 1)])
    assert [a ** m for m in range(1, e + 1)] == list(verify._powers(a, e))


def test_a_power_costs_one_product_fewer_than_its_exponent(monkeypatch):
    products = []
    real_mul = TruncatedSeries.__mul__

    def counted_mul(a, b):
        products.append(None)
        return real_mul(a, b)

    monkeypatch.setattr(TruncatedSeries, "__mul__", counted_mul)
    f = colored_tree_series(3, 16)
    for e in range(6):
        products.clear()
        assert f ** e == oracle.power(f, e)
        assert len(products) == max(e - 1, 0)


def test_fuss_catalan_series_values():
    assert fuss_catalan_series(2, 5) == S([1, 1, 2, 5, 14, 42])
    assert fuss_catalan_series(3, 4) == S([1, 1, 3, 12, 55])
    for k in (2, 3, 5, 7):
        assert fuss_catalan_series(k, 6)[0] == 1


def test_fuss_catalan_series_matches_closed_form():
    for k in (2, 3, 5):
        s = fuss_catalan_series(k, 24)
        for i in range(25):
            assert s[i] == k_catalan(i, k)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 7])
def test_fuss_catalan_series_matches_the_fixed_point_oracle(k):
    # A truncation of the series is a prefix of every longer one.
    expected = oracle.fuss_catalan_series(k, 48).coeffs
    for order in range(49):
        assert fuss_catalan_series(k, order).coeffs == expected[:order + 1], order


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_colored_tree_series_matches_the_compose_oracle(k):
    expected = oracle.colored_tree_series(k, 40).coeffs
    for order in range(41):
        assert colored_tree_series(k, order).coeffs == expected[:order + 1], order


def test_series_route_reaches_no_closed_form(monkeypatch):
    # The series are one witness and the closed forms the other: the series
    # kernels must run with every closed form unreachable.
    def closed_form(*args):
        raise AssertionError("the series route called a closed form")

    for owner in (exact, series):
        for name in ("k_catalan", "forest_catalan", "binomial"):
            if hasattr(owner, name):
                monkeypatch.setattr(owner, name, closed_form)
    for k in (2, 3, 5):
        assert fuss_catalan_series(k, 64)[64] > 0
        assert colored_tree_series(k, 64)[64] > 0


def test_fuss_catalan_series_satisfies_its_equation():
    for k in (2, 3, 5):
        s = fuss_catalan_series(k, 16)
        x = TruncatedSeries.x(16)
        assert s == x * s ** k + 1


def test_colored_ternary_series_small():
    assert colored_tree_series(3, 3) == S([1, 1, 2, 5])
    assert colored_tree_series(3, 0) == S([1])


def test_colored_ternary_series_is_catalan():
    assert colored_tree_series(3, 40) == fuss_catalan_series(2, 40)


def test_colored_tree_series_k3_equals_ternary():
    # [x^n] counts the colored ternary trees of weight n, over every p.
    g = colored_tree_series(3, 20)
    for n in range(21):
        assert g[n] == sum(colored_ternary_count(n, p) for p in range(n // 2 + 1))


def test_colored_tree_series_k5_frozen_prefix():
    # agrees with the closed-form sum of 5-ary forest terms at m=1
    series = colored_tree_series(5, 8)
    assert series == S([1, 1, 1, 1, 2, 7, 22, 57, 132])
    for n in range(9):
        assert series[n] == identity_side(Identity.QUINARY_FOREST, Side.LHS, n, 1)


def test_colored_tree_series_functional_equation_cleared_form():
    for k in (2, 3, 5):
        f = colored_tree_series(k, 32)
        x = TruncatedSeries.x(32)
        assert f - f ** k * x ** (k - 1) == x * f + 1


def test_power_coefficients_match_forest_counts():
    assert list((fuss_catalan_series(2, 10) ** 1).coeffs) == [k_catalan(i, 2) for i in range(11)]
    assert (fuss_catalan_series(3, 6) ** 2).coeffs[1] == 2
    for k in (2, 3, 5):
        for m in range(1, 65):
            coeffs = list((fuss_catalan_series(k, 20) ** m).coeffs)
            assert coeffs == [forest_catalan(p, k, m) for p in range(21)]


def test_forest_expansion_equals_series_power():
    g = colored_tree_series(3, 24)
    for m in (1, 2, 3, 4):
        assert forest_expansion_series(m, 24) == g ** m
