"""Closed-form counting kernel: frozen small values, oracles, and invariants."""

from itertools import chain, islice

import pytest
from hypothesis import given, strategies as st

import oracle_identities as oracle

from fussforest import exact
from fussforest.exact import (
    ExactnessError,
    Identity,
    Side,
    binomial,
    by_parts_terms,
    colored_ternary_count,
    forest_catalan,
    identity_side,
    identity_sides,
    k_catalan,
)
from fussforest.trees import enumerate_colored_ternary

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]


def test_binomial_small_values():
    assert binomial(5, 2) == 10
    assert binomial(7, 0) == 1
    assert binomial(4, 7) == 0
    assert binomial(0, 0) == 1
    assert binomial(6, -1) == 0


@given(st.integers(min_value=1, max_value=120), st.integers(min_value=-3, max_value=123))
def test_binomial_pascal_recurrence(n, k):
    assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


@given(st.integers(min_value=0, max_value=120))
def test_binomial_row_sum(n):
    assert sum(binomial(n, k) for k in range(n + 1)) == 2 ** n


def test_k_catalan_values():
    assert k_catalan(0, 3) == 1
    assert k_catalan(4, 2) == 14
    assert k_catalan(4, 3) == 55
    assert [k_catalan(n, 2) for n in range(11)] == CATALAN


def test_k_catalan_matches_ternary_enumeration():
    # Ternary trees with p internal vertices = colored ones with color sum 0.
    for p in range(5):
        assert k_catalan(p, 3) == sum(1 for _ in enumerate_colored_ternary(2 * p, p))


def test_division_is_exact_across_the_sweep():
    for k in (2, 3, 5):
        for n in range(201):
            assert binomial(k * n + 1, n) % (k * n + 1) == 0
            k_catalan(n, k)  # raises ExactnessError on any remainder


def test_forest_catalan_values():
    assert forest_catalan(0, 3, 5) == 1
    assert forest_catalan(1, 3, 1) == 1
    assert forest_catalan(2, 2, 2) == 5
    assert forest_catalan(3, 2, 2) == 14


def test_forest_catalan_single_component_is_k_catalan():
    for k in (2, 3, 5):
        for n in range(20):
            assert forest_catalan(n, k, 1) == k_catalan(n, k)


def test_colored_ternary_count_values():
    assert colored_ternary_count(2, 0) == 1
    assert colored_ternary_count(2, 1) == 1
    assert colored_ternary_count(4, 1) == 10
    assert colored_ternary_count(3, 2) == 0  # 2p > n: empty family


def test_colored_counts_sum_to_catalan():
    for n in range(61):
        total = sum(colored_ternary_count(n, p) for p in range(n // 2 + 1))
        assert total == k_catalan(n, 2)


def test_ternary_identity_anchor():
    # n=4: terms 1 + 10 + 3 on the left, Catalan(4) on the right.
    assert identity_side(Identity.TERNARY, Side.LHS, 4) == 14
    assert identity_side(Identity.TERNARY, Side.RHS, 4) == 14


def test_ternary_forest_identity_anchor():
    assert identity_side(Identity.TERNARY_FOREST, Side.LHS, 2, 2) == 5
    assert identity_side(Identity.TERNARY_FOREST, Side.RHS, 2, 2) == 5
    assert identity_side(Identity.TERNARY_FOREST, Side.LHS, 0, 3) == 1


def test_quinary_identity_anchor():
    # n=4: left terms 1 + 1; right terms 14 - 15 + 3.
    assert identity_side(Identity.QUINARY, Side.LHS, 4) == 2
    assert identity_side(Identity.QUINARY, Side.RHS, 4) == 2


def test_forest_identity_at_m1_reduces_to_single_tree():
    # The library evaluates the single-tree identities as the m=1 case, so
    # the forest sides at m=1 are compared with the literal single-tree forms.
    for n in range(61):
        assert identity_side(Identity.TERNARY_FOREST, Side.LHS, n, 1) == oracle.ternary_lhs(n)
        assert identity_side(Identity.TERNARY_FOREST, Side.RHS, n, 1) == oracle.catalan(n)
        assert identity_side(Identity.QUINARY_FOREST, Side.LHS, n, 1) == oracle.quinary_lhs(n)
        assert identity_side(Identity.QUINARY_FOREST, Side.RHS, n, 1) == oracle.quinary_rhs(n)


# Each side's literal transcription in tests/oracle_identities.py.  The forest
# identities' right sides have none, so they are checked against the literal
# left side they equal.
ORACLE_SIDES = {
    (Identity.TERNARY, Side.LHS): lambda n, m: oracle.ternary_lhs(n),
    (Identity.TERNARY, Side.RHS): lambda n, m: oracle.catalan(n),
    (Identity.TERNARY_FOREST, Side.LHS): oracle.ternary_forest_lhs,
    (Identity.TERNARY_FOREST, Side.RHS): oracle.ternary_forest_lhs,
    (Identity.QUINARY_FOREST, Side.LHS): oracle.quinary_forest_lhs,
    (Identity.QUINARY_FOREST, Side.RHS): oracle.quinary_forest_lhs,
    (Identity.QUINARY, Side.LHS): lambda n, m: oracle.quinary_lhs(n),
    (Identity.QUINARY, Side.RHS): lambda n, m: oracle.quinary_rhs(n),
}


@pytest.mark.parametrize("identity", list(Identity), ids=lambda i: i.value)
@pytest.mark.parametrize("side", list(Side), ids=lambda s: s.value)
def test_identity_sides_match_the_literal_oracle(identity, side):
    ms = (1,) if identity in (Identity.TERNARY, Identity.QUINARY) else range(1, 9)
    expected = ORACLE_SIDES[(identity, side)]
    # The sums step from term to term by ratios; large n shows a wrong one too.
    for n in (*range(101), 499, 500):
        for m in ms:
            assert identity_side(identity, side, n, m) == expected(n, m), (n, m)


@pytest.mark.parametrize("identity", list(Identity), ids=lambda i: i.value)
@pytest.mark.parametrize("side", list(Side), ids=lambda s: s.value)
def test_a_sweep_over_n_equals_each_side_at_its_n(identity, side):
    # The sweep steps whole rows of terms in n; identity_side walks one row in p.
    ms = (1,) if identity in (Identity.TERNARY, Identity.QUINARY) else range(1, 9)
    for m in ms:
        sides = list(islice(identity_sides(identity, side, m), 501))
        for n in (*range(121), 499, 500):
            assert sides[n] == identity_side(identity, side, n, m), (n, m)


def test_a_sweep_checks_its_arguments_at_the_call():
    for identity, m in ((Identity.TERNARY, 2), (Identity.QUINARY, 3)):
        for side in Side:
            with pytest.raises(ValueError):
                identity_sides(identity, side, m)
    with pytest.raises(ValueError):
        identity_sides(Identity.TERNARY_FOREST, "lhs", 1)


def test_a_row_step_that_does_not_divide_raises():
    # 7 * 1 // 2 would be 3: the floor division alone returns a wrong number.
    assert exact._step_row([6, 8], [1, 3], range(3, 1, -1)) == [2, 12]
    with pytest.raises(ExactnessError):
        exact._step_row([6, 7], [1, 1], [3, 2])
    # A wrong ratio in n inside a sweep raises at the first row it touches.
    good = exact._SIDES[Identity.TERNARY_FOREST][0]
    wrong = good._replace(n_ratio=lambda n, m, size: (range(n + m, n + m + size),
                                                     range(n + 2, n + 2 - 2 * size, -2)))
    assert list(islice(exact._rows(good, 1), 3)) == [[1], [1], [1, 1]]
    with pytest.raises(ExactnessError):
        next(islice(exact._rows(wrong, 1), 1, None))


def test_a_p_step_that_does_not_divide_raises():
    # The by-parts ratio with its first denominator one larger: still a
    # finite ratio, but at n = 2 term 1 would be 1 * 6 // 7 = 0, with no error.
    good = exact._SIDES[Identity.TERNARY_FOREST][0]

    def larger_first(n, m, p):
        numerators, denominators = good.p_ratio(n, m, p)
        return numerators, chain([next(denominators) + 1], denominators)

    wrong = good._replace(p_ratio=larger_first)
    assert list(exact._terms(good, 2, 1)) == [1, 1]
    with pytest.raises(ExactnessError):
        list(exact._terms(wrong, 2, 1))


@pytest.mark.parametrize("k", [2, 3, 4, 5, 7])
def test_by_parts_terms_are_the_literal_terms(k):
    for n in range(40):
        for m in range(1, 6):
            terms = list(by_parts_terms(k, n, m))
            assert terms == [forest_catalan(p, k, m) * binomial(n + p + m - 1, n - (k - 1) * p)
                             for p in range(n // (k - 1) + 1)], (n, m)


@given(st.integers(min_value=0, max_value=40), st.integers(min_value=1, max_value=6))
def test_ternary_forest_identity_property(n, m):
    assert identity_side(Identity.TERNARY_FOREST, Side.LHS, n, m) == forest_catalan(n, 2, m)


def test_single_component_identities_reject_m():
    with pytest.raises(ValueError):
        identity_side(Identity.TERNARY, Side.LHS, 3, m=2)
    with pytest.raises(ValueError):
        identity_side(Identity.QUINARY, Side.RHS, 3, m=2)


def test_identity_side_validates_arguments():
    with pytest.raises(ValueError):
        identity_side(Identity.TERNARY_FOREST, "lhs", 1, 1)


def test_exactness_error_is_an_arithmetic_error():
    assert issubclass(ExactnessError, ArithmeticError)
