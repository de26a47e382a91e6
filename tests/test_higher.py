"""Weighted higher-order systems: weight tables, factorization, extension."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from dercalc.exact import MultiPoly, poly_formal_derivative
from dercalc.higher import (
    CocycleConditionError,
    GammaError,
    GammaTable,
    HigherDerivation,
    gamma_check,
    gamma_factor,
    gamma_from_factor,
    hod_construct_next,
    hod_define,
    hod_eval,
    hod_leibniz_residual,
)


def tpoly(terms):
    return MultiPoly(("t",), {(e,): Fraction(c) for e, c in terms.items()})


def rem1_table():
    base = GammaTable.binomial(4)
    entries = {(i, j): base(i, j) for i in range(5) for j in range(5 - i)}
    entries[(2, 2)] = Fraction(2)
    return GammaTable(4, entries)


def test_binomial_table_passes():
    report = gamma_check(GammaTable.binomial(4))
    assert report.ok
    assert report.violations == ()
    assert report.first_triple() is None


def test_ones_table_passes():
    assert gamma_check(GammaTable.ones(5)).ok


def test_tampered_table_fails_with_witness():
    report = gamma_check(rem1_table())
    assert not report.ok
    assert report.first_triple() == (1, 1, 2)
    assert {(i, j, k) for i, j, k, _, _ in report.violations} == {(1, 1, 2), (2, 1, 1)}


def test_binomial_factorization():
    factor = gamma_factor(GammaTable.binomial(4))
    assert factor.values == tuple(Fraction(factorial(k)) for k in range(5))
    assert gamma_from_factor(factor) == GammaTable.binomial(4)


def test_ones_factorization():
    factor = gamma_factor(GammaTable.ones(4))
    assert factor.values == tuple(Fraction(1) for _ in range(5))


def test_factorization_rejects_broken_table():
    with pytest.raises(GammaError):
        gamma_factor(rem1_table())


@given(st.lists(st.integers(1, 9), min_size=2, max_size=5))
@settings(max_examples=60, deadline=None)
def test_factor_round_trip(tail):
    gamma = (Fraction(1), Fraction(1)) + tuple(Fraction(v) for v in tail)
    table = GammaTable(
        len(gamma) - 1,
        {
            (i, j): gamma[i + j] / (gamma[i] * gamma[j])
            for i in range(len(gamma))
            for j in range(len(gamma) - i)
        },
    )
    assert gamma_check(table).ok
    assert gamma_factor(table).values == gamma
    assert gamma_from_factor(gamma_factor(table)) == table


def test_binomial_system_reproduces_iterates():
    hd = hod_define(GammaTable.binomial(4), ("t",), {(1, "t"): tpoly({0: 1})})
    p = tpoly({5: 1})
    assert hod_eval(hd, 2, p) == tpoly({3: 20})
    for k in range(5):
        expected = p
        for _ in range(k):
            expected = poly_formal_derivative(expected, "t")
        assert hod_eval(hd, k, p) == expected


@given(st.integers(0, 8), st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_iterate_match_on_monomials(n, k):
    hd = hod_define(GammaTable.binomial(4), ("t",), {(1, "t"): tpoly({0: 1})})
    p = tpoly({n: 1})
    expected = p
    for _ in range(k):
        expected = poly_formal_derivative(expected, "t")
    assert hod_eval(hd, k, p) == expected


def test_two_variable_product_rule():
    vars2 = ("t", "u")
    one = MultiPoly.const(vars2, 1)
    u = MultiPoly.var(vars2, "u")
    hd = hod_define(
        GammaTable.binomial(3), vars2, {(1, "t"): one, (1, "u"): u}
    )
    t = MultiPoly.var(vars2, "t")
    assert hod_eval(hd, 1, t * u) == u + t * u
    # top values default to zero, so order 2 sees only the cross term
    assert hod_eval(hd, 2, t * u) == 2 * u


@given(
    st.dictionaries(st.tuples(st.integers(0, 3)), st.integers(-4, 4).map(Fraction), max_size=3),
    st.dictionaries(st.tuples(st.integers(0, 3)), st.integers(-4, 4).map(Fraction), max_size=3),
    st.integers(0, 3),
)
@settings(max_examples=50, deadline=None)
def test_leibniz_residual_zero_on_random_polys(pa, qa, k):
    hd = hod_define(
        GammaTable.binomial(3), ("t",), {(1, "t"): tpoly({2: 1}), (2, "t"): tpoly({1: 3})}
    )
    p, q = MultiPoly(("t",), pa), MultiPoly(("t",), qa)
    assert hod_leibniz_residual(hd, k, p, q).is_zero()


def recursive_monomial(hd, k, exps, memo):
    """d_k of a monomial by the recursion that `_monomial` unrolls, filling
    `memo` as it did: the reference for the entries and values it keeps."""
    if k == 0:
        return MultiPoly(hd.variables, {exps: Fraction(1)})
    if all(e == 0 for e in exps):
        return MultiPoly.const(hd.variables, 0)
    if (k, exps) in memo:
        return memo[(k, exps)]
    idx = next(i for i, e in enumerate(exps) if e > 0)
    rest = tuple(e - 1 if i == idx else e for i, e in enumerate(exps))
    total = MultiPoly.const(hd.variables, 0)
    for i in range(k + 1):
        weight = hd.gamma(i, k - i)
        left = hd._gen_value(i, idx)
        if weight == 0 or left.is_zero():
            continue
        right = recursive_monomial(hd, k - i, rest, memo)
        if not right.is_zero():
            total = total + weight * left * right
    memo[(k, exps)] = total
    return total


small_polys = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                              st.integers(-2, 2).map(Fraction), max_size=2)


@given(st.lists(st.integers(0, 2), min_size=2, max_size=2),
       st.lists(small_polys, min_size=6, max_size=6),
       st.lists(st.tuples(st.integers(0, 3), st.tuples(st.integers(0, 6), st.integers(0, 6))),
                min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_monomials_fill_the_memo_the_recursion_filled(weights, values, calls):
    # Weights may be 0 and generator values may vanish, which prunes peelings.
    entries = {(i, j): Fraction(1) for i in range(4) for j in range(4 - i) if i * j == 0}
    entries[(1, 1)] = Fraction(weights[0])
    entries[(1, 2)] = entries[(2, 1)] = Fraction(weights[1])
    variables = ("t", "u")
    gen = dict(zip([(k, v) for k in (1, 2, 3) for v in variables],
                   (MultiPoly(variables, terms) for terms in values)))
    hd = HigherDerivation(GammaTable(3, entries), variables, gen)
    memo = {}
    for k, exps in calls:
        assert hd._monomial(k, exps) == recursive_monomial(hd, k, exps, memo)
    assert hd._memo == memo


def test_define_rejects_broken_table():
    with pytest.raises(CocycleConditionError) as err:
        hod_define(rem1_table(), ("t",), {(1, "t"): tpoly({0: 1})})
    assert err.value.triple == (1, 1, 2)


def test_construct_next_zero_choice():
    hd = hod_define(GammaTable.binomial(1), ("t",), {(1, "t"): tpoly({0: 1})})
    ext = hod_construct_next(hd, GammaTable.binomial(2))
    assert hod_eval(ext, 2, tpoly({2: 1})) == tpoly({0: 2})


def test_construct_next_nonzero_choice():
    hd = hod_define(GammaTable.binomial(1), ("t",), {(1, "t"): tpoly({0: 1})})
    ext = hod_construct_next(hd, GammaTable.binomial(2), {"t": tpoly({1: 1})})
    assert str(hod_eval(ext, 2, tpoly({2: 1}))) == "2*t^2 + 2"
    # both extensions satisfy the order-2 product rule
    assert hod_leibniz_residual(ext, 2, tpoly({3: 1}), tpoly({2: 5})).is_zero()


def test_construct_next_validates_table():
    hd1 = hod_define(GammaTable.binomial(1), ("t",), {(1, "t"): tpoly({0: 1})})
    with pytest.raises(GammaError):
        hod_construct_next(hd1, GammaTable.binomial(3))
    hd2 = hod_define(GammaTable.binomial(2), ("t",), {(1, "t"): tpoly({0: 1})})
    with pytest.raises(GammaError):
        hod_construct_next(hd2, GammaTable.ones(3))


def test_construct_next_refuses_a_negative_grid_degree():
    hd = hod_define(GammaTable.binomial(2), ("t",), {(1, "t"): tpoly({0: 1})})
    with pytest.raises(GammaError, match="grid degree must be nonnegative, got -1"):
        hod_construct_next(hd, GammaTable.binomial(3), grid_degree=-1)
    assert hod_construct_next(hd, GammaTable.binomial(3), grid_degree=0).order == 3


def test_construct_next_rejects_broken_extension():
    hd = hod_define(GammaTable.binomial(3), ("t",), {(1, "t"): tpoly({0: 1})})
    with pytest.raises(CocycleConditionError) as err:
        hod_construct_next(hd, rem1_table())
    assert err.value.triple == (1, 1, 2)


def test_asymmetric_entries_rejected():
    with pytest.raises(GammaError):
        GammaTable(3, {(1, 1): 2, (1, 2): 3, (2, 1): 4})


def test_gamma_table_str_and_bounds():
    table = GammaTable.binomial(2)
    assert table(1, 1) == 2
    with pytest.raises(GammaError):
        table(2, 2)
    assert "2" in str(table)
