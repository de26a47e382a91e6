"""Symmetric multiadditive maps: polarization, diagonals, recovery."""

import re
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from dercalc.exact import BudgetError, rational
from dercalc.multiadd import (
    MultiAddError,
    NotPolynomialError,
    PolyFunction,
    SymMultiMap,
    as_vector,
    binomial_check,
    delta,
    polarization_check,
    recover_components,
    trace,
)

frac = st.integers(-7, 7).map(Fraction)


def sorted_indices(arity, dim):
    base = st.tuples(*([st.integers(0, dim - 1)] * arity))
    return base.map(lambda t: tuple(sorted(t)))


@st.composite
def multimaps(draw, max_arity=3, max_dim=3):
    arity = draw(st.integers(1, max_arity))
    dim = draw(st.integers(1, max_dim))
    coeffs = draw(st.dictionaries(sorted_indices(arity, dim), frac, max_size=4))
    return SymMultiMap(arity, dim, coeffs)


def vectors(dim):
    return st.tuples(*([frac] * dim))


def test_as_vector_wraps_scalars():
    assert as_vector(3, 1) == (Fraction(3),)
    assert as_vector((1, 2), 2) == (Fraction(1), Fraction(2))
    with pytest.raises(MultiAddError):
        as_vector((1, 2), 3)


def test_coefficients_are_symmetrized():
    A = SymMultiMap(2, 2, {(1, 0): 5})
    assert A.coefficient((0, 1)) == 5
    assert A.coefficient((1, 0)) == 5
    assert A.apply([(1, 0), (0, 1)]) == 5
    assert A.apply([(0, 1), (1, 0)]) == 5


def test_conflicting_symmetric_entries_rejected():
    with pytest.raises(MultiAddError):
        SymMultiMap(2, 2, {(0, 1): 1, (1, 0): 2})


def test_zero_coefficients_dropped():
    A = SymMultiMap(2, 2, {(0, 0): 0, (0, 1): 3})
    assert A.coeffs == {(0, 1): Fraction(3)}
    assert A.serialize() == ["(0,1) 3"]


@given(multimaps(), st.data())
@settings(max_examples=80, deadline=None)
def test_additive_in_each_slot(A, data):
    args = [data.draw(vectors(A.dim)) for _ in range(A.arity)]
    extra = data.draw(vectors(A.dim))
    slot = data.draw(st.integers(0, A.arity - 1))
    bumped = list(args)
    bumped[slot] = tuple(a + b for a, b in zip(args[slot], extra))
    split = list(args)
    split[slot] = extra
    assert A.apply(bumped) == A.apply(args) + A.apply(split)


@given(multimaps(), st.data())
@settings(max_examples=80, deadline=None)
def test_symmetric_under_argument_swap(A, data):
    args = [data.draw(vectors(A.dim)) for _ in range(A.arity)]
    i = data.draw(st.integers(0, A.arity - 1))
    j = data.draw(st.integers(0, A.arity - 1))
    swapped = list(args)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    assert A.apply(args) == A.apply(swapped)


@given(multimaps(), st.data(), st.integers(-5, 5))
@settings(max_examples=80, deadline=None)
def test_trace_is_homogeneous(A, data, r):
    x = data.draw(vectors(A.dim))
    rx = tuple(Fraction(r) * c for c in x)
    assert trace(A, rx) == Fraction(r) ** A.arity * trace(A, x)


def test_delta_inclusion_exclusion():
    f = lambda v: v[0] ** 2
    assert delta(f, [(1,)], (3,)) == 16 - 9
    assert delta(f, [(1,), (1,)], (0,)) == 2
    assert delta(f, [(1,), (1,), (1,)], (0,)) == 0
    with pytest.raises(MultiAddError):
        delta(f, [], (0,))


@given(multimaps(), st.data())
@settings(max_examples=60, deadline=None)
def test_polarization_at_arity(A, data):
    ys = [data.draw(vectors(A.dim)) for _ in range(A.arity)]
    x = data.draw(vectors(A.dim))
    report = polarization_check(A, ys, x)
    assert report.ok
    assert report.lhs == factorial(A.arity) * A.apply(ys)


@given(multimaps(max_arity=2), st.data())
@settings(max_examples=60, deadline=None)
def test_polarization_above_arity_kills(A, data):
    ys = [data.draw(vectors(A.dim)) for _ in range(A.arity + 1)]
    x = data.draw(vectors(A.dim))
    report = polarization_check(A, ys, x)
    assert report.ok
    assert report.lhs == 0


def test_polarization_needs_enough_increments():
    A = SymMultiMap(2, 1, {(0, 0): 1})
    with pytest.raises(MultiAddError):
        polarization_check(A, [(1,)], (0,))


@given(multimaps(), st.data())
@settings(max_examples=60, deadline=None)
def test_binomial_expansion_of_diagonal(A, data):
    x = data.draw(vectors(A.dim))
    y = data.draw(vectors(A.dim))
    report = binomial_check(A, x, y)
    assert report.ok
    assert report.lhs == trace(A, tuple(a + b for a, b in zip(x, y)))


def test_poly_function_shape_checks():
    c = SymMultiMap.constant(1, 7)
    lin = SymMultiMap(1, 1, {(0,): 2})
    p = PolyFunction([c, lin])
    assert p(5) == 17
    assert p.degree == 1
    with pytest.raises(MultiAddError):
        PolyFunction([lin])
    with pytest.raises(MultiAddError):
        PolyFunction([])


def test_recover_univariate_cubic():
    p = lambda v: 2 * v[0] ** 3 - v[0] + 5
    pf = recover_components(p, 3, 1)
    assert pf.components[0].coefficient(()) == 5
    assert pf.components[1].coefficient((0,)) == -1
    assert pf.components[2].coeffs == {}
    assert pf.components[3].coefficient((0, 0, 0)) == 2
    assert pf(7) == p((Fraction(7),))


def test_recover_bivariate_quadratic():
    p = lambda v: v[0] * v[1] + 3 * v[0] + 1
    pf = recover_components(p, 2, 2)
    assert pf.components[2].coefficient((0, 1)) == Fraction(1, 2)
    assert pf.components[1].coefficient((0,)) == 3
    assert pf.components[0].coefficient(()) == 1


@pytest.mark.parametrize("n", [0, 2])
def test_recover_refuses_a_nonpositive_dimension_before_calling_p(n):
    calls = []
    with pytest.raises(MultiAddError, match="dimension must be positive"):
        recover_components(calls.append, n, 0)
    assert calls == []


@st.composite
def poly_functions(draw, max_degree=4, max_dim=2, min_dim=1, min_degree=0):
    degree = draw(st.integers(min_degree, max_degree))
    dim = draw(st.integers(min_dim, max_dim))
    comps = [SymMultiMap.constant(dim, draw(frac))]
    for k in range(1, degree + 1):
        coeffs = draw(st.dictionaries(sorted_indices(k, dim), frac, max_size=3))
        comps.append(SymMultiMap(k, dim, coeffs))
    return PolyFunction(comps)


@given(poly_functions())
@settings(max_examples=40, deadline=None)
def test_recover_round_trip(pf):
    got = recover_components(pf, pf.degree, pf.dim)
    assert got == pf


def chained_recovery(p, n, dim):
    """The recovery by one closure per degree, each re-evaluating p and the
    traces above it: (components, None) or (None, the NotPolynomialError
    point, expected and got)."""
    basis = [tuple(Fraction(int(j == i)) for j in range(dim)) for i in range(dim)]
    zero = (Fraction(0),) * dim
    rem, parts = p, []
    for k in range(n, 0, -1):
        A = SymMultiMap(k, dim, {
            idx: delta(rem, [basis[i] for i in idx], zero) / factorial(k)
            for idx in combinations_with_replacement(range(dim), k)})
        parts.append(A)
        rem = (lambda x, rem=rem, A=A: rational(rem(x)) - trace(A, x))
    pf = PolyFunction([SymMultiMap.constant(dim, rem(zero))] + parts[::-1])
    for coords in product(range(-2, 3), repeat=dim):
        point = tuple(map(Fraction, coords))
        if rational(p(point)) != pf(point):
            return None, (point, rational(p(point)), pf(point))
    return pf.components, None


@given(poly_functions(max_degree=3), st.integers(0, 4), frac, st.data())
@settings(max_examples=40, deadline=None)
def test_recover_matches_the_chained_recovery(pf, n, bump, data):
    # A degree bound below the degree, or a bump at one point, makes the
    # input fail the grid re-check.
    where = data.draw(st.tuples(*[st.integers(-2, 2)] * pf.dim))
    p = lambda v: pf(v) + (bump if v == where else 0)
    components, failure = chained_recovery(p, n, pf.dim)
    try:
        assert recover_components(p, n, pf.dim).components == components
    except NotPolynomialError as err:
        assert (err.point, err.expected, err.got) == failure


def table_recovery(p, n, dim):
    """The recovery by one table of p on the simplex, read top-down: each
    degree's tensor by the polarization formula at 0, its diagonal then
    subtracted from the table.  Same protocol as `chained_recovery`."""
    basis = [tuple(Fraction(int(j == i)) for j in range(dim)) for i in range(dim)]
    zero = (Fraction(0),) * dim
    table = {}

    def rem(point):
        if point not in table:
            table[point] = rational(p(point))
        return table[point]

    parts = []
    for k in range(n, 0, -1):
        A = SymMultiMap(k, dim, {
            idx: delta(rem, [basis[i] for i in idx], zero) / factorial(k)
            for idx in combinations_with_replacement(range(dim), k)})
        parts.append(A)
        for point in table:
            table[point] -= trace(A, point)
    pf = PolyFunction([SymMultiMap.constant(dim, rem(zero))] + parts[::-1])
    for coords in product(range(-2, 3), repeat=dim):
        point = tuple(map(Fraction, coords))
        if rational(p(point)) != pf(point):
            return None, (point, rational(p(point)), pf(point))
    return pf.components, None


@st.composite
def recovery_inputs(draw, dim, top):
    """A function of components up to degree top (the top ones may be
    zero), a degree bound and a bump at one grid point."""
    pf = draw(poly_functions(max_degree=top, max_dim=dim, min_dim=dim, min_degree=top))
    n = draw(st.integers(0, top))
    bump = draw(st.sampled_from([0, 0, 1, Fraction(-1, 3)]))
    where = draw(st.tuples(*[st.integers(-2, 2)] * dim))
    return pf, n, bump, where


@pytest.mark.parametrize("dim, top", [(1, 5), (2, 5), (3, 3)])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_recover_matches_the_table_recovery(dim, top, data):
    # A degree bound below the degree, or a bump at one point, makes the
    # input fail the grid re-check.
    pf, n, bump, where = data.draw(recovery_inputs(dim, top))
    p = lambda v: pf(v) + (bump if v == where else 0)
    components, failure = table_recovery(p, n, dim)
    try:
        assert recover_components(p, n, dim).components == components
    except NotPolynomialError as err:
        assert (err.point, err.expected, err.got) == failure


def recording(p):
    calls = []

    def black_box(v):
        calls.append(v)
        return p(v)

    return black_box, calls


@pytest.mark.parametrize("n, dim", [(0, 1), (3, 1), (7, 1), (5, 2), (3, 3), (4, 3), (2, 4)])
def test_recover_calls_p_once_per_point(n, dim):
    black_box, calls = recording(lambda v: sum(v) ** n / 2 - 3)
    recover_components(black_box, n, dim)
    simplex = {c for c in product(range(n + 1), repeat=dim) if sum(c) <= n}
    grid = set(product(range(-2, 3), repeat=dim))
    assert all(isinstance(c, Fraction) for v in calls for c in v)
    assert len(set(calls)) == len(calls)
    assert len(calls) == len(simplex | grid)


@pytest.mark.parametrize("n, dim", [(3, 11), (2000, 2), (3, 10 ** 9), (10 ** 9, 10 ** 9)])
def test_recover_refuses_work_over_the_budget_before_calling_p(monkeypatch, n, dim):
    monkeypatch.delenv("DERCALC_BUDGET", raising=False)
    black_box, calls = recording(lambda v: 0)
    with pytest.raises(BudgetError, match="over budget 10000000; raise it with DERCALC_BUDGET"):
        recover_components(black_box, n, dim)
    assert calls == []


def test_recover_budget_counts_evaluations_times_monomials(monkeypatch):
    # Degree 3 in dimension 3: 20 monomials at 20 + 125 points.
    p = lambda v: v[0] * v[1] * v[2]
    monkeypatch.setenv("DERCALC_BUDGET", "2900")
    assert recover_components(p, 3, 3).components[3].coeffs == {(0, 1, 2): Fraction(1, 6)}
    monkeypatch.setenv("DERCALC_BUDGET", "2899")
    black_box, calls = recording(p)
    with pytest.raises(BudgetError, match=re.escape(
            "recovery of degree 3 in dimension 3 evaluates 20 monomials at 20 + 5^3 points, "
            "over budget 2899; raise it with DERCALC_BUDGET")):
        recover_components(black_box, 3, 3)
    assert calls == []


def test_recover_a_high_degree_bound_in_one_variable():
    pf = recover_components(lambda v: 3 * v[0] ** 30 - v[0], 30, 1)
    assert [A.coeffs for A in pf.components if A.coeffs] == [
        {(0,): -1}, {(0,) * 30: 3}]


def test_recover_flags_non_polynomial():
    p = lambda v: abs(v[0])
    with pytest.raises(NotPolynomialError) as err:
        recover_components(p, 1, 1)
    assert err.value.point is not None


def test_recover_flags_degree_overflow():
    p = lambda v: v[0] ** 4
    with pytest.raises(NotPolynomialError):
        recover_components(p, 3, 1)
