"""Exact arithmetic layer: polynomials, their gcds, carriers."""

import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from dercalc.exact import (
    Inadmissible,
    IntegerWindow,
    MultiPoly,
    NotDivisibleError,
    PolyRing,
    QQ,
    _pmul,
    dense_to_multipoly,
    gf,
    poly_exquo,
    poly_formal_derivative,
    poly_gcd,
    poly_lcm,
    rational,
    zmod,
)
from dercalc.towers import element_eval, tower_new

VARS = ("t", "u")


def mono(exps, coeff=1):
    return MultiPoly(VARS, {tuple(exps): Fraction(coeff)})


coeffs = st.integers(-9, 9).map(Fraction)
exponents = st.tuples(st.integers(0, 4), st.integers(0, 3))


@st.composite
def polys(draw, max_terms=5):
    terms = draw(st.dictionaries(exponents, coeffs, max_size=max_terms))
    return MultiPoly(VARS, terms)


@st.composite
def nonzero_polys(draw, max_terms=5):
    p = draw(polys(max_terms=max_terms))
    if p.is_zero():
        p = p + draw(st.integers(1, 5))
    return p


points = st.fixed_dictionaries(
    {"t": st.integers(-6, 6).map(Fraction), "u": st.integers(-6, 6).map(Fraction)}
)


def test_rational_coercions():
    assert rational(3) == Fraction(3)
    assert rational("3/4") == Fraction(3, 4)
    assert rational(Fraction(-2, 6)) == Fraction(-1, 3)
    with pytest.raises(Exception):
        rational(0.5)


def test_zero_terms_dropped():
    p = MultiPoly(VARS, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
    assert p.sorted_terms() == [((0, 1), Fraction(2))]
    assert str(p) == "2*u"


@given(polys(), polys())
def test_add_commutes(p, q):
    assert p + q == q + p


@given(polys(), polys(), polys())
def test_mul_distributes(p, q, r):
    assert p * (q + r) == p * q + p * r


@given(polys(), polys(), polys())
def test_mul_associates(p, q, r):
    assert (p * q) * r == p * (q * r)


@given(polys(), polys(), points)
def test_substitute_is_ring_hom(p, q, pt):
    assert (p * q).substitute(pt) == p.substitute(pt) * q.substitute(pt)
    assert (p + q).substitute(pt) == p.substitute(pt) + q.substitute(pt)


@given(polys(), polys())
def test_derivative_product_rule(p, q):
    dp = poly_formal_derivative(p, "t")
    dq = poly_formal_derivative(q, "t")
    assert poly_formal_derivative(p * q, "t") == dp * q + p * dq


@given(polys(), st.integers(0, 3))
def test_pow_matches_repeated_mul(p, k):
    expected = MultiPoly.const(VARS, 1)
    for _ in range(k):
        expected = expected * p
    assert p**k == expected


def test_pow_skips_the_squaring_after_the_last_bit():
    # 5 = 101 in binary: two products into the result and two squarings.
    p = MultiPoly(VARS, {(1, 0): Fraction(2), (0, 1): Fraction(3)})
    with mock.patch.object(MultiPoly, "__mul__", autospec=True,
                           side_effect=MultiPoly.__mul__) as mul:
        power = p ** 5
    assert mul.call_count == 4
    assert power == p * p * p * p * p


# -- gcds in Q[t][u] ---------------------------------------------------------
#
# A MultiPoly over (t, u) is the element of Q[t][u] nesting coefficient
# tuples: u outermost, Fractions innermost.

R = PolyRing(PolyRing(QQ))


def dense(p: MultiPoly) -> tuple:
    rows = {}
    for (i, j), c in p.terms.items():
        rows.setdefault(j, {})[i] = c
    out = []
    for j in range(max(rows, default=-1) + 1):
        row = rows.get(j, {})
        out.append(tuple(row.get(i, Fraction(0)) for i in range(max(row, default=-1) + 1)))
    return tuple(out)


def multipoly(p: tuple) -> MultiPoly:
    return dense_to_multipoly(VARS, p)


def rational_multiple(p: MultiPoly, q: MultiPoly) -> bool:
    """p = c*q for a nonzero rational c."""
    ratios = {p.coefficient(e) / c for e, c in q.terms.items()}
    return set(p.terms) == set(q.terms) and len(ratios) == 1 and 0 not in ratios


def test_dense_round_trip():
    p = mono((2, 1), 3) + mono((0, 0), -1) + mono((1, 3))
    assert multipoly(dense(p)) == p
    assert dense(MultiPoly(VARS, {})) == ()


@given(nonzero_polys(2), nonzero_polys(2), nonzero_polys(2))
@settings(max_examples=40, deadline=None)
def test_gcd_divides_both(p, q, g):
    a, b = dense(p * g), dense(q * g)
    h = poly_gcd(R, a, b)
    for prod in (a, b):
        assert _pmul(R.below, poly_exquo(R, prod, h), h) == prod
    poly_exquo(R, h, dense(g))


@given(nonzero_polys(3), nonzero_polys(3))
@settings(max_examples=40, deadline=None)
def test_gcd_times_lcm_is_the_product(p, q):
    a, b = dense(p), dense(q)
    product = _pmul(R.below, poly_gcd(R, a, b), poly_lcm(R, a, b))
    assert rational_multiple(multipoly(product), p * q)


@given(nonzero_polys(), nonzero_polys())
@settings(max_examples=60, deadline=None)
def test_gcd_leading_coefficient_positive(p, q):
    h = poly_gcd(R, dense(p), dense(q))
    assert h[-1][-1] > 0


@given(nonzero_polys())
@settings(max_examples=60, deadline=None)
def test_gcd_with_self_is_sign_normalized(p):
    assert multipoly(poly_gcd(R, dense(p), dense(p))) in (p, -p)


def test_gcd_coprime_is_one():
    t, u = mono((1, 0)), mono((0, 1))
    assert poly_gcd(R, dense(t + 1), dense(u + 2)) == R.one


def test_divexact_rejects_inexact():
    t, u = mono((1, 0)), mono((0, 1))
    with pytest.raises(NotDivisibleError):
        poly_exquo(R, dense(t + 1), dense(t))
    with pytest.raises(NotDivisibleError):
        poly_exquo(R, dense(u * t + 1), dense(u))
    assert poly_exquo(R, dense((t + u) * (t - 1)), dense(t - 1)) == dense(t + u)


# -- printed normal form -------------------------------------------------------


def test_ratfunc_canonical_form():
    qx = tower_new().adjoin_transcendental("x")
    r = element_eval(qx, "(2*x*x)/(4*x)")
    assert str(r) == "x/2"
    rf = r.as_ratfunc()
    assert (rf.num, rf.den) == (MultiPoly.var(("x",), "x"), MultiPoly.const(("x",), 2))


def test_ratfunc_denominator_sign_normalized():
    qx = tower_new().adjoin_transcendental("x")
    assert str(element_eval(qx, "1/(-x)")) == "-1/x"


@given(polys(max_terms=3), nonzero_polys(), points)
@settings(max_examples=60, deadline=None)
def test_ratfunc_substitute_matches_fractions(p, q, pt):
    qtu = tower_new().adjoin_transcendental("t").adjoin_transcendental("u")
    rf = element_eval(qtu, f"({p})/({q})").as_ratfunc()
    # The printed pair evaluates as `derivations.rational_image` evaluates it.
    den = rf.den.substitute(pt)
    if den == 0:
        return
    got = rf.num.substitute(pt) / den
    if q.substitute(pt) != 0:
        assert got == p.substitute(pt) / q.substitute(pt)


def test_gf_units_and_inverses():
    k = gf(5)
    assert k.units() == [1, 2, 3, 4]
    for a in k.units():
        assert k.bin("*", a, k.bin("/", 1, a)) == 1
    with pytest.raises(Inadmissible):
        k.bin("/", 1, 0)
    assert k.characteristic == 5


def test_zmod_units():
    r = zmod(6)
    assert r.units() == [1, 5]
    with pytest.raises(Inadmissible):
        r.bin("/", 1, 2)
    assert r.characteristic == 6


ARITHMETIC_CARRIERS = [gf(2), gf(5), gf(7), gf(97), zmod(4), zmod(6), zmod(8), zmod(9),
                       IntegerWindow(-3, 3), IntegerWindow(-2, 5)]


def carrier_image(carrier, value, divisor=1):
    """What the carrier must make of the rational `value()`, or
    Inadmissible.  A finite carrier defines it when `divisor` is a unit mod
    m, as the v in range(m) with v * den = num mod m, found by search; a
    window when it is an integer (a division by zero is not)."""
    m = carrier.characteristic
    if m:
        if math.gcd(divisor, m) != 1:
            return Inadmissible
        q = value()
        return next(v for v in range(m) if (v * q.denominator - q.numerator) % m == 0)
    try:
        q = value()
    except ZeroDivisionError:
        return Inadmissible
    return q.numerator if q.denominator == 1 else Inadmissible


def carrier_outcome(fn, *args):
    try:
        return fn(*args)
    except Inadmissible:
        return Inadmissible


@given(st.sampled_from(ARITHMETIC_CARRIERS), st.integers(-30, 30), st.integers(-30, 30),
       st.integers(-3, 5))
@settings(max_examples=500, deadline=None)
def test_carrier_arithmetic_matches_fractions(carrier, a, b, e):
    """`bin`, `pow`, `neg` and `num`, as feq's generated code and the
    session's map specs call them, against Fraction arithmetic."""
    x, y = Fraction(a), Fraction(b)
    for op, exact in (("+", lambda: x + y), ("-", lambda: x - y), ("*", lambda: x * y)):
        assert carrier_outcome(carrier.bin, op, a, b) == carrier_image(carrier, exact)
    assert carrier_outcome(carrier.bin, "/", a, b) == carrier_image(carrier, lambda: x / y, b)
    assert carrier_outcome(carrier.pow, a, e) == carrier_image(
        carrier, lambda: x ** e, a if e < 0 else 1)
    assert carrier_outcome(carrier.neg, a) == carrier_image(carrier, lambda: -x)
    q = Fraction(a, b) if b else x
    assert carrier_outcome(carrier.num, q) == carrier_image(carrier, lambda: q, q.denominator)


def test_gf_requires_prime():
    with pytest.raises(Exception):
        gf(4)


def test_window_enumeration_order():
    w = IntegerWindow(-10, 10)
    head = []
    for a in w.elements():
        head.append(a)
        if len(head) == 5:
            break
    assert head == [0, 1, -1, 2, -2]
    assert w.contains(10) and not w.contains(11)


def test_window_asymmetric():
    w = IntegerWindow(-2, 5)
    assert list(w.elements()) == [0, 1, -1, 2, -2, 3, 4, 5]


def test_window_empty_rejected():
    with pytest.raises(ValueError):
        IntegerWindow(3, 1)
