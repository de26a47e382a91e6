"""Derivations on towers, affine maps, and the closed-form residuals."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dercalc.exact import BudgetError, MultiPoly, poly_formal_derivative
from dercalc.derivations import (
    AffineDerivation,
    DerivationError,
    default_substitution,
    derivation_bracket,
    derivation_combine,
    derivation_define,
    independence_rank,
    iterate,
    leibniz_residual,
    mobius_residual,
    monomial_residual,
    nth_power_hom_residual,
    power_rule_residual,
    rational_image,
    rational_rank,
    reflection_residual,
    square_rule_residual,
)
from dercalc.towers import element_eval, tower_new


@pytest.fixture
def qt():
    return tower_new().adjoin_transcendental("t")


@pytest.fixture
def ddt(qt):
    return derivation_define(qt, {"t": 1})


def lift(poly, t):
    """Image of a univariate polynomial under t |-> given tower element."""
    out = t.tower.zero
    for exps, coeff in poly.sorted_terms():
        out = out + t.tower.rational(coeff) * t ** exps[0]
    return out


coeffs = st.integers(-6, 6).map(Fraction)
uni_polys = st.dictionaries(st.tuples(st.integers(0, 5)), coeffs, max_size=4).map(
    lambda terms: MultiPoly(("t",), terms)
)


@given(uni_polys, uni_polys)
@settings(max_examples=80, deadline=None)
def test_matches_formal_derivative_on_quotients(p, q):
    # oracle: coefficientwise d/dt plus the quotient rule, all in the
    # polynomial layer, never touching the tower quotient machinery
    if q.is_zero():
        q = q + 1
    qt = tower_new().adjoin_transcendental("t")
    t = qt.gen("t")
    d = derivation_define(qt, {"t": 1})
    x = lift(p, t) / lift(q, t)
    dp, dq = poly_formal_derivative(p, "t"), poly_formal_derivative(q, "t")
    expected = (lift(dp, t) * lift(q, t) - lift(p, t) * lift(dq, t)) / lift(q, t) ** 2
    assert d(x) == expected


def test_evaluation_strings(ddt, qt):
    assert str(ddt(element_eval(qt, "t^3"))) == "3*t^2"
    assert str(ddt(element_eval(qt, "1/t"))) == "-1/t^2"
    assert str(ddt(element_eval(qt, "(t^2 + 1)/(t - 1)"))) == "(t^2 - 2*t - 1)/(t^2 - 2*t + 1)"


@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))
@settings(max_examples=60, deadline=None)
def test_leibniz_residual_vanishes(a, b, c, d):
    qt = tower_new().adjoin_transcendental("t")
    t = qt.gen("t")
    der = derivation_define(qt, {"t": t**2 + 1})
    x = a * t + b
    y = c * t**2 + d
    assert leibniz_residual(der, x, y).is_zero()


def test_additivity_and_constants(ddt, qt):
    t = qt.gen("t")
    assert ddt(qt.rational("7/3")).is_zero()
    assert ddt(t**2 + 3 * t) == ddt(t**2) + 3 * ddt(t)


def test_forced_value_square_root():
    tower = tower_new().adjoin_transcendental("t").adjoin_algebraic("s", "s^2 - t")
    d = derivation_define(tower, {"t": 1})
    s = tower.gen("s")
    assert str(d(s)) == "s/(2*t)"
    assert d(s) == 1 / (2 * s)
    # the forced value keeps the defining relation differentiable: d(s^2) = d(t)
    assert d(s * s) == tower.one


def test_forced_value_cube_root():
    tower = tower_new().adjoin_transcendental("t").adjoin_algebraic("r", "r^3 - t")
    d = derivation_define(tower, {"t": 1})
    r = tower.gen("r")
    assert d(r) == r / (3 * tower.gen("t"))
    assert leibniz_residual(d, r, r * r).is_zero()


def test_define_validates_bindings(qt):
    tower = qt.adjoin_algebraic("s", "s^2 - t")
    with pytest.raises(DerivationError):
        derivation_define(tower, {"t": 1, "s": 1})
    with pytest.raises(DerivationError):
        derivation_define(tower, {})
    with pytest.raises(DerivationError):
        derivation_define(tower, {"t": 1, "w": 0})


def test_describe_marks_forced_values():
    tower = tower_new().adjoin_transcendental("t").adjoin_algebraic("s", "s^2 - t")
    d = derivation_define(tower, {"t": 1})
    text = d.describe("d")
    assert "d(t) = 1" in text
    assert "d(s) = s/(2*t) (forced)" in text


def test_combine_is_pointwise(qt, ddt):
    t = qt.gen("t")
    d2 = derivation_define(qt, {"t": t**2})
    combo = derivation_combine(2, ddt, 3, d2)
    assert combo(t) == 2 + 3 * t**2
    x = (t + 1) / t
    assert combo(x) == 2 * ddt(x) + 3 * d2(x)


def test_combine_with_element_coefficients(qt, ddt):
    t = qt.gen("t")
    d2 = derivation_define(qt, {"t": t**2})
    combo = derivation_combine(t, ddt, -1, d2)
    assert combo(t) == t - t**2
    assert leibniz_residual(combo, t + 2, t**3).is_zero()


def test_bracket_value_and_leibniz(qt, ddt):
    t = qt.gen("t")
    d2 = derivation_define(qt, {"t": t**2})
    br = derivation_bracket(ddt, d2)
    assert br(t) == 2 * t
    assert leibniz_residual(br, t**2, 1 / (t + 1)).is_zero()


def test_bracket_antisymmetry(qt, ddt):
    t = qt.gen("t")
    d2 = derivation_define(qt, {"t": t**3 + t})
    lhs = derivation_bracket(ddt, d2)
    rhs = derivation_bracket(d2, ddt)
    assert lhs(t) == -rhs(t)


def test_power_rule_residual_closed_form(qt, ddt):
    t = qt.gen("t")
    f = AffineDerivation(ddt, 1)
    assert str(power_rule_residual(f, 3, t)) == "-2*t^3"
    # slope lam contributes lam*(1-k)*x^k; the derivation part cancels
    g = AffineDerivation(ddt, Fraction(5, 2))
    assert power_rule_residual(g, 4, t) == Fraction(-15, 2) * t**4
    assert power_rule_residual(ddt, 4, t).is_zero()


def test_reflection_residual_closed_form(qt, ddt):
    t = qt.gen("t")
    f = AffineDerivation(ddt, 1)
    assert str(reflection_residual(f, t)) == "2*t"
    assert reflection_residual(ddt, t).is_zero()
    with pytest.raises(DerivationError):
        reflection_residual(f, qt.zero)


def test_square_rule_residual_closed_form(qt, ddt):
    t = qt.gen("t")
    f = AffineDerivation(ddt, 1)
    assert str(square_rule_residual(f, t)) == "-t^2"
    assert square_rule_residual(ddt, t + 1).is_zero()


def test_mobius_residual_closed_form(qt, ddt):
    t = qt.gen("t")
    f = AffineDerivation(ddt, 1)
    got = mobius_residual(f, 1, 2, 3, 4, 2, t)
    assert str(got) == "(3*t^4 + 14*t^2 + 8)/(9*t^4 + 24*t^2 + 16)"
    assert mobius_residual(ddt, 1, 2, 3, 4, 2, t).is_zero()


def test_mobius_rejects_singular_matrix(qt, ddt):
    t = qt.gen("t")
    with pytest.raises(DerivationError):
        mobius_residual(ddt, 1, 2, 2, 4, 2, t)


def test_monomial_residual(qt, ddt):
    t = qt.gen("t")
    assert str(monomial_residual(ddt, ddt, 3, 1, t)) == "2*t^2"
    lam = AffineDerivation(ddt, 1)
    # identity part drops out of the two-exponent comparison
    assert monomial_residual(lam, lam, 3, 1, t) == monomial_residual(ddt, ddt, 3, 1, t)
    with pytest.raises(DerivationError):
        monomial_residual(ddt, ddt, 2, 2, t)


def test_nth_power_hom_residual(qt, ddt):
    t = qt.gen("t")
    ident = AffineDerivation(derivation_define(qt, {"t": 0}), 1)
    assert nth_power_hom_residual(ident, 3, t).is_zero()
    assert nth_power_hom_residual(ddt, 2, t) == 2 * t - 1
    with pytest.raises(DerivationError):
        nth_power_hom_residual(ddt, 1, t)


def test_iterate_powers(qt, ddt):
    t = qt.gen("t")
    maps = iterate(ddt, 3)
    assert len(maps) == 4
    assert maps[0](t**3) == t**3
    assert maps[2](t**3) == 6 * t
    assert maps[3](t**3) == 6
    assert str(maps[2](1 / t)) == "2/t^3"


def test_iterate_budget(ddt):
    with pytest.raises(BudgetError):
        iterate(ddt, 100)


def test_rank_of_iterates(qt, ddt):
    t = qt.gen("t")
    maps = iterate(ddt, 3)
    points = [t**3, t**4, t**5, t**6]
    assert independence_rank(maps, points, {"t": Fraction(2)}) == 4


def test_rank_detects_dependence(qt, ddt):
    t = qt.gen("t")
    d2 = derivation_define(qt, {"t": 2})
    points = [t, t**2, t**3]
    assert independence_rank([ddt, d2], points) == 1


def test_rational_rank_exact():
    assert rational_rank([[1, 2], [2, 4]]) == 1
    assert rational_rank([[Fraction(1, 3), 0], [0, Fraction(1, 7)]]) == 2


def test_default_substitution_uses_primes():
    tower = tower_new().adjoin_transcendental("t").adjoin_transcendental("u")
    assert default_substitution(tower) == {"t": Fraction(2), "u": Fraction(3)}


def test_rational_image(qt):
    t = qt.gen("t")
    assert rational_image((t + 1) / t) == Fraction(3, 2)
    with pytest.raises(DerivationError):
        rational_image(1 / (t - 2))


def test_rational_image_rejects_algebraic_part():
    tower = tower_new().adjoin_transcendental("t").adjoin_algebraic("s", "s^2 - t")
    with pytest.raises(DerivationError):
        rational_image(tower.gen("s"))


QTSU = "t:trans;s:alg:s^2 - t;u:trans"


def _tower(spec):
    tower = tower_new()
    for part in spec.split(";"):
        name, kind, *rest = part.split(":")
        tower = (tower.adjoin_transcendental(name) if kind == "trans"
                 else tower.adjoin_algebraic(name, rest[0]))
    return tower


def test_rational_image_above_two_levels_matches_sympy():
    sympy = pytest.importorskip("sympy")
    tower = _tower(QTSU)
    # s^2 reduces to t, so the element is free of s.
    x = element_eval(tower, "(s^2*u + 3)/(u^2 - t*u + 2) + 1/(t + s^2)")
    t, u = sympy.symbols("t u")
    expr = (t * u + 3) / (u**2 - t * u + 2) + 1 / (2 * t)
    for subst in ({"t": Fraction(2), "u": Fraction(3)}, {"t": Fraction(5), "u": Fraction(-7, 2)}):
        want = expr.subs({t: sympy.Rational(str(subst["t"])), u: sympy.Rational(str(subst["u"]))})
        assert rational_image(x, subst) == Fraction(int(want.p), int(want.q))
    assert rational_image(x) == rational_image(x, {"t": 2, "u": 3})


def test_rational_image_above_two_levels_rejects_algebraic_part():
    tower = _tower(QTSU)
    with pytest.raises(DerivationError):
        rational_image(element_eval(tower, "u + s/(t + 1)"))


@pytest.mark.parametrize("spec", ["t:trans;u:trans", QTSU])
def test_rank_of_iterates_above_one_level(spec):
    # d(t) = 1, d(u) = u.  At t = 2, u = 3 the rows (x, d x, d^2 x) are
    #   t:   (2, 1, 0)      t^2: (4, 4, 2)
    #   u:   (3, 3, 3)      t*u: (6, 9, 12)
    # {t, u, t*u} has determinant 18 - 18 = 0 and rank 2; {t^2, u, t*u} has
    # determinant 36 - 72 + 18 = -18 and rank 3.
    tower = _tower(spec)
    maps = iterate(derivation_define(tower, {"t": 1, "u": "u"}), 2)
    t, u = tower.gen("t"), tower.gen("u")
    assert independence_rank(maps, [t, u, t * u]) == 2
    assert independence_rank(maps, [t**2, u, t * u]) == 3
