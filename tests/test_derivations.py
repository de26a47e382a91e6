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
    power_rule_residual,
    rational_image,
    rational_rank,
    reflection_residual,
    residual,
    RULES,
)
from dercalc.towers import element_eq, element_eval, tower_new


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
    assert str(residual("square", f, x=t)) == "-t^2"
    assert residual("square", ddt, x=t + 1).is_zero()


def test_mobius_residual_closed_form(qt, ddt):
    t = qt.gen("t")
    f = AffineDerivation(ddt, 1)
    got = residual("mobius", f, a=1, b=2, c=3, d=4, n=2, x=t)
    assert str(got) == "(3*t^4 + 14*t^2 + 8)/(9*t^4 + 24*t^2 + 16)"
    assert residual("mobius", ddt, a=1, b=2, c=3, d=4, n=2, x=t).is_zero()


def test_mobius_rejects_singular_matrix(qt, ddt):
    t = qt.gen("t")
    with pytest.raises(DerivationError):
        residual("mobius", ddt, a=1, b=2, c=2, d=4, n=2, x=t)


def test_monomial_residual(qt, ddt):
    t = qt.gen("t")
    assert str(residual("monomial", ddt, ddt, n=3, m=1, x=t)) == "2*t^2"
    lam = AffineDerivation(ddt, 1)
    # identity part drops out of the two-exponent comparison
    assert residual("monomial", lam, lam, n=3, m=1, x=t) == residual("monomial", ddt, ddt, n=3, m=1, x=t)
    with pytest.raises(DerivationError):
        residual("monomial", ddt, ddt, n=2, m=2, x=t)


def test_nth_power_hom_residual(qt, ddt):
    t = qt.gen("t")
    ident = AffineDerivation(derivation_define(qt, {"t": 0}), 1)
    assert residual("nhom", ident, n=3, x=t).is_zero()
    assert residual("nhom", ddt, n=2, x=t) == 2 * t - 1
    with pytest.raises(DerivationError):
        residual("nhom", ddt, n=1, x=t)


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


# The seven residuals as they were written by hand before the rule table,
# their argument coercions left out: the reference `residual` is tested
# against.
class Reference:
    @staticmethod
    def mobius_transform(a, b, c, d, n, x):
        a, b, c, d = (Fraction(v) for v in (a, b, c, d))
        if a * d - b * c == 0:
            raise DerivationError("singular coefficient matrix: a*d - b*c = 0")
        if not isinstance(n, int) or n == 0:
            raise DerivationError("substitution exponent must be a nonzero integer")
        if n < 0 and x.is_zero():
            raise DerivationError("negative exponent needs a nonzero point")
        xn = x ** n
        den = c * xn + d
        if den.is_zero():
            raise DerivationError("substitution denominator vanishes at this point")
        return (a * xn + b) / den, (a * d - b * c) * n * (x ** (n - 1)) / (den * den)

    @staticmethod
    def leibniz(f, g, u, v):
        return f(u * v) - u * f(v) - v * f(u)

    @staticmethod
    def power(f, g, k, x):
        if not isinstance(k, int) or k == 0:
            raise DerivationError("power rule takes a nonzero integer exponent")
        if k < 0 and x.is_zero():
            raise DerivationError("negative power rule needs a nonzero point")
        return f(x ** k) - k * (x ** (k - 1)) * f(x)

    @staticmethod
    def monomial(f, g, n, m, x):
        if n == m:
            raise DerivationError("monomial residual needs distinct exponents")
        if x.is_zero() and (n < 0 or m < 0 or n - m < 0):
            raise DerivationError("negative exponents need a nonzero point")
        return f(x ** n) - (x ** (n - m)) * g(x ** m)

    @staticmethod
    def mobius(f, g, a, b, c, d, n, x):
        xi, xi_prime = Reference.mobius_transform(a, b, c, d, n, x)
        return f(xi) - xi_prime * f(x)

    @staticmethod
    def reflect(f, g, x):
        if x.is_zero():
            raise DerivationError("reflection residual needs a nonzero point")
        return f(x) + (x * x) * f(x.inv())

    @staticmethod
    def square(f, g, x):
        return f(x * x) - 2 * x * f(x)

    @staticmethod
    def nhom(f, g, n, x):
        if not isinstance(n, int) or n < 2:
            raise DerivationError("n-th power residual needs an integer n >= 2")
        return f(x ** n) - f(x) ** n


def reference_residual(kind, f, g=None, **args):
    return getattr(Reference, kind)(f, g or f, **args)


TOWERS = {"Q(t)": tower_new().adjoin_transcendental("t")}
TOWERS["Q(t)(s)"] = TOWERS["Q(t)"].adjoin_algebraic("s", "s^2 - t")

small_ints = st.integers(-3, 3)
slopes = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@st.composite
def elements(draw, tower):
    """0, 1, or a quotient of two small polynomials in the generators."""

    def poly():
        terms = draw(st.lists(st.tuples(st.sampled_from([1, -1, 2, -2, 3]),
                                        st.sampled_from(tower.variables),
                                        st.integers(0, 2)), min_size=1, max_size=3))
        return " + ".join(f"({c})*{v}^{e}" for c, v, e in terms)

    pick = draw(st.integers(0, 8))
    if pick > 6:
        return tower.rational(pick - 7)
    try:
        return element_eval(tower, f"({poly()}) / ({poly()} + 7)")
    except ZeroDivisionError:
        return tower.one


@st.composite
def residual_cases(draw):
    """A kind, f = d + c*id, g (None: f), and the arguments the kind reads:
    exponents in -3..5, rationals a, b, c, d in -3..3."""
    tower = TOWERS[draw(st.sampled_from(sorted(TOWERS)))]

    def affine():
        return AffineDerivation(derivation_define(tower, {"t": draw(elements(tower))}),
                                draw(slopes))

    kind = draw(st.sampled_from(sorted(RULES)))
    f = affine()
    g = affine() if draw(st.booleans()) else None
    args = {}
    for name in RULES[kind].reads:
        if name in ("u", "v", "x"):
            args[name] = draw(elements(tower))
        elif name in ("k", "n", "m"):
            args[name] = draw(st.integers(-3, 5))
        elif name != "g":
            args[name] = draw(small_ints)
    return kind, f, g, args


def outcome(fn, *args, **kwargs):
    """fn's value, or the type of the DerivationError or BudgetError it raised."""
    try:
        return fn(*args, **kwargs)
    except (DerivationError, BudgetError) as exc:
        return type(exc)


@given(residual_cases())
@settings(max_examples=300, deadline=None)
def test_every_rule_folds_to_its_hand_written_residual(case):
    kind, f, g, args = case
    want = outcome(reference_residual, kind, f, g, **args)
    got = outcome(residual, kind, f, g, **args)
    if isinstance(want, type):
        assert got is want, (kind, args)
    else:
        assert element_eq(got, want), (kind, args)
