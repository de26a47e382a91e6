"""Field towers: canonical forms, exact field arithmetic, algebraic reduction."""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from dercalc.exact import QQ, _pmul
from dercalc.towers import (
    DivisionByZeroElementError,
    TowerError,
    TowerMismatchError,
    UnknownSymbolError,
    ZeroDivisorError,
    _LevelTrans,
    element_eq,
    element_eval,
    tower_new,
)


@pytest.fixture
def qt():
    return tower_new().adjoin_transcendental("t")


@pytest.fixture
def qts():
    return tower_new().adjoin_transcendental("t").adjoin_algebraic("s", "s^2 - t")


def test_base_field_is_plain_rationals():
    q = tower_new()
    assert str(q) == "Q"
    assert q.rational("2/3") + q.rational("1/3") == 1


def test_adjoin_returns_new_tower():
    q = tower_new()
    qt = q.adjoin_transcendental("t")
    assert q.variables == ()
    assert qt.variables == ("t",)
    assert str(qt) == "Q(t)"


def test_describe_lists_generators(qts):
    assert qts.describe() == (
        "tower Q(t)(s)\n"
        "  t: transcendental\n"
        "  s: algebraic, minimal polynomial s^2 - t"
    )


def test_duplicate_generator_rejected(qt):
    with pytest.raises(TowerError):
        qt.adjoin_transcendental("t")


def test_canonical_rational_function(qt):
    t = qt.gen("t")
    a = (t**2 - 1) / (t - 1)
    assert str(a) == "t + 1"
    assert a == t + 1


def test_inverse_round_trip(qt):
    t = qt.gen("t")
    a = (t**2 + 1) / (3 * t)
    assert a * a.inv() == 1
    assert str(a.inv()) == "3*t/(t^2 + 1)"


def test_division_by_zero_detected(qt):
    t = qt.gen("t")
    with pytest.raises(DivisionByZeroElementError):
        (t + 1) / (t - t)


@given(
    st.integers(-5, 5),
    st.integers(-5, 5),
    st.integers(-5, 5),
    st.integers(-5, 5),
)
@settings(max_examples=60, deadline=None)
def test_field_identity_on_linear_fractions(a, b, c, d):
    qt = tower_new().adjoin_transcendental("t")
    t = qt.gen("t")
    x = a * t + b
    y = c * t + d
    if not y.is_zero():
        assert (x / y) * y == x
    assert (x + y) * (x - y) == x * x - y * y


def test_algebraic_relation_reduces(qts):
    s = qts.gen("s")
    t = qts.gen("t")
    assert s * s == t
    assert str(s**3) == "t*s"
    assert element_eq(s**4, t**2)


def test_algebraic_inverse(qts):
    s = qts.gen("s")
    t = qts.gen("t")
    assert str(s.inv()) == "s/t"
    assert s.inv() * s == 1
    assert (1 / (s + 1)) * (s + 1) == 1
    assert str(1 / (s + 1)) == "(s - 1)/(t - 1)"


def test_minimal_polynomial_must_be_square_free(qt):
    with pytest.raises(TowerError):
        qt.adjoin_algebraic("s", "s^2 - 2*s + 1")


@pytest.mark.parametrize("minpoly", ["s^2 - 4", "s^3 - s", "9*s^2 - 1", "s^3 - 2*s^2/3 + s - 2/3"])
def test_minimal_polynomial_with_rational_root_is_rejected(qt, minpoly):
    with pytest.raises(TowerError, match="rational root"):
        qt.adjoin_algebraic("s", minpoly)


@pytest.mark.parametrize("minpoly", ["s^2 - 2", "s^3 - 4", "(s^2 - 2)*(s^2 - 3)", "s^2 - t^2"])
def test_minimal_polynomial_without_rational_root_is_accepted(qt, minpoly):
    # The last two are reducible, but not certified: see the module docstring.
    assert qt.adjoin_algebraic("s", minpoly).gens[-1].name == "s"


def test_minimal_polynomial_must_involve_new_name(qt):
    with pytest.raises(TowerError):
        qt.adjoin_algebraic("s", "t^2 - 1")


# Minimal polynomials are evaluated in the tower extended by the new name as
# a transcendental; the renderings are the ones printed before that change.
MINPOLY_RENDERINGS = [
    ("t:trans", "s", "s^2 - t/2", "s^2 + (-t/2)"),
    ("t:trans", "s", "t*s^2 - 1", "s^2 + (-1/t)"),
    ("t:trans", "s", "(s - t)*(s + 1/t)", "s^2 + ((-t^2 + 1)/t)*s - 1"),
    ("t:trans;s:trans", "u", "2*u^3 - s*u + t/3", "u^3 + (-s/2)*u + (t/6)"),
    ("t:trans;s:alg", "u", "2*u^3 - s*u + t/3", "u^3 + (-s/2)*u + (t/6)"),
]


def _tower(spec):
    tower = tower_new()
    for part in spec.split(";"):
        name, kind = part.split(":")
        if kind == "trans":
            tower = tower.adjoin_transcendental(name)
        else:
            tower = tower.adjoin_algebraic(name, f"{name}^2 - t")
    return tower


@pytest.mark.parametrize("spec,name,minpoly,rendered", MINPOLY_RENDERINGS)
def test_minimal_polynomial_rendering(spec, name, minpoly, rendered):
    gen = _tower(spec).adjoin_algebraic(name, minpoly).gens[-1]
    assert gen.minpoly_text == rendered


@pytest.mark.parametrize("minpoly", ["1/s", "s^-2", "f(s)", "s^2 + 1/(s + t)"])
def test_minimal_polynomial_must_be_polynomial_in_new_name(qt, minpoly):
    with pytest.raises(TowerError):
        qt.adjoin_algebraic("s", minpoly)


def test_element_eval_expression(qts):
    a = element_eval(qts, "s^2 + 1/t")
    t = qts.gen("t")
    assert a == t + t.inv()
    assert str(a) == "(t^2 + 1)/t"


def test_element_eval_unknown_symbol(qt):
    with pytest.raises(UnknownSymbolError):
        element_eval(qt, "t + w")


def test_cross_tower_arithmetic_rejected():
    a = tower_new().adjoin_transcendental("t")
    b = tower_new().adjoin_transcendental("t")
    with pytest.raises(TowerMismatchError):
        a.gen("t") + b.gen("t")


def test_power_skips_the_squaring_after_the_last_bit(qt):
    # 5 = 101 in binary: two products into the result and two squarings of
    # the base; a third squaring would be thrown away.
    base = element_eval(qt, "2*t + 3")
    with mock.patch.object(_LevelTrans, "mul", autospec=True,
                           side_effect=_LevelTrans.mul) as mul:
        power = base ** 5
    assert mul.call_count == 4
    assert power == base * base * base * base * base


def test_negative_powers(qt):
    t = qt.gen("t")
    assert str(t ** (-2)) == "1/t^2"
    assert t ** (-2) * t**2 == 1


def test_rational_constants_embed(qts):
    half = qts.rational(Fraction(1, 2))
    assert str(half + half) == "1"
    assert half * 2 == qts.one


def test_second_transcendental():
    tower = tower_new().adjoin_transcendental("t").adjoin_transcendental("u")
    t, u = tower.gen("t"), tower.gen("u")
    a = (t + u) ** 2
    assert a - 2 * t * u == t**2 + u**2
    assert str(tower) == "Q(t)(u)"


def _random_tower(rng):
    """One to three levels.  An algebraic level adjoins the square root of
    a fresh radicand, an unused transcendental generator or prime, so the
    levels stay fields."""
    tower = tower_new()
    radicands = ["2", "3", "5"]
    for name in ("t", "s", "u")[: rng.randint(1, 3)]:
        if rng.random() < 0.5:
            tower = tower.adjoin_transcendental(name)
            radicands.insert(0, name)
        else:
            tower = tower.adjoin_algebraic(name, f"{name}^2 - {radicands.pop(0)}")
    return tower


def _random_poly(rng, names):
    terms = []
    for _ in range(rng.randint(1, 3)):
        mono = "".join(f"*{n}^{rng.randint(0, 2)}" for n in names)
        terms.append(f"{rng.randint(-4, 4)}{mono}")
    return " + ".join(terms)


@pytest.mark.parametrize("seed", range(12))
def test_print_round_trips_through_element_eval(seed):
    rng = random.Random(f"round-trip:{seed}")
    tower = _random_tower(rng)
    names = tower.variables
    for _ in range(3):
        den = element_eval(tower, _random_poly(rng, names))
        if den.is_zero():
            continue
        x = element_eval(tower, _random_poly(rng, names)) / den + 1
        assert element_eval(tower, str(x)) == x, str(x)


# -- the coprimality certificate ----------------------------------------------
#
# Each property computes one result twice: as the tower does, and with every
# certificate declined, so that each normalisation runs Euclid, the path
# that serves as the oracle.  Canonical forms are unique, so the reps must
# be equal.


def _euclid_only(compute):
    with mock.patch.object(_LevelTrans, "_coprime", lambda self, num, den: False):
        return compute()


def _both_ways(compute):
    got = compute()
    assert got.rep == _euclid_only(compute).rep
    return got


def _random_element(rng, tower):
    """One or two terms, each generator to degree at most 1: a common
    factor makes Euclid run over the levels below, which costs seconds on
    larger elements."""
    terms = []
    for _ in range(rng.randint(1, 2)):
        mono = "".join(f"*{n}^{rng.randint(0, 1)}" for n in tower.variables)
        terms.append(f"{rng.choice([-3, -2, -1, 1, 2, 3])}/{rng.randint(1, 3)}{mono}")
    return element_eval(tower, " + ".join(terms))


def _unlucky(tower):
    """(g1 - c1)...(gk - ck)/(2^61 - 1) over the transcendental generators
    gi, with ci the constant the shadow sends gi to: its image vanishes in
    the shadows' arithmetic mod 2^61 - 1, or is undefined there, and so is
    that of its inverse."""
    x = tower.rational(Fraction(1, 2**61 - 1))
    for level, name in zip(tower.levels[1:], tower.variables):
        if level.kind == "transcendental":
            point = level.point
            while isinstance(point, tuple):  # a constant of an algebraic shadow
                point = point[0] if point else 0
            x = x * (tower.gen(name) - point)
    return x


# The examples are fixed (derandomize): their cost ranges from milliseconds
# to seconds, and a fixed set keeps the suite's time from moving by minutes.
@given(st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None, derandomize=True)
def test_certificate_agrees_with_euclid_on_common_factors(rng):
    tower = _random_tower(rng)
    a, b, g = (_random_element(rng, tower) for _ in range(3))
    if rng.random() < 0.5:
        # Its image is 1: the common factor leaves no trace in the shadow.
        g = (2**61 - 1) * g + 1
    assume(not b.is_zero() and not g.is_zero())
    num, den = a * g, b * g
    _both_ways(lambda: num / den)


@given(st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_certificate_agrees_with_euclid_where_the_point_is_a_pole(rng):
    tower = _random_tower(rng)
    a, b = (_random_element(rng, tower) for _ in range(2))
    assume(not b.is_zero())
    unlucky = _unlucky(tower)
    x = _both_ways(lambda: a / unlucky)
    _both_ways(lambda: x / b)
    _both_ways(lambda: x * b + unlucky)


@given(st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_product_over_a_factor_is_the_other_factor(rng):
    tower = _random_tower(rng)
    a, b = (_random_element(rng, tower) for _ in range(2))
    assume(not b.is_zero())
    assert _both_ways(lambda: (a * b) / b) == a


def test_certificate_declines_unlucky_pairs(qts):
    # A coefficient with a pole at the point has no image.
    pole = 1 / (qts.gen("t") - qts.levels[1].point)
    with pytest.raises(ZeroDivisionError):
        qts.levels[1].image(pole.rep[0])
    u_level = qts.adjoin_transcendental("u").top
    one = qts.one.rep
    assert not u_level._coprime((pole.rep, one), (one, one))
    assert u_level._coprime((qts.gen("t").rep, one), (one, one))
    # t*g and (t + 1)*g with g = 1 + (2^61 - 1)*t: the images are t and
    # t + 1, coprime, but both leading coefficients vanish.  (The tower
    # never asks for such a pair: one operand is monic in every call.)
    g = (Fraction(1), Fraction(2**61 - 1))
    t_level = qts.levels[1]
    assert not t_level._coprime(_pmul(QQ, g, (0, 1)), _pmul(QQ, g, (1, 1)))


@pytest.mark.parametrize("spec", ["", "t"])
def test_zero_divisor_surfaces_under_reducible_minimal_polynomial(spec):
    tower = tower_new()
    if spec:
        tower = tower.adjoin_transcendental(spec)
    tower = tower.adjoin_algebraic("s", "s^4 - 5*s^2 + 6")
    with pytest.raises(ZeroDivisorError):
        element_eval(tower, "1/(s^2 - 2)")
