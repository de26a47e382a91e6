"""Algebraic levels compute in R[s] over one integer common denominator.

Over Q and the integer Q(t) level an algebraic level lifts its operands'
coefficients to Z or Z[t], multiplies and reduces there against the
minimal polynomial cleared of denominators, and inverts by fraction-free
elimination on the multiplication matrix.  The oracle here is the level as
it was before, kept in this file: the coefficient-wise product over the
level below and the inverse by half-extended Euclid modulo the minimal
polynomial.  Both must give the same canonical reps.
"""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from dercalc import towers
from dercalc.derivations import derivation_define
from dercalc.exact import _pdivmod, _pmul, _pscale, _pstrip, _psub
from dercalc.towers import (
    DivisionByZeroElementError,
    ZeroDivisorError,
    element_eval,
    tower_new,
)


def _pxgcd(level, a, m):
    """Half-extended Euclid: returns monic g and s with s*a = g modulo m."""
    r0, r1 = _pstrip(level, a), _pstrip(level, m)
    s0, s1 = (level.one,), ()
    while r1:
        q, r = _pdivmod(level, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _psub(level, s0, _pmul(level, q, s1))
    if r0:
        c = level.inv(r0[-1])
        r0, s0 = _pscale(level, r0, c), _pscale(level, s0, c)
    return r0, s0


class EuclidLevel(towers._LevelAlg):
    """The level as it was before the lift: every product and remainder
    computed coefficient by coefficient in the level below, and the
    inverse from Euclid over it."""

    def _reduce(self, a):
        if len(a) <= self.degree:
            return _pstrip(self.below, a)
        return _pdivmod(self.below, a, self.minpoly)[1]

    def mul(self, a, b):
        return self._reduce(_pmul(self.below, a, b))

    def inv(self, a):
        if not a:
            raise DivisionByZeroElementError("division by zero element")
        g, s = _pxgcd(self.below, a, self.minpoly)
        if len(g) != 1:
            raise ZeroDivisorError(f"zero divisor modulo the minimal polynomial of {self.name!r}")
        return self._reduce(s)


SHAPES = {
    "Q(s), s^2 = 2": "s:s^2 - 2",
    "Q(s), s^3 = s + 1/2": "s:s^3 - s - 1/2",
    "Q(t)(s), s^2 = t": "t;s:s^2 - t",
    "Q(t)(s), s^2 = 1/t": "t;s:s^2 - 1/t",
    "Q(t)(s)(r), r^2 = s": "t;s:s^2 - t;r:r^2 - s",
    "Q(t)(s)(u)(r), r^2 = u": "t;s:s^2 - t;u;r:r^2 - u",
}


def build(shape):
    tower = tower_new()
    for part in SHAPES[shape].split(";"):
        name, _, minpoly = part.partition(":")
        tower = (tower.adjoin_algebraic(name, minpoly) if minpoly
                 else tower.adjoin_transcendental(name))
    return tower


def reference(shape):
    with mock.patch.object(towers, "_LevelAlg", EuclidLevel):
        return build(shape)


def _poly(rng, names, terms):
    parts = []
    for _ in range(rng.randint(1, terms)):
        mono = "".join(f"*{n}^{rng.randint(0, 1)}" for n in names)
        parts.append(f"{rng.choice([-3, -2, -1, 1, 2, 3])}/{rng.randint(1, 3)}{mono}")
    return " + ".join(parts)


def _element(rng, names):
    terms = 2 if len(names) > 3 else 3
    source = _poly(rng, names, terms)
    if rng.random() < 0.6:
        source = f"({source})/({_poly(rng, names, terms)})"
    return source


@given(st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_lifted_level_agrees_with_the_euclid_level(rng):
    shape = rng.choice(sorted(SHAPES))
    tower, ref = build(shape), reference(shape)
    assert not isinstance(tower.top, EuclidLevel) and isinstance(ref.levels[-1], EuclidLevel)
    names = tower.variables
    sources = [_element(rng, names), _element(rng, names)]
    try:
        x, y = (element_eval(tower, s) for s in sources)
    except DivisionByZeroElementError:
        return
    rx, ry = (element_eval(ref, s) for s in sources)
    assert (x.rep, y.rep) == (rx.rep, ry.rep)
    pairs = [(x * y, rx * ry), (x * x, rx * rx)]
    values = {n: "1" if i == 0 else n for i, n in enumerate(tower.transcendental_names())}
    if values:
        d, rd = derivation_define(tower, values), derivation_define(ref, values)
        pairs.append((d(x), rd(rx)))
    for a, ra in ((x, rx), (y, ry)):
        if not a.is_zero():
            inverse = a.inv()
            pairs.append((inverse, ra.inv()))
            assert a * inverse == 1
    if not y.is_zero():
        pairs.append((x / y, rx / ry))
    for got, want in pairs:
        assert got.rep == want.rep
        assert str(got) == str(want)


def test_minimal_polynomial_is_cleared_of_denominators_once():
    assert build("Q(s), s^3 = s + 1/2").top.lifted == (-1, -2, 0, 2)
    assert build("Q(t)(s), s^2 = 1/t").top.lifted == ((-1,), (), (0, 1))
    assert build("Q(t)(s), s^2 = t").top.lifted == ((0, -1), (), (1,))


def test_one_normalisation_per_coefficient_on_q_t_s():
    tower = build("Q(t)(s), s^2 = t")
    a = element_eval(tower, "(3*t^2 - 2*t + 5/3 + (2*t - 7/2)*s)/(5*t^2 + 4*t - 3 + (7*t + 2)*s)")
    b = element_eval(tower, "(2*t^3 - 5*t + 1/2 + (4*t^2 + t - 3)*s)/(3*t^2 - 2 + (6*t - 5)*s)")
    level = towers._LevelTrans
    for operation in (a.inv, lambda: a * b):
        with mock.patch.object(level, "_normalize", autospec=True,
                               side_effect=level._normalize) as normalize:
            operation()
        assert normalize.call_count <= tower.top.degree


def test_inverse_of_a_zero_divisor_raises():
    tower = tower_new().adjoin_algebraic("s", "s^2 + 1").adjoin_algebraic("r", "r^2 + 1")
    with pytest.raises(ZeroDivisorError, match="minimal polynomial of 'r'"):
        element_eval(tower, "1/(r - s)")
    assert element_eval(tower, "(r - s)*(r + s)").is_zero()
    with pytest.raises(DivisionByZeroElementError):
        tower.top.inv(())
    assert element_eval(tower, "1/(r + 2*s)") * element_eval(tower, "r + 2*s") == 1


def test_zero_divisor_over_q_t_surfaces_from_the_norm():
    # s^4 - 5s^2 + 6 = (s^2 - 2)(s^2 - 3) over Q(t): the norm of s^2 - 2 is 0.
    tower = tower_new().adjoin_transcendental("t").adjoin_algebraic("s", "s^4 - 5*s^2 + 6")
    with pytest.raises(ZeroDivisorError):
        element_eval(tower, "1/(t*s^2 - 2*t)")
    x = element_eval(tower, "(t*s^3 + 1)/(s^2 - 2*t)")
    assert x * x.inv() == 1

