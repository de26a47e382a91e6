"""The transcendental level over Q computes on integer pairs.

Its reps are (num, den) tuples of ints: coprime over Q[t], joint content 1,
den's leading coefficient positive.  The oracle here is the level as it
was before, kept in this file: Fraction coefficients, den monic, Euclid
over the level below.  A tower built on it runs none of the integer
level's gcd, content or sign steps.
"""

import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from dercalc import towers
from dercalc.derivations import derivation_define
from dercalc.exact import QQ, ZZ, NotDivisibleError, PolyRing, _exquo, _pdivmod, _pgcd
from dercalc.exact import _pscale, _pstrip, poly_gcd
from dercalc.towers import DivisionByZeroElementError, element_eval, tower_new


class MonicLevel(towers._LevelTrans):
    """The level as it was before integer reps: Fraction coefficients over
    Q, den monic over the level below, and Euclid over the level below
    when the coprimality certificate declines.  Only the certificate and
    the level arithmetic are shared with the integer level."""

    def __init__(self, below, name, index):
        super().__init__(below, name, index)
        self.below = below
        self.zero = ((), (below.one,))
        self.one = ((below.one,), (below.one,))

    def _normalize(self, num, den):
        K = self.below
        num, den = _pstrip(K, num), _pstrip(K, den)
        if not den:
            raise DivisionByZeroElementError("division by zero element")
        if not num:
            return self.zero
        if not self._coprime(num, den):
            g = _pgcd(K, num, den)
            if len(g) > 1:
                num, den = _pdivmod(K, num, g)[0], _pdivmod(K, den, g)[0]
        c = K.inv(den[-1])
        return (_pscale(K, num, c), _pscale(K, den, c))

    def from_rational(self, q):
        return self.from_below(self.below.from_rational(q))

    def from_below(self, c):
        return self.zero if self.below.is_zero(c) else ((c,), (self.below.one,))

    def to_below(self, a):
        return a[0][0] if a[0] else self.below.zero

    def generator(self):
        return ((self.below.zero, self.below.one), (self.below.one,))

    def inv(self, a):
        if not a[0]:
            raise DivisionByZeroElementError("division by zero element")
        return self._normalize(a[1], a[0])


SHAPES = {
    "Q(t)": (("t", None),),
    "Q(t)(s)": (("t", None), ("s", "s^2 - t")),
    "Q(t)(s)(u)": (("t", None), ("s", "s^2 - t"), ("u", None)),
}
DERIVATIONS = {"Q(t)": {"t": "t + 1"}, "Q(t)(s)": {"t": "1/2*s"},
               "Q(t)(s)(u)": {"t": "1", "u": "u*s + t"}}


def build(shape):
    tower = tower_new()
    for name, minpoly in SHAPES[shape]:
        tower = (tower.adjoin_transcendental(name) if minpoly is None
                 else tower.adjoin_algebraic(name, minpoly))
    return tower


def reference(shape):
    with mock.patch.object(towers, "_LevelTrans", MonicLevel):
        return build(shape)


def monic(tower, index, rep):
    """A rep of the integer tower in the reference's form: every level-1
    pair over its denominator's leading coefficient."""
    if index == 0:
        return rep
    level = tower.levels[index]
    if level.kind == "algebraic":
        return tuple(monic(tower, index - 1, c) for c in rep)
    num, den = rep
    if level.below is ZZ:
        return tuple(tuple(Fraction(c, den[-1]) for c in p) for p in (num, den))
    return tuple(tuple(monic(tower, index - 1, c) for c in p) for p in (num, den))


def _poly(rng, names):
    terms = []
    for _ in range(rng.randint(1, 3)):
        mono = "".join(f"*{n}^{rng.randint(0, 1)}" for n in names)
        terms.append(f"{rng.choice([-3, -2, -1, 1, 2, 3])}/{rng.randint(1, 3)}{mono}")
    return " + ".join(terms)


def _quotient(rng, names):
    """p*g/(q*g): the common factor g makes the integer gcd run."""
    p, q, g = (_poly(rng, names) for _ in range(3))
    return f"(({p})*({g}))/(({q})*({g}))"


@given(st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_integer_level_agrees_with_the_monic_fraction_level(rng):
    shape = rng.choice(sorted(SHAPES))
    tower, ref = build(shape), reference(shape)
    names = tower.variables
    sources = [_quotient(rng, names), _quotient(rng, names)]
    try:
        x, y = (element_eval(tower, s) for s in sources)
    except DivisionByZeroElementError:
        return
    rx, ry = (element_eval(ref, s) for s in sources)
    top = len(tower.levels) - 1
    d = derivation_define(tower, DERIVATIONS[shape])
    rd = derivation_define(ref, DERIVATIONS[shape])
    pairs = [(x + y, rx + ry), (x - y, rx - ry), (x * y, rx * ry), (d(x), rd(rx)),
             (d(x * y), rd(rx * ry))]
    if not y.is_zero():
        pairs += [(x / y, rx / ry), (y.inv(), ry.inv())]
    for got, want in pairs:
        assert monic(tower, top, got.rep) == want.rep
        assert str(got) == str(want)


def test_common_factors_cancel_through_the_integer_gcd():
    tower = build("Q(t)")
    with mock.patch.object(towers, "poly_gcd", wraps=towers.poly_gcd) as gcd:
        x = element_eval(tower, "(2*t^2 - 2)/(6*t^2 + 12*t + 6)")
    assert gcd.call_args.args[0].below is ZZ
    assert x.rep == ((-1, 1), (3, 3))
    assert str(x) == "(t - 1)/(3*t + 3)"


def test_level_one_reps_are_coprime_integer_pairs_with_positive_leading_denominator():
    tower = build("Q(t)")
    for source in ("-3/4", "0", "t/(-2*t + 4)", "(2*t + 2)/(4*t^2 - 4)", "1/(6*t)"):
        num, den = element_eval(tower, source).rep
        assert all(type(c) is int for c in num + den)
        assert den[-1] > 0
        assert math.gcd(*num, *den) == 1
    assert element_eval(tower, "t/(-2*t + 4)").inv().rep == ((4, -2), (0, 1))
    assert element_eval(tower, "-3/4").rep == ((-3,), (4,))


def _reps(rep):
    if isinstance(rep, tuple):
        for part in rep:
            yield from _reps(part)
    else:
        yield rep


@given(st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None, derandomize=True)
def test_reps_hold_no_float(rng):
    tower = tower_new()
    radicands = ["2", "3", "5"]
    for name in ("t", "s", "u")[: rng.randint(1, 3)]:
        if rng.random() < 0.5:
            tower = tower.adjoin_transcendental(name)
            radicands.insert(0, name)
        else:
            tower = tower.adjoin_algebraic(name, f"{name}^2 - {radicands.pop(0)}")
    names = tower.variables
    values = {n: _poly(rng, names) for n in tower.transcendental_names()}
    d = derivation_define(tower, values)
    x = element_eval(tower, _poly(rng, names))
    y = element_eval(tower, _poly(rng, names))
    results = [x + y, x * y, d(x), d(y) * 3, x / 7, Fraction(2, 3) * y]
    if not y.is_zero():
        results += [y.inv(), x / y, d(x / y)]
    for z in results:
        kinds = {type(c) for c in _reps(z.rep)}
        assert kinds <= {int, Fraction}, kinds


def test_the_coefficient_domains_stay_exact():
    assert QQ.inv(4) == Fraction(1, 4) and type(QQ.inv(4)) is Fraction
    assert QQ.inv(Fraction(-2, 3)) == Fraction(-3, 2)
    assert _exquo(QQ, 1, 2) == Fraction(1, 2) and type(_exquo(QQ, 3, 1)) is Fraction
    assert _exquo(ZZ, -6, 3) == -2
    with pytest.raises(NotDivisibleError):
        _exquo(ZZ, 7, 2)
    ZX = PolyRing(ZZ)
    # gcd(6t^2 - 6, 4t + 4) = 2(t + 1) in Z[t]
    assert poly_gcd(ZX, (-6, 0, 6), (4, 4)) == (2, 2)
    assert ZZ.image(-1) == 2**61 - 2


def test_random_quotients_print_the_same_in_both_towers():
    rng = random.Random("print")
    for shape in SHAPES:
        tower, ref = build(shape), reference(shape)
        for _ in range(3):
            source = _quotient(rng, tower.variables)
            try:
                x = element_eval(tower, source)
            except DivisionByZeroElementError:
                continue
            assert str(x) == str(element_eval(ref, source))
