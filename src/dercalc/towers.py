"""Field towers Q(g1)(g2)... with exact canonical element arithmetic.

A tower is a chain of levels.  Level 0 is Q; each later level adjoins one
generator, either transcendental (elements are reduced fractions of
univariate polynomials over the level below, denominator monic) or algebraic
with a monic square-free minimal polynomial (elements are coefficient vectors
of length below the degree).  A transcendental level directly over Q is the
exception: its fractions are of integer polynomials, with joint integer
content 1 and a positive leading denominator coefficient, so Q(t) and every
level above it compute on ints, not Fractions.  Each level's canonical form
is unique, so element equality is plain structural equality: sound and
complete.

Level arithmetic runs on the coefficient-tuple kernel of ``exact``.  An
algebraic level over Q or over the integer Q(t) level multiplies in Z[s]
or Z[t][s]: the operands' coefficients are lifted over one common
denominator, the product is reduced by the kernel's one pseudo-remainder
(``exact._pprem``) by the minimal polynomial cleared of denominators, and
each coefficient drops back with one normalisation.  Inverses come from
fraction-free elimination (Bareiss, Math. Comp. 1968), its exact
divisions by ``exact._divider``, on the multiplication matrix of the
element in the basis 1, s, ..., s^(n-1), so a^-1 = D*adj(A)*e0/N(a)
with N(a) its norm.
Any other level below lifts to itself.  N(a) is 0 exactly when a shares
a factor with the minimal polynomial, so when that polynomial is not
irreducible the inverse of a zero divisor raises ZeroDivisorError instead
of silently producing garbage.

A transcendental level normalises num/den by dividing out their gcd over
the level below (over Q, their integer primitive gcd, then the joint
content), but first asks for a certificate that the gcd is 1
(Brown, JACM 1971).  Every level maps into a small "shadow": Q into
GF(2^61 - 1), a transcendental generator to a constant fixed by its level
index, an algebraic level to the shadow below with the image of its
minimal polynomial adjoined.  The map is a ring homomorphism where it is
defined; it is undefined on a rational whose denominator the prime divides
and on a fraction whose denominator's image is not a unit.  If both
leading coefficients survive the map and Euclid on the images ends in a
unit, every leading coefficient it inverted being a unit too, then the
resultant of the images is a unit.  It is the image of Res(num, den), so
that resultant is not 0, and num and den are coprime.  In every other case
(an undefined image, a vanished leading coefficient, a non-unit, a common
factor) the gcd is computed, so the canonical form never depends on the
certificate.  An inverse needs neither: the swapped pair is still coprime,
and only its unit changes.  What stays uncertified is the field property:
over a reducible minimal polynomial the argument still shows
Res(num, den) != 0, but a zero divisor that Euclid would have met along
the way no longer surfaces in a normalisation whose operands are
certified coprime.

Irreducibility is certified only in part.  A minimal polynomial whose
coefficients are all rational is rejected when adjoined if it has a rational
root.  Two cases stay uncertified and are accepted: reducible polynomials
whose factors all have degree >= 2, such as (s^2 - 2)(s^2 - 3), and
polynomials with coefficients above Q, such as s^2 - t^2 over Q(t).  Such a
level is a ring, not a field, and its zero divisors surface as above.

An element prints as a rational function of its generators read as free
variables: a coprime integer numerator and denominator, the denominator's
graded-lex leading coefficient positive.  The pair is built from the rep one
level at a time in Q[x1..xk], clearing coefficient denominators to their lcm;
see ``_dense_pair`` for why no gcd of the final pair is needed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .exact import (
    QQ,
    ZZ,
    DercalcError,
    PolyRing,
    RatFunc,
    _divider,
    _padd,
    _pderiv,
    _pdivmod,
    _pgcd,
    _pmonic,
    _pmul,
    _pneg,
    _pprem,
    _pscale,
    _pstrip,
    bit_size,
    bound_power,
    dense_to_multipoly,
    poly_exquo,
    poly_gcd,
    poly_lcm,
    rational,
)
from .parser import Arithmetic, fold, parse_expr


class TowerError(DercalcError):
    """Base error for tower construction and element arithmetic."""


class TowerMismatchError(TowerError):
    """Two elements from different towers met in one operation."""


class DivisionByZeroElementError(TowerError, ZeroDivisionError):
    """Division by an element that reduces to zero."""


class ZeroDivisorError(TowerError):
    """A zero divisor appeared while inverting; the minimal polynomial
    involved is likely reducible."""


class UnknownSymbolError(TowerError):
    """An expression referenced a symbol the tower does not declare."""


def _rational_root(coeffs: Sequence[Fraction]) -> Optional[Fraction]:
    """A rational root of a square-free polynomial over Q, or None.

    With a the leading coefficient of the polynomial scaled to integer
    coefficients, every rational root has a denominator dividing a, and two
    such fractions lie at least 1/a^2 apart.  Intervals are bisected, keeping
    those where a Sturm sequence counts a real root, until each is narrower
    than 1/a^2; the one candidate in it is then tested exactly.
    """
    scale = math.lcm(*(c.denominator for c in coeffs))
    f = tuple(c * scale for c in coeffs)
    if f[0] == 0:
        return Fraction(0)
    lead = abs(int(f[-1]))

    def value(p, x):
        acc = Fraction(0)
        for c in reversed(p):
            acc = acc * x + c
        return acc

    sturm = [f, _pderiv(QQ, f)]
    while len(sturm[-1]) > 1:
        rem = _pdivmod(QQ, sturm[-2], sturm[-1])[1]
        if not rem:
            break
        sturm.append(_pneg(QQ, rem))

    def sign_changes(x) -> int:
        signs = [v > 0 for v in (value(p, x) for p in sturm) if v != 0]
        return sum(1 for u, v in zip(signs, signs[1:]) if u != v)

    # Cauchy's bound: every root lies strictly inside (-bound, bound).
    bound = 1 + max(abs(c) for c in f[:-1]) / abs(f[-1])
    width = Fraction(1, lead * lead)
    pending = [(-bound, bound)]
    while pending:
        lo, hi = pending.pop()
        if sign_changes(lo) == sign_changes(hi):
            continue
        mid = (lo + hi) / 2
        if hi - lo < width:
            candidate = mid.limit_denominator(lead)
            if value(f, candidate) == 0:
                return candidate
            continue
        if value(f, mid) == 0:
            return mid
        pending += [(lo, mid), (mid, hi)]
    return None


# -- levels ------------------------------------------------------------------


_UNLUCKY = (ZeroDivisionError, ZeroDivisorError)  # what a shadow raises on a non-unit
_ZX = PolyRing(ZZ)


class _LevelTrans:
    """Fraction field of below[name]; reps are (num, den) coefficient tuples
    with gcd(num, den) = 1.

    Over Q the level computes in Z[name]: ``below`` is ZZ, num and den are
    tuples of ints with joint integer content 1, and den's leading
    coefficient is positive.  That is the printed form, and no coefficient
    is a Fraction.  Over a tower level, den is monic.

    Its shadow is the shadow of the level below: ``image`` sends the
    generator to ``point``, a constant fixed by the level index."""

    kind = "transcendental"

    def __init__(self, below, name: str, index: int):
        if below is QQ:
            below = ZZ
        self.below = below
        self.name = name
        self.zero = ((), (below.one,))
        self.one = ((below.one,), (below.one,))
        self.shadow = below.shadow
        if self.shadow is not None:
            # Fibonacci hashing spreads the levels' points over 64 bits.
            self.point = self.shadow.from_rational(Fraction(index * 0x9E3779B97F4A7C15 % 2**64))

    def _at_point(self, poly: tuple):
        S, K = self.shadow, self.below
        acc = S.zero
        for c in reversed(poly):
            acc = S.add(S.mul(acc, self.point), K.image(c))
        return acc

    def image(self, a):
        """The image of a rep in the shadow; raises when its denominator's
        image is not a unit."""
        num, den = a
        if den == (self.below.one,):
            return self._at_point(num)
        return self.shadow.mul(self._at_point(num), self.shadow.inv(self._at_point(den)))

    def _coprime(self, num: tuple, den: tuple) -> bool:
        """True when num and den, nonzero, are certified coprime over the
        level below: one is a constant, or Euclid on their images in the
        shadow keeps both leading coefficients and ends in a unit."""
        if len(num) == 1 or len(den) == 1:
            return True
        K = self.below
        S = K.shadow
        if S is None:
            return False
        try:
            a = tuple(K.image(c) for c in num)
            b = tuple(K.image(c) for c in den)
            return not S.is_zero(a[-1]) and not S.is_zero(b[-1]) and len(_pgcd(S, a, b)) == 1
        except _UNLUCKY:
            return False

    def _normalize(self, num: tuple, den: tuple):
        K = self.below
        num, den = _pstrip(K, num), _pstrip(K, den)
        if not den:
            raise DivisionByZeroElementError("division by zero element")
        if not num:
            return self.zero
        if not self._coprime(num, den):
            g = poly_gcd(_ZX, num, den) if K is ZZ else _pgcd(K, num, den)
            if len(g) > 1:
                num, den = _pdivmod(K, num, g)[0], _pdivmod(K, den, g)[0]
        return self._unit_normal(num, den)

    def _unit_normal(self, num: tuple, den: tuple):
        """The coprime pair num/den scaled by the unit that puts it in
        normal form: over Z, the joint content with den's leading sign;
        over a field, den's leading coefficient."""
        K = self.below
        if K is ZZ:
            c = math.gcd(*num, *den)
            if den[-1] < 0:
                c = -c
            if c == 1:
                return (num, den)
            if c == -1:
                return (tuple(-x for x in num), tuple(-x for x in den))
            return (tuple(x // c for x in num), tuple(x // c for x in den))
        div = _divider(K, den[-1])
        return (tuple(map(div, num)), tuple(map(div, den)))

    def from_rational(self, q: Fraction):
        return self.from_below(q if self.below is ZZ else self.below.from_rational(q))

    def from_below(self, c):
        """A constant: an element of the level below, or over Z a rational
        (or an int) split into its numerator and denominator."""
        if self.below.is_zero(c):
            return self.zero
        if self.below is ZZ:
            return ((c.numerator,), (c.denominator,))
        return ((c,), (self.below.one,))

    def to_below(self, a):
        """The constant rep a as an element of the level below (a Fraction
        over Z); the inverse of ``from_below``."""
        num, den = a
        if self.below is ZZ:
            return Fraction(num[0], den[0]) if num else Fraction(0)
        return num[0] if num else self.below.zero

    def generator(self):
        return ((self.below.zero, self.below.one), (self.below.one,))

    def is_zero(self, a) -> bool:
        return not a[0]

    def add(self, a, b):
        K = self.below
        n = _padd(K, _pmul(K, a[0], b[1]), _pmul(K, b[0], a[1]))
        return self._normalize(n, _pmul(K, a[1], b[1]))

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        return (_pneg(self.below, a[0]), a[1])

    def mul(self, a, b):
        K = self.below
        return self._normalize(_pmul(K, a[0], b[0]), _pmul(K, a[1], b[1]))

    def inv(self, a):
        """The swapped pair, still coprime, so only the unit changes."""
        if not a[0]:
            raise DivisionByZeroElementError("division by zero element")
        return self._unit_normal(a[1], a[0])


class _SelfLift:
    """A coefficient domain that is its own lift ring, with D = 1: a GF(p)
    shadow, an algebraic level, a transcendental level above one."""

    def __init__(self, below):
        self.ring = below

    def common(self, coeffs):
        return coeffs, self.ring.one

    def drop(self, coeffs, den):
        return tuple(map(_divider(self.ring, den), coeffs))


class _RationalLift:
    """Q lifts to Z: D is the lcm of the coefficients' denominators."""

    ring = ZZ

    def common(self, coeffs):
        d = math.lcm(*(c.denominator for c in coeffs))
        return tuple(c.numerator * (d // c.denominator) for c in coeffs), d

    def drop(self, coeffs, den):
        return tuple(Fraction(c, den) for c in coeffs)


class _RationalFunctionLift:
    """The integer Q(t) level lifts to Z[t]: D is the lcm of the
    coefficients' denominators, and a result drops back with one
    ``_normalize`` per coefficient."""

    ring = _ZX

    def __init__(self, below: _LevelTrans):
        self.level = below

    def common(self, coeffs):
        one = (1,)
        d = one
        for _, den in coeffs:
            if den != d and den != one:
                d = den if d == one else self._lcm(d, den)
        return tuple(num if den == d else _pmul(ZZ, num, poly_exquo(_ZX, d, den))
                     for num, den in coeffs), d

    def _lcm(self, a: tuple, b: tuple) -> tuple:
        """lcm in Z[t]: a*b over the gcd of the contents when a and b are
        certified coprime over Q, else a*b over their gcd."""
        if not self.level._coprime(a, b):
            return poly_lcm(_ZX, a, b)
        g = math.gcd(*a, *b)
        return tuple(c // g for c in _pmul(ZZ, a, b))

    def drop(self, coeffs, den):
        return tuple(self.level._normalize(c, den) for c in coeffs)


def _lift_of(below):
    """The lift of an algebraic level's coefficient domain."""
    if below is QQ:
        return _RationalLift()
    if isinstance(below, _LevelTrans) and below.below is ZZ:
        return _RationalFunctionLift(below)
    return _SelfLift(below)


class _LevelAlg(PolyRing):
    """Quotient below[name]/(minpoly); reps are coefficient tuples of length
    under the degree.  minpoly is monic with coefficients from below.

    Products, reductions and inverses run in R[name], R the lift ring of
    the level below (``_lift_of``): Z over Q, Z[t] over the integer Q(t)
    level, the level below itself elsewhere.  An operand's coefficients
    lift to R over one common denominator D, ``lifted`` is minpoly cleared
    of its denominators once, and a result drops back through one
    normalisation per coefficient."""

    kind = "algebraic"

    def __init__(self, below, name: str, minpoly: tuple):
        super().__init__(below)
        self.name = name
        self.minpoly = minpoly
        self.degree = len(minpoly) - 1
        self.lift = _lift_of(below)
        self.lifted = self.lift.common(minpoly)[0]
        self.shadow = self._shadow_level()

    def _shadow_level(self):
        """The shadow of the level below with name adjoined by the image of
        minpoly; None when the level below has no shadow or minpoly has no
        image."""
        S = self.below.shadow
        if S is None:
            return None
        try:
            return _LevelAlg(S, self.name, tuple(self.below.image(c) for c in self.minpoly))
        except _UNLUCKY:
            return None

    def image(self, a):
        """The image of a rep in the shadow, coefficient by coefficient."""
        return _pstrip(self.shadow.below, tuple(self.below.image(c) for c in a))

    def from_below(self, c):
        return _pstrip(self.below, (c,))

    def generator(self):
        return (self.below.zero, self.below.one)

    def _remainder(self, a: tuple, den):
        """a/den reduced modulo minpoly, for a and den over R: the pair
        (r, den*s) with r the pseudo-remainder of a by ``lifted`` and s
        the power of its leading coefficient that r took."""
        R = self.lift.ring
        r, s = _pprem(R, a, self.lifted)
        return r, den if s == R.one else R.mul(den, s)

    def _reduce(self, a):
        if len(a) <= self.degree:
            return _pstrip(self.below, a)
        return self.lift.drop(*self._remainder(*self.lift.common(a)))

    def mul(self, a, b):
        if not a or not b:
            return ()
        L, R = self.lift, self.lift.ring
        (x, dx), (y, dy) = L.common(a), L.common(b)
        den = dx if dy == R.one else dy if dx == R.one else R.mul(dx, dy)
        return L.drop(*self._remainder(_pmul(R, x, y), den))

    def inv(self, a):
        """a^-1 = D*E*w/delta, by fraction-free Gauss-Jordan elimination
        (Bareiss, Math. Comp. 1968) over R.  The columns of the matrix are
        x*name^j reduced modulo ``lifted``, x the lifted a = x/D, all over
        one denominator E, a power of lifted's leading coefficient.  The
        elimination turns [matrix | e0] into [delta*I | w], delta its
        determinant up to sign, every division exact.  delta is 0 exactly
        when the norm of a is, that is when a shares a factor with
        minpoly."""
        if not a:
            raise DivisionByZeroElementError("division by zero element")
        L, m, n = self.lift, self.lifted, self.degree
        R = L.ring
        zero, one, c = R.zero, R.one, m[-1]
        x, den = L.common(a)
        col = list(x) + [zero] * (n - len(x))
        cols = [col]
        for _ in range(1, n):
            top, col = col[-1], [zero] + col[:-1]
            if not R.is_zero(top):
                if c != one:
                    cols = [[R.mul(c, y) for y in v] for v in cols]
                    col = [R.mul(c, y) for y in col]
                    den = R.mul(den, c)
                col = [R.sub(y, R.mul(top, z)) for y, z in zip(col, m)]
            cols.append(col)
        rows = [[v[i] for v in cols] + [one if i == 0 else zero] for i in range(n)]
        prev = one
        for k in range(n):
            p = next((i for i in range(k, n) if not R.is_zero(rows[i][k])), None)
            if p is None:
                raise ZeroDivisorError(
                    f"zero divisor while inverting modulo the minimal polynomial of "
                    f"{self.name!r}; the minimal polynomial is likely reducible"
                )
            rows[k], rows[p] = rows[p], rows[k]
            pivot = rows[k]
            lead = pivot[k]
            exact = _divider(R, prev)
            for i, row in enumerate(rows):
                if i == k:
                    continue
                f = row[k]
                rows[i] = row[:k + 1] + [
                    exact(R.mul(lead, y) if R.is_zero(f) else R.sub(R.mul(lead, y), R.mul(f, z)))
                    for y, z in zip(row[k + 1:], pivot[k + 1:])]
            prev = lead
        w = _pstrip(R, [row[n] for row in rows])
        if den != one:
            w = tuple(R.mul(den, y) for y in w)
        return L.drop(w, prev)


@dataclass(frozen=True)
class GeneratorSpec:
    """Declared generator: transcendental, or algebraic of the given degree
    with the displayed monic minimal polynomial."""

    name: str
    kind: str
    degree: int = 0
    minpoly_text: str = ""


class FieldTower:
    """Immutable chain of generators over Q.

    Towers are identified by construction: elements of two separately built
    towers never mix, even when the declarations look identical.
    """

    def __init__(self, levels: List, gens: Tuple[GeneratorSpec, ...]):
        self._levels = levels
        self.gens = gens
        # rings[k] is Q[x1..xk], where printing clears level k's denominators;
        # Z[x1..xk] above the integer Q(t) level, whose reps are on ints.
        self.rings = [QQ]
        for _ in levels[2:]:
            below = ZZ if len(self.rings) == 1 and levels[1].below is ZZ else self.rings[-1]
            self.rings.append(PolyRing(below))

    @property
    def levels(self) -> List:
        return self._levels

    @property
    def top(self):
        return self._levels[-1]

    @property
    def variables(self) -> Tuple[str, ...]:
        return tuple(g.name for g in self.gens)

    def transcendental_names(self) -> Tuple[str, ...]:
        return tuple(g.name for g in self.gens if g.kind == "transcendental")

    def __str__(self) -> str:
        if not self.gens:
            return "Q"
        parts = ["Q"]
        for g in self.gens:
            parts.append(f"({g.name})")
        return "".join(parts)

    def describe(self) -> str:
        lines = [f"tower {self}"]
        for g in self.gens:
            if g.kind == "transcendental":
                lines.append(f"  {g.name}: transcendental")
            else:
                lines.append(f"  {g.name}: algebraic, minimal polynomial {g.minpoly_text}")
        return "\n".join(lines)

    def _check_name(self, name: str) -> None:
        if not name.isidentifier():
            raise TowerError(f"generator name {name!r} is not an identifier")
        if name in self.variables:
            raise TowerError(f"duplicate generator name {name!r}")

    def adjoin_transcendental(self, name: str) -> "FieldTower":
        self._check_name(name)
        level = _LevelTrans(self.top, name, len(self._levels))
        spec = GeneratorSpec(name, "transcendental")
        return FieldTower(self._levels + [level], self.gens + (spec,))

    def adjoin_algebraic(self, name: str, minpoly: str) -> "FieldTower":
        self._check_name(name)
        coeffs = self._minpoly_coeffs(name, minpoly)
        degree = len(coeffs) - 1
        if degree < 2:
            raise TowerError("algebraic generator needs a minimal polynomial of degree >= 2")
        top = self.top
        if top.is_zero(coeffs[-1]):
            raise TowerError("minimal polynomial has zero leading coefficient")
        monic = _pmonic(top, coeffs)
        deriv = _pderiv(top, monic)
        g = _pgcd(top, monic, deriv)
        if len(g) != 1:
            raise TowerError(
                "minimal polynomial is not square-free: gcd with its derivative "
                "has positive degree"
            )
        lowered = [self.lower_rep(len(self._levels) - 1, c) for c in monic]
        if all(index == 0 for index, _ in lowered):
            root = _rational_root([c for _, c in lowered])
            if root is not None:
                raise TowerError(
                    f"minimal polynomial has the rational root {name} = {root}, "
                    f"so it is reducible"
                )
        level = _LevelAlg(top, name, monic)
        spec = GeneratorSpec(name, "algebraic", degree, _render_minpoly(self, name, monic))
        return FieldTower(self._levels + [level], self.gens + (spec,))

    def _minpoly_coeffs(self, name: str, minpoly: str) -> tuple:
        # The polynomial is an element of self(name), name transcendental;
        # its denominator is a constant unless it involves name.
        num, den = element_eval(self.adjoin_transcendental(name), minpoly).rep
        if len(den) > 1:
            raise TowerError("minimal polynomial must be polynomial in the new generator")
        return _pscale(self.top, num, self.top.inv(den[0]))

    def rational(self, q: Union[int, Fraction, str]) -> "TowerElement":
        return TowerElement(self, self.top.from_rational(rational(q)))

    @property
    def zero(self) -> "TowerElement":
        return self.rational(0)

    @property
    def one(self) -> "TowerElement":
        return self.rational(1)

    def gen(self, name: str) -> "TowerElement":
        names = self.variables
        if name not in names:
            raise UnknownSymbolError(f"unknown generator {name!r}")
        idx = names.index(name) + 1
        rep = self._levels[idx].generator()
        return TowerElement(self, self.embed_rep(idx, rep))

    def embed_rep(self, level_index: int, rep, to: Optional[int] = None):
        """Embed a level rep into a higher level, the top one by default."""
        stop = len(self._levels) if to is None else to + 1
        for level in self._levels[level_index + 1:stop]:
            rep = level.from_below(rep)
        return rep

    def lower_rep(self, level_index: int, rep) -> Tuple[int, object]:
        """The lowest level holding a level rep, and the rep there."""
        while level_index > 0:
            level = self._levels[level_index]
            if level.kind == "algebraic":
                if len(rep) > 1:
                    break
                rep = rep[0] if rep else level.below.zero
            else:
                if len(rep[0]) > 1 or len(rep[1]) > 1:
                    break
                rep = level.to_below(rep)
            level_index -= 1
        return level_index, rep


def tower_new() -> FieldTower:
    return FieldTower([QQ], ())


class TowerElement:
    """Element of a tower in canonical form; arithmetic is exact."""

    __slots__ = ("tower", "rep")

    def __init__(self, tower: FieldTower, rep):
        self.tower = tower
        self.rep = rep

    def _coerce(self, other) -> "TowerElement":
        if isinstance(other, TowerElement):
            if other.tower is not self.tower:
                raise TowerMismatchError("elements belong to different towers")
            return other
        if isinstance(other, (int, Fraction)):
            return self.tower.rational(other)
        raise TypeError(f"cannot combine tower element with {other!r}")

    def __add__(self, other):
        other = self._coerce(other)
        return TowerElement(self.tower, self.tower.top.add(self.rep, other.rep))

    __radd__ = __add__

    def __neg__(self):
        return TowerElement(self.tower, self.tower.top.neg(self.rep))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        return TowerElement(self.tower, self.tower.top.mul(self.rep, other.rep))

    __rmul__ = __mul__

    def inv(self) -> "TowerElement":
        if self.is_zero():
            raise DivisionByZeroElementError("division by zero element")
        return TowerElement(self.tower, self.tower.top.inv(self.rep))

    def __truediv__(self, other):
        return self * self._coerce(other).inv()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inv()

    def __pow__(self, k: int) -> "TowerElement":
        if not isinstance(k, int):
            raise ValueError("tower element powers take integer exponents")
        index, rep = self.tower.lower_rep(len(self.tower.levels) - 1, self.rep)
        size = bit_size(rep) if index == 0 else _degree_bound(self.tower.levels[index], rep)
        bound_power(size, k)
        if k < 0:
            return self.inv() ** (-k)
        result = self.tower.one
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:  # no squaring after the last bit
                base = base * base
        return result

    def is_zero(self) -> bool:
        return self.tower.top.is_zero(self.rep)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.tower.rational(other)
        if not isinstance(other, TowerElement):
            return NotImplemented
        if other.tower is not self.tower:
            raise TowerMismatchError("elements belong to different towers")
        return self.rep == other.rep

    def __hash__(self) -> int:
        return hash((id(self.tower), self.rep))

    def as_ratfunc(self) -> RatFunc:
        """The element as a rational function of its generators, read as
        free variables: a coprime numerator and denominator."""
        variables = self.tower.variables
        num, den = _dense_pair(self.tower, len(variables), self.rep)
        return RatFunc(dense_to_multipoly(variables, num), dense_to_multipoly(variables, den))

    def __str__(self) -> str:
        return str(self.as_ratfunc())

    def __repr__(self) -> str:
        return f"<{self} in {self.tower}>"


def _degree_bound(level, rep) -> int:
    """A bound on the total degree of a level rep in the generators: its
    degree in the level's generator plus the largest of its coefficients'."""
    if level is QQ or level is ZZ or not rep:
        return 0
    coeffs = rep if level.kind == "algebraic" else rep[0] + rep[1]
    top = len(rep) if level.kind == "algebraic" else max(map(len, rep))
    return top - 1 + max(_degree_bound(level.below, c) for c in coeffs)


def element_eq(a: TowerElement, b: TowerElement) -> bool:
    """Exact equality; raises TowerMismatchError across towers."""
    if not isinstance(a, TowerElement) or not isinstance(b, TowerElement):
        raise TypeError("element_eq compares tower elements")
    if a.tower is not b.tower:
        raise TowerMismatchError("elements belong to different towers")
    return a.rep == b.rep


def _dense_pair(tower: FieldTower, index: int, rep) -> tuple:
    """(N, D) in Q[x1..x_index], coprime, with N/D the level rep, the
    generators read as free variables.  Above the integer Q(t) level the
    ring is Z[x1..x_index] (``FieldTower.rings``), its lcms and gcds are
    taken there, and N and D are coprime up to an integer, which the
    printed form's joint integer scale removes.

    At an algebraic level D is the lcm L of the coefficients' denominators.
    A prime factor of L divides some denominator as often as it divides L,
    and not that coefficient's numerator, so no factor of L divides every
    cleared coefficient.  At a transcendental level num/den becomes
    (P/L_num)/(Q/L_den), and only g = gcd(L_num, L_den) cancels.  L_num
    shares no factor with P, nor L_den with Q, as above.  P and Q share
    none either: num and den are coprime over the level below, so a common
    factor would have to lose its leading coefficient there; but that
    coefficient divides L_den, the leading coefficient of Q (den is monic
    over a level above Q, so its leading coefficient is 1 and clears to
    L_den), and L_den does not vanish in the tower (Gauss's lemma).  A
    transcendental level over Q needs none of this: its rep is already a
    coprime pair of integer polynomials, and is returned as it is.
    """
    if index == 0:
        return rep, Fraction(1)
    level = tower.levels[index]
    if level.below is ZZ:
        return rep
    ring = tower.rings[index - 1]
    if level.kind == "algebraic":
        num, den = _cleared(tower, index - 1, ring, rep)
        return num, (den,)
    num, l_num = _cleared(tower, index - 1, ring, rep[0])
    den, l_den = _cleared(tower, index - 1, ring, rep[1])
    if l_num != ring.one and l_den != ring.one:
        g = poly_gcd(ring, l_num, l_den)
        l_num, l_den = poly_exquo(ring, l_num, g), poly_exquo(ring, l_den, g)
    return _pscale(ring, num, l_den), _pscale(ring, den, l_num)


def _cleared(tower: FieldTower, index: int, ring, coeffs: tuple) -> Tuple[tuple, object]:
    """Level-index coefficients as (their multiples by L, L), in ring, with
    L the lcm of their denominators."""
    pairs = [_dense_pair(tower, index, c) for c in coeffs]
    lcm = ring.one
    for _, d in pairs:
        if d != ring.one and d != lcm:
            lcm = d if lcm == ring.one else poly_lcm(ring, lcm, d)
    return tuple(n if d == lcm else ring.mul(n, poly_exquo(ring, lcm, d)) for n, d in pairs), lcm


def _render_minpoly(tower: FieldTower, name: str, coeffs: tuple) -> str:
    parts: List[str] = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if tower.top.is_zero(c):
            continue
        c_str = str(TowerElement(tower, c))
        if i == 0:
            piece = c_str if not _needs_parens(c_str) else f"({c_str})"
        else:
            power = name if i == 1 else f"{name}^{i}"
            if c_str == "1":
                piece = power
            elif c_str == "-1":
                piece = f"-{power}"
            elif _needs_parens(c_str):
                piece = f"({c_str})*{power}"
            else:
                piece = f"{c_str}*{power}"
        parts.append(piece)
    if not parts:
        return "0"
    out = parts[0]
    for piece in parts[1:]:
        if piece.startswith("-"):
            out += f" - {piece[1:]}"
        else:
            out += f" + {piece}"
    return out


def _needs_parens(s: str) -> bool:
    return " " in s or "/" in s or "*" in s


def element_eval(
    tower: FieldTower,
    source,
    derivations: Optional[Dict[str, Callable[[TowerElement], TowerElement]]] = None,
) -> TowerElement:
    """Evaluate an expression (string or parsed tree) to a tower element.

    Symbols must be declared generators; function applications resolve
    through the optional derivations map.
    """
    ast = parse_expr(source) if isinstance(source, str) else source
    return fold(ast, _Elements(tower, derivations or {}))


class _Elements(Arithmetic):
    """Algebra of tower elements: symbols are generators, and function
    applications go through the derivations map."""

    def __init__(self, tower: FieldTower, derivations: Dict[str, Callable]):
        super().__init__(DivisionByZeroElementError)
        self.tower = tower
        self.derivations = derivations

    def num(self, value: Fraction) -> TowerElement:
        return self.tower.rational(value)

    def sym(self, name: str) -> TowerElement:
        return self.tower.gen(name)

    def bin(self, op: str, a: TowerElement, b: TowerElement) -> TowerElement:
        if op == "/" and b.is_zero():
            raise DivisionByZeroElementError("division by an element that reduces to zero")
        return super().bin(op, a, b)

    def apply(self, func: str, *args: TowerElement) -> TowerElement:
        fn = self.derivations.get(func)
        if fn is None:
            raise UnknownSymbolError(f"unknown function {func!r}")
        if len(args) != 1:
            raise TowerError(f"{func!r} takes one argument, got {len(args)}")
        return fn(*args)
