"""Exact arithmetic substrate: rationals, polynomials, and finite carriers.

Every quantity in this package is exact.  Rationals are ``fractions.Fraction``
(already normalized: coprime numerator/denominator, positive denominator).

One polynomial kernel serves the tower levels, the derivations and the
printer: coefficient tuples over a coefficient domain.  It has one long
division and one pseudo-remainder for every domain; a coefficient divides
by multiplying with an inverse over a field (Q, GF(p) or a tower level)
and by exact quotients over Z and polynomial rings.  Over a field, gcds
come from Euclid.  Over Q[x1..xn], nested as Q[x1][x2]...[xn], and over
Z[x], they come from a primitive pseudo-remainder sequence with rational
or integer contents at the bottom.

``MultiPoly`` is the sparse display format: an explicit variable tuple and
graded-lexicographic term order.  It is also the sparse kernel the
higher-order derivations (``higher``) compute on, because d_k of a high
power touches few monomials.  On a 2-vCPU host d_2(t^1000) takes about
0.2 s here; a trial port of ``hod`` to dense coefficient tuples, not
kept, took 10.6 s.  ``RatFunc`` is the printed normal form of a tower
element: a coprime numerator and denominator, scaled jointly to coprime
integer coefficients with a positive graded-lex leading denominator
coefficient.
"""
from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Sequence, Tuple, Union

Rational = Fraction


class DercalcError(Exception):
    """Base of every error dercalc reports; the command line exits with its
    `exit_code`: 2, the input was unusable, or 1, a check failed with a witness."""

    exit_code = 2


class ExactError(DercalcError):
    """Base error for the exact-arithmetic layer."""


class BudgetError(ExactError):
    """An enumeration or table request exceeded the configured budget."""


def default_budget() -> int:
    """The work budget: solutions listed by elimination, table entries
    placed by a backtracking search, tuples run by a check, or the size of
    a power's result.  DERCALC_BUDGET overrides the 10^7 default."""
    return int(os.environ.get("DERCALC_BUDGET", 10_000_000))


def bit_size(q: Fraction) -> int:
    """The size of a rational as the base of a power: the bit length of its
    numerator or denominator, whichever is longer, and 0 for 0 and +-1,
    whose powers stay as small."""
    if q == 0 or abs(q.numerator) == q.denominator:
        return 0
    return max(abs(q.numerator).bit_length(), q.denominator.bit_length())


def bound_power(size: int, e: int) -> None:
    """Refuses, before it is built, a power base^e whose |e| times the
    size of its base (a degree, or the `bit_size` of a constant) exceeds
    the budget."""
    budget = default_budget()
    if abs(e) * size > budget:
        raise BudgetError(f"power ^{e} of a base of size {size} exceeds budget {budget}; "
                          f"raise it with DERCALC_BUDGET")


def bound_sample(sample: int) -> None:
    """Refuses a sampled check of more tuples than the budget, before a
    tuple is drawn."""
    budget = default_budget()
    if sample > budget:
        raise BudgetError(f"sample of {sample} tuples exceeds budget {budget}; "
                          f"raise it with DERCALC_BUDGET")


def bound_exhaustive(tuples: int) -> None:
    """Refuses an exhaustive check of more tuples than the budget, before
    a table is built."""
    budget = default_budget()
    if tuples > budget:
        raise BudgetError(f"exhaustive check of {tuples} tuples exceeds budget {budget}; "
                          f"raise it with DERCALC_BUDGET")


def bound_recovery(n: int, dim: int) -> None:
    """Refuses, before the function is called, a recovery of degree n on
    Q^dim (`multiadd.recover_components`) whose work exceeds the budget:
    its C(n + dim, dim) monomials evaluated at the C(n + dim, dim) points
    of the simplex and the 5^dim points of the grid [-2, 2]^dim."""
    budget = default_budget()
    # 5^dim > 2^dim > budget once dim reaches the budget's bit length.
    if dim >= budget.bit_length():
        work = f"5^{dim} grid points"
    else:
        monomials = math.comb(n + dim, dim)
        if (monomials + 5 ** dim) * monomials <= budget:
            return
        work = f"{monomials} monomials at {monomials} + 5^{dim} points"
    raise BudgetError(f"recovery of degree {n} in dimension {dim} evaluates {work}, "
                      f"over budget {budget}; raise it with DERCALC_BUDGET")


class NotDivisibleError(ExactError):
    """Exact polynomial division was requested but leaves a remainder."""


def rational(value: Union[int, str, Fraction]) -> Fraction:
    """Coerce an int, Fraction, or string like '3/4' to an exact Rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot coerce {value!r} to a rational")


def _grlex_key(exponents: Tuple[int, ...]) -> Tuple:
    return (sum(exponents), exponents)


Scalar = Union[int, Fraction]


class MultiPoly:
    """Multivariate polynomial over the rationals.

    Terms map exponent vectors (one entry per declared variable) to nonzero
    rational coefficients.  Instances are treated as immutable; all operations
    return fresh polynomials.  Operands must share the same variable tuple.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Tuple[str, ...], terms: Dict[Tuple[int, ...], Fraction]):
        self.variables = tuple(variables)
        clean: Dict[Tuple[int, ...], Fraction] = {}
        width = len(self.variables)
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != width:
                raise ValueError("exponent vector width does not match variables")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent in polynomial term")
            c = rational(coeff)
            if c != 0:
                clean[exps] = clean.get(exps, Fraction(0)) + c
                if clean[exps] == 0:
                    del clean[exps]
        self.terms = clean

    @classmethod
    def const(cls, variables: Sequence[str], value: Scalar) -> "MultiPoly":
        c = rational(value)
        if c == 0:
            return cls(tuple(variables), {})
        return cls(tuple(variables), {tuple(0 for _ in variables): c})

    @classmethod
    def var(cls, variables: Sequence[str], name: str) -> "MultiPoly":
        variables = tuple(variables)
        if name not in variables:
            raise ValueError(f"unknown variable {name!r}")
        exps = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, {exps: Fraction(1)})

    def _coerce(self, other: Union["MultiPoly", Scalar]) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            if other.variables != self.variables:
                raise ValueError("polynomials declared over different variables")
            return other
        return MultiPoly.const(self.variables, other)

    def __add__(self, other: Union["MultiPoly", Scalar]) -> "MultiPoly":
        other = self._coerce(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = terms.get(exps, Fraction(0)) + coeff
            if acc == 0:
                terms.pop(exps, None)
            else:
                terms[exps] = acc
        return MultiPoly(self.variables, terms)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: Union["MultiPoly", Scalar]) -> "MultiPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other: Scalar) -> "MultiPoly":
        return self._coerce(other) - self

    def __mul__(self, other: Union["MultiPoly", Scalar]) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            c = rational(other)
            return MultiPoly(self.variables, {e: k * c for e, k in self.terms.items()})
        other = self._coerce(other)
        terms: Dict[Tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                acc = terms.get(exps, Fraction(0)) + c1 * c2
                if acc == 0:
                    terms.pop(exps, None)
                else:
                    terms[exps] = acc
        return MultiPoly(self.variables, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MultiPoly":
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers take nonnegative integer exponents")
        size = bit_size(self.constant_value()) if self.is_constant() else self.total_degree()
        bound_power(size, k)
        result = MultiPoly.const(self.variables, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:  # no squaring after the last bit
                base = base * base
        return result

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()), Fraction(0))

    def total_degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def leading(self) -> Tuple[Tuple[int, ...], Fraction]:
        """Leading (exponents, coefficient) under graded-lex order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms, key=_grlex_key)
        return exps, self.terms[exps]

    def coefficient(self, exps: Tuple[int, ...]) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def substitute(self, assignment: Dict[str, Fraction]) -> Fraction:
        """Evaluate at a full rational point; every variable must be bound."""
        missing = [v for v in self.variables if v not in assignment]
        if missing:
            raise ValueError(f"unbound variables in substitution: {missing}")
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            term = coeff
            for v, e in zip(self.variables, exps):
                if e:
                    term *= rational(assignment[v]) ** e
            total += term
        return total

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.variables, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.variables, tuple(sorted(self.terms.items()))))

    def sorted_terms(self) -> List[Tuple[Tuple[int, ...], Fraction]]:
        return sorted(self.terms.items(), key=lambda item: _grlex_key(item[0]), reverse=True)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: List[str] = []
        for exps, coeff in self.sorted_terms():
            mono = "*".join(
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self.variables, exps)
                if e > 0
            )
            mag = abs(coeff)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if coeff > 0 else f" - {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"MultiPoly({self})"


def poly_formal_derivative(p: MultiPoly, name: str) -> MultiPoly:
    """Formal partial derivative with respect to one declared variable."""
    idx = p.variables.index(name)
    terms: Dict[Tuple[int, ...], Fraction] = {}
    for exps, coeff in p.terms.items():
        e = exps[idx]
        if e == 0:
            continue
        lowered = tuple(x - 1 if i == idx else x for i, x in enumerate(exps))
        terms[lowered] = terms.get(lowered, Fraction(0)) + coeff * e
    return MultiPoly(p.variables, terms)


# -- coefficient-tuple polynomials ------------------------------------------
#
# A polynomial over a coefficient domain is a tuple of domain elements,
# lowest degree first, with no trailing zeros; () is the zero polynomial.
# A domain is any object with zero, one, is_zero, add, sub, neg, mul and
# from_rational: the rationals, GF(p), a tower level, or a PolyRing.  A domain
# with inv is a field.  Division is decided once, in `_divider`: over a field
# it multiplies by the divisor's inverse, taken once, and elsewhere (Z, a
# PolyRing) it takes exact quotients.  `_pdivmod` is the one long division
# and `_pprem` the one pseudo-remainder, for every domain; Euclid (`_pgcd`)
# and `_pmonic` need a field.


def _pstrip(level, coeffs) -> tuple:
    cs = list(coeffs)
    while cs and level.is_zero(cs[-1]):
        cs.pop()
    return tuple(cs)


def _padd(level, a, b) -> tuple:
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else level.zero
        y = b[i] if i < len(b) else level.zero
        out.append(level.add(x, y))
    return _pstrip(level, out)


def _pneg(level, a) -> tuple:
    return tuple(level.neg(x) for x in a)


def _psub(level, a, b) -> tuple:
    return _padd(level, a, _pneg(level, b))


def _pmul(level, a, b) -> tuple:
    if not a or not b:
        return ()
    out = [level.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if level.is_zero(x):
            continue
        for j, y in enumerate(b):
            out[i + j] = level.add(out[i + j], level.mul(x, y))
    return _pstrip(level, out)


def _pscale(level, a, c) -> tuple:
    return _pstrip(level, tuple(level.mul(x, c) for x in a))


def _divider(K, b):
    """x -> x / b in K, b nonzero: the identity when b is one, over a field
    the product with b's inverse, taken once, elsewhere `_exquo`."""
    if b == K.one:
        return lambda x: x
    inv = getattr(K, "inv", None)
    if inv is None:
        return lambda x: _exquo(K, x, b)
    c = inv(b)
    return lambda x: K.mul(x, c)


def _pdivmod(level, a, b) -> Tuple[tuple, tuple]:
    """(q, r) with a = q*b + r and r shorter than b.  Outside a field,
    raises NotDivisibleError when b's leading coefficient does not divide
    a step's top coefficient."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    div = _divider(level, b[-1])
    rem = list(a)
    quo = [level.zero] * max(0, len(a) - len(b) + 1)
    while len(rem) >= len(b):
        top = rem.pop()
        if level.is_zero(top):
            continue
        shift = len(rem) - len(b) + 1
        quo[shift] = q = div(top)
        for i in range(len(b) - 1):
            rem[shift + i] = level.sub(rem[shift + i], level.mul(q, b[i]))
    return _pstrip(level, quo), _pstrip(level, rem)


def _pmonic(level, a) -> tuple:
    return tuple(map(_divider(level, a[-1]), a)) if a else a


def _pgcd(level, a, b) -> tuple:
    a, b = _pstrip(level, a), _pstrip(level, b)
    while b:
        a, b = b, _pdivmod(level, a, b)[1]
    return _pmonic(level, a)


def _pderiv(level, a) -> tuple:
    out = []
    for i in range(1, len(a)):
        out.append(level.mul(a[i], level.from_rational(Fraction(i))))
    return _pstrip(level, out)


# -- Q[x1][x2]...[xn] ---------------------------------------------------------
#
# Multivariate polynomials nest coefficient tuples: an element of
# Q[x1..xk] is a tuple over Q[x1..x(k-1)], with Fractions at the bottom
# (ints at the bottom of Z[x]).
# Gcds use the primitive pseudo-remainder sequence (Collins 1967, Brown and
# Traub 1971): contents come off through gcds one ring down, and each
# pseudo-remainder is cut to its primitive part, so the coefficients stay
# the size of the inputs' instead of growing with every step.


class PrimeField:
    """GF(p) as a coefficient domain, p prime; elements are ints in range(p).

    It is the shadow of Q: the image of a rational is its residue mod p.
    Nothing maps further down, so it has no shadow of its own."""

    zero = 0
    one = 1
    is_zero = operator.not_
    shadow = None

    def __init__(self, p: int):
        self.p = p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def from_rational(self, q: Fraction):
        """q mod p; raises ZeroDivisionError when p divides q's denominator."""
        return q.numerator * self.inv(q.denominator % self.p) % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("division by zero")
        return pow(a, -1, self.p)


GF_SHADOW = PrimeField(2**61 - 1)


class RationalField:
    """Q as a coefficient domain; elements are Fractions (an int is read
    as one).  Its shadow is GF(2^61 - 1); see ``towers`` for what the
    shadows certify."""

    zero = Fraction(0)
    one = Fraction(1)
    add, sub, mul, neg = operator.add, operator.sub, operator.mul, operator.neg
    is_zero = operator.not_
    shadow = GF_SHADOW
    image = GF_SHADOW.from_rational

    def from_rational(self, q: Fraction):
        return q

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("division by zero")
        return Fraction(1, a)


QQ = RationalField()


class IntegerRing:
    """Z as a coefficient domain; elements are ints.  Its shadow is
    GF(2^61 - 1) too, where an integer's image is its residue and needs
    no inverse.  It has no inv, so it divides by exact quotients and runs
    the primitive PRS of ``poly_gcd``, not Euclid."""

    zero = 0
    one = 1
    add, sub, mul, neg = operator.add, operator.sub, operator.mul, operator.neg
    is_zero = operator.not_
    shadow = GF_SHADOW

    def image(self, c: int) -> int:
        return c % GF_SHADOW.p

    def from_rational(self, q: Fraction) -> int:
        if q.denominator != 1:
            raise ValueError(f"{q} is not an integer")
        return q.numerator


ZZ = IntegerRing()


class PolyRing:
    """The ring below[x] of coefficient tuples: Q[x1] over QQ, Z[x1] over
    ZZ, and Q[x1..xn] over Q[x1..x(n-1)]."""

    def __init__(self, below):
        self.below = below
        self.zero = ()
        self.one = (below.one,)

    def from_rational(self, q: Fraction):
        return _pstrip(self.below, (self.below.from_rational(q),))

    def is_zero(self, a) -> bool:
        return not a

    def add(self, a, b):
        return _padd(self.below, a, b)

    def sub(self, a, b):
        return _psub(self.below, a, b)

    def neg(self, a):
        return _pneg(self.below, a)

    def mul(self, a, b):
        return _pmul(self.below, a, b)


def _exquo(K, a, b):
    """a / b in K; raises NotDivisibleError when b does not divide a."""
    if isinstance(K, PolyRing):
        return poly_exquo(K, a, b)
    if K is ZZ:
        q, r = divmod(a, b)
        if r:
            raise NotDivisibleError(f"{b} does not divide {a}")
        return q
    return Fraction(a, b)


def _gcd(K, a, b):
    """gcd in K; over Z, the nonnegative integer gcd; over Q, the positive
    rational c making a/c and b/c coprime integers."""
    if isinstance(K, PolyRing):
        return poly_gcd(K, a, b)
    if K is ZZ:
        return math.gcd(a, b)
    num = math.gcd(a.numerator * b.denominator, b.numerator * a.denominator)
    return Fraction(num, a.denominator * b.denominator)


def poly_exquo(ring: PolyRing, a: tuple, b: tuple) -> tuple:
    """a / b in ring; raises NotDivisibleError when b does not divide a."""
    q, r = _pdivmod(ring.below, a, b)
    if r:
        raise NotDivisibleError("polynomial division leaves a remainder")
    return q


def _primitive(K, a: tuple) -> Tuple[object, tuple]:
    """The content of a (the gcd of its coefficients, in K) and a over it."""
    c = K.zero
    for x in a:
        c = _gcd(K, c, x)
        if c == K.one:
            return c, a
    return c, tuple(_exquo(K, x, c) for x in a)


def _pprem(K, a: tuple, b: tuple) -> Tuple[tuple, object]:
    """(r, s): the pseudo-remainder r of a by b, with s*a = q*b + r for s
    the power of b's leading coefficient taken, one factor per nonzero
    step (none when that coefficient is one)."""
    lc, n = b[-1], len(b) - 1
    s = K.one
    r = list(a)
    while len(r) > n:
        top = r.pop()
        if K.is_zero(top):
            continue
        if lc != K.one:
            r = [K.mul(lc, x) for x in r]
            s = K.mul(s, lc)
        shift = len(r) - n
        for i, y in enumerate(b[:-1]):
            if not K.is_zero(y):
                r[shift + i] = K.sub(r[shift + i], K.mul(top, y))
    return _pstrip(K, r), s


def poly_gcd(ring: PolyRing, a: tuple, b: tuple) -> tuple:
    """gcd of a and b in Q[x1..xn] or Z[x], found by a primitive PRS in xn.

    The gcd is the gcd of the two contents (taken one ring down) times the
    primitive part of the last nonzero pseudo-remainder.  It comes out
    normalised: that primitive part has a positive leading rational
    coefficient (leading in xn, then in x(n-1), ...), and at Q[x1] (Z[x])
    the content is the positive rational (integer) gcd of the coefficients.
    """
    K = ring.below
    (ca, a), (cb, b) = _primitive(K, a), _primitive(K, b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        if len(b) == 1:
            a = (K.one,)
            break
        a, b = b, _primitive(K, _pprem(K, a, b)[0])[1]
    if not a:
        return a
    lead = a[-1]
    while isinstance(lead, tuple):
        lead = lead[-1]
    return _pscale(K, a if lead > 0 else _pneg(K, a), _gcd(K, ca, cb))


def poly_lcm(ring: PolyRing, a: tuple, b: tuple) -> tuple:
    """lcm of nonzero a and b, a*b over their gcd."""
    return poly_exquo(ring, _pmul(ring.below, a, b), poly_gcd(ring, a, b))


def dense_to_multipoly(variables: Tuple[str, ...], p) -> MultiPoly:
    """The MultiPoly of an element of Q[x1..xn], xi named variables[i-1]."""
    terms = {(): p}
    for _ in variables:
        terms = {(e,) + exps: c for exps, poly in terms.items() for e, c in enumerate(poly)}
    return MultiPoly(variables, terms)


class RatFunc:
    """A rational function as a normalised coprime pair.

    The caller passes num and den with no common factor.  They are scaled
    jointly to coprime integer coefficients with a positive graded-lex
    leading denominator coefficient, so equal functions print identically.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly):
        if num.is_zero():
            den = MultiPoly.const(num.variables, 1)
        scale = _joint_integer_scale(num, den)
        self.num = num * scale
        self.den = den * scale

    @property
    def variables(self) -> Tuple[str, ...]:
        return self.num.variables

    def __str__(self) -> str:
        if self.den == MultiPoly.const(self.variables, 1):
            return str(self.num)
        num_s = str(self.num)
        if len(self.num.terms) > 1:
            num_s = f"({num_s})"
        den_s = str(self.den)
        if not _is_single_factor(self.den):
            den_s = f"({den_s})"
        return f"{num_s}/{den_s}"


def _is_single_factor(p: MultiPoly) -> bool:
    """True when str(p) reparses as one factor: a bare constant or var^k."""
    if len(p.terms) != 1:
        return False
    exps, coeff = next(iter(p.terms.items()))
    nontrivial = [e for e in exps if e > 0]
    if not nontrivial:
        return coeff.denominator == 1 and coeff >= 0
    return coeff == 1 and len(nontrivial) == 1


def _joint_integer_scale(num: MultiPoly, den: MultiPoly) -> Fraction:
    coeffs = [*num.terms.values(), *den.terms.values()]
    scale = Fraction(math.lcm(*(c.denominator for c in coeffs)),
                     math.gcd(*(c.numerator for c in coeffs)))
    return scale if den.leading()[1] > 0 else -scale


# -- finite carriers --------------------------------------------------------


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class Inadmissible(Exception):
    """The carrier does not define this value: a divisor that is not a unit
    of a finite carrier, a zero divisor or an inexact quotient on a window,
    or a function argument outside a window."""


_RING_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul}


@dataclass(frozen=True)
class FiniteCarrier:
    """Modular carrier: the ring Z/n ('zmod') or the prime field GF(p) ('gf').

    It is also the algebra of its values, as `parser.compiled` drives one
    and feq's generated code calls it: results are reduced modulo n, and a
    division by a non-unit raises Inadmissible."""

    kind: str
    modulus: int

    def __post_init__(self):
        if self.kind not in ("zmod", "gf"):
            raise ValueError("carrier kind must be 'zmod' or 'gf'")
        if self.modulus < 2:
            raise ValueError("carrier modulus must be at least 2")
        if self.kind == "gf" and not _is_prime(self.modulus):
            raise ValueError(f"{self.modulus} is not prime; GF carrier rejected")

    @property
    def characteristic(self) -> int:
        return self.modulus

    @property
    def size(self) -> int:
        return self.modulus

    def elements(self) -> Iterator[int]:
        return iter(range(self.modulus))

    def units(self) -> List[int]:
        return [a for a in range(self.modulus) if math.gcd(a, self.modulus) == 1]

    def reduce(self, v: int) -> int:
        return v % self.modulus

    def num(self, q: Fraction) -> int:
        return self.bin("/", q.numerator, q.denominator)

    def neg(self, a: int) -> int:
        return -a % self.modulus

    def pow(self, a: int, e: int) -> int:
        try:
            return pow(a, e, self.modulus)
        except ValueError:  # a negative power of a non-unit
            raise Inadmissible from None

    def bin(self, op: str, a: int, b: int) -> int:
        if op == "/":
            op, b = "*", self.pow(b, -1)
        return _RING_OPS[op](a, b) % self.modulus

    def __str__(self) -> str:
        return f"GF({self.modulus})" if self.kind == "gf" else f"Z/{self.modulus}"


def zmod(n: int) -> FiniteCarrier:
    return FiniteCarrier("zmod", n)


def gf(p: int) -> FiniteCarrier:
    return FiniteCarrier("gf", p)


@dataclass(frozen=True)
class IntegerWindow:
    """Finite slice of the integers used as a brute-force carrier.

    An equation "holds on the window" when it holds for every argument tuple
    whose function arguments stay inside the window; escaping tuples are
    skipped and counted by the checkers.  Enumeration runs 0, 1, -1, 2, -2,
    ... clipped to [lo, hi], so reported witnesses are small.

    Its algebra is exact integer arithmetic: a division by zero or one that
    leaves a remainder raises Inadmissible, and a power is bounded as
    `bound_power` bounds an exact one."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("empty integer window")

    @property
    def characteristic(self) -> int:
        return 0

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    def contains(self, a: int) -> bool:
        return self.lo <= a <= self.hi

    def elements(self) -> Iterator[int]:
        if self.contains(0):
            yield 0
        for mag in range(1, max(abs(self.lo), abs(self.hi)) + 1):
            if self.contains(mag):
                yield mag
            if self.contains(-mag):
                yield -mag

    def reduce(self, v: int) -> int:
        return v

    def num(self, q: Fraction) -> int:
        return self.bin("/", q.numerator, q.denominator)

    def neg(self, a: int) -> int:
        return -a

    def pow(self, a: int, e: int) -> int:
        bound_power(bit_size(a), e)
        return a ** e if e >= 0 else self.bin("/", 1, a ** -e)

    def bin(self, op: str, a: int, b: int) -> int:
        if op != "/":
            return _RING_OPS[op](a, b)
        if b == 0 or a % b:
            raise Inadmissible
        return a // b

    def __str__(self) -> str:
        return f"Z[{self.lo},{self.hi}]"


Carrier = Union[FiniteCarrier, IntegerWindow]
