"""Exact arithmetic substrate: rationals, multivariate polynomials, rational
functions, and finite carriers.

Every quantity in this package is exact.  Rationals are ``fractions.Fraction``
(already normalized: coprime numerator/denominator, positive denominator).
Polynomials carry an explicit variable tuple; the monomial order is
graded-lexicographic by declared variable order and every canonical form
below is stated relative to that order.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

Rational = Fraction


class ExactError(Exception):
    """Base error for the exact-arithmetic layer."""


class BudgetError(ExactError):
    """An enumeration or table request exceeded the configured budget."""


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
        result = MultiPoly.const(self.variables, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
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

    def degree_in(self, name: str) -> int:
        idx = self.variables.index(name)
        if not self.terms:
            return -1
        return max(e[idx] for e in self.terms)

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


# -- univariate views -------------------------------------------------------
#
# gcd and exact division work on a polynomial viewed as univariate in one
# "main" variable with MultiPoly coefficients (main-variable exponent zero).


def _univariate_view(p: MultiPoly, name: str) -> Dict[int, MultiPoly]:
    idx = p.variables.index(name)
    buckets: Dict[int, Dict[Tuple[int, ...], Fraction]] = {}
    for exps, coeff in p.terms.items():
        d = exps[idx]
        rest = tuple(x if i != idx else 0 for i, x in enumerate(exps))
        buckets.setdefault(d, {})[rest] = coeff
    return {d: MultiPoly(p.variables, t) for d, t in buckets.items()}


def _from_univariate(coeffs: Dict[int, MultiPoly], variables: Tuple[str, ...], name: str) -> MultiPoly:
    idx = variables.index(name)
    terms: Dict[Tuple[int, ...], Fraction] = {}
    for d, poly in coeffs.items():
        for exps, coeff in poly.terms.items():
            lifted = tuple(x if i != idx else d for i, x in enumerate(exps))
            terms[lifted] = terms.get(lifted, Fraction(0)) + coeff
    return MultiPoly(variables, terms)


def poly_divexact(p: MultiPoly, d: MultiPoly) -> MultiPoly:
    """Exact division p / d; raises NotDivisibleError on any remainder."""
    if d.is_zero():
        raise ZeroDivisionError("exact division by the zero polynomial")
    if p.is_zero():
        return MultiPoly(p.variables, {})
    if d.is_constant():
        c = d.constant_value()
        return p * (1 / c)
    main = next(v for v in d.variables if d.degree_in(v) > 0)
    num = _univariate_view(p, main)
    den = _univariate_view(d, main)
    dd = max(den)
    lead = den[dd]
    quotient: Dict[int, MultiPoly] = {}
    while num:
        dn = max(num)
        if dn < dd:
            raise NotDivisibleError("polynomial division leaves a remainder")
        q = poly_divexact(num[dn], lead)
        quotient[dn - dd] = q
        for k, c in den.items():
            shift = dn - dd + k
            acc = num.get(shift, MultiPoly.const(p.variables, 0)) - q * c
            if acc.is_zero():
                num.pop(shift, None)
            else:
                num[shift] = acc
    return _from_univariate(quotient, p.variables, main)


def _int_content_and_sign(p: MultiPoly) -> Fraction:
    """Rational c such that p / c has coprime integer coefficients and a
    positive graded-lex leading coefficient.  Zero maps to 1."""
    if p.is_zero():
        return Fraction(1)
    denom_lcm = 1
    for coeff in p.terms.values():
        denom_lcm = denom_lcm * coeff.denominator // math.gcd(denom_lcm, coeff.denominator)
    numer_gcd = 0
    for coeff in p.terms.values():
        numer_gcd = math.gcd(numer_gcd, abs(coeff.numerator * (denom_lcm // coeff.denominator)))
    content = Fraction(numer_gcd, denom_lcm)
    _, lc = p.leading()
    return content if lc > 0 else -content


def poly_primitive(p: MultiPoly) -> MultiPoly:
    """Primitive associate: coprime integer coefficients, positive leading one."""
    if p.is_zero():
        return p
    return p * (1 / _int_content_and_sign(p))


def _prem(a: Dict[int, MultiPoly], b: Dict[int, MultiPoly], variables: Tuple[str, ...]) -> Dict[int, MultiPoly]:
    """Pseudo-remainder of univariate views: lc(b)^(da-db+1) * a mod b."""
    da, db = max(a), max(b)
    lead_b = b[db]
    r = dict(a)
    for _ in range(da - db + 1):
        if not r:
            break
        dr = max(r)
        if dr < db:
            r = {k: v * lead_b for k, v in r.items()}
            continue
        lead_r = r[dr]
        nxt: Dict[int, MultiPoly] = {}
        for k, v in r.items():
            if k != dr:
                nxt[k] = v * lead_b
        for k, v in b.items():
            if k != db:
                shift = dr - db + k
                acc = nxt.get(shift, MultiPoly.const(variables, 0)) - lead_r * v
                if acc.is_zero():
                    nxt.pop(shift, None)
                else:
                    nxt[shift] = acc
        r = nxt
    return {k: v for k, v in r.items() if not v.is_zero()}


def _gcd_many(polys: Sequence[MultiPoly]) -> MultiPoly:
    acc = polys[0]
    for p in polys[1:]:
        acc = poly_gcd(acc, p)
        if acc.is_constant() and not acc.is_zero():
            break
    return acc


def poly_gcd(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Full gcd (content included), primitive with positive leading coefficient.

    Computed by content/primitive-part splitting with a subresultant
    pseudo-remainder sequence in the main variable: the occurring variable
    of least degree in p and q, the first declared on a tie.  The remainder
    sequence is then as short as it can be; the gcd, normalised, is the same
    whichever variable is main.
    """
    if p.variables != q.variables:
        raise ValueError("polynomials declared over different variables")
    if p.is_zero() and q.is_zero():
        return MultiPoly(p.variables, {})
    if p.is_zero():
        return poly_primitive(q) * _content_gcd(q, q)
    if q.is_zero():
        return poly_primitive(p) * _content_gcd(p, p)
    content = _content_gcd(p, q)
    a, b = poly_primitive(p), poly_primitive(q)
    if a.is_constant() or b.is_constant():
        return MultiPoly.const(p.variables, 1) * content
    degrees = {v: max(a.degree_in(v), b.degree_in(v)) for v in p.variables}
    occurring = [v for v in p.variables if degrees[v] > 0]
    if not occurring:
        return MultiPoly.const(p.variables, 1) * content
    main = min(occurring, key=degrees.__getitem__)
    if a.degree_in(main) == 0 or b.degree_in(main) == 0:
        flat = a if a.degree_in(main) == 0 else b
        other = b if flat is a else a
        other_cont = _gcd_many(list(_univariate_view(other, main).values()))
        return poly_primitive(poly_gcd(flat, other_cont)) * content
    ua, ub = _univariate_view(a, main), _univariate_view(b, main)
    cont_a = _gcd_many(list(ua.values()))
    cont_b = _gcd_many(list(ub.values()))
    cont_ab = poly_gcd(cont_a, cont_b)
    aa = {k: poly_divexact(v, cont_a) for k, v in ua.items()}
    bb = {k: poly_divexact(v, cont_b) for k, v in ub.items()}
    if max(aa) < max(bb):
        aa, bb = bb, aa
    one = MultiPoly.const(p.variables, 1)
    g = one
    h = one
    while True:
        delta = max(aa) - max(bb)
        rem = _prem(aa, bb, p.variables)
        if not rem:
            break
        if max(rem) == 0:
            bb = {0: one}
            break
        divisor = g * h ** delta
        aa, bb = bb, {k: poly_divexact(v, divisor) for k, v in rem.items()}
        g = aa[max(aa)]
        if delta > 0:
            h = poly_divexact(g ** delta, h ** (delta - 1)) if delta > 1 else g
    result = _from_univariate(bb, p.variables, main)
    result_pp = poly_primitive(result)
    coeff_cont = _gcd_many(list(_univariate_view(result_pp, main).values()))
    if not coeff_cont.is_constant():
        result_pp = poly_divexact(result_pp, coeff_cont)
    return poly_primitive(result_pp * cont_ab) * content


def _content_gcd(p: MultiPoly, q: MultiPoly) -> Fraction:
    """gcd of the rational contents of two polynomials (positive)."""
    cp = abs(_int_content_and_sign(p))
    cq = abs(_int_content_and_sign(q))
    num = math.gcd(cp.numerator * cq.denominator, cq.numerator * cp.denominator)
    den = cp.denominator * cq.denominator
    return Fraction(num, den)


class RatFunc:
    """Rational function in normalized form.

    Numerator and denominator are jointly scaled to coprime integer
    polynomials with gcd 1 and a positive graded-lex leading denominator
    coefficient, so equal functions have identical representations.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: Union[MultiPoly, Scalar, None] = None):
        if den is None:
            den = MultiPoly.const(num.variables, 1)
        elif not isinstance(den, MultiPoly):
            den = MultiPoly.const(num.variables, den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.variables != den.variables:
            raise ValueError("numerator and denominator declared over different variables")
        if num.is_zero():
            self.num = MultiPoly(num.variables, {})
            self.den = MultiPoly.const(num.variables, 1)
            return
        g = poly_gcd(num, den)
        num = poly_divexact(num, g)
        den = poly_divexact(den, g)
        scale = _joint_integer_scale(num, den)
        self.num = num * scale
        self.den = den * scale

    @property
    def variables(self) -> Tuple[str, ...]:
        return self.num.variables

    @classmethod
    def const(cls, variables: Sequence[str], value: Scalar) -> "RatFunc":
        return cls(MultiPoly.const(variables, value))

    @classmethod
    def var(cls, variables: Sequence[str], name: str) -> "RatFunc":
        return cls(MultiPoly.var(variables, name))

    def _coerce(self, other: Union["RatFunc", MultiPoly, Scalar]) -> "RatFunc":
        if isinstance(other, RatFunc):
            if other.variables != self.variables:
                raise ValueError("rational functions declared over different variables")
            return other
        if isinstance(other, MultiPoly):
            return RatFunc(other)
        return RatFunc.const(self.variables, other)

    def __add__(self, other: Union["RatFunc", MultiPoly, Scalar]) -> "RatFunc":
        other = self._coerce(other)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __sub__(self, other: Union["RatFunc", MultiPoly, Scalar]) -> "RatFunc":
        return self + (-self._coerce(other))

    def __rsub__(self, other: Union[MultiPoly, Scalar]) -> "RatFunc":
        return self._coerce(other) - self

    def __mul__(self, other: Union["RatFunc", MultiPoly, Scalar]) -> "RatFunc":
        other = self._coerce(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: Union["RatFunc", MultiPoly, Scalar]) -> "RatFunc":
        other = self._coerce(other)
        if other.num.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other: Union[MultiPoly, Scalar]) -> "RatFunc":
        return self._coerce(other) / self

    def __pow__(self, k: int) -> "RatFunc":
        if not isinstance(k, int):
            raise ValueError("rational function powers take integer exponents")
        if k < 0:
            return (RatFunc.const(self.variables, 1) / self) ** (-k)
        return RatFunc(self.num ** k, self.den ** k)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def substitute(self, assignment: Dict[str, Fraction]) -> Fraction:
        den = self.den.substitute(assignment)
        if den == 0:
            raise ZeroDivisionError("substitution hits a pole")
        return self.num.substitute(assignment) / den

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, MultiPoly)):
            other = self._coerce(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

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

    def __repr__(self) -> str:
        return f"RatFunc({self})"


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
    denom_lcm = 1
    for poly in (num, den):
        for coeff in poly.terms.values():
            denom_lcm = denom_lcm * coeff.denominator // math.gcd(denom_lcm, coeff.denominator)
    numer_gcd = 0
    for poly in (num, den):
        for coeff in poly.terms.values():
            numer_gcd = math.gcd(numer_gcd, abs(coeff.numerator * (denom_lcm // coeff.denominator)))
    scale = Fraction(denom_lcm, numer_gcd)
    _, lc = den.leading()
    return scale if lc > 0 else -scale


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


@dataclass(frozen=True)
class FiniteCarrier:
    """Modular carrier: the ring Z/n ('zmod') or the prime field GF(p) ('gf')."""

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

    def elements(self) -> Iterator[int]:
        return iter(range(self.modulus))

    def units(self) -> List[int]:
        return [a for a in range(self.modulus) if math.gcd(a, self.modulus) == 1]

    def contains(self, a: int) -> bool:
        return 0 <= a < self.modulus

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.modulus

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.modulus

    def neg(self, a: int) -> int:
        return (-a) % self.modulus

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.modulus

    def inv(self, a: int) -> Optional[int]:
        """Multiplicative inverse, or None when a is not a unit."""
        try:
            return pow(a, -1, self.modulus)
        except ValueError:
            return None

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
    """

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("empty integer window")

    @property
    def characteristic(self) -> int:
        return 0

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

    def positives(self) -> List[int]:
        return [a for a in range(max(self.lo, 1), self.hi + 1)]

    def __str__(self) -> str:
        return f"Z[{self.lo},{self.hi}]"
