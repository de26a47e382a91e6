"""Derivations on field towers.

A derivation is determined by its values on the transcendental generators;
it vanishes on Q, and on each algebraic generator g with minimal polynomial
p the value is forced to -p^d(g)/p'(g), where p^d applies the derivation to
the coefficients.

Evaluation works on level representations, one level at a time.  For level
i, with generator g_i, let H(i) be the lowest level that holds g_i and every
value d(g_j) with j <= i; d maps level i into level H(i).  A Derivation
keeps, per level, H(i) and d(g_i) as a level-H(i) rep.

Where H(i) = i and H(i-1) = i-1, d of a level-i element is computed on its
coefficient tuples over level i-1: with P^d the polynomial of coefficient
derivatives and P' the formal derivative, d(P(g)) = P^d(g) + d(g) P'(g) is
reduced once at an algebraic level, and at a transcendental level with
d(g) = a/b and element N/D,

    d(N/D) = [(N^d D - N D^d) b + a (N' D - N D')] / (D^2 b),

normalised once.  Otherwise some value lies above its generator, as with
d(t) = u on Q(t)(u); the polynomial rule is then evaluated by Horner's rule
in level-H(i) arithmetic.  Forced values are computed the same way, at the
algebraic level itself.
"""
from __future__ import annotations

import functools
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .exact import BudgetError, _padd, _pderiv, _pmul, _psub, _pstrip, rational
from .parser import Arithmetic, Bin, Expr, compiled, parse_equation, parse_expr
from .towers import (
    DivisionByZeroElementError,
    FieldTower,
    TowerElement,
    TowerError,
    TowerMismatchError,
    _Elements,
    element_eval,
)


class DerivationError(TowerError):
    """Invalid derivation construction or residual arguments."""


ElementLike = Union[TowerElement, int, Fraction, str]


def _coerce_element(tower: FieldTower, value: ElementLike) -> TowerElement:
    if isinstance(value, TowerElement):
        if value.tower is not tower:
            raise TowerMismatchError("value belongs to a different tower")
        return value
    if isinstance(value, str):
        return element_eval(tower, value)
    return tower.rational(rational(value))


class Derivation:
    """Additive Leibniz map on a tower, stored by its generator values.

    ``values`` must bind the transcendental generators.  The values on the
    algebraic ones are forced: they are computed here, and ``self.values``
    holds them too, in generator order.
    """

    __slots__ = ("tower", "values", "_high", "_dgen")

    def __init__(self, tower: FieldTower, values: Dict[str, TowerElement]):
        self.tower = tower
        self.values: Dict[str, TowerElement] = {}
        # Per level i: H(i), and d(g_i) as a level-H(i) rep (none at Q).
        self._high: List[int] = [0]
        self._dgen: list = [None]
        top = len(tower.levels) - 1
        for i, spec in enumerate(tower.gens, start=1):
            if spec.kind == "transcendental":
                value = values[spec.name]
                low, rep = tower.lower_rep(top, value.rep)
                high = max(self._high[i - 1], i, low)
                rep = tower.embed_rep(low, rep, high)
            else:
                high, rep = self._forced(i)
                value = TowerElement(tower, tower.embed_rep(high, rep))
            self.values[spec.name] = value
            self._high.append(high)
            self._dgen.append(rep)

    def _forced(self, i: int):
        """-p^d(g)/p'(g) at the algebraic level i, as (H(i), rep)."""
        tower = self.tower
        level = tower.levels[i]
        K = level.below
        p = level.minpoly
        high = self._high[i - 1]
        if high == i - 1:
            pd = _pstrip(K, [self._d(i - 1, c) for c in p])
            return i, level.mul(level.neg(pd), level.inv(_pderiv(K, p)))
        L = tower.levels[high]
        pd = self._horner(i, high, [self._d(i - 1, c) for c in p], high)
        pp = self._horner(i, high, _pderiv(K, p), i - 1)
        return high, L.mul(L.neg(pd), L.inv(pp))

    def _horner(self, i: int, high: int, coeffs, at: int):
        """sum c_k g_i^k in level-`high` arithmetic, for level-`at` reps c_k."""
        tower = self.tower
        L = tower.levels[high]
        g = tower.embed_rep(i, tower.levels[i].generator(), high)
        acc = L.zero
        for c in reversed(coeffs):
            acc = L.add(L.mul(acc, g), tower.embed_rep(at, c, high))
        return acc

    def _d(self, i: int, rep):
        """d(x) for a level-i rep x, as a level-H(i) rep."""
        if i == 0:
            return Fraction(0)
        level = self.tower.levels[i]
        high = self._high[i]
        if high == i and self._high[i - 1] == i - 1:
            K = level.below
            dg = self._dgen[i]
            if level.kind == "algebraic":
                pd = _pstrip(K, [self._d(i - 1, c) for c in rep])
                return level._reduce(_padd(K, pd, _pmul(K, dg, _pderiv(K, rep))))
            num, den = rep
            a, b = dg
            num_d = _pstrip(K, [self._d(i - 1, c) for c in num])
            den_d = _pstrip(K, [self._d(i - 1, c) for c in den])
            coeff_part = _psub(K, _pmul(K, num_d, den), _pmul(K, num, den_d))
            gen_part = _psub(K, _pmul(K, _pderiv(K, num), den), _pmul(K, num, _pderiv(K, den)))
            return level._normalize(
                _padd(K, _pmul(K, coeff_part, b), _pmul(K, a, gen_part)),
                _pmul(K, _pmul(K, den, den), b),
            )
        L = self.tower.levels[high]

        def value(coeffs):
            return self._horner(i, high, coeffs, i - 1)

        def derived(coeffs):
            pd = self._horner(i, high, [self._d(i - 1, c) for c in coeffs], self._high[i - 1])
            return L.add(pd, L.mul(self._dgen[i], value(_pderiv(level.below, coeffs))))

        if level.kind == "algebraic":
            return derived(rep)
        num, den = rep
        den_val = value(den)
        top = L.sub(L.mul(derived(num), den_val), L.mul(value(num), derived(den)))
        return L.mul(top, L.inv(L.mul(den_val, den_val)))

    def eval(self, x: ElementLike) -> TowerElement:
        elem = _coerce_element(self.tower, x)
        return TowerElement(self.tower, self._d(len(self.tower.levels) - 1, elem.rep))

    __call__ = eval

    def describe(self, name: str = "d") -> str:
        lines = []
        for g in self.tower.gens:
            tag = "" if g.kind == "transcendental" else " (forced)"
            lines.append(f"{name}({g.name}) = {self.values[g.name]}{tag}")
        return "\n".join(lines) if lines else f"{name} = 0 on {self.tower}"


def derivation_define(tower: FieldTower, values: Dict[str, ElementLike]) -> Derivation:
    """Build the unique derivation with the given transcendental values.

    The value dict must bind exactly the transcendental generators; values on
    algebraic generators are forced and attempts to set them are rejected.
    """
    trans = set(tower.transcendental_names())
    given = set(values)
    forced_attempt = [n for n in given - trans if n in tower.variables]
    if forced_attempt:
        raise DerivationError(
            f"values on algebraic generators are forced, cannot set: {sorted(forced_attempt)}"
        )
    if given - trans:
        raise DerivationError(f"unknown generators in values: {sorted(given - trans)}")
    if trans - given:
        raise DerivationError(f"missing values for transcendental generators: {sorted(trans - given)}")
    return Derivation(tower, {name: _coerce_element(tower, v) for name, v in values.items()})


def _same_tower(d1: Derivation, d2: Derivation) -> FieldTower:
    if d1.tower is not d2.tower:
        raise TowerMismatchError("derivations live on different towers")
    return d1.tower


def derivation_combine(
    alpha: ElementLike,
    d1: Derivation,
    beta: ElementLike,
    d2: Derivation,
) -> Derivation:
    """alpha*d1 + beta*d2 with tower-element coefficients."""
    tower = _same_tower(d1, d2)
    a = _coerce_element(tower, alpha)
    b = _coerce_element(tower, beta)
    values = {
        name: a * d1.values[name] + b * d2.values[name]
        for name in tower.transcendental_names()
    }
    return derivation_define(tower, values)


def derivation_bracket(d1: Derivation, d2: Derivation) -> Derivation:
    """Commutator [d1, d2] = d1 after d2 - d2 after d1, itself a derivation."""
    tower = _same_tower(d1, d2)
    values = {}
    for name in tower.transcendental_names():
        g = tower.gen(name)
        values[name] = d1(d2(g)) - d2(d1(g))
    return derivation_define(tower, values)


class AffineDerivation:
    """f = chi + slope*id: a derivation plus a rational multiple of the
    identity.  These are exactly the maps the power-rule and substitution
    residuals classify, with slope = f(1)."""

    __slots__ = ("der", "slope")

    def __init__(self, der: Derivation, slope: Union[int, Fraction] = 0):
        self.der = der
        self.slope = rational(slope)

    @property
    def tower(self) -> FieldTower:
        return self.der.tower

    def eval(self, x: ElementLike) -> TowerElement:
        elem = _coerce_element(self.tower, x)
        return self.der(elem) + self.slope * elem

    __call__ = eval


AffineLike = Union[Derivation, AffineDerivation]


class Rule(NamedTuple):
    """A kind of residual: the functional equation in the maps f and g
    whose lhs - rhs it is, the names it reads, and the preconditions on
    them, each with the message that refuses it."""

    equation: str
    reads: Tuple[str, ...]
    requires: Tuple[Tuple[Callable[..., bool], str], ...] = ()


def _ints(*values) -> bool:
    return all(isinstance(v, int) for v in values)


_EXPONENTS = ("k", "n", "m")  # written into the text: "{k-1}" is folded from k
_RATIONALS = ("a", "b", "c", "d")  # symbols of the text, as are the points u, v, x

# Derivations satisfy the leibniz, power, mobius, reflect and square rules,
# so their residuals at f = d + c*id separate d from its perturbations;
# monomial compares f and g on two powers, nhom is multiplicativity.
RULES: Dict[str, Rule] = {
    "leibniz": Rule("f(u*v) = u*f(v) + v*f(u)", ("u", "v")),
    "power": Rule("f(x^{k}) = {k}*x^{k-1}*f(x)", ("k", "x"), (
        (lambda k, **_: _ints(k) and k != 0, "power rule takes a nonzero integer exponent"),)),
    "monomial": Rule("f(x^{n}) = x^{n-m}*g(x^{m})", ("n", "m", "x", "g"), (
        (lambda n, m, **_: _ints(n, m), "monomial residual takes integer exponents"),
        (lambda n, m, **_: n != m, "monomial residual needs distinct exponents"))),
    "mobius": Rule("f((a*x^{n} + b)/(c*x^{n} + d)) = (a*d - b*c)*{n}*x^{n-1}/(c*x^{n} + d)^2*f(x)",
                   ("a", "b", "c", "d", "n", "x"), (
        (lambda a, b, c, d, **_: a * d != b * c, "singular coefficient matrix: a*d - b*c = 0"),
        (lambda n, **_: _ints(n) and n != 0, "substitution exponent must be a nonzero integer"))),
    "reflect": Rule("f(x) = -x^2*f(1/x)", ("x",)),
    "square": Rule("f(x^2) = 2*x*f(x)", ("x",)),
    "nhom": Rule("f(x^{n}) = f(x)^{n}", ("n", "x"), (
        (lambda n, **_: _ints(n) and n >= 2, "n-th power residual needs an integer n >= 2"),)),
}


class _Exponents(dict):
    """Integer exponents by name; a key that is an expression in them, such
    as "k-1", is folded from them."""

    def __missing__(self, key: str) -> Fraction:
        return compiled(parse_expr(key), Arithmetic(), tuple(self))(*self.values())


@functools.lru_cache(maxsize=256)
def _residual_tree(kind: str, exponents: Tuple[Tuple[str, int], ...]) -> Expr:
    """lhs - rhs of the kind's equation with the exponents written in."""
    lhs, rhs = parse_equation(RULES[kind].equation.format_map(_Exponents(exponents)))
    return Bin("-", lhs, rhs)


def residual(kind: str, f: AffineLike, g: Optional[AffineLike] = None, **args) -> TowerElement:
    """lhs - rhs of RULES[kind] with the maps f and g (g defaults to f), at
    the points, exponents and rationals that `args` binds by name, folded in
    f's tower.  A division by zero at the point raises DerivationError."""
    rule = RULES[kind]
    args = {name: rational(v) if name in _RATIONALS else v for name, v in args.items()}
    for holds, message in rule.requires:
        if not holds(**args):
            raise DerivationError(message)
    tree = _residual_tree(kind, tuple((n, int(args[n])) for n in _EXPONENTS if n in rule.reads))
    names = [n for n in rule.reads if n not in _EXPONENTS and n != "g"]
    tower = f.tower
    run = compiled(tree, _Elements(tower, {"f": f, "g": g or f}), names)
    values = [_coerce_element(tower, args[n]) for n in names]
    try:
        return run(*values)
    except DivisionByZeroElementError:
        raise DerivationError(f"{kind} residual divides by zero at this point") from None


def leibniz_residual(d: Derivation, x: ElementLike, y: ElementLike) -> TowerElement:
    """d(xy) - x d(y) - y d(x); identically zero for a derivation."""
    return residual("leibniz", d, u=x, v=y)


def power_rule_residual(f: AffineLike, k: int, x: ElementLike) -> TowerElement:
    """f(x^k) - k x^(k-1) f(x) for integer k != 0."""
    return residual("power", f, k=k, x=x)


def reflection_residual(f: AffineLike, x: ElementLike) -> TowerElement:
    """f(x) + x^2 f(1/x); zero exactly on derivations among additive maps."""
    return residual("reflect", f, x=x)


# d^k calls the map of d^(k-1), so k bounds the nesting of the maps.
MAX_ITERATION_ORDER = 64


def iterate(d: Derivation, k: int) -> List[Callable[[ElementLike], TowerElement]]:
    """Evaluation maps for d^0, d^1, ..., d^k (d^0 is the identity)."""
    if not isinstance(k, int) or k < 0:
        raise DerivationError("iteration order must be a nonnegative integer")
    if k > MAX_ITERATION_ORDER:
        raise BudgetError(f"iteration order {k} exceeds the fixed limit {MAX_ITERATION_ORDER}")

    def identity(x: ElementLike) -> TowerElement:
        return _coerce_element(d.tower, x)

    maps: List[Callable[[ElementLike], TowerElement]] = [identity]
    for _ in range(k):
        prev = maps[-1]
        maps.append(lambda x, prev=prev: d(prev(x)))
    return maps


_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71]


def default_substitution(tower: FieldTower) -> Dict[str, Fraction]:
    """i-th transcendental generator maps to the i-th prime."""
    names = tower.transcendental_names()
    if len(names) > len(_PRIMES):
        raise DerivationError("too many transcendental generators for the default substitution")
    return {name: Fraction(_PRIMES[i]) for i, name in enumerate(names)}


def rational_image(elem: TowerElement, subst: Optional[Dict[str, Fraction]] = None) -> Fraction:
    """Value of an algebraic-generator-free element under a rational
    substitution of the transcendental generators."""
    tower = elem.tower
    if subst is None:
        subst = default_substitution(tower)
    rf = elem.as_ratfunc()
    algebraic = {g.name for g in tower.gens if g.kind == "algebraic"}
    for poly in (rf.num, rf.den):
        for exps in poly.terms:
            for name, e in zip(poly.variables, exps):
                if e > 0 and name in algebraic:
                    raise DerivationError(
                        f"algebraic generator {name!r} has no rational image"
                    )
    assignment = {name: Fraction(0) for name in tower.variables}
    for name, value in subst.items():
        if name not in assignment:
            raise DerivationError(f"substitution binds unknown generator {name!r}")
        assignment[name] = rational(value)
    den = rf.den.substitute(assignment)
    if den == 0:
        raise DerivationError("substitution hits a pole of the evaluated element")
    return rf.num.substitute(assignment) / den


def rational_rank(matrix: Sequence[Sequence[Fraction]]) -> int:
    """Rank over Q by exact Gaussian elimination."""
    rows = [list(map(rational, row)) for row in matrix]
    if not rows:
        return 0
    cols = len(rows[0])
    rank = 0
    col = 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col] / pv
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def independence_rank(
    maps: Sequence[Callable[[TowerElement], TowerElement]],
    points: Sequence[TowerElement],
    subst: Optional[Dict[str, Fraction]] = None,
) -> int:
    """Rank of the matrix maps[j](points[i]) under a rational substitution.

    A full-rank answer certifies linear independence of the maps over Q; a
    rank drop is evidence only, since it may come from the chosen points."""
    if not maps or not points:
        raise DerivationError("independence rank needs maps and points")
    tower = points[0].tower
    for p in points:
        if p.tower is not tower:
            raise TowerMismatchError("points belong to different towers")
    matrix = [[rational_image(m(p), subst) for m in maps] for p in points]
    return rational_rank(matrix)
