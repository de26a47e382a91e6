"""Independent answers for every benchmark operation.

Nothing here imports dercalc: each check recomputes the answer from the
benchmark's own description of the input, so a wrong result from the
program cannot also be the expected one.

- Derivations: exact dual numbers over Fraction at t = a^2, s = a, u = b,
  with d(t) = 1, d(s) = 1/(2a), d(u) = b; the program's printed result is
  read back by a reader of its own and evaluated at the same points.
- Checks: plain loops over each equation written as a Python function, in
  the carriers' canonical order.
- Solver: closed-form solution counts and, for the other linear equations,
  the dimension of the solution space from a rank computation over GF(p).
"""
from __future__ import annotations

import math
import random
import re
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Callable, Dict, List, Optional, Sequence, Tuple


class CheckError(AssertionError):
    """The program's answer disagrees with the independent computation."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# -- dual numbers and generated expressions ------------------------------------


class Dual:
    """a + b*eps with eps^2 = 0: value and derivation image together."""

    __slots__ = ("v", "d")

    def __init__(self, v, d=0):
        self.v = Fraction(v)
        self.d = Fraction(d)

    def __add__(self, o):
        o = _dual(o)
        return Dual(self.v + o.v, self.d + o.d)

    __radd__ = __add__

    def __sub__(self, o):
        o = _dual(o)
        return Dual(self.v - o.v, self.d - o.d)

    def __rsub__(self, o):
        return _dual(o) - self

    def __neg__(self):
        return Dual(-self.v, -self.d)

    def __mul__(self, o):
        o = _dual(o)
        return Dual(self.v * o.v, self.v * o.d + self.d * o.v)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = _dual(o)
        if o.v == 0:
            raise ZeroDivisionError("dual division by a zero value")
        return Dual(self.v / o.v, (self.d * o.v - self.v * o.d) / (o.v * o.v))

    def __pow__(self, k: int):
        out = Dual(1)
        for _ in range(k):
            out = out * self
        return out


def _dual(x) -> Dual:
    return x if isinstance(x, Dual) else Dual(x)


# A monomial is (coefficient, (e_t, e_s, e_u)); a polynomial is a list of them.
Poly = List[Tuple[int, Tuple[int, int, int]]]
GENS = ("t", "s", "u")


def poly_text(poly: Poly) -> str:
    """Text in the program's input grammar, highest terms first."""
    out = ""
    for c, exps in poly:
        factors = [g if e == 1 else f"{g}^{e}" for g, e in zip(GENS, exps) if e]
        mag = abs(c)
        body = "*".join(([str(mag)] if mag != 1 or not factors else []) + factors)
        if not out:
            out = ("-" if c < 0 else "") + body
        else:
            out += (" - " if c < 0 else " + ") + body
    return out or "0"


def poly_value(poly: Poly, point: Dict[str, object]):
    total = 0
    for c, exps in poly:
        term = c
        for g, e in zip(GENS, exps):
            if e:
                term = term * point[g] ** e
        total = total + term
    return total


def dual_point(a: Fraction, b: Fraction) -> Dict[str, Dual]:
    """Generators at t = a^2, s = a, u = b for d(t) = 1 and d(u) = u.
    s^2 = t forces d(s) = 1/(2s)."""
    return {"t": Dual(a * a, 1), "s": Dual(a, 1 / (2 * a)), "u": Dual(b, b)}


def plain_point(a: Fraction, b: Fraction) -> Dict[str, Fraction]:
    return {"t": a * a, "s": a, "u": b}


# Points where the checks evaluate; several, so that a wrong rational
# function agreeing with the right one at one point is still caught.
POINTS = [
    (Fraction(3), Fraction(7)),
    (Fraction(5, 2), Fraction(-2, 3)),
    (Fraction(-7, 3), Fraction(11, 5)),
    (Fraction(13, 4), Fraction(5, 9)),
    (Fraction(-9, 5), Fraction(17, 3)),
]


# -- reader for the program's printed rational functions -------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|(.))")


def read_value(text: str, env: Dict[str, Fraction]) -> Fraction:
    """Evaluate printed output such as (2*t^2*u - s)/(4*t) at a point.

    Integer literals are read as exact rationals; the grammar is sums of
    products of powers, with parentheses and unary minus."""
    tokens = []
    for num, name, op in _TOKEN.findall(text):
        if num:
            tokens.append(("num", int(num)))
        elif name:
            tokens.append(("name", name))
        elif op.strip():
            tokens.append(("op", op))
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else ("end", None)

    def take():
        nonlocal pos
        tok = peek()
        pos += 1
        return tok

    def expr() -> Fraction:
        val = term()
        while peek() in (("op", "+"), ("op", "-")):
            op = take()[1]
            rhs = term()
            val = val + rhs if op == "+" else val - rhs
        return val

    def term() -> Fraction:
        val = factor()
        while peek() in (("op", "*"), ("op", "/")):
            op = take()[1]
            rhs = factor()
            if op == "*":
                val = val * rhs
            else:
                if rhs == 0:
                    raise ZeroDivisionError("printed value divides by zero here")
                val = val / rhs
        return val

    def factor() -> Fraction:
        if peek() == ("op", "-"):
            take()
            return -factor()
        base = atom()
        if peek() == ("op", "^"):
            take()
            kind, exp = take()
            if kind != "num":
                raise CheckError(f"unreadable exponent in {text!r}")
            return base ** exp
        return base

    def atom() -> Fraction:
        kind, val = take()
        if kind == "num":
            return Fraction(val)
        if kind == "name":
            if val not in env:
                raise CheckError(f"unknown symbol {val!r} in {text!r}")
            return env[val]
        if (kind, val) == ("op", "("):
            inner = expr()
            if take() != ("op", ")"):
                raise CheckError(f"unbalanced parentheses in {text!r}")
            return inner
        raise CheckError(f"unreadable token {val!r} in {text!r}")

    value = expr()
    if peek()[0] != "end":
        raise CheckError(f"trailing text in {text!r}")
    return value


def check_against(printed: str, expected: Callable[[Fraction, Fraction], Fraction],
                  label: str, need: int = 2) -> None:
    """The printed function must equal the expected value at `need` points
    where both are defined."""
    agreed = 0
    for a, b in POINTS:
        try:
            want = expected(a, b)
            got = read_value(printed, plain_point(a, b))
        except ZeroDivisionError:
            continue
        expect(got == want, f"{label}: printed {printed!r} gives {got} at a={a}, b={b}, "
                            f"expected {want}")
        agreed += 1
        if agreed == need:
            return
    raise CheckError(f"{label}: no two points where {printed!r} is defined")


def derivative_of(num: Poly, den: Poly) -> Callable[[Fraction, Fraction], Fraction]:
    def value(a, b):
        pt = dual_point(a, b)
        return (poly_value(num, pt) / poly_value(den, pt)).d
    return value


def value_of(num: Poly, den: Poly) -> Callable[[Fraction, Fraction], Fraction]:
    def value(a, b):
        pt = plain_point(a, b)
        d = poly_value(den, pt)
        if d == 0:
            raise ZeroDivisionError
        return poly_value(num, pt) / d
    return value


# -- higher-order systems and multiadditive recovery ------------------------------


def falling(m: int, k: int) -> int:
    out = 1
    for i in range(k):
        out *= m - i
    return out


def binomial_system(coeffs: Dict[int, int], k: int) -> Dict[int, Fraction]:
    """d_k(sum c_m t^m) for the binomial table with d_1(t) = 1 and
    d_j(t) = 0 for j >= 2: the k-th iterate of d/dt, by falling factorials."""
    out: Dict[int, Fraction] = {}
    for m, c in coeffs.items():
        if m >= k and c:
            out[m - k] = out.get(m - k, Fraction(0)) + c * falling(m, k)
    return {e: v for e, v in out.items() if v}


def multiset_permutations(idx: Sequence[int]) -> int:
    counts: Dict[int, int] = {}
    for i in idx:
        counts[i] = counts.get(i, 0) + 1
    out = math.factorial(len(idx))
    for c in counts.values():
        out //= math.factorial(c)
    return out


def poly_function(components: List[Dict[Tuple[int, ...], int]]) -> Callable:
    """Black-box p(x) = sum_k A_k(x, ..., x) from sorted-index coefficients."""
    terms = []
    for comp in components:
        for idx, c in comp.items():
            terms.append((Fraction(c * multiset_permutations(idx)), idx))

    def p(x) -> Fraction:
        total = Fraction(0)
        for c, idx in terms:
            term = c
            for i in idx:
                term *= x[i]
            total += term
        return total

    return p


def random_components(rng: random.Random, degree: int, dim: int) -> List[Dict[Tuple[int, ...], int]]:
    comps = [{(): rng.randint(-9, 9)}]
    for k in range(1, degree + 1):
        comps.append({
            idx: rng.choice([c for c in range(-6, 7) if c])
            for idx in combinations_with_replacement(range(dim), k)
        })
    return [{i: c for i, c in comp.items() if c} for comp in comps]


# -- finite carriers -------------------------------------------------------------


class Skip(Exception):
    """The pair or tuple is inadmissible: a division fails or an argument
    leaves the window."""


def window_order(lo: int, hi: int) -> List[int]:
    """Canonical window order: 0, 1, -1, 2, -2, ... restricted to [lo, hi]."""
    out = [0] if lo <= 0 <= hi else []
    for mag in range(1, max(abs(lo), abs(hi)) + 1):
        out += [v for v in (mag, -mag) if lo <= v <= hi]
    return out


class ModArith:
    """GF(p) arithmetic; values are kept reduced."""

    def __init__(self, p: int):
        self.p = p
        self.elems = list(range(p))

    def r(self, a: int) -> int:
        return a % self.p

    def div(self, a: int, b: int) -> int:
        if b % self.p == 0:
            raise Skip
        return a * pow(b, -1, self.p) % self.p

    def call(self, table: Dict[int, int], a: int) -> int:
        return table[a % self.p]


class WindowArith:
    """Integers in [lo, hi]; division must be exact, arguments must stay inside."""

    def __init__(self, lo: int, hi: int):
        self.lo, self.hi = lo, hi
        self.elems = window_order(lo, hi)

    def r(self, a: int) -> int:
        return a

    def div(self, a: int, b: int) -> int:
        if b == 0 or a % b:
            raise Skip
        return a // b

    def call(self, table: Dict[int, int], a: int) -> int:
        if not self.lo <= a <= self.hi:
            raise Skip
        return table[a]


# Each corpus equation as a function of (arith, tables, x, y, params) that
# returns (lhs, rhs) reduced in the carrier, or raises Skip.
def _sides_cauchy_add(ar, t, x, y, prm):
    f = t["f"]
    return ar.r(ar.call(f, x + y)), ar.r(ar.call(f, x) + ar.call(f, y))


def _sides_cauchy_mult(ar, t, x, y, prm):
    f = t["f"]
    return ar.r(ar.call(f, x * y)), ar.r(ar.call(f, x) * ar.call(f, y))


def _sides_jensen(ar, t, x, y, prm):
    f = t["f"]
    lhs = ar.call(f, ar.div(x + y, 2))
    rhs = ar.div(ar.call(f, x) + ar.call(f, y), 2)
    return ar.r(lhs), ar.r(rhs)


def _sides_hosszu(ar, t, x, y, prm):
    f = t["f"]
    lhs = ar.call(f, x + y - x * y) + ar.call(f, x * y)
    rhs = ar.call(f, x) + ar.call(f, y)
    return ar.r(lhs), ar.r(rhs)


def _sides_leibniz(ar, t, x, y, prm):
    f = t["f"]
    return ar.r(ar.call(f, x * y)), ar.r(x * ar.call(f, y) + y * ar.call(f, x))


def _sides_opp3(ar, t, x, y, prm):
    f = t["f"]
    lhs = ar.call(f, ar.div(x + y, 2)) - ar.call(f, x) - ar.call(f, y)
    rhs = ar.call(f, x * y) - x * ar.call(f, y) - ar.call(f, x) * y
    return ar.r(lhs), ar.r(rhs)


def _sides_alien(ar, t, x, y, prm):
    f = t["f"]
    lam, mu = ar.r(prm["lam"]), ar.r(prm["mu"])
    cauchy = ar.call(f, x + y) - ar.call(f, x) - ar.call(f, y)
    leib = ar.call(f, x * y) - x * ar.call(f, y) - y * ar.call(f, x)
    return ar.r(lam * cauchy + mu * leib), 0


def _sides_cauchy_exp(ar, t, x, y, prm):
    f = t["f"]
    return ar.r(ar.call(f, x + y)), ar.r(ar.call(f, x) * ar.call(f, y))


def _sides_ger_hom(ar, t, x, y, prm):
    f = t["f"]
    fx, fy = ar.call(f, x), ar.call(f, y)
    return ar.r(ar.call(f, x + y)), ar.r(fx + fy + fx * fy)


def _sides_opp2(ar, t, x, y, prm):
    f = t["f"]
    lhs = ar.call(f, x + y - x * y) - ar.call(f, x) - ar.call(f, y) + ar.call(f, x * y)
    rhs = ar.call(f, x * y) - x * ar.call(f, y) - ar.call(f, x) * y
    return ar.r(lhs), ar.r(rhs)


def _sides_mixed(ar, t, x, y, prm):
    f, g = t["f"], t["g"]
    lhs = ar.call(f, x + y) - ar.call(f, x) - ar.call(f, y)
    rhs = ar.call(g, x * y) - x * ar.call(g, y) - y * ar.call(g, x)
    return ar.r(lhs), ar.r(rhs)


EQUATIONS = {
    "cauchy-add": _sides_cauchy_add,
    "cauchy-mult": _sides_cauchy_mult,
    "jensen": _sides_jensen,
    "hosszu": _sides_hosszu,
    "leibniz": _sides_leibniz,
    "opp3": _sides_opp3,
    "alien-c22": _sides_alien,
    "opp2": _sides_opp2,
    "cauchy-exp": _sides_cauchy_exp,
    "ger-hom": _sides_ger_hom,
    "mixed": _sides_mixed,
}

# The mixed equation is not in the corpus; the benchmark parses it itself.
MIXED_SOURCE = "f(x+y) - f(x) - f(y) = g(x*y) - x*g(y) - y*g(x)"


def feq_expected(eq: str, ar, tables: Dict[str, Dict[int, int]],
                 params: Optional[Dict[str, int]] = None) -> tuple:
    """(status, witness, lhs, rhs, checked, skipped) of an exhaustive check."""
    sides = EQUATIONS[eq]
    params = params or {}
    checked = skipped = 0
    for a in ar.elems:
        for b in ar.elems:
            try:
                lhs, rhs = sides(ar, tables, a, b, params)
            except Skip:
                skipped += 1
                continue
            checked += 1
            if lhs != rhs:
                return ("fail", (a, b), lhs, rhs, checked, skipped)
    return ("pass", None, None, None, checked, skipped)


def feq_line(name: str, expected: tuple) -> str:
    """The one-line report in the program's documented transcript format."""
    status, witness, lhs, rhs, checked, skipped = expected
    if status == "pass":
        return f"{name}: pass ({checked} pairs, {skipped} skipped)"
    return (f"{name}: FAIL at {witness}: lhs {lhs} != rhs {rhs} "
            f"({checked} pairs checked, {skipped} skipped)")


# -- cocycle axioms --------------------------------------------------------------


def cauchy_diff(ar, f):
    def F(a, b):
        if not (_inside(ar, a) and _inside(ar, b)):
            raise Skip
        return ar.r(ar.call(f, a + b) - ar.call(f, a) - ar.call(f, b))
    return F


def leibniz_diff(ar, f):
    def G(a, b):
        if not (_inside(ar, a) and _inside(ar, b)):
            raise Skip
        return ar.r(ar.call(f, a * b) - a * ar.call(f, b) - b * ar.call(f, a))
    return G


def table_fn2(ar, table: Dict[Tuple[int, int], int]):
    def F(a, b):
        if not (_inside(ar, a) and _inside(ar, b)):
            raise Skip
        return table[(a, b)]
    return F


def _inside(ar, a: int) -> bool:
    if isinstance(ar, WindowArith):
        return ar.lo <= a <= ar.hi
    return True


def _add(ar, a, b):
    return ar.r(a + b)


def _mul(ar, a, b):
    return ar.r(a * b)


AXIOM_ARITY = {"alpha": 2, "beta": 3, "gamma": 2, "delta": 3, "epsilon": 3}


def axiom_sides(name: str, ar, F, G, tup):
    if name == "alpha":
        a, b = tup
        return F(a, b), F(b, a)
    if name == "gamma":
        a, b = tup
        return G(a, b), G(b, a)
    a, b, c = tup
    if name == "beta":
        return F(_add(ar, a, b), c) + F(a, b), F(a, _add(ar, b, c)) + F(b, c)
    if name == "delta":
        return c * G(a, b) + G(_mul(ar, a, b), c), a * G(b, c) + G(a, _mul(ar, b, c))
    if name == "epsilon":
        return (F(_mul(ar, a, c), _mul(ar, b, c)) - c * F(a, b),
                G(_add(ar, a, b), c) - G(a, c) - G(b, c))
    raise ValueError(name)


def _axiom_result(name, ar, F, G, tuples):
    checked = skipped = 0
    for tup in tuples:
        try:
            lhs, rhs = axiom_sides(name, ar, F, G, tup)
        except Skip:
            skipped += 1
            continue
        checked += 1
        lhs, rhs = ar.r(lhs), ar.r(rhs)
        if lhs != rhs:
            return ("fail", tuple(tup), lhs, rhs, checked, skipped)
    return ("pass", None, None, None, checked, skipped)


def all_tuples(elems, arity):
    if arity == 2:
        return ((a, b) for a in elems for b in elems)
    return ((a, b, c) for a in elems for b in elems for c in elems)


def cocycle_expected(ar, F, G, axioms: Sequence[str], p: int = 0) -> Dict[str, tuple]:
    """Exhaustive results per axiom; zeta is the sum of F(1, i) over
    i = 1..p, which must vanish in characteristic p."""
    out = {}
    for name in axioms:
        if name == "zeta":
            total = sum(F(1, i % p) for i in range(1, p + 1)) % p
            out[name] = (("pass", None, None, None, 1, 0) if total == 0
                         else ("fail", ("sum",), total, 0, 1, 0))
            continue
        out[name] = _axiom_result(name, ar, F, G, all_tuples(ar.elems, AXIOM_ARITY[name]))
    return out


def check_sampled(label: str, ar, F, G, got: Dict[str, tuple], axioms: Sequence[str],
                  sample: int) -> None:
    """What every valid sample gives for the differences F and G of one f:
    each axiom holds on every admissible tuple, so each must pass with
    `sample` tuples checked or skipped, and the sum axiom is void on an
    integer window. Which tuples were drawn is left to the program."""
    expect(set(got) == set(axioms) | {"zeta"}, f"{label}: axioms {sorted(got)}")
    expect(got["zeta"][:4] == ("void", None, None, None), f"{label}: (zeta) {got['zeta']}")
    for name in axioms:
        status, witness, lhs, rhs, checked, skipped = got[name]
        if status == "fail":
            try:
                sides = tuple(ar.r(v) for v in axiom_sides(name, ar, F, G, witness))
            except Skip:
                sides = "none: the tuple leaves the window"
            raise CheckError(f"{label}: ({name}) reported FAIL at {witness} with lhs {lhs}, "
                             f"rhs {rhs}; the oracle's sides there are {sides}")
        expect((status, witness, lhs, rhs) == ("pass", None, None, None),
               f"{label}: ({name}) {got[name]}")
        expect(checked >= 0 and skipped >= 0 and checked + skipped == sample,
               f"{label}: ({name}) {checked} checked + {skipped} skipped, expected {sample} in all")


def coboundary_expected(ar, D) -> Dict[str, tuple]:
    """Symmetry, associator and first-slot additivity of D, exhaustively."""
    conditions = {
        "symmetry": (2, lambda x, y: (D(x, y), D(y, x))),
        "associator": (3, lambda x, y, z: (D(_mul(ar, x, y), z) + z * D(x, y),
                                           D(x, _mul(ar, y, z)) + x * D(y, z))),
        "additivity": (3, lambda x, y, z: (D(_add(ar, x, y), z), D(x, z) + D(y, z))),
    }
    out = {}
    for name, (arity, sides) in conditions.items():
        checked = skipped = 0
        result = None
        for tup in all_tuples(ar.elems, arity):
            try:
                lhs, rhs = sides(*tup)
            except Skip:
                skipped += 1
                continue
            checked += 1
            lhs, rhs = ar.r(lhs), ar.r(rhs)
            if lhs != rhs:
                result = ("fail", tup, lhs, rhs, checked, skipped)
                break
        out[name] = result or ("pass", None, None, None, checked, skipped)
    return out


def cocycle_lines(expected: Dict[str, tuple]) -> List[str]:
    """Per-axiom report lines in the program's documented format."""
    out = []
    for name, (status, witness, lhs, rhs, checked, skipped) in expected.items():
        if status == "pass":
            out.append(f"({name}) pass: {checked} tuples, {skipped} skipped")
        else:
            out.append(f"({name}) FAIL at {witness}: lhs {lhs} != rhs {rhs} "
                       f"({checked} tuples checked, {skipped} skipped)")
    return out


# -- solution counts -------------------------------------------------------------


def rank_mod_p(rows: List[List[int]], p: int) -> int:
    """Rank of an integer matrix over GF(p) by Gaussian elimination."""
    rows = [[v % p for v in row] for row in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [v * inv % p for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [(v - factor * w) % p for v, w in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def linear_rows(eq: str, p: int, params: Optional[Dict[str, int]] = None) -> List[List[int]]:
    """One row per pair (x, y): the coefficients of f(0..p-1) in lhs - rhs.

    The equation's functions are called on unit vectors: every linear corpus
    equation is affine in the table, with no constant part."""
    sides = EQUATIONS[eq]
    ar = ModArith(p)
    rows = []
    for x in range(p):
        for y in range(p):
            row = []
            for j in range(p):
                unit = {i: int(i == j) for i in range(p)}
                lhs, rhs = sides(ar, {"f": unit}, x, y, params or {})
                row.append((lhs - rhs) % p)
            rows.append(row)
    return rows


def linear_solution_count(eq: str, p: int, params: Optional[Dict[str, int]] = None) -> int:
    return p ** (p - rank_mod_p(linear_rows(eq, p, params), p))


def closed_form_count(eq: str, p: int) -> Optional[int]:
    """Solution counts over GF(p) known in closed form."""
    return {
        "cauchy-add": p,             # f(x) = c x
        "jensen": p * p,             # f(x) = a x + b
        "hosszu": p * p,             # affine maps, for p >= 5
        "cauchy-mult": p + 1,        # 0, 1, and x -> x^k on units with f(0) = 0
        "cauchy-exp": 2,             # 0 and 1
        "ger-hom": 2,                # 0 and -1, since 1 + f is exponential
        "leibniz": 1,                # only the zero map on a prime field
    }.get(eq)


def verify_table(eq: str, p: int, table: Dict[int, int],
                 params: Optional[Dict[str, int]] = None) -> None:
    """Re-check one reported solution on every pair."""
    sides = EQUATIONS[eq]
    ar = ModArith(p)
    for x in range(p):
        for y in range(p):
            lhs, rhs = sides(ar, {"f": table}, x, y, params or {})
            expect(lhs == rhs, f"{eq} on GF({p}): reported table {table} fails at ({x}, {y})")


def is_log_hom(p: int, table: Dict[int, int]) -> bool:
    n = p - 1
    return all(table[a * b % p] == (table[a] + table[b]) % n
               for a in range(1, p) for b in range(1, p))
