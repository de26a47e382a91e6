"""Derivations and polynomial gcds checked against sympy on seeded random input.

sympy is a test-only oracle: these tests are skipped when it is missing.

A tower Q(t)(s) whose minimal polynomial reads t = p(s), such as s^n = t
or s^3 - s = t, is the field Q(s) with t = p(s), so two expressions agree
in it exactly when they cancel to the same function of s after
substituting t = p(s).  sympy computes d(x) by the chain rule,
d(x) = sum over generators g of (dx/dg) d(g), with d(s) on an algebraic s
found by implicit differentiation of its minimal polynomial.
"""
import itertools
import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from dercalc import MultiPoly, derivation_define, element_eval, tower_new  # noqa: E402
from dercalc.exact import QQ, PolyRing, dense_to_multipoly, poly_gcd  # noqa: E402

t, s, u = sympy.symbols("t s u")
SYMBOLS = {"t": t, "s": s, "u": u}


def to_sympy(text: str):
    return sympy.sympify(text.replace("^", "**"), locals=SYMBOLS)


def random_poly(rng, names, degree, terms):
    parts = []
    for _ in range(terms):
        coeff = rng.choice([c for c in range(-5, 6) if c])
        mono = "".join(f"*{n}^{rng.randint(0, degree)}" for n in names)
        parts.append(f"({coeff}{mono})")
    return " + ".join(parts)


def random_element(rng, names, den_names):
    num = random_poly(rng, names, 2, 3)
    den = random_poly(rng, den_names, 1, 2)
    while to_sympy(den) == 0:
        den = random_poly(rng, den_names, 1, 2)
    return f"({num})/({den})"


def sympy_derivation(values, minpolys):
    """d(g) for every generator: the given values, then the forced ones."""
    d = dict(values)
    for name, p in minpolys.items():
        g = SYMBOLS[name]
        rest = sum(sympy.diff(p, SYMBOLS[h]) * d[h] for h in d)
        d[name] = -rest / sympy.diff(p, g)
    return d


def sympy_apply(d, x):
    return sum(sympy.diff(x, SYMBOLS[name]) * value for name, value in d.items())


# (spec, dercalc values, sympy values, minimal polynomials, t in terms of s,
#  the generators a denominator may hold)
TOWERS = {
    "Q(t)": ("t:trans", {"t": "1"}, {"t": 1}, {}, None, "t"),
    "Q(t)(s), s^2 = t": ("t:trans;s:alg:s^2 - t", {"t": "1"}, {"t": 1},
                         {"s": s**2 - t}, s**2, "ts"),
    "Q(t)(s), s^3 = t": ("t:trans;s:alg:s^3 - t", {"t": "t"}, {"t": t},
                         {"s": s**3 - t}, s**3, "ts"),
    # Not a radical: d(s) = (9ts - 6s^2 + 4)/(27t^2 - 4) has degree 2 in s, so
    # d of an element runs the long reduction modulo the minimal polynomial.
    "Q(t)(s), s^3 - s = t": ("t:trans;s:alg:s^3 - s - t", {"t": "1"}, {"t": 1},
                             {"s": s**3 - s - t}, s**3 - s, "ts"),
    "Q(t)(s)(u), d(u) = u": ("t:trans;s:alg:s^2 - t;u:trans", {"t": "1", "u": "u"},
                             {"t": 1, "u": u}, {"s": s**2 - t}, s**2, "tsu"),
    "Q(t)(s)(u), d(u) = u*s + t": ("t:trans;s:alg:s^2 - t;u:trans", {"t": "1", "u": "u*s + t"},
                                   {"t": 1, "u": u * s + t}, {"s": s**2 - t}, s**2, "tsu"),
    "Q(t)(u), d(u) = t/(u + 1)": ("t:trans;u:trans", {"t": "1", "u": "t/(u + 1)"},
                                  {"t": 1, "u": t / (u + 1)}, {}, None, "tu"),
    # d(s) lies above s: the forced value is computed in Q(t)(s)(u).
    "Q(t)(s)(u), d(t) = u, d(u) = s": ("t:trans;s:alg:s^2 - t;u:trans", {"t": "u", "u": "s"},
                                       {"t": u, "u": s}, {"s": s**2 - t}, s**2, "tsu"),
    "Q(t)(u), d(t) = u, d(u) = t": ("t:trans;u:trans", {"t": "u", "u": "t"},
                                    {"t": u, "u": t}, {}, None, "tu"),
}


def build_tower(spec):
    tower = tower_new()
    for part in spec.split(";"):
        name, kind, *rest = part.split(":")
        if kind == "trans":
            tower = tower.adjoin_transcendental(name)
        else:
            tower = tower.adjoin_algebraic(name, rest[0])
    return tower


def same_in_tower(a, b, t_of_s):
    diff = a - b
    if t_of_s is not None:
        diff = diff.subs(t, t_of_s)
    return sympy.cancel(sympy.together(diff)) == 0


@pytest.mark.parametrize("label", TOWERS)
def test_derivation_matches_sympy_chain_rule(label):
    spec, values, sym_values, minpolys, t_of_s, den_names = TOWERS[label]
    tower = build_tower(spec)
    der = derivation_define(tower, values)
    sym_d = sympy_derivation(sym_values, minpolys)
    for name in minpolys:
        forced = to_sympy(str(der.values[name]))
        assert same_in_tower(forced, sym_d[name], t_of_s), name
    rng = random.Random(f"derivation:{label}")
    for _ in range(6):
        text = random_element(rng, tower.variables, den_names)
        x = element_eval(tower, text)
        got = to_sympy(str(der(x)))
        want = sympy_apply(sym_d, to_sympy(text))
        assert same_in_tower(got, want, t_of_s), text


REFERENCE = "(s*u + t)/(u^2 - s)"


@pytest.mark.parametrize("label", ["Q(t)(s)(u), d(u) = u", "Q(t)(s)(u), d(u) = u*s + t"])
def test_reference_element_matches_sympy_chain_rule(label):
    """d((s*u + t)/(u^2 - s)): with d(u) = u*s + t its u-level
    normalisation once ran Euclid over Q(t)(s) for minutes."""
    spec, values, sym_values, minpolys, t_of_s, _ = TOWERS[label]
    tower = build_tower(spec)
    got = derivation_define(tower, values)(element_eval(tower, REFERENCE))
    want = sympy_apply(sympy_derivation(sym_values, minpolys), to_sympy(REFERENCE))
    assert same_in_tower(to_sympy(str(got)), want, t_of_s)


# -- poly_gcd --------------------------------------------------------------------

VARS = ("x", "y", "z")


def random_trivariate(rng, terms):
    out = {}
    while not out:
        for _ in range(terms):
            exps = tuple(rng.randint(0, 2) for _ in VARS)
            out[exps] = out.get(exps, 0) + rng.choice([c for c in range(-4, 5) if c])
        out = {e: Fraction(c) for e, c in out.items() if c}
    return out


def dense(terms, n):
    """The element of Q[x1..xn] with the given {exponents: coefficient}
    terms, exponents listed x1 first; xn is the outermost tuple."""
    if n == 0:
        return sum(terms.values(), Fraction(0))
    rows = {}
    for exps, c in terms.items():
        rows.setdefault(exps[-1], {})[exps[:-1]] = c
    out = [dense(rows.get(k, {}), n - 1) for k in range(max(rows) + 1)] if rows else []
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def to_sympy_poly(terms):
    x = sympy.symbols(VARS)
    return sum(sympy.Rational(c.numerator, c.denominator)
               * sympy.Mul(*(xi**e for xi, e in zip(x, exps)))
               for exps, c in terms.items())


def sympy_terms(expr):
    poly = sympy.Poly(expr, *sympy.symbols(VARS))
    return {exps: Fraction(int(c.p), int(c.q)) for exps, c in poly.terms()}


def same_up_to_rational_unit(p, q):
    ratios = {p.terms[e] / c for e, c in q.terms.items() if e in p.terms}
    return set(p.terms) == set(q.terms) and len(ratios) == 1


@pytest.mark.parametrize("seed", range(8))
def test_poly_gcd_is_independent_of_variable_order(seed):
    """The gcd of two seeded trivariate products, taken in each of the six
    nestings Q[a][b][c] of x, y, z, is sympy's up to a rational unit."""
    rng = random.Random(f"gcd:{seed}")
    g = to_sympy_poly(random_trivariate(rng, 3))
    a = sympy.expand(g * to_sympy_poly(random_trivariate(rng, 3)))
    b = sympy.expand(g * to_sympy_poly(random_trivariate(rng, 2)))
    want = MultiPoly(VARS, sympy_terms(sympy.gcd(a, b)))
    ring = PolyRing(PolyRing(PolyRing(QQ)))
    for order in itertools.permutations(range(3)):
        names = tuple(VARS[i] for i in order)

        def nested(expr):
            return dense({tuple(e[i] for i in order): c for e, c in sympy_terms(expr).items()}, 3)

        got = dense_to_multipoly(names, poly_gcd(ring, nested(a), nested(b)))
        back = MultiPoly(VARS, {tuple(e[names.index(v)] for v in VARS): c
                                for e, c in got.terms.items()})
        assert same_up_to_rational_unit(back, want), names


# -- printed normal form ---------------------------------------------------------


@pytest.mark.parametrize("label", TOWERS)
def test_printed_numerator_and_denominator_are_coprime(label):
    """Generators read as free variables, sympy finds no common factor of
    the printed numerator and denominator, of an element or of its
    derivative."""
    spec, values, *_, den_names = TOWERS[label]
    tower = build_tower(spec)
    der = derivation_define(tower, values)
    rng = random.Random(f"coprime:{label}")
    for _ in range(6):
        x = element_eval(tower, random_element(rng, tower.variables, den_names))
        for elem in (x, der(x)):
            rf = elem.as_ratfunc()
            num, den = to_sympy(str(rf.num)), to_sympy(str(rf.den))
            assert sympy.gcd(num, den).is_number, str(elem)
