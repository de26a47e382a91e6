"""Derivations and polynomial gcds checked against sympy on seeded random input.

sympy is a test-only oracle: these tests are skipped when it is missing.

A tower Q(t)(s) with s^n = t is the field Q(s) with t = s^n, so two
expressions agree in it exactly when they cancel to the same function of s
after substituting t = s^n.  sympy computes d(x) by the chain rule,
d(x) = sum over generators g of (dx/dg) d(g), with d(s) on an algebraic s
found by implicit differentiation of its minimal polynomial.
"""
import itertools
import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from dercalc import MultiPoly, derivation_define, element_eval, tower_new  # noqa: E402
from dercalc.exact import poly_gcd, poly_primitive  # noqa: E402

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
    "Q(t)(s)(u), d(u) = u": ("t:trans;s:alg:s^2 - t;u:trans", {"t": "1", "u": "u"},
                             {"t": 1, "u": u}, {"s": s**2 - t}, s**2, "tsu"),
    "Q(t)(u), d(u) = t/(u + 1)": ("t:trans;u:trans", {"t": "1", "u": "t/(u + 1)"},
                                  {"t": 1, "u": t / (u + 1)}, {}, None, "tu"),
    # d(s) lies above s: the forced value is computed in Q(t)(s)(u).  The
    # denominators stay free of u, where a gcd over Q(t)(s) takes seconds.
    "Q(t)(s)(u), d(t) = u, d(u) = s": ("t:trans;s:alg:s^2 - t;u:trans", {"t": "u", "u": "s"},
                                       {"t": u, "u": s}, {"s": s**2 - t}, s**2, "ts"),
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


def as_multipoly(terms, order):
    """The polynomial over the variable tuple `order`."""
    perm = [VARS.index(v) for v in order]
    return MultiPoly(order, {tuple(e[i] for i in perm): c for e, c in terms.items()})


def back_to_vars(p):
    perm = [p.variables.index(v) for v in VARS]
    return MultiPoly(VARS, {tuple(e[i] for i in perm): c for e, c in p.terms.items()})


def to_sympy_poly(p):
    x = sympy.symbols(VARS)
    return sum(sympy.Rational(c.numerator, c.denominator)
               * sympy.Mul(*(xi**e for xi, e in zip(x, exps)))
               for exps, c in p.terms.items())


def from_sympy_poly(expr):
    poly = sympy.Poly(expr, *sympy.symbols(VARS))
    return MultiPoly(VARS, {exps: Fraction(int(c.p), int(c.q)) for exps, c in poly.terms()})


@pytest.mark.parametrize("seed", range(8))
def test_poly_gcd_is_independent_of_variable_order(seed):
    rng = random.Random(f"gcd:{seed}")
    g = random_trivariate(rng, 3)
    a_xyz = as_multipoly(g, VARS) * as_multipoly(random_trivariate(rng, 3), VARS)
    b_xyz = as_multipoly(g, VARS) * as_multipoly(random_trivariate(rng, 2), VARS)
    results = []
    for order in itertools.permutations(VARS):
        a = as_multipoly(a_xyz.terms, order)
        b = as_multipoly(b_xyz.terms, order)
        results.append(back_to_vars(poly_gcd(a, b)))
    # The sign is normalised in each declared order; the gcd is unique up to it.
    reference = results[0]
    for got in results[1:]:
        assert got == reference or got == -reference
    want = sympy.gcd(to_sympy_poly(a_xyz), to_sympy_poly(b_xyz))
    assert poly_primitive(reference) == poly_primitive(from_sympy_poly(want))
