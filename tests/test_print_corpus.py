"""Printed normal forms of tower elements, replayed from a pinned corpus.

Each line of tests/data/print_corpus.txt reads `spec | expression | printed`.
The spec uses the CLI's tower syntax ("t:trans;s:alg:s^2 - t").  An
expression may apply d, the derivation with d(g) = 1 on the first
transcendental generator and d(g) = g on every later one; algebraic
generators take their forced values.  Every line must print byte for byte
as pinned.

The corpus comes from `corpus_lines` below.  To rebuild it after a change
that is meant to alter printed output:

    PYTHONPATH=src python tests/test_print_corpus.py > tests/data/print_corpus.txt
"""
import random
import time
from pathlib import Path

from dercalc import TowerError, derivation_define, element_eval, tower_new

CORPUS = Path(__file__).parent / "data" / "print_corpus.txt"

# (spec, random elements, derivatives, terms per polynomial).  Arithmetic
# in towers of three or more levels costs tens of milliseconds an
# operation, so their elements are few and small.
TOWERS = [
    ("t:trans", 140, 50, 3),
    ("t:trans;s:alg:s^2 - t", 30, 30, 2),
    ("t:trans;u:trans", 16, 4, 2),
    ("s:alg:s^2 - 2;t:trans", 16, 4, 2),
    ("s:alg:s^4 - 5*s^2 + 6;u:trans", 12, 4, 2),
    ("t:trans;s:alg:s^2 - t;r:alg:r^2 - s", 8, 2, 2),
    ("t:trans;s:alg:s^2 - t;u:trans", 6, 2, 1),
    ("t:trans;u:trans;v:trans", 4, 2, 1),
    ("t:trans;s:alg:s^2 - t;u:trans;r:alg:r^2 - u", 2, 0, 1),
]


def build_tower(spec):
    tower = tower_new()
    for part in spec.split(";"):
        name, kind, *rest = part.split(":")
        if kind == "trans":
            tower = tower.adjoin_transcendental(name)
        else:
            tower = tower.adjoin_algebraic(name, rest[0])
    return tower


def derivation(tower):
    trans = tower.transcendental_names()
    return derivation_define(tower, {g: "1" if i == 0 else g for i, g in enumerate(trans)})


def _poly(rng, tower, names, terms, degree):
    """Sum of `terms` monomials in `names` with small nonzero coefficients;
    an algebraic generator's exponent reaches its degree, so it reduces."""
    caps = {g.name: (g.degree if g.kind == "algebraic" else degree) for g in tower.gens}
    parts = []
    for _ in range(terms):
        coeff = rng.choice([c for c in range(-6, 7) if c])
        powers = [(n, rng.randint(0, caps[n])) for n in names]
        parts.append("*".join([str(coeff)] + [n if e == 1 else f"{n}^{e}" for n, e in powers if e]))
    return " + ".join(parts).replace("+ -", "- ")


def _element(rng, tower, shape, terms):
    names = tower.variables
    lower = names[:-1] or names

    def quotient(names, degree=1):
        return f"({_poly(rng, tower, names, terms, degree)})/({_poly(rng, tower, names, terms, 1)})"

    if shape == 0:
        # One quotient over every generator.
        return quotient(names, 2 if len(names) < 3 else 1)
    if shape == 1:
        # Coefficients with denominators from the levels below the top.
        return f"{quotient(lower)}*{names[-1]} + {quotient(lower)}"
    # A quotient of two such sums: denominators at several levels at once.
    return f"({quotient(lower)}*{names[-1]} + {quotient(lower)})/({names[-1]}^2 + {quotient(lower)})"


def _dense(rng, x, degree, low, factor=""):
    """Polynomial of the given degree in x, times factor, with every
    coefficient present: magnitudes low..low+degree in a seeded order."""
    mags = list(range(low, low + degree + 1))
    rng.shuffle(mags)
    return " + ".join(f"{rng.choice((-1, 1)) * m}*{x}^{e}{factor}"
                      for e, m in zip(range(degree, -1, -1), mags))


def _derivative(rng, tower, terms):
    """d(P/Q) with P and Q shaped like the derivation benchmark's inputs:
    dense in the first generator, plus a part times one other generator.
    With one term a polynomial, the shapes are its two small ones in
    Q(t)(s)(u): (u^2 + c*s)/c and (c*t*u + c)/u."""
    first, *others = tower.variables
    if terms == 1:
        c = [rng.choice((-1, 1)) * rng.choice((2, 3)) for _ in range(3)]
        second, top = others[0], others[-1]
        if rng.random() < 0.5:
            return f"d(({top}^2 + {c[0]}*{second})/({c[1]}))"
        return f"d(({c[0]}*{first}*{top} + {c[1]})/({top}))"
    num = _dense(rng, first, rng.randint(1, terms), 1)
    den = _dense(rng, first, rng.randint(1, min(terms, 2)), 2)
    if others:
        num += " + " + _dense(rng, first, rng.randint(0, 1), 1, f"*{rng.choice(others)}")
        den += " + " + _dense(rng, first, rng.randint(0, 1), 5, f"*{rng.choice(others)}")
    return f"d(({num})/({den}))"


def corpus_lines():
    for spec, n_elements, n_derivatives, terms in TOWERS:
        tower = build_tower(spec)
        d = {"d": derivation(tower)}
        rng = random.Random(f"print-corpus:{spec}")
        exprs = [_element(rng, tower, i % 3, terms) for i in range(n_elements)]
        exprs += [_derivative(rng, tower, terms) for _ in range(n_derivatives)]
        for expr in exprs:
            try:
                printed = str(element_eval(tower, expr, d))
            except (ZeroDivisionError, TowerError):
                continue
            yield f"{spec} | {expr} | {printed}"


def test_print_corpus_replays_byte_identically():
    lines = CORPUS.read_text().splitlines()
    assert len(lines) >= 300
    towers = {}
    printing = 0.0
    for line in lines:
        spec, expr, printed = line.split(" | ")
        if spec not in towers:
            tower = build_tower(spec)
            towers[spec] = tower, {"d": derivation(tower)}
        tower, d = towers[spec]
        elem = element_eval(tower, expr, d)
        start = time.perf_counter()
        got = str(elem)
        printing += time.perf_counter() - start
        assert got == printed, line
    # About 0.2 s on a 2-vCPU Xeon; flattening to sparse polynomials and
    # taking their gcd took about 3 s.
    assert printing < 2


if __name__ == "__main__":
    for line in corpus_lines():
        print(line)
