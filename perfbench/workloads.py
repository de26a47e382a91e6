"""Seeded operation lists for the three workloads.

`build(workload, seed)` imports dercalc and returns the operations of one
round. Each operation has a timed call, a digest taken outside the timing,
and a check of the digest against the independent answers in oracles.py.
The mix of each round is fixed; the seed draws coefficients, tables,
weights and the interleaved order, never the number of operations of a
class, so every seed asks for the same kinds and amounts of work.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

import oracles as O

WORKLOADS = ("derive", "check", "solve")

# Budget passed to every enumeration, as scripts/open_problems.py passes it.
SOLVE_BUDGET = 10 ** 30


@dataclass
class Fault:
    """A known fault that makes an operation fail every time."""

    exc: str        # exception class name
    fragment: str   # text the message contains


@dataclass
class Op:
    kind: str
    label: str
    run: Callable[[], object]
    digest: Callable[[object], object]
    check: Callable[[object], None]
    fault: Optional[Fault] = None


def _same(x):
    return x


# -- derive -----------------------------------------------------------------------


def _nonzero(rng: random.Random, lim: int) -> int:
    return rng.choice([c for c in range(-lim, lim + 1) if c])


def _poly_t(rng, degree: int, exps_s: int = 0, low: int = 1) -> O.Poly:
    """Polynomial of the given degree in t, times s^exps_s, with every
    coefficient present. The magnitudes are low..low+degree in a seeded
    order with seeded signs, so polynomials of one degree have one size.
    Numerators take low = 1 and denominators low = 2, so that no quotient
    collapses to a constant."""
    mags = list(range(low, low + degree + 1))
    rng.shuffle(mags)
    return [(rng.choice((-1, 1)) * m, (e, exps_s, 0)) for e, m in zip(range(degree, -1, -1), mags)]


# Q(t)(s) shapes: degrees in t of (A0, A1, B0, B1) in (A0 + A1 s)/(B0 + B1 s).
# The last three, with t*s in the denominator, cost several times more than
# the first three, most of it in printing.
S_SHAPES = [(1, 0, 1, 0), (2, 1, 1, 0), (1, 1, 1, 0), (2, 0, 0, 1), (1, 0, 1, 1), (2, 1, 1, 1)]
# Q(t)(s)(u) shapes as (numerator, denominator); c stands for a seeded
# coefficient of magnitude 2 or 3.
U_SHAPES = [
    ("u^2 + c*s", "c"),
    ("c*t*u + c", "u"),
]


def _u_fill(rng, template: str) -> O.Poly:
    """Expand a U_SHAPES template into a polynomial in t, s, u."""
    poly: O.Poly = []
    for piece in template.replace(" - ", " + -").split(" + "):
        coeff, exps = -1 if piece.startswith("-") else 1, [0, 0, 0]
        for f in piece.lstrip("-").split("*"):
            if f == "c":
                coeff *= rng.choice((-1, 1)) * rng.choice((2, 3))
            elif f[0] in O.GENS:
                exps[O.GENS.index(f[0])] += int(f[2:]) if "^" in f else 1
            else:
                coeff *= int(f)
        poly.append((coeff, tuple(exps)))
    return poly


def _derivative_op(kind, tower, values, num: O.Poly, den: O.Poly) -> Op:
    """Define d from its generator values, evaluate d(num/den), print it."""
    from dercalc import derivation_define, element_eval

    text = f"d(({O.poly_text(num)})/({O.poly_text(den)}))"

    def run():
        return str(element_eval(tower, text, {"d": derivation_define(tower, values)}))

    def check(printed):
        O.check_against(printed, O.derivative_of(num, den), text)

    return Op(kind, text, run, _same, check)


def _derive_ops(rng: random.Random) -> List[Op]:
    from dercalc import GammaTable, MultiPoly, derivation_define, element_eval, tower_new
    from dercalc.derivations import (
        AffineDerivation, leibniz_residual, power_rule_residual, reflection_residual)
    from dercalc.higher import hod_define, hod_eval
    from dercalc.multiadd import recover_components

    qt = tower_new().adjoin_transcendental("t")
    qts = qt.adjoin_algebraic("s", "s^2 - t")
    qtsu = qts.adjoin_transcendental("u")
    d_t = derivation_define(qt, {"t": 1})
    d_ts = derivation_define(qts, {"t": 1})
    u_values = {"t": 1, "u": "u"}

    ops: List[Op] = []
    for i in range(8):
        num = _poly_t(rng, 2 + i % 3)
        den = _poly_t(rng, 1 + i % 3, low=2)
        ops.append(_derivative_op("der_t", qt, {"t": 1}, num, den))
    for i in range(33):
        a0, a1, b0, b1 = S_SHAPES[i % 3 if i < 24 else 3 + i % 3]
        num = _poly_t(rng, a0) + _poly_t(rng, a1, exps_s=1)
        # The s part's magnitudes start above the rest's, so it is never a
        # multiple of it: (B0 + B0*s) would cancel and cost a fifth as much.
        den = _poly_t(rng, b0, low=2) + _poly_t(rng, b1, exps_s=1, low=b0 + 3)
        ops.append(_derivative_op("der_s", qts, {"t": 1}, num, den))
    for ntext, dtext in U_SHAPES:
        num, den = _u_fill(rng, ntext), _u_fill(rng, dtext)
        ops.append(_derivative_op("der_u", qtsu, u_values, num, den))
    ref_num = [(1, (0, 1, 1)), (1, (1, 0, 0))]
    ref_den = [(1, (0, 0, 2)), (-1, (0, 1, 0))]
    ops.append(_derivative_op("reference", qtsu, u_values, ref_num, ref_den))

    def small_s(rng) -> Tuple[O.Poly, O.Poly]:
        return (_poly_t(rng, 1) + _poly_t(rng, 0, exps_s=1), _poly_t(rng, 1, low=2))

    for i in range(3):
        (xn, xd), (yn, yd) = small_s(rng), small_s(rng)
        xt = f"({O.poly_text(xn)})/({O.poly_text(xd)})"
        yt = f"({O.poly_text(yn)})/({O.poly_text(yd)})"
        label = f"leibniz {xt}, {yt}"
        ops.append(Op(
            "leibniz", label,
            lambda xt=xt, yt=yt: str(leibniz_residual(
                d_ts, element_eval(qts, xt), element_eval(qts, yt))),
            _same,
            lambda got, label=label: O.expect(got == "0", f"{label}: residual {got!r} is not 0"),
        ))
    for i in range(3):
        xn, xd = _poly_t(rng, 2), _poly_t(rng, 1, low=2)
        xt = f"({O.poly_text(xn)})/({O.poly_text(xd)})"
        k, c = 2 + i % 3, i % 3
        label = f"power k={k} slope={c} x={xt}"
        x_val = O.value_of(xn, xd)
        ops.append(Op(
            "power", label,
            lambda xt=xt, k=k, c=c: str(power_rule_residual(
                AffineDerivation(d_t, c), k, element_eval(qt, xt))),
            _same,
            # f = d + c*id gives f(x^k) - k x^(k-1) f(x) = c (1 - k) x^k.
            lambda got, label=label, x_val=x_val, k=k, c=c: O.check_against(
                got, lambda a, b: c * (1 - k) * x_val(a, b) ** k, label),
        ))
    for i in range(3):
        xn, xd = small_s(rng)
        xt = f"({O.poly_text(xn)})/({O.poly_text(xd)})"
        c = i % 2
        label = f"reflection slope={c} x={xt}"
        x_val = O.value_of(xn, xd)
        ops.append(Op(
            "reflection", label,
            lambda xt=xt, c=c: str(reflection_residual(
                AffineDerivation(d_ts, c), element_eval(qts, xt))),
            _same,
            # f(x) + x^2 f(1/x) = 2 c x for f = d + c*id.
            lambda got, label=label, x_val=x_val, c=c: O.check_against(
                got, lambda a, b: 2 * c * x_val(a, b), label),
        ))
    for i in range(3):
        order = 5 + i % 2
        coeffs = {m: _nonzero(rng, 9) for m in range(12 + 2 * (i % 3), -1, -1)}
        poly = MultiPoly(("t",), {(m,): Fraction(c) for m, c in coeffs.items()})
        one = MultiPoly.const(("t",), 1)
        label = f"hod binomial order {order} on a degree-{max(coeffs)} polynomial"

        def run(order=order, poly=poly, one=one):
            hd = hod_define(GammaTable.binomial(order), ("t",), {(1, "t"): one})
            return [hod_eval(hd, k, poly) for k in range(order + 1)]

        def digest(polys):
            return [{e[0]: v for e, v in p.terms.items()} for p in polys]

        def check(got, coeffs=coeffs, label=label):
            for k, terms in enumerate(got):
                want = O.binomial_system(coeffs, k)
                O.expect(terms == want, f"{label}: d_{k} gives {terms}, falling factorials give {want}")

        ops.append(Op("hod", label, run, digest, check))
    for i in range(3):
        degree, dim = 3, 2 + i % 2
        comps = O.random_components(rng, degree, dim)
        blackbox = O.poly_function(comps)
        label = f"recover degree {degree} dim {dim}"

        def digest(pf):
            return [{idx: v for idx, v in A.coeffs.items()} for A in pf.components]

        def check(got, comps=comps, label=label):
            want = [{idx: Fraction(c) for idx, c in comp.items()} for comp in comps]
            O.expect(got == want, f"{label}: recovered {got}, generated {want}")

        ops.append(Op("recover", label,
                      lambda bb=blackbox, n=degree, dim=dim: recover_components(bb, n, dim),
                      digest, check))
    return ops


# -- check ------------------------------------------------------------------------


def _table(ar, coeffs: Dict[int, int]) -> Dict[int, int]:
    """Polynomial sum c_k x^k on the carrier's elements."""
    return {x: ar.r(sum(c * x ** k for k, c in coeffs.items())) for x in ar.elems}


def _poly_spec(coeffs: Dict[int, int]) -> str:
    """sum c_k x^k as text in the session grammar."""
    poly = [(c, (k, 0, 0)) for k, c in sorted(coeffs.items(), reverse=True) if c]
    return O.poly_text(poly).replace("t", "x")


def _report_digest(rep):
    return (rep.status, rep.witness, rep.lhs, rep.rhs, rep.checked, rep.skipped)


def _cocycle_digest(rep):
    return {name: (r.status, r.witness, r.lhs, r.rhs, r.checked, r.skipped)
            for name, r in rep.axioms.items()}


# Polynomial tables {degree: coefficient} that solve each equation on GF(p).
GF_SOLUTIONS = {
    "cauchy-add": lambda rng: {1: rng.randint(1, 9)},
    "jensen": lambda rng: {1: rng.randint(1, 9), 0: rng.randint(1, 9)},
    "hosszu": lambda rng: {1: rng.randint(1, 9), 0: rng.randint(1, 9)},
    "cauchy-mult": lambda rng: {rng.randint(2, 5): 1},
    "leibniz": lambda rng: {},
    "opp3": lambda rng: {},
    "alien-c22": lambda rng: {},
}
GF_PRIMES = (61, 67, 71, 73, 79, 83, 89, 97)


def _matches(label: str, expected: Callable[[], object]) -> Callable[[object], None]:
    """Check that compares the digest with an answer computed on demand."""
    def check(got):
        want = expected()
        O.expect(got == want, f"{label}: got {got}, expected {want}")
    return check


def _check_ops(rng: random.Random) -> List[Op]:
    from dercalc import (
        CORPUS, Cocycle2, Equation, FnTable, IntegerWindow, cauchy_difference, cocycle_verify,
        feq_check, gf, leibniz_coboundary_check, leibniz_difference, run_session_text)
    from dercalc.cocycle import F_AXIOMS, PAIR_AXIOMS

    ops: List[Op] = []

    def feq_op(eq, carrier, ar, tables, params=None, fault=None):
        bound = {f: FnTable(carrier, t) for f, t in tables.items()}
        label = f"feq {eq.name} on {carrier}"
        return Op("feq", label, lambda: feq_check(eq, bound, params), _report_digest,
                  _matches(label, lambda: O.feq_expected(eq.name, ar, tables, params)), fault)

    # Solutions, and solutions with one entry changed, on GF(p).
    names = sorted(GF_SOLUTIONS)
    for i in range(14):
        name = names[i % len(names)]
        p = GF_PRIMES[i % len(GF_PRIMES)]
        ar = O.ModArith(p)
        table = _table(ar, GF_SOLUTIONS[name](rng))
        params = {"lam": rng.randint(1, p - 1), "mu": rng.randint(1, p - 1)} if name == "alien-c22" else None
        if i >= len(names):
            x = rng.randint(2, p - 1)
            table[x] = (table[x] + rng.randint(1, p - 1)) % p
        ops.append(feq_op(CORPUS[name], gf(p), ar, {"f": table}, params))
    # Integer windows, where division and escaping arguments skip pairs.
    for i, name in enumerate(("jensen", "cauchy-add", "hosszu", "jensen", "cauchy-add", "leibniz")):
        w = 45 + 5 * (i % 3)
        ar = O.WindowArith(-w, w)
        coeffs = {1: _nonzero(rng, 9)}
        if name in ("jensen", "hosszu"):
            coeffs[0] = rng.randint(-9, 9)
        if name == "leibniz":
            coeffs = {2: 1} if i % 2 else {}
        ops.append(feq_op(CORPUS[name], IntegerWindow(-w, w), ar, {"f": _table(ar, coeffs)}))

    # The six axioms for the Cauchy and Leibniz differences of a random f.
    for p in (13, 17, 19, 13, 17, 19):
        ar = O.ModArith(p)
        f = {x: rng.randrange(p) for x in range(p)}
        F, G = cauchy_difference(f, gf(p)), leibniz_difference(f, gf(p))
        label = f"cocycle pair axioms on GF({p})"

        def check(got, ar=ar, f=f, label=label, p=p):
            want = O.cocycle_expected(ar, O.cauchy_diff(ar, f), O.leibniz_diff(ar, f), PAIR_AXIOMS, p)
            O.expect(got == want, f"{label}: got {got}, expected {want}")
            for name, res in got.items():
                count = 1 if name == "zeta" else p ** O.AXIOM_ARITY[name]
                O.expect(res[4] + res[5] == count, f"{label}: ({name}) ran {res[4] + res[5]} "
                                                   f"tuples, expected {count}")

        ops.append(Op("cocycle", label,
                      lambda F=F, G=G: cocycle_verify(F, G, axioms=PAIR_AXIOMS), _cocycle_digest,
                      check))
    # A random symmetric two-variable map is rarely a cocycle: (beta) fails.
    for p in (29, 31):
        ar = O.ModArith(p)
        table = {}
        for a in range(p):
            for b in range(a, p):
                table[(a, b)] = table[(b, a)] = rng.randrange(p)
        F = Cocycle2(gf(p), lambda a, b, table=table: table[(a, b)], "F")
        label = f"cocycle F axioms, random symmetric F on GF({p})"
        ops.append(Op("cocycle", label, lambda F=F: cocycle_verify(F, axioms=F_AXIOMS),
                      _cocycle_digest,
                      _matches(label, lambda ar=ar, table=table, p=p: O.cocycle_expected(
                          ar, O.table_fn2(ar, table), None, F_AXIOMS, p))))
    # Leibniz differences of additive maps are coboundaries; one changed entry breaks that.
    for i, p in enumerate((17, 19, 23, 19)):
        ar = O.ModArith(p)
        c = rng.randint(1, p - 1)
        D = {(a, b): (-c * a * b) % p for a in range(p) for b in range(p)}
        if i == 3:
            a, b = rng.randint(1, p - 1), rng.randint(1, p - 1)
            D[(a, b)] = (D[(a, b)] + 1) % p
        label = f"leibniz coboundary on GF({p})"
        ops.append(Op("coboundary", label,
                      lambda D=D, p=p: leibniz_coboundary_check(D, gf(p)), _cocycle_digest,
                      _matches(label, lambda ar=ar, D=D: O.coboundary_expected(ar, O.table_fn2(ar, D)))))
    # Sampled axioms on an integer window.
    sampled = [a for a in PAIR_AXIOMS if a != "zeta"]
    for i in range(3):
        r = 30
        ar = O.WindowArith(-r, r)
        coeffs = {2: _nonzero(rng, 5), 1: rng.randint(-5, 5)}
        f = _table(ar, coeffs)
        window = IntegerWindow(-r, r)
        F, G = cauchy_difference(f, window), leibniz_difference(f, window)
        seed = rng.randrange(10 ** 6)
        label = f"sampled cocycle axioms on window:-{r}:{r}, f = {_poly_spec(coeffs)}"

        def check(got, ar=ar, f=f, label=label):
            O.check_sampled(label, ar, O.cauchy_diff(ar, f), O.leibniz_diff(ar, f), got, sampled, 200)

        ops.append(Op("sampled", label,
                      lambda F=F, G=G, seed=seed: cocycle_verify(
                          F, G, axioms=PAIR_AXIOMS, mode="sampled", sample=200, seed=seed),
                      _cocycle_digest, check))
    for i in range(8):
        ops.append(_session_op(rng, i, run_session_text))

    # Kept failing: tables on two separately made gf(7) values.
    p = 7
    mixed = Equation.parse("mixed", O.MIXED_SOURCE)
    f_tab = {x: 3 * x % p for x in range(p)}
    g_tab = {x: 0 for x in range(p)}
    ops.append(Op("feq", "feq mixed f, g on two gf(7) values",
                  lambda: feq_check(mixed, {"f": FnTable(gf(p), f_tab), "g": FnTable(gf(p), g_tab)}),
                  _report_digest,
                  _matches("feq mixed", lambda: O.feq_expected("mixed", O.ModArith(p),
                                                               {"f": f_tab, "g": g_tab})),
                  # Carriers are compared by identity, not by value.
                  Fault("FeqError", "share one carrier")))
    return ops


def _session_op(rng: random.Random, i: int, run_session_text) -> Op:
    """A script mixing a Q(t)(s) derivation, feq checks and a cocycle check;
    every other script ends with a failing check and exit code 1."""
    lines = ["# seeded session", "[tower]", "t: transcendental", "s: algebraic s^2 - t", "",
             "[derivation d]", "d(t) = 1", "", "[check]"]
    # Expected transcript lines, as texts or as functions giving the text.
    expected: List[object] = []
    num = _poly_t(rng, 1) + _poly_t(rng, 1, exps_s=1)
    den = _poly_t(rng, 1, low=2) + _poly_t(rng, 0, exps_s=1, low=2)
    src = f"d(({O.poly_text(num)})/({O.poly_text(den)}))"
    lines.append(f"eval {src}")
    expected.append((src, O.derivative_of(num, den)))
    x = f"({O.poly_text(_poly_t(rng, 1, exps_s=1))})"
    y = f"({O.poly_text(_poly_t(rng, 1))})"
    zero = f"d({x}*{y}) - {x}*d({y}) - {y}*d({x})"
    lines.append(f"zero {zero}")
    expected.append(f"zero {zero}: pass")
    p = (31, 37, 41, 43)[i % 4]
    ar = O.ModArith(p)
    c = rng.randint(1, 9)
    lines.append(f"feq cauchy-add f = {c}*x on gf:{p}")
    expected.append(lambda: [O.feq_line("cauchy-add", O.feq_expected(
        "cauchy-add", ar, {"f": _table(ar, {1: c})}))])
    q = (7, 11)[i % 2]
    coeffs = {2: _nonzero(rng, 5), 1: rng.randint(-5, 5)}
    spec = _poly_spec(coeffs)
    lines.append(f"cocycle pair f = {spec} on gf:{q}")

    def cocycle_block(q=q, coeffs=coeffs, spec=spec):
        arq = O.ModArith(q)
        fq = _table(arq, coeffs)
        axioms = O.cocycle_expected(arq, O.cauchy_diff(arq, fq), O.leibniz_diff(arq, fq),
                                    ("alpha", "beta", "gamma", "delta", "epsilon", "zeta"), q)
        return [f"cocycle pair f = {spec} on gf:{q}"] + ["  " + ln for ln in O.cocycle_lines(axioms)]

    expected.append(cocycle_block)
    w = 20
    arw = O.WindowArith(-w, w)
    a, b = _nonzero(rng, 5), rng.randint(-5, 5)
    lines.append(f"feq jensen f = {_poly_spec({1: a, 0: b})} on window:-{w}:{w}")
    expected.append(lambda: [O.feq_line("jensen", O.feq_expected(
        "jensen", arw, {"f": _table(arw, {1: a, 0: b})}))])
    code = 0
    if i % 2:
        lines.append(f"feq cauchy-add f = {_poly_spec({2: 1})} on gf:{p}")
        expected.append(lambda: [O.feq_line("cauchy-add", O.feq_expected(
            "cauchy-add", ar, {"f": _table(ar, {2: 1})}))])
        code = 1
    text = "\n".join(lines) + "\n"
    label = f"session script {i}"

    def check(got):
        out, exit_code = got
        O.expect(exit_code == code, f"{label}: exit code {exit_code}, expected {code}")
        want: List[object] = []
        for item in expected:
            want += item() if callable(item) else [item]
        O.expect(len(out) == len(want), f"{label}: {len(out)} lines, expected {len(want)}")
        for line, w_line in zip(out, want):
            if isinstance(w_line, tuple):
                src, value = w_line
                O.expect(line.startswith(f"{src} = "), f"{label}: line {line!r}")
                O.check_against(line[len(src) + 3:], value, f"{label}: {src}")
            else:
                O.expect(line == w_line, f"{label}: line {line!r}, expected {w_line!r}")

    return Op("session", label, lambda: run_session_text(text), lambda r: (list(r[0]), r[1]), check)


# -- solve ------------------------------------------------------------------------

# (equation, prime, copies per round). The median falls among opp2 on GF(13),
# jensen on GF(11) and the other 300-450 ms classes, above the cost of the
# refused GF(23) requests once admitted; hosszu on GF(7), the costliest, is a
# sixth of the successful operations, so the 90th percentile falls inside it.
SOLVE_MIX = [
    ("cauchy-add", 19, 1), ("jensen", 11, 3), ("hosszu", 7, 4), ("leibniz", 19, 2),
    ("opp2", 13, 4), ("opp3", 19, 1), ("alien-c22", 19, 1),
    ("cauchy-exp", 19, 1), ("cauchy-mult", 19, 2), ("ger-hom", 19, 1),
]
# Kept failing: refused under SOLVE_BUDGET because the budget is compared with
# the raw table space 23^23, though the pruned search is short.
REFUSED = [("opp3", 23), ("cauchy-exp", 23), ("ger-hom", 23), ("cauchy-add", 23)]


def _expected_count(eq: str, p: int, params) -> int:
    count = O.closed_form_count(eq, p)
    return O.linear_solution_count(eq, p, params) if count is None else count


def _solve_op(eq_name: str, p: int, params, fault: Optional[Fault] = None) -> Op:
    from dercalc import CORPUS, feq_solve_brute, gf

    eq = CORPUS[eq_name]
    label = f"solve {eq_name} on GF({p})" + (f" with {params}" if params else "")

    def digest(rep):
        return [dict(sol[0].values) for sol in rep.solutions]

    def check(tables):
        want = _expected_count(eq_name, p, params)
        O.expect(len(tables) == want, f"{label}: {len(tables)} solutions, expected {want}")
        for t in tables:
            O.verify_table(eq_name, p, t, params)
        O.expect(len({tuple(sorted(t.items())) for t in tables}) == len(tables),
                 f"{label}: repeated solution")

    return Op("solve", label,
              lambda: feq_solve_brute(eq, ("f",), gf(p), params=params, budget=SOLVE_BUDGET),
              digest, check, fault)


def _solve_ops(rng: random.Random) -> List[Op]:
    from dercalc import alien_check, gf
    from dercalc.feq import logarithmic_zero_check

    ops: List[Op] = []
    for eq, p, copies in SOLVE_MIX:
        for _ in range(copies):
            params = None
            if eq == "alien-c22":
                params = {"lam": rng.randint(1, p - 1), "mu": rng.randint(1, p - 1)}
            ops.append(_solve_op(eq, p, params))
    for p in (19,):
        lam, mu = rng.randint(1, p - 1), rng.randint(1, p - 1)
        label = f"alien_check lam={lam} mu={mu} on GF({p})"

        def check(got, p=p, lam=lam, mu=mu, label=label):
            sols, all_der = got
            want = O.linear_solution_count("alien-c22", p, {"lam": lam, "mu": mu})
            O.expect(len(sols) == want, f"{label}: {len(sols)} solutions, expected {want}")
            for sol in sols:
                O.verify_table("alien-c22", p, dict(enumerate(sol)), {"lam": lam, "mu": mu})
                O.verify_table("cauchy-add", p, dict(enumerate(sol)))
                O.verify_table("leibniz", p, dict(enumerate(sol)))
            O.expect(all_der, f"{label}: solutions not reported as derivations")

        ops.append(Op("alien", label,
                      lambda p=p, lam=lam, mu=mu: alien_check(lam, mu, gf(p), budget=SOLVE_BUDGET),
                      lambda r: (list(r.solutions), r.all_derivations), check))
    for p in (19,):
        label = f"logarithmic maps on the units of GF({p})"

        def check(got, p=p, label=label):
            # GF(p)* is cyclic of order p - 1: p - 1 homomorphisms to Z/(p - 1).
            O.expect(len(got) == p - 1, f"{label}: {len(got)} maps, expected {p - 1}")
            for sol in got:
                O.expect(O.is_log_hom(p, sol), f"{label}: {sol} is not a homomorphism")

        ops.append(Op("logzero", label,
                      lambda p=p: logarithmic_zero_check(gf(p), units_only=True, budget=SOLVE_BUDGET),
                      lambda r: [dict(s) for s in r.solutions], check))
    p = 19
    label = f"logarithmic maps on GF({p})"
    ops.append(Op("logzero", label,
                  lambda p=p: logarithmic_zero_check(gf(p), budget=SOLVE_BUDGET),
                  lambda r: [dict(s) for s in r.solutions],
                  lambda got, p=p, label=label: O.expect(
                      got == [{x: 0 for x in range(p)}], f"{label}: {got}, expected only the zero map")))
    for eq, p in REFUSED:
        ops.append(_solve_op(eq, p, None, Fault("BudgetError", "exceed budget")))
    return ops


def build(workload: str, seed: int) -> List[Op]:
    rng = random.Random(f"{workload}:{seed}")
    return {"derive": _derive_ops, "check": _check_ops, "solve": _solve_ops}[workload](rng)
