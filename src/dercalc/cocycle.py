"""Two-variable cocycle calculus on finite carriers and integer windows.

For a one-variable map f the Cauchy difference F(a,b) = f(a+b)-f(a)-f(b)
and the Leibniz difference G(a,b) = f(ab)-af(b)-bf(a) always satisfy a
small axiom system; this module checks the axioms exhaustively (with
feq's tuple loop), extends positive-domain cocycles to signed windows via
sign tables, reconstructs a primitive from its Cauchy difference, and
solves for the degenerate "alien" mixtures of both differences with feq.

On an IntegerWindow, tuples whose function arguments escape the window or
miss a dict table's entry are skipped and counted; everything on a modular
carrier is total.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .exact import FiniteCarrier, IntegerWindow
from .feq import (CORPUS, Equation, FnTable, _INADMISSIBLE, _Skip, _check_tuples, feq_check,
                  feq_solve_brute)

Carrier = Union[FiniteCarrier, IntegerWindow]


class CocycleError(Exception):
    """Base error for the cocycle laboratory."""


class NotACocycleError(CocycleError):
    """A required axiom failed; carries the witness tuple."""

    def __init__(self, axiom: str, witness: tuple, lhs, rhs):
        self.axiom = axiom
        self.witness = witness
        self.lhs = lhs
        self.rhs = rhs
        super().__init__(f"axiom ({axiom}) fails at {witness}: lhs {lhs} != rhs {rhs}")


class NotACoboundaryError(CocycleError):
    """Reconstruction succeeded pointwise but re-differencing disagrees."""


class DecompositionDefectError(CocycleError):
    """No decomposition exists; this would falsify the structure theorem,
    so it is raised loudly instead of returned as data."""


FnLike = Union[Dict[int, int], Callable[[int], int]]
Fn2Like = Union[Dict[Tuple[int, int], int], Callable[[int, int], int]]


def _as_fn(f: FnLike) -> Callable[[int], int]:
    return f if callable(f) else dict(f).__getitem__


def _as_fn2(f: Fn2Like) -> Callable[[int, int], int]:
    if callable(f):
        return f
    table = dict(f)
    return lambda a, b: table[(a, b)]


@dataclass
class Cocycle2:
    """Two-argument map on a carrier; window arguments are range-checked."""

    carrier: Carrier
    fn: Callable[[int, int], int]
    name: str = "F"

    def __call__(self, a: int, b: int) -> int:
        if isinstance(self.carrier, IntegerWindow):
            if not (self.carrier.contains(a) and self.carrier.contains(b)):
                raise _Skip
        return self.fn(a, b)

    def table(self) -> Dict[Tuple[int, int], int]:
        out = {}
        for a, b in itertools.product(self.carrier.elements(), repeat=2):
            try:
                out[(a, b)] = self(a, b)
            except _INADMISSIBLE:
                pass
        return out


def cauchy_difference(f: FnLike, carrier: Carrier, name: str = "F") -> Cocycle2:
    """F(a,b) = f(a+b) - f(a) - f(b) in the carrier's arithmetic."""
    fn = _as_fn(f)
    if isinstance(carrier, FiniteCarrier):
        def F(a: int, b: int) -> int:
            return carrier.sub(fn(carrier.add(a, b)), carrier.add(fn(a), fn(b)))
    else:
        def F(a: int, b: int) -> int:
            s = a + b
            if not carrier.contains(s):
                raise _Skip
            return fn(s) - fn(a) - fn(b)
    return Cocycle2(carrier, F, name)


def leibniz_difference(f: FnLike, carrier: Carrier, name: str = "G") -> Cocycle2:
    """G(a,b) = f(ab) - a f(b) - b f(a) in the carrier's arithmetic."""
    fn = _as_fn(f)
    if isinstance(carrier, FiniteCarrier):
        def G(a: int, b: int) -> int:
            prod = fn(carrier.mul(a, b))
            return carrier.sub(prod, carrier.add(carrier.mul(a, fn(b)), carrier.mul(b, fn(a))))
    else:
        def G(a: int, b: int) -> int:
            m = a * b
            if not carrier.contains(m):
                raise _Skip
            return fn(m) - a * fn(b) - b * fn(a)
    return Cocycle2(carrier, G, name)


@dataclass(frozen=True)
class AxiomResult:
    status: str  # 'pass', 'fail', or 'void'
    witness: Optional[tuple]
    lhs: Optional[int]
    rhs: Optional[int]
    checked: int
    skipped: int


@dataclass(frozen=True)
class CocycleReport:
    axioms: Dict[str, AxiomResult]

    @property
    def ok(self) -> bool:
        return all(r.status != "fail" for r in self.axioms.values())

    def lines(self) -> List[str]:
        out = []
        for name, r in self.axioms.items():
            if r.status == "void":
                out.append(f"({name}) void on this carrier")
            elif r.status == "pass":
                out.append(f"({name}) pass: {r.checked} tuples, {r.skipped} skipped")
            else:
                out.append(
                    f"({name}) FAIL at {r.witness}: lhs {r.lhs} != rhs {r.rhs} "
                    f"({r.checked} tuples checked, {r.skipped} skipped)"
                )
        return out


PAIR_AXIOMS = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta")
F_AXIOMS = ("alpha", "beta", "zeta")


def _ops(carrier: Carrier):
    if isinstance(carrier, FiniteCarrier):
        return carrier.add, carrier.sub, carrier.mul
    return (lambda a, b: a + b), (lambda a, b: a - b), (lambda a, b: a * b)


def _sampled_tuples(elems: Sequence[int], arity: int, sample: int,
                    rng: random.Random) -> List[tuple]:
    """`sample` tuples drawn as rng.choice would draw them from the list of
    every tuple in product order, without building that list: a draw's
    base-n digits, most significant first, index the entries."""
    n = len(elems)
    draws = [rng.randrange(n ** arity) for _ in range(sample)]
    return [tuple(elems[i // n ** k % n] for k in reversed(range(arity))) for i in draws]


def _axiom_result(lhs_fn, rhs_fn, tuples: Iterable[tuple], carrier: Carrier) -> AxiomResult:
    """feq's tuple loop, modulo the carrier where it has a modulus."""
    modulus = carrier.modulus if isinstance(carrier, FiniteCarrier) else 0
    witness, lhs, rhs, checked, skipped = _check_tuples(lhs_fn, rhs_fn, tuples, modulus)
    return AxiomResult("pass" if witness is None else "fail", witness, lhs, rhs, checked, skipped)


def _axiom_sides(axiom: str, F, G, add, mul):
    if axiom == "alpha":
        return (lambda a, b: F(a, b)), (lambda a, b: F(b, a))
    if axiom == "beta":
        return (
            lambda a, b, c: F(add(a, b), c) + F(a, b),
            lambda a, b, c: F(a, add(b, c)) + F(b, c),
        )
    if axiom == "gamma":
        return (lambda a, b: G(a, b)), (lambda a, b: G(b, a))
    if axiom == "delta":
        return (
            lambda a, b, c: c * G(a, b) + G(mul(a, b), c),
            lambda a, b, c: a * G(b, c) + G(a, mul(b, c)),
        )
    if axiom == "epsilon":
        return (
            lambda a, b, c: F(mul(a, c), mul(b, c)) - c * F(a, b),
            lambda a, b, c: G(add(a, b), c) - G(a, c) - G(b, c),
        )
    if axiom == "eta":
        return (
            lambda a, b, c: F(mul(a, c), mul(b, c)),
            lambda a, b, c: c * F(a, b),
        )
    raise CocycleError(f"unknown axiom {axiom!r}")


def cocycle_verify(
    F: Cocycle2,
    G: Optional[Cocycle2] = None,
    axioms: Optional[Sequence[str]] = None,
    mode: str = "exhaustive",
    sample: int = 0,
    seed: int = 0,
) -> CocycleReport:
    """Check the requested axioms, exhaustively or on a seeded sample.

    Mixed-value comparisons reduce modulo the carrier where applicable;
    the first offending tuple in canonical enumeration order is the witness.
    The sum axiom (zeta) is void on characteristic-zero carriers.
    """
    carrier = F.carrier
    if axioms is None:
        axioms = PAIR_AXIOMS if G is not None else F_AXIOMS
    add, sub, mul = _ops(carrier)
    elems = list(carrier.elements())
    results: Dict[str, AxiomResult] = {}
    rng = random.Random(seed)
    for axiom in axioms:
        if axiom == "zeta":
            results[axiom] = _check_zeta(F, carrier)
            continue
        if axiom in ("gamma", "delta", "epsilon") and G is None:
            raise CocycleError(f"axiom ({axiom}) needs the multiplicative cocycle G")
        lhs_fn, rhs_fn = _axiom_sides(axiom, F, G, add, mul)
        arity = 2 if axiom in ("alpha", "gamma") else 3
        if mode == "sampled":
            if sample <= 0:
                raise CocycleError("sampled mode needs a positive sample size")
            tuples = _sampled_tuples(elems, arity, sample, rng)
        elif mode == "exhaustive":
            tuples = itertools.product(elems, repeat=arity)
        else:
            raise CocycleError(f"unknown mode {mode!r}")
        results[axiom] = _axiom_result(lhs_fn, rhs_fn, tuples, carrier)
    return CocycleReport(results)


def _check_zeta(F: Cocycle2, carrier: Carrier) -> AxiomResult:
    p = carrier.characteristic
    if p == 0:
        return AxiomResult("void", None, None, None, 0, 0)
    total = 0
    for i in range(1, p + 1):
        total = carrier.add(total, F(1, (i * 1) % p))
    if total == 0:
        return AxiomResult("pass", None, None, None, 1, 0)
    return AxiomResult("fail", ("sum",), total, 0, 1, 0)


# -- extension from the positive half ---------------------------------------


def _extend_F(F: Callable[[int, int], int]) -> Callable[[int, int], int]:
    """Signed extension of an additive cocycle given on positive pairs.

    Zero whenever a, b, or a+b is zero; otherwise one sign-table row,
    every lookup landing back in the positive domain."""

    def Fe(a: int, b: int) -> int:
        s = a + b
        if a == 0 or b == 0 or s == 0:
            return 0
        if a > 0 and b > 0:
            return F(a, b)
        if a > 0 and b < 0 and s > 0:
            return -F(s, -b)
        if a > 0 and b < 0 and s < 0:
            return F(-s, a)
        if a < 0 and b > 0 and s > 0:
            return -F(s, -a)
        if a < 0 and b > 0 and s < 0:
            return F(-s, b)
        return -F(-a, -b)

    return Fe


def _extend_G(G: Callable[[int, int], int]) -> Callable[[int, int], int]:
    """Signed extension of a multiplicative cocycle given on positive pairs;
    zero exactly when a or b is zero."""

    def Ge(a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if a > 0 and b > 0:
            return G(a, b)
        if a > 0 and b < 0:
            return -G(a, -b)
        if a < 0 and b > 0:
            return -G(-a, b)
        return G(-a, -b)

    return Ge


def _require_alpha_beta(report: CocycleReport) -> None:
    """Raise NotACocycleError if (alpha) or (beta) failed in `report`."""
    for name in ("alpha", "beta"):
        r = report.axioms[name]
        if r.status == "fail":
            raise NotACocycleError(name, r.witness, r.lhs, r.rhs)


def cocycle_extend_positive(
    F: Fn2Like,
    window: IntegerWindow,
    G: Optional[Fn2Like] = None,
) -> Tuple[Cocycle2, Optional[Cocycle2], CocycleReport]:
    """Extend cocycles defined on positive integers to the signed window.

    The inputs are first verified on the window's positive part; the
    extension is then re-verified on the whole window ((alpha) and (beta)
    for F, plus (gamma), (delta), (epsilon) when G is given) and a failure
    of (alpha) or (beta) raises."""
    if window.lo > -1 or window.hi < 1:
        raise CocycleError("extension needs a window containing both signs")
    F_fn = _as_fn2(F)
    pos_window = IntegerWindow(1, window.hi)
    F_pos = Cocycle2(pos_window, F_fn, "F")
    _require_alpha_beta(cocycle_verify(F_pos, axioms=("alpha", "beta")))
    Fe = Cocycle2(window, _extend_F(F_fn), "F~")
    Ge = None
    axioms: Tuple[str, ...] = ("alpha", "beta")
    if G is not None:
        Ge = Cocycle2(window, _extend_G(_as_fn2(G)), "G~")
        axioms = ("alpha", "beta", "gamma", "delta", "epsilon")
    report = cocycle_verify(Fe, Ge, axioms=axioms)
    _require_alpha_beta(report)
    return Fe, Ge, report


def cocycle_primitive(F: Fn2Like, window: IntegerWindow, f1: int) -> Dict[int, int]:
    """Reconstruct f with cauchy_difference(f) = F on the window.

    f(0) is forced to -F(0,0), f(1) is the free linear choice, and the rest
    follows from f(k+1) = f(k) + f(1) + F(k,1) in both directions.  The
    result is re-differenced against F; disagreement raises."""
    if not (window.contains(0) and window.contains(1)):
        raise CocycleError("primitive reconstruction needs 0 and 1 in the window")
    F_fn = Cocycle2(window, _as_fn2(F), "F")
    _require_alpha_beta(cocycle_verify(F_fn, axioms=("alpha", "beta")))
    f: Dict[int, int] = {0: -F_fn(0, 0), 1: f1}
    for k in range(1, window.hi):
        f[k + 1] = f[k] + f[1] + F_fn(k, 1)
    for k in range(0, window.lo, -1):
        f[k - 1] = f[k] - f[1] - F_fn(k - 1, 1)
    witness, *_ = _check_tuples(lambda a, b: f[a + b] - f[a] - f[b], F_fn,
                                itertools.product(window.elements(), repeat=2))
    if witness is not None:
        a, b = witness
        raise NotACoboundaryError(f"re-differencing disagrees with F at ({a},{b})")
    return f


# -- Leibniz coboundaries ----------------------------------------------------


def leibniz_coboundary_check(D: Fn2Like, carrier: Carrier) -> CocycleReport:
    """Necessary-and-sufficient conditions for D to be a Leibniz difference
    of some additive map: symmetry, the associator identity, and additivity
    in the first slot."""
    D_fn = Cocycle2(carrier, _as_fn2(D), "D")
    add, sub, mul = _ops(carrier)
    elems = list(carrier.elements())
    conditions = {
        "symmetry": (
            lambda x, y: D_fn(x, y),
            lambda x, y: D_fn(y, x),
            2,
        ),
        "associator": (
            lambda x, y, z: D_fn(mul(x, y), z) + z * D_fn(x, y),
            lambda x, y, z: D_fn(x, mul(y, z)) + x * D_fn(y, z),
            3,
        ),
        "additivity": (
            lambda x, y, z: D_fn(add(x, y), z),
            lambda x, y, z: D_fn(x, z) + D_fn(y, z),
            3,
        ),
    }
    return CocycleReport({
        name: _axiom_result(lhs_fn, rhs_fn, itertools.product(elems, repeat=arity), carrier)
        for name, (lhs_fn, rhs_fn, arity) in conditions.items()
    })


# -- decomposition of the mixed equation -------------------------------------


def leibniz_maps(carrier: FiniteCarrier) -> List[Dict[int, int]]:
    """All maps with f(xy) = x f(y) + y f(x) on a prime field, the solutions
    of `leibniz`: only the zero map, which the caller may rely on."""
    if carrier.kind != "gf":
        raise CocycleError("Leibniz map enumeration runs on prime fields")
    report = feq_solve_brute(CORPUS["leibniz"], ["f"], carrier)
    return [dict(f.values) for f in report.tables("f")]


@dataclass(frozen=True)
class Decomposition:
    """Witness for f(x) = beta(x) + alpha(x^2)/2 - x alpha(x) and
    g(x) = phi(x) + alpha(x) with alpha, beta linear and phi a Leibniz map."""

    alpha: int
    beta: int
    phi: Dict[int, int]

    def describe(self) -> str:
        phi_zero = all(v == 0 for v in self.phi.values())
        phi_s = "0" if phi_zero else str(dict(sorted(self.phi.items())))
        return f"alpha(x) = {self.alpha}*x, beta(x) = {self.beta}*x, phi = {phi_s}"


# Not in CORPUS, so `feq list` leaves it out.
_MIXED = Equation.parse("mixed", "f(x+y) - f(x) - f(y) = g(x*y) - x*g(y) - y*g(x)")


def char_decompose(f: FnLike, g: FnLike, carrier: FiniteCarrier) -> Decomposition:
    """Split a solution pair of

        f(x+y) - f(x) - f(y) = g(xy) - x g(y) - y g(x)

    over an odd prime field into the structured form above.  The pair is
    first checked against the mixed equation with feq_check.  The search
    space is small because additive maps on a prime field are x -> c x and
    Leibniz maps are the solutions of `leibniz` (only the zero map)."""
    if carrier.kind != "gf" or carrier.modulus < 3:
        raise CocycleError("decomposition runs on odd prime fields")
    p = carrier.modulus
    f_table = FnTable.from_callable(carrier, _as_fn(f))
    g_table = FnTable.from_callable(carrier, _as_fn(g))
    check = feq_check(_MIXED, {"f": f_table, "g": g_table})
    if not check.ok:
        x, y = check.witness
        raise CocycleError(f"pair does not solve the mixed equation; witness ({x},{y})")
    f_tab, g_tab = f_table.values, g_table.values
    inv2 = pow(2, -1, p)
    phis = leibniz_maps(carrier)
    for a in range(p):
        f_target = {x: (a * x * x % p * (inv2 - 1) % p) for x in range(p)}
        for b in range(p):
            if any((b * x + f_target[x]) % p != f_tab[x] for x in range(p)):
                continue
            for phi in phis:
                if all((phi[x] + a * x) % p == g_tab[x] for x in range(p)):
                    return Decomposition(a, b, phi)
    raise DecompositionDefectError(
        "no (alpha, beta, phi) decomposition found; this contradicts the "
        "structure theorem for the mixed equation"
    )


@dataclass(frozen=True)
class AlienReport:
    carrier: FiniteCarrier
    lam: int
    mu: int
    solutions: Tuple[Tuple[int, ...], ...]
    all_derivations: bool

    @property
    def only_zero(self) -> bool:
        return all(all(v == 0 for v in sol) for sol in self.solutions)


def alien_check(
    lam: int, mu: int, carrier: FiniteCarrier, budget: Optional[int] = None
) -> AlienReport:
    """Every f with lam*CauchyDiff(f) + mu*LeibnizDiff(f) = 0: the solutions
    of `alien-c22` by feq_solve_brute, under its budget.  Each solution is
    then checked to be additive and Leibniz."""
    if carrier.kind != "gf":
        raise CocycleError("alien check runs on prime fields")
    p = carrier.modulus
    if lam % p == 0 or mu % p == 0:
        raise CocycleError("both weights must be nonzero in the field")
    lam, mu = lam % p, mu % p
    report = feq_solve_brute(CORPUS["alien-c22"], ["f"], carrier,
                             params={"lam": lam, "mu": mu}, budget=budget)
    tables = report.tables("f")
    all_der = all(feq_check(CORPUS[name], {"f": f}).ok
                  for f in tables for name in ("cauchy-add", "leibniz"))
    solutions = tuple(tuple(f(x) for x in range(p)) for f in tables)
    return AlienReport(carrier, lam, mu, solutions, all_der)
