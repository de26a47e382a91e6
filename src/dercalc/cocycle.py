"""Two-variable cocycle calculus on finite carriers and integer windows.

For a one-variable map f the Cauchy difference F(a,b) = f(a+b)-f(a)-f(b)
and the Leibniz difference G(a,b) = f(ab)-af(b)-bf(a) always satisfy a
small axiom system: functional equations in x, y, z whose unknowns F and
G take two arguments, and a sum (zeta):

    (alpha)    F(x, y) = F(y, x)
    (beta)     F(x + y, z) + F(x, y) = F(x, y + z) + F(y, z)
    (gamma)    G(x, y) = G(y, x)
    (delta)    z*G(x, y) + G(x*y, z) = x*G(y, z) + G(x, y*z)
    (epsilon)  F(x*z, y*z) - z*F(x, y) = G(x + y, z) - G(x, z) - G(y, z)
    (eta)      F(x*z, y*z) = z*F(x, y), for differences of additive maps
    (zeta)     F(1, 0) + F(1, 1) + ... + F(1, p - 1) = 0 in characteristic p

The two differences are the residuals lhs - rhs of feq's corpus
equations `cauchy-add` and `leibniz`.  `CONDITIONS` holds the axioms,
with the conditions for D to be the Leibniz difference of an additive
map.  feq's generated checks run them, each an feq `CheckReport`:
exhaustively, on a dict keyed by pairs made once per call
(`Cocycle2.table`) and regrouped into rows once (`feq._rows`), after the
budget has bounded the tuples; or on a seeded sample, through
`_Subscript`, whose `__getitem__` calls the map.  Values on a finite
carrier are reduced modulo m as they are read.  On an IntegerWindow, tuples whose
function arguments escape the window or miss a dict table's entry are
skipped and counted.  The module also extends positive-domain cocycles
to signed windows via sign tables, reconstructs a primitive from its
Cauchy difference, and solves for the "alien" mixtures of both
differences with feq.
"""
from __future__ import annotations

import collections
import itertools
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from .exact import (Carrier, DercalcError, FiniteCarrier, IntegerWindow, bound_exhaustive,
                    bound_sample)
from .feq import (CORPUS, CheckReport, Equation, FnTable, _INADMISSIBLE, _Subscript, _check,
                  _residual, _rows, feq_check, feq_solve_brute)


class CocycleError(DercalcError):
    """Base error for the cocycle laboratory."""


class NotACocycleError(CocycleError):
    """A required axiom failed; carries the witness tuple."""

    exit_code = 1

    def __init__(self, axiom: str, witness: tuple, lhs, rhs):
        self.axiom = axiom
        self.witness = witness
        self.lhs = lhs
        self.rhs = rhs
        super().__init__(f"axiom ({axiom}) fails at {witness}: lhs {lhs} != rhs {rhs}")


class NotACoboundaryError(CocycleError):
    """Reconstruction succeeded pointwise but re-differencing disagrees."""

    exit_code = 1


class DecompositionDefectError(CocycleError):
    """No decomposition exists; this would falsify the structure theorem,
    so it is raised loudly instead of returned as data."""

    exit_code = 1


FnLike = Union[Dict[int, int], Callable[[int], int]]
Fn2Like = Union[Dict[Tuple[int, int], int], Callable[[int, int], int]]


def _as_map(f: FnLike) -> Mapping[int, int]:
    return _Subscript(f) if callable(f) else dict(f)


def _as_fn2(f: Fn2Like) -> Callable[[int, int], int]:
    if callable(f):
        return f
    table = dict(f)
    return lambda a, b: table[(a, b)]


@dataclass
class Cocycle2:
    """Two-argument map on a carrier."""

    carrier: Carrier
    fn: Callable[[int, int], int]
    name: str = "F"

    def __call__(self, a: int, b: int) -> int:
        return self.fn(a, b)

    def read(self, ab: Tuple[int, int]) -> int:
        """The value at the pair ab, reduced modulo a finite carrier."""
        return self.carrier.reduce(self.fn(*ab))

    def table(self) -> Dict[Tuple[int, int], int]:
        """`read` at every pair in product order; inadmissible pairs are left out."""
        out = {}
        for ab in itertools.product(self.carrier.elements(), repeat=2):
            try:
                out[ab] = self.read(ab)
            except _INADMISSIBLE:
                pass
        return out


def cauchy_difference(f: FnLike, carrier: Carrier, name: str = "F") -> Cocycle2:
    """F(a,b) = f(a+b) - f(a) - f(b) in the carrier's arithmetic: the
    residual of `cauchy-add`."""
    return Cocycle2(carrier, _residual(CORPUS["cauchy-add"], carrier, {"f": _as_map(f)}, {}),
                    name)


def leibniz_difference(f: FnLike, carrier: Carrier, name: str = "G") -> Cocycle2:
    """G(a,b) = f(ab) - a f(b) - b f(a) in the carrier's arithmetic: the
    residual of `leibniz`."""
    return Cocycle2(carrier, _residual(CORPUS["leibniz"], carrier, {"f": _as_map(f)}, {}),
                    name)


@dataclass(frozen=True)
class CocycleReport:
    axioms: Dict[str, CheckReport]

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


def _sampled_tuples(elems: Sequence[int], arity: int, sample: int,
                    rng: random.Random) -> Iterator[tuple]:
    """`sample` tuples drawn as rng.choice would draw them from the list of
    every tuple in product order, without building that list: a draw's
    base-n digits, most significant first, index the entries.  Each is
    drawn as it is asked for, so no sample is held in memory."""
    n = len(elems)
    size = n ** arity
    places = [n ** k for k in reversed(range(arity))]
    for _ in range(sample):
        i = rng.randrange(size)
        yield tuple(elems[i // place % n] for place in places)


# The axioms, the Leibniz-coboundary conditions and the primitive's re-difference,
# in x, y and, where it appears, z.  Not in CORPUS, so `feq list` leaves them out.
CONDITIONS: Dict[str, Equation] = {
    name: Equation.parse(name, source, variables=("x", "y", "z")[:3 if "z" in source else 2])
    for name, source in (
        ("alpha", "F(x, y) = F(y, x)"),
        ("beta", "F(x + y, z) + F(x, y) = F(x, y + z) + F(y, z)"),
        ("gamma", "G(x, y) = G(y, x)"),
        ("delta", "z*G(x, y) + G(x*y, z) = x*G(y, z) + G(x, y*z)"),
        ("epsilon", "F(x*z, y*z) - z*F(x, y) = G(x + y, z) - G(x, z) - G(y, z)"),
        ("eta", "F(x*z, y*z) = z*F(x, y)"),
        ("symmetry", "D(x, y) = D(y, x)"),
        ("associator", "D(x*y, z) + z*D(x, y) = D(x, y*z) + x*D(y, z)"),
        ("additivity", "D(x + y, z) = D(x, z) + D(y, z)"),
        ("primitive", "f(x + y) - f(x) - f(y) = F(x, y)"),
    )
}


def cocycle_verify(
    F: Cocycle2,
    G: Optional[Cocycle2] = None,
    axioms: Optional[Sequence[str]] = None,
    mode: str = "exhaustive",
    sample: int = 0,
    seed: int = 0,
) -> CocycleReport:
    """Check the requested axioms, exhaustively or on a seeded sample.

    Values are compared modulo the carrier where it has a modulus; the
    first offending tuple in canonical enumeration order is the witness.
    The sum axiom (zeta) is void on characteristic-zero carriers.  F and G
    must share one carrier.  An exhaustive check of more tuples than the
    budget is refused before a map is tabulated.
    """
    if mode not in ("exhaustive", "sampled"):
        raise CocycleError(f"unknown mode {mode!r}")
    if mode == "sampled":
        if sample <= 0:
            raise CocycleError("sampled mode needs a positive sample size")
        bound_sample(sample)
    carrier = F.carrier
    if G is not None and G.carrier != carrier:
        raise CocycleError("F and G must share one carrier")
    if axioms is None:
        axioms = PAIR_AXIOMS if G is not None else F_AXIOMS
    for axiom in axioms:
        if axiom not in PAIR_AXIOMS + ("eta",):
            raise CocycleError(f"unknown axiom {axiom!r}")
        if axiom != "zeta" and "G" in CONDITIONS[axiom].functions and G is None:
            raise CocycleError(f"axiom ({axiom}) needs the multiplicative cocycle G")
    if mode == "exhaustive":
        bound_exhaustive(carrier.size ** max([len(CONDITIONS[a].variables)
                                              for a in axioms if a != "zeta"], default=0))
    elems = list(carrier.elements())
    results: Dict[str, CheckReport] = {}
    rng = random.Random(seed)
    maps = {"F": F, "G": G}
    # How each map is read, made on first use: a tabulated map is regrouped
    # by rows once (`_rows`), for every axiom that reads it.
    tables: Dict[str, Mapping] = {}
    for axiom in axioms:
        if axiom == "zeta":
            results[axiom] = _check_zeta(F, carrier)
            continue
        eq = CONDITIONS[axiom]
        tuples = (_sampled_tuples(elems, len(eq.variables), sample, rng)
                  if mode == "sampled" else None)
        for name in [f for f in eq.functions if f not in tables]:
            tables[name] = (_Subscript(maps[name].read) if mode == "sampled"
                            else _rows(maps[name].table()))
        results[axiom] = _check(eq, carrier, tables, {}, tuples)
        if tuples is not None:
            # After a witness, make the draws left, so that the next axiom
            # draws the sample it would have drawn without one.
            collections.deque(tuples, maxlen=0)
    return CocycleReport(results)


def _check_zeta(F: Cocycle2, carrier: Carrier) -> CheckReport:
    p = carrier.characteristic
    if p == 0:
        return CheckReport("zeta", "void", None, None, None, 0, 0)
    total = sum(F(1, i % p) for i in range(1, p + 1)) % p
    if total == 0:
        return CheckReport("zeta", "pass", None, None, None, 1, 0)
    return CheckReport("zeta", "fail", ("sum",), total, 0, 1, 0)


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
    result = _check(CONDITIONS["primitive"], window, {"f": f, "F": F_fn.table()}, {})
    if result.status == "fail":
        a, b = result.witness
        raise NotACoboundaryError(f"re-differencing disagrees with F at ({a},{b})")
    return f


# -- Leibniz coboundaries ----------------------------------------------------


def leibniz_coboundary_check(D: Fn2Like, carrier: Carrier) -> CocycleReport:
    """Necessary-and-sufficient conditions for D to be a Leibniz difference
    of some additive map: symmetry, the associator identity, and additivity
    in the first slot.  More tuples than the budget are refused before D
    is tabulated."""
    bound_exhaustive(carrier.size ** 3)
    tables = {"D": _rows(Cocycle2(carrier, _as_fn2(D), "D").table())}
    return CocycleReport({name: _check(CONDITIONS[name], carrier, tables, {})
                          for name in ("symmetry", "associator", "additivity")})


# -- decomposition of the mixed equation -------------------------------------


def leibniz_maps(carrier: FiniteCarrier) -> List[Dict[int, int]]:
    """All maps with f(xy) = x f(y) + y f(x) on a prime field, the solutions
    of `leibniz`: only the zero map, which the caller may rely on."""
    if carrier.kind != "gf":
        raise CocycleError("Leibniz map enumeration runs on prime fields")
    report = feq_solve_brute(CORPUS["leibniz"], ["f"], carrier)
    return [dict(f.values) for f in report.tables("f")]


# The equation char_decompose splits the solutions of; `feq list` leaves it out.
_MIXED = Equation.parse("mixed", "f(x+y) - f(x) - f(y) = g(x*y) - x*g(y) - y*g(x)")


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


def char_decompose(f: FnLike, g: FnLike, carrier: FiniteCarrier) -> Decomposition:
    """Split a solution pair of

        f(x+y) - f(x) - f(y) = g(xy) - x g(y) - y g(x)

    over an odd prime field into the structured form above.  The pair is
    first checked against the mixed equation with feq_check.  Each Leibniz
    map phi, a solution of `leibniz` (only the zero map), forces alpha =
    g(1) - phi(1) and then beta = f(1) - alpha*(1/2 - 1), as additive maps
    on a prime field are x -> c x; both tables are then verified."""
    if carrier.kind != "gf" or carrier.modulus < 3:
        raise CocycleError("decomposition runs on odd prime fields")
    p = carrier.modulus
    f_table = FnTable.from_callable(carrier, _as_map(f).__getitem__)
    g_table = FnTable.from_callable(carrier, _as_map(g).__getitem__)
    check = feq_check(_MIXED, {"f": f_table, "g": g_table})
    if not check.ok:
        x, y = check.witness
        raise CocycleError(f"pair does not solve the mixed equation; witness ({x},{y})")
    f_tab, g_tab = f_table.values, g_table.values
    half_less_one = (pow(2, -1, p) - 1) % p
    for phi in leibniz_maps(carrier):
        a = (g_tab[1] - phi[1]) % p
        b = (f_tab[1] - a * half_less_one) % p
        if (all((b * x + a * x * x * half_less_one) % p == f_tab[x] for x in range(p))
                and all((phi[x] + a * x) % p == g_tab[x] for x in range(p))):
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
