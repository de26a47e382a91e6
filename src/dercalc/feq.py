"""Two-variable functional equations over finite carriers.

Equations are small expression trees in x, y, named one-argument functions,
and optional parameters.  A check runs one bound table through every
admissible argument pair; a solve enumerates all tables, pruning partial
assignments as soon as any fully determined pair fails.

Division is pointwise: a pair whose divisor is not invertible (or, on an
integer window, does not divide exactly) is skipped and counted.  A division
by a constant that is not invertible anywhere rejects the carrier up front.
On a window, a pair is admissible only while every function argument stays
inside the window.
"""
from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .exact import BudgetError, FiniteCarrier, IntegerWindow
from .parser import Apply, Bin, Neg, Num, Pow, Sym, parse_equation

Carrier = Union[FiniteCarrier, IntegerWindow]


class FeqError(Exception):
    """Base error for equation checking and solving."""


class UnboundSymbolError(FeqError):
    """The equation mentions a function or parameter with no binding."""


class CarrierUnsupportedError(FeqError):
    """A constant divisor is not invertible on the carrier."""


class _Skip(Exception):
    """Internal: this argument pair is inadmissible (division or escape)."""


def default_budget() -> int:
    """Enumeration budget; DERCALC_BUDGET overrides the 10^7 default."""
    return int(os.environ.get("DERCALC_BUDGET", 10_000_000))


class FnTable:
    """Total function table on a carrier."""

    __slots__ = ("carrier", "values")

    def __init__(self, carrier: Carrier, values: Dict[int, int]):
        self.carrier = carrier
        table: Dict[int, int] = {}
        for x in carrier.elements():
            if x not in values:
                raise FeqError(f"table is missing a value at {x}")
            v = values[x]
            if isinstance(carrier, FiniteCarrier):
                v %= carrier.modulus
            table[x] = v
        self.values = table

    @classmethod
    def from_callable(cls, carrier: Carrier, fn: Callable[[int], int]) -> "FnTable":
        return cls(carrier, {x: fn(x) for x in carrier.elements()})

    @classmethod
    def zero(cls, carrier: Carrier) -> "FnTable":
        return cls(carrier, {x: 0 for x in carrier.elements()})

    def __call__(self, x: int) -> int:
        try:
            return self.values[x]
        except KeyError:
            raise _Skip from None

    def __eq__(self, other) -> bool:
        if not isinstance(other, FnTable):
            return NotImplemented
        return self.carrier == other.carrier and self.values == other.values

    def __str__(self) -> str:
        pairs = ", ".join(f"{x}->{v}" for x, v in sorted(self.values.items()))
        return "{" + pairs + "}"

    def serialize(self) -> List[str]:
        return [f"{x} -> {v}" for x, v in sorted(self.values.items())]

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values.values())


@dataclass(frozen=True)
class Equation:
    """lhs = rhs with declared function symbols and parameters."""

    name: str
    source: str
    lhs: object
    rhs: object
    functions: Tuple[str, ...]
    params: Tuple[str, ...] = ()
    min_size: int = 0
    note: str = ""

    @classmethod
    def parse(
        cls,
        name: str,
        source: str,
        params: Sequence[str] = (),
        min_size: int = 0,
        note: str = "",
    ) -> "Equation":
        lhs, rhs = parse_equation(source)
        functions = sorted(_function_names(lhs) | _function_names(rhs))
        free = (_symbol_names(lhs) | _symbol_names(rhs)) - {"x", "y"} - set(params)
        if free:
            raise UnboundSymbolError(
                f"equation {name!r} has undeclared symbols {sorted(free)}"
            )
        return cls(name, source, lhs, rhs, tuple(functions), tuple(params), min_size, note)

    def describe(self) -> str:
        extra = f"  [params: {', '.join(self.params)}]" if self.params else ""
        return f"{self.name}: {self.source}{extra}"


def _function_names(node) -> set:
    if isinstance(node, Apply):
        return {node.func} | _function_names(node.arg)
    if isinstance(node, Bin):
        return _function_names(node.left) | _function_names(node.right)
    if isinstance(node, (Neg, Pow)):
        inner = node.operand if isinstance(node, Neg) else node.base
        return _function_names(inner)
    return set()


def _symbol_names(node) -> set:
    if isinstance(node, Sym):
        return {node.name}
    if isinstance(node, Apply):
        return _symbol_names(node.arg)
    if isinstance(node, Bin):
        return _symbol_names(node.left) | _symbol_names(node.right)
    if isinstance(node, Neg):
        return _symbol_names(node.operand)
    if isinstance(node, Pow):
        return _symbol_names(node.base)
    return set()


def _is_constant(node) -> bool:
    if isinstance(node, Num):
        return True
    if isinstance(node, Neg):
        return _is_constant(node.operand)
    if isinstance(node, Pow):
        return _is_constant(node.base)
    if isinstance(node, Bin):
        return _is_constant(node.left) and _is_constant(node.right)
    return False


def _constant_value(node) -> Fraction:
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Neg):
        return -_constant_value(node.operand)
    if isinstance(node, Pow):
        return _constant_value(node.base) ** node.exponent
    op = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
          "*": lambda a, b: a * b, "/": lambda a, b: a / b}[node.op]
    return op(_constant_value(node.left), _constant_value(node.right))


def _reject_constant_divisors(node, carrier: Carrier) -> None:
    """A division by a fixed non-invertible constant can never be admissible,
    so the whole carrier is rejected (e.g. halving needs an invertible 2)."""
    if isinstance(node, Bin):
        if node.op == "/" and _is_constant(node.right):
            c = _constant_value(node.right)
            if c == 0:
                raise CarrierUnsupportedError("division by constant zero")
            if isinstance(carrier, FiniteCarrier):
                m = carrier.modulus
                if (c.numerator % m) == 0 or (c.denominator % m) == 0 or not (
                    _is_unit(c.numerator, m) and _is_unit(c.denominator, m)
                ):
                    raise CarrierUnsupportedError(
                        f"constant divisor {c} is not invertible modulo {m}"
                    )
        _reject_constant_divisors(node.left, carrier)
        _reject_constant_divisors(node.right, carrier)
    elif isinstance(node, Neg):
        _reject_constant_divisors(node.operand, carrier)
    elif isinstance(node, Pow):
        _reject_constant_divisors(node.base, carrier)
    elif isinstance(node, Apply):
        _reject_constant_divisors(node.arg, carrier)


def _is_unit(a: int, m: int) -> bool:
    try:
        pow(a, -1, m)
        return True
    except ValueError:
        return False


class _Evaluator:
    """Evaluate an expression at (x, y) with bound tables and parameters."""

    __slots__ = ("carrier", "tables", "params", "modulus")

    def __init__(self, carrier: Carrier, tables: Dict[str, Callable[[int], int]],
                 params: Dict[str, int]):
        self.carrier = carrier
        self.tables = tables
        self.params = params
        self.modulus = carrier.modulus if isinstance(carrier, FiniteCarrier) else 0

    def _num(self, value: Fraction) -> int:
        if self.modulus:
            num = value.numerator % self.modulus
            den = value.denominator % self.modulus
            if not _is_unit(den, self.modulus):
                raise _Skip
            return num * pow(den, -1, self.modulus) % self.modulus
        if value.denominator != 1:
            raise _Skip
        return value.numerator

    def eval(self, node, x: int, y: int) -> int:
        if isinstance(node, Num):
            return self._num(node.value)
        if isinstance(node, Sym):
            if node.name == "x":
                return x
            if node.name == "y":
                return y
            if node.name in self.params:
                return self.params[node.name]
            raise UnboundSymbolError(f"symbol {node.name!r} has no binding")
        if isinstance(node, Neg):
            v = self.eval(node.operand, x, y)
            return (-v) % self.modulus if self.modulus else -v
        if isinstance(node, Apply):
            fn = self.tables.get(node.func)
            if fn is None:
                raise UnboundSymbolError(f"function {node.func!r} has no binding")
            arg = self.eval(node.arg, x, y)
            if isinstance(self.carrier, IntegerWindow) and not self.carrier.contains(arg):
                raise _Skip
            return fn(arg)
        if isinstance(node, Pow):
            base = self.eval(node.base, x, y)
            e = node.exponent
            if self.modulus:
                if e < 0 and not _is_unit(base, self.modulus):
                    raise _Skip
                return pow(base, e, self.modulus)
            if e >= 0:
                return base ** e
            return self._divide(1, base ** (-e))
        if isinstance(node, Bin):
            a = self.eval(node.left, x, y)
            b = self.eval(node.right, x, y)
            if node.op == "+":
                r = a + b
            elif node.op == "-":
                r = a - b
            elif node.op == "*":
                r = a * b
            else:
                return self._divide(a, b)
            return r % self.modulus if self.modulus else r

    def _divide(self, a: int, b: int) -> int:
        if self.modulus:
            if not _is_unit(b, self.modulus):
                raise _Skip
            return a * pow(b, -1, self.modulus) % self.modulus
        if b == 0 or a % b != 0:
            raise _Skip
        return a // b


@dataclass(frozen=True)
class CheckReport:
    equation: str
    status: str  # 'pass' or 'fail'
    witness: Optional[Tuple[int, int]]
    lhs: Optional[int]
    rhs: Optional[int]
    checked: int
    skipped: int

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def line(self) -> str:
        if self.ok:
            return (f"{self.equation}: pass "
                    f"({self.checked} pairs, {self.skipped} skipped)")
        return (f"{self.equation}: FAIL at {self.witness}: "
                f"lhs {self.lhs} != rhs {self.rhs} "
                f"({self.checked} pairs checked, {self.skipped} skipped)")


def feq_check(
    eq: Equation,
    bindings: Dict[str, FnTable],
    params: Optional[Dict[str, int]] = None,
    mode: str = "exhaustive",
    sample: int = 0,
    seed: int = 0,
) -> CheckReport:
    """Run one set of tables through the equation on every admissible pair.

    The witness of a failure is the first offending pair in the carrier's
    canonical enumeration order."""
    params = dict(params or {})
    missing = [f for f in eq.functions if f not in bindings]
    if missing:
        raise UnboundSymbolError(f"no table bound for {missing}")
    missing_params = [p for p in eq.params if p not in params]
    if missing_params:
        raise UnboundSymbolError(f"no value bound for parameters {missing_params}")
    carriers = {t.carrier for t in bindings.values()}
    if len(carriers) != 1:
        raise FeqError("all bound tables must share one carrier")
    carrier = next(iter(carriers))
    for side in (eq.lhs, eq.rhs):
        _reject_constant_divisors(side, carrier)
    if isinstance(carrier, FiniteCarrier):
        params = {k: v % carrier.modulus for k, v in params.items()}
    ev = _Evaluator(carrier, dict(bindings), params)
    elems = list(carrier.elements())
    pairs: Iterable[Tuple[int, int]] = ((a, b) for a in elems for b in elems)
    if mode == "sampled":
        if sample <= 0:
            raise FeqError("sampled mode needs a positive sample size")
        rng = random.Random(seed)
        pairs = [(rng.choice(elems), rng.choice(elems)) for _ in range(sample)]
    elif mode != "exhaustive":
        raise FeqError(f"unknown mode {mode!r}")
    checked = skipped = 0
    for a, b in pairs:
        try:
            lhs = ev.eval(eq.lhs, a, b)
            rhs = ev.eval(eq.rhs, a, b)
        except _Skip:
            skipped += 1
            continue
        checked += 1
        if lhs != rhs:
            return CheckReport(eq.name, "fail", (a, b), lhs, rhs, checked, skipped)
    return CheckReport(eq.name, "pass", None, None, None, checked, skipped)


@dataclass(frozen=True)
class SolveReport:
    equation: str
    carrier: Carrier
    unknowns: Tuple[str, ...]
    status: str  # 'complete' or 'skipped'
    solutions: Tuple[Tuple[FnTable, ...], ...]
    skipped_pairs: int
    note: str = ""

    @property
    def count(self) -> int:
        return len(self.solutions)

    def tables(self, name: str) -> List[FnTable]:
        i = self.unknowns.index(name)
        return [sol[i] for sol in self.solutions]


def feq_solve_brute(
    eq: Equation,
    unknowns: Sequence[str],
    carrier: FiniteCarrier,
    params: Optional[Dict[str, int]] = None,
    budget: Optional[int] = None,
) -> SolveReport:
    """Enumerate every table assignment for the unknown functions.

    Tables are filled one carrier point at a time, all unknowns interleaved,
    and each argument pair is checked the moment the last entry it reads is
    placed; a violated pair prunes the whole subtree.  The solution order is
    lexicographic in the table values.  Every solution is re-checked
    exhaustively before it is reported."""
    if not isinstance(carrier, FiniteCarrier):
        raise FeqError("brute-force solving needs a finite carrier")
    unknowns = tuple(unknowns)
    if set(unknowns) != set(eq.functions):
        raise FeqError(
            f"unknowns {sorted(unknowns)} must match the equation's "
            f"function symbols {sorted(eq.functions)}"
        )
    params = {k: v % carrier.modulus for k, v in (params or {}).items()}
    missing_params = [p for p in eq.params if p not in params]
    if missing_params:
        raise UnboundSymbolError(f"no value bound for parameters {missing_params}")
    if budget is None:
        budget = default_budget()
    elems = list(carrier.elements())
    if eq.min_size and len(elems) < eq.min_size:
        return SolveReport(eq.name, carrier, unknowns, "skipped", (), 0, eq.note)
    for side in (eq.lhs, eq.rhs):
        _reject_constant_divisors(side, carrier)
    m = carrier.modulus
    size = len(elems)
    space = size ** (size * len(unknowns))
    if space > budget:
        raise BudgetError(
            f"{size}^{size * len(unknowns)} candidate tables exceed budget {budget}"
        )

    slots = [(f, e) for e in elems for f in unknowns]
    slot_index = {fe: i for i, fe in enumerate(slots)}
    partial: Dict[str, Dict[int, int]] = {f: {} for f in unknowns}

    class _Partial:
        __slots__ = ("name",)

        def __init__(self, name: str):
            self.name = name

        def __call__(self, x: int) -> int:
            try:
                return partial[self.name][x]
            except KeyError:
                raise _Skip from None

    ev = _Evaluator(carrier, {f: _Partial(f) for f in unknowns}, params)

    # Static dependency analysis: with no unknown inside a divisor or an
    # exponent base, the table entries a pair reads are known up front.
    dynamic = _has_value_dependent_branching(eq.lhs) or _has_value_dependent_branching(eq.rhs)
    skipped_pairs = 0
    pairs_at: List[List[Tuple[int, int]]] = [[] for _ in range(len(slots))]
    pending: List[Tuple[int, int]] = []
    if not dynamic:
        probe = _Evaluator(carrier, {f: (lambda _x: 0) for f in unknowns}, params)
        for a in elems:
            for b in elems:
                points: set = set()
                try:
                    _collect_points(probe, eq.lhs, a, b, unknowns, points)
                    _collect_points(probe, eq.rhs, a, b, unknowns, points)
                except _Skip:
                    skipped_pairs += 1
                    continue
                if points:
                    last = max(slot_index[pt] for pt in points)
                    pairs_at[last].append((a, b))
                else:
                    pending.append((a, b))
        for a, b in pending:
            lhs = ev.eval(eq.lhs, a, b)
            rhs = ev.eval(eq.rhs, a, b)
            if lhs != rhs:
                return SolveReport(eq.name, carrier, unknowns, "complete", (), skipped_pairs)
        pending = []
    else:
        pending = [(a, b) for a in elems for b in elems]

    solutions: List[Tuple[FnTable, ...]] = []

    def check_pairs(pairs: Sequence[Tuple[int, int]]) -> bool:
        for a, b in pairs:
            try:
                if ev.eval(eq.lhs, a, b) != ev.eval(eq.rhs, a, b):
                    return False
            except _Skip:
                continue
        return True

    def emit() -> None:
        tables = tuple(FnTable(carrier, dict(partial[f])) for f in unknowns)
        solutions.append(tables)

    def assign(k: int) -> None:
        if k == len(slots):
            if dynamic and not check_pairs(pending):
                return
            emit()
            return
        f, e = slots[k]
        for v in range(m):
            partial[f][e] = v
            ok = check_pairs(pairs_at[k]) if not dynamic else check_pairs(
                [(a, b) for a, b in pending]
            )
            if ok:
                assign(k + 1)
        del partial[f][e]

    assign(0)
    report = SolveReport(
        eq.name, carrier, unknowns, "complete", tuple(solutions), skipped_pairs
    )
    for sol in report.solutions:
        bindings = dict(zip(unknowns, sol))
        check = feq_check(eq, bindings, params)
        if not check.ok:
            raise FeqError(f"internal: emitted solution fails re-check at {check.witness}")
    return report


def _has_value_dependent_branching(node) -> bool:
    """True when a divisor or negative-power base contains a function call,
    so admissibility depends on table values, not only on (x, y)."""
    if isinstance(node, Bin):
        if node.op == "/" and _function_names(node.right):
            return True
        return _has_value_dependent_branching(node.left) or _has_value_dependent_branching(
            node.right
        )
    if isinstance(node, Pow):
        if node.exponent < 0 and _function_names(node.base):
            return True
        return _has_value_dependent_branching(node.base)
    if isinstance(node, Neg):
        return _has_value_dependent_branching(node.operand)
    if isinstance(node, Apply):
        return _has_value_dependent_branching(node.arg)
    return False


def _collect_points(probe: _Evaluator, node, x: int, y: int, unknowns, out: set) -> int:
    """Evaluate with zero placeholders for unknown tables, recording every
    (function, argument) lookup; _Skip propagates for inadmissible pairs."""
    if isinstance(node, Apply):
        arg = _collect_points(probe, node.arg, x, y, unknowns, out)
        if isinstance(probe.carrier, IntegerWindow) and not probe.carrier.contains(arg):
            raise _Skip
        if node.func in unknowns:
            out.add((node.func, arg))
            return 0
        return probe.tables[node.func](arg)
    if isinstance(node, Bin):
        a = _collect_points(probe, node.left, x, y, unknowns, out)
        b = _collect_points(probe, node.right, x, y, unknowns, out)
        if node.op == "+":
            r = a + b
        elif node.op == "-":
            r = a - b
        elif node.op == "*":
            r = a * b
        else:
            return probe._divide(a, b)
        return r % probe.modulus if probe.modulus else r
    if isinstance(node, Neg):
        v = _collect_points(probe, node.operand, x, y, unknowns, out)
        return (-v) % probe.modulus if probe.modulus else -v
    if isinstance(node, Pow):
        base = _collect_points(probe, node.base, x, y, unknowns, out)
        e = node.exponent
        if probe.modulus:
            if e < 0 and not _is_unit(base, probe.modulus):
                raise _Skip
            return pow(base, e, probe.modulus)
        if e >= 0:
            return base ** e
        return probe._divide(1, base ** (-e))
    return probe.eval(node, x, y)


# -- built-in corpus ----------------------------------------------------------


CORPUS: Dict[str, Equation] = {}


def _register(eq: Equation) -> Equation:
    CORPUS[eq.name] = eq
    return eq


_register(Equation.parse("cauchy-add", "f(x+y) = f(x) + f(y)"))
_register(Equation.parse("cauchy-exp", "f(x+y) = f(x) * f(y)"))
_register(Equation.parse("cauchy-log", "f(x*y) = f(x) + f(y)"))
_register(Equation.parse("cauchy-mult", "f(x*y) = f(x) * f(y)"))
_register(Equation.parse("jensen", "f((x+y)/2) = (f(x) + f(y)) / 2"))
_register(
    Equation.parse(
        "hosszu",
        "f(x + y - x*y) + f(x*y) = f(x) + f(y)",
        min_size=5,
        note="solution structure is only classified over fields with at "
        "least five elements",
    )
)
_register(Equation.parse("ger-hom", "f(x+y) = f(x) + f(y) + f(x)*f(y)"))
_register(Equation.parse("leibniz", "f(x*y) = x*f(y) + y*f(x)"))
_register(
    Equation.parse(
        "alien-c22",
        "lam*(f(x+y) - f(x) - f(y)) + mu*(f(x*y) - x*f(y) - y*f(x)) = 0",
        params=("lam", "mu"),
    )
)
_register(
    Equation.parse(
        "opp2",
        "f(x + y - x*y) - f(x) - f(y) + f(x*y) = f(x*y) - x*f(y) - f(x)*y",
        note="finite-carrier evidence only; the infinite-field question is open",
    )
)
_register(
    Equation.parse(
        "opp3",
        "f((x+y)/2) - f(x) - f(y) = f(x*y) - x*f(y) - f(x)*y",
        note="finite-carrier evidence only; the infinite-field question is open",
    )
)


def equation_by_name(name: str) -> Equation:
    try:
        return CORPUS[name]
    except KeyError:
        raise FeqError(
            f"unknown equation {name!r}; available: {', '.join(sorted(CORPUS))}"
        ) from None


# -- special-purpose reports --------------------------------------------------


@dataclass(frozen=True)
class LogZeroReport:
    carrier: FiniteCarrier
    units_only: bool
    solutions: Tuple[Dict[int, int], ...]

    @property
    def only_zero(self) -> bool:
        return all(
            all(v == 0 for v in sol.values()) for sol in self.solutions
        ) and len(self.solutions) == 1


def logarithmic_zero_check(
    carrier: FiniteCarrier, units_only: bool = False, budget: Optional[int] = None
) -> LogZeroReport:
    """Solutions of f(xy) = f(x) + f(y).

    On a carrier containing 0 the pair (0,0) forces f(0) = 2 f(0) and
    additivity collapses everything to the zero table.  With units_only the
    domain shrinks to the unit group and the codomain to integers modulo the
    group order, where nonzero homomorphisms exist."""
    if budget is None:
        budget = default_budget()
    if not units_only:
        report = feq_solve_brute(equation_by_name("cauchy-log"), ["f"], carrier, budget=budget)
        return LogZeroReport(carrier, False, tuple(s[0].values for s in report.solutions))
    units = carrier.units()
    n = len(units)
    if n ** n > budget:
        raise BudgetError(f"{n}^{n} candidate tables exceed budget {budget}")
    solutions = []
    table: Dict[int, int] = {}

    def ok_prefix() -> bool:
        for a in units:
            if a not in table:
                continue
            for b in units:
                if b not in table:
                    continue
                prod = carrier.mul(a, b)
                if prod in table and table[prod] != (table[a] + table[b]) % n:
                    return False
        return True

    def assign(i: int) -> None:
        if i == len(units):
            solutions.append(dict(table))
            return
        for v in range(n):
            table[units[i]] = v
            if ok_prefix():
                assign(i + 1)
        del table[units[i]]

    assign(0)
    return LogZeroReport(carrier, True, tuple(solutions))


@dataclass(frozen=True)
class ReflectionSurvivorReport:
    p: int
    survivors: Tuple[int, ...]  # slopes c with f(x) = c x
    all_leibniz: bool

    @property
    def only_zero(self) -> bool:
        return self.survivors == (0,)


def t1431_check(p: int) -> ReflectionSurvivorReport:
    """Additive maps on GF(p) that also satisfy f(x) = -x^2 f(1/x) on units.

    Additive maps on a prime field are the slopes x -> c x; the reflection
    identity forces 2c = 0, so for odd p only the zero map survives, and the
    zero map is a derivation."""
    if p < 3 or any(p % q == 0 for q in range(2, p)):
        raise FeqError("needs an odd prime")
    survivors = []
    for c in range(p):
        if all(
            (c * x) % p == (-(x * x) * c * pow(x, -1, p)) % p for x in range(1, p)
        ):
            survivors.append(c)
    def leibniz_ok(c: int) -> bool:
        return all(
            (c * (x * y)) % p == (x * c * y + y * c * x) % p
            for x in range(p)
            for y in range(p)
        )
    all_leibniz = all(leibniz_ok(c) for c in survivors)
    return ReflectionSurvivorReport(p, tuple(survivors), all_leibniz)
