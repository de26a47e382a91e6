"""Functional equations over finite carriers.

Equations are small expression trees in declared variables (x and y
unless an equation names others, such as x, y, z), named functions of one
or two arguments, and optional parameters.  A check runs bound tables
through every admissible tuple of variable values; a solve lists every
table assignment that passes.  Two-argument unknowns are check-only: the
cocycle module binds them, and no solve takes them.

A solve takes one of two paths, chosen by the sides' degree, a fold found
once per equation and carrier (`_degree`).  On a prime modulus, when both
sides have degree at most 1 in the table entries (no product of two reads,
no power of one above the first, no read inside a divisor, a negative-power
base or a function argument), each tuple gives one linear equation mod p and
the solutions are the kernel of that system, found by elimination (Aczel &
Dhombres, Functional Equations in Several Variables, ch. 1-2).  Everything
else -- nonlinear equations, unknowns in divisors, composite moduli -- goes
to a backtracking search that fills tables one entry at a time and prunes a
partial assignment as soon as any fully determined tuple fails.  The search
is also the oracle the elimination is tested against: both give the same
solutions in the same order.  The same search (`_search`) fills the one
table of the units-only check of `logarithmic_zero_check`, which maps the
units into Z/|U|, a codomain no carrier expresses.  The budget
(`default_budget`) bounds the work either path would do: the number of
solutions elimination is to list, or the table entries the search places.

Division is pointwise: a tuple whose divisor is not invertible (or, on an
integer window, does not divide exactly) is skipped and counted.  A division
by a constant that is not invertible anywhere rejects the carrier up front.
On a window, a tuple is admissible only while every function argument stays
inside the window.

Each side is generated as Python by a fold (`parser.compiled`) whose
values are generated names (`_Side`): one assignment per node, in
post-order with the left operand first, so nothing recurses.  Sums,
differences, products, negations and non-negative powers are inlined,
reduced modulo the carrier; a table read is a subscription, T[a] or
T[a, b], behind the window test on a window, so a table is any mapping.
Constant subtrees, parameters included, are folded in the carrier's
arithmetic when the code is bound, and a constant divisor on a finite
carrier becomes a product with its inverse; other divisions and negative
powers call the carrier's own `bin` and `pow` (`FiniteCarrier`,
`IntegerWindow`), which alone decide, by raising `Inadmissible`, when a
tuple is skipped.  Per equation and carrier modulus or window
(`Equation.code`), after its constant divisors are examined, the lines of
both sides are inlined into two functions (`_Code`): one check loop over
a stream of tuples, and the residual lhs - rhs at one tuple.  Checks, the
cocycle conditions and the search run the loop; elimination reads its
rows, the search its dependencies and the cocycle module its Cauchy and
Leibniz differences off the residual.  No user text reaches the source:
variables, functions and constants are numbered slots.
"""
from __future__ import annotations

import collections
import itertools
import math
import random
import types
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .exact import (BudgetError, Carrier, FiniteCarrier, Inadmissible, _is_prime,
                    bound_sample, default_budget, gf)
from .parser import (Apply, Arithmetic, Bin, Neg, Num, Pow, Sym, compiled, fold, nodes,
                     parse_equation)


class FeqError(Exception):
    """Base error for equation checking and solving."""


class UnboundSymbolError(FeqError):
    """The equation mentions a function or parameter with no binding."""


class CarrierUnsupportedError(FeqError):
    """A constant divisor is not invertible on the carrier."""


# Generated code reads tables by subscription; a KeyError is a table entry
# that is not there (yet), which makes the tuple inadmissible.
_INADMISSIBLE = (Inadmissible, KeyError)


class FnTable:
    """Total function table on a carrier."""

    __slots__ = ("carrier", "values")

    def __init__(self, carrier: Carrier, values: Dict[int, int]):
        self.carrier = carrier
        table: Dict[int, int] = {}
        for x in carrier.elements():
            if x not in values:
                raise FeqError(f"table is missing a value at {x}")
            table[x] = carrier.reduce(values[x])
        self.values = table

    @classmethod
    def from_callable(cls, carrier: Carrier, fn: Callable[[int], int]) -> "FnTable":
        return cls(carrier, {x: fn(x) for x in carrier.elements()})

    @classmethod
    def zero(cls, carrier: Carrier) -> "FnTable":
        return cls(carrier, {x: 0 for x in carrier.elements()})

    def __call__(self, x: int) -> int:
        return self.values[x]

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
    variables: Tuple[str, ...] = ("x", "y")
    # The generated check loop and residual, per carrier key (see `_code`).  It
    # is not part of the equation's value, and it is not keyed on the
    # trees: hashing a tree recurses once per level.
    code: Dict[tuple, "_Code"] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def parse(
        cls,
        name: str,
        source: str,
        params: Sequence[str] = (),
        min_size: int = 0,
        note: str = "",
        variables: Sequence[str] = ("x", "y"),
    ) -> "Equation":
        lhs, rhs = parse_equation(source)
        found = [node for side in (lhs, rhs) for node in nodes(side)]
        arities = {(n.func, len(n.args)) for n in found if isinstance(n, Apply)}
        functions = sorted({f for f, _ in arities})
        if len(functions) < len(arities):
            raise FeqError(f"equation {name!r} applies a function to one and to two arguments")
        free = {n.name for n in found if isinstance(n, Sym)} - set(variables) - set(params)
        if free:
            raise UnboundSymbolError(
                f"equation {name!r} has undeclared symbols {sorted(free)}"
            )
        return cls(name, source, lhs, rhs, tuple(functions), tuple(params), min_size, note,
                   tuple(variables))

    def describe(self) -> str:
        extra = f"  [params: {', '.join(self.params)}]" if self.params else ""
        return f"{self.name}: {self.source}{extra}"


def _reject_constant_divisors(side, carrier: Carrier) -> None:
    """A division by a fixed non-invertible constant can never be admissible,
    so the whole carrier is rejected (e.g. halving needs an invertible 2)."""
    constant_divisors = [
        n.right for n in nodes(side) if isinstance(n, Bin) and n.op == "/"
        and not any(isinstance(m, (Sym, Apply)) for m in nodes(n.right))
    ]
    for divisor in constant_divisors:
        c = fold(divisor, Arithmetic(CarrierUnsupportedError))
        if c == 0:
            raise CarrierUnsupportedError("division by constant zero")
        m = carrier.characteristic
        if m and math.gcd(c.numerator * c.denominator, m) != 1:
            raise CarrierUnsupportedError(f"constant divisor {c} is not invertible modulo {m}")


def _always_skip(*args: int) -> int:
    """The residual where a side's constant is inadmissible."""
    raise Inadmissible


def _skip_every(tuples: Iterable[tuple]):
    """The check loop where a side's constant is inadmissible: every tuple
    is skipped, and counted."""
    return None, None, None, 0, sum(1 for _ in tuples)


class _Side(Arithmetic):
    """One side of an equation, generated as Python source for one carrier
    by folding the side (`compiled`) in this algebra: `lines` assign one
    local per node, in post-order with the left operand first, and
    `result` names the side's value.  A value of the fold is the name of a
    local, or a subtree without a variable or a function call, which is
    constant and is not named until an operator that is not constant takes
    it.  No user text is named: variable i is a<i>, function i the table
    T<i>, read by subscription as T<i>[a] or T<i>[a, b], node j the local
    <tag><j>, and each maximal constant subtree the global <tag>k<j>,
    folded by `_Side.fold` (as the inverse of its value where it divides
    on a finite carrier).  The tag keeps two sides' names apart in one
    function."""

    def __init__(self, side, functions: Sequence[str], carrier: Carrier,
                 variables: Sequence[str] = ("x", "y"), tag: str = "v"):
        self.functions, self.tag = functions, tag
        self.modulus = carrier.characteristic
        self.carrier = carrier
        self.slots = [f"a{i}" for i in range(len(variables))]
        self.registers = itertools.count()
        self.lines: List[str] = []
        self.constants: List[Tuple[str, object, bool]] = []  # (name, subtree, invert)
        self.binary = False  # whether it reads a two-argument function
        self.result = self.name(compiled(side, self, variables)(*self.slots))

    def name(self, value, invert: bool = False) -> str:
        if isinstance(value, str):
            return value
        self.constants.append((f"{self.tag}k{len(self.constants)}", value, invert))
        return self.constants[-1][0]

    def assign(self, expr: str) -> str:
        local = f"{self.tag}{next(self.registers)}"
        self.lines.append(f"{local} = {expr}")
        return local

    # Literals and parameters are constant subtrees; variables are the slots.
    num, sym = Num, Sym

    def neg(self, a):
        if not isinstance(a, str):
            return Neg(a)
        m = self.modulus
        return self.assign(f"-{a} % {m}" if m else f"-{a}")

    def pow(self, a, e: int):
        if not isinstance(a, str):
            return Pow(a, e)
        m = self.modulus
        return self.assign(f"POW({a}, {e})" if e < 0 else f"pow({a}, {e}, {m})" if m
                           else f"{a} ** {e}")

    def bin(self, op: str, a, b):
        if not isinstance(a, str) and not isinstance(b, str):
            return Bin(op, a, b)
        a, m = self.name(a), self.modulus
        if op != "/":
            b = self.name(b)
            return self.assign(f"({a} {op} {b}) % {m}" if m else f"{a} {op} {b}")
        if m and not isinstance(b, str):
            return self.assign(f"{a} * {self.name(b, invert=True)} % {m}")
        return self.assign(f'BIN("/", {a}, {self.name(b)})')

    def apply(self, func: str, *args):
        args = tuple(self.name(a) for a in args)
        if not self.modulus:  # on a window; a variable's value lies in it
            self.lines += [f"if not {self.carrier.lo} <= {a} <= {self.carrier.hi}: "
                           "raise Inadmissible" for a in args if a not in self.slots]
        self.binary |= len(args) == 2
        return self.assign(f"T{self.functions.index(func)}[{', '.join(args)}]")

    def fold(self, carrier: Carrier, params: Dict[str, int], env: dict) -> bool:
        """Adds the side's constants, in the carrier's arithmetic with the
        parameters' values, to `env`; False when one is inadmissible, and
        then the side skips every tuple."""
        try:
            for name, subtree, invert in self.constants:
                c = compiled(subtree, carrier, tuple(params))(*params.values())
                env[name] = carrier.bin("/", 1, c) if invert else c
        except Inadmissible:
            return False
        return True


def _compile(header: str, lines: List[str]) -> types.CodeType:
    """The code of the function `header` with body `lines`."""
    source = header + "\n" + "".join(f"    {line}\n" for line in lines)
    module = compile(source, "<feq>", "exec")
    return next(c for c in module.co_consts if isinstance(c, types.CodeType))


class _Code:
    """The generated code of an equation on one carrier: both sides, with
    the lines of both inlined into two functions.  The check loop
    `check(tuples)` returns (witness, lhs, rhs, checked, skipped): the
    first tuple whose sides differ, or None three times, after counting
    the tuples compared and those skipped because a side raised
    Inadmissible or read a missing entry.  The residual `residual(a0, a1,
    ...)` is lhs - rhs at one tuple, reduced modulo a finite carrier, and
    raises where the tuple is inadmissible; it is compiled on its first
    use, as most equations only run the loop.  `degree` is the larger
    `_degree` of the two sides, which picks the solver's path."""

    __slots__ = ("lhs", "rhs", "degree", "arity", "modulus", "loop", "difference")

    def __init__(self, eq: "Equation", carrier: Carrier):
        self.lhs, self.rhs = (_Side(side, eq.functions, carrier, eq.variables, tag)
                              for side, tag in ((eq.lhs, "l"), (eq.rhs, "r")))
        self.degree = max(_degree(eq.lhs), _degree(eq.rhs))
        self.arity = len(eq.variables)
        self.modulus = carrier.characteristic
        self.difference: Optional[types.CodeType] = None
        # The loop target and the witness; "a0, " and "" still make tuples.
        slots = "".join(f"a{i}, " for i in range(self.arity))
        lhs, rhs = self.lhs.result, self.rhs.result
        self.loop = _compile("def check(tuples):", [
            "checked = skipped = 0",
            f"for ({slots}) in tuples:",
            "    try:",
            *(f"        {line}" for line in self.lhs.lines + self.rhs.lines or ["pass"]),
            "    except INADMISSIBLE:",
            "        skipped += 1",
            "        continue",
            "    checked += 1",
            f"    if {lhs} != {rhs}:",
            f"        return ({slots}), {lhs}, {rhs}, checked, skipped",
            "return None, None, None, checked, skipped",
        ])

    def _globals(self, carrier: Carrier, params: Dict[str, int],
                 tables: Sequence[Mapping]) -> Optional[dict]:
        """The globals of the code reading `tables` as T0, T1, ..., with the
        constants of both sides folded; None when one is inadmissible, and
        then every tuple is skipped."""
        env = {"pow": pow, "POW": carrier.pow, "BIN": carrier.bin,
               "Inadmissible": Inadmissible, "INADMISSIBLE": _INADMISSIBLE}
        env.update((f"T{i}", t) for i, t in enumerate(tables))
        folded = self.lhs.fold(carrier, params, env) and self.rhs.fold(carrier, params, env)
        return env if folded else None

    def bind(self, carrier: Carrier, params: Dict[str, int], tables: Sequence[Mapping]):
        """The check loop reading `tables`."""
        env = self._globals(carrier, params, tables)
        return _skip_every if env is None else types.FunctionType(self.loop, env)

    def residual(self, carrier: Carrier, params: Dict[str, int], tables: Sequence[Mapping]):
        """The residual reading `tables`."""
        if self.difference is None:
            lhs, rhs, m = self.lhs.result, self.rhs.result, self.modulus
            self.difference = _compile(
                f"def residual({', '.join(f'a{i}' for i in range(self.arity))}):",
                self.lhs.lines + self.rhs.lines
                + [f"return ({lhs} - {rhs}) % {m}" if m else f"return {lhs} - {rhs}"])
        env = self._globals(carrier, params, tables)
        return _always_skip if env is None else types.FunctionType(self.difference, env)


def _code(eq: "Equation", carrier: Carrier) -> _Code:
    """The code of `eq` on `carrier`, made on the first use of a modulus or
    window and kept in `eq.code`.  A constant divisor never invertible
    there refuses the carrier, on every use, as nothing is kept."""
    if isinstance(carrier, FiniteCarrier):
        key = ("mod", carrier.modulus)
    else:
        key = ("window", carrier.lo, carrier.hi)
    if key not in eq.code:
        for side in (eq.lhs, eq.rhs):
            _reject_constant_divisors(side, carrier)
        eq.code[key] = _Code(eq, carrier)
    return eq.code[key]


def _table_code(eq: "Equation", carrier: Carrier) -> _Code:
    """`_code` for the checks and solves that bind one-argument `FnTable`s."""
    code = _code(eq, carrier)
    if code.lhs.binary or code.rhs.binary:
        raise FeqError(f"equation {eq.name!r} has a two-argument unknown, which is check-only")
    return code


def _loop(eq: "Equation", carrier: Carrier, tables: Dict[str, Mapping],
          params: Dict[str, int]):
    """The check loop of `eq` on `carrier`, reading the table bound to each
    function name (see `_Code`)."""
    return _code(eq, carrier).bind(carrier, params, [tables[f] for f in eq.functions])


def _residual(eq: "Equation", carrier: Carrier, tables: Dict[str, Mapping],
              params: Dict[str, int]):
    """lhs - rhs of `eq` on `carrier` as a function of its variables,
    reading the table bound to each function name (see `_Code`)."""
    return _code(eq, carrier).residual(carrier, params, [tables[f] for f in eq.functions])


@dataclass(frozen=True)
class CheckReport:
    equation: str
    # 'pass' or 'fail'; 'void' for a condition that says nothing on the
    # carrier, such as the cocycle sum (zeta) in characteristic 0
    status: str
    witness: Optional[Tuple[int, ...]]
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


def _check(eq: Equation, carrier: Carrier, tables: Dict[str, Mapping], params: Dict[str, int],
           tuples: Optional[Iterable[tuple]] = None) -> CheckReport:
    """The check loop of `eq` on `carrier`, reading `tables`, run on
    `tuples` or else on every tuple of the carrier's elements."""
    if tuples is None:
        tuples = itertools.product(list(carrier.elements()), repeat=len(eq.variables))
    witness, lhs, rhs, checked, skipped = _loop(eq, carrier, tables, params)(tuples)
    return CheckReport(eq.name, "pass" if witness is None else "fail",
                       witness, lhs, rhs, checked, skipped)


def feq_check(
    eq: Equation,
    bindings: Dict[str, FnTable],
    params: Optional[Dict[str, int]] = None,
    mode: str = "exhaustive",
    sample: int = 0,
    seed: int = 0,
) -> CheckReport:
    """Run one set of tables through the equation on every admissible tuple
    of its variables' values.

    The witness of a failure is the first offending tuple in the carrier's
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
    _table_code(eq, carrier)
    params = {k: carrier.reduce(v) for k, v in params.items()}
    tuples: Optional[Iterable[tuple]] = None
    if mode == "sampled":
        if sample <= 0:
            raise FeqError("sampled mode needs a positive sample size")
        bound_sample(sample)
        rng = random.Random(seed)
        elems = list(carrier.elements())
        # Drawn as the loop asks for them, so no sample is held in memory.
        tuples = (tuple([rng.choice(elems) for _ in eq.variables]) for _ in range(sample))
    elif mode != "exhaustive":
        raise FeqError(f"unknown mode {mode!r}")
    return _check(eq, carrier, {name: t.values for name, t in bindings.items()}, params, tuples)


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
    """Every table assignment for the unknown functions that satisfies the
    equation, in lexicographic order of the table values (slots ordered by
    carrier point, the unknowns interleaved at each point).

    On a prime modulus, when both sides have degree at most 1 in the table
    entries (`_degree`), the solutions are the kernel of one linear system,
    solved by elimination (`_eliminate`), and the budget bounds the number
    of solutions to list.  Otherwise the backtracking search lists them
    (`_backtrack`), and the budget bounds the table entries it places.
    Before they are reported, the solutions are re-checked exhaustively.
    The search's are checked one by one.  Elimination's are checked through
    the dim + 1 solutions that span them (`_eliminate`): on sides of degree
    at most 1, which tuples are admissible does not depend on the tables,
    and on each admissible tuple lhs - rhs is an affine function of the
    table entries, so where it vanishes at p0 and at every p0 + b_i it
    vanishes at every p0 + sum of l_i * b_i, which is the whole listing."""
    if not isinstance(carrier, FiniteCarrier):
        raise FeqError("brute-force solving needs a finite carrier")
    unknowns = tuple(unknowns)
    if set(unknowns) != set(eq.functions):
        raise FeqError(
            f"unknowns {sorted(unknowns)} must match the equation's "
            f"function symbols {sorted(eq.functions)}"
        )
    params = {k: carrier.reduce(v) for k, v in (params or {}).items()}
    missing_params = [p for p in eq.params if p not in params]
    if missing_params:
        raise UnboundSymbolError(f"no value bound for parameters {missing_params}")
    if budget is None:
        budget = default_budget()
    if eq.min_size and carrier.modulus < eq.min_size:
        return SolveReport(eq.name, carrier, unknowns, "skipped", (), 0, eq.note)
    code = _table_code(eq, carrier)

    if _is_prime(carrier.modulus) and code.degree <= 1:
        solutions, skipped_pairs, checked = _eliminate(eq, unknowns, carrier, params, budget)
    else:
        solutions, skipped_pairs = _backtrack(eq, unknowns, carrier, params, budget)
        checked = solutions
    for sol in checked:
        check = feq_check(eq, dict(zip(unknowns, sol)), params)
        if not check.ok:
            raise FeqError(f"internal: emitted solution fails re-check at {check.witness}")
    return SolveReport(eq.name, carrier, unknowns, "complete", solutions, skipped_pairs)


Solutions = Tuple[Tuple[FnTable, ...], ...]


_CONST = -1  # the key of a row's constant term; slots are >= 0


def _normal(form: Dict[int, int]):
    """A row without zero coefficients, or its constant when no slot is
    left."""
    if 0 in form.values():
        form = {s: c for s, c in form.items() if c}
    if len(form) > (_CONST in form):
        return form
    return form.get(_CONST, 0)


class _Reads(dict):
    """A table of zeros that adds each entry (f, point) read to `read`; it
    holds no entry, so every read reaches `__missing__`."""

    __slots__ = ("f", "read")

    def __init__(self, f: str, read: set):
        super().__init__()
        self.f, self.read = f, read

    def __missing__(self, x: int) -> int:
        self.read.add((self.f, x))
        return 0


def _probe(unknowns: Tuple[str, ...]) -> Tuple[Dict[str, _Reads], set]:
    """(tables, read): zero tables for `unknowns` that add every entry
    (f, point) the code bound to them reads to the set `read`."""
    read: set = set()
    return {f: _Reads(f, read) for f in unknowns}, read


def _eliminate(eq: Equation, unknowns: Tuple[str, ...], carrier: FiniteCarrier,
               params: Dict[str, int], budget: int) -> Tuple[Solutions, int, Solutions]:
    """Solutions, skipped pairs and the solutions that span the rest, by
    elimination mod a prime, for sides of degree at most 1 (`_degree`).

    Each admissible tuple adds the row lhs - rhs = 0, read off the
    residual (`_probe`): its constant is the residual at the zero tables,
    and the coefficient of each entry the tuple reads is the change in the
    residual when that entry alone is set to 1.  The rows are kept in reduced
    row-echelon form with the highest slot of a row as its pivot, so a
    pivot entry is fixed by free entries at lower slots, and the first
    entry at which two solutions differ is free.  The solutions are
    p0 + sum of l_i * b_i over every choice of the l_i (`_span`), where
    p0 has every free entry 0 and the kernel vector b_i has free entry i
    at 1 and the others at 0; listing the choices in lexicographic order
    lists the solutions in lexicographic order.  The spanning solutions
    are the listed p0 and p0 + b_i."""
    m = carrier.modulus
    slots = [(f, e) for e in range(m) for f in unknowns]
    slot_index = {fe: i for i, fe in enumerate(slots)}
    zeros, read = _probe(unknowns)
    residual = _residual(eq, carrier, zeros, params)
    # Tables that read 0 but at the one entry whose coefficient is taken.
    tables = {f: collections.defaultdict(int) for f in unknowns}
    residual_one = _residual(eq, carrier, tables, params)
    pivots: Dict[int, Dict[int, int]] = {}  # pivot slot -> the rest of its row
    consistent = True
    skipped_pairs = 0
    for tup in itertools.product(range(m), repeat=len(eq.variables)):
        read.clear()
        try:
            const = residual(*tup)
        except Inadmissible:
            skipped_pairs += 1
            continue
        if not consistent:
            continue
        row = {_CONST: const}
        for f, x in read:
            tables[f][x] = 1
            row[slot_index[f, x]] = (residual_one(*tup) - const) % m
            tables[f][x] = 0
        consistent = _add_row(pivots, _normal(row), m)
    if not consistent:
        return (), skipped_pairs, ()
    free = [s for s in range(len(slots)) if s not in pivots]
    if m ** len(free) > budget:
        raise BudgetError(f"{m}^{len(free)} solutions exceed budget {budget}; "
                          f"raise it with --budget or DERCALC_BUDGET")

    def vector(t: int) -> List[int]:
        # p0 (t = _CONST) or b_t: a pivot entry is -(its row's coefficient of t)
        return [-pivots[s].get(t, 0) % m if s in pivots else int(s == t)
                for s in range(len(slots))]

    k = len(unknowns)
    # slot e * k + i holds the value of unknown i at e
    solutions = tuple(tuple(FnTable(carrier, dict(enumerate(values[i::k]))) for i in range(k))
                      for values in _span(vector(_CONST), [vector(t) for t in free], m))
    # p0 sits at 0 in the listing, and p0 + b_i at m^(dim - 1 - i)
    spanning = solutions[:1] + tuple(solutions[m ** j] for j in range(len(free)))
    return solutions, skipped_pairs, spanning


def _span(base: List[int], kernel: List[List[int]], m: int) -> List[List[int]]:
    """Every base + sum of l_i * kernel[i] mod m, in lexicographic order of
    (l_1, ..., l_d) with each l_i in range(m)."""
    points = [base]
    for b in kernel:
        points = [[(x + l * y) % m for x, y in zip(p, b)] for p in points for l in range(m)]
    return points


def _add_row(pivots: Dict[int, Dict[int, int]], row, m: int) -> bool:
    """Adds the equation row = 0 to a reduced system; False when the system
    has become inconsistent.  `pivots` maps each pivot slot s to the rest
    of its row, so v_s = -(sum of c * v_t over that rest), the constant
    counting as v_{_CONST} = 1; the rest holds free slots below s only."""
    if type(row) is int:
        return row == 0
    reduced: Dict[int, int] = {}
    for s, c in row.items():
        for t, d in pivots[s].items() if s in pivots else ((s, -1),):
            reduced[t] = (reduced.get(t, 0) - c * d) % m
    row = _normal(reduced)
    if type(row) is int:
        return row == 0
    s = max(row)
    inv = pow(row.pop(s), -1, m)
    row = {t: c * inv % m for t, c in row.items()}
    for rest in pivots.values():
        c = rest.pop(s, 0)
        for t, d in row.items() if c else ():
            rest[t] = (rest.get(t, 0) - c * d) % m
    pivots[s] = row
    return True


def _backtrack(eq: Equation, unknowns: Tuple[str, ...], carrier: FiniteCarrier,
               params: Dict[str, int], budget: int) -> Tuple[Solutions, int]:
    """Solutions and skipped pairs by backtracking search (`_search`).

    Tables are filled one slot at a time, and each argument tuple is
    checked the moment the last entry it reads is placed; a violated tuple
    prunes the whole subtree.  With an unknown inside a divisor,
    admissibility depends on table values, and with one inside a function
    argument, so do the entries a tuple reads; then every tuple is
    rechecked at every node.  The budget bounds the entries placed."""
    elems = list(carrier.elements())
    slots = [(f, e) for e in elems for f in unknowns]
    partial: Dict[str, Dict[int, int]] = {f: {} for f in unknowns}
    check = _loop(eq, carrier, partial, params)

    # Static dependency analysis: unless a side is value-dependent, the
    # table entries a pair reads are known up front.
    skipped_pairs = 0
    every = list(itertools.product(elems, repeat=len(eq.variables)))
    if _code(eq, carrier).degree == _VALUE_DEPENDENT:
        tuples_at = [every] * len(slots)
    else:
        slot_index = {fe: i for i, fe in enumerate(slots)}
        tuples_at = [[] for _ in slots]
        pending = []
        zeros, points = _probe(unknowns)
        probe = _residual(eq, carrier, zeros, params)
        for tup in every:
            points.clear()
            try:
                probe(*tup)
            except Inadmissible:  # skipped, whatever the tables hold
                skipped_pairs += 1
                continue
            if points:
                tuples_at[max(slot_index[pt] for pt in points)].append(tup)
            else:
                pending.append(tup)
        if check(pending)[0] is not None:
            return (), skipped_pairs

    solutions = _search([(partial[f], e) for f, e in slots], carrier.modulus,
                        lambda k: check(tuples_at[k])[0] is None,
                        lambda: tuple(FnTable(carrier, dict(partial[f])) for f in unknowns),
                        budget)
    return solutions, skipped_pairs


def _search(slots: Sequence[Tuple[Dict[int, int], int]], values: int,
            holds: Callable[[int], bool], record: Callable[[], object], budget: int) -> tuple:
    """The one table search: every filling of `slots`, each a (table, key)
    pair, with values in range(values), in lexicographic order, as
    `record()` returns it at the leaf.  Placing slot k is pruned unless
    `holds(k)`, the check of everything slot k completes.
    BudgetError once more than `budget` entries have been placed; its
    message counts the entries placed and the nodes visited."""
    solutions: List[object] = []
    placed = visited = 0

    def assign(k: int) -> None:
        nonlocal placed, visited
        visited += 1
        if k == len(slots):  # the last placement checked everything that reads it
            solutions.append(record())
            return
        table, key = slots[k]
        for v in range(values):
            placed += 1
            if placed > budget:
                raise BudgetError(
                    f"search over budget {budget}: {placed} table entries placed, "
                    f"{visited} nodes visited; raise it with --budget or DERCALC_BUDGET")
            table[key] = v
            if holds(k):
                assign(k + 1)
        del table[key]

    assign(0)
    return tuple(solutions)


_VALUE_DEPENDENT = 3  # above every degree, so it absorbs the nodes above it


class _Degree(Arithmetic):
    """The algebra of `_degree`: a value is a degree."""

    def sym(self, name: str):
        return 0

    num = sym

    def neg(self, a):
        return a

    def pow(self, a, e: int):
        if a == _VALUE_DEPENDENT or a and e < 0:
            return _VALUE_DEPENDENT
        return min(a * e, 2)

    def bin(self, op: str, a, b):
        if _VALUE_DEPENDENT in (a, b) or op == "/" and b:
            return _VALUE_DEPENDENT
        return min(a + b, 2) if op == "*" else a if op == "/" else max(a, b)

    def apply(self, func: str, *args):
        return _VALUE_DEPENDENT if any(args) else 1


def _degree(side) -> int:
    """The degree of a side in the table entries, read off the tree: 0 or 1
    when the side is affine in the entries on every tuple, 2 when it may
    not be, and _VALUE_DEPENDENT when which tuples are admissible, or
    which entries a tuple reads, depends on table values, not only on the
    variables.  Nothing is folded into constants, so (x - x)*f(x)*f(y) has
    degree 2 and (1/f(x))^0 is value-dependent.  It is computed once per
    equation and carrier, as `_Code.degree`."""
    return fold(side, _Degree())


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
    group order, where nonzero homomorphisms exist.  That search is the
    solver's own (`_search`), one unit per slot, and the budget bounds the
    entries it places."""
    if budget is None:
        budget = default_budget()
    if not units_only:
        report = feq_solve_brute(equation_by_name("cauchy-log"), ["f"], carrier, budget=budget)
        return LogZeroReport(carrier, False, tuple(s[0].values for s in report.solutions))
    units = carrier.units()
    n, m = len(units), carrier.modulus
    slot = {u: k for k, u in enumerate(units)}
    # Each pair x <= y, with x*y (a unit), is checked once, when the last of
    # x, y, x*y is placed; (y, x) is the same pair in a commutative group.
    pairs_at: List[List[Tuple[int, int, int]]] = [[] for _ in units]
    for x, y in itertools.combinations_with_replacement(units, 2):
        xy = x * y % m
        pairs_at[max(slot[x], slot[y], slot[xy])].append((x, y, xy))
    table: Dict[int, int] = {}

    def holds(k: int) -> bool:
        for x, y, xy in pairs_at[k]:
            if table[xy] != (table[x] + table[y]) % n:
                return False
        return True

    solutions = _search([(table, u) for u in units], n, holds, lambda: dict(table), budget)
    return LogZeroReport(carrier, True, solutions)


@dataclass(frozen=True)
class ReflectionSurvivorReport:
    p: int
    survivors: Tuple[int, ...]  # slopes c with f(x) = c x
    all_leibniz: bool

    @property
    def only_zero(self) -> bool:
        return self.survivors == (0,)


# Not in CORPUS, so `feq list` leaves it out.
_REFLECTION = Equation.parse("reflection", "f(x) = -x^2*f(1/x)")


def t1431_check(p: int) -> ReflectionSurvivorReport:
    """Additive maps on GF(p) that also satisfy f(x) = -x^2 f(1/x) on units.

    The solutions of `cauchy-add` (slopes x -> c x) are checked against the
    identity, whose pairs at x = 0 are skipped (1/0); it forces 2c = 0, so
    for odd p only the zero map survives, checked against `leibniz`."""
    if p < 3 or not _is_prime(p):
        raise FeqError("needs an odd prime")
    additive = feq_solve_brute(CORPUS["cauchy-add"], ["f"], gf(p)).tables("f")
    survivors = [f for f in additive if feq_check(_REFLECTION, {"f": f}).ok]
    all_leibniz = all(feq_check(CORPUS["leibniz"], {"f": f}).ok for f in survivors)
    return ReflectionSurvivorReport(p, tuple(f(1) for f in survivors), all_leibniz)
