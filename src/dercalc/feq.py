"""Functional equations over finite carriers.

Equations are small expression trees in declared variables (x and y
unless an equation names others, such as x, y, z), named functions of one
or two arguments, and optional parameters.  A check runs bound tables
through every admissible tuple of variable values; a solve lists every
table assignment that passes.  Two-argument unknowns are check-only: the
cocycle module binds them, and no solve takes them.

A solve takes one of two paths, chosen by the sides' degree (`_degree`),
found once per equation and carrier from the fold that also writes
elimination's row (`_Linear`).  On a prime modulus, when both sides have
degree at most 1 in the table entries (no product of two reads, no power of
one above the first, no read inside a divisor, a negative-power base or a
function argument), each tuple gives one linear equation mod p and the
solutions are the kernel of that system, found by elimination (Aczel &
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

Each side is generated as Python by a fold (`parser.compiled`) whose values
are generated expressions (`_Side`), so nothing recurses: ring operations
are inlined, a table read is a subscription, so a table is any mapping,
constant subtrees are folded when the code is bound, and other divisions
and negative powers call the carrier's `bin` and `pow`, which raise
`Inadmissible` where a tuple is skipped.  Per equation and carrier modulus
or window (`Equation.code`), after its constant divisors are examined, the
lines of both sides make five functions (`_Code`): the nest, which an
exhaustive check runs, and the stream loop, which a sampled check runs;
the search's step (`_backtrack`); the residual, lhs - rhs at one tuple;
and elimination's row, the same difference as a sparse dict for sides of
degree at most 1.  Elimination reads rows on demand: a seed of tuples,
then the lines through each tuple where the exhaustive re-check of the
spanning solutions fails, until it passes, so its final round is the
listing's re-check (`_eliminate`).  No user text reaches the source:
variables, functions and constants are numbered slots.  An exhaustive
check of more tuples than the budget is refused up front (`bound_exhaustive`).
"""
from __future__ import annotations

import functools
import heapq
import itertools
import math
import random
import types
from dataclasses import dataclass, field
from fractions import Fraction
from typing import (Callable, Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence,
                    Tuple)

from .exact import (BudgetError, Carrier, DercalcError, FiniteCarrier, Inadmissible, _is_prime,
                    bound_exhaustive, bound_sample, default_budget, gf)
from .parser import (Apply, Arithmetic, Bin, Neg, Num, Pow, Sym, compiled, fold, nodes,
                     parse_equation)


class FeqError(DercalcError):
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
    # The generated code (`_Code`), per carrier key (see `_code`).  It
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


def _skip_every(arity: Optional[int]):
    """The check loop where a side's constant is inadmissible: every tuple
    is skipped, and counted; the len(E)^arity tuples of a nest, or with no
    arity those of a stream."""
    def check(items):
        skipped = sum(1 for _ in items) if arity is None else len(items) ** arity
        return None, None, None, 0, skipped
    return check


class _Subscript:
    """A map read by subscription, as generated code reads its tables:
    m[key] is fn(key)."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable):
        self.fn = fn

    def __getitem__(self, key):
        return self.fn(key)


class _Rows(dict):
    """A table keyed by pairs, regrouped by rows (`_rows`)."""


def _rows(table: Mapping) -> Mapping:
    """A table keyed by pairs, read by rows as generated code reads it:
    rows[a][b] is table[a, b], and a missing pair still raises KeyError.  A
    dict is regrouped into `_Rows`, which the code binds as it is, so a
    caller that checks one table against several equations regroups it
    once; any other mapping is read through."""
    if type(table) is not dict:
        return _Subscript(lambda a: _Subscript(lambda b: table[a, b]))
    rows = _Rows()
    for (a, b), v in table.items():
        rows.setdefault(a, {})[b] = v
    return rows


class _Expr(NamedTuple):
    """A value of `_Side`'s fold that is not constant: Python source at a
    depth (see `_Side`).  It is not `exact` where it is a sum, difference,
    product or negation of exact values left unreduced modulo the carrier:
    it is then congruent to the node's value, and what takes it reduces
    it.  `nest` counts the operators inlined in `text`; a name has none."""
    text: str
    depth: int
    exact: bool = True
    nest: int = 0


_INLINE = 8  # the most operators nested in one generated expression


class _Side(Arithmetic):
    """Trees generated as Python source for one carrier: `value` folds a
    tree (`compiled`) in this algebra into `lines`, (depth, line) pairs,
    and returns the name of its value.  One `_Side` folds one side of an
    equation, or the entry-free subtrees of a row (`_Linear`).  A value of
    the fold is an `_Expr`, or a subtree without a variable or a function
    call, which is constant and is not named until an operator that is not
    constant takes it.  No user text is named: variable i is a<i>, function
    i the table T<i>, read by subscription as T<i>[a] or by rows as
    T<i>[a][b], a node made a local <tag><j>, and each maximal constant
    subtree the global <tag>k<j>, folded by `_Side.fold` (as the inverse
    of its value where it divides on a finite carrier).  The tag keeps two
    sides' names apart in one function.

    A value's depth is the largest i + 1 over the variables a<i> it reads;
    constants and tables have depth 0.  An operator's expression inlines
    its operands at its own depth and names each one at a lower depth: it
    becomes a local, assigned on a line at that depth, in post-order with
    the left operand first, so a loop nest can run the line in the loop of
    a<depth - 1>, outside the loops it does not read (`_check_loop`).  On
    a finite carrier, a sum, difference, product or negation of exact
    values is left unreduced for the operator that takes it, and every
    other value is reduced as it is read: a table key, a local, the
    result.  On a window, a function argument and a division's operands
    are locals, and a test line, "if not ...:", keeps the tuples where the
    argument lies in the window, or the division is exact, before the
    line that reads them."""

    def __init__(self, functions: Sequence[str], carrier: Carrier,
                 variables: Sequence[str] = ("x", "y"), tag: str = "v"):
        self.functions, self.tag = functions, tag
        self.modulus = carrier.characteristic
        self.carrier = carrier
        self.variables = tuple(variables)
        self.slots = [_Expr(f"a{i}", i + 1) for i in range(len(variables))]
        self.registers = itertools.count()
        self.lines: List[Tuple[int, str]] = []
        self.constants: List[Tuple[str, object, bool]] = []  # (name, subtree, invert)
        self.pairs: set = set()  # the indices of the tables it reads at two arguments

    def value(self, tree) -> str:
        """Folds `tree` into `lines`; the name of its value, reduced."""
        return self.local(compiled(tree, self, self.variables)(*self.slots)).text

    def name(self, value, invert: bool = False) -> _Expr:
        if isinstance(value, _Expr):
            return value
        self.constants.append((f"{self.tag}k{len(self.constants)}", value, invert))
        return _Expr(self.constants[-1][0], 0)

    def reduced(self, a: _Expr) -> _Expr:
        return a if a.exact else _Expr(f"({a.text}) % {self.modulus}", a.depth, True, a.nest)

    def local(self, value) -> _Expr:
        """The value, reduced, as a name: itself if it is one, or else a
        local assigned on a line at its depth."""
        a = self.reduced(self.name(value))
        if not a.nest:
            return a
        local = f"{self.tag}{next(self.registers)}"
        self.lines.append((a.depth, f"{local} = {a.text}"))
        return _Expr(local, a.depth)

    def expr(self, template: str, *operands, ring: bool = False) -> _Expr:
        """`template` with the operands in place, at the depth of the
        deepest; an operand at a lower depth, or nested too deep, is made a
        local first.  A `ring` operation on a finite carrier is reduced only
        where an operand is not exact."""
        args = [self.name(a) for a in operands]
        depth = max(a.depth for a in args)
        args = [a if a.depth == depth and a.nest < _INLINE else self.local(a) for a in args]
        text = template.format(*(f"({a.text})" if a.nest else a.text for a in args))
        value = _Expr(text, depth, not (ring and self.modulus), 1 + max(a.nest for a in args))
        return value if all(a.exact for a in args) else self.reduced(value)

    # Literals and parameters are constant subtrees; variables are the slots.
    num, sym = Num, Sym

    def neg(self, a):
        return self.expr("-{0}", a, ring=True) if isinstance(a, _Expr) else Neg(a)

    def pow(self, a, e: int):
        if not isinstance(a, _Expr):
            return Pow(a, e)
        m = self.modulus
        return self.expr(f"POW({{0}}, {e})" if e < 0 else f"pow({{0}}, {e}, {m})" if m
                         else f"{{0}} ** {e}", a)

    def bin(self, op: str, a, b):
        if not isinstance(a, _Expr) and not isinstance(b, _Expr):
            return Bin(op, a, b)
        if op != "/":
            return self.expr(f"{{0}} {op} {{1}}", a, b, ring=True)
        if not self.modulus:  # exact division, tested as `IntegerWindow.bin` tests it
            a, b = self.local(a), self.local(b)
            self.lines.append((max(a.depth, b.depth), f"if not {b.text} or {a.text} % {b.text}:"))
            return self.expr("{0} // {1}", a, b)
        if not isinstance(b, _Expr):
            return self.expr("{0} * {1}", a, self.name(b, invert=True), ring=True)
        return self.expr('BIN("/", {0}, {1})', a, b)

    def apply(self, func: str, *args):
        args = [self.reduced(self.name(a)) for a in args]
        if not self.modulus:  # on a window; a variable's value lies in it
            args = [a if a in self.slots else self.local(a) for a in args]
            self.lines += [(a.depth, f"if not {self.carrier.lo} <= {a.text} <= "
                            f"{self.carrier.hi}:") for a in args if a not in self.slots]
        i = self.functions.index(func)
        if len(args) == 2:  # the row, then the entry
            self.pairs.add(i)
            return self.expr("{0}[{1}]", self.expr(f"T{i}[{{0}}]", args[0]), args[1])
        return self.expr(f"T{i}[{{0}}]", args[0])

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


def _statement(line: str, skip: str) -> str:
    """A generated line as a statement: a window test, "if not ...:",
    ends in `skip`, what the code does with a tuple that fails it."""
    return f"{line} {skip}" if line.endswith(":") else line


def _check_loop(loops: Sequence[str], skips: Sequence[str], lines: Sequence[Tuple[int, str]],
                slots: str, lhs: str, rhs: str) -> List[str]:
    """The body of a check loop over the nested `loops`, outermost first.
    Each of `lines` runs in the loop of its depth, or in the innermost one
    when it is deeper, and a depth-0 line before the loops.  The lines are
    pure, so where one raises or fails its test, every tuple under it would
    be skipped: a line in loop d adds `skips[d]` to the tuples skipped and
    goes on with that loop, and one before the loops skips `skips[0]`,
    every tuple.  In the innermost loop the tuple (`slots`) is counted as
    checked, and is the witness if `lhs` differs from `rhs`."""
    body = ["checked = skipped = 0"]
    for level in range(len(loops) + 1):
        pad = "    " * level
        if level:
            body.append(pad[4:] + loops[level - 1])
        skip = (f"skipped += {skips[level]}; continue" if level
                else f"return None, None, None, 0, {skips[0]}")
        here = [_statement(line, skip) for depth, line in lines
                if min(depth, len(loops)) == level]
        if here:
            body += [f"{pad}try:", *(f"{pad}    {line}" for line in here),
                     f"{pad}except INADMISSIBLE: {skip}"]
    return body + [f"{pad}checked += 1",
                   f"{pad}if {lhs} != {rhs}:",
                   f"{pad}    return ({slots}), {lhs}, {rhs}, checked, skipped",
                   "return None, None, None, checked, skipped"]


class _Affine(NamedTuple):
    """A value of `_Linear`'s fold: `const` plus the sum of c * f(*key) over
    the `terms` (c, f, key), where `const`, each c and each subtree of the
    key is entry-free: f names the function, and the key holds its one
    argument, or its two.  `const` is None where it is 0 and reads nothing,
    which a value without terms never is.  A value of degree 2 has `terms`
    None, and its `const` is its guard (`_guard`)."""
    const: object
    terms: Optional[Tuple[Tuple[object, str, Tuple[object, ...]], ...]] = ()


_CONST = -1  # the key of a row's constant term; slots are >= 0


def _guard(a: _Affine):
    """An entry-free subtree whose value is 1, and which raises where `a`
    does: the product of the powers 0 of a's subtrees."""
    if a.terms is None:
        return a.const
    parts = ([a.const] if a.const else []) + [g for c, _, key in a.terms for g in (c, *key)]
    return functools.reduce(lambda p, q: Bin("*", p, q), [Pow(g, 0) for g in parts])


class _Linear(Arithmetic):
    """The algebra of a side's shape in the table entries: a side as an
    affine function of them (`_Affine`), which `_degree` classifies and
    which, for lhs - rhs, is elimination's row (`_linear`).  Every
    entry-free subtree the side evaluates stays in the value, in its
    constant, a coefficient or a key, so the row is inadmissible where the
    side is.  A power 0, which the side evaluates and discards, is the
    guard of its base (`_guard`); so is a value of degree 2, such as a
    product of two values with terms, which only a power 0 takes back to a
    constant.  A read in a divisor, under a negative power or inside a
    function argument raises FeqError: the side is value-dependent."""

    def __init__(self):
        super().__init__(FeqError)

    def num(self, value: Fraction):
        return _Affine(Num(value))

    def sym(self, name: str):
        return _Affine(Sym(name))

    def neg(self, a: _Affine):
        if a.terms is None:
            return a
        return _Affine(a.const and Neg(a.const), tuple((Neg(c), f, key) for c, f, key in a.terms))

    def pow(self, a: _Affine, e: int):
        if a.terms == ():
            return _Affine(Pow(a.const, e))
        if e < 0:
            raise self.error(f"a power {e} of a table entry is not linear")
        return a if e == 1 else _Affine(_guard(a), None if e else ())

    def bin(self, op: str, a: _Affine, b: _Affine):
        if op == "/" and b.terms != ():
            raise self.error("a table entry in a divisor is not linear")
        if a.terms is None or b.terms is None or op == "*" and a.terms and b.terms:
            if op == "/":  # raises where the divisor is not invertible
                return _Affine(Pow(Bin("/", _guard(a), b.const), 0), None)
            return _Affine(Bin("*", _guard(a), _guard(b)), None)
        if op in "+-":
            if a.const and b.const:
                const = Bin(op, a.const, b.const)
            else:
                const = Neg(b.const) if op == "-" and b.const else a.const or b.const
            return _Affine(const, a.terms + (b.terms if op == "+" else self.neg(b).terms))
        if b.terms:
            a, b = b, a  # the factor with terms first
        k = b.const
        return _Affine(a.const and Bin(op, a.const, k),
                       tuple((Bin(op, c, k), f, key) for c, f, key in a.terms))

    def apply(self, func: str, *args: _Affine):
        if any(a.terms != () for a in args):
            raise self.error(f"a read of {func!r} here is not linear")
        return _Affine(None, ((Num(Fraction(1)), func, tuple(a.const for a in args)),))


def _linear(eq: "Equation") -> _Affine:
    """lhs - rhs of `eq` folded in `_Linear`; FeqError where it has degree 2."""
    algebra = _Linear()
    form = algebra.bin("-", fold(eq.lhs, algebra), fold(eq.rhs, algebra))
    if form.terms is None:
        raise FeqError(f"equation {eq.name!r} is not linear in the table entries")
    return form


_VALUE_DEPENDENT = 3  # above every degree


def _degree(side) -> int:
    """The degree of a side in the table entries, read off its fold in
    `_Linear`: 0 or 1 when the side is affine in the entries on every
    tuple, 1 where the form has terms; 2 when it may not be, where the
    form's `terms` is None; and _VALUE_DEPENDENT where the fold raises, at
    a read in a divisor, under a negative power or inside a function
    argument: which tuples are admissible, or which entries a tuple reads,
    then depends on table values, not only on the variables.  Nothing is folded into constants,
    so (x - x)*f(x)*f(y) has degree 2 and (1/f(x))^0 is value-dependent.
    It is computed once per equation and carrier, as `_Code.degree`."""
    try:
        terms = fold(side, _Linear()).terms
    except FeqError:
        return _VALUE_DEPENDENT
    return 2 if terms is None else 1 if terms else 0


class _Code:
    """The generated code of an equation on one carrier: both sides, with
    the lines of both inlined into five kinds of function, each compiled on
    its first use (`function`) and bound to tables (`bind`), as most
    equations run only one or two.

    A check loop returns (witness, lhs, rhs, checked, skipped): the first
    tuple whose sides differ, or None three times, after counting the
    tuples compared and those skipped because a side raised Inadmissible,
    read a missing entry or failed a window or division test.  One emitter
    (`_check_loop`) makes both loop shapes.  The stream loop "loop",
    `check(tuples)`, runs the tuples it is given in one loop.  The nest
    "nest", `check(E)`, runs every tuple of the elements E in product
    order, one loop per variable, each line in the loop of the last
    variable it reads (`_Side`): a line runs once per value of the
    variables it reads, and where it fails, the tuples under it are
    counted as skipped at once.  "values", `values(tuples, T, key,
    candidates)`, is the search's step: the stream loop's lines inside
    `for v in candidates: T[key] = v`, it returns the candidates v, in
    their order, at which no tuple given fails.  The "residual",
    `residual(a0, a1, ...)`, is lhs - rhs at one tuple, reduced modulo a
    finite carrier, and raises where the tuple is inadmissible; the search
    reads off it the entries a tuple reads, in order, and the value a
    tuple forces (`_backtrack`).  The "row",
    `row(a0, a1, ...)`, is the same difference, for sides of degree at
    most 1 on a finite carrier, as the linear form elimination reads
    (`_Linear`): {slot: coefficient, _CONST: constant}, reduced, with the
    slot of T<i>[x] x * k + S<i> for k tables; it raises where the
    residual raises.  `pairs` holds the indices of the tables read at two
    arguments, which the code reads by rows (`_rows`).  `degree` is the
    larger `_degree` of the two sides, read off the row's fold, which picks
    the solver's path."""

    __slots__ = ("eq", "lhs", "rhs", "results", "linear", "degree", "arity", "modulus",
                 "pairs", "codes")

    def __init__(self, eq: "Equation", carrier: Carrier):
        self.eq = eq
        self.lhs, self.rhs = (_Side(eq.functions, carrier, eq.variables, tag) for tag in "lr")
        self.results = self.lhs.value(eq.lhs), self.rhs.value(eq.rhs)
        self.linear: Optional[_Side] = None  # the row's subtrees, folded with the row
        self.degree = max(_degree(eq.lhs), _degree(eq.rhs))
        self.arity = len(eq.variables)
        self.modulus = carrier.characteristic
        self.pairs = self.lhs.pairs | self.rhs.pairs
        self.codes: Dict[str, types.CodeType] = {}

    def function(self, name: str) -> types.CodeType:
        """The code of the function `name`, "loop", "nest", "values",
        "residual" or "row", compiled on its first use."""
        if name not in self.codes:
            k, lines = self.arity, self.lhs.lines + self.rhs.lines
            (lhs, rhs), m = self.results, self.modulus
            # The loop target and the witness; "a0, " and "" still make tuples.
            slots = "".join(f"a{i}, " for i in range(k))
            if name == "loop":
                source = "def check(tuples):", _check_loop(
                    [f"for ({slots}) in tuples:"], ["sum(1 for _ in tuples)", "1"],
                    lines, slots, lhs, rhs)
            elif name == "nest":
                source = "def check(E):", _check_loop(
                    [f"for a{i} in E:" for i in range(k)],
                    [f"len(E) ** {k - level}" if level < k else "1" for level in range(k + 1)],
                    lines, slots, lhs, rhs)
            elif name == "values":
                here = [_statement(line, "continue") for _, line in lines]
                source = "def values(tuples, T, key, candidates):", [
                    "passing = []", "for v in candidates:", "    T[key] = v",
                    f"    for ({slots}) in tuples:",
                    *(["        try:", *(f"            {line}" for line in here),
                       "        except INADMISSIBLE: continue"] if here else []),
                    f"        if {lhs} != {rhs}: break",
                    "    else:", "        passing.append(v)", "return passing"]
            elif name == "residual":
                source = f"def residual({slots}):", (
                    [_statement(line, "raise Inadmissible") for _, line in lines]
                    + [f"return ({lhs} - {rhs}) % {m}" if m else f"return {lhs} - {rhs}"])
            else:
                source = f"def row({slots}):", self._row_body()
            self.codes[name] = _compile(*source)
        return self.codes[name]

    def _row_body(self) -> List[str]:
        """The body of "row": lhs - rhs folded into `_Linear` (`_linear`),
        its subtrees into `linear`, one `_Side` of their own, and each
        term's function name into the index of its table."""
        eq, m = self.eq, self.modulus
        form = _linear(eq)
        side = self.linear = _Side(eq.functions, self.lhs.carrier, eq.variables, "w")
        const = side.value(form.const) if form.const else "0"
        terms = [(side.value(c), eq.functions.index(f), side.value(x))
                 for c, f, (x,) in form.terms]
        k = len(eq.functions)
        body = [_statement(line, "raise Inadmissible") for _, line in side.lines]
        body.append(f"form = {{{_CONST}: {const}}}")
        for c, i, x in terms:
            slot = x if k == 1 else f"{x} * {k} + S{i}"
            body.append(f"slot = {slot}; form[slot] = (form.get(slot, 0) + {c}) % {m}")
        return body + ["return form"]

    def _globals(self, carrier: Carrier, params: Dict[str, int], tables: Sequence[Mapping],
                 sides: Sequence[_Side] = ()) -> Optional[dict]:
        """The globals of the code reading `tables` as T0, T1, ..., with the
        constants of `sides`, or of both sides, folded; None when one is
        inadmissible, and then every tuple is skipped.  A table already
        regrouped by rows (`_Rows`) is bound as it is."""
        env = {"pow": pow, "POW": carrier.pow, "BIN": carrier.bin,
               "Inadmissible": Inadmissible, "INADMISSIBLE": _INADMISSIBLE}
        env.update((f"T{i}", _rows(t) if i in self.pairs and type(t) is not _Rows else t)
                   for i, t in enumerate(tables))
        folded = all(side.fold(carrier, params, env) for side in sides or (self.lhs, self.rhs))
        return env if folded else None

    def bind(self, name: str, carrier: Carrier, params: Dict[str, int],
             tables: Sequence[Mapping], skip: Callable):
        """The function `name` reading `tables`, or `skip` where a constant
        is inadmissible, and every tuple is skipped."""
        env = self._globals(carrier, params, tables)
        return skip if env is None else types.FunctionType(self.function(name), env)

    def row(self, carrier: Carrier, params: Dict[str, int], offsets: Sequence[int]):
        """The row, with T<i>'s entry at x in slot x * k + offsets[i]."""
        code = self.function("row")
        env = self._globals(carrier, params, (), (self.linear,))
        if env is None:
            return _always_skip
        env.update((f"S{i}", s) for i, s in enumerate(offsets))
        return types.FunctionType(code, env)


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
    if code.pairs:
        raise FeqError(f"equation {eq.name!r} has a two-argument unknown, which is check-only")
    return code


def _loop(eq: "Equation", carrier: Carrier, tables: Dict[str, Mapping],
          params: Dict[str, int], nest: bool = False):
    """The check loop of `eq` on `carrier`, reading the table bound to each
    function name: the stream loop, or the nest (see `_Code`)."""
    return _code(eq, carrier).bind("nest" if nest else "loop", carrier, params,
                                   [tables[f] for f in eq.functions],
                                   _skip_every(len(eq.variables) if nest else None))


def _residual(eq: "Equation", carrier: Carrier, tables: Dict[str, Mapping],
              params: Dict[str, int]):
    """lhs - rhs of `eq` on `carrier` as a function of its variables,
    reading the table bound to each function name (see `_Code`)."""
    return _code(eq, carrier).bind("residual", carrier, params,
                                   [tables[f] for f in eq.functions], _always_skip)


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
    """The check of `eq` on `carrier`, reading `tables`: the stream loop
    on `tuples`, or else the nest on every tuple of the carrier's
    elements."""
    loop = _loop(eq, carrier, tables, params, nest=tuples is None)
    witness, lhs, rhs, checked, skipped = loop(
        list(carrier.elements()) if tuples is None else tuples)
    return CheckReport(eq.name, "pass" if witness is None else "fail",
                       witness, lhs, rhs, checked, skipped)


def _params(eq: Equation, carrier: Carrier, params: Optional[Dict[str, int]]) -> Dict[str, int]:
    """`params` reduced on `carrier`, refused unless they bind exactly `eq.params`."""
    params = params or {}
    missing = [p for p in eq.params if p not in params]
    if missing:
        raise UnboundSymbolError(f"no value bound for parameters {missing}")
    undeclared = sorted(set(params) - set(eq.params))
    if undeclared:
        raise FeqError(f"{eq.name} does not declare parameters {undeclared}")
    return {k: carrier.reduce(v) for k, v in params.items()}


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
    canonical enumeration order.  An exhaustive check of more tuples than
    the budget (`default_budget`) is refused before it runs."""
    missing = [f for f in eq.functions if f not in bindings]
    if missing:
        raise UnboundSymbolError(f"no table bound for {missing}")
    carriers = {t.carrier for t in bindings.values()}
    if len(carriers) != 1:
        raise FeqError("all bound tables must share one carrier")
    carrier = next(iter(carriers))
    params = _params(eq, carrier, params)
    _table_code(eq, carrier)
    tuples: Optional[Iterable[tuple]] = None
    if mode == "sampled":
        if sample <= 0:
            raise FeqError("sampled mode needs a positive sample size")
        bound_sample(sample)
        rng = random.Random(seed)
        elems = list(carrier.elements())
        # Drawn as the loop asks for them, so no sample is held in memory.
        tuples = (tuple([rng.choice(elems) for _ in eq.variables]) for _ in range(sample))
    elif mode == "exhaustive":
        bound_exhaustive(carrier.size ** len(eq.variables))
    else:
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
    entries (`_degree`), elimination solves one linear system (`_eliminate`),
    and the budget bounds the number of solutions to list; otherwise the
    backtracking search lists them (`_backtrack`), and the budget bounds the
    table entries it places.  Every solution is re-checked exhaustively, the
    search's one by one and elimination's through the dim + 1 that span
    them.  A solve whose exhaustive re-check the default budget refuses
    (`feq_check`) is refused before it starts."""
    if not isinstance(carrier, FiniteCarrier):
        raise FeqError("brute-force solving needs a finite carrier")
    unknowns = tuple(unknowns)
    if sorted(unknowns) != sorted(eq.functions):
        raise FeqError(
            f"unknowns {sorted(unknowns)} must name each of the equation's "
            f"function symbols {sorted(eq.functions)} once"
        )
    params = _params(eq, carrier, params)
    if budget is None:
        budget = default_budget()
    if eq.min_size and carrier.modulus < eq.min_size:
        return SolveReport(eq.name, carrier, unknowns, "skipped", (), 0, eq.note)
    code = _table_code(eq, carrier)
    bound_exhaustive(carrier.size ** len(eq.variables))  # the re-check's, before any work

    if _is_prime(carrier.modulus) and code.degree <= 1:
        solutions, skipped_pairs = _eliminate(eq, unknowns, carrier, params, budget)
    else:
        solutions, skipped_pairs = _backtrack(eq, unknowns, carrier, params, budget)
        for sol in solutions:
            check = feq_check(eq, dict(zip(unknowns, sol)), params)
            if not check.ok:
                raise FeqError(f"internal: emitted solution fails re-check at {check.witness}")
    return SolveReport(eq.name, carrier, unknowns, "complete", solutions, skipped_pairs)


Solutions = Tuple[Tuple[FnTable, ...], ...]


def _normal(form: Dict[int, int]):
    """A row without zero coefficients, or its constant when no slot is
    left."""
    if 0 in form.values():
        form = {s: c for s, c in form.items() if c}
    if len(form) > (_CONST in form):
        return form
    return form.get(_CONST, 0)


def _probe(unknowns: Tuple[str, ...]) -> Tuple[Dict[str, _Subscript], List[int]]:
    """(tables, read): zero tables for `unknowns` on a finite carrier that
    append the slot of every entry the code bound to them reads to the
    list `read`, in the order the code reads them: x * k + i for unknown i
    of k at x, the slots of `_eliminate` and `_backtrack`."""
    read: List[int] = []
    k = len(unknowns)

    def zeros(i: int) -> _Subscript:
        return _Subscript(lambda x: read.append(x * k + i) or 0)

    return {f: zeros(i) for i, f in enumerate(unknowns)}, read


_SEED = 3  # elimination's seed: the tuples whose variables after the first are below it


def _eliminate(eq: Equation, unknowns: Tuple[str, ...], carrier: FiniteCarrier,
               params: Dict[str, int], budget: int) -> Tuple[Solutions, int]:
    """Solutions and skipped pairs by elimination mod a prime, for sides of
    degree at most 1 (`_degree`), reading rows on demand.

    A tuple's row is lhs - rhs = 0 (`_Code`, "row").  The rows read are kept
    in reduced row-echelon form, a row's highest slot its pivot; p0 has
    every free entry 0, and b_i free entry i at 1, the others at 0.  After
    the seed's rows (`_SEED`), each p0 + b_i and p0 are checked on every
    tuple (`feq_check`), and where one fails at a witness, the rows of every
    line through it (one variable runs over the carrier) are read and the
    checks run again.  Every row read holds on every solution, so the
    solutions lie in the space A of p0 + sum of l_i * b_i; lhs - rhs is
    affine in the tables and admissibility does not depend on them, so
    checks that pass prove A is the solution set: they are the re-check.  A
    witness's row does not vanish on A, so each failing round raises the
    rank or leaves no solution; then every row is read to count the tuples
    skipped.  The echelon form is unique given A, so the listing (`_span`)
    does not depend on the rows read: p0 at 0, p0 + b_i at m^(dim - 1 - i)."""
    m, k, arity = carrier.modulus, len(unknowns), len(eq.variables)
    # slot e * k + i holds the value of unknown i at e
    row = _code(eq, carrier).row(carrier, params, [unknowns.index(f) for f in eq.functions])
    pivots: Dict[int, Dict[int, int]] = {}  # pivot slot -> the rest of its row
    tuples = itertools.product(*(range(min(m, _SEED) if i else m) for i in range(arity)))
    rank = -1  # before the seed's rows are read

    def vector(t: int) -> List[int]:
        # p0 (t = _CONST) or b_t: a pivot entry is -(its row's coefficient of t)
        return [-pivots[s].get(t, 0) % m if s in pivots else int(s == t)
                for s in range(m * k)]

    def tables(values: List[int]) -> Tuple[FnTable, ...]:
        return tuple(FnTable(carrier, dict(enumerate(values[i::k]))) for i in range(k))

    while True:
        for tup in tuples:
            try:
                form = row(*tup)
            except Inadmissible:
                continue
            if not _add_row(pivots, form, m):
                skipped = 0
                for each in itertools.product(range(m), repeat=arity):
                    try:
                        row(*each)
                    except Inadmissible:
                        skipped += 1
                return (), skipped
        if len(pivots) == rank:  # the row and the check disagree at w
            raise FeqError(f"internal: the row at {w} is in the span of the rows read")
        free, p0, spanning = [s for s in range(m * k) if s not in pivots], vector(_CONST), []
        # p0 + b_i from the highest free slot down, then p0: the listing's m^j, then 0;
        # built as checked, so a failing round builds no more of them
        points = ([(x + y) % m for x, y in zip(p0, vector(t))] for t in reversed(free))
        for sol in map(tables, itertools.chain(points, [p0])):
            spanning.append(sol)
            check = feq_check(eq, dict(zip(unknowns, sol)), params)
            if not check.ok:
                break
        else:
            break
        w, rank = check.witness, len(pivots)
        tuples = dict.fromkeys(w[:i] + (t,) + w[i + 1:] for i in range(arity) for t in range(m))
    if m ** len(free) > budget:
        raise BudgetError(f"{m}^{len(free)} solutions exceed budget {budget}; "
                          f"raise it with --budget or DERCALC_BUDGET")
    solutions = tuple(map(tables, _span(p0, [vector(t) for t in free], m)))
    if [*(solutions[m ** j] for j in range(len(free))), solutions[0]] != spanning:
        raise FeqError("internal: emitted solution fails re-check: it is not the one checked")
    return solutions, check.skipped


def _span(base: List[int], kernel: List[List[int]], m: int) -> List[List[int]]:
    """Every base + sum of l_i * kernel[i] mod m, in lexicographic order of
    (l_1, ..., l_d) with each l_i in range(m)."""
    points = [base]
    for b in kernel:
        points = [[(x + l * y) % m for x, y in zip(p, b)] for p in points for l in range(m)]
    return points


def _add_row(pivots: Dict[int, Dict[int, int]], row: Dict[int, int], m: int) -> bool:
    """Adds the equation row = 0 to a reduced system; False when the system
    has become inconsistent.  `pivots` maps each pivot slot s to the rest
    of its row, so v_s = -(sum of c * v_t over that rest), the constant
    counting as v_{_CONST} = 1; the rest holds free slots below s only.
    The row may hold zero coefficients, which are skipped; the reduced row
    is normalised once (`_normal`)."""
    reduced: Dict[int, int] = {}
    for s, c in row.items():
        if c:
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
    argument, so do the entries a tuple reads; then the slots are placed in
    carrier order and every tuple is rechecked at every node.  Otherwise
    one pass of the residual at tables that record each read (`_probe`)
    finds the tuples skipped and the entries each reads, in order; one that
    reads none has the same residual on every table, and a nonzero one
    leaves no solution.  A tuple forces a slot where one side is a bare
    read f(arg) of the slot's entry, which the tuple reads nowhere else: as
    arg reads no entry and the left side's lines run first, that read is
    the tuple's first for a bare left side and its last for a bare right
    side.  The slots are placed in forcing-closure order (`_slot_order`).
    A node is one call of the generated step (`_Code`, "values"), which
    places each candidate value at the slot, runs the tuples the slot
    completes and returns the candidates that pass.  The candidates are
    every value, or at a forced slot one: the tuple passes only where the
    entry equals the other side's value; with the entry at 0, the residual
    there is r = -value or value, so -r or r mod m is the one candidate.
    The search lists the solutions in lexicographic order of the slots as
    placed; they are sorted back into carrier order.  The budget bounds
    the entries placed."""
    elems = list(carrier.elements())
    slots = [(f, e) for e in elems for f in unknowns]
    partial: Dict[str, Dict[int, int]] = {f: {} for f in unknowns}
    code = _code(eq, carrier)

    # Static dependency analysis: unless a side is value-dependent, the
    # table entries a pair reads are known up front.
    skipped_pairs = 0
    every = list(itertools.product(elems, repeat=len(eq.variables)))
    # per position, None or (the sign of its entry in lhs - rhs, a tuple that forces it)
    forcing: List[Optional[Tuple[int, tuple]]] = [None] * len(slots)
    if code.degree == _VALUE_DEPENDENT:
        order = list(range(len(slots)))
        tuples_at = [every] * len(slots)
    else:
        zeros, points = _probe(unknowns)
        probe = _residual(eq, carrier, zeros, params)
        # (where in `points` a bare side's read is, its sign), left side first
        bare = [(end, sign) for side, end, sign in ((eq.lhs, 0, 1), (eq.rhs, -1, -1))
                if isinstance(side, Apply)]
        records, readers = [], [[] for _ in slots]  # see `_slot_order`
        solvable = True
        for tup in every:
            points.clear()
            try:
                r = probe(*tup)
            except Inadmissible:  # skipped, whatever the tables hold
                skipped_pairs += 1
                continue
            if not points:
                solvable = solvable and r == 0
                continue
            for s in points:
                readers[s].append(len(records))
            records.append((tup, len(points), [(points[end], sign) for end, sign in bare
                                               if points.count(points[end]) == 1]))
        if not solvable:
            return (), skipped_pairs
        order, tuples_at, forcing = _slot_order(readers, records)

    m = carrier.modulus
    values = code.bind("values", carrier, params, [partial[f] for f in eq.functions],
                       lambda tuples, T, key, candidates: candidates)
    residual = _residual(eq, carrier, partial, params)
    cells = [(partial[f], e) for f, e in slots]
    placing = [cells[s] for s in order]

    def step(k: int) -> List[int]:
        table, key = placing[k]
        if forcing[k] is None:
            return values(tuples_at[k], table, key, range(m))
        sign, tup = forcing[k]
        table[key] = 0
        return values(tuples_at[k], table, key, (-sign * residual(*tup) % m,))

    found = _search(placing, m, step, lambda: tuple(t[e] for t, e in cells), budget)
    n = len(unknowns)
    solutions = tuple(tuple(FnTable(carrier, dict(zip(elems, entries[i::n]))) for i in range(n))
                      for entries in sorted(found))
    return solutions, skipped_pairs


def _slot_order(readers: Sequence[Sequence[int]],
                records: Sequence[Tuple[object, int, Sequence[Tuple[int, int]]]]
                ) -> Tuple[List[int], List[list], List[Optional[Tuple[int, object]]]]:
    """(order, filed, forcing): the order in which the search places the
    slots of `readers`, and at each position k of it the items of the
    records whose last slot read is placed at k, in the records' order, and
    None or (sign, item) of the first of them that forces the slot placed
    at k.

    A record is (item, reads, forces): an item the search checks, the
    number of slots it reads, and the (slot, sign) of each slot it forces,
    one it reads as a bare side and nowhere else (`_backtrack`); readers[s]
    lists the records that read slot s, once per read, filed where they are
    made.  Once every other slot such a record reads is placed, only one
    value can pass at the forced slot.  The order is the forcing closure:
    the least forced slot while there is one, else the least unplaced slot,
    so a slot a placed slot fixes comes next, not in carrier order.  Each
    slot is queued once (a heap), and each record is passed once per read."""
    left = [reads for _, reads, _ in records]  # per record, its reads of slots unplaced
    state = [0] * len(readers)  # 0 unplaced, 1 queued, 2 placed
    heap: List[int] = []

    def queue(forces) -> None:
        # with one read left, a slot it forces is the one still unplaced
        for t, _ in forces:
            if not state[t]:
                state[t] = 1
                heapq.heappush(heap, t)

    for (_, _, forces), count in zip(records, left):
        if count == 1:
            queue(forces)
    order: List[int] = []
    filed: List[list] = []
    forcing: List[Optional[Tuple[int, object]]] = []
    least = 0
    for _ in readers:
        if heap:
            s = heapq.heappop(heap)
        else:
            while state[least]:
                least += 1
            s = least
        state[s] = 2
        order.append(s)
        here: list = []
        force = None
        for i in readers[s]:
            left[i] -= 1
            if left[i] == 1:
                queue(records[i][2])
            elif not left[i]:
                item, _, forces = records[i]
                here.append(item)
                if force is None:
                    force = next(((sign, item) for t, sign in forces if t == s), None)
        filed.append(here)
        forcing.append(force)
    return order, filed, forcing


def _search(slots: Sequence[Tuple[Dict[int, int], int]], n: int,
            values: Callable[[int], Iterable[int]], record: Callable[[], object],
            budget: int) -> tuple:
    """The one table search: every filling of `slots`, each a (table, key)
    pair, with values in range(n), in lexicographic order of the slots as
    given, as `record()` returns it at the leaf; a caller that places them
    out of carrier order sorts the fillings back.  `values(k)` returns the
    values that pass at slot k, ascending, given everything slot k
    completes; the search goes on below each of them.  It may try only the
    values that can pass, such as the one a forcing tuple leaves
    (`_backtrack`), and the search is the same: each of the n values
    counts as placed, in order, whether it was tried or not, so BudgetError
    is raised at the placement where more than `budget` entries have been
    placed; its message counts the entries placed and the nodes visited."""
    solutions: List[object] = []
    placed = visited = 0

    def place(count: int) -> None:
        # `count` more placements; the first over the budget raises, counted
        nonlocal placed
        if placed + count > budget:
            raise BudgetError(
                f"search over budget {budget}: {max(placed + 1, budget + 1)} table entries "
                f"placed, {visited} nodes visited; raise it with --budget or DERCALC_BUDGET")
        placed += count

    def assign(k: int) -> None:
        nonlocal visited
        visited += 1
        if k == len(slots):  # the last placement checked everything that reads it
            solutions.append(record())
            return
        table, key = slots[k]
        last = -1
        for v in values(k):
            place(v - last)
            last = v
            table[key] = v
            assign(k + 1)
        place(n - 1 - last)
        table.pop(key, None)

    assign(0)
    return tuple(solutions)


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
    entries it places.  As in `_backtrack`, a pair x, y forces the slot of
    x*y, unless x*y is x or y: once x and y are placed, only table[x] +
    table[y] mod |U| can pass there, so that is the one value tried.  The
    units are placed in forcing-closure order (`_slot_order`), so a
    product of placed units comes right after them, and the solutions are
    sorted back into lexicographic order of the units, each a dict keyed
    in the units' order."""
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
    # It forces x*y unless x*y is x or y.
    records, readers = [], [[] for _ in units]  # see `_slot_order`
    for x, y in itertools.combinations_with_replacement(units, 2):
        xy = x * y % m
        for s in (slot[x], slot[y], slot[xy]):
            readers[s].append(len(records))
        records.append(((x, y, xy), 3, () if xy in (x, y) else ((slot[xy], 1),)))
    order, pairs_at, forcing = _slot_order(readers, records)
    placing = [units[s] for s in order]
    table: Dict[int, int] = {}

    def values(k: int) -> List[int]:
        force = forcing[k]  # None or (1, (x, y, x*y))
        passing = []
        for v in ((table[force[1][0]] + table[force[1][1]]) % n,) if force else range(n):
            table[placing[k]] = v
            for x, y, xy in pairs_at[k]:
                if table[xy] != (table[x] + table[y]) % n:
                    break
            else:
                passing.append(v)
        return passing

    found = _search([(table, u) for u in placing], n, values,
                    lambda: tuple(table[u] for u in units), budget)
    solutions = tuple(dict(zip(units, entries)) for entries in sorted(found))
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
