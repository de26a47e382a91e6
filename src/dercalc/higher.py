"""Higher-order derivation systems on polynomial rings.

A system d_0 = id, d_1, ..., d_n obeys the twisted product rule

    d_k(xy) = sum_{i=0}^{k} Gamma(i, k-i) d_i(x) d_{k-i}(y)

for a symmetric weight table Gamma on {(i,j) : i,j >= 0, i+j <= n} with
Gamma(i,j) = 1 whenever i*j = 0.  Such a system exists exactly when Gamma
satisfies the cocycle condition

    Gamma(i+j,k) Gamma(i,j) = Gamma(i,j+k) Gamma(j,k)

on all admissible triples, and a nowhere-zero table passes exactly when it
factors as Gamma(i,j) = gamma(i+j)/(gamma(i) gamma(j)).  The factorials give
the binomial table, whose systems are rescalings of derivation iterates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .exact import BudgetError, DercalcError, MultiPoly, default_budget, rational


class GammaError(DercalcError):
    """Invalid weight table or factorization failure."""


class CocycleConditionError(GammaError):
    """The weight table fails the cocycle condition; carries one witness."""

    exit_code = 1

    def __init__(self, triple: Tuple[int, int, int], lhs: Fraction, rhs: Fraction):
        self.triple = triple
        self.lhs = lhs
        self.rhs = rhs
        i, j, k = triple
        super().__init__(
            f"cocycle condition fails at (i,j,k)=({i},{j},{k}): "
            f"G(i+j,k)*G(i,j) = {lhs} but G(i,j+k)*G(j,k) = {rhs}"
        )


class GammaTable:
    """Symmetric weight table on the triangle i+j <= n, fixed to 1 on the
    axes.  Entries are exact rationals."""

    __slots__ = ("order", "entries")

    def __init__(self, order: int, entries: Dict[Tuple[int, int], Fraction]):
        if order < 1:
            raise GammaError("table order must be at least 1")
        self.order = order
        full: Dict[Tuple[int, int], Fraction] = {}
        for i in range(order + 1):
            for j in range(order + 1 - i):
                if i == 0 or j == 0:
                    full[(i, j)] = Fraction(1)
        for (i, j), value in entries.items():
            if i < 0 or j < 0 or i + j > order:
                raise GammaError(f"entry ({i},{j}) outside the order-{order} triangle")
            v = rational(value)
            if i == 0 or j == 0:
                if v != 1:
                    raise GammaError(f"axis entry ({i},{j}) must be 1")
                continue
            if (j, i) in full and full[(j, i)] != v:
                raise GammaError(f"asymmetric entries at ({i},{j})/({j},{i})")
            full[(i, j)] = v
            full[(j, i)] = v
        for i in range(1, order):
            for j in range(1, order + 1 - i):
                if (i, j) not in full:
                    raise GammaError(f"missing entry ({i},{j})")
        self.entries = full

    @classmethod
    def binomial(cls, order: int) -> "GammaTable":
        entries = {
            (i, j): Fraction(math.comb(i + j, i))
            for i in range(1, order)
            for j in range(1, order + 1 - i)
        }
        return cls(order, entries)

    @classmethod
    def ones(cls, order: int) -> "GammaTable":
        entries = {
            (i, j): Fraction(1)
            for i in range(1, order)
            for j in range(1, order + 1 - i)
        }
        return cls(order, entries)

    def __call__(self, i: int, j: int) -> Fraction:
        try:
            return self.entries[(i, j)]
        except KeyError:
            raise GammaError(
                f"entry ({i},{j}) outside the order-{self.order} triangle"
            ) from None

    def restricted_to(self, order: int) -> "GammaTable":
        if order > self.order:
            raise GammaError("cannot restrict to a larger order")
        sub = {
            (i, j): v
            for (i, j), v in self.entries.items()
            if i >= 1 and j >= 1 and i + j <= order
        }
        return GammaTable(order, sub)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GammaTable):
            return NotImplemented
        return self.order == other.order and self.entries == other.entries

    def __str__(self) -> str:
        inner = ", ".join(
            f"G({i},{j})={v}"
            for (i, j), v in sorted(self.entries.items())
            if 1 <= i <= j
        )
        return f"GammaTable(order={self.order}, {inner})"


@dataclass(frozen=True)
class GammaCheckReport:
    ok: bool
    violations: Tuple[Tuple[int, int, int, Fraction, Fraction], ...]

    def first_triple(self) -> Optional[Tuple[int, int, int]]:
        return self.violations[0][:3] if self.violations else None


def gamma_check(table: GammaTable) -> GammaCheckReport:
    """Check the cocycle condition on every admissible triple, in
    lexicographic order; vacuous below order 4 by the axis normalization."""
    violations = []
    n = table.order
    for i in range(n + 1):
        for j in range(n + 1 - i):
            for k in range(n + 1 - i - j):
                lhs = table(i + j, k) * table(i, j)
                rhs = table(i, j + k) * table(j, k)
                if lhs != rhs:
                    violations.append((i, j, k, lhs, rhs))
    return GammaCheckReport(not violations, tuple(violations))


def _require_cocycle_condition(table: GammaTable) -> None:
    """Raise CocycleConditionError at the first triple gamma_check rejects."""
    report = gamma_check(table)
    if not report.ok:
        i, j, k, lhs, rhs = report.violations[0]
        raise CocycleConditionError((i, j, k), lhs, rhs)


@dataclass(frozen=True)
class GammaFactor:
    """gamma(0..n) with gamma(0) = gamma(1) = 1 and no zero values."""

    values: Tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.values) < 2 or self.values[0] != 1 or self.values[1] != 1:
            raise GammaError("factor sequence must start 1, 1")
        if any(v == 0 for v in self.values):
            raise GammaError("factor sequence must be nowhere zero")

    @property
    def order(self) -> int:
        return len(self.values) - 1

    def __str__(self) -> str:
        return "gamma = (" + ", ".join(str(v) for v in self.values) + ")"


def gamma_factor(table: GammaTable) -> GammaFactor:
    """Factor a nowhere-zero cocycle table as gamma(i+j)/(gamma(i) gamma(j)).

    gamma(k) is the product of Gamma(l, 1) for l < k; the reconstruction is
    re-verified entry by entry and any mismatch is an error."""
    for (i, j), v in table.entries.items():
        if v == 0:
            raise GammaError(f"zero entry at ({i},{j}); factorization needs nowhere-zero tables")
    _require_cocycle_condition(table)
    values = [Fraction(1), Fraction(1)]
    for k in range(2, table.order + 1):
        values.append(values[-1] * table(k - 1, 1))
    factor = GammaFactor(tuple(values))
    for (i, j), v in table.entries.items():
        if v != values[i + j] / (values[i] * values[j]):
            raise GammaError(
                f"reconstruction mismatch at ({i},{j}): table has {v}, "
                f"factorization gives {values[i + j] / (values[i] * values[j])}"
            )
    return factor


def gamma_from_factor(factor: GammaFactor, order: Optional[int] = None) -> GammaTable:
    """Table Gamma(i,j) = gamma(i+j)/(gamma(i) gamma(j)); passes the cocycle
    check by construction (verified anyway)."""
    order = factor.order if order is None else order
    if order > factor.order:
        raise GammaError("factor sequence too short for requested order")
    vals = factor.values
    entries = {
        (i, j): vals[i + j] / (vals[i] * vals[j])
        for i in range(1, order)
        for j in range(1, order + 1 - i)
    }
    table = GammaTable(order, entries)
    _require_cocycle_condition(table)
    return table


class HigherDerivation:
    """System (d_0 = id, d_1, ..., d_n) on Q[t_1, ..., t_m], stored by the
    weight table and the generator values d_k(t_j).

    Monomial evaluation peels one occurrence of the lowest-index variable and
    applies the twisted product rule; the cocycle condition makes the result
    independent of the peeling order."""

    __slots__ = ("gamma", "variables", "values", "_memo")

    def __init__(
        self,
        gamma: GammaTable,
        variables: Sequence[str],
        values: Dict[Tuple[int, str], MultiPoly],
    ):
        self.gamma = gamma
        self.variables = tuple(variables)
        for i, v in enumerate(self.variables):
            if not v.isidentifier():
                raise GammaError(f"variable name {v!r} is not an identifier")
            if v in self.variables[:i]:
                raise GammaError(f"duplicate variable name {v!r}")
        self.values: Dict[Tuple[int, str], MultiPoly] = {}
        zero = MultiPoly.const(self.variables, 0)
        for k in range(1, gamma.order + 1):
            for v in self.variables:
                self.values[(k, v)] = zero
        for (k, v), poly in values.items():
            if v not in self.variables:
                raise GammaError(f"value for undeclared variable {v!r}")
            if not 1 <= k <= gamma.order:
                raise GammaError(f"value order {k} outside 1..{gamma.order}")
            if not isinstance(poly, MultiPoly):
                poly = MultiPoly.const(self.variables, poly)
            if poly.variables != self.variables:
                raise GammaError("generator value declared over different variables")
            self.values[(k, v)] = poly
        self._memo: Dict[Tuple[int, Tuple[int, ...]], MultiPoly] = {}

    @property
    def order(self) -> int:
        return self.gamma.order

    def _gen_value(self, k: int, index: int) -> MultiPoly:
        if k == 0:
            return MultiPoly.var(self.variables, self.variables[index])
        return self.values[(k, self.variables[index])]

    def _known(self, k: int, exps: Tuple[int, ...]) -> Optional[MultiPoly]:
        """d_k of the monomial with exponent vector `exps` if it needs no
        peeling or is memoized, else None."""
        if k == 0:
            return MultiPoly(self.variables, {exps: Fraction(1)})
        if all(e == 0 for e in exps):
            return MultiPoly.const(self.variables, 0)
        return self._memo.get((k, exps))

    def _monomial(self, k: int, exps: Tuple[int, ...]) -> MultiPoly:
        """d_k of a monomial.  Peeling needs d_{k-i} of the rest for each i
        whose weight and d_i value are nonzero; those are memoized first,
        from an explicit stack, so a high degree does not recurse."""
        todo = [(k, exps)]
        while todo:
            j, top = todo[-1]
            if self._known(j, top) is not None:
                todo.pop()
                continue
            idx = next(i for i, e in enumerate(top) if e > 0)
            rest = tuple(e - 1 if i == idx else e for i, e in enumerate(top))
            parts = []  # (weight, d_i of the peeled variable, d_{j-i} of the rest)
            for i in range(j + 1):
                weight, left = self.gamma(i, j - i), self._gen_value(i, idx)
                if weight != 0 and not left.is_zero():
                    parts.append((weight, left, self._known(j - i, rest)))
                    if parts[-1][2] is None:
                        todo.append((j - i, rest))
            if todo[-1] == (j, top):  # every part is known
                total = MultiPoly.const(self.variables, 0)
                for weight, left, right in parts:
                    if not right.is_zero():
                        total = total + weight * left * right
                self._memo[todo.pop()] = total
        return self._known(k, exps)

    def eval(self, k: int, p: MultiPoly) -> MultiPoly:
        """d_k(p) by Q-linear extension of the monomial recursion."""
        if not 0 <= k <= self.order:
            raise GammaError(f"order {k} outside 0..{self.order}")
        if p.variables != self.variables:
            raise GammaError("polynomial declared over different variables")
        # Peeling a monomial of degree n memoizes up to k * n values.
        degree, budget = p.total_degree(), default_budget()
        if k * degree > budget:
            raise BudgetError(f"d_{k} of a polynomial of degree {degree} exceeds "
                              f"budget {budget}; raise it with DERCALC_BUDGET")
        total = MultiPoly.const(self.variables, 0)
        for exps, coeff in p.terms.items():
            total = total + coeff * self._monomial(k, exps)
        return total


def hod_define(
    gamma: GammaTable,
    variables: Sequence[str],
    values: Dict[Tuple[int, str], MultiPoly],
) -> HigherDerivation:
    """Build a system after checking the weight table; unset generator
    values default to zero."""
    _require_cocycle_condition(gamma)
    return HigherDerivation(gamma, variables, values)


def hod_eval(hd: HigherDerivation, k: int, p: MultiPoly) -> MultiPoly:
    return hd.eval(k, p)


def hod_leibniz_residual(
    hd: HigherDerivation, k: int, p: MultiPoly, q: MultiPoly
) -> MultiPoly:
    """d_k(pq) - sum_i Gamma(i, k-i) d_i(p) d_{k-i}(q); zero for a system."""
    if not 0 <= k <= hd.order:
        raise GammaError(f"order {k} outside 0..{hd.order}")
    total = hd.eval(k, p * q)
    for i in range(k + 1):
        total = total - hd.gamma(i, k - i) * hd.eval(i, p) * hd.eval(k - i, q)
    return total


def _monomials_up_to(variables: Tuple[str, ...], degree: int) -> List[MultiPoly]:
    out = []

    def rec(prefix: List[int], remaining: int, budget: int):
        if remaining == 0:
            out.append(MultiPoly(variables, {tuple(prefix): Fraction(1)}))
            return
        for e in range(budget + 1):
            rec(prefix + [e], remaining - 1, budget - e)

    rec([], len(variables), degree)
    return out


def hod_construct_next(
    hd: HigherDerivation,
    gamma_next: GammaTable,
    choice: Optional[Dict[str, MultiPoly]] = None,
    grid_degree: int = 6,
) -> HigherDerivation:
    """Extend an order n-1 system to order n.

    gamma_next must extend the old table to the larger triangle and still
    pass the cocycle check.  The new top map is determined up to the free
    additive part fixed by `choice` (the values d_n(t_j), default 0); the
    product rule at order n is verified on a monomial grid before returning.
    """
    if grid_degree < 0:
        raise GammaError(f"grid degree must be nonnegative, got {grid_degree}")
    n = hd.order + 1
    if gamma_next.order != n:
        raise GammaError(f"extension table must have order {n}")
    if gamma_next.restricted_to(hd.order) != hd.gamma:
        raise GammaError("extension table does not restrict to the current table")
    _require_cocycle_condition(gamma_next)
    values = dict(hd.values)
    choice = choice or {}
    for v, poly in choice.items():
        if v not in hd.variables:
            raise GammaError(f"choice for undeclared variable {v!r}")
        if not isinstance(poly, MultiPoly):
            poly = MultiPoly.const(hd.variables, poly)
        values[(n, v)] = poly
    extended = HigherDerivation(gamma_next, hd.variables, values)
    grid = _monomials_up_to(hd.variables, grid_degree)
    for p in grid:
        for q in grid:
            if p.total_degree() + q.total_degree() > grid_degree:
                continue
            residual = hod_leibniz_residual(extended, n, p, q)
            if not residual.is_zero():
                raise GammaError(
                    f"constructed top map violates the product rule at "
                    f"({p}, {q}); residual {residual}"
                )
    return extended
