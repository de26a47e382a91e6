"""Symmetric multiadditive maps over Q^dim as coefficient tensors.

A k-additive symmetric map is stored by its values on sorted basis index
tuples; the diagonal A*(x) = A(x, ..., x) is a degree-k form, iterated
forward differences polarize the diagonal back to the full map, and a
black-box polynomial function splits into its homogeneous components by
top-down difference extraction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product
from typing import Callable, Dict, List, Sequence, Tuple

from .exact import rational

Vector = Tuple[Fraction, ...]


class MultiAddError(Exception):
    """Invalid tensor data or mismatched dimensions."""


class NotPolynomialError(MultiAddError):
    """Recovery residual is nonzero; carries the witness point."""

    def __init__(self, point: Vector, expected: Fraction, got: Fraction):
        self.point = point
        self.expected = expected
        self.got = got
        super().__init__(
            f"nonzero residual at {tuple(map(str, point))}: function value "
            f"{expected} but recovered components give {got}; the input is "
            f"not a polynomial function of the claimed degree"
        )


def as_vector(x, dim: int) -> Vector:
    """Coerce a scalar (dim 1) or sequence to an exact coordinate tuple."""
    if isinstance(x, (int, Fraction)) or isinstance(x, str):
        x = (x,)
    vec = tuple(rational(c) for c in x)
    if len(vec) != dim:
        raise MultiAddError(f"vector has {len(vec)} coordinates, expected {dim}")
    return vec


def vec_add(x: Vector, y: Vector) -> Vector:
    return tuple(a + b for a, b in zip(x, y))


class SymMultiMap:
    """Symmetric k-additive map on Q^dim; coefficients live on sorted index
    tuples and stand for every permutation of the tuple."""

    __slots__ = ("arity", "dim", "coeffs")

    def __init__(self, arity: int, dim: int, coeffs: Dict[Tuple[int, ...], object]):
        if arity < 0:
            raise MultiAddError("arity must be nonnegative")
        if dim < 1:
            raise MultiAddError("dimension must be positive")
        self.arity = arity
        self.dim = dim
        canon: Dict[Tuple[int, ...], Fraction] = {}
        for idx, value in coeffs.items():
            idx = tuple(idx)
            if len(idx) != arity:
                raise MultiAddError(f"index {idx} has length {len(idx)}, expected {arity}")
            if any(not 0 <= i < dim for i in idx):
                raise MultiAddError(f"index {idx} out of range for dimension {dim}")
            key = tuple(sorted(idx))
            v = rational(value)
            if key in canon and canon[key] != v:
                raise MultiAddError(f"conflicting values for symmetric index {key}")
            canon[key] = v
        self.coeffs = {k: v for k, v in canon.items() if v != 0}

    @classmethod
    def constant(cls, dim: int, value) -> "SymMultiMap":
        return cls(0, dim, {(): rational(value)})

    @classmethod
    def zero(cls, arity: int, dim: int) -> "SymMultiMap":
        return cls(arity, dim, {})

    def coefficient(self, idx: Sequence[int]) -> Fraction:
        return self.coeffs.get(tuple(sorted(idx)), Fraction(0))

    def apply(self, args: Sequence) -> Fraction:
        """Full multilinear evaluation A(y_1, ..., y_k)."""
        if len(args) != self.arity:
            raise MultiAddError(f"expected {self.arity} arguments, got {len(args)}")
        vecs = [as_vector(a, self.dim) for a in args]
        if self.arity == 0:
            return self.coeffs.get((), Fraction(0))
        total = Fraction(0)
        for idx in product(range(self.dim), repeat=self.arity):
            c = self.coefficient(idx)
            if c == 0:
                continue
            term = c
            for vec, i in zip(vecs, idx):
                term *= vec[i]
            total += term
        return total

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymMultiMap):
            return NotImplemented
        return (
            self.arity == other.arity
            and self.dim == other.dim
            and self.coeffs == other.coeffs
        )

    def __str__(self) -> str:
        if not self.coeffs:
            return f"SymMultiMap(arity={self.arity}, dim={self.dim}, 0)"
        inner = ", ".join(
            f"{idx}: {v}" for idx, v in sorted(self.coeffs.items())
        )
        return f"SymMultiMap(arity={self.arity}, dim={self.dim}, {inner})"

    def serialize(self) -> List[str]:
        """Sorted "(i1,...,ik) value" lines."""
        out = []
        for idx, v in sorted(self.coeffs.items()):
            key = "(" + ",".join(str(i) for i in idx) + ")"
            out.append(f"{key} {v}")
        return out


def trace(A: SymMultiMap, x) -> Fraction:
    """Diagonal A*(x) = A(x, ..., x)."""
    vec = as_vector(x, A.dim)
    return A.apply([vec] * A.arity)


def delta(f: Callable[[Vector], Fraction], ys: Sequence, x) -> Fraction:
    """Iterated forward difference (Delta_{y_1} ... Delta_{y_m} f)(x)
    with Delta_y f(x) = f(x+y) - f(x)."""
    if not ys:
        raise MultiAddError("delta needs at least one increment")
    dim = len(ys[0]) if not isinstance(ys[0], (int, Fraction, str)) else 1
    vecs = [as_vector(y, dim) for y in ys]
    base = as_vector(x, dim)
    total = Fraction(0)
    m = len(vecs)
    for mask in range(1 << m):
        point = base
        bits = 0
        for i in range(m):
            if mask >> i & 1:
                point = vec_add(point, vecs[i])
                bits += 1
        sign = 1 if (m - bits) % 2 == 0 else -1
        total += sign * rational(f(point))
    return total


@dataclass(frozen=True)
class PolarizationReport:
    ok: bool
    arity: int
    m: int
    lhs: Fraction
    rhs: Fraction


def polarization_check(A: SymMultiMap, ys: Sequence, x) -> PolarizationReport:
    """Delta_{y_1..y_m} A*(x) is 0 for m > arity and arity! * A(y_1..y_m)
    for m = arity (independent of x)."""
    m = len(ys)
    n = A.arity
    if m < n:
        raise MultiAddError("polarization statement needs at least arity increments")
    lhs = delta(lambda v: trace(A, v), ys, x)
    if m > n:
        rhs = Fraction(0)
    else:
        rhs = math.factorial(n) * A.apply(list(ys))
    return PolarizationReport(lhs == rhs, n, m, lhs, rhs)


@dataclass(frozen=True)
class BinomialReport:
    ok: bool
    lhs: Fraction
    rhs: Fraction


def binomial_check(A: SymMultiMap, x, y) -> BinomialReport:
    """A*(x+y) = sum_k C(n,k) A([x]_k, [y]_{n-k})."""
    xv = as_vector(x, A.dim)
    yv = as_vector(y, A.dim)
    lhs = trace(A, vec_add(xv, yv))
    n = A.arity
    rhs = Fraction(0)
    for k in range(n + 1):
        rhs += math.comb(n, k) * A.apply([xv] * k + [yv] * (n - k))
    return BinomialReport(lhs == rhs, lhs, rhs)


class PolyFunction:
    """Sum of diagonals p(x) = A_0 + A_1*(x) + ... + A_n*(x) over one dim."""

    __slots__ = ("components",)

    def __init__(self, components: Sequence[SymMultiMap]):
        comps = list(components)
        if not comps:
            raise MultiAddError("a polynomial function needs at least the constant part")
        dim = comps[0].dim
        for k, A in enumerate(comps):
            if A.arity != k:
                raise MultiAddError(f"component {k} has arity {A.arity}")
            if A.dim != dim:
                raise MultiAddError("components must share one dimension")
        self.components = tuple(comps)

    @property
    def dim(self) -> int:
        return self.components[0].dim

    @property
    def degree(self) -> int:
        return len(self.components) - 1

    def __call__(self, x) -> Fraction:
        vec = as_vector(x, self.dim)
        return sum((trace(A, vec) for A in self.components), Fraction(0))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyFunction):
            return NotImplemented
        return self.components == other.components

    def __str__(self) -> str:
        return "PolyFunction[" + "; ".join(str(A) for A in self.components) + "]"


def _basis(dim: int) -> List[Vector]:
    return [
        tuple(Fraction(1 if j == i else 0) for j in range(dim)) for i in range(dim)
    ]


def recover_components(p: Callable[[Vector], Fraction], n: int, dim: int) -> PolyFunction:
    """Split a black-box polynomial function of degree <= n into components.

    p is tabulated once on the simplex {x in N^dim : |x| <= n}, as the
    differences of degree n first read its points; they read every one.
    The top tensor is read off at the base point 0 by the polarization
    formula, A_n(e_{i_1},...,e_{i_n}) = Delta_{e_{i_1}..e_{i_n}} p(0) / n!,
    its diagonal is subtracted from the table, and the process repeats a
    degree lower; what is left at 0 is the constant.  The recovered sum is
    re-evaluated against p on the integer grid [-2, 2]^dim and any mismatch
    raises."""
    if n < 0:
        raise MultiAddError("degree bound must be nonnegative")
    if dim < 1:  # refused before p is called, whatever the degree
        raise MultiAddError("dimension must be positive")
    basis = _basis(dim)
    zero = tuple(Fraction(0) for _ in range(dim))
    table: Dict[Vector, Fraction] = {}

    def rem(point: Vector) -> Fraction:
        if point not in table:
            table[point] = rational(p(point))
        return table[point]

    parts: List[SymMultiMap] = []
    for k in range(n, 0, -1):
        coeffs: Dict[Tuple[int, ...], Fraction] = {}
        for idx in combinations_with_replacement(range(dim), k):
            value = delta(rem, [basis[i] for i in idx], zero)
            coeffs[idx] = value / math.factorial(k)
        A = SymMultiMap(k, dim, coeffs)
        parts.append(A)
        for point in table:
            table[point] -= trace(A, point)
    parts.append(SymMultiMap.constant(dim, rem(zero)))
    pf = PolyFunction(list(reversed(parts)))
    for coords in product(range(-2, 3), repeat=dim):
        point = tuple(Fraction(c) for c in coords)
        expected = rational(p(point))
        got = pf(point)
        if expected != got:
            raise NotPolynomialError(point, expected, got)
    return pf
