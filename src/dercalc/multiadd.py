"""Symmetric multiadditive maps over Q^dim as coefficient tensors.

A k-additive symmetric map is stored by its values on sorted basis index
tuples; the diagonal A*(x) = A(x, ..., x) is a degree-k form, and iterated
forward differences polarize the diagonal back to the full map.  A
black-box polynomial function of degree <= n splits into its homogeneous
components from one table of its values on the simplex |x| <= n: mixed
Newton differences give its coefficients in the binomial basis, Stirling
numbers of the first kind turn them into monomials, and the monomials into
symmetric tensors.  The result is re-checked against the function on the
grid [-2, 2]^dim in integer arithmetic, and a degree and dimension whose
work exceeds DERCALC_BUDGET are refused before the function is called.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Dict, List, Sequence, Tuple

from .exact import DercalcError, bound_recovery, rational

Vector = Tuple[Fraction, ...]


class MultiAddError(DercalcError):
    """Invalid tensor data or mismatched dimensions."""


class NotPolynomialError(MultiAddError):
    """Recovery residual is nonzero; carries the witness point."""

    exit_code = 1

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


def _simplex(n: int, dim: int) -> List[Tuple[int, ...]]:
    """The points of {x in N^dim : |x| <= n} in lexicographic order."""
    if dim == 0:
        return [()]
    return [(a,) + rest for a in range(n + 1) for rest in _simplex(n - a, dim - 1)]


def _differences(v: List[int]) -> List[int]:
    """Newton's forward differences Delta^a v(0) of values at 0, 1, ...:
    the coefficients of their interpolant in the basis C(x, a)."""
    v = list(v)
    for level in range(1, len(v)):
        for a in range(len(v) - 1, level - 1, -1):
            v[a] -= v[a - 1]
    return v


def _expand(v: List[int], scale: int) -> List[int]:
    """The monomial coefficients, times `scale`, of sum_a v[a] C(x, a):
    Horner's rule on the falling factorials x(x-1)...(x-a+1) = a! C(x, a),
    which runs the Stirling numbers of the first kind.  `scale` is a
    multiple of (len(v) - 1)!, so the results are integers."""
    coeffs: List[int] = []
    weight = scale // math.factorial(len(v) - 1)  # scale / a!
    for a in range(len(v) - 1, -1, -1):
        # coeffs <- coeffs * (x - a) + v[a] * scale / a!
        coeffs = [0] + coeffs
        for j in range(len(coeffs) - 1):
            coeffs[j] -= a * coeffs[j + 1]
        coeffs[0] += v[a] * weight
        weight *= a
    return coeffs


def check_recovery(n: int, dim: int) -> None:
    """Refuses a degree and dimension that `recover_components` would
    refuse before calling its function: a negative degree, a dimension
    below 1, or work over the budget (`exact.bound_recovery`)."""
    if n < 0:
        raise MultiAddError("degree bound must be nonnegative")
    if dim < 1:  # refused whatever the degree
        raise MultiAddError("dimension must be positive")
    bound_recovery(n, dim)


def recover_components(p: Callable[[Vector], Fraction], n: int, dim: int) -> PolyFunction:
    """Split a black-box polynomial function of degree <= n into components.

    Before p is called, `check_recovery` refuses a degree and dimension
    whose evaluations times monomials exceed the budget.  p is
    called once on each point of the simplex {x in N^dim : |x| <= n}, and
    the table's denominators are cleared once, so the rest runs on
    integers.  Newton's forward differences, taken along every line of
    every axis in turn, leave the mixed differences Delta^a p(0) at each
    a in the simplex: the coefficients of the one polynomial of degree
    <= n through the table in the basis prod_i C(x_i, a_i).  Expanding the
    binomials along every axis in turn (Stirling numbers of the first
    kind) leaves its monomial coefficients.  A degree-k coefficient c_b of
    x^b becomes the symmetric tensor entry c_b * b!/k! on b's sorted index.
    The recovered sum is evaluated on the grid [-2, 2]^dim from the
    monomials and compared with p there in `product` order, the table's
    values standing in for p where the two meet; the first mismatch raises
    `NotPolynomialError`."""
    check_recovery(n, dim)
    values = {x: rational(p(tuple(map(Fraction, x)))) for x in _simplex(n, dim)}
    clear = math.lcm(*(v.denominator for v in values.values()))
    table = {x: v.numerator * (clear // v.denominator) for x, v in values.items()}
    scale = math.factorial(n)
    for transform in (_differences, lambda v: _expand(v, scale)):
        for axis in range(dim):
            for x in list(table):
                if x[axis] == 0:
                    line = [x[:axis] + (a,) + x[axis + 1:] for a in range(n - sum(x) + 1)]
                    table.update(zip(line, transform([table[y] for y in line])))
    denominator = clear * scale ** dim  # a monomial coefficient is table[b] / denominator

    parts = [{} for _ in range(n + 1)]
    for b, c in table.items():
        if c:
            k = sum(b)
            index = tuple(i for i, e in enumerate(b) for _ in range(e))
            weight = math.prod(map(math.factorial, b))
            parts[k][index] = Fraction(c * weight, denominator * math.factorial(k))
    pf = PolyFunction([SymMultiMap(k, dim, coeffs) for k, coeffs in enumerate(parts)])

    # The values on the grid, times `denominator`, axis by axis: each
    # exponent of the axis gives way to a coordinate in -2..2.
    powers = {x: [x ** e for e in range(n + 1)] for x in range(-2, 3)}
    grid = {b: c for b, c in table.items() if c}
    for axis in range(dim):
        collapsed: Dict[Tuple[int, ...], int] = {}
        for b, c in grid.items():
            for x, power in powers.items():
                key = b[:axis] + (x,) + b[axis + 1:]
                collapsed[key] = collapsed.get(key, 0) + c * power[b[axis]]
        grid = collapsed
    for coords in product(range(-2, 3), repeat=dim):
        point = tuple(map(Fraction, coords))
        expected = values[coords] if coords in values else rational(p(point))
        got = grid.get(coords, 0)
        if expected.numerator * denominator != got * expected.denominator:
            raise NotPolynomialError(point, expected, Fraction(got, denominator))
    return pf
