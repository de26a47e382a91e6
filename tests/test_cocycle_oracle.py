"""The cocycle checks against the closure evaluator they replaced.

The reference below is the evaluator the cocycle module used before its
axioms and conditions became feq equations: hand-written sides over the
maps, each call range-checked on a window, the sides reduced modulo the
carrier after the tuple loop.  The generated sides must give the same
status, witness, lhs, rhs and counts, exhaustively and on samples, on
prime fields, composite moduli and windows, with tables that miss entries
and arguments that leave the window."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from dercalc.cocycle import (
    Cocycle2,
    NotACoboundaryError,
    NotACocycleError,
    PAIR_AXIOMS,
    _sampled_tuples,
    cocycle_primitive,
    cocycle_verify,
    leibniz_coboundary_check,
)
from dercalc.exact import FiniteCarrier, Inadmissible, IntegerWindow, gf, zmod
from dercalc.feq import _INADMISSIBLE

# -- the reference ----------------------------------------------------------


def ops(carrier):
    if isinstance(carrier, FiniteCarrier):
        m = carrier.modulus
        return (lambda a, b: (a + b) % m), (lambda a, b: a * b % m)
    return (lambda a, b: a + b), (lambda a, b: a * b)


def checked_map(carrier, table):
    """A dict table as a map that skips arguments outside a window."""

    def call(a, b):
        if isinstance(carrier, IntegerWindow):
            if not (carrier.contains(a) and carrier.contains(b)):
                raise Inadmissible
        return table[(a, b)]

    return call


def bare_map(table):
    return lambda a, b: table[(a, b)]


def axiom_sides(axiom, F, G, add, mul):
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
    raise ValueError(axiom)


def coboundary_sides(name, D, add, mul):
    if name == "symmetry":
        return (lambda x, y: D(x, y)), (lambda x, y: D(y, x))
    if name == "associator":
        return (
            lambda x, y, z: D(mul(x, y), z) + z * D(x, y),
            lambda x, y, z: D(x, mul(y, z)) + x * D(y, z),
        )
    return (lambda x, y, z: D(add(x, y), z)), (lambda x, y, z: D(x, z) + D(y, z))


def reference_result(lhs_fn, rhs_fn, tuples, carrier):
    modulus = carrier.modulus if isinstance(carrier, FiniteCarrier) else 0
    checked = skipped = 0
    for tup in tuples:
        try:
            lhs, rhs = lhs_fn(*tup), rhs_fn(*tup)
        except _INADMISSIBLE:
            skipped += 1
            continue
        checked += 1
        if modulus:
            lhs, rhs = lhs % modulus, rhs % modulus
        if lhs != rhs:
            return ("fail", tup, lhs, rhs, checked, skipped)
    return ("pass", None, None, None, checked, skipped)


def reference_verify(carrier, F, G, axioms, mode, sample, seed):
    add, mul = ops(carrier)
    elems = list(carrier.elements())
    rng = random.Random(seed)
    out = {}
    for axiom in axioms:
        arity = 2 if axiom in ("alpha", "gamma") else 3
        tuples = (list(_sampled_tuples(elems, arity, sample, rng)) if mode == "sampled"
                  else itertools.product(elems, repeat=arity))
        out[axiom] = reference_result(*axiom_sides(axiom, F, G, add, mul), tuples, carrier)
    return out


def reference_coboundary(carrier, D):
    add, mul = ops(carrier)
    elems = list(carrier.elements())
    return {name: reference_result(*coboundary_sides(name, D, add, mul),
                                   itertools.product(elems, repeat=arity), carrier)
            for name, arity in (("symmetry", 2), ("associator", 3), ("additivity", 3))}


def reference_primitive(window, F_table, f1):
    F = checked_map(window, F_table)
    report = reference_verify(window, F, None, ("alpha", "beta"), "exhaustive", 0, 0)
    for name in ("alpha", "beta"):
        status, witness, lhs, rhs, _, _ = report[name]
        if status == "fail":
            return ("cocycle", name, witness, lhs, rhs)
    f = {0: -F(0, 0), 1: f1}
    for k in range(1, window.hi):
        f[k + 1] = f[k] + f[1] + F(k, 1)
    for k in range(0, window.lo, -1):
        f[k - 1] = f[k] - f[1] - F(k - 1, 1)
    result = reference_result(lambda a, b: f[a + b] - f[a] - f[b], F,
                              itertools.product(window.elements(), repeat=2), window)
    if result[0] == "fail":
        a, b = result[1]
        return ("coboundary", f"re-differencing disagrees with F at ({a},{b})")
    return ("ok", f)


# -- the drawn cases --------------------------------------------------------

CARRIERS = [gf(2), gf(3), gf(5), gf(7), zmod(4), zmod(6), zmod(9),
            IntegerWindow(-3, 3), IntegerWindow(-2, 4), IntegerWindow(1, 5),
            IntegerWindow(-4, 1)]
values = st.integers(-20, 20)


def outcomes(report):
    return {name: (r.status, r.witness, r.lhs, r.rhs, r.checked, r.skipped)
            for name, r in report.axioms.items()}


@st.composite
def two_place_table(draw, carrier):
    """A table on the carrier's pairs: the Cauchy or Leibniz difference of
    a drawn f, or drawn values, with a few entries changed or missing."""
    elems = list(carrier.elements())
    add, mul = ops(carrier)
    kind = draw(st.sampled_from(["cauchy", "leibniz", "random"]))
    if kind == "random":
        table = {ab: draw(values) for ab in itertools.product(elems, repeat=2)}
    else:
        f = {x: draw(values) for x in elems}
        table = {}
        for a, b in itertools.product(elems, repeat=2):
            at = add(a, b) if kind == "cauchy" else mul(a, b)
            if at in f:
                rest = f[a] + f[b] if kind == "cauchy" else a * f[b] + b * f[a]
                table[(a, b)] = f[at] - rest
    pairs = sorted(table)
    for ab in draw(st.lists(st.sampled_from(pairs), max_size=2)):
        table[ab] += draw(st.integers(1, 3))
    for ab in draw(st.lists(st.sampled_from(pairs), max_size=3)):
        table.pop(ab, None)
    return table


def with_entries_outside(carrier, table, data):
    """On a window, the table plus entries at pairs outside it, which the
    range tests of the generated sides must keep unread."""
    if isinstance(carrier, FiniteCarrier):
        return table
    around = range(carrier.lo - 4, carrier.hi + 5)
    outside = [ab for ab in itertools.product(around, repeat=2)
               if not (carrier.contains(ab[0]) and carrier.contains(ab[1]))]
    return {**{ab: data.draw(values) for ab in outside}, **table}


@given(st.sampled_from(CARRIERS), st.data())
@settings(max_examples=150, deadline=None)
def test_axioms_match_the_closure_reference(carrier, data):
    F_table = data.draw(two_place_table(carrier))
    G_table = data.draw(two_place_table(carrier))
    axioms = tuple(a for a in PAIR_AXIOMS if a != "zeta") + ("eta",)
    # The program reads bare tables; only the reference checks ranges.
    F = Cocycle2(carrier, bare_map(with_entries_outside(carrier, F_table, data)), "F")
    G = Cocycle2(carrier, bare_map(with_entries_outside(carrier, G_table, data)), "G")
    for mode in ("exhaustive", "sampled"):
        sample = data.draw(st.integers(1, 60))
        seed = data.draw(st.integers(0, 10 ** 6))
        got = outcomes(cocycle_verify(F, G, axioms=axioms, mode=mode, sample=sample, seed=seed))
        want = reference_verify(carrier, checked_map(carrier, F_table),
                                checked_map(carrier, G_table), axioms, mode, sample, seed)
        assert got == want


@given(st.sampled_from(CARRIERS), st.data())
@settings(max_examples=100, deadline=None)
def test_leibniz_coboundary_conditions_match_the_closure_reference(carrier, data):
    elems = list(carrier.elements())
    if data.draw(st.booleans()):
        c = data.draw(values)
        D_table = {(a, b): -c * a * b for a, b in itertools.product(elems, repeat=2)}
    else:
        D_table = data.draw(two_place_table(carrier))
    for ab in data.draw(st.lists(st.sampled_from(sorted(D_table)), max_size=2)):
        D_table.pop(ab, None)
    got = outcomes(leibniz_coboundary_check(D_table, carrier))
    assert got == reference_coboundary(carrier, checked_map(carrier, D_table))


def primitive_outcome(window, F_table, f1):
    try:
        return ("ok", cocycle_primitive(F_table, window, f1))
    except NotACocycleError as exc:
        return ("cocycle", exc.axiom, exc.witness, exc.lhs, exc.rhs)
    except NotACoboundaryError as exc:
        return ("coboundary", str(exc))


WINDOWS = [IntegerWindow(-3, 3), IntegerWindow(-2, 4), IntegerWindow(0, 5),
           IntegerWindow(-4, 1)]


@given(st.sampled_from(WINDOWS), st.data())
@settings(max_examples=100, deadline=None)
def test_primitive_matches_the_closure_reference(window, data):
    elems = list(window.elements())
    f = {x: data.draw(values) for x in elems}
    F_table = {(a, b): f[a + b] - f[a] - f[b]
               for a, b in itertools.product(elems, repeat=2) if window.contains(a + b)}
    for ab in data.draw(st.lists(st.sampled_from(sorted(F_table)), max_size=2)):
        F_table[ab] += data.draw(st.integers(1, 3))
    f1 = data.draw(values)
    assert primitive_outcome(window, F_table, f1) == reference_primitive(window, F_table, f1)


@pytest.mark.parametrize("window, missing, changed", [
    (IntegerWindow(-2, 2), [(-2, 2), (1, -2), (2, -1), (2, 0)], (2, -2)),
    (IntegerWindow(-1, 3), [(-1, 3), (1, -1), (1, 0), (2, -1), (3, 0)], (3, -1)),
])
def test_primitive_refuses_a_cocycle_that_is_no_coboundary_at_the_same_pair(
        window, missing, changed):
    # The missing entries skip every triple of (beta) that would tie the
    # changed entry to the rest, so F stays a cocycle on the window and only
    # the re-difference sees the change.
    elems = list(window.elements())
    F_table = {(a, b): 2 * a * b for a, b in itertools.product(elems, repeat=2)
               if window.contains(a + b) and (a, b) not in missing}
    F_table[changed] += 1
    a, b = changed
    want = ("coboundary", f"re-differencing disagrees with F at ({a},{b})")
    assert reference_primitive(window, F_table, 1) == want
    assert primitive_outcome(window, F_table, 1) == want
