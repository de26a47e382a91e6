"""Two-argument difference maps: axioms, extensions, primitives, splittings."""

import itertools
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from dercalc import feq
from dercalc.exact import BudgetError, IntegerWindow, gf, zmod
from dercalc.cocycle import (
    Cocycle2,
    CocycleError,
    F_AXIOMS,
    NotACocycleError,
    PAIR_AXIOMS,
    alien_check,
    cauchy_difference,
    char_decompose,
    cocycle_extend_positive,
    cocycle_primitive,
    cocycle_verify,
    leibniz_coboundary_check,
    leibniz_difference,
    leibniz_maps,
    _sampled_tuples,
)


def table_fn(p):
    return st.lists(st.integers(0, p - 1), min_size=p, max_size=p).map(
        lambda vals: {i: v for i, v in enumerate(vals)}
    )


def test_cauchy_difference_of_square():
    k = gf(7)
    F = cauchy_difference(lambda x: x * x % 7, k)
    assert all(F(a, b) == 2 * a * b % 7 for a in range(7) for b in range(7))


def test_leibniz_difference_of_square():
    k = gf(7)
    G = leibniz_difference(lambda x: x * x % 7, k)
    assert G(2, 3) == (36 - 2 * 9 - 3 * 4) % 7


@given(table_fn(5))
@settings(max_examples=40, deadline=None)
def test_coboundary_pair_satisfies_all_axioms(tab):
    k = gf(5)
    F = cauchy_difference(tab, k)
    G = leibniz_difference(tab, k)
    report = cocycle_verify(F, G)
    assert set(report.axioms) == set(PAIR_AXIOMS)
    assert report.ok
    assert all(r.status == "pass" for r in report.axioms.values())


def test_each_map_is_regrouped_by_rows_once_per_verify():
    # The six pair axioms read F and G; each table is regrouped once, not
    # once per axiom that reads it.
    k = gf(11)
    F = cauchy_difference(lambda x: x * x % 11, k)
    G = leibniz_difference(lambda x: x * x % 11, k)
    want = cocycle_verify(F, G)
    regroup = feq._rows
    with mock.patch("dercalc.feq._rows", wraps=regroup) as in_feq, \
            mock.patch("dercalc.cocycle._rows", wraps=regroup) as in_cocycle:
        got = cocycle_verify(F, G)
    assert got == want and set(got.axioms) == set(PAIR_AXIOMS) and got.ok
    assert in_feq.call_count + in_cocycle.call_count == 2


def test_coboundary_check_regroups_d_by_rows_once():
    # Symmetry, the associator identity and additivity all read D; it is
    # regrouped once for the three.
    k = gf(11)
    D = leibniz_difference(lambda x: 3 * x % 11, k)
    want = leibniz_coboundary_check(D, k)
    regroup = feq._rows
    with mock.patch("dercalc.feq._rows", wraps=regroup) as in_feq, \
            mock.patch("dercalc.cocycle._rows", wraps=regroup) as in_cocycle:
        got = leibniz_coboundary_check(D, k)
    assert got == want and len(got.axioms) == 3 and got.ok
    assert in_feq.call_count + in_cocycle.call_count == 1


@given(table_fn(7))
@settings(max_examples=20, deadline=None)
def test_coboundary_satisfies_scaling_axiom_only_if_linear(tab):
    # eta is strictly stronger than the pair axioms; it holds for the
    # difference of any additive map, here checked through f(x) = c*x
    k = gf(7)
    F = cauchy_difference(lambda x: 3 * x % 7, k)
    report = cocycle_verify(F, axioms=("eta",))
    assert report.ok


def test_default_axioms_without_g():
    k = gf(5)
    F = cauchy_difference(lambda x: x * x % 5, k)
    report = cocycle_verify(F)
    assert set(report.axioms) == set(F_AXIOMS)


def test_verify_finds_symmetry_witness():
    k = gf(5)
    F = Cocycle2(k, lambda a, b: a, "F")
    report = cocycle_verify(F, axioms=("alpha",))
    assert not report.ok
    r = report.axioms["alpha"]
    assert r.status == "fail"
    assert r.witness == (0, 1)
    assert "(alpha) FAIL at (0, 1)" in report.lines()[0]


def test_verify_requires_g_for_pair_axioms():
    k = gf(5)
    F = cauchy_difference(lambda x: x, k)
    with pytest.raises(CocycleError):
        cocycle_verify(F, axioms=("delta",))


def test_sum_axiom_detects_counterexample():
    k = gf(5)
    F = Cocycle2(k, lambda a, b: 1 if (a, b) == (1, 1) else 0, "F")
    report = cocycle_verify(F, axioms=("zeta",))
    assert report.axioms["zeta"].status == "fail"


def test_sum_axiom_void_in_characteristic_zero():
    w = IntegerWindow(-5, 5)
    F = Cocycle2(w, lambda a, b: a * b, "F")
    report = cocycle_verify(F, axioms=("zeta",))
    assert report.axioms["zeta"].status == "void"
    assert "(zeta) void on this carrier" in report.lines()


@pytest.mark.parametrize("arity", [2, 3])
@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_sampled_tuples_match_choice_from_the_full_list(arity, seed):
    elems = list(IntegerWindow(-4, 4).elements())
    every = list(itertools.product(elems, repeat=arity))
    old = random.Random(seed)
    expected = [old.choice(every) for _ in range(40)]
    assert list(_sampled_tuples(elems, arity, 40, random.Random(seed))) == expected


def test_sampled_axioms_after_an_early_witness_draw_their_sample_as_before():
    # F(a, b) = a fails (alpha) on its first tuple or so; (beta) must still
    # see the triples it would draw after all of (alpha)'s pairs were drawn.
    k = gf(7)
    F = Cocycle2(k, lambda a, b: a, "F")
    report = cocycle_verify(F, axioms=("alpha", "beta"), mode="sampled", sample=50, seed=1)
    assert report.axioms["alpha"].checked < 50
    rng = random.Random(1)
    elems = list(k.elements())
    pairs, triples = (list(_sampled_tuples(elems, arity, 50, rng)) for arity in (2, 3))
    # (beta) reads 2x + y = x + y: it fails exactly where x != 0.
    witness = next(t for t in triples if t[0] != 0)
    beta = report.axioms["beta"]
    assert beta.witness == witness
    assert beta.checked == triples.index(witness) + 1
    assert report.axioms["alpha"].witness == next(t for t in pairs if t[0] != t[1])


def test_sampled_mode_on_a_wide_window_builds_no_tuple_list():
    w = IntegerWindow(-60, 60)
    f = {x: x * x for x in range(-60, 61)}
    F, G = cauchy_difference(f, w), leibniz_difference(f, w)
    tracemalloc.start()
    try:
        report = cocycle_verify(F, G, axioms=("beta", "delta"), mode="sampled",
                                sample=10, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok
    assert all(r.checked + r.skipped == 10 for r in report.axioms.values())
    # The 121^3 triples of the window would take well over 100 MB.
    assert peak < 1_000_000


def test_a_large_sample_is_drawn_lazily():
    w = IntegerWindow(-60, 60)
    F = cauchy_difference({x: x * x for x in range(-60, 61)}, w)
    tracemalloc.start()
    try:
        report = cocycle_verify(F, axioms=("beta",), mode="sampled", sample=30_000, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    r = report.axioms["beta"]
    assert r.status == "pass" and r.checked + r.skipped == 30_000
    # Drawn into lists first, the sample took 3 MB.
    assert peak < 1_000_000


def test_a_sample_over_the_budget_is_refused(monkeypatch):
    F = cauchy_difference(lambda x: x * x % 7, gf(7))
    monkeypatch.setenv("DERCALC_BUDGET", "100")
    with pytest.raises(BudgetError, match=r"^sample of 101 tuples exceeds budget 100; "
                                          r"raise it with DERCALC_BUDGET$"):
        cocycle_verify(F, axioms=("beta",), mode="sampled", sample=101)
    report = cocycle_verify(F, axioms=("beta",), mode="sampled", sample=100)
    assert report.axioms["beta"].checked == 100


def test_verify_refuses_maps_on_two_carriers():
    F = cauchy_difference(lambda x: x * x, gf(5))
    G = leibniz_difference(lambda x: x * x, gf(7))
    with pytest.raises(CocycleError, match="share one carrier"):
        cocycle_verify(F, G)


def test_sampled_mode_bounds_work():
    k = gf(7)
    F = cauchy_difference(lambda x: x * x % 7, k)
    report = cocycle_verify(F, axioms=("beta",), mode="sampled", sample=25, seed=3)
    r = report.axioms["beta"]
    assert r.status == "pass"
    assert r.checked + r.skipped == 25
    with pytest.raises(CocycleError):
        cocycle_verify(F, mode="sampled", sample=0)
    with pytest.raises(CocycleError):
        cocycle_verify(F, mode="bogus")


def test_signed_extension_of_square():
    w = IntegerWindow(-10, 10)
    F = lambda a, b: 2 * a * b
    G = lambda a, b: a * b * (a * b - a - b)  # leibniz difference of x^2
    Fe, Ge, report = cocycle_extend_positive(F, w, G)
    assert report.ok
    assert Fe(3, -5) == 12
    assert Ge(-3, 4) == -60
    # the six F rows vanish exactly when a, b, or a+b is zero
    assert Fe(4, -4) == 0 and Fe(0, 7) == 0 and Fe(-7, 0) == 0
    assert Fe(-2, -3) == -F(2, 3)
    # the G rows vanish exactly when a or b is zero
    assert Ge(0, -6) == 0 and Ge(6, 0) == 0
    assert Ge(2, -3) == -G(2, 3) and Ge(-2, -3) == G(2, 3)


@given(st.lists(st.integers(-30, 30), min_size=12, max_size=12))
@settings(max_examples=40, deadline=None)
def test_extension_of_random_positive_coboundary(vals):
    w = IntegerWindow(-12, 12)
    tab = {i + 1: v for i, v in enumerate(vals)}
    pos = IntegerWindow(1, 12)
    F = cauchy_difference(tab, pos)
    G = leibniz_difference(tab, pos)
    Fe, Ge, report = cocycle_extend_positive(F, w, G)
    assert report.ok
    for name in ("alpha", "beta", "gamma", "delta", "epsilon"):
        assert report.axioms[name].status == "pass"


def test_extension_rejects_non_cocycle():
    w = IntegerWindow(-6, 6)
    with pytest.raises(NotACocycleError) as err:
        cocycle_extend_positive(lambda a, b: a, w)
    assert err.value.axiom == "alpha"


def test_extension_needs_both_signs():
    with pytest.raises(CocycleError):
        cocycle_extend_positive(lambda a, b: 0, IntegerWindow(0, 5))


def test_primitive_of_doubled_product():
    w = IntegerWindow(-20, 20)
    f = cocycle_primitive(lambda a, b: 2 * a * b, w, f1=1)
    assert f == {k: k * k for k in range(-20, 21)}
    g = cocycle_primitive(lambda a, b: 2 * a * b, w, f1=4)
    assert g == {k: k * k + 3 * k for k in range(-20, 21)}


def test_primitive_of_triangular_cocycle():
    w = IntegerWindow(-15, 15)
    f = cocycle_primitive(lambda a, b: a * b, w, f1=0)
    for a in range(-7, 8):
        for b in range(-7, 8):
            assert f[a + b] - f[a] - f[b] == a * b


def test_primitive_rejects_cocycle_violation():
    w = IntegerWindow(-8, 8)
    with pytest.raises(NotACocycleError) as err:
        cocycle_primitive(lambda a, b: a * a * b * b, w, f1=0)
    assert err.value.axiom == "beta"


def test_primitive_needs_zero_and_one():
    with pytest.raises(CocycleError):
        cocycle_primitive(lambda a, b: 0, IntegerWindow(2, 9), f1=0)


@given(st.integers(-6, 6))
@settings(max_examples=30, deadline=None)
def test_primitive_round_trip_on_window(slope):
    w = IntegerWindow(-9, 9)
    base = {k: k * k * k - 2 * k for k in range(-9, 10)}
    F = cauchy_difference(base, w)
    f = cocycle_primitive(F, w, f1=base[1] + slope)
    # primitives differ from the source by the linear family only
    assert all(f[k] == base[k] + slope * k for k in range(-9, 10))


def test_leibniz_conditions_pass_for_scaled_product():
    k = gf(7)
    report = leibniz_coboundary_check(lambda a, b: -3 * a * b % 7, k)
    assert set(report.axioms) == {"symmetry", "associator", "additivity"}
    assert report.ok


def test_leibniz_conditions_reject_square_difference():
    k = gf(7)
    G = leibniz_difference(lambda x: x * x % 7, k)
    report = leibniz_coboundary_check(G, k)
    assert report.axioms["symmetry"].status == "pass"
    assert report.axioms["additivity"].status == "fail"
    assert not report.ok


def test_leibniz_maps_on_prime_field_are_zero():
    maps = leibniz_maps(gf(5))
    assert maps == [{x: 0 for x in range(5)}]


def test_decompose_square_and_triple():
    k = gf(5)
    d = char_decompose(lambda x: x * x % 5, lambda x: 3 * x % 5, k)
    assert (d.alpha, d.beta) == (3, 0)
    assert all(v == 0 for v in d.phi.values())
    assert d.describe() == "alpha(x) = 3*x, beta(x) = 0*x, phi = 0"


def test_decompose_rejects_non_solution():
    k = gf(5)
    with pytest.raises(CocycleError):
        char_decompose(lambda x: x * x % 5, lambda x: x, k)


def test_decompose_requires_odd_prime_field():
    with pytest.raises(CocycleError):
        char_decompose(lambda x: 0, lambda x: 0, zmod(6))
    with pytest.raises(CocycleError):
        char_decompose(lambda x: 0, lambda x: 0, gf(2))


def test_every_mixed_solution_over_gf3_decomposes():
    k = gf(3)
    tables = [
        {0: a, 1: b, 2: c} for a in range(3) for b in range(3) for c in range(3)
    ]

    def solves(f, g):
        for x in range(3):
            for y in range(3):
                lhs = (f[(x + y) % 3] - f[x] - f[y]) % 3
                rhs = (g[x * y % 3] - x * g[y] - y * g[x]) % 3
                if lhs != rhs:
                    return False
        return True

    pairs = [(f, g) for f in tables for g in tables if solves(f, g)]
    assert len(pairs) == 9
    for f, g in pairs:
        d = char_decompose(f, g, k)
        inv2 = pow(2, -1, 3)
        for x in range(3):
            assert (d.beta * x + d.alpha * x * x * (inv2 - 1)) % 3 == f[x]
            assert (d.phi[x] + d.alpha * x) % 3 == g[x]


def test_alien_weights_admit_only_zero():
    for lam, mu in ((1, 1), (1, 4), (2, 3)):
        report = alien_check(lam, mu, gf(5))
        assert report.solutions == ((0, 0, 0, 0, 0),)
        assert report.only_zero
        assert report.all_derivations


def test_alien_all_unit_weights_over_gf3():
    for lam in (1, 2):
        for mu in (1, 2):
            report = alien_check(lam, mu, gf(3))
            assert report.only_zero


def test_alien_check_guards():
    with pytest.raises(CocycleError):
        alien_check(0, 1, gf(5))
    with pytest.raises(CocycleError):
        alien_check(5, 1, gf(5))
    with pytest.raises(CocycleError):
        alien_check(1, 1, zmod(6))
    # The budget is the solver's: it bounds the solutions to list, not p^p.
    assert alien_check(1, 1, gf(11)).solutions == ((0,) * 11,)
    with pytest.raises(BudgetError, match=r"^11\^0 solutions exceed budget 0; "
                       r"raise it with --budget or DERCALC_BUDGET$"):
        alien_check(1, 1, gf(11), budget=0)


# -- dict tables with missing entries --------------------------------------
# A missing entry makes a tuple inadmissible exactly as a window escape
# does.  The counts, witnesses and keys below were taken when dict lookups
# and window escapes still raised separate signals.

W4 = IntegerWindow(-4, 4)
E4 = range(-4, 5)


def _outcomes(report):
    return {name: (r.status, r.witness, r.lhs, r.rhs, r.checked, r.skipped)
            for name, r in report.axioms.items()}


def test_missing_entries_skip_in_pair_axioms_and_tables():
    f = {x: x ** 3 - x for x in E4 if x not in (-2, 3)}
    report = cocycle_verify(cauchy_difference(f, W4), leibniz_difference(f, W4))
    assert _outcomes(report) == {
        "alpha": ("pass", None, None, None, 29, 52),
        "beta": ("pass", None, None, None, 90, 639),
        "gamma": ("pass", None, None, None, 30, 51),
        "delta": ("pass", None, None, None, 130, 599),
        "epsilon": ("pass", None, None, None, 94, 635),
        "zeta": ("void", None, None, None, 0, 0),
    }
    assert sorted(cauchy_difference(f, W4).table()) == [
        (-4, 0), (-4, 1), (-4, 4), (-3, -1), (-3, 0), (-3, 2), (-3, 4), (-1, -3), (-1, 0),
        (-1, 1), (-1, 2), (0, -4), (0, -3), (0, -1), (0, 0), (0, 1), (0, 2), (0, 4), (1, -4),
        (1, -1), (1, 0), (1, 1), (2, -3), (2, -1), (2, 0), (2, 2), (4, -4), (4, -3), (4, 0)]
    G = leibniz_difference(f, W4).table()
    assert sorted(G) == [
        (-4, -1), (-4, 0), (-4, 1), (-3, 0), (-3, 1), (-1, -4), (-1, -1), (-1, 0), (-1, 1),
        (-1, 4), (0, -4), (0, -3), (0, -1), (0, 0), (0, 1), (0, 2), (0, 4), (1, -4), (1, -3),
        (1, -1), (1, 0), (1, 1), (1, 2), (1, 4), (2, 0), (2, 1), (2, 2), (4, -1), (4, 0), (4, 1)]
    assert {k: v for k, v in G.items() if v} == {(2, 2): 36}


def test_missing_entries_skip_in_leibniz_coboundary_conditions():
    D = {(a, b): a * b * b for a in E4 for b in E4 if (a, b) not in ((1, 1), (0, 2), (-3, 1))}
    assert _outcomes(leibniz_coboundary_check(D, W4)) == {
        "symmetry": ("fail", (1, -1), 1, -1, 10, 2),
        "associator": ("fail", (1, -1, 2), -2, 0, 47, 56),
        "additivity": ("pass", None, None, None, 493, 236),
    }


def test_missing_entries_skip_in_extension_and_primitive():
    P = range(1, 5)
    F = {(a, b): a * b for a in P for b in P if (a, b) != (2, 3)}
    G = {(a, b): a * a * b * b - a * b * b - a * a * b for a in P for b in P if (a, b) != (1, 4)}
    Fe, Ge, report = cocycle_extend_positive(F, W4, G)
    assert _outcomes(report) == {
        "alpha": ("pass", None, None, None, 77, 4),
        "beta": ("pass", None, None, None, 415, 314),
        "gamma": ("pass", None, None, None, 73, 8),
        "delta": ("pass", None, None, None, 273, 456),
        "epsilon": ("fail", (1, 1, 2), 2, 4, 56, 38),
    }
    assert (len(Fe.table()), len(Ge.table())) == (79, 77)
    # only the pairs whose sum leaves the window are missing
    F = {(a, b): 2 * a * b for a in E4 for b in E4 if -4 <= a + b <= 4}
    assert cocycle_primitive(F, W4, 1) == {k: k * k for k in E4}
