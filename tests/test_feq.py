"""Brute-force functional equation checking and solving on finite carriers."""

import collections
import hashlib
import itertools
import math
import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from dercalc.exact import BudgetError, FiniteCarrier, Inadmissible, IntegerWindow, gf, zmod
from dercalc.feq import (
    CORPUS,
    CarrierUnsupportedError,
    Equation,
    FeqError,
    FnTable,
    UnboundSymbolError,
    default_budget,
    equation_by_name,
    feq_check,
    feq_solve_brute,
    logarithmic_zero_check,
    t1431_check,
    _INADMISSIBLE,
    _backtrack,
    _check,
    _code,
    _degree,
    _eliminate,
    _loop,
    _residual,
)
from dercalc import feq
from dercalc.cocycle import CONDITIONS
from dercalc.parser import (Apply, Arithmetic, Bin, DercalcSyntaxError, Neg, Num, Pow, Sym,
                            compiled, fold, nodes, parse_expr, to_text)


def window_parity(lo=-10, hi=10):
    w = IntegerWindow(lo, hi)
    return FnTable(w, {x: abs(x) % 2 for x in range(lo, hi + 1)})


def test_corpus_contents():
    assert len(CORPUS) == 11
    assert set(CORPUS) == {
        "cauchy-add",
        "cauchy-exp",
        "cauchy-log",
        "cauchy-mult",
        "jensen",
        "hosszu",
        "ger-hom",
        "leibniz",
        "alien-c22",
        "opp2",
        "opp3",
    }
    for eq in CORPUS.values():
        assert eq.functions == ("f",)
    assert equation_by_name("hosszu").min_size == 5
    assert "finite-carrier evidence only" in equation_by_name("opp2").note
    with pytest.raises(FeqError):
        equation_by_name("nope")


def test_parse_catches_unbound_symbols():
    with pytest.raises(UnboundSymbolError):
        Equation.parse("bad", "f(x) + c = 0")
    eq = Equation.parse("good", "c*f(x) = f(c*x)", params=("c",))
    assert eq.params == ("c",)
    assert eq.functions == ("f",)


def test_fn_table_basics():
    k = gf(3)
    t = FnTable(k, {0: 0, 1: 4, 2: 2})
    assert t(1) == 1  # reduced mod 3
    assert str(t) == "{0->0, 1->1, 2->2}"
    assert t.serialize() == ["0 -> 0", "1 -> 1", "2 -> 2"]
    assert FnTable.zero(k).is_zero()
    assert FnTable.from_callable(k, lambda x: x * x).values == {0: 0, 1: 1, 2: 1}
    with pytest.raises(FeqError):
        FnTable(k, {0: 0, 1: 1})


def test_check_needs_complete_bindings():
    eq = equation_by_name("cauchy-add")
    with pytest.raises(UnboundSymbolError):
        feq_check(eq, {})
    with pytest.raises(UnboundSymbolError):
        feq_check(equation_by_name("alien-c22"), {"f": FnTable.zero(gf(3))})


def test_check_and_solve_refuse_undeclared_parameters():
    message = r"^cauchy-add does not declare parameters \['lam'\]$"
    with pytest.raises(FeqError, match=message):
        feq_check(equation_by_name("cauchy-add"), {"f": FnTable.zero(gf(5))}, {"lam": 1})
    with pytest.raises(FeqError, match=message):
        feq_solve_brute(equation_by_name("cauchy-add"), ["f"], gf(5), {"lam": 1})
    with pytest.raises(FeqError, match=r"alien-c22 does not declare parameters \['nu'\]"):
        feq_check(equation_by_name("alien-c22"), {"f": FnTable.zero(gf(5))},
                  {"lam": 1, "mu": 1, "nu": 1})


def test_check_rejects_mixed_carriers():
    eq = Equation.parse("two", "f(x) = g(x)")
    with pytest.raises(FeqError):
        feq_check(eq, {"f": FnTable.zero(gf(3)), "g": FnTable.zero(gf(5))})


@pytest.mark.parametrize("source, unknowns", [("f(x+y) = f(x) + f(y)", ["f", "f"]),
                                              ("f(x+y) = f(x) * f(y)", ["f", "f"]),
                                              ("f(x) = g(x)", ["g", "f", "f"])])
def test_solve_refuses_unknowns_that_name_a_function_twice(source, unknowns):
    # Elimination, the search, and two functions of which one is repeated.
    with pytest.raises(FeqError, match="once"):
        feq_solve_brute(Equation.parse("twice", source), unknowns, gf(3))


def test_carriers_compare_by_value():
    # Two separately made gf(7) values are one carrier.
    square = lambda x: x * x
    f, g = FnTable.from_callable(gf(7), square), FnTable.from_callable(gf(7), square)
    assert f.carrier is not g.carrier
    assert f == g
    assert f != FnTable.from_callable(zmod(7), square)
    report = feq_check(Equation.parse("two", "f(x) = g(x)"), {"f": f, "g": g})
    assert report.status == "pass"
    assert report.checked == 49


def test_cauchy_add_solutions_on_gf3():
    report = feq_solve_brute(equation_by_name("cauchy-add"), ["f"], gf(3))
    assert report.status == "complete"
    assert report.count == 3
    got = {tuple(t.values.values()) for t in report.tables("f")}
    assert got == {(0, 0, 0), (0, 1, 2), (0, 2, 1)}


def test_cauchy_add_solutions_are_linear_on_gf5():
    report = feq_solve_brute(equation_by_name("cauchy-add"), ["f"], gf(5))
    assert report.count == 5
    for t in report.tables("f"):
        c = t(1)
        assert all(t(x) == c * x % 5 for x in range(5))


def test_cauchy_exp_solutions_on_gf3():
    report = feq_solve_brute(equation_by_name("cauchy-exp"), ["f"], gf(3))
    got = {tuple(t.values.values()) for t in report.tables("f")}
    assert got == {(0, 0, 0), (1, 1, 1)}


def test_ger_hom_solutions_on_gf5():
    report = feq_solve_brute(equation_by_name("ger-hom"), ["f"], gf(5))
    got = {tuple(t.values.values()) for t in report.tables("f")}
    assert got == {(0,) * 5, (4,) * 5}


def test_leibniz_only_zero_on_prime_field():
    report = feq_solve_brute(equation_by_name("leibniz"), ["f"], gf(5))
    assert report.count == 1
    assert report.tables("f")[0].is_zero()


def test_hosszu_structure_on_gf5():
    report = feq_solve_brute(equation_by_name("hosszu"), ["f"], gf(5))
    assert report.status == "complete"
    assert report.count == 25
    for t in report.tables("f"):
        g = {x: (t(x) - t(0)) % 5 for x in range(5)}
        assert all(g[(x + y) % 5] == (g[x] + g[y]) % 5 for x in range(5) for y in range(5))


def test_hosszu_skipped_below_min_size():
    report = feq_solve_brute(equation_by_name("hosszu"), ["f"], gf(3))
    assert report.status == "skipped"
    assert report.count == 0
    assert "five elements" in report.note


def test_jensen_rejected_on_even_carriers():
    eq = equation_by_name("jensen")
    with pytest.raises(CarrierUnsupportedError) as err:
        feq_solve_brute(eq, ["f"], zmod(4))
    assert "constant divisor 2 is not invertible modulo 4" in str(err.value)
    with pytest.raises(CarrierUnsupportedError):
        feq_solve_brute(eq, ["f"], gf(2))
    for _ in range(2):  # a refused carrier keeps no code, so it is refused again
        with pytest.raises(CarrierUnsupportedError):
            feq_check(eq, {"f": FnTable.zero(zmod(4))})


def test_constant_divisors_are_examined_once_per_equation_and_carrier(monkeypatch):
    calls = []
    examine = feq._reject_constant_divisors
    monkeypatch.setattr(feq, "_reject_constant_divisors",
                        lambda side, carrier: calls.append(carrier) or examine(side, carrier))
    eq = Equation.parse("jensen-twin", CORPUS["jensen"].source)
    for _ in range(3):
        assert feq_check(eq, {"f": FnTable.from_callable(gf(13), lambda x: 3 * x + 1)}).ok
    assert feq_solve_brute(eq, ["f"], gf(13)).count == 169
    assert calls == [gf(13)] * 2  # both sides, on the first check only
    feq_check(eq, {"f": FnTable.zero(IntegerWindow(-3, 3))})
    assert len(calls) == 4


XYZ = ("x", "y", "z")


def test_equations_declare_their_variables():
    eq = Equation.parse("cauchy3", "f(x + y + z) = f(x) + f(y) + f(z)", variables=XYZ)
    assert eq.variables == XYZ and CORPUS["cauchy-add"].variables == ("x", "y")
    report = feq_check(eq, {"f": FnTable.from_callable(gf(5), lambda x: 2 * x)})
    assert report.line() == "cauchy3: pass (125 pairs, 0 skipped)"
    square = FnTable.from_callable(gf(5), lambda x: x * x)
    report = feq_check(eq, {"f": square})
    assert (report.witness, report.lhs, report.rhs) == ((0, 1, 1), 4, 2)
    report = feq_check(eq, {"f": square}, mode="sampled", sample=7, seed=2)
    assert (report.witness, report.checked) == ((2, 1, 2), 2)
    rng = random.Random(2)
    assert report.witness == tuple(rng.choice(range(5)) for _ in range(6))[3:]
    # Elimination on GF(5) agrees with the search; on Z/4, where f(0) may
    # be 2, the search lists the tables an exhaustive check passes.
    assert (feq_solve_brute(eq, ["f"], gf(5)).solutions
            == _backtrack(eq, ("f",), gf(5), {}, 10 ** 6)[0]
            == feq_solve_brute(CORPUS["cauchy-add"], ["f"], gf(5)).solutions)
    tables = [FnTable(zmod(4), dict(enumerate(v))) for v in itertools.product(range(4), repeat=4)]
    assert (feq_solve_brute(eq, ["f"], zmod(4)).tables("f")
            == [t for t in tables if feq_check(eq, {"f": t}).ok])
    with pytest.raises(UnboundSymbolError, match=r"\['z'\]"):
        Equation.parse("cauchy3", eq.source)


def test_variable_and_function_names_stay_out_of_the_generated_source():
    # Names that the generated code uses for its own globals and locals.
    eq = Equation.parse("clash", "SKIP(pow + a1) = SKIP(pow) + SKIP(a1)",
                        variables=("pow", "a1"))
    for carrier in (gf(7), IntegerWindow(-3, 3)):
        for fn in (lambda x: 3 * x, lambda x: x * x):
            table = FnTable.from_callable(carrier, fn)
            got = feq_check(eq, {"SKIP": table})
            want = feq_check(CORPUS["cauchy-add"], {"f": table})
            assert (got.status, got.witness, got.checked, got.skipped) == (
                want.status, want.witness, want.checked, want.skipped)


def test_two_argument_unknowns_are_check_only():
    with pytest.raises(FeqError, match="applies a function to one and to two arguments"):
        Equation.parse("mixed", "F(x) = F(x, y)")
    with pytest.raises(DercalcSyntaxError, match="expected '\\)', found ','"):
        Equation.parse("three", "g(x, y, x) = 0")
    eq = Equation.parse("symmetric", "F(x, y) = F(y, x)")
    with pytest.raises(FeqError, match="two-argument unknown"):
        feq_check(eq, {"F": FnTable.zero(gf(3))})
    with pytest.raises(FeqError, match="two-argument unknown"):
        feq_solve_brute(eq, ["F"], gf(3))
    # The residual itself reads pairs from any table it is given.
    residual = _residual(eq, gf(3), {"F": {(a, b): a for a in range(3) for b in range(3)}}, {})
    assert (residual(1, 2), residual(2, 1), residual(2, 2)) == ((1 - 2) % 3, (2 - 1) % 3, 0)


def test_jensen_full_solution_set_on_gf5():
    report = feq_solve_brute(equation_by_name("jensen"), ["f"], gf(5))
    assert report.count == 25
    for t in report.tables("f"):
        a, b = t(0), (t(1) - t(0)) % 5
        assert all(t(x) == (a + b * x) % 5 for x in range(5))


def test_jensen_parity_witness_on_window():
    report = feq_check(equation_by_name("jensen"), {"f": window_parity()})
    assert not report.ok
    assert report.witness == (0, 2)
    assert report.line() == (
        "jensen: FAIL at (0, 2): lhs 1 != rhs 0 (2 pairs checked, 2 skipped)"
    )


def test_hosszu_parity_passes_on_window():
    report = feq_check(equation_by_name("hosszu"), {"f": window_parity()})
    assert report.ok
    assert report.line() == "hosszu: pass (118 pairs, 323 skipped)"
    assert report.checked + report.skipped == 21 * 21


def test_alien_equation_has_only_the_zero_solution():
    # Closed form: on GF(p), for every pair of nonzero weights, only the zero
    # table solves lam*CauchyDiff(f) + mu*LeibnizDiff(f) = 0.
    eq = equation_by_name("alien-c22")
    for p in (2, 3, 5, 7, 11):
        for lam in range(1, p):
            for mu in range(1, p):
                report = feq_solve_brute(eq, ["f"], gf(p), params={"lam": lam, "mu": mu})
                assert report.tables("f") == [FnTable.zero(gf(p))], (p, lam, mu)


def test_alien_equation_requires_params():
    with pytest.raises(UnboundSymbolError):
        feq_solve_brute(equation_by_name("alien-c22"), ["f"], gf(3))


def test_open_equations_admit_only_zero_on_small_fields():
    for name in ("opp2", "opp3"):
        for p in (3, 5):
            report = feq_solve_brute(equation_by_name(name), ["f"], gf(p))
            assert report.status == "complete"
            assert report.count == 1
            assert report.tables("f")[0].is_zero()


def test_unknown_in_divisor_uses_dynamic_path():
    eq = Equation.parse("selfdiv", "x / f(y) = x / f(y)")
    report = feq_solve_brute(eq, ["f"], gf(3))
    # trivially true wherever defined, so every table is a solution
    assert report.count == 27


def test_unknown_inside_a_function_argument_uses_dynamic_path():
    # Which entries f(f(x)) reads depends on f itself: the involutions of
    # {0, 1, 2} are the identity and the three transpositions.
    report = feq_solve_brute(Equation.parse("involution", "f(f(x)) = x"), ["f"], gf(3))
    assert [t.serialize() for t in report.tables("f")] == [
        ["0 -> 0", "1 -> 1", "2 -> 2"], ["0 -> 0", "1 -> 2", "2 -> 1"],
        ["0 -> 1", "1 -> 0", "2 -> 2"], ["0 -> 2", "1 -> 1", "2 -> 0"]]
    assert feq_solve_brute(Equation.parse("fixed", "0 = f(f(0))"), ["f"], gf(2)).count == 3


@given(st.sampled_from(["cauchy-add", "cauchy-mult", "ger-hom", "hosszu"]))
@settings(max_examples=8, deadline=None)
def test_solutions_survive_recheck(name):
    eq = equation_by_name(name)
    report = feq_solve_brute(eq, ["f"], gf(5))
    for t in report.tables("f"):
        assert feq_check(eq, {"f": t}).ok


def test_solver_guards():
    eq = equation_by_name("cauchy-add")
    with pytest.raises(FeqError):
        feq_solve_brute(eq, ["g"], gf(3))
    with pytest.raises(FeqError):
        feq_solve_brute(eq, ["f"], IntegerWindow(-3, 3))
    with pytest.raises(BudgetError):
        feq_solve_brute(eq, ["f"], gf(3), budget=2)
    with pytest.raises(BudgetError):
        feq_solve_brute(equation_by_name("cauchy-mult"), ["f"], gf(13), budget=50)


def test_budget_bounds_solutions_listed_by_elimination():
    eq = equation_by_name("jensen")
    with pytest.raises(BudgetError, match=r"^11\^2 solutions exceed budget 120; "
                       r"raise it with --budget or DERCALC_BUDGET$"):
        feq_solve_brute(eq, ["f"], gf(11), budget=120)
    assert feq_solve_brute(eq, ["f"], gf(11), budget=121).count == 121
    assert feq_solve_brute(equation_by_name("leibniz"), ["f"], gf(23), budget=1).count == 1
    # an inconsistent system has nothing to list
    assert feq_solve_brute(Equation.parse("no", "f(x) + 1 = f(x)"), ["f"], gf(5),
                           budget=0).count == 0


def test_budget_bounds_entries_placed_by_the_search():
    eq = equation_by_name("cauchy-exp")
    # f(0) tries 3 values, and 0 and 1 survive.  Below f(0) = 0, f(1) tries
    # 3 and only 0 survives, then f(2) tries 3; below f(0) = 1, f(1) tries 3
    # and all survive, then f(2) tries 3 below each.
    placed = 3 + 3 + 3 + 3 + 9
    assert feq_solve_brute(eq, ["f"], gf(3), budget=placed).count == 2
    with pytest.raises(BudgetError) as err:
        feq_solve_brute(eq, ["f"], gf(3), budget=placed - 1)
    assert str(err.value) == (
        "search over budget 20: 21 table entries placed, 9 nodes visited; "
        "raise it with --budget or DERCALC_BUDGET")
    # the raw table space 23^23 is far above the default budget
    assert feq_solve_brute(eq, ["f"], gf(23)).count == 2


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("DERCALC_BUDGET", "123")
    assert default_budget() == 123
    monkeypatch.delenv("DERCALC_BUDGET")
    assert default_budget() == 10_000_000


def test_sampled_check_mode():
    eq = equation_by_name("cauchy-add")
    t = FnTable.from_callable(gf(7), lambda x: 3 * x % 7)
    report = feq_check(eq, {"f": t}, mode="sampled", sample=30, seed=2)
    assert report.ok
    assert report.checked + report.skipped == 30
    with pytest.raises(FeqError):
        feq_check(eq, {"f": t}, mode="sampled", sample=0)
    with pytest.raises(FeqError):
        feq_check(eq, {"f": t}, mode="almost")


def sampled_report(eq, table, sample, seed):
    """(witness, lhs, rhs, checked, skipped) of a sampled check run on the
    whole sample drawn into a list first: the reference for lazy draws."""
    carrier = table.carrier
    elems = list(carrier.elements())
    rng = random.Random(seed)
    tuples = [tuple(rng.choice(elems) for _ in range(len(eq.variables))) for _ in range(sample)]
    sides = interpreted_sides(eq, carrier, {"f": table.values}, {})
    return check_tuples(*sides, tuples)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 11, 2024])
@pytest.mark.parametrize("eq, table", [
    (CORPUS["cauchy-add"], FnTable.from_callable(gf(7), lambda x: 3 * x)),
    (CORPUS["cauchy-add"], FnTable.from_callable(gf(7), lambda x: x * x)),
    (CORPUS["jensen"], FnTable.from_callable(IntegerWindow(-9, 9), lambda x: 2 * x + 1)),
    (CORPUS["hosszu"], FnTable.from_callable(IntegerWindow(-5, 5), lambda x: x * x)),
    (Equation.parse("cauchy3", "f(x + y + z) = f(x) + f(y) + f(z)", variables=("x", "y", "z")),
     FnTable.from_callable(zmod(6), lambda x: x * x)),
], ids=["pass", "fail", "jensen-window", "hosszu-window", "cauchy3"])
def test_sampled_check_draws_the_tuples_the_list_held(eq, table, seed):
    report = feq_check(eq, {"f": table}, mode="sampled", sample=60, seed=seed)
    assert (report.witness, report.lhs, report.rhs, report.checked,
            report.skipped) == sampled_report(eq, table, 60, seed)


def test_sampled_check_on_a_wide_window_builds_no_tuple_list():
    w = IntegerWindow(-60, 60)
    table = FnTable.from_callable(w, lambda x: 5 * x)
    tracemalloc.start()
    try:
        report = feq_check(CORPUS["cauchy-add"], {"f": table}, mode="sampled",
                           sample=20_000, seed=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok and report.checked + report.skipped == 20_000
    # Drawn into a list first, the 20 000 pairs would take 1.3 MB.
    assert peak < 200_000


def test_sampled_check_refuses_a_sample_over_the_budget(monkeypatch):
    t = FnTable.zero(gf(5))
    monkeypatch.setenv("DERCALC_BUDGET", "50")
    assert feq_check(CORPUS["cauchy-add"], {"f": t}, mode="sampled", sample=50).ok
    with pytest.raises(BudgetError, match=r"^sample of 51 tuples exceeds budget 50; "
                       r"raise it with DERCALC_BUDGET$"):
        feq_check(CORPUS["cauchy-add"], {"f": t}, mode="sampled", sample=51)


def test_log_zero_on_full_carrier():
    report = logarithmic_zero_check(gf(5))
    assert report.only_zero
    assert not report.units_only


def test_log_zero_units_only_budget_counts_entries_placed():
    assert len(logarithmic_zero_check(gf(23), units_only=True).solutions) == 22
    with pytest.raises(BudgetError, match="table entries placed"):
        logarithmic_zero_check(gf(5), units_only=True, budget=3)


def test_log_zero_units_only_search_tree_is_pinned():
    # Entries placed and nodes visited in the budget message pin the search
    # tree that checking only the pairs each new entry completes must prune.
    # The units of GF(7) are placed in the order 1, 2, 4, 3, 5, 6 (pinned in
    # `test_the_search_places_slots_in_forcing_closure_order`), each node
    # counting all 6 values of Z/6 as placed.  Node 1 passes f(1) = 0 only;
    # node 2 passes all six v = f(2); node 4, forced to 2v, passes where
    # f(1) = 3v, so for even v; node 3 passes the two a with 2a = v; nodes 5
    # and 6, forced to 5a and 3a, pass, as g^k -> k*a with g = 3 is a
    # homomorphism.  Budget 20: nodes 1-7 (the leaf for a = 0) place 6
    # entries, closing nodes 6 and 5 counts 10 more, a = 3 at node 3 counts
    # 3 more (19), and node 8 (5, forced to 3) is the 21st.  Budget 100:
    # when v = 3 is done, nodes 1-20 have placed 89 entries; v = 4 counts 1
    # more at node 2, 3 at node 4 (21, forced to 2) and 3 at node 3 (22,
    # a = 2), and node 23 (5, forced to 4) is the 101st.
    for budget, placed, visited in ((20, 21, 8), (100, 101, 23)):
        with pytest.raises(BudgetError) as err:
            logarithmic_zero_check(gf(7), units_only=True, budget=budget)
        assert str(err.value) == (
            f"search over budget {budget}: {placed} table entries placed, {visited} "
            f"nodes visited; raise it with --budget or DERCALC_BUDGET")
    for p, g in ((7, 3), (11, 2), (13, 2)):
        # GF(p)* is cyclic with generator g: the homomorphisms to Z/(p-1) are
        # g^k -> k*v, listed in lexicographic order of their values on 1..p-1.
        homs = [{pow(g, k, p): k * v % (p - 1) for k in range(p - 1)} for v in range(p - 1)]
        homs.sort(key=lambda h: [h[u] for u in range(1, p)])
        solutions = logarithmic_zero_check(gf(p), units_only=True).solutions
        assert list(solutions) == homs
        # Placed out of carrier order, each is still keyed in the units' order.
        assert all(list(sol) == gf(p).units() for sol in solutions)


@pytest.mark.parametrize("m", [8, 9, 10, 12])
def test_log_zero_units_only_on_zmod_matches_every_map(m):
    # The unit groups of Z/8 and Z/12 are not cyclic.  The oracle walks
    # every map U -> Z/|U| in lexicographic order and keeps the
    # homomorphisms.
    units = [u for u in range(m) if math.gcd(u, m) == 1]
    n = len(units)
    homs = [dict(zip(units, values)) for values in itertools.product(range(n), repeat=n)]
    homs = [h for h in homs
            if all(h[x * y % m] == (h[x] + h[y]) % n for x in units for y in units)]
    solutions = logarithmic_zero_check(zmod(m), units_only=True).solutions
    assert list(solutions) == homs
    assert all(list(sol) == units for sol in solutions)


def test_log_zero_units_only():
    report = logarithmic_zero_check(gf(5), units_only=True)
    assert len(report.solutions) == 4
    # homomorphisms from the cyclic unit group into Z_4
    for sol in report.solutions:
        assert sol[1] == 0
        assert all(
            sol[a * b % 5] == (sol[a] + sol[b]) % 4 for a in sol for b in sol
        )
    assert not report.only_zero


def test_reflection_survivors():
    for p in (3, 5, 7):
        report = t1431_check(p)
        assert report.survivors == (0,)
        assert report.all_leibniz
        assert report.only_zero
    with pytest.raises(FeqError):
        t1431_check(4)
    with pytest.raises(FeqError):
        t1431_check(2)


LONG_SIDE = " + ".join(["f(x)"] * 3000)


def test_equation_with_a_3000_term_side_parses():
    eq = Equation.parse("long", f"{LONG_SIDE} = 3000*f(x)")
    assert eq.functions == ("f",)
    assert (_degree(eq.lhs), _degree(eq.rhs)) == (1, 1)  # without recursing


def test_feq_check_with_a_3000_term_side():
    eq = Equation.parse("long", f"{LONG_SIDE} + f(y) = 3000*f(x) + f(y)")
    report = feq_check(eq, {"f": FnTable.from_callable(gf(7), lambda x: x * x)})
    assert report.line() == "long: pass (49 pairs, 0 skipped)"
    wrong = Equation.parse("wrong", f"{LONG_SIDE} = 2999*f(x)")
    report = feq_check(wrong, {"f": FnTable.from_callable(gf(7), lambda x: x)})
    assert report.witness == (1, 0)


def test_to_text_round_trips_a_3000_term_side():
    assert to_text(parse_expr(LONG_SIDE)) == LONG_SIDE  # without recursing


@pytest.mark.parametrize("name", ["jensen", "cauchy-exp"])  # elimination, search
def test_the_degree_is_found_once_per_equation_and_carrier(monkeypatch, name):
    count = feq_solve_brute(CORPUS[name], ["f"], gf(5)).count
    sides = []
    degree = feq._degree
    monkeypatch.setattr(feq, "_degree", lambda side: sides.append(side) or degree(side))
    eq = Equation.parse(f"{name}-twin", CORPUS[name].source)
    assert [feq_solve_brute(eq, ["f"], gf(5)).count for _ in range(3)] == [count] * 3
    assert sides == [eq.lhs, eq.rhs]


# -- elimination against the backtracking oracle ------------------------------

LINEAR = ("cauchy-add", "cauchy-log", "jensen", "hosszu", "leibniz", "opp2", "opp3")
PRIMES = (2, 3, 5, 7, 11, 13)
# Skipped: jensen and opp3 reject GF(2) (the constant divisor 2), hosszu
# below its minimum size, and hosszu above 7, where backtracking takes 10 s.
LINEAR_CASES = [
    (name, p) for name in LINEAR for p in PRIMES
    if not (p == 2 and name in ("jensen", "opp3"))
    and CORPUS[name].min_size <= p and not (name == "hosszu" and p > 7)
]


def assert_elimination_matches_backtracking(eq, unknowns, carrier, params=None):
    """Identical solutions, in the same order, and identical skipped pairs."""
    params = {k: v % carrier.modulus for k, v in (params or {}).items()}
    want = _backtrack(eq, tuple(unknowns), carrier, params, 10 ** 30)
    assert _eliminate(eq, tuple(unknowns), carrier, params, 10 ** 30)[:2] == want
    report = feq_solve_brute(eq, unknowns, carrier, params)
    assert (report.solutions, report.skipped_pairs) == want


@pytest.mark.parametrize("name, p", LINEAR_CASES)
def test_elimination_matches_backtracking_on_linear_corpus(name, p):
    assert_elimination_matches_backtracking(equation_by_name(name), ["f"], gf(p))


@pytest.mark.parametrize("p", PRIMES)
def test_elimination_matches_backtracking_on_alien_weights(p):
    for lam, mu in ((1, 1), (1, -1), (3, 2), (0, 1)):
        assert_elimination_matches_backtracking(
            equation_by_name("alien-c22"), ["f"], gf(p), {"lam": lam, "mu": mu})


@pytest.mark.parametrize("p", (2, 3, 5))
def test_elimination_matches_backtracking_with_two_unknowns(p):
    eq = Equation.parse("pexider", "f(x+y) = g(x) + g(y)")
    assert_elimination_matches_backtracking(eq, ["f", "g"], gf(p))
    assert_elimination_matches_backtracking(eq, ["g", "f"], gf(p))
    # g(x) = c x + d and f(z) = c z + 2 d
    assert feq_solve_brute(eq, ["f", "g"], gf(p)).count == p * p


def test_elimination_matches_backtracking_with_skipped_pairs():
    eq = Equation.parse("recip", "f(x) * x^-1 = f(1/(x + 1)) + 3*f(y/(x - 2))")
    for p in (3, 5, 7):
        assert_elimination_matches_backtracking(eq, ["f"], gf(p))
    assert feq_solve_brute(eq, ["f"], gf(5)).skipped_pairs == 15


def test_elimination_on_prime_zmod():
    assert_elimination_matches_backtracking(equation_by_name("cauchy-add"), ["f"], zmod(7))


def count_checks(monkeypatch):
    """The list of the tables every later `feq_check` call is given."""
    calls = []

    def counted(eq, bindings, *args, **kwargs):
        calls.append(bindings)
        return check(eq, bindings, *args, **kwargs)

    check = feq.feq_check
    monkeypatch.setattr(feq, "feq_check", counted)
    return calls


@pytest.mark.parametrize("src, unknowns, p, dim", [
    ("jensen", ["f"], 11, 2),
    ("f(x+y) = g(x) + g(y)", ["f", "g"], 5, 2),
    ("f(x+y) = g(x) + g(y)", ["g", "f"], 7, 2),
    ("f(x) = f(x)", ["f"], 3, 3),
])
def test_elimination_rechecks_the_dim_plus_one_spanning_solutions(monkeypatch, src, unknowns,
                                                                  p, dim):
    eq = CORPUS[src] if src in CORPUS else Equation.parse("q", src)
    calls = count_checks(monkeypatch)
    report = feq_solve_brute(eq, unknowns, gf(p))
    assert report.count == p ** dim
    # p0, then p0 + b_i for each kernel vector b_i, taken from the listing
    spanning = [report.solutions[0]] + [report.solutions[p ** j] for j in range(dim)]
    assert calls == [dict(zip(unknowns, sol)) for sol in spanning]


def test_backtracking_rechecks_every_solution(monkeypatch):
    calls = count_checks(monkeypatch)
    report = feq_solve_brute(equation_by_name("cauchy-mult"), ["f"], gf(5))
    assert report.count == len(calls) == 6
    assert calls == [{"f": sol[0]} for sol in report.solutions]


@pytest.mark.parametrize("vector", [0, 1, 2], ids=["p0", "b1", "b2"])
def test_a_perturbed_spanning_vector_fails_the_recheck(monkeypatch, vector):
    # jensen on GF(11): f(x) = a*x + b, so the free entries are f(0) and
    # f(1), and every other entry of p0 and of each b_i is fixed by them.
    span = feq._span

    def perturbed(base, kernel, m):
        target = [base, *kernel][vector]
        target[5] = (target[5] + 1) % m
        return span(base, kernel, m)

    monkeypatch.setattr(feq, "_span", perturbed)
    with pytest.raises(FeqError, match="internal: emitted solution fails re-check"):
        feq_solve_brute(equation_by_name("jensen"), ["f"], gf(11))


def no_elimination(*args):
    raise AssertionError("elimination attempted")


# Each with the number of its solutions on GF(p).
NONLINEAR = [("cauchy-exp", 5, 2), ("cauchy-mult", 5, 6), ("cauchy-mult", 7, 8),
             ("ger-hom", 5, 2), ("f(f(x)) = x", 3, 4), ("f(x)^2 = f(y)^2", 3, 9),
             ("x*f(y) = f(x)*f(y)", 3, 2), ("x / f(y) = x", 3, 8),
             ("(x - x)*f(x)*f(y) = 0", 3, 27)]


def test_nonlinear_equations_stay_on_backtracking(monkeypatch):
    monkeypatch.setattr(feq, "_eliminate", no_elimination)
    for src, p, count in NONLINEAR:
        eq = CORPUS[src] if src in CORPUS else Equation.parse("q", src)
        assert max(_degree(eq.lhs), _degree(eq.rhs)) >= 2, src
        assert feq_solve_brute(eq, ["f"], gf(p)).count == count, src


def test_value_dependent_and_composite_carriers_skip_elimination(monkeypatch):
    monkeypatch.setattr(feq, "_eliminate", no_elimination)
    selfdiv = Equation.parse("selfdiv", "x / f(y) = x / f(y)")
    assert feq_solve_brute(selfdiv, ["f"], gf(3)).count == 27
    report = feq_solve_brute(equation_by_name("cauchy-add"), ["f"], zmod(6))
    assert (report.count, report.skipped_pairs) == (6, 0)


# -- generated sides against the interpreted reference ------------------------


class Interpreted:
    """The reference evaluation of a side, which the generated sides must
    agree with: `parser.compiled` drives the carrier's algebra node by
    node, with parameters through `sym` and table reads through `apply`."""

    def __init__(self, carrier, tables, params):
        self.num, self.neg, self.pow, self.bin = carrier.num, carrier.neg, carrier.pow, carrier.bin
        self.window = carrier if isinstance(carrier, IntegerWindow) else None
        self.tables, self.params = tables, params

    def sym(self, name):
        if name not in self.params:
            raise UnboundSymbolError(f"symbol {name!r} has no binding")
        return self.params[name]

    def apply(self, func, *args):
        if self.window is not None and not all(map(self.window.contains, args)):
            raise Inadmissible
        return self.tables[func][args if len(args) == 2 else args[0]]


def interpreted_sides(eq, carrier, tables, params):
    algebra = Interpreted(carrier, tables, params)
    return tuple(compiled(side, algebra, eq.variables) for side in (eq.lhs, eq.rhs))


def interpreted_residual(eq, carrier, tables, params):
    """lhs - rhs over the interpreted sides, reduced modulo a finite carrier."""
    lhs, rhs = interpreted_sides(eq, carrier, tables, params)
    m = carrier.modulus if isinstance(carrier, FiniteCarrier) else 0
    return lambda *tup: (lhs(*tup) - rhs(*tup)) % m if m else lhs(*tup) - rhs(*tup)


def check_tuples(lhs_fn, rhs_fn, tuples):
    """The reference check loop: (witness, lhs, rhs, checked, skipped), the
    first tuple whose sides differ, or None three times.  A tuple on which
    a side raises Inadmissible or KeyError is skipped and counted."""
    checked = skipped = 0
    for tup in tuples:
        try:
            lhs = lhs_fn(*tup)
            rhs = rhs_fn(*tup)
        except _INADMISSIBLE:
            skipped += 1
            continue
        checked += 1
        if lhs != rhs:
            return tup, lhs, rhs, checked, skipped
    return None, None, None, checked, skipped


def interpreted_report(eq, bindings, params):
    """(witness, lhs, rhs, checked, skipped) of an exhaustive check."""
    carrier = next(iter(bindings.values())).carrier
    if isinstance(carrier, FiniteCarrier):
        params = {k: v % carrier.modulus for k, v in params.items()}
    sides = interpreted_sides(eq, carrier, {f: t.values for f, t in bindings.items()}, params)
    return check_tuples(*sides, itertools.product(list(carrier.elements()),
                                                  repeat=len(eq.variables)))


def outcome(fn, x, y):
    """The value of a side, or "inadmissible".  Where a side meets two
    inadmissible nodes, which of them raises first may differ: constants
    are folded before any table is read."""
    try:
        return fn(x, y)
    except _INADMISSIBLE:
        return "inadmissible"


ORACLE_CARRIERS = [gf(2), gf(5), gf(7), zmod(6), zmod(8), IntegerWindow(-3, 3),
                   IntegerWindow(-2, 4)]


def trees(leaves, *first):
    """Trees over `leaves`; the node makers in `first` draw before, and so
    more often than, the other kinds of node."""
    return st.recursive(leaves, lambda children: st.one_of(
        *(make(children) for make in first),
        children.map(Neg),
        st.tuples(children, st.integers(-2, 3)).map(lambda p: Pow(*p)),
        st.tuples(st.sampled_from(["f", "g"]), children).map(lambda p: Apply(p[0], p[1:])),
        st.tuples(st.sampled_from("+-*/"), children, children).map(lambda p: Bin(*p)),
    ), max_leaves=14)


leaves = st.one_of(st.integers(0, 12).map(lambda n: Num(Fraction(n))),
                   st.sampled_from(["x", "y", "lam", "mu"]).map(Sym))
# Trees with table reads among the leaves and many products, so that sides
# of degree 1, of degree 2 and value-dependent ones are all common.
reads = st.tuples(st.sampled_from(["f", "g"]), st.sampled_from(["x", "y"]).map(Sym)).map(
    lambda p: Apply(p[0], p[1:]))
read_trees = trees(
    st.one_of(leaves, reads),
    lambda children: st.tuples(st.sampled_from("+-*/"), children, children).map(
        lambda p: Bin(*p)),
    lambda children: st.tuples(children, children).map(lambda p: Bin("*", *p)),
)
linear_trees = read_trees.filter(lambda t: _degree(t) <= 1)


def oracle_equation(lhs, rhs):
    found = [n for side in (lhs, rhs) for n in nodes(side)]
    functions = tuple(sorted({n.func for n in found if isinstance(n, Apply)} | {"f"}))
    return Equation("oracle", "", lhs, rhs, functions, ("lam", "mu"))


@given(read_trees, read_trees, st.sampled_from(ORACLE_CARRIERS), st.data())
@settings(max_examples=300, deadline=None)
def test_generated_sides_match_the_interpreted_reference(lhs, rhs, carrier, data):
    eq = oracle_equation(lhs, rhs)
    elems = list(carrier.elements())
    values = st.integers(-9, 9)
    params = {"lam": data.draw(values), "mu": data.draw(values)}
    # Partial tables: a missing entry raises KeyError.  On a window they
    # also hold entries outside it, which the window test must keep unread.
    points = elems if isinstance(carrier, FiniteCarrier) else range(
        min(elems) - 6, max(elems) + 7)
    partial = {}
    for f in eq.functions:
        missing = data.draw(st.sets(st.sampled_from(points), max_size=3))
        table = dict(zip(points, data.draw(st.lists(values, min_size=len(points),
                                                    max_size=len(points)))))
        partial[f] = {k: v for k, v in table.items() if k not in missing}
    bindings = {f: FnTable(carrier, {e: data.draw(values) for e in elems})
                for f in eq.functions}
    try:
        got = _residual(eq, carrier, partial, params)
    except CarrierUnsupportedError as exc:
        # A carrier refused for a constant divisor gets no code, and every
        # check refuses it with the same message.
        with pytest.raises(CarrierUnsupportedError, match=re.escape(str(exc))):
            feq_check(eq, bindings, params)
        return
    want = interpreted_residual(eq, carrier, partial, params)
    for x, y in itertools.product(elems, repeat=2):
        assert outcome(got, x, y) == outcome(want, x, y)

    report = feq_check(eq, bindings, params)
    assert (report.witness, report.lhs, report.rhs, report.checked,
            report.skipped) == interpreted_report(eq, bindings, params)


@given(linear_trees, linear_trees, st.sampled_from([gf(5), gf(7)]), st.data())
@settings(max_examples=150, deadline=None)
def test_sides_of_degree_at_most_one_are_affine_in_the_tables(lhs, rhs, carrier, data):
    # What elimination's rows rely on, checked with the interpreted
    # reference: on every tuple, lhs - rhs at c*A + (1 - c)*B is the same
    # combination of its values at A and at B, and whether a tuple is
    # admissible does not depend on the tables.
    eq = oracle_equation(lhs, rhs)
    m = carrier.modulus
    residues = st.integers(0, m - 1)
    params = {"lam": data.draw(residues), "mu": data.draw(residues)}
    a, b = ({f: data.draw(st.lists(residues, min_size=m, max_size=m)) for f in eq.functions}
            for _ in range(2))
    c = data.draw(residues)
    mix = {f: [(c * u + (1 - c) * v) % m for u, v in zip(a[f], b[f])] for f in eq.functions}

    def differences(tables):
        residual = interpreted_residual(eq, carrier, tables, params)
        return [outcome(residual, x, y) for x, y in itertools.product(range(m), repeat=2)]

    for da, db, dmix in zip(differences(a), differences(b), differences(mix)):
        if da == "inadmissible":
            assert db == dmix == "inadmissible"
        else:
            assert dmix == (c * da + (1 - c) * db) % m


@given(read_trees, read_trees, st.sampled_from([gf(2), gf(3), zmod(4)]))
@settings(max_examples=40, deadline=None)
def test_solver_lists_every_table_the_interpreted_check_passes(lhs, rhs, carrier):
    eq = oracle_equation(lhs, rhs)
    m, k = carrier.modulus, len(eq.functions)
    assume(m ** (m * k) <= 729)  # tables the reference enumerates
    params = {"lam": 1, "mu": 2}
    try:
        report = feq_solve_brute(eq, eq.functions, carrier, params)
    except CarrierUnsupportedError:
        return
    want = []
    # Tables in the solver's order: lexicographic by point, then function.
    for choice in itertools.product(range(m), repeat=m * k):
        sol = tuple(FnTable(carrier, dict(enumerate(choice[i::k]))) for i in range(k))
        if interpreted_report(eq, dict(zip(eq.functions, sol)), params)[0] is None:
            want.append(sol)
    assert report.solutions == tuple(want)


# -- the generated check loop against the reference loop -----------------------


def loop_trees(variables):
    """Trees in `variables` and the parameter lam that read the table f at
    one argument and the table F at two."""
    symbols = st.sampled_from(variables + ("lam",)).map(Sym)
    leaves = st.one_of(st.integers(0, 12).map(lambda n: Num(Fraction(n))), symbols,
                       symbols.map(lambda a: Apply("f", (a,))),
                       st.tuples(symbols, symbols).map(lambda p: Apply("F", p)))
    return st.recursive(leaves, lambda children: st.one_of(
        st.tuples(st.sampled_from("+-*/"), children, children).map(lambda p: Bin(*p)),
        children.map(lambda a: Apply("f", (a,))),
        st.tuples(children, children).map(lambda p: Apply("F", p)),
        children.map(Neg),
        st.tuples(children, st.integers(-2, 3)).map(lambda p: Pow(*p)),
    ), max_leaves=10)


LOOP_CARRIERS = [gf(2), gf(5), gf(7), zmod(6), IntegerWindow(-3, 3), IntegerWindow(-2, 4)]


def loop_tables(carrier, rng, missing):
    """Random tables f and F on the carrier, and on a window six points
    beyond it, each without `missing` of its entries."""
    elems = list(carrier.elements())
    points = elems if isinstance(carrier, FiniteCarrier) else range(elems[0] - 6, elems[-1] + 7)
    tables = {"f": {x: rng.randint(-9, 9) for x in points},
              "F": {ab: rng.randint(-9, 9) for ab in itertools.product(points, repeat=2)}}
    for table in tables.values():
        for key in rng.sample(sorted(table), min(missing, len(table))):
            del table[key]
    return tables


def assert_loops_agree(eq, carrier, tables, params, tuples):
    """The generated loop and the reference loop over the interpreted sides
    give the same (witness, lhs, rhs, checked, skipped)."""
    if isinstance(carrier, FiniteCarrier):
        params = {k: v % carrier.modulus for k, v in params.items()}
    tuples = list(tuples)
    got = _loop(eq, carrier, tables, params)(tuples)
    assert got == check_tuples(*interpreted_sides(eq, carrier, tables, params), tuples)
    return got


@given(st.sampled_from([("x",), ("x", "y"), ("x", "y", "z")]).flatmap(
           lambda v: st.tuples(st.just(v), loop_trees(v), loop_trees(v))),
       st.sampled_from(LOOP_CARRIERS), st.integers(0, 3), st.booleans(), st.data())
@settings(max_examples=200, deadline=None)
def test_generated_loop_matches_the_reference_loop(equation, carrier, missing, sampled, data):
    variables, lhs, rhs = equation
    eq = Equation("loop", "", lhs, rhs, ("F", "f"), ("lam",), variables=variables)
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    tables = loop_tables(carrier, rng, missing)
    elems = list(carrier.elements())
    tuples = ([tuple(rng.choice(elems) for _ in variables) for _ in range(40)] if sampled
              else itertools.product(elems, repeat=len(variables)))
    try:
        _code(eq, carrier)
    except CarrierUnsupportedError:
        return  # refused for a constant divisor, before any tuple is run
    assert_loops_agree(eq, carrier, tables, {"lam": rng.randint(-9, 9)}, tuples)


@given(st.sampled_from([("x",), ("x", "y"), ("x", "y", "z")]).flatmap(
           lambda v: st.tuples(st.just(v), loop_trees(v), loop_trees(v))),
       st.sampled_from(LOOP_CARRIERS), st.integers(0, 3), st.integers(0, 2), st.data())
@settings(max_examples=200, deadline=None)
def test_loop_nest_matches_the_reference_loop(equation, carrier, missing, rows, data):
    # The nest runs each line in the loop of the last variable it reads, so
    # a missing entry, a missing row of F or an argument escaping a window
    # in an outer loop skips the whole subtree under it at once.
    variables, lhs, rhs = equation
    eq = Equation("nest", "", lhs, rhs, ("F", "f"), ("lam",), variables=variables)
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    tables = loop_tables(carrier, rng, missing)
    firsts = sorted({a for a, _ in tables["F"]})
    for a in rng.sample(firsts, min(rows, len(firsts))):
        tables["F"] = {ab: v for ab, v in tables["F"].items() if ab[0] != a}
    params = {"lam": rng.randint(-9, 9)}
    if isinstance(carrier, FiniteCarrier):
        params = {k: v % carrier.modulus for k, v in params.items()}
    try:
        report = _check(eq, carrier, tables, params)
    except CarrierUnsupportedError:
        return  # refused for a constant divisor, before any tuple is run
    every = itertools.product(list(carrier.elements()), repeat=len(variables))
    assert (report.witness, report.lhs, report.rhs, report.checked, report.skipped) == (
        check_tuples(*interpreted_sides(eq, carrier, tables, params), every))


@pytest.mark.parametrize("source, carrier, lam, skipped", [
    ("(1/2)*f(x) = f(y)", IntegerWindow(-3, 3), 1, 49),
    ("F(x, y) = f(x) / lam", zmod(6), 4, 36),
    ("f(x + z) * (2/4) = F(x, y)", IntegerWindow(-2, 2), 1, 125),
])
def test_generated_loop_counts_every_tuple_an_inadmissible_constant_skips(
        source, carrier, lam, skipped):
    eq = Equation.parse("const", source, params=("lam",),
                        variables=("x", "y", "z") if "z" in source else ("x", "y"))
    tables = loop_tables(carrier, random.Random(0), 0)
    elems = list(carrier.elements())
    every = itertools.product(elems, repeat=len(eq.variables))
    assert assert_loops_agree(eq, carrier, tables, {"lam": lam}, every) == (
        None, None, None, 0, skipped)
    report = _check(eq, carrier, tables, {"lam": lam})  # the nest
    assert (report.status, report.checked, report.skipped) == ("pass", 0, skipped)
    sample = [tuple(random.Random(1).choices(elems, k=len(eq.variables))) for _ in range(9)]
    assert assert_loops_agree(eq, carrier, tables, {"lam": lam}, sample)[3:] == (0, 9)


# -- the search is pinned ---------------------------------------------------------


@pytest.mark.parametrize("name, p, budget, work", [
    ("cauchy-mult", 7, 250, "251 table entries placed, 44 nodes visited"),
    ("ger-hom", 11, 500, "501 table entries placed, 49 nodes visited"),
])
def test_search_prunes_at_the_same_nodes(name, p, budget, work):
    # The nodes visited before the budget runs out count the placements
    # that per-slot pruning let through.  cauchy-mult on GF(7) places 0, 1,
    # 2, 4, 3, 5, 6, each node counting all 7 values as placed: f(0) = 0
    # with f(1) = 0 is the zero map, 8 nodes and 37 entries; f(1) = 1 takes
    # the 7 values f(2) = c at node 2; node 4, forced to c^2, passes where
    # f(1) = c^3, for c = 1, 2, 4, and then node 3 passes the two square
    # roots of c, each a leaf of forced nodes 5 and 6: 29 nodes, 167
    # entries (204).  f(0) = 1 forces f = 1 through 7 nodes and 48 entries,
    # so the whole tree is 44 nodes and 252 entries, and the 251st is
    # counted closing the root.
    with pytest.raises(BudgetError, match=f"^search over budget {budget}: {work}; "):
        feq_solve_brute(equation_by_name(name), ["f"], gf(p), budget=budget)


def placed_keys(monkeypatch, run):
    """The keys of the slots `run()` hands to `_search`, in the order the
    search places them."""
    keys = []
    search = feq._search

    def recording(slots, *args):
        keys.extend(key for _, key in slots)
        return search(slots, *args)

    monkeypatch.setattr(feq, "_search", recording)
    run()
    return keys


def solving(name, carrier):
    return lambda: feq_solve_brute(CORPUS[name], ["f"], carrier)


# cauchy-mult on GF(7): (0, y) reads f(0) on both sides and (x, 1) reads
# f(x) on both, so nothing is forced until 2 is placed; (2, 2) forces 4,
# and (2, 4), (4, 4) land on 1 and 2, so 3 is the least left; (3, 4) and
# (2, 3) force 5 and 6.  On Z/8, (2, 2) forces 4, and 2*4 = 4*4 = 0; after
# 3, (2, 3) forces 6 (3*3 = 1, 3*4 = 4), and 6 forces nothing (2*6 = 4,
# 3*6 = 2, 4*6 = 0, 6*6 = 4); after 5, (3, 5) forces 7.  The log check on
# the units of GF(7): (1, 1) and (1, y) read f(1) and f(y) twice; (2, 2)
# forces 4, 2*4 = 1; after 3, (2, 3) forces 6 and (3, 4) forces 5.
# cauchy-exp and ger-hom read f(x+y) bare: (0, y) reads f(y) twice, and
# once 1 and k are placed, (1, k) forces k + 1, so the order is the
# carrier's.
@pytest.mark.parametrize("run, order", [
    (solving("cauchy-mult", gf(7)), [0, 1, 2, 4, 3, 5, 6]),
    (solving("cauchy-mult", zmod(8)), [0, 1, 2, 4, 3, 6, 5, 7]),
    (lambda: logarithmic_zero_check(gf(7), units_only=True), [1, 2, 4, 3, 5, 6]),
    (solving("cauchy-exp", gf(7)), list(range(7))),
    (solving("ger-hom", gf(7)), list(range(7))),
], ids=["cauchy-mult-GF(7)", "cauchy-mult-Z/8", "log-units-GF(7)", "cauchy-exp-GF(7)",
        "ger-hom-GF(7)"])
def test_the_search_places_slots_in_forcing_closure_order(monkeypatch, run, order):
    assert placed_keys(monkeypatch, run) == order


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_the_slot_order_is_the_rescanned_closure_order(data):
    # Records that read 1-4 of up to 8 slots, each forcing some of the
    # slots it reads once: the order, the records filed at each position
    # and the first of them forcing its slot, against the references.
    size = data.draw(st.integers(1, 8))
    records = []
    for _ in range(data.draw(st.integers(0, 12))):
        reads = data.draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=4))
        once = sorted(s for s in reads if reads.count(s) == 1)
        records.append((reads, data.draw(st.lists(st.sampled_from(once), unique=True,
                                                  max_size=2)) if once else []))
    order, filed, forcing = feq._slot_order(
        size, [(i, reads, [(t, (-1) ** t) for t in ts]) for i, (reads, ts) in enumerate(records)])
    assert order == closure_order(size, records)
    assert filed == filed_at(order, records)
    assert forcing == [next((((-1) ** s, i) for i in at if s in records[i][1]), None)
                       for s, at in zip(order, filed)]


@pytest.mark.parametrize("p", [53, 101])
def test_cauchy_mult_on_large_primes_completes_under_the_default_budget(monkeypatch, p):
    # In the forcing-closure order the products of the units placed come
    # right after them, forced, so few slots try every value: about 10^4
    # nodes on GF(101), where carrier order exceeds the default budget.  The
    # solutions: the zero map, the constant 1, and f(0) = 0 with f a
    # homomorphism of the cyclic units into GF(p)*, p - 1 of them.
    monkeypatch.delenv("DERCALC_BUDGET", raising=False)
    assert feq_solve_brute(CORPUS["cauchy-mult"], ["f"], gf(p)).count == p + 1


def test_corpus_solutions_are_pinned():
    # Every corpus equation on GF(p), p <= 13, and on Z/4, Z/6, Z/8 and Z/9:
    # each report's status, counts and tables, or the refusal, as text.
    digest = hashlib.sha256()
    for carrier in [gf(p) for p in (2, 3, 5, 7, 11, 13)] + [zmod(n) for n in (4, 6, 8, 9)]:
        for name in sorted(CORPUS):
            eq = CORPUS[name]
            try:
                r = feq_solve_brute(eq, list(eq.functions), carrier,
                                    {"lam": 1, "mu": 1} if eq.params else None)
            except CarrierUnsupportedError as exc:
                digest.update(f"{name} {carrier}: {exc}\n".encode())
                continue
            tables = " | ".join(" ".join(" ".join(t.serialize()) for t in sol)
                                for sol in r.solutions)
            text = f"{name} {carrier}: {r.status} {r.count} {r.skipped_pairs} {tables}\n"
            digest.update(text.encode())
    assert digest.hexdigest() == (
        "31bf9a40f1d894a2e1867e067d9dbf20f2f669cf477f3e60ebab7663b1caff2c")


def test_one_equation_gives_each_carrier_table_and_binding_its_own_answer():
    eq = Equation.parse("alien-twin", CORPUS["alien-c22"].source, params=("lam", "mu"))
    carriers = [gf(5), gf(7), IntegerWindow(-4, 4)]
    tables = [lambda x: x, lambda x: x * x + 1]
    weights = [{"lam": 1, "mu": 0}, {"lam": 0, "mu": 3}]
    passes = []
    for _ in range(2):
        reports = []
        for carrier, table, params in itertools.product(carriers, tables, weights):
            bindings = {"f": FnTable.from_callable(carrier, table)}
            report = feq_check(eq, bindings, params)
            assert (report.witness, report.lhs, report.rhs, report.checked,
                    report.skipped) == interpreted_report(eq, bindings, params)
            reports.append(report)
        passes.append(reports)
    assert passes[0] == passes[1]
    # Twelve checks, ten answers: with mu = 3, x^2 + 1 fails at (0, 0)
    # with lhs 3 on every carrier.
    assert len(set(passes[0])) == 10
    assert sorted(eq.code) == [("mod", 5), ("mod", 7), ("window", -4, 4)]


def test_a_3000_term_side_is_compiled_without_hashing_the_tree(monkeypatch):
    def unhashable(node):
        raise AssertionError("a tree node was hashed")

    eq = Equation.parse("long", f"{LONG_SIDE} + f(y) = 3000*f(x) + f(y)")
    for node_type in (Apply, Bin, Neg, Num, Pow, Sym):
        monkeypatch.setattr(node_type, "__hash__", unhashable)
    report = feq_check(eq, {"f": FnTable.from_callable(gf(7), lambda x: x * x)})
    assert report.line() == "long: pass (49 pairs, 0 skipped)"
    assert list(eq.code) == [("mod", 7)]


def test_a_side_with_an_inadmissible_constant_skips_every_pair():
    eq = Equation.parse("halves", "f(x) * (3/2) = f(x)")
    report = feq_check(eq, {"f": FnTable.zero(IntegerWindow(-2, 2))})
    assert (report.checked, report.skipped) == (0, 25)
    eq = Equation.parse("scaled", "f(x) / lam = f(y)", params=("lam",))
    report = feq_check(eq, {"f": FnTable.zero(zmod(6))}, {"lam": 4})
    assert (report.checked, report.skipped) == (0, 36)
    report = feq_check(eq, {"f": FnTable.zero(zmod(6))}, {"lam": 5})
    assert (report.checked, report.skipped) == (36, 0)


# -- generated rows against the residual reader --------------------------------------


def reference_rows(eq, unknowns, carrier, params):
    """The rows read off the residual, the reference for the generated
    rows: the constant is the residual at zero tables, and the
    coefficient of each entry a tuple reads is the change in the residual
    when that entry alone is 1.  {tuple: row without zero coefficients, or
    "inadmissible"}, with unknown i's entry at e in slot e * k + i."""
    m, k = carrier.modulus, len(unknowns)
    zeros, read = feq._probe(unknowns)  # the slots read, e * k + i
    residual = _residual(eq, carrier, zeros, params)
    tables = {f: collections.defaultdict(int) for f in unknowns}
    residual_one = _residual(eq, carrier, tables, params)
    rows = {}
    for tup in itertools.product(range(m), repeat=len(eq.variables)):
        read.clear()
        try:
            const = residual(*tup)
        except Inadmissible:
            rows[tup] = "inadmissible"
            continue
        row = {feq._CONST: const}
        for s in read:
            f, x = unknowns[s % k], s // k
            tables[f][x] = 1
            row[s] = (residual_one(*tup) - const) % m
            tables[f][x] = 0
        rows[tup] = without_zeros(row)
    return rows


def without_zeros(row):
    return {s: c for s, c in row.items() if c or s == feq._CONST}


def generated_rows(eq, unknowns, carrier, params):
    """The generated row at every tuple, as `reference_rows` gives it."""
    row = _code(eq, carrier).row(carrier, params, [unknowns.index(f) for f in eq.functions])
    rows = {}
    for tup in itertools.product(range(carrier.modulus), repeat=len(eq.variables)):
        try:
            rows[tup] = without_zeros(row(*tup))
        except Inadmissible:
            rows[tup] = "inadmissible"
    return rows


@given(linear_trees, linear_trees, st.sampled_from([gf(2), gf(3), gf(5), gf(7)]), st.booleans(),
       st.data())
@settings(max_examples=200, deadline=None)
def test_generated_rows_match_the_residual_reader(lhs, rhs, carrier, swap, data):
    eq = oracle_equation(lhs, rhs)
    unknowns = eq.functions[::-1] if swap else eq.functions
    residues = st.integers(0, carrier.modulus - 1)
    params = {"lam": data.draw(residues), "mu": data.draw(residues)}
    try:
        _code(eq, carrier)
    except CarrierUnsupportedError:
        return  # refused for a constant divisor, before any row is read
    assert generated_rows(eq, unknowns, carrier, params) == reference_rows(
        eq, unknowns, carrier, params)


@pytest.mark.parametrize("source, skipped", [
    ("(f(x)/y)^0 = 1", 3),
    ("f(x) + 0*(f(y)/x) = f(x)", 3),
    ("(f(x)*f(x))^0 = 0", 0),
    ("(f(x)*f(y)/y)^0 = 1 + (f(x)^2)^0", 3),
])
def test_rows_keep_the_tuples_a_discarded_read_makes_inadmissible(source, skipped):
    # The side evaluates f(x)/y, f(y)/x or a product of reads, and
    # discards it: a power 0 is 1, a product with 0 is 0, but the tuples
    # where a divisor is 0 are still skipped.
    eq = Equation.parse("discarded", source)
    rows = generated_rows(eq, ("f",), gf(3), {})
    assert rows == reference_rows(eq, ("f",), gf(3), {})
    assert list(rows.values()).count("inadmissible") == skipped
    report = feq_solve_brute(eq, ["f"], gf(3))
    assert (report.solutions, report.skipped_pairs) == _backtrack(eq, ("f",), gf(3), {}, 10 ** 6)
    assert report.skipped_pairs == skipped


def test_one_row_code_serves_every_binding():
    eq = Equation.parse("alien-twin", CORPUS["alien-c22"].source, params=("lam", "mu"))
    carrier = gf(7)
    code = _code(eq, carrier)
    got = []
    for params in ({"lam": 0, "mu": 0}, {"lam": 3, "mu": 5}, {"lam": 0, "mu": 0}):
        rows = generated_rows(eq, ("f",), carrier, params)
        assert rows == reference_rows(eq, ("f",), carrier, params)
        got.append(rows)
    assert got[0] == got[2] == {tup: {feq._CONST: 0} for tup in got[0]}
    assert got[1] != got[0]
    # The parameters are folded when the row is bound, not compiled in.
    first, second = (code.row(carrier, params, [0]) for params in (
        {"lam": 0, "mu": 0}, {"lam": 3, "mu": 5}))
    assert first.__code__ is second.__code__


class ReferenceDegree(Arithmetic):
    """The degree as a fold of its own, the reference `_degree` is tested
    against: a value is a degree."""

    def sym(self, name: str):
        return 0

    num = sym

    def neg(self, a):
        return a

    def pow(self, a, e: int):
        if a == feq._VALUE_DEPENDENT or a and e < 0:
            return feq._VALUE_DEPENDENT
        return min(a * e, 2)

    def bin(self, op: str, a, b):
        if feq._VALUE_DEPENDENT in (a, b) or op == "/" and b:
            return feq._VALUE_DEPENDENT
        return min(a + b, 2) if op == "*" else a if op == "/" else max(a, b)

    def apply(self, func: str, *args):
        return feq._VALUE_DEPENDENT if any(args) else 1


@given(st.one_of(read_trees, loop_trees(("x", "y", "z"))))
@settings(max_examples=500, deadline=None)
def test_the_degree_is_the_reference_degree(tree):
    assert _degree(tree) == fold(tree, ReferenceDegree())


def test_every_corpus_and_cocycle_side_has_the_reference_degree():
    sides = [side for eq in [*CORPUS.values(), *CONDITIONS.values()] for side in (eq.lhs, eq.rhs)]
    assert [_degree(side) for side in sides] == [fold(side, ReferenceDegree()) for side in sides]


@pytest.mark.parametrize("source", ["f(x)*f(y)", "f(x)^2", "f(x)^-1", "1/f(x)", "f(f(x))",
                                    "(x - x)*f(x)*f(y)", "(f(x)*f(y))^0 + f(x)*f(y)"])
def test_the_row_fold_refuses_a_side_that_is_not_linear(source):
    with pytest.raises(FeqError, match="not linear"):
        feq._linear(Equation.parse("q", f"{source} = f(y)"))


# -- the search step against the per-value search ------------------------------------


def carrier_order(size, records):
    """The slots in carrier order: a reference order, in which the search
    must list the same solutions as in any other."""
    return list(range(size))


def closure_order(size, records):
    """The forcing-closure order, found by rescanning: after each
    placement, a record (reads, forced) whose reads other than a slot in
    `forced` are all placed forces that slot; the least slot forced goes
    next, else the least slot not placed.  The reference for
    `feq._slot_order`."""
    order = []
    while len(order) < size:
        forced = [t for reads, ts in records for t in ts
                  if t not in order and all(s in order for s in reads if s != t)]
        order.append(min(forced) if forced else min(set(range(size)) - set(order)))
    return order


def filed_at(order, records):
    """Per position of `order`, the indices of the records (reads, ...)
    whose last slot read is placed there, in the records' order."""
    position = {s: k for k, s in enumerate(order)}
    filed = [[] for _ in order]
    for i, (reads, *_) in enumerate(records):
        filed[max(position[s] for s in reads)].append(i)
    return filed


def per_value_search(slots, order, n, holds, record, budget, trace):
    """The search as it placed one value at a time at slots[order[0]],
    slots[order[1]], ... and checked the value at position k with
    `holds(k)`: the reference for `_search`.  `trace` gets the nodes
    visited at each placement.  The leaves, as `record()` returns them,
    come sorted."""
    solutions = []
    placed = visited = 0

    def assign(k):
        nonlocal placed, visited
        visited += 1
        if k == len(order):
            solutions.append(record())
            return
        table, key = slots[order[k]]
        for v in range(n):
            placed += 1
            trace.append(visited)
            if placed > budget:
                raise BudgetError(
                    f"search over budget {budget}: {placed} table entries placed, "
                    f"{visited} nodes visited; raise it with --budget or DERCALC_BUDGET")
            table[key] = v
            if holds(k):
                assign(k + 1)
        del table[key]

    assign(0)
    return sorted(solutions)


def per_value_backtrack(eq, unknowns, carrier, params, budget, trace, order):
    """`_backtrack` on the per-value search, the slots placed in the order
    `order(size, records)` gives for the records (reads, forced) of the
    tuples: slot k holds where the check loop passes the tuples whose last
    entry read is placed at k.  A tuple forces the entry a bare side f(arg)
    reads, where it reads that entry nowhere else."""
    elems = list(carrier.elements())
    slots = [(f, e) for e in elems for f in unknowns]
    partial = {f: {} for f in unknowns}
    check = _loop(eq, carrier, partial, params)
    skipped_pairs = 0
    every = list(itertools.product(elems, repeat=len(eq.variables)))
    if _code(eq, carrier).degree == feq._VALUE_DEPENDENT:
        places = carrier_order(len(slots), [])
        tuples_at = [every] * len(slots)
    else:
        slot_index = {fe: i for i, fe in enumerate(slots)}
        bare = [(side.func, compiled(side.args[0], carrier, eq.variables))
                for side in (eq.lhs, eq.rhs) if isinstance(side, Apply)]
        records, tuples, pending = [], [], []
        zeros, points = feq._probe(unknowns)
        probe = _residual(eq, carrier, zeros, params)
        for tup in every:
            points.clear()
            try:
                probe(*tup)
            except Inadmissible:
                skipped_pairs += 1
                continue
            if not points:
                pending.append(tup)
                continue
            keys = [slot_index[f, arg(*tup)] for f, arg in bare]
            records.append((points[:], [key for key in keys if points.count(key) == 1]))
            tuples.append(tup)
        if check(pending)[0] is not None:
            return (), skipped_pairs
        places = order(len(slots), records)
        tuples_at = [[tuples[i] for i in filed] for filed in filed_at(places, records)]
    k = len(unknowns)
    solutions = per_value_search(
        [(partial[f], e) for f, e in slots], places, carrier.modulus,
        lambda i: check(tuples_at[i])[0] is None,
        lambda: tuple(partial[f][e] for f, e in slots), budget, trace)
    return tuple(tuple(FnTable(carrier, dict(zip(elems, entries[i::k]))) for i in range(k))
                 for entries in solutions), skipped_pairs


def log_pairs(carrier):
    """The units, and each pair x <= y of them with x*y and its record
    (reads, forced) by unit index: the pair forces x*y unless x*y is x or
    y."""
    units, m = carrier.units(), carrier.modulus
    slot = {u: k for k, u in enumerate(units)}
    pairs = [(x, y, x * y % m) for x, y in itertools.combinations_with_replacement(units, 2)]
    return units, pairs, [((slot[x], slot[y], slot[xy]), [] if xy in (x, y) else [slot[xy]])
                          for x, y, xy in pairs]


def per_value_log_zero(carrier, budget, trace, order):
    """The units-only solutions of `logarithmic_zero_check` on the per-value
    search, the units placed in the order `order` gives, each pair x <= y
    checked when the last of x, y, xy is placed."""
    units, pairs, records = log_pairs(carrier)
    n = len(units)
    places = order(n, records)
    pairs_at = [[pairs[i] for i in filed] for filed in filed_at(places, records)]
    table = {}

    def holds(k):
        return all(table[xy] == (table[x] + table[y]) % n for x, y, xy in pairs_at[k])

    solutions = per_value_search([(table, u) for u in units], places, n, holds,
                                 lambda: tuple(table[u] for u in units), budget, trace)
    return tuple(dict(zip(units, entries)) for entries in solutions)


class Unbounded:
    """A budget that no count of entries placed exceeds.  `_search` asks
    whether `count > budget`, which Python answers with `budget < count`;
    each count is recorded with the nodes visited then."""

    def __init__(self, visits):
        self.visits, self.counts = visits, []

    def __lt__(self, count):
        self.counts.append((count, self.visits[0]))
        return False


def traced(monkeypatch, trace):
    """Runs every later `_search` without a budget, and appends to `trace`
    the nodes visited at each placement, as `per_value_search` does.  Each
    node visited calls `values` or, at a leaf, `record` once."""
    search = feq._search

    def run(slots, n, values, record, budget):
        visits = [0]

        def counted(fn):
            def call(*args):
                visits[0] += 1
                return fn(*args)
            return call

        unbounded = Unbounded(visits)
        solutions = search(slots, n, counted(values), counted(record), unbounded)
        placed = 0
        for count, visited in unbounded.counts:
            trace.extend([visited] * (count - placed))
            placed = count
        return solutions

    monkeypatch.setattr(feq, "_search", run)


def outcome_at(run, budget):
    """What `run(budget)` returns, or the message of the BudgetError it raises."""
    try:
        return run(budget)
    except BudgetError as err:
        return str(err)


def assert_searches_agree(monkeypatch, search, reference, samples=3):
    """`search(budget)` and `reference(budget, trace)` agree at every budget
    from 0 to the total placements: the solutions, and the message of the
    BudgetError.  Both raise at placement budget + 1, so equal traces (the
    nodes visited at each placement) give equal messages at every budget;
    where there are at most 600 placements every budget is run, and
    elsewhere `samples` drawn budgets and the total."""
    want_trace = []
    want = reference(10 ** 12, want_trace)
    trace = []
    with monkeypatch.context() as patch:
        traced(patch, trace)
        assert search(10 ** 12) == want
    assert trace == want_trace
    total = len(want_trace)
    budgets = (range(total + 1) if total <= 600 else
               sorted(random.Random(total).sample(range(total), samples)) + [total])
    for budget in budgets:
        got = outcome_at(search, budget)
        assert got == outcome_at(lambda b: reference(b, []), budget)
        assert got == (want if budget == total else
                       f"search over budget {budget}: {budget + 1} table entries placed, "
                       f"{want_trace[budget]} nodes visited; raise it with --budget or "
                       f"DERCALC_BUDGET")


# Each branch of the forcing rule (`_backtrack`): a bare read on the right;
# a linear equation, which the search takes on zmod; two unknowns; another
# side that raises at some tuples; another side that reads the bare read's
# entry at every tuple, so nothing is forced; a value-dependent equation
# with a bare read, never forced.  (f(x*y) = f(x*y)*f(1) and f(f(x)) = f(x)
# show the last two as well, but have over 11^10 solutions on GF(11) and
# 41,393 on Z/8.)
FORCING = ["f(x)*f(y) = f(x*y)", "f(x) + f(y) = f(x + y)", "f(x*y) = g(x)*g(y)",
           "f(x*y) = f(x)/y", "f(x*y) = f(x*y)*f(1) + f(x) - f(y)", "f(x + f(y)) = f(x) + y"]


@pytest.mark.parametrize("name, carrier", [
    pytest.param(name, carrier, id=f"{name}-{carrier}")
    for names, carriers in [
        (["cauchy-mult", "cauchy-exp", "ger-hom", "hosszu", "0 = 0", "x = y", "x*y = y*x"],
         [gf(5), gf(7), zmod(4), zmod(6), zmod(8), zmod(9)]),
        (FORCING, [gf(5), gf(7), gf(11), zmod(4), zmod(6), zmod(8), zmod(9)])]
    for name in names for carrier in carriers])
def test_search_step_matches_the_per_value_search(monkeypatch, name, carrier):
    # "0 = 0", "x = y" and "x*y = y*x" read no entry and have no slot to
    # search; "x = y" fails at some tuple on every table, so has no solution.
    eq = CORPUS[name] if name in CORPUS else Equation.parse("none", name)
    unknowns = eq.functions
    assert_searches_agree(
        monkeypatch, lambda budget: _backtrack(eq, unknowns, carrier, {}, budget),
        lambda budget, trace: per_value_backtrack(eq, unknowns, carrier, {}, budget, trace,
                                                  closure_order))
    # The order changes the search tree, not the solutions listed.
    assert (per_value_backtrack(eq, unknowns, carrier, {}, 10 ** 12, [], carrier_order)
            == _backtrack(eq, unknowns, carrier, {}, 10 ** 12))


@pytest.mark.parametrize("source", ["f(x*y) = f(x) * f(y)", "f(x)*f(y) = f(x*y)"],
                         ids=["cauchy-mult", "right-bare"])
def test_a_forced_slot_tries_one_value(monkeypatch, source):
    # f(x*y) = f(x) * f(y) on GF(7), with the bare read on either side:
    # slot e is forced where x*y = e for some x, y placed before e, as the
    # other side then reads only entries placed before e.  There the one
    # value that reaches the step is the other side's, f(x) * f(y), at the
    # first such tuple.
    p = 7
    position = {e: k for k, e in enumerate([0, 1, 2, 4, 3, 5, 6])}  # pinned below
    forcing = {}
    for x, y in itertools.product(range(p), repeat=2):
        if position[x] < position[x * y % p] > position[y]:
            forcing.setdefault(x * y % p, (x, y))
    assert set(forcing) == {4, 5, 6}
    received = []
    bind = feq._Code.bind

    def recording(self, name, *args):
        function = bind(self, name, *args)
        if name != "values":
            return function

        def values(tuples, T, key, candidates):
            received.append((key, tuple(candidates), dict(T)))
            return function(tuples, T, key, candidates)
        return values

    monkeypatch.setattr(feq._Code, "bind", recording)
    report = feq_solve_brute(Equation.parse("forced", source), ["f"], gf(p))
    assert report.count == 8
    assert {key for key, _, _ in received} == set(range(p))
    for key, candidates, T in received:
        if key in forcing:
            x, y = forcing[key]
            assert candidates == (T[x] * T[y] % p,)
        else:
            assert candidates == tuple(range(p))


# The equations with a bare side, f(arg), that are not value-dependent.
BARE = [eq for eq in [*CORPUS.values(), *(Equation.parse("forcing", s) for s in FORCING)]
        if any(isinstance(side, Apply) for side in (eq.lhs, eq.rhs))
        and max(_degree(eq.lhs), _degree(eq.rhs)) != feq._VALUE_DEPENDENT]


@pytest.mark.parametrize("carrier", [gf(5), gf(7), zmod(8)], ids=str)
@pytest.mark.parametrize("eq", BARE, ids=lambda eq: eq.source)
def test_a_bare_read_is_the_first_or_last_read_of_the_residual(eq, carrier):
    # The forcing rule (`_backtrack`) finds a bare side's one read first
    # among the residual's reads when it is the left side, and last when it
    # is the right: the entry at the key the tree's argument gives, in slot
    # key * k + i for unknown i of k.
    try:
        _code(eq, carrier)
    except CarrierUnsupportedError:
        return  # jensen's division by 2 on Z/8
    zeros, points = feq._probe(eq.functions)
    probe = _residual(eq, carrier, zeros, {})
    checked = 0
    for tup in itertools.product(carrier.elements(), repeat=len(eq.variables)):
        points.clear()
        try:
            probe(*tup)
        except Inadmissible:
            continue
        for side, end in ((eq.lhs, 0), (eq.rhs, -1)):
            if isinstance(side, Apply):
                key = compiled(side.args[0], carrier, eq.variables)(*tup)
                assert points[end] == key * len(eq.functions) + eq.functions.index(side.func)
                checked += 1
    assert checked


@pytest.mark.parametrize("carrier", [zmod(8), zmod(9), zmod(10), zmod(12), gf(19)], ids=str)
def test_the_log_check_tries_one_value_at_a_forced_slot(monkeypatch, carrier):
    # A pair x <= y of units forces the slot of x*y, unless x*y is x or y,
    # once x and y are placed: only table[x] + table[y] can pass there.  A
    # node at a position whose unit is forced asks for no range of values,
    # and every other node asks for all n of them once.
    units, pairs, records = log_pairs(carrier)
    n = len(units)
    order = closure_order(n, records)
    forced = {k for k, filed in enumerate(filed_at(order, records))
              if any(order[k] in records[i][1] for i in filed)}
    assert forced and len(forced) < n
    nodes_asked = []  # [position, calls of range(n)] per node
    search = feq._search

    def counted_range(*args):
        if args == (n,) and nodes_asked:  # not the order pass, before the first node
            nodes_asked[-1][1] += 1
        return range(*args)

    def run(slots, n, values, record, budget):
        def node(k):
            nodes_asked.append([k, 0])
            return values(k)
        return search(slots, n, node, record, budget)

    monkeypatch.setattr(feq, "_search", run)
    monkeypatch.setattr(feq, "range", counted_range, raising=False)
    assert logarithmic_zero_check(carrier, units_only=True).solutions
    assert {k for k, _ in nodes_asked} == set(range(n))
    for k, asked in nodes_asked:
        assert asked == (0 if k in forced else 1), k


@pytest.mark.parametrize("m", [8, 9, 10, 12])
def test_log_zero_search_step_matches_the_per_value_search(monkeypatch, m):
    assert_searches_agree(
        monkeypatch,
        lambda budget: logarithmic_zero_check(zmod(m), units_only=True, budget=budget).solutions,
        lambda budget, trace: per_value_log_zero(zmod(m), budget, trace, closure_order))
    assert (per_value_log_zero(zmod(m), 10 ** 12, [], carrier_order)
            == logarithmic_zero_check(zmod(m), units_only=True).solutions)
