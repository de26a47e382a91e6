"""Brute-force functional equation checking and solving on finite carriers."""

import pytest
from hypothesis import given, settings, strategies as st

from dercalc.exact import BudgetError, IntegerWindow, gf, zmod
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
    _Nonlinear,
    _backtrack,
    _eliminate,
)
from dercalc import feq


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


def test_check_rejects_mixed_carriers():
    eq = Equation.parse("two", "f(x) = g(x)")
    with pytest.raises(FeqError):
        feq_check(eq, {"f": FnTable.zero(gf(3)), "g": FnTable.zero(gf(5))})


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
    with pytest.raises(CarrierUnsupportedError):
        feq_check(eq, {"f": FnTable.zero(zmod(4))})


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
    with pytest.raises(BudgetError, match=r"^11\^2 solutions exceed budget 120$"):
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
    for budget, placed, visited in ((20, 21, 7), (100, 101, 22)):
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
        assert list(logarithmic_zero_check(gf(p), units_only=True).solutions) == homs


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


def test_feq_check_with_a_3000_term_side():
    eq = Equation.parse("long", f"{LONG_SIDE} + f(y) = 3000*f(x) + f(y)")
    report = feq_check(eq, {"f": FnTable.from_callable(gf(7), lambda x: x * x)})
    assert report.line() == "long: pass (49 pairs, 0 skipped)"
    wrong = Equation.parse("wrong", f"{LONG_SIDE} = 2999*f(x)")
    report = feq_check(wrong, {"f": FnTable.from_callable(gf(7), lambda x: x)})
    assert report.witness == (1, 0)


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
    assert _eliminate(eq, tuple(unknowns), carrier, params, 10 ** 30) == want
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


def test_nonlinear_equations_stay_on_backtracking():
    for name in ("cauchy-exp", "cauchy-mult", "ger-hom"):
        with pytest.raises(_Nonlinear):
            _eliminate(equation_by_name(name), ("f",), gf(5), {}, 10 ** 30)
    for src in ("f(f(x)) = x", "f(x)^2 = f(y)^2", "x*f(y) = f(x)*f(y)"):
        with pytest.raises(_Nonlinear):
            _eliminate(Equation.parse("q", src), ("f",), gf(3), {}, 10 ** 30)
    assert feq_solve_brute(equation_by_name("cauchy-mult"), ["f"], gf(5)).count == 6
    assert feq_solve_brute(equation_by_name("cauchy-mult"), ["f"], gf(7)).count == 8


def test_value_dependent_and_composite_carriers_skip_elimination(monkeypatch):
    def unused(*args):
        raise AssertionError("elimination attempted")

    monkeypatch.setattr(feq, "_eliminate", unused)
    selfdiv = Equation.parse("selfdiv", "x / f(y) = x / f(y)")
    assert feq_solve_brute(selfdiv, ["f"], gf(3)).count == 27
    report = feq_solve_brute(equation_by_name("cauchy-add"), ["f"], zmod(6))
    assert (report.count, report.skipped_pairs) == (6, 0)
