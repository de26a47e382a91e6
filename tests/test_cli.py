"""Command-line surface: frozen transcripts, record mode, exit codes."""
import pathlib
import shlex
import subprocess
import sys
import time

import pytest

from dercalc.cli import main
from dercalc.session import run_session_text

DATA = pathlib.Path(__file__).parent / "data"
REM1 = str(DATA / "rem1_table.txt")

QT = "t:trans"
QTS = "t:trans;s:alg:s^2 - t"
D1 = "d(t)=1"


@pytest.fixture
def cli(capsys):
    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out.splitlines(), captured.err.splitlines()

    return run


# -- tower ---------------------------------------------------------------


def test_tower_show_describes_generators(cli):
    code, out, err = cli("tower", "show", "--spec", QTS)
    assert code == 0
    assert out == [
        "tower Q(t)(s)",
        "  t: transcendental",
        "  s: algebraic, minimal polynomial s^2 - t",
    ]
    assert err == []


def test_tower_show_simplifies_expression(cli):
    code, out, _ = cli("tower", "show", "--spec", QT, "--expr", "(t^2 - 1)/(t - 1)")
    assert code == 0
    assert out[-1] == "(t^2 - 1)/(t - 1) = t + 1"


def test_tower_bad_generator_kind_is_usage_error(cli):
    code, out, err = cli("tower", "show", "--spec", "t:bogus")
    assert code == 2
    assert out == []
    assert err == ["error: generator kind must be trans or alg, got 'bogus'"]


def test_tower_reducible_minimal_polynomial_is_usage_error(cli):
    code, out, err = cli("tower", "show", "--spec", "t:trans;s:alg:s^2 - 4")
    assert code == 2
    assert out == []
    assert err == ["error: minimal polynomial has the rational root s = 2, so it is reducible"]


# -- der -----------------------------------------------------------------


def test_der_define_reports_forced_values(cli):
    code, out, _ = cli("der", "define", "--tower", QTS, "--der", D1)
    assert code == 0
    assert out == ["d(t) = 1", "d(s) = s/(2*t) (forced)"]


def test_der_eval_text_and_records(cli):
    argv = ("der", "eval", "--tower", QT, "--der", D1,
            "--expr", "d((t^2 + 1)/(t - 1))")
    code, out, _ = cli(*argv)
    assert code == 0
    assert out == ["d((t^2 + 1)/(t - 1)) = (t^2 - 2*t - 1)/(t^2 - 2*t + 1)"]

    code, out, _ = cli("--format", "records", "der", "eval", "--tower", QT,
                       "--der", D1, "--expr", "d(1/t)")
    assert code == 0
    assert out == ["eval expr='d(1/t)' value='-1/t^2'"]


def test_der_eval_parse_error_position(cli):
    code, _, err = cli("der", "eval", "--tower", QT, "--der", D1, "--expr", "d(t^)")
    assert code == 2
    assert err == ["error: expected 'number', found ')' (line 1, column 5)"]


DEEP_INPUTS = {
    "nested": "(" * 1200 + "t" + ")" * 1200,
}


def _der_eval_subprocess(expr):
    return subprocess.run(
        [sys.executable, "-m", "dercalc.cli", "der", "eval", "--tower", QT,
         "--der", D1, "--expr", expr],
        capture_output=True, text=True,
    )


@pytest.mark.parametrize("expr", DEEP_INPUTS.values(), ids=DEEP_INPUTS.keys())
def test_der_eval_deep_input_is_usage_error(expr):
    proc = _der_eval_subprocess(expr)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: expression nested too deeply\n"


def test_der_eval_long_sum_evaluates():
    # A left-deep tree 3000 nodes deep: the parser builds it with a loop and
    # the evaluation fold uses no recursion.
    expr = " + ".join(["t"] * 3000)
    proc = _der_eval_subprocess(expr)
    assert proc.returncode == 0
    assert proc.stdout == f"{expr} = 3000*t\n"
    assert proc.stderr == ""


# A power is refused before it is built when its exponent times the size
# of its base (a degree, or a constant's bit length) exceeds the budget.
HUGE_POWERS = {"d(t^99999999)": 1, "t^99999999*0": 1, "3^99999999*0": 2}


@pytest.mark.parametrize("expr, size", HUGE_POWERS.items(), ids=HUGE_POWERS.keys())
def test_der_eval_refuses_a_power_over_the_budget(cli, monkeypatch, expr, size):
    monkeypatch.delenv("DERCALC_BUDGET", raising=False)
    assert cli("der", "eval", "--tower", QT, "--der", D1, "--expr", expr) == (2, [], [
        f"error: power ^99999999 of a base of size {size} exceeds budget 10000000; "
        "raise it with DERCALC_BUDGET"])


def test_der_eval_power_budget_follows_the_setting(cli, monkeypatch):
    monkeypatch.setenv("DERCALC_BUDGET", "20")
    assert cli("der", "eval", "--tower", QTS, "--der", D1, "--expr", "(s/t)^-10") == (
        0, ["(s/t)^-10 = t^5"], [])
    assert cli("der", "eval", "--tower", QT, "--der", D1, "--expr", "(t^2 + 1)^11") == (
        2, [], ["error: power ^11 of a base of size 2 exceeds budget 20; "
                "raise it with DERCALC_BUDGET"])
    # 0 and +-1 stay as small under any power.
    assert cli("der", "eval", "--tower", QT, "--der", D1,
               "--expr", "0^99999999 + (-1)^99999999") == (
        0, ["0^99999999 + (-1)^99999999 = -1"], [])


RESIDUAL_CASES = [
    (("power", "--k", "3", "--x", "t", "--slope", "1"), "-2*t^3"),
    (("power", "--k", "3", "--x", "t"), "0"),
    (("reflect", "--x", "t", "--slope", "1"), "2*t"),
    (("square", "--x", "t", "--slope", "1"), "-t^2"),
    (("mobius", "--a", "1", "--b", "2", "--c", "3", "--dd", "4",
      "--n", "2", "--x", "t", "--slope", "1"),
     "(3*t^4 + 14*t^2 + 8)/(9*t^4 + 24*t^2 + 16)"),
    (("monomial", "--n", "3", "--m", "1", "--x", "t"), "2*t^2"),
    (("nhom", "--n", "2", "--x", "t"), "2*t - 1"),
    (("leibniz", "--u", "t^2", "--v", "t^3"), "0"),
]


@pytest.mark.parametrize("extra,value", RESIDUAL_CASES,
                         ids=[c[0][0] + c[1] for c in RESIDUAL_CASES])
def test_der_residual_closed_forms(cli, extra, value):
    code, out, _ = cli("der", "residual", extra[0], "--tower", QT,
                       "--der", D1, *extra[1:])
    assert code == 0
    assert out == [f"residual = {value}"]


def test_der_bracket(cli):
    code, out, _ = cli("der", "bracket", "--tower", QT, "--der", D1,
                       "--der2", "e(t)=t^2", "--expr", "t")
    assert code == 0
    assert out == ["[d,e](t) = 2*t"]


def test_der_iterate_prints_all_orders(cli):
    code, out, _ = cli("der", "iterate", "--tower", QT, "--der", D1,
                       "--k", "3", "--expr", "t^3")
    assert code == 0
    assert out == [
        "d^0(t^3) = t^3",
        "d^1(t^3) = 3*t^2",
        "d^2(t^3) = 6*t",
        "d^3(t^3) = 6",
    ]


def test_der_rank(cli):
    code, out, _ = cli("der", "rank", "--tower", QT, "--der", D1, "--k", "4",
                       "--points", "t^3,t^4,t^5,t^6", "--subst", "t=2")
    assert code == 0
    assert out == ["rank = 4"]


# -- hod -----------------------------------------------------------------


def test_gamma_check_binomial_passes(cli):
    code, out, _ = cli("hod", "gamma-check", "--n", "4", "--binomial")
    assert code == 0
    assert out == ["cocycle condition: pass (order 4)"]


def test_gamma_check_tampered_table_fails(cli):
    code, out, _ = cli("hod", "gamma-check", "--n", "4", "--table", REM1)
    assert code == 1
    assert out == [
        "cocycle condition FAIL at (i,j,k)=(1,1,2): "
        "G(i+j,k)*G(i,j) = 4 but G(i,j+k)*G(j,k) = 12",
        "cocycle condition FAIL at (i,j,k)=(2,1,1): "
        "G(i+j,k)*G(i,j) = 12 but G(i,j+k)*G(j,k) = 4",
    ]


def test_gamma_check_records_mode(cli):
    code, out, _ = cli("--format", "records", "hod", "gamma-check",
                       "--n", "4", "--table", REM1)
    assert code == 1
    assert out == [
        "gamma status=fail i=1 j=1 k=2 lhs=4 rhs=12",
        "gamma status=fail i=2 j=1 k=1 lhs=12 rhs=4",
    ]


def test_gamma_sources_are_mutually_exclusive(cli):
    code, _, err = cli("hod", "gamma-check", "--n", "4", "--binomial",
                       "--table", REM1)
    assert code == 2
    assert err == ["error: pick exactly one of --binomial, --ones, --table FILE"]


def test_gamma_factor_binomial(cli):
    code, out, _ = cli("hod", "gamma-factor", "--n", "4", "--binomial")
    assert code == 0
    assert out == ["gamma = (1, 1, 2, 6, 24)"]


def test_gamma_factor_tampered_table_is_check_failure(cli):
    code, out, err = cli("hod", "gamma-factor", "--n", "4", "--table", REM1)
    assert code == 1
    assert out == []
    assert err == [
        "check failed: cocycle condition fails at (i,j,k)=(1,1,2): "
        "G(i+j,k)*G(i,j) = 4 but G(i,j+k)*G(j,k) = 12"
    ]


def test_hod_eval_matches_iterated_derivative(cli):
    code, out, _ = cli("hod", "eval", "--vars", "t", "--values", "1:t=1",
                       "--binomial", "--n", "2", "--k", "2", "--expr", "t^5")
    assert code == 0
    assert out == ["d_2(t^5) = 20*t^3"]


def test_hod_eval_of_a_high_power(cli):
    code, out, err = cli("hod", "eval", "--n", "2", "--binomial", "--vars", "t",
                         "--values", "1:t=1", "--expr", "t^2000", "--k", "2")
    assert (code, out, err) == (0, ["d_2(t^2000) = 3998000*t^1998"], [])


def test_hod_eval_refuses_work_over_the_budget(cli, monkeypatch):
    monkeypatch.delenv("DERCALC_BUDGET", raising=False)
    hod = ("hod", "eval", "--n", "2", "--binomial", "--vars", "t", "--values", "1:t=1",
           "--k", "2", "--expr")
    assert cli(*hod, "t^99999999") == (2, [], [
        "error: power ^99999999 of a base of size 1 exceeds budget 10000000; "
        "raise it with DERCALC_BUDGET"])
    # A product of powers under the budget still has too high a degree.
    assert cli(*hod, "t^5000000*t^5000000") == (2, [], [
        "error: d_2 of a polynomial of degree 10000000 exceeds budget 10000000; "
        "raise it with DERCALC_BUDGET"])


def test_hod_define_lists_system_values(cli):
    code, out, _ = cli("hod", "define", "--vars", "t,u",
                       "--values", "1:t=1;1:u=u", "--binomial", "--n", "2")
    assert code == 0
    assert out == ["d_1(t) = 1", "d_1(u) = u", "d_2(t) = 0", "d_2(u) = 0"]


def test_hod_construct_default_and_chosen_top_value(cli):
    code, out, _ = cli("hod", "construct", "--vars", "t", "--values", "1:t=1",
                       "--binomial", "--n", "2")
    assert code == 0
    assert out == [
        "d_2(t) = 0",
        "product rule verified at order 2 on monomial pairs of total degree <= 6",
    ]
    code, out, _ = cli("hod", "construct", "--vars", "t", "--values", "1:t=1",
                       "--binomial", "--n", "2", "--choice", "t=t")
    assert code == 0
    assert out[0] == "d_2(t) = t"


def test_hod_residual_zero(cli):
    code, out, _ = cli("hod", "residual", "--vars", "t", "--values", "1:t=1",
                       "--binomial", "--n", "2", "--k", "2",
                       "--p", "t^2", "--q", "t^3")
    assert code == 0
    assert out == ["residual = 0"]


# -- cocycle -------------------------------------------------------------


PAIR_REPORT = [
    "cocycle pair f = x^2 on gf:5",
    "  (alpha) pass: 25 tuples, 0 skipped",
    "  (beta) pass: 125 tuples, 0 skipped",
    "  (gamma) pass: 25 tuples, 0 skipped",
    "  (delta) pass: 125 tuples, 0 skipped",
    "  (epsilon) pass: 125 tuples, 0 skipped",
    "  (zeta) pass: 1 tuples, 0 skipped",
]


def test_cocycle_verify_pair(cli):
    code, out, _ = cli("cocycle", "verify", "--f", "x^2", "--carrier", "gf:5")
    assert code == 0
    assert out == PAIR_REPORT


def test_cocycle_verify_zero_to_a_negative_power_is_usage_error(cli):
    code, _, err = cli("cocycle", "verify", "--F", "a^-1", "--carrier", "gf:5")
    assert code == 2
    assert err == ["error: division by zero in expression"]


def test_cocycle_diff_table(cli):
    code, out, _ = cli("cocycle", "diff", "--kind", "cauchy", "--f", "x^2",
                       "--carrier", "gf:5")
    assert code == 0
    assert len(out) == 25
    assert out[0] == "0 0 0"
    assert "1 1 2" in out and "2 2 3" in out


def test_cocycle_extend_signed_window(cli):
    code, out, _ = cli("cocycle", "extend", "--F", "a*b", "--window=-10:10")
    assert code == 0
    assert out == [
        "extended to window [-10, 10]",
        "  (alpha) pass: 441 tuples, 0 skipped",
        "  (beta) pass: 5411 tuples, 3850 skipped",
    ]


def test_cocycle_extend_pair_all_axioms(cli):
    code, out, _ = cli("cocycle", "extend", "--F", "2*a*b",
                       "--G", "a*a*b*b - a*b*b - a*a*b", "--window=-10:10")
    assert code == 0
    assert out == [
        "extended to window [-10, 10]",
        "  (alpha) pass: 441 tuples, 0 skipped",
        "  (beta) pass: 5411 tuples, 3850 skipped",
        "  (gamma) pass: 441 tuples, 0 skipped",
        "  (delta) pass: 1853 tuples, 7408 skipped",
        "  (epsilon) pass: 1523 tuples, 7738 skipped",
    ]


def test_cocycle_extend_incompatible_pair_fails(cli):
    code, out, _ = cli("cocycle", "extend", "--F", "a*b", "--G", "a*a*b*b",
                       "--window=-10:10")
    assert code == 1
    assert any(line.startswith("  (delta) FAIL") for line in out)


def test_cocycle_primitive_recovers_squares(cli):
    code, out, _ = cli("cocycle", "primitive", "--F", "2*a*b",
                       "--window=-6:6", "--f1", "1")
    assert code == 0
    assert out == [f"{k} -> {k * k}" for k in range(-6, 7)]


def test_cocycle_ld_check(cli):
    code, out, _ = cli("cocycle", "ld-check", "--D=-3*a*b", "--carrier", "gf:7")
    assert code == 0
    assert out == [
        "Leibniz-difference conditions on gf:7",
        "  (symmetry) pass: 49 tuples, 0 skipped",
        "  (associator) pass: 343 tuples, 0 skipped",
        "  (additivity) pass: 343 tuples, 0 skipped",
    ]


@pytest.mark.parametrize("argv, message", [
    (["cocycle", "ld-check", "--D", "a/2", "--carrier", "zmod:4"],
     "D(1,0): value 1/2 is not defined modulo 4"),
    (["cocycle", "extend", "--F", "0", "--G", "a/2", "--window=-3:3"],
     "G(1,1): value 1/2 is not an integer"),
    (["cocycle", "extend", "--F", "a/2", "--window=-3:3"],
     "F(1,1): value 1/2 is not an integer"),
    (["cocycle", "verify", "--F", "a/2", "--carrier", "zmod:4"],
     "F(1,0): value 1/2 is not defined modulo 4"),
])
def test_an_undefined_value_names_its_map(cli, argv, message):
    code, out, err = cli(*argv)
    assert code == 2
    assert err == [f"error: {message}"]


@pytest.mark.parametrize("argv, message", [
    (["der", "eval", "--tower", QT, "--der", D1, "--expr", "d(t, t)"],
     "'d' takes one argument, got 2"),
    (["der", "eval", "--tower", QT, "--der", D1, "--expr", "d(t,)"],
     "expected an expression, found ')' (line 1, column 5)"),
    (["der", "eval", "--tower", QT, "--der", D1, "--expr", "(t, t)"],
     "expected ')', found ',' (line 1, column 3)"),
    (["feq", "check", "--eq", "cauchy-add", "--f", "f(x, x)", "--carrier", "gf:5"],
     "function 'f' is not allowed here"),
    (["cocycle", "verify", "--F", "F(a, b)", "--carrier", "gf:5"],
     "function 'F' is not allowed here"),
    (["hod", "residual", "--n", "2", "--binomial", "--vars", "x,y", "--k", "1",
      "--p", "g(x, y)", "--q", "x"],
     "function applications are not polynomials"),
])
def test_two_argument_applications_are_usage_errors(cli, argv, message):
    code, out, err = cli(*argv)
    assert (code, out) == (2, [])
    assert err == [f"error: {message}"]


# -- char ----------------------------------------------------------------


def test_char_decompose_witness_pair(cli):
    code, out, _ = cli("char", "decompose", "--f", "x^2", "--g", "3*x",
                       "--carrier", "gf:5")
    assert code == 0
    assert out == ["alpha(x) = 3*x, beta(x) = 0*x, phi = 0"]


def test_char_decompose_rejects_non_solution(cli):
    code, _, err = cli("char", "decompose", "--f", "x^2", "--g", "x",
                       "--carrier", "gf:5")
    assert code == 2
    assert err == ["error: pair does not solve the mixed equation; witness (1,1)"]


def test_char_alien_text_and_records(cli):
    code, out, _ = cli("char", "alien", "--lam", "1", "--mu", "1",
                       "--carrier", "gf:5")
    assert code == 0
    assert out == [
        "  f(0)=0, f(1)=0, f(2)=0, f(3)=0, f(4)=0",
        "solutions: 1; only zero: True; all derivations: True",
    ]
    code, out, _ = cli("--format", "records", "char", "alien", "--lam", "1",
                       "--mu", "1", "--carrier", "gf:5")
    assert code == 0
    assert out == [
        "solution table=0,0,0,0,0",
        "alien count=1 only_zero=True all_derivations=True",
    ]


def test_char_alien_answers_on_gf11_under_the_default_budget(cli):
    code, out, err = cli("char", "alien", "--lam", "1", "--mu", "1", "--carrier", "gf:11")
    assert code == 0
    assert out == ["  " + ", ".join(f"f({i})=0" for i in range(11)),
                   "solutions: 1; only zero: True; all derivations: True"]
    assert err == []


def _golden_cases(path):
    """A CLI golden file holds one case per command: "$ " and the argv
    (shell-quoted), "> " before each stdout line, "! " before each stderr
    line, and "= " and the exit code."""
    cases = []
    for line in path.read_text().splitlines():
        tag, text = line[:2], line[2:]
        if tag == "$ ":
            argv, out, err = shlex.split(text), [], []
        elif tag == "> ":
            out.append(text)
        elif tag == "! ":
            err.append(text)
        else:
            assert tag == "= ", line
            cases.append(pytest.param(argv, out, err, int(text), id=shlex.join(argv)))
    return cases


@pytest.mark.parametrize("argv, out, err, code", _golden_cases(DATA / "finite_cli.expected"))
def test_finite_carrier_commands_match_golden(cli, argv, out, err, code):
    # char, cocycle and feq commands on gf:3/5/7 and windows, text and records
    assert cli(*argv) == (code, out, err)


# -- multi ---------------------------------------------------------------


def test_multi_trace(cli):
    code, out, _ = cli("multi", "trace", "--arity", "2", "--dim", "2",
                       "--tensor", "(0,0)=1;(0,1)=2;(1,1)=3", "--x", "1,3")
    assert code == 0
    assert out == ["A*(1,3) = 40"]


def test_multi_delta_full_depth_gives_factorial(cli):
    code, out, _ = cli("multi", "delta", "--f", "x*x*x*x", "--dim", "1",
                       "--ys", "1|1|1|1", "--x", "0")
    assert code == 0
    assert out == ["delta = 24"]


def test_multi_polarize_at_and_above_arity(cli):
    code, out, _ = cli("multi", "polarize", "--arity", "2", "--dim", "1",
                       "--tensor", "(0,0)=1", "--ys", "1|2", "--x", "5")
    assert code == 0
    assert out == ["delta = 4, expected 4 (m=2, arity=2): pass"]
    code, out, _ = cli("multi", "polarize", "--arity", "2", "--dim", "1",
                       "--tensor", "(0,0)=1", "--ys", "1|2|3", "--x", "5")
    assert code == 0
    assert out == ["delta = 0, expected 0 (m=3, arity=2): pass"]


def test_multi_binomial(cli):
    code, out, _ = cli("multi", "binomial", "--arity", "2", "--dim", "2",
                       "--tensor", "(0,0)=1;(0,1)=2;(1,1)=3",
                       "--x", "1,0", "--y", "0,1")
    assert code == 0
    assert out == ["A*(x+y) = 8, expansion = 8: pass"]


def test_multi_recover_text_and_records(cli):
    argv = ("multi", "recover", "--f", "2*x*x*x - x + 5", "--n", "3", "--dim", "1")
    code, out, _ = cli(*argv)
    assert code == 0
    assert out == ["A_0: () 5", "A_1: (0) -1", "A_2: 0", "A_3: (0,0,0) 2"]

    code, out, _ = cli("--format", "records", *argv)
    assert code == 0
    assert out == [
        "component k=0 entry='() 5'",
        "component k=1 entry='(0) -1'",
        "component k=2 tensor=0",
        "component k=3 entry='(0,0,0) 2'",
    ]


def test_multi_recover_degree_mismatch_is_check_failure(cli):
    code, out, err = cli("multi", "recover", "--f", "x*x*x*x", "--n", "3",
                         "--dim", "1")
    assert code == 1
    assert out == []
    assert err[0].startswith("check failed: nonzero residual at ('-2',):")


@pytest.mark.parametrize("n", ["0", "2"])
def test_multi_recover_refuses_a_nonpositive_dimension_whatever_the_degree(cli, n):
    assert cli("multi", "recover", "--f", "x0", "--n", n, "--dim", "0") == (
        2, [], ["error: dimension must be positive"])


# -- spec strings --------------------------------------------------------


@pytest.mark.parametrize("argv, piece", [
    (("hod", "define", "--vars", "t", "--binomial", "--n", "2", "--values", "1:t"), "'1:t'"),
    (("hod", "construct", "--vars", "t", "--binomial", "--n", "2", "--values", "1:t=1",
      "--choice", "t"), "'t'"),
    (("der", "rank", "--tower", "t:trans", "--der", "d(t) = 1", "--k", "2", "--points", "t",
      "--subst", "t"), "'t'"),
    (("cocycle", "extend", "--F", "a*b", "--window", "5"), "'5': expected LO:HI"),
    (("multi", "trace", "--arity", "1", "--dim", "1", "--tensor", "(0)1", "--x", "1"),
     "'(0)1'"),
])
def test_malformed_spec_pieces_are_named(cli, argv, piece):
    code, out, err = cli(*argv)
    assert (code, out) == (2, [])
    assert len(err) == 1 and err[0].startswith("error: bad ") and piece in err[0]
    assert "unpack" not in err[0]


@pytest.mark.parametrize("kind, given, missing", [
    ("leibniz", ("--u", "t"), "--v"),
    ("power", ("--k", "2"), "--x"),
    ("monomial", (), "--n --m --x"),
    ("mobius", (), "--a --b --c --dd --n --x"),
    ("reflect", (), "--x"),
    ("square", ("--k", "2"), "--x"),
    ("nhom", ("--x", "t"), "--n"),
])
def test_der_residual_names_the_options_its_kind_needs(cli, kind, given, missing):
    assert cli("der", "residual", kind, "--tower", QT, "--der", D1, *given) == (
        2, [], [f"error: der residual {kind} needs {missing}"])


TRACE = ("multi", "trace", "--arity", "1", "--dim", "1")
RESIDUAL = ("der", "residual", "--tower", QT, "--der", D1, "--x", "t")


@pytest.mark.parametrize("bad", ["abc", "1/0"])
@pytest.mark.parametrize("argv, where", [
    (TRACE + ("--tensor", "(0)=1", "--x", "1,{}"), "--x"),
    (TRACE + ("--tensor", "(0)={}", "--x", "1"), "--tensor"),
    (("multi", "delta", "--f", "x0", "--dim", "1", "--ys", "1|{}", "--x", "1"), "--ys"),
    (("multi", "binomial", "--arity", "1", "--dim", "1", "--tensor", "(0)=1", "--x", "1",
      "--y", "{}"), "--y"),
    (("der", "rank", "--tower", QT, "--der", D1, "--k", "2", "--points", "t",
      "--subst", "t={}"), "--subst"),
    (RESIDUAL + ("power", "--k", "2", "--slope", "{}"), "--slope"),
    (RESIDUAL + ("monomial", "--n", "2", "--m", "1", "--der2", "e(t)=1", "--slope2", "{}"),
     "--slope2"),
    (RESIDUAL + ("mobius", "--a", "1", "--b", "1", "--c", "{}", "--dd", "1", "--n", "2"),
     "--c"),
])
def test_a_bad_rational_names_its_option(cli, argv, where, bad):
    argv = [a.replace("{}", bad) for a in argv]
    assert cli(*argv) == (
        2, [], [f"error: bad rational {bad!r} in {where}: expected N or N/D with D nonzero"])


@pytest.mark.parametrize("lines, error", [
    ("(0) 2\n", None),
    ("# a comment\n\n(0)1\n", "bad line '(0)1' in {} line 3: expected (I,...) VALUE"),
    ("(x) 1\n", "bad line '(x) 1' in {} line 1: expected (I,...) VALUE"),
    ("(0) abc  # value\n", "bad rational 'abc' in {} line 1: expected N or N/D with D nonzero"),
    ("\n(0) 1/0\n", "bad rational '1/0' in {} line 2: expected N or N/D with D nonzero"),
])
def test_tensor_file_lines_are_named(cli, tmp_path, lines, error):
    path = tmp_path / "tensor.txt"
    path.write_text(lines)
    code, out, err = cli(*TRACE, "--tensor", f"@{path}", "--x", "3")
    if error is None:
        assert (code, out, err) == (0, ["A*(3) = 6"], [])
    else:
        assert (code, out, err) == (2, [], ["error: " + error.format(path)])


@pytest.mark.parametrize("lines, error", [
    ("# G(1,1)\n1 1 2\n\n1 2\n", "bad line '1 2' in {} line 4: expected I J VALUE"),
    ("x 1 2\n", "bad line 'x 1 2' in {} line 1: expected I J VALUE"),
    ("1 1 abc\n", "bad rational 'abc' in {} line 1: expected N or N/D with D nonzero"),
    ("1 1 2 # G(1,1)\n1 2 1/0\n",
     "bad rational '1/0' in {} line 2: expected N or N/D with D nonzero"),
])
def test_gamma_table_lines_are_named(cli, tmp_path, lines, error):
    path = tmp_path / "gamma.txt"
    path.write_text(lines)
    assert cli("hod", "gamma-check", "--n", "2", "--table", str(path)) == (
        2, [], ["error: " + error.format(path)])


# -- feq -----------------------------------------------------------------


def test_feq_check_failure_with_witness(cli):
    argv = ("feq", "check", "--eq", "jensen", "--f", "parity",
            "--carrier", "window:-2:2")
    code, out, _ = cli(*argv)
    assert code == 1
    assert out == ["jensen: FAIL at (0, 2): lhs 1 != rhs 0 (2 pairs checked, 2 skipped)"]

    code, out, _ = cli("--format", "records", *argv)
    assert code == 1
    assert out == ["check equation=jensen status=fail witness='(0, 2)' checked=2 skipped=2"]


def test_feq_check_even_modulus_divisor_is_usage_error(cli):
    for argv in (("check", "--f", "zero"), ("check", "--f", "x"), ("solve",)):
        code, _, err = cli("feq", argv[0], "--eq", "jensen", *argv[1:], "--carrier", "zmod:4")
        assert code == 2
        assert err == ["error: constant divisor 2 is not invertible modulo 4"]


def test_feq_check_refuses_a_sample_over_the_budget(cli, monkeypatch):
    monkeypatch.delenv("DERCALC_BUDGET", raising=False)
    argv = ("feq", "check", "--eq", "cauchy-add", "--f", "5*x", "--carrier", "window:-60:60",
            "--mode", "sampled", "--sample")
    # Refused before a tuple is drawn, so neither time nor memory is spent.
    assert cli(*argv, "100000000") == (2, [], [
        "error: sample of 100000000 tuples exceeds budget 10000000; "
        "raise it with DERCALC_BUDGET"])
    monkeypatch.setenv("DERCALC_BUDGET", "100000000")
    assert cli(*argv, "1000") == (0, ["cauchy-add: pass (764 pairs, 236 skipped)"], [])


def test_cocycle_verify_refuses_a_sample_over_the_budget(cli, monkeypatch):
    monkeypatch.delenv("DERCALC_BUDGET", raising=False)
    argv = ("cocycle", "verify", "--f", "x^2", "--carrier", "window:-60:60",
            "--mode", "sampled", "--seed", "3", "--sample")
    assert cli(*argv, "100000000") == (2, [], [
        "error: sample of 100000000 tuples exceeds budget 10000000; "
        "raise it with DERCALC_BUDGET"])
    assert cli(*argv, "0") == (2, [], ["error: sampled mode needs a positive sample size"])
    code, out, err = cli(*argv, "1000")
    assert (code, out[0], out[2], err) == (
        0, "cocycle pair f = x^2 on window:-60:60", "  (beta) pass: 517 tuples, 483 skipped", [])


@pytest.mark.parametrize("params, message", [
    ("lam=1,mu", "bad parameter 'mu': expected name=value"),
    ("lam=1,mu=x", "bad parameter 'mu=x': expected an integer value"),
])
@pytest.mark.parametrize("cmd", [["check", "--f", "x"], ["solve"]], ids=["check", "solve"])
def test_feq_bad_params_name_the_bad_piece(cli, cmd, params, message):
    code, out, err = cli("feq", *cmd, "--eq", "alien-c22", "--carrier", "gf:5",
                         "--params", params)
    assert (code, out, err) == (2, [], [f"error: {message}"])


def test_feq_solve_additive_maps(cli):
    code, out, _ = cli("feq", "solve", "--eq", "cauchy-add", "--carrier", "gf:3")
    assert code == 0
    assert out == [
        "f = {0->0, 1->0, 2->0}",
        "f = {0->0, 1->1, 2->2}",
        "f = {0->0, 1->2, 2->1}",
        "cauchy-add on gf:3: 3 solutions (0 pairs skipped)",
    ]


def test_feq_solve_budget_exceeded(cli):
    code, _, err = cli("feq", "solve", "--eq", "cauchy-add", "--carrier", "gf:3",
                       "--budget", "2")
    assert code == 2
    assert err == [
        "error: 3^1 solutions exceed budget 2; raise it with --budget or DERCALC_BUDGET"]


def test_feq_solve_budget_zero_is_a_budget(cli):
    code, out, err = cli("feq", "solve", "--eq", "cauchy-add", "--carrier", "gf:3",
                         "--budget", "0")
    assert (code, out, err) == (2, [], [
        "error: 3^1 solutions exceed budget 0; raise it with --budget or DERCALC_BUDGET"])


def test_char_alien_budget_zero_is_a_budget(cli):
    code, out, err = cli("char", "alien", "--lam", "1", "--mu", "1", "--carrier", "gf:3",
                         "--budget", "0")
    assert (code, out, err) == (2, [], [
        "error: 3^0 solutions exceed budget 0; raise it with --budget or DERCALC_BUDGET"])


@pytest.mark.parametrize("command", [
    ("feq", "solve", "--eq", "cauchy-add", "--carrier", "gf:3"),
    ("char", "alien", "--lam", "1", "--mu", "1", "--carrier", "gf:3"),
])
def test_negative_budget_is_refused(cli, command):
    code, out, err = cli(*command, "--budget", "-1")
    assert (code, out, err) == (2, [], ["error: --budget must be nonnegative, got -1"])


def test_feq_solve_nonlinear_budget_counts_work(cli):
    code, _, err = cli("feq", "solve", "--eq", "cauchy-mult", "--carrier", "gf:13",
                       "--budget", "50")
    assert code == 2
    assert err == ["error: search over budget 50: 51 table entries placed, 14 nodes "
                   "visited; raise it with --budget or DERCALC_BUDGET"]


def test_feq_solve_gf11_fits_the_default_budget(cli):
    code, out, _ = cli("feq", "solve", "--eq", "cauchy-add", "--carrier", "gf:11")
    assert code == 0
    assert out[-1] == "cauchy-add on gf:11: 11 solutions (0 pairs skipped)"
    assert out[2] == "f = {0->0, 1->2, 2->4, 3->6, 4->8, 5->10, 6->1, 7->3, 8->5, 9->7, 10->9}"


def test_feq_check_huge_exponent_reduces_modulo_the_carrier(cli):
    # x^99999999 = x^3 on GF(5): 99999999 = 3 mod 4, and 0^e = 0.
    start = time.perf_counter()
    code, out, err = cli("feq", "check", "--eq", "cauchy-add", "--f", "x^99999999",
                         "--carrier", "gf:5")
    assert time.perf_counter() - start < 1
    assert (code, out, err) == cli("feq", "check", "--eq", "cauchy-add", "--f", "x^3",
                                   "--carrier", "gf:5")
    assert code == 1


def test_feq_check_huge_exponent_over_a_unit_divisor(cli):
    # 2 is a unit mod 5, so x^99999999/2 is evaluated modulo 5 as x^3/2.
    start = time.perf_counter()
    code, out, err = cli("feq", "check", "--eq", "cauchy-add", "--f", "x^99999999/2",
                         "--carrier", "gf:5")
    assert time.perf_counter() - start < 1
    assert (code, out, err) == cli("feq", "check", "--eq", "cauchy-add", "--f", "x^3/2",
                                   "--carrier", "gf:5")
    assert out == ["cauchy-add: FAIL at (1, 1): lhs 4 != rhs 1 (7 pairs checked, 0 skipped)"]


@pytest.mark.parametrize("argv", [
    ("feq", "check", "--eq", "cauchy-add", "--f", "x^99999999", "--carrier", "window:-3:3"),
    ("multi", "delta", "--dim", "1", "--f", "x^99999999", "--ys", "1", "--x", "3"),
], ids=["feq-window", "multi-delta"])
def test_exact_rational_powers_are_refused_over_the_budget(cli, monkeypatch, argv):
    # On a window, and in multi, x^99999999 is evaluated exactly; 2^99999999
    # is refused before it is built.
    monkeypatch.delenv("DERCALC_BUDGET", raising=False)
    assert cli(*argv) == (2, [], [
        "error: power ^99999999 of a base of size 2 exceeds budget 10000000; "
        "raise it with DERCALC_BUDGET"])


def test_feq_list_is_sorted_and_complete(cli):
    code, out, _ = cli("feq", "list")
    assert code == 0
    assert len(out) == 11
    assert out == sorted(out)
    assert out[0].startswith("alien-c22:")
    assert "jensen: f((x+y)/2) = (f(x) + f(y)) / 2" in out


# -- run -----------------------------------------------------------------


def test_run_session_golden_transcript(cli):
    code, out, _ = cli("run", str(DATA / "square_root.session"))
    assert code == 0
    assert out == (DATA / "square_root.expected").read_text().splitlines()


def test_run_session_records_mode(cli):
    code, out, _ = cli("--format", "records", "run", str(DATA / "square_root.session"))
    assert code == 0
    assert out == [
        "session line='d(s) = s/(2*t)'",
        "session line='d(1/t) = -1/t^2'",
        "session line='zero d(s^2) - 1: pass'",
        "session line='zero d(s)*2*s - 1: pass'",
    ]


FRONT_END_PAIRS = {
    "eval": ("[tower]\nt : transcendental\ns : algebraic s^2 - t\n"
             "[derivation d]\nd(t) = 1\n[check]\neval d(s/t + 1/s)",
             ["der", "eval", "--tower", QTS, "--der", D1, "--expr", "d(s/t + 1/s)"]),
    "cocycle-pair": ("[check]\ncocycle pair f = x^3 + 2*x on gf:5",
                     ["cocycle", "verify", "--f", "x^3 + 2*x", "--carrier", "gf:5"]),
    "cocycle-F": ("[check]\ncocycle F = a*b + 1 on window:-3:3",
                  ["cocycle", "verify", "--F", "a*b + 1", "--carrier", "window:-3:3"]),
    "feq-params": ("[check]\nfeq alien-c22 f = 2*x on gf:5 with lam=1 mu=2",
                   ["feq", "check", "--eq", "alien-c22", "--f", "2*x", "--carrier", "gf:5",
                    "--params", "lam=1,mu=2"]),
}


@pytest.mark.parametrize("script, argv", FRONT_END_PAIRS.values(), ids=FRONT_END_PAIRS.keys())
def test_session_check_prints_what_its_cli_command_prints(cli, script, argv):
    lines, session_code = run_session_text(script)
    code, out, err = cli(*argv)
    assert (lines, session_code) == (out, code)
    assert err == []


def test_run_failing_session_exits_1(cli):
    code, out, _ = cli("run", str(DATA / "jensen_fail.session"))
    assert code == 1
    assert out == (DATA / "jensen_fail.expected").read_text().splitlines()


def test_run_empty_script_is_silent_pass(cli, tmp_path):
    empty = tmp_path / "empty.session"
    empty.write_text("")
    code, out, err = cli("run", str(empty))
    assert code == 0
    assert out == []
    assert err == []


def test_run_missing_file_is_usage_error(cli):
    code, _, err = cli("run", "/nonexistent/file.session")
    assert code == 2
    assert err[0].startswith("error: ")


def test_module_is_executable():
    proc = subprocess.run(
        [sys.executable, "-m", "dercalc.cli", "feq", "list"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "cauchy-add" in proc.stdout
