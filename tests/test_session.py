"""Session scripts: golden transcripts and failure diagnostics."""
import pathlib
import re

import pytest

from dercalc import session
from dercalc.session import (
    SessionError,
    fn2_from_expr,
    fn_from_spec,
    parse_carrier,
    run_session,
    run_session_text,
)

DATA = pathlib.Path(__file__).parent / "data"


def golden(name):
    lines, code = run_session(str(DATA / f"{name}.session"))
    expected = (DATA / f"{name}.expected").read_text().splitlines()
    return lines, code, expected


def test_square_root_script_matches_golden():
    lines, code, expected = golden("square_root")
    assert lines == expected
    assert code == 0


def test_cocycle_feq_script_matches_golden():
    lines, code, expected = golden("cocycle_feq")
    assert lines == expected
    assert code == 0


def test_jensen_failure_aborts_with_code_1():
    lines, code, expected = golden("jensen_fail")
    assert lines == expected
    assert code == 1
    # the third check never runs
    assert not any("cauchy-add" in line for line in lines)


def test_empty_script_is_a_silent_pass():
    assert run_session_text("") == ([], 0)
    assert run_session_text("\n  \n# only a comment\n") == ([], 0)


def test_comments_and_blank_lines_are_ignored():
    lines, code = run_session_text(
        "[check]  # trailing comment\n\neval 1 + 1  # two\n"
    )
    assert lines == ["1 + 1 = 2"]
    assert code == 0


def test_zero_check_failure_reports_value():
    lines, code = run_session_text("[tower]\nt: transcendental\n[check]\nzero t - 1\n")
    assert lines == ["zero t - 1: FAIL, got t - 1"]
    assert code == 1


def test_content_before_any_section_is_rejected():
    with pytest.raises(SessionError, match="line 1: content before any section"):
        run_session_text("t: transcendental\n")


def test_bad_generator_line_carries_its_number():
    with pytest.raises(SessionError, match="line 3: bad generator line"):
        run_session_text("[tower]\nt: transcendental\nnot a generator\n")


def test_transcendental_with_polynomial_is_rejected():
    with pytest.raises(SessionError, match="takes no polynomial"):
        run_session_text("[tower]\nt: transcendental t^2\n")


def test_algebraic_without_polynomial_is_rejected():
    with pytest.raises(SessionError, match="needs a minimal polynomial"):
        run_session_text("[tower]\ns: algebraic\n")


def test_tower_frozen_once_a_derivation_appears():
    text = (
        "[tower]\nt: transcendental\n"
        "[derivation d]\nd(t) = 1\n"
        "[tower]\nu: transcendental\n"
    )
    with pytest.raises(SessionError, match="generators must come before derivations"):
        run_session_text(text)


def test_derivation_lines_must_target_generators():
    text = "[tower]\nt: transcendental\n[derivation d]\ne(t) = 1\n"
    with pytest.raises(SessionError, match=r"expected 'd\(generator\) = expression'"):
        run_session_text(text)


def test_derivation_value_given_twice_names_the_second_line():
    text = "[tower]\nt: transcendental\n[derivation d]\nd(t) = 1\nd(t) = t\n[check]\neval d(t)\n"
    with pytest.raises(SessionError) as info:
        run_session_text(text)
    assert str(info.value) == "line 5: d(t) is given twice"


def test_unknown_check_command():
    with pytest.raises(SessionError, match="line 2: unknown check command"):
        run_session_text("[check]\nfrobnicate t\n")


def test_syntax_error_in_check_keeps_script_line_number():
    with pytest.raises(SessionError, match="line 4:"):
        run_session_text("[tower]\nt: transcendental\n[check]\neval t ++ 1\n")


def test_an_internal_fault_escapes_and_bad_input_still_names_its_line(monkeypatch):
    script = "[tower]\nt: transcendental\n[check]\neval t + 1\n"
    assert run_session_text(script) == (["t + 1 = t + 1"], 0)
    with pytest.raises(SessionError, match="line 4: division by"):
        run_session_text(script.replace("t + 1", "t/0"))

    def fault(*args):
        raise AttributeError("an internal fault")

    monkeypatch.setattr(session, "element_eval", fault)
    with pytest.raises(AttributeError, match="an internal fault"):
        run_session_text(script)


def test_bad_feq_parameter_clause():
    with pytest.raises(SessionError, match="bad parameter 'lam'"):
        run_session_text("[check]\nfeq alien-c22 f = zero on gf:5 with lam\n")


@pytest.mark.parametrize("clause, message", [
    ("lam=1 mu", "bad parameter 'mu': expected name=value"),
    ("lam=1 =2", "bad parameter '=2': expected name=value"),
    ("lam=1 mu=x", "bad parameter 'mu=x': expected an integer value"),
    ("lam=1.5 mu=1", "bad parameter 'lam=1.5': expected an integer value"),
])
def test_bad_feq_parameters_are_named_in_the_error(clause, message):
    with pytest.raises(SessionError) as info:
        run_session_text(f"[check]\nfeq alien-c22 f = zero on gf:5 with {clause}\n")
    assert str(info.value) == f"line 2: {message}"


@pytest.mark.parametrize("check, message", [
    ("feq cauchy-add f = 1/(x-x) on gf:5", "division by zero in expression"),
    ("cocycle pair f = 1/(x-x) on gf:5", "division by zero in expression"),
    ("feq alien-c22 f = zero on gf:5 with lam=x mu=1",
     "bad parameter 'lam=x': expected an integer value"),
])
def test_errors_in_feq_and_cocycle_checks_carry_the_line_number(check, message):
    with pytest.raises(SessionError, match=r"^line 2: " + re.escape(message)):
        run_session_text(f"[check]\n{check}\n")


@pytest.mark.parametrize("check, message", [
    ("eval d(t, t)", "'d' takes one argument, got 2"),
    ("feq cauchy-add f = f(x, x) on gf:5", "function 'f' is not allowed here"),
    ("cocycle F = F(a, b) on gf:5", "function 'F' is not allowed here"),
    ("cocycle F = a, b on gf:5", "unexpected trailing input ','"),
])
def test_two_argument_applications_in_checks_are_refused_with_the_line(check, message):
    script = f"[tower]\nt : transcendental\n[derivation d]\nd(t) = 1\n[check]\n{check}\n"
    with pytest.raises(SessionError, match=r"^line 6: .*" + re.escape(message)):
        run_session_text(script)


def test_feq_with_clause_binds_parameters():
    lines, code = run_session_text(
        "[check]\nfeq alien-c22 f = zero on gf:5 with lam=1 mu=1\n"
    )
    assert code == 0
    assert lines == ["alien-c22: pass (25 pairs, 0 skipped)"]


def test_carrier_specs_round_trip():
    assert parse_carrier("gf:7").modulus == 7
    assert parse_carrier("zmod:6").modulus == 6
    window = parse_carrier("window:-3:3")
    assert (window.lo, window.hi) == (-3, 3)
    for bad in ("gf:x", "gf:4", "window:1", "ring:5"):
        with pytest.raises(SessionError, match="bad carrier spec"):
            parse_carrier(bad)


def test_fn_from_spec_named_and_expression_forms():
    carrier = parse_carrier("gf:5")
    assert fn_from_spec("zero", carrier).values == {x: 0 for x in range(5)}
    assert fn_from_spec("parity", carrier).values == {0: 0, 1: 1, 2: 0, 3: 1, 4: 0}
    assert fn_from_spec("x^2 + 1", carrier).values == {0: 1, 1: 2, 2: 0, 3: 0, 4: 2}
    with pytest.raises(SessionError, match="bad function expression"):
        fn_from_spec("x +", carrier)


def test_fn_from_spec_requires_values_defined_on_the_carrier():
    # 1/2 is fine mod 5 (inverse 3) but meaningless on an integer window
    assert fn_from_spec("x/2", parse_carrier("gf:5")).values[1] == 3
    with pytest.raises(SessionError, match="not an integer"):
        fn_from_spec("x/2", parse_carrier("window:0:3"))


def test_finite_carrier_specs_without_division_reduce_as_they_go():
    # reduction mod m commutes with +, - and *, so these agree with the
    # exact values reduced at the end
    cases = [("3*x^5 - 2*x + 1", lambda x: 3 * x ** 5 - 2 * x + 1),
             ("-(x^2 - 4)^3*5", lambda x: -(x ** 2 - 4) ** 3 * 5),
             ("x^0 - (x - 1)*(x + 1)", lambda x: 1 - (x - 1) * (x + 1))]
    for m in (5, 6, 7):
        for spec, exact in cases:
            got = fn_from_spec(spec, parse_carrier(f"zmod:{m}")).values
            assert got == {x: exact(x) % m for x in range(m)}
    assert (fn_from_spec("x^99999999", parse_carrier("gf:5"))
            == fn_from_spec("x^3", parse_carrier("gf:5")))
    F = fn2_from_expr("a^1000001*b - 7", parse_carrier("zmod:9"))
    assert [F(a, 2) for a in range(9)] == [(pow(a, 1000001, 9) * 2 - 7) % 9 for a in range(9)]


def test_finite_carrier_specs_fall_back_to_exact_at_non_unit_divisors():
    # 5 is not a unit mod 5: (5*x)/5 is evaluated exactly, then reduced.
    assert fn_from_spec("(5*x)/5", parse_carrier("gf:5")).values == {x: x for x in range(5)}
    F = fn2_from_expr("(a^2 - b^2)/(a - b) + 1/2", parse_carrier("gf:7"))
    assert F(3, 1) == (4 + pow(2, -1, 7)) % 7
    with pytest.raises(SessionError, match="division by zero"):
        F(2, 2)
    with pytest.raises(SessionError, match=r"f\(0\): value 1/2 is not defined modulo 4"):
        fn_from_spec("x + 1/2", parse_carrier("zmod:4"))
    with pytest.raises(SessionError, match="division by zero"):
        fn_from_spec("x^-1", parse_carrier("gf:5"))
    # windows are evaluated exactly
    assert fn_from_spec("(2*x)/2 + x^2/x^2", parse_carrier("window:1:4")).values == {
        x: x + 1 for x in range(1, 5)}


def test_failing_cocycle_f_check_stops_the_script():
    text = "[check]\ncocycle F = a*a*b on window:-2:2\neval 1\n"
    lines, code = run_session_text(text)
    assert code == 1
    assert lines[0] == "cocycle F = a*a*b on window:-2:2"
    assert any("FAIL" in line for line in lines)
    assert "1 = 1" not in lines


def test_eval_line_with_a_3000_term_sum():
    expr = " + ".join(["t"] * 3000)
    lines, code = run_session_text(f"[tower]\nt : transcendental\n[check]\neval {expr}\n")
    assert code == 0
    assert lines == [f"{expr} = 3000*t"]


DEEP = "(" * 1200 + "t" + ")" * 1200


@pytest.mark.parametrize("line", [f"eval {DEEP}", f"zero {DEEP} - t"])
def test_deeply_nested_expression_is_refused_with_its_line(line):
    text = f"[tower]\nt: transcendental\n[derivation d]\nd(t) = 1\n[check]\n{line}\n"
    with pytest.raises(SessionError) as info:
        run_session_text(text)
    assert str(info.value) == "line 6: expression nested too deeply"


def test_run_prints_nesting_error_with_exit_code_2(tmp_path, capsys):
    from dercalc.cli import main

    script = tmp_path / "deep.session"
    script.write_text(f"[tower]\nt: transcendental\n[check]\neval {DEEP}\n")
    assert main(["run", str(script)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 4: expression nested too deeply\n"
