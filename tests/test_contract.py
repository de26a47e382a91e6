"""The exit-code contract: 0 pass, 1 a check failed with its witness, 2 the
input was unusable.  Each error type carries its code; fuzzed command
lines never escape `cli.main` as a traceback."""
import contextlib
import io
import pathlib

from hypothesis import HealthCheck, given, settings, strategies as st

from dercalc.cli import main  # imports every module that defines an error
from dercalc.cocycle import DecompositionDefectError, NotACoboundaryError, NotACocycleError
from dercalc.exact import DercalcError
from dercalc.higher import CocycleConditionError
from dercalc.multiadd import NotPolynomialError

CHECK_FAILURES = {NotACocycleError, NotACoboundaryError, DecompositionDefectError,
                  CocycleConditionError, NotPolynomialError}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_exactly_the_check_failures_exit_1():
    errors = set(_subclasses(DercalcError))
    assert CHECK_FAILURES < errors and len(errors) > len(CHECK_FAILURES)
    assert DercalcError.exit_code == 2
    assert {cls for cls in errors if cls.exit_code == 1} == CHECK_FAILURES
    assert {cls.exit_code for cls in errors - CHECK_FAILURES} == {2}


# Spec strings are either well formed in the names a command reads, or
# drawn from generators, digits, operators and the pieces that make them
# unusable: a zero divisor, an inverse, a misplaced separator.
_TOKENS = ["t", "s", "u", "x", "y", "a", "b", "x0", "x1", "d", "f", "0", "1", "2", "3", "7",
           "+", "-", "*", "/", "^", "(", ")", "/0", "^-1", ":", ";", "=", ",", " "]
junk = st.lists(st.sampled_from(_TOKENS), max_size=8).map("".join)


def mostly(good, bad=junk):
    """`good` three times in four, `bad` otherwise."""
    return st.one_of(good, good, good, bad)


def tree(*names):
    """Well-formed expressions in the names."""
    def grow(e):
        return st.one_of(st.tuples(e, st.sampled_from("+-*/"), e).map("".join),
                         st.tuples(e, st.sampled_from(["^2", "^3", "^-1", "/0"])).map("".join),
                         e.map(lambda s: f"({s})"))

    atom = st.sampled_from(list(names) + ["0", "1", "2", "3"])
    return st.recursive(atom, grow, max_leaves=5)


def expr(*names):
    return mostly(tree(*names))


small = st.integers(-2, 4).map(str)
tower = mostly(st.one_of(st.sampled_from(["t:trans", "t:trans;s:alg:s^2 - t", "s:alg:s^2 - 2"]),
                         expr("t").map(lambda e: f"t:trans;s:alg:s^2 - {e}")))
der = st.one_of(expr("t", "s").map(lambda e: f"d(t)={e}"),
                st.tuples(expr("t"), expr("t")).map(lambda e: "d(t)={};d(s)={}".format(*e)))
carrier = mostly(st.sampled_from(["gf:2", "gf:3", "gf:5", "gf:7", "zmod:4", "window:-2:2"]),
                 junk.map(lambda s: "gf:" + s))
window = mostly(st.sampled_from(["1:3", "-2:2", "0:0"]))
equation = st.sampled_from(["cauchy-add", "leibniz", "jensen", "alien-c22", "hosszu",
                            "cauchy-log", "nope"])
params = st.one_of(st.none(), mostly(st.sampled_from(["lam=1,mu=2", "all-units"])))
vector = mostly(st.lists(small, min_size=2, max_size=2).map(",".join))
ratio = st.sampled_from(["0", "1", "-2", "1/2", "3", "-5/3"])
rational = mostly(ratio)
der2 = der.map(lambda spec: spec.replace("d(", "e("))
point = expr("t", "s", "d(t)")
tensor = mostly(st.sampled_from(["(0)=1", "(0)=1;(1)=-1", "(0,0)=1;(0,1)=2", "(1,1)=3",
                                 "(0,0,0)=1", "(0,1)=1/2;(1,1)=1"]))
hod_values = expr("t").map(lambda e: f"1:t={e}")
# A table file of order 4 whose (2,2) entry breaks the cocycle condition.
REM1 = str(pathlib.Path(__file__).parent / "data" / "rem1_table.txt")
gamma = {"--n": small, "--table": mostly(st.just(REM1), st.just(REM1 + ".missing"))}


class Script(str):
    """The text of a session script, given on the command line as the path
    of a file that holds it."""


check = mostly(st.one_of(
    point.map(lambda e: f"eval {e}"),
    point.map(lambda e: f"zero {e}"),
    st.tuples(expr("x"), carrier).map(lambda p: "cocycle pair f = {} on {}".format(*p)),
    st.tuples(equation, expr("x"), carrier).map(lambda p: "feq {} f = {} on {}".format(*p))))
script = st.tuples(
    mostly(st.sampled_from(["[tower]\nt: transcendental",
                            "[tower]\nt: transcendental\ns: algebraic s^2 - t"])),
    mostly(st.sampled_from(["[derivation d]\nd(t) = 1", "[derivation d]\nd(t) = t"])),
    st.lists(check, max_size=4),
).map(lambda parts: Script("\n".join([*parts[:2], "[check]", *parts[2]])))

# The options each kind of `der residual` reads, their well-formed values
# on Q(t), and any values.
_RESIDUAL_READS = {"leibniz": ("--u", "--v"), "power": ("--k", "--x"),
                   "monomial": ("--n", "--m", "--x", "--der2", "--slope2"),
                   "mobius": ("--a", "--b", "--c", "--dd", "--n", "--x"),
                   "reflect": ("--x",), "square": ("--x",), "nhom": ("--n", "--x")}
_WELL_FORMED = {"--u": tree("t", "d(t)"), "--v": tree("t", "d(t)"), "--x": tree("t", "d(t)"),
                "--k": small, "--n": small, "--m": small,
                "--a": ratio, "--b": ratio, "--c": ratio, "--dd": ratio,
                "--der2": st.one_of(st.none(), tree("t").map(lambda e: f"e(t)={e}")),
                "--slope2": st.one_of(st.none(), ratio)}
_ANY = {"--u": point, "--v": point, "--x": point, "--k": small, "--n": small, "--m": small,
        "--a": rational, "--b": rational, "--c": rational, "--dd": rational,
        "--der2": der2, "--slope2": rational}


def residual_templates(kind):
    """The kind on Q(t) with well-formed values of the options it reads, and
    on any tower with any of all the options."""
    words = ("der", "residual", kind)
    yield words, {"--tower": st.just("t:trans"), "--der": tree("t").map(lambda e: f"d(t)={e}"),
                  "--slope": st.one_of(st.none(), ratio),
                  **{o: _WELL_FORMED[o] for o in _RESIDUAL_READS[kind]}}
    yield words, {"--tower": tower, "--der": der, "--slope": st.one_of(st.none(), rational),
                  **{o: st.one_of(st.none(), v) for o, v in _ANY.items()}}


# Each template is its fixed words, then options with their values; an
# option whose value is drawn as None is left out, and the option None
# stands for a positional argument.
_TEMPLATES = [
    (("tower", "show"), {"--spec": tower, "--expr": expr("t", "s")}),
    (("der", "eval"), {"--tower": tower, "--der": der, "--expr": expr("t", "s")}),
    (("der", "iterate"), {"--tower": tower, "--der": der, "--k": small,
                          "--expr": expr("t", "s")}),
    (("feq", "check"), {"--eq": equation, "--f": expr("x"), "--carrier": carrier,
                        "--params": params}),
    (("feq", "solve"), {"--eq": equation, "--carrier": carrier, "--params": params}),
    (("cocycle", "verify"), {"--f": expr("x"), "--carrier": carrier}),
    (("cocycle", "verify"), {"--F": expr("a", "b"), "--carrier": carrier}),
    (("cocycle", "ld-check"), {"--D": expr("a", "b"), "--carrier": carrier}),
    (("cocycle", "primitive"), {"--F": expr("a", "b"), "--window": window, "--f1": small}),
    (("cocycle", "extend"), {"--F": expr("a", "b"), "--window": window}),
    (("multi", "delta"), {"--f": expr("x0", "x1"), "--dim": small,
                          "--ys": st.tuples(vector, vector).map("|".join), "--x": vector}),
    (("multi", "recover"), {"--f": expr("x0", "x1"), "--n": small, "--dim": small}),
    (("hod", "eval", "--binomial"), {"--n": small, "--vars": st.sampled_from(["t", "t,u"]),
                                     "--values": hod_values,
                                     "--k": small, "--expr": expr("t", "u")}),
    (("char", "decompose"), {"--f": expr("x"), "--g": expr("x"), "--carrier": carrier}),
    (("char", "alien"), {"--lam": small, "--mu": small, "--carrier": carrier}),
    *(t for kind in _RESIDUAL_READS for t in residual_templates(kind)),
    (("der", "bracket"), {"--tower": tower, "--der": der, "--der2": der2,
                          "--expr": st.one_of(st.none(), expr("t", "s"))}),
    (("der", "rank"), {"--tower": tower, "--der": der, "--k": small,
                       "--points": st.lists(expr("t", "s"), min_size=1, max_size=3).map(",".join),
                       "--subst": st.one_of(st.none(), mostly(st.sampled_from(["t=2", "t=0"])))}),
    (("cocycle", "diff"), {"--kind": st.sampled_from(["cauchy", "leibniz"]), "--f": expr("x"),
                           "--carrier": carrier}),
    (("multi", "trace"), {"--arity": small, "--dim": small, "--tensor": tensor, "--x": vector}),
    (("multi", "polarize"), {"--arity": small, "--dim": small, "--tensor": tensor,
                             "--ys": st.tuples(vector, vector).map("|".join), "--x": vector}),
    (("multi", "binomial"), {"--arity": small, "--dim": small, "--tensor": tensor,
                             "--x": vector, "--y": vector}),
    (("hod", "gamma-check"), gamma),
    (("hod", "gamma-check", "--binomial"), {"--n": small}),
    (("hod", "gamma-factor"), gamma),
    (("hod", "gamma-factor", "--ones"), {"--n": small}),
    (("hod", "construct", "--binomial"), {"--n": small, "--vars": st.sampled_from(["t", "t,u"]),
                                          "--values": hod_values, "--grid": small,
                                          "--choice": st.one_of(st.none(), mostly(
                                              st.sampled_from(["t=0", "t=1", "u=t"])))}),
    (("hod", "residual", "--binomial"), {"--n": small, "--vars": st.sampled_from(["t", "t,u"]),
                                         "--values": hod_values, "--k": small,
                                         "--p": expr("t", "u"), "--q": expr("t", "u")}),
    (("run",), {None: script}),
]


@st.composite
def argv(draw):
    words, options = draw(st.sampled_from(_TEMPLATES))
    args = list(words)
    for option, value in options.items():
        drawn = draw(value)
        if drawn is not None:
            args += [drawn] if option is None else [option, drawn]
    return args


@given(argv())
@settings(max_examples=700, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_command_lines_exit_0_1_or_2(monkeypatch, tmp_path, args):
    monkeypatch.setenv("DERCALC_BUDGET", "20000")
    for i, arg in enumerate(args):
        if isinstance(arg, Script):
            args[i] = str(tmp_path / "script.session")
            pathlib.Path(args[i]).write_text(arg)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:  # argparse refusing the command line
            assert exc.code == 2, args
            return
    assert code in (0, 1, 2), args
    if code == 1:  # the witness is printed
        assert err.getvalue().startswith("check failed: ") or any(
            "FAIL" in line for line in out.getvalue().splitlines()), (args, out.getvalue())
    if code == 2:
        assert err.getvalue().startswith("error: "), (args, err.getvalue())
