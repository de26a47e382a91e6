"""The exit-code contract: 0 pass, 1 a check failed with its witness, 2 the
input was unusable.  Each error type carries its code; fuzzed command
lines never escape `cli.main` as a traceback."""
import contextlib
import io

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


def expr(*names):
    def grow(e):
        return st.one_of(st.tuples(e, st.sampled_from("+-*/"), e).map("".join),
                         st.tuples(e, st.sampled_from(["^2", "^3", "^-1", "/0"])).map("".join),
                         e.map(lambda s: f"({s})"))

    atom = st.sampled_from(list(names) + ["0", "1", "2", "3"])
    return mostly(st.recursive(atom, grow, max_leaves=5))


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

# Each template is its fixed words, then options with their values; an
# option whose value is drawn as None is left out.
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
                                     "--values": expr("t").map(lambda e: f"1:t={e}"),
                                     "--k": small, "--expr": expr("t", "u")}),
    (("char", "decompose"), {"--f": expr("x"), "--g": expr("x"), "--carrier": carrier}),
    (("char", "alien"), {"--lam": small, "--mu": small, "--carrier": carrier}),
]


@st.composite
def argv(draw):
    words, options = draw(st.sampled_from(_TEMPLATES))
    args = list(words)
    for option, value in options.items():
        drawn = draw(value)
        if drawn is not None:
            args += [option, drawn]
    return args


@given(argv())
@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_command_lines_exit_0_1_or_2(monkeypatch, args):
    monkeypatch.setenv("DERCALC_BUDGET", "20000")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:  # argparse refusing the command line
            assert exc.code == 2, args
            return
    assert code in (0, 1, 2), args
    if code == 2:
        assert err.getvalue().startswith("error: "), (args, err.getvalue())
