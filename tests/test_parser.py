"""Expression grammar: parse/print round trip, precedence, error positions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dercalc.exact import Inadmissible, gf
from dercalc.feq import Equation, _Code
from dercalc.parser import (
    Apply,
    Arithmetic,
    Bin,
    MAX_NESTING,
    DercalcSyntaxError,
    NestingError,
    Neg,
    Num,
    Pow,
    Sym,
    compiled,
    fold,
    nodes,
    parse_equation,
    parse_expr,
    to_text,
)

names = st.sampled_from(["x", "y", "t", "u", "f", "g", "phi", "a2"])
numbers = st.integers(0, 99).map(lambda n: Num(Fraction(n)))


def tree_strategy(names, exponents=st.integers(-4, 6), functions=True, max_args=2):
    def extend(children):
        arguments = st.lists(children, min_size=1, max_size=max_args).map(tuple)
        shapes = [
            children.map(Neg),
            st.tuples(children, exponents).map(lambda p: Pow(*p)),
            st.tuples(names, arguments).map(lambda p: Apply(*p)),
            st.tuples(st.sampled_from("+-*/"), children, children).map(
                lambda p: Bin(*p)
            ),
        ]
        if not functions:
            del shapes[2]
        return st.one_of(shapes)

    return st.recursive(st.one_of(numbers, names.map(Sym)), extend, max_leaves=25)


trees = tree_strategy(names)
unary_trees = tree_strategy(names, max_args=1)
# Function-free trees in x and y, with exponents small enough that the exact
# rational value of a nested power stays cheap.
xy_trees = tree_strategy(st.sampled_from(["x", "y"]), st.integers(-2, 2), functions=False)


@given(trees)
@settings(max_examples=500, deadline=None)
def test_print_parse_round_trip(tree):
    assert parse_expr(to_text(tree)) == tree


def old_text(node) -> str:
    """A fully parenthesised rendering in the grammar before argument
    lists, where a function took one argument and no comma existed."""
    if isinstance(node, Apply):
        (arg,) = node.args
        return f"{node.func}({old_text(arg)})"
    if isinstance(node, (Num, Sym)):
        return to_text(node)
    if isinstance(node, Neg):
        inner = old_text(node.operand)
        return f"-({inner})" if isinstance(node.operand, Bin) else f"-{inner}"
    if isinstance(node, Pow):
        base = old_text(node.base)
        return f"{base}^{node.exponent}" if isinstance(node.base, (Num, Sym, Apply)) \
            else f"({base})^{node.exponent}"
    return f"({old_text(node.left)}) {node.op} ({old_text(node.right)})"


@given(unary_trees)
@settings(max_examples=300, deadline=None)
def test_one_argument_trees_parse_as_before(tree):
    # One-argument applications print without a comma, and both renderings
    # parse back to one-argument applications.
    text = to_text(tree)
    assert "," not in text
    assert parse_expr(text) == tree
    assert parse_expr(old_text(tree)) == tree
    assert all(len(n.args) == 1 for n in nodes(tree) if isinstance(n, Apply))


@given(trees)
@settings(max_examples=100, deadline=None)
def test_rendering_is_stable(tree):
    assert to_text(parse_expr(to_text(tree))) == to_text(tree)


def test_precedence_layers():
    assert parse_expr("a + b * c") == Bin(
        "+", Sym("a"), Bin("*", Sym("b"), Sym("c"))
    )
    assert parse_expr("-t^2") == Neg(Pow(Sym("t"), 2))
    assert parse_expr("2*t^3") == Bin("*", Num(Fraction(2)), Pow(Sym("t"), 3))


def test_left_associativity():
    assert parse_expr("a - b - c") == Bin("-", Bin("-", Sym("a"), Sym("b")), Sym("c"))
    assert parse_expr("a / b / c") == Bin("/", Bin("/", Sym("a"), Sym("b")), Sym("c"))


def test_negative_exponent_and_parenthesised_base():
    assert parse_expr("t^-2") == Pow(Sym("t"), -2)
    assert parse_expr("(t + 1)^2") == Pow(Bin("+", Sym("t"), Num(Fraction(1))), 2)


def test_function_application():
    assert parse_expr("f(x + y)") == Apply("f", (Bin("+", Sym("x"), Sym("y")),))
    assert parse_expr("f(g(x))") == Apply("f", (Apply("g", (Sym("x"),)),))


def test_argument_lists():
    assert parse_expr("F(x + y, z)") == Apply(
        "F", (Bin("+", Sym("x"), Sym("y")), Sym("z")))
    assert to_text(parse_expr("F(x*y,  g(z))")) == "F(x * y, g(z))"


@pytest.mark.parametrize("source, column, message", [
    ("f()", 3, "expected an expression, found ')'"),
    ("f(x,)", 5, "expected an expression, found ')'"),
    ("f(x y)", 5, "expected ')', found 'y'"),
    ("(x, y)", 3, "expected ')', found ','"),
    ("f(x, y, z)", 7, "expected ')', found ','"),
    ("x, y", 2, "unexpected trailing input ','"),
])
def test_malformed_argument_lists_report_a_position(source, column, message):
    with pytest.raises(DercalcSyntaxError) as err:
        parse_expr(source)
    assert str(err.value) == f"{message} (line 1, column {column})"
    assert (err.value.line, err.value.column) == (1, column)


def test_double_negation():
    assert parse_expr("--x") == Neg(Neg(Sym("x")))


def test_equation_split():
    lhs, rhs = parse_equation("f(x) = x^2")
    assert lhs == Apply("f", (Sym("x"),))
    assert rhs == Pow(Sym("x"), 2)


def test_equation_requires_single_equals():
    with pytest.raises(DercalcSyntaxError):
        parse_equation("f(x) + 1")
    with pytest.raises(DercalcSyntaxError):
        parse_equation("a = b = c")


def test_error_position_double_caret():
    with pytest.raises(DercalcSyntaxError) as err:
        parse_expr("t^^2")
    assert err.value.line == 1
    assert err.value.column == 3


def test_error_position_second_line():
    with pytest.raises(DercalcSyntaxError) as err:
        parse_expr("t +\n* 2")
    assert err.value.line == 2
    assert err.value.column == 1


def test_error_on_bad_character():
    with pytest.raises(DercalcSyntaxError) as err:
        parse_expr("a + $")
    assert err.value.column == 5


def test_error_on_unbalanced_paren():
    with pytest.raises(DercalcSyntaxError):
        parse_expr("f(x")
    with pytest.raises(DercalcSyntaxError):
        parse_expr("(a + b")


def test_trailing_garbage_rejected():
    with pytest.raises(DercalcSyntaxError):
        parse_expr("a b")


def test_printer_rejects_non_integer_literal():
    with pytest.raises(ValueError):
        to_text(Num(Fraction(1, 2)))


class _Text:
    """Renders each node as it is combined, to show the fold's order."""

    def __init__(self):
        self.seen = []

    def _note(self, text):
        self.seen.append(text)
        return text

    def num(self, value):
        return self._note(str(value))

    def sym(self, name):
        return self._note(name)

    def neg(self, a):
        return self._note(f"(-{a})")

    def pow(self, a, e):
        return self._note(f"{a}^{e}")

    def bin(self, op, a, b):
        return self._note(f"({a} {op} {b})")

    def apply(self, func, a):
        return self._note(f"{func}({a})")


def test_fold_is_post_order_left_operand_first():
    algebra = _Text()
    value = fold(parse_expr("f(a - b) * -c^2"), algebra)
    assert value == "(f((a - b)) * (-c^2))"
    assert algebra.seen == ["a", "b", "(a - b)", "f((a - b))", "c", "c^2", "(-c^2)", value]


def test_nodes_yields_each_node_before_its_operands():
    tree = parse_expr("f(a) + b*c")
    assert [to_text(n) for n in nodes(tree)] == [
        "f(a) + b * c", "b * c", "c", "b", "f(a)", "a",
    ]


class _Depth:
    """Counts the operations on the longest path from a leaf to the root."""

    def num(self, value):
        return 0

    sym = num

    def neg(self, a):
        return a + 1

    def pow(self, a, e):
        return a + 1

    def bin(self, op, a, b):
        return max(a, b) + 1

    def apply(self, func, a):
        return a + 1


def test_fold_and_nodes_take_trees_deeper_than_the_recursion_limit():
    tree = Sym("x")
    for i in range(20000):
        tree = Neg(tree) if i % 2 else Apply("f", (tree,))
    assert sum(1 for _ in nodes(tree)) == 20001
    depth = fold(tree, _Depth())
    assert depth == 20000


def test_compiled_program_runs_a_long_sum():
    f = compiled(parse_expr(" + ".join(["x"] * 3000)), Arithmetic(), ("x",))
    assert f(Fraction(1, 3)) == 1000


def test_arithmetic_raises_the_given_error():
    class Bad(Exception):
        pass

    cases = [("x + z", "unknown symbol 'z'"), ("g(x)", "function 'g' is not allowed"),
             ("1/(x - 1)", "division by zero")]
    for source, message in cases:
        f = compiled(parse_expr(source), Arithmetic(Bad), ("x",))
        with pytest.raises(Bad, match=message):
            f(Fraction(1))
    f = compiled(parse_expr("1/(x - 1)"), Arithmetic(Bad), ("x",))
    assert f(Fraction(3)) == Fraction(1, 2)


@given(xy_trees, st.sampled_from([2, 5, 7, 97]), st.data())
@settings(max_examples=300, deadline=None)
def test_compiled_carrier_side_agrees_with_exact_rationals(tree, p, data):
    x = data.draw(st.integers(0, p - 1))
    y = data.draw(st.integers(0, p - 1))
    # The tree as the side of tree = 0, whose residual is the side's value.
    eq = Equation("side", "", tree, Num(Fraction(0)), ())
    try:
        got = _Code(eq, gf(p)).residual(gf(p), {}, ())(x, y)
    except Inadmissible:
        return
    # Every divisor is a unit mod p where the carrier does not skip, so the
    # exact value has a denominator prime to p.
    exact = compiled(tree, Arithmetic(), ("x", "y"))(Fraction(x), Fraction(y))
    assert got == exact.numerator * pow(exact.denominator, -1, p) % p


def test_to_text_prints_a_tree_of_any_depth():
    tree = Sym("x")
    for _ in range(5000):
        tree = Pow(Neg(tree), 2)
    assert to_text(tree) == "(-" * 5000 + "x" + ")^2" * 5000


@pytest.mark.parametrize("wrap", [lambda e: f"({e})", lambda e: f"-{e}", lambda e: f"d({e})",
                                  lambda e: f"F(t, {e})"])
def test_nesting_limit_is_exact_and_reports_position(wrap):
    source = "t"
    for _ in range(MAX_NESTING):
        source = wrap(source)
    parse_expr(source)
    with pytest.raises(NestingError) as info:
        parse_expr(wrap(source))
    assert str(info.value) == "expression nested too deeply"
    assert isinstance(info.value, DercalcSyntaxError)
    assert info.value.line == 1
