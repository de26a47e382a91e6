"""Expression grammar shared by the CLI, session files, and equation corpus.

    expr   := term (("+" | "-") term)*
    term   := unary (("*" | "/") unary)*
    unary  := "-" unary | power
    power  := atom ("^" integer)?
    atom   := integer | symbol | symbol "(" expr ["," expr] ")" | "(" expr ")"

Precedence from tightest to loosest: ^, unary minus, * and /, + and -.
Exponents are integer literals (optionally negative).  Errors carry
1-based line and column positions.  The descent recurses once per group
and argument list and per unary minus; beyond MAX_NESTING of them it raises
NestingError, so parsing never runs out of interpreter stack.

A tree is evaluated by folding it: `fold(node, algebra)` computes the
nodes in post-order, left operand first, from an explicit stack, so no
depth of tree can raise RecursionError.  The algebra gives each node its
value from its operands' values:

    num(value)       a literal; value is a Fraction
    sym(name)        a symbol
    neg(a)           -a
    pow(a, e)        a^e for the integer literal e
    bin(op, a, b)    a op b for op in "+", "-", "*", "/"
    apply(func, *a)  func(a) or func(a, b)

An algebra rejects what it cannot evaluate by raising its own error; an
algebra whose functions take one argument refuses a call with more.
`compiled(node, algebra, variables)` turns a tree once into a function of
the named variables that folds it without visiting the tree again; a
symbol that names a variable takes the argument's value.  `fold` is that
function with no variables, called once.  Its instructions take at most
two operands, which is all a node has, so any algebra runs on it as it
stands: tower elements, polynomials, carrier values for map specs, and the
constants of functional equations.  The other walks are folds too: the
printer `to_text` folds into (text, precedence) pairs, so it round-trips a
tree of any depth; `feq` generates the Python of an equation side by
folding with its own algebra, whose values are the names of generated
locals, and reads a side's degree in the table entries and a linear
side's coefficients and keys off one other fold.
`nodes` walks a tree for structural questions, such as which functions it
calls.  Only `nodes` and `compiled` ask which kind a node is.
"""
from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, List, Sequence, Tuple, Type, Union

from .exact import DercalcError, bit_size, bound_power


class DercalcSyntaxError(DercalcError):
    """Parse failure with the offending position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class NestingError(DercalcSyntaxError):
    """An expression nested deeper than MAX_NESTING.  The message names no
    position: the whole expression is at fault, not one token."""

    def __init__(self, line: int, column: int):
        Exception.__init__(self, "expression nested too deeply")
        self.line = line
        self.column = column


# Groups and unary minus signs one inside another; each group costs the
# descent seven stack frames, well inside Python's default limit of 1000.
MAX_NESTING = 100


@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Sym:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


@dataclass(frozen=True)
class Bin:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Apply:
    func: str
    args: Tuple["Expr", ...]


Expr = Union[Num, Sym, Neg, Pow, Bin, Apply]


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(source: str) -> List[_Token]:
    tokens: List[_Token] = []
    line, col = 1, 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch.isdigit():
            start = i
            start_col = col
            while i < n and source[i].isdigit():
                i += 1
                col += 1
            tokens.append(_Token("number", source[start:i], line, start_col))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            start_col = col
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
                col += 1
            tokens.append(_Token("name", source[start:i], line, start_col))
            continue
        if ch in "+-*/^(),":
            tokens.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise DercalcSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: List[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise DercalcSyntaxError(
                f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                tok.line,
                tok.column,
            )
        return self.advance()

    def parse(self) -> Expr:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise DercalcSyntaxError(
                f"unexpected trailing input {tok.text!r}", tok.line, tok.column
            )
        return node

    def expr(self) -> Expr:
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            node = Bin(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.unary()
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            node = Bin(op, node, self.unary())
        return node

    def nested(self, parse: Callable[[], object], tok: _Token):
        """parse() one level deeper inside the bracket or sign at tok."""
        if self.depth == MAX_NESTING:
            raise NestingError(tok.line, tok.column)
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def unary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "-":
            self.advance()
            return Neg(self.nested(self.unary, tok))
        return self.power()

    def power(self) -> Expr:
        node = self.atom()
        if self.peek().kind == "^":
            self.advance()
            node = Pow(node, self.exponent())
        return node

    def exponent(self) -> int:
        sign = 1
        if self.peek().kind == "-":
            self.advance()
            sign = -1
        tok = self.expect("number")
        return sign * int(tok.text)

    def group(self) -> Expr:
        node = self.expr()
        self.expect(")")
        return node

    def arguments(self) -> Tuple[Expr, ...]:
        args = [self.expr()]
        if self.peek().kind == ",":
            self.advance()
            args.append(self.expr())
        self.expect(")")
        return tuple(args)

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return Num(Fraction(int(tok.text)))
        if tok.kind == "name":
            self.advance()
            if self.peek().kind == "(":
                return Apply(tok.text, self.nested(self.arguments, self.advance()))
            return Sym(tok.text)
        if tok.kind == "(":
            return self.nested(self.group, self.advance())
        raise DercalcSyntaxError(
            f"expected an expression, found {tok.text or 'end of input'!r}",
            tok.line,
            tok.column,
        )


def parse_expr(source: str) -> Expr:
    """Parse one expression; raises DercalcSyntaxError with position info."""
    return _Parser(_tokenize(source)).parse()


def parse_equation(source: str) -> Tuple[Expr, Expr]:
    """Parse 'lhs = rhs' into two expression trees."""
    if "=" not in source:
        raise DercalcSyntaxError("equation needs '='", 1, len(source) + 1)
    lhs_text, rhs_text = source.split("=", 1)
    if "=" in rhs_text:
        col = source.index("=", source.index("=") + 1) + 1
        raise DercalcSyntaxError("more than one '=' in equation", 1, col)
    return parse_expr(lhs_text), parse_expr(rhs_text)


def nodes(node: Expr) -> Iterator[Expr]:
    """Every node of a tree, each before its operands, without recursion."""
    todo = [node]
    while todo:
        node = todo.pop()
        yield node
        if isinstance(node, Bin):
            todo += (node.left, node.right)
        elif isinstance(node, Neg):
            todo.append(node.operand)
        elif isinstance(node, Pow):
            todo.append(node.base)
        elif isinstance(node, Apply):
            todo += node.args


class Arithmetic:
    """Exact arithmetic with Python's operators.  As it stands it is the
    algebra of Fractions: literals are their values, the symbols must be
    variables of a `compiled` tree, and other symbols, function
    applications and division by zero raise `error`.  Algebras of other
    values subclass it and replace num, sym, apply and what else differs."""

    def __init__(self, error: Type[Exception] = ValueError):
        self.error = error

    def num(self, value: Fraction):
        return value

    def sym(self, name: str):
        raise self.error(f"unknown symbol {name!r}")

    def neg(self, a):
        return -a

    def pow(self, a, e: int):
        if isinstance(a, Fraction):
            bound_power(bit_size(a), e)
        try:
            return a ** e
        except ZeroDivisionError:
            raise self.error("division by zero in expression") from None

    def bin(self, op: str, a, b):
        if op == "/" and b == 0:
            raise self.error("division by zero in expression")
        return _ARITH[op](a, b)

    def apply(self, func: str, *args):
        raise self.error(f"function {func!r} is not allowed here")


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def compiled(node: Expr, algebra, variables: Sequence[str] = ()) -> Callable:
    """Compile a tree once into a function of the named variables that
    returns its value in `algebra`.

    The function runs a straight-line program: one instruction per node
    that is not a variable, in post-order with the left operand first, so
    its calls never nest, however deep the tree."""
    variables = tuple(variables)
    code: List[tuple] = []  # (fn, a, b): the next register gets fn(), fn(r[a]) or fn(r[a], r[b])
    stack: List[int] = []  # registers of the values made so far
    # `nodes` yields a node, its right subtree, then its left subtree, so
    # the reverse is a post-order that takes the left operand first.
    for node in reversed(list(nodes(node))):
        a = b = -1
        if isinstance(node, Num):
            fn = functools.partial(algebra.num, node.value)
        elif isinstance(node, Sym):
            if node.name in variables:
                stack.append(variables.index(node.name))
                continue
            fn = functools.partial(algebra.sym, node.name)
        elif isinstance(node, Bin):
            b, a = stack.pop(), stack.pop()
            fn = functools.partial(algebra.bin, node.op)
        elif isinstance(node, Neg):
            fn, a = algebra.neg, stack.pop()
        elif isinstance(node, Pow):
            fn, a = functools.partial(algebra.pow, e=node.exponent), stack.pop()
        elif isinstance(node, Apply):
            if len(node.args) == 2:
                b = stack.pop()
            fn, a = functools.partial(algebra.apply, node.func), stack.pop()
        else:
            raise TypeError(f"not an expression node: {node!r}")
        stack.append(len(variables) + len(code))
        code.append((fn, a, b))
    out = stack.pop()

    def run(*args):
        r = list(args)
        for fn, a, b in code:
            r.append(fn() if a < 0 else fn(r[a]) if b < 0 else fn(r[a], r[b]))
        return r[out]

    return run


def fold(node: Expr, algebra):
    """The value of a tree in an algebra; see the module docstring."""
    return compiled(node, algebra)()


_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 5


def _wrapped(value: Tuple[str, int], least: int) -> str:
    """The text of a printed operand, in parentheses when it binds looser
    than `least`."""
    text, precedence = value
    return text if precedence >= least else f"({text})"


class _Text(Arithmetic):
    """The algebra of printing: a value is (text, precedence), the text
    having minimal parentheses."""

    def num(self, value: Fraction):
        if value.denominator != 1 or value < 0:
            raise ValueError("only nonnegative integer literals are printable")
        return str(value), _PREC_ATOM

    def sym(self, name: str):
        return name, _PREC_ATOM

    def neg(self, a):
        return f"-{_wrapped(a, _PREC_NEG)}", _PREC_NEG

    def pow(self, a, e: int):
        return f"{_wrapped(a, _PREC_ATOM)}^{e}", _PREC_POW

    def bin(self, op: str, a, b):
        precedence = _PREC_ADD if op in "+-" else _PREC_MUL
        return f"{_wrapped(a, precedence)} {op} {_wrapped(b, precedence + 1)}", precedence

    def apply(self, func: str, *args):
        return f"{func}({', '.join(text for text, _ in args)})", _PREC_ATOM


def to_text(node: Expr) -> str:
    """Render a tree with minimal parentheses; parse(to_text(e)) == e."""
    return fold(node, _Text())[0]
