"""Line-oriented session scripts tying towers, derivations, and checks.

A script has three section kinds:

    [tower]            one generator per line: "t : transcendental" or
                       "s : algebraic s^2 - t"
    [derivation NAME]  generator values, one per line: "NAME(t) = 1"
    [check]            commands, executed in order

Each check command prints what the CLI command it corresponds to prints on
stdout; both front ends build towers, derivations and cocycle checks with
the functions below:

    eval EXPR                            dercalc der eval --expr EXPR
    zero EXPR                            (asserts EXPR is 0; no CLI twin)
    cocycle pair f = EXPR on CARRIER     dercalc cocycle verify --f EXPR
                                           --carrier CARRIER
    cocycle F = EXPR on CARRIER          dercalc cocycle verify --F EXPR
                                           --carrier CARRIER
    feq NAME f = SPEC on CARRIER         dercalc feq check --eq NAME --f SPEC
        [with k=v ...]                     --carrier CARRIER [--params k=v,...]

Blank lines and "#" comments are ignored.  Carriers are written "gf:5",
"zmod:6", or "window:-10:10".  The first failing check aborts the run with
exit code 1; malformed input, or any other error a line raises, raises
SessionError with that line's number (exit code 2 at the CLI).
"""
from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .cocycle import (
    Cocycle2,
    CocycleReport,
    F_AXIOMS,
    PAIR_AXIOMS,
    cauchy_difference,
    cocycle_verify,
    leibniz_difference,
)
from .derivations import Derivation, derivation_define
from .exact import Carrier, DercalcError, Inadmissible, IntegerWindow, gf, zmod
from .feq import FnTable, equation_by_name, feq_check
from .parser import (
    Apply, Arithmetic, DercalcSyntaxError, Sym, compiled, nodes, parse_equation, parse_expr,
)
from .towers import FieldTower, TowerElement, element_eval, tower_new


class SessionError(DercalcError):
    """Malformed script or spec string; carries the line number when known."""

    def __init__(self, message: str, line_no: Optional[int] = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


def parse_carrier(spec: str) -> Carrier:
    """"gf:P", "zmod:N", or "window:LO:HI"."""
    parts = spec.strip().split(":")
    try:
        if parts[0] == "gf" and len(parts) == 2:
            return gf(int(parts[1]))
        if parts[0] == "zmod" and len(parts) == 2:
            return zmod(int(parts[1]))
        if parts[0] == "window" and len(parts) == 3:
            return IntegerWindow(int(parts[1]), int(parts[2]))
    except Exception as exc:
        raise SessionError(f"bad carrier spec {spec!r}: {exc}") from None
    raise SessionError(f"bad carrier spec {spec!r}")


def parse_params(pieces: Iterable[str]) -> Dict[str, int]:
    """Parameter values from "name=integer" pieces, as a session's `with`
    clause and the CLI's --params give them."""
    params: Dict[str, int] = {}
    for piece in pieces:
        name, sep, value = piece.partition("=")
        if not sep or not name.strip():
            raise SessionError(f"bad parameter {piece!r}: expected name=value")
        try:
            params[name.strip()] = int(value)
        except ValueError:
            raise SessionError(f"bad parameter {piece!r}: expected an integer value") from None
    return params


def _to_carrier_value(v: Fraction, carrier: Carrier, where: str) -> int:
    try:
        return carrier.num(v)
    except Inadmissible:
        m = carrier.characteristic
        what = f"not defined modulo {m}" if m else "not an integer"
        raise SessionError(f"{where}: value {v} is {what}") from None


def _carrier_function(ast, carrier: Carrier, variables: Tuple[str, ...],
                      name: str) -> Callable[..., int]:
    """A tree as a function of carrier values, named `name` in errors.  It
    runs in the carrier's own arithmetic.  Only at arguments where the
    carrier refuses a value -- a divisor that is not a unit mod m, as in
    (5*x)/5 on gf:5, or an inexact quotient on a window, as in (x/2)*2 --
    is it evaluated exactly, in Fractions, and the value read into the
    carrier.  Where both are defined they agree, as reduction mod m is a
    ring homomorphism from the rationals with denominators prime to m, and
    x^99999999/2 costs a modular power.  Unknown symbols and function
    calls are refused before any evaluation."""
    for node in reversed(list(nodes(ast))):  # the order evaluation meets them
        if isinstance(node, Apply):
            raise SessionError(f"function {node.func!r} is not allowed here")
        if isinstance(node, Sym) and node.name not in variables:
            raise SessionError(f"unknown symbol {node.name!r}")
    in_carrier = compiled(ast, carrier, variables)
    exact = compiled(ast, Arithmetic(SessionError), variables)

    def value(*args: int) -> int:
        try:
            return in_carrier(*args)
        except Inadmissible:
            return _to_carrier_value(exact(*map(Fraction, args)), carrier,
                                     f"{name}({','.join(map(str, args))})")

    return value


def fn_from_spec(spec: str, carrier: Carrier) -> FnTable:
    """One-argument table: "parity", "zero", or an expression in x."""
    spec = spec.strip()
    if spec == "parity":
        return FnTable.from_callable(carrier, lambda x: x % 2)
    if spec == "zero":
        return FnTable.zero(carrier)
    try:
        ast = parse_expr(spec)
    except DercalcSyntaxError as exc:
        raise SessionError(f"bad function expression {spec!r}: {exc}") from None
    return FnTable.from_callable(carrier, _carrier_function(ast, carrier, ("x",), "f"))


def fn2_from_expr(text: str, carrier: Carrier, name: str = "F") -> Callable[[int, int], int]:
    """Two-argument map from an expression in a and b, named `name` in errors."""
    try:
        ast = parse_expr(text)
    except DercalcSyntaxError as exc:
        raise SessionError(f"bad expression {text!r}: {exc}") from None
    return _carrier_function(ast, carrier, ("a", "b"), name)


def adjoin_generator(tower: FieldTower, name: str, kind: str, poly: str) -> FieldTower:
    """`tower` with the generator `name` adjoined: kind "trans" or
    "transcendental" takes no polynomial, "alg" or "algebraic" needs its
    minimal polynomial `poly`."""
    if kind in ("trans", "transcendental"):
        if poly:
            raise SessionError(f"transcendental generator {name!r} takes no polynomial")
        return tower.adjoin_transcendental(name)
    if kind in ("alg", "algebraic"):
        if not poly:
            raise SessionError(f"algebraic generator {name!r} needs a minimal polynomial")
        return tower.adjoin_algebraic(name, poly)
    raise SessionError(f"generator kind must be trans or alg, got {kind!r}")


def build_derivation(
    tower: FieldTower,
    equations: Iterable[str],
    name: Optional[str] = None,
    derivations: Optional[Dict[str, Derivation]] = None,
) -> Tuple[str, Derivation]:
    """The derivation on `tower` given by "name(gen) = expr" equations, one
    per transcendental generator; blank equations are skipped.  A
    [derivation NAME] section passes its NAME, which every equation must
    use, and the derivations defined before it, which right-hand sides may
    apply; without them the first equation names the derivation, and on a
    tower with no transcendental generator, where every value is forced,
    an empty spec names it d."""
    values: Dict[str, TowerElement] = {}
    for text in map(str.strip, equations):
        if not text:
            continue
        lhs, rhs = parse_equation(text)
        if not (isinstance(lhs, Apply) and len(lhs.args) == 1 and isinstance(lhs.args[0], Sym)
                and (name is None or lhs.func == name)):
            raise SessionError(f"expected '{name or 'name'}(generator) = expression', got {text!r}")
        name, gen = lhs.func, lhs.args[0].name
        if gen in values:
            raise SessionError(f"{name}({gen}) is given twice")
        values[gen] = element_eval(tower, rhs, derivations)
    if name is None:
        if tower.transcendental_names():
            raise SessionError("empty derivation spec")
        name = "d"
    return name, derivation_define(tower, values)


def check_cocycle(expr: str, carrier_spec: str, pair: bool, mode: str = "exhaustive",
                  sample: int = 0, seed: int = 0) -> Tuple[str, CocycleReport]:
    """The header line and the axioms' report for the Cauchy and Leibniz
    differences of f = `expr` in x (`pair`), or for the raw cocycle
    F = `expr` in a and b, on the carrier `carrier_spec`, checked as
    `cocycle_verify` checks in `mode`."""
    carrier = parse_carrier(carrier_spec)
    how = dict(mode=mode, sample=sample, seed=seed)
    if pair:
        values = dict(fn_from_spec(expr, carrier).values)
        F = cauchy_difference(values, carrier)
        G = leibniz_difference(values, carrier)
        return (f"cocycle pair f = {expr} on {carrier_spec}",
                cocycle_verify(F, G, axioms=PAIR_AXIOMS, **how))
    F = Cocycle2(carrier, fn2_from_expr(expr, carrier), "F")
    return f"cocycle F = {expr} on {carrier_spec}", cocycle_verify(F, axioms=F_AXIOMS, **how)


_SECTION_RE = re.compile(r"^\[(tower|check|derivation\s+(\w+))\]$")
_GEN_RE = re.compile(r"^(\w+)\s*:\s*(transcendental|algebraic)\s*(.*)$")
_COCYCLE_RE = re.compile(r"^cocycle\s+(?:(pair)\s+f|F)\s*=\s*(.+?)\s+on\s+(\S+)$")
_FEQ_RE = re.compile(
    r"^feq\s+(\S+)\s+f\s*=\s*(.+?)\s+on\s+(\S+)(?:\s+with\s+(.+))?$"
)


class _Session:
    def __init__(self) -> None:
        self.tower: FieldTower = tower_new()
        self.derivations: Dict[str, Derivation] = {}
        self.lines: List[str] = []
        self.mode: Optional[str] = None  # 'tower' | 'check' | 'derivation'
        # the open [derivation NAME] section: NAME and its (line, equation)s
        self.pending: Optional[Tuple[str, List[Tuple[int, str]]]] = None
        self.at: Optional[int] = None  # the line an error is reported against

    def read(self, line: str) -> bool:
        """Take one line of the script; False means a check failed."""
        m = _SECTION_RE.match(line)
        if m:
            self.end_derivation()
            self.mode = "derivation" if m.group(2) else m.group(1)
            if m.group(2):
                self.pending = (m.group(2), [])
        elif self.mode == "tower":
            self.add_generator(line)
        elif self.mode == "derivation":
            self.pending[1].append((self.at, line))
        elif self.mode == "check":
            return self.run_check(line)
        else:
            raise SessionError(f"content before any section: {line!r}")
        return True

    def add_generator(self, line: str) -> None:
        if self.derivations:
            raise SessionError("tower generators must come before derivations")
        m = _GEN_RE.match(line)
        if not m:
            raise SessionError(f"bad generator line {line!r}")
        self.tower = adjoin_generator(self.tower, m.group(1), m.group(2), m.group(3).strip())

    def end_derivation(self) -> None:
        if self.pending is None:
            return
        name, body = self.pending
        self.pending = None

        def equations():
            # An equation's error names its line; once all are read, the
            # derivation's own (missing or forced values) names the first.
            for self.at, text in body:
                yield text
            self.at = body[0][0] if body else None

        self.derivations[name] = build_derivation(
            self.tower, equations(), name, self.derivations)[1]

    # -- checks: True means keep going, False aborts with exit 1 --

    def run_check(self, line: str) -> bool:
        if line.startswith("eval "):
            src = line[5:].strip()
            self.lines.append(f"{src} = {element_eval(self.tower, src, self.derivations)}")
            return True
        if line.startswith("zero "):
            src = line[5:].strip()
            value = element_eval(self.tower, src, self.derivations)
            if value.is_zero():
                self.lines.append(f"zero {src}: pass")
                return True
            self.lines.append(f"zero {src}: FAIL, got {value}")
            return False
        m = _COCYCLE_RE.match(line)
        if m:
            header, report = check_cocycle(m.group(2), m.group(3), pair=bool(m.group(1)))
            self.lines.append(header)
            self.lines.extend("  " + text for text in report.lines())
            return report.ok
        m = _FEQ_RE.match(line)
        if m:
            return self._check_feq(*m.groups())
        raise SessionError(f"unknown check command {line!r}")

    def _check_feq(
        self, eq_name: str, f_spec: str, carrier_spec: str, with_clause: Optional[str]
    ) -> bool:
        carrier = parse_carrier(carrier_spec)
        eq = equation_by_name(eq_name)
        params = parse_params((with_clause or "").split())
        report = feq_check(eq, {"f": fn_from_spec(f_spec, carrier)}, params)
        self.lines.append(report.line())
        return report.ok


def run_session_text(text: str) -> Tuple[List[str], int]:
    """Execute a script given as text; returns (transcript lines, exit code).
    Bad input on a line comes out as a SessionError naming that line; any
    other exception is a fault of the program and escapes as it is."""
    session = _Session()
    try:
        for no, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            session.at = no
            if not session.read(line):
                return session.lines, 1
        session.end_derivation()
    except (DercalcError, ValueError, ZeroDivisionError) as exc:
        raise SessionError(str(exc), session.at) from None
    return session.lines, 0


def run_session(path: str) -> Tuple[List[str], int]:
    """Execute a script file; see run_session_text."""
    with open(path, "r", encoding="utf-8") as fh:
        return run_session_text(fh.read())
