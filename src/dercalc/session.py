"""Line-oriented session scripts tying towers, derivations, and checks.

A script has three section kinds:

    [tower]            one generator per line: "t : transcendental" or
                       "s : algebraic s^2 - t"
    [derivation NAME]  generator values, one per line: "NAME(t) = 1"
    [check]            commands, executed in order:
                         eval EXPR
                         zero EXPR
                         cocycle pair f = EXPR on CARRIER
                         cocycle F = EXPR on CARRIER
                         feq NAME f = SPEC on CARRIER [with k=v ...]

Blank lines and "#" comments are ignored.  Carriers are written "gf:5",
"zmod:6", or "window:-10:10".  The first failing check aborts the run with
exit code 1; malformed input raises SessionError (exit code 2 at the CLI).
"""
from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple, Union

from .cocycle import (
    Cocycle2,
    F_AXIOMS,
    PAIR_AXIOMS,
    cauchy_difference,
    cocycle_verify,
    leibniz_difference,
)
from .derivations import Derivation, derivation_define
from .exact import FiniteCarrier, IntegerWindow, gf, zmod
from .feq import FnTable, equation_by_name, feq_check
from .parser import (
    Apply, Arithmetic, DercalcSyntaxError, Sym, compiled, parse_equation, parse_expr,
)
from .towers import FieldTower, TowerElement, element_eval, tower_new

Carrier = Union[FiniteCarrier, IntegerWindow]


class SessionError(Exception):
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


def _to_carrier_value(v: Fraction, carrier: Carrier, where: str) -> int:
    if isinstance(carrier, FiniteCarrier):
        m = carrier.modulus
        try:
            inv = pow(v.denominator, -1, m)
        except ValueError:
            raise SessionError(f"{where}: value {v} is not defined modulo {m}") from None
        return v.numerator * inv % m
    if v.denominator != 1:
        raise SessionError(f"{where}: value {v} is not an integer")
    return v.numerator


class _NonUnit(Exception):
    """Internal: a divisor is not a unit modulo m."""


class _Residues(Arithmetic):
    """The localisation Z_(m), rationals with denominators prime to m, kept
    modulo m.  Reduction is a ring homomorphism from it, so a tree whose
    divisors are units mod m has here its exact value reduced mod m, and
    x^99999999/2 costs a modular power.  A non-unit divisor raises _NonUnit."""

    def __init__(self, modulus: int):
        super().__init__(SessionError)
        self.modulus = modulus

    def num(self, value: Fraction) -> int:
        return value.numerator % self.modulus

    def neg(self, a: int) -> int:
        return -a % self.modulus

    def pow(self, a: int, e: int) -> int:
        try:
            return pow(a, e, self.modulus)
        except ValueError:
            raise _NonUnit from None

    def bin(self, op: str, a: int, b: int) -> int:
        if op == "/":
            op, b = "*", self.pow(b, -1)
        return super().bin(op, a, b) % self.modulus


def _carrier_function(ast, carrier: Carrier, variables: Tuple[str, ...],
                      name: str) -> Callable[..., int]:
    """A tree as a function of carrier values, named `name` in errors.  On
    a finite carrier it is evaluated modulo m, and exactly, then reduced,
    only at arguments where a divisor is not a unit mod m (as in (5*x)/5
    on gf:5); on a window, exactly."""
    exact = compiled(ast, Arithmetic(SessionError), variables)

    def exact_value(*args: int) -> int:
        return _to_carrier_value(exact(*map(Fraction, args)), carrier,
                                 f"{name}({','.join(map(str, args))})")

    if not isinstance(carrier, FiniteCarrier):
        return exact_value
    modular = compiled(ast, _Residues(carrier.modulus), variables)

    def value(*args: int) -> int:
        try:
            return modular(*args)
        except _NonUnit:
            return exact_value(*args)

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


def fn2_from_expr(text: str, carrier: Carrier) -> Callable[[int, int], int]:
    """Two-argument map from an expression in a and b."""
    try:
        ast = parse_expr(text)
    except DercalcSyntaxError as exc:
        raise SessionError(f"bad expression {text!r}: {exc}") from None
    return _carrier_function(ast, carrier, ("a", "b"), "F")


_SECTION_RE = re.compile(r"^\[(tower|check|derivation\s+(\w+))\]$")
_GEN_RE = re.compile(r"^(\w+)\s*:\s*(transcendental|algebraic)\s*(.*)$")
_COCYCLE_PAIR_RE = re.compile(r"^cocycle\s+pair\s+f\s*=\s*(.+?)\s+on\s+(\S+)$")
_COCYCLE_F_RE = re.compile(r"^cocycle\s+F\s*=\s*(.+?)\s+on\s+(\S+)$")
_FEQ_RE = re.compile(
    r"^feq\s+(\S+)\s+f\s*=\s*(.+?)\s+on\s+(\S+)(?:\s+with\s+(.+))?$"
)


class _Session:
    def __init__(self) -> None:
        self.tower: FieldTower = tower_new()
        self.derivations: Dict[str, Derivation] = {}
        self.der_maps: Dict[str, Callable[[TowerElement], TowerElement]] = {}
        self.lines: List[str] = []
        self.frozen_tower = False

    # -- declarations --

    def add_generator(self, line: str, no: int) -> None:
        if self.frozen_tower:
            raise SessionError("tower generators must come before derivations", no)
        m = _GEN_RE.match(line)
        if not m:
            raise SessionError(f"bad generator line {line!r}", no)
        name, kind, rest = m.group(1), m.group(2), m.group(3).strip()
        try:
            if kind == "transcendental":
                if rest:
                    raise SessionError("transcendental generator takes no polynomial", no)
                self.tower = self.tower.adjoin_transcendental(name)
            else:
                if not rest:
                    raise SessionError("algebraic generator needs a minimal polynomial", no)
                self.tower = self.tower.adjoin_algebraic(name, rest)
        except SessionError:
            raise
        except Exception as exc:
            raise SessionError(str(exc), no) from None

    def build_derivation(self, name: str, body: List[Tuple[int, str]]) -> None:
        self.frozen_tower = True
        values: Dict[str, TowerElement] = {}
        for no, line in body:
            try:
                lhs, rhs = parse_equation(line)
            except DercalcSyntaxError as exc:
                raise SessionError(str(exc), no) from None
            if not (
                isinstance(lhs, Apply)
                and lhs.func == name
                and isinstance(lhs.arg, Sym)
            ):
                raise SessionError(
                    f"expected '{name}(generator) = expression'", no
                )
            gen = lhs.arg.name
            try:
                values[gen] = element_eval(self.tower, rhs, self.der_maps)
            except Exception as exc:
                raise SessionError(str(exc), no) from None
        try:
            der = derivation_define(self.tower, values)
        except Exception as exc:
            raise SessionError(str(exc), body[0][0] if body else None) from None
        self.derivations[name] = der
        self.der_maps[name] = der

    # -- checks: True means keep going, False aborts with exit 1 --

    def run_check(self, line: str, no: int) -> bool:
        if line.startswith("eval "):
            return self._check_eval(line[5:].strip(), no)
        if line.startswith("zero "):
            return self._check_zero(line[5:].strip(), no)
        m = _COCYCLE_PAIR_RE.match(line)
        if m:
            return self._check_cocycle(m.group(1), m.group(2), no, pair=True)
        m = _COCYCLE_F_RE.match(line)
        if m:
            return self._check_cocycle(m.group(1), m.group(2), no, pair=False)
        m = _FEQ_RE.match(line)
        if m:
            return self._check_feq(m.group(1), m.group(2), m.group(3), m.group(4), no)
        raise SessionError(f"unknown check command {line!r}", no)

    def _element(self, src: str, no: int) -> TowerElement:
        try:
            return element_eval(self.tower, src, self.der_maps)
        except DercalcSyntaxError as exc:
            raise SessionError(str(exc), no) from None
        except Exception as exc:
            raise SessionError(str(exc), no) from None

    def _check_eval(self, src: str, no: int) -> bool:
        value = self._element(src, no)
        self.lines.append(f"{src} = {value}")
        return True

    def _check_zero(self, src: str, no: int) -> bool:
        value = self._element(src, no)
        if value.is_zero():
            self.lines.append(f"zero {src}: pass")
            return True
        self.lines.append(f"zero {src}: FAIL, got {value}")
        return False

    def _check_cocycle(self, expr: str, carrier_spec: str, no: int, pair: bool) -> bool:
        try:
            carrier = parse_carrier(carrier_spec)
        except SessionError as exc:
            raise SessionError(str(exc), no) from None
        if pair:
            table = fn_from_spec(expr, carrier)
            F = cauchy_difference(dict(table.values), carrier)
            G = leibniz_difference(dict(table.values), carrier)
            report = cocycle_verify(F, G, axioms=PAIR_AXIOMS)
            self.lines.append(f"cocycle pair f = {expr} on {carrier_spec}")
        else:
            F = Cocycle2(carrier, fn2_from_expr(expr, carrier), "F")
            report = cocycle_verify(F, axioms=F_AXIOMS)
            self.lines.append(f"cocycle F = {expr} on {carrier_spec}")
        for line in report.lines():
            self.lines.append("  " + line)
        return report.ok

    def _check_feq(
        self, eq_name: str, f_spec: str, carrier_spec: str, with_clause: Optional[str], no: int
    ) -> bool:
        try:
            carrier = parse_carrier(carrier_spec)
            eq = equation_by_name(eq_name)
        except SessionError as exc:
            raise SessionError(str(exc), no) from None
        except Exception as exc:
            raise SessionError(str(exc), no) from None
        params: Dict[str, int] = {}
        if with_clause:
            for piece in with_clause.split():
                if "=" not in piece:
                    raise SessionError(f"bad parameter {piece!r}", no)
                k, v = piece.split("=", 1)
                params[k.strip()] = int(v)
        table = fn_from_spec(f_spec, carrier)
        try:
            report = feq_check(eq, {"f": table}, params)
        except Exception as exc:
            raise SessionError(str(exc), no) from None
        self.lines.append(report.line())
        return report.ok


def run_session_text(text: str) -> Tuple[List[str], int]:
    """Execute a script given as text; returns (transcript lines, exit code)."""
    session = _Session()
    mode: Optional[str] = None  # 'tower' | 'check' | 'derivation'
    der_name: Optional[str] = None
    der_body: List[Tuple[int, str]] = []

    def flush_derivation() -> None:
        nonlocal der_name, der_body
        if der_name is not None:
            session.build_derivation(der_name, der_body)
            der_name = None
            der_body = []

    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _SECTION_RE.match(line)
        if m:
            flush_derivation()
            if m.group(1) == "tower":
                mode = "tower"
            elif m.group(1) == "check":
                mode = "check"
            else:
                mode = "derivation"
                der_name = m.group(2)
                der_body = []
            continue
        if mode == "tower":
            session.add_generator(line, no)
        elif mode == "derivation":
            der_body.append((no, line))
        elif mode == "check":
            if not session.run_check(line, no):
                return session.lines, 1
        else:
            raise SessionError(f"content before any section: {line!r}", no)
    flush_derivation()
    return session.lines, 0


def run_session(path: str) -> Tuple[List[str], int]:
    """Execute a script file; see run_session_text."""
    with open(path, "r", encoding="utf-8") as fh:
        return run_session_text(fh.read())
