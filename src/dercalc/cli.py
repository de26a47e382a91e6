"""dercalc command-line interface.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage or input error;
`main` returns the `exit_code` of the `DercalcError` it catches.
`--format records` prints one machine-readable record per line instead of
the human text.  DERCALC_BUDGET overrides enumeration and power-size budgets.
"""
from __future__ import annotations

import argparse
import shlex
import sys
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .cocycle import (
    alien_check,
    cauchy_difference,
    char_decompose,
    cocycle_extend_positive,
    cocycle_primitive,
    leibniz_coboundary_check,
    leibniz_difference,
)
from .derivations import (
    AffineDerivation,
    default_substitution,
    derivation_bracket,
    independence_rank,
    iterate,
    RULES,
    residual,
)
from .exact import DercalcError, FiniteCarrier, IntegerWindow, MultiPoly, rational
from .feq import (
    CORPUS,
    equation_by_name,
    feq_check,
    feq_solve_brute,
)
from .higher import (
    GammaTable,
    gamma_check,
    gamma_factor,
    hod_construct_next,
    hod_define,
    hod_eval,
    hod_leibniz_residual,
)
from .multiadd import (
    SymMultiMap,
    binomial_check,
    check_recovery,
    polarization_check,
    recover_components,
    trace,
)
from .multiadd import delta as multi_delta
from .parser import Arithmetic, Sym, compiled, fold, nodes, parse_expr
from .session import (
    SessionError,
    adjoin_generator,
    build_derivation,
    check_cocycle,
    fn2_from_expr,
    fn_from_spec,
    parse_carrier,
    parse_params,
    run_session,
)
from .towers import FieldTower, element_eval, tower_new


class Out:
    """Either human text or 'kind key=value ...' records, one per line."""

    def __init__(self, fmt: str):
        self.fmt = fmt

    def emit(self, kind: str, text: str, **fields) -> None:
        if self.fmt == "records":
            parts = [kind]
            for k, v in fields.items():
                parts.append(f"{k}={shlex.quote(str(v))}")
            print(" ".join(parts))
        else:
            print(text)


# -- spec-string helpers ------------------------------------------------------


def _tower_from_spec(spec: str) -> FieldTower:
    """"t:trans;s:alg:s^2 - t" builds Q(t)(s)."""
    tower = tower_new()
    if not spec.strip():
        return tower
    for part in spec.split(";"):
        fields = part.strip().split(":", 2)
        if len(fields) < 2:
            raise SessionError(f"bad generator spec {part!r}")
        name, kind, poly = (f.strip() for f in (fields + [""])[:3])
        tower = adjoin_generator(tower, name, kind, poly)
    return tower


def _rational(piece: str, where: str) -> Fraction:
    """The rational number `piece` written in `where`, an option or a file
    line; SessionError naming both when it is not one."""
    try:
        return rational(piece)
    except (ValueError, ZeroDivisionError):
        raise SessionError(f"bad rational {piece.strip()!r} in {where}: "
                           "expected N or N/D with D nonzero") from None


def _data_lines(path: str, form: str, read: Callable[[str, str], object]) -> Iterator:
    """read(line, where) for each line of the file at `path` that is not
    blank or a # comment, `where` naming the file and the line number.  A
    line that `read` refuses by ValueError raises SessionError naming it
    and the expected `form`."""
    with open(path, "r", encoding="utf-8") as fh:
        for number, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            where = f"{path} line {number}"
            try:
                yield read(line, where)
            except ValueError:
                raise SessionError(f"bad line {line!r} in {where}: expected {form}") from None


def _affine(tower: FieldTower, der_spec: str, slope: str,
            where: str) -> Tuple[str, AffineDerivation]:
    name, der = build_derivation(tower, der_spec.split(";"))
    return name, AffineDerivation(der, _rational(slope, where))


def _vec(text: str, where: str) -> Tuple[Fraction, ...]:
    return tuple(_rational(p, where) for p in text.split(","))


def _vecs(text: str, where: str) -> List[Tuple[Fraction, ...]]:
    return [_vec(p, where) for p in text.split("|")]


def _key_values(spec: str, sep: str, what: str, form: str,
                read_key: Callable[[str], object] = str) -> List[Tuple[object, str]]:
    """(read_key(key), value) for each "key=value" piece of `spec` split at
    `sep`, blank pieces skipped.  A piece without "=", with a blank key or
    with a key that read_key refuses by ValueError raises SessionError
    naming it, as `parse_params` does."""
    pairs = []
    for piece in map(str.strip, spec.split(sep)):
        if not piece:
            continue
        key, eq, value = (part.strip() for part in piece.partition("="))
        try:
            if not (eq and key):
                raise ValueError
            pairs.append((read_key(key), value))
        except ValueError:
            raise SessionError(f"bad {what} {piece!r}: expected {form}") from None
    return pairs


def _subst(text: str) -> Dict[str, Fraction]:
    return {k: _rational(v, "--subst")
            for k, v in _key_values(text, ",", "substitution", "VAR=VALUE")}


def _tensor(arity: int, dim: int, spec: str) -> SymMultiMap:
    """Inline "(0,0)=1;(0,1)=2" or @file with "(0,0) 1" lines."""

    def parse_key(key: str) -> Tuple[int, ...]:
        key = key.strip()
        if not (key.startswith("(") and key.endswith(")")):
            raise ValueError
        inner = key[1:-1].strip()
        if not inner:
            return ()
        return tuple(int(p) for p in inner.split(","))

    def entry(line: str, where: str) -> Tuple[Tuple[int, ...], Fraction]:
        key, value = line.rsplit(None, 1)
        return parse_key(key), _rational(value, where)

    if spec.startswith("@"):
        coeffs = dict(_data_lines(spec[1:], "(I,...) VALUE", entry))
    else:
        coeffs = {key: _rational(value, "--tensor") for key, value in
                  _key_values(spec, ";", "tensor entry", "(I,...)=VALUE", parse_key)}
    return SymMultiMap(arity, dim, coeffs)


def _vector_fn(dim: int, source: str):
    """Expression in x0..x{dim-1} (plain x works when dim is 1).  Only the
    variables the expression names are compiled, so the work does not grow
    with dim; x<i> with i >= dim is refused."""
    tree = parse_expr(source)
    names, indices = [], []
    for name in sorted({node.name for node in nodes(tree) if isinstance(node, Sym)}):
        if name == "x" and dim == 1:
            index = 0
        elif name[1:].isdigit() and name == f"x{int(name[1:])}":
            index = int(name[1:])
            if index >= dim:
                raise SessionError(f"variable {name} is outside dimension {dim}")
        else:
            continue  # an unknown symbol, refused when the function is called
        names.append(name)
        indices.append(index)
    f = compiled(tree, Arithmetic(SessionError), names)
    return lambda vec: f(*(Fraction(vec[i]) for i in indices))


class _Polynomials(Arithmetic):
    """Algebra of polynomials over the declared variables; division only by
    nonzero rational constants."""

    def __init__(self, variables: Tuple[str, ...]):
        self.variables = variables

    def num(self, value: Fraction) -> MultiPoly:
        return MultiPoly.const(self.variables, value)

    def sym(self, name: str) -> MultiPoly:
        if name not in self.variables:
            raise SessionError(f"unknown polynomial variable {name!r}")
        return MultiPoly.var(self.variables, name)

    def pow(self, a: MultiPoly, e: int) -> MultiPoly:
        if e < 0:
            raise SessionError("polynomials take nonnegative exponents")
        return a ** e

    def bin(self, op: str, a: MultiPoly, b: MultiPoly) -> MultiPoly:
        if op != "/":
            return super().bin(op, a, b)
        if not b.is_constant() or b.is_zero():
            raise SessionError("polynomial division only by nonzero constants")
        return a * (1 / b.constant_value())

    def apply(self, func: str, *args: MultiPoly) -> MultiPoly:
        raise SessionError("function applications are not polynomials")


def _polynomial(variables: Tuple[str, ...], source: str) -> MultiPoly:
    return fold(parse_expr(source), _Polynomials(variables))


def _gamma_table(args) -> GammaTable:
    sources = sum((bool(args.binomial), bool(args.ones), bool(args.table)))
    if sources != 1:
        raise SessionError("pick exactly one of --binomial, --ones, --table FILE")
    if args.binomial:
        return GammaTable.binomial(args.n)
    if args.ones:
        return GammaTable.ones(args.n)

    def entry(line: str, where: str) -> Tuple[Tuple[int, int], Fraction]:
        i, j, value = line.split()
        return (int(i), int(j)), _rational(value, where)

    return GammaTable(args.n, dict(_data_lines(args.table, "I J VALUE", entry)))


def _order_and_variable(head: str) -> Tuple[int, str]:
    k, colon, var = head.partition(":")
    if not (colon and var.strip()):
        raise ValueError
    return int(k), var.strip()


def _hod_values(variables: Tuple[str, ...], spec: Optional[str]):
    """"1:t=1;2:t=t^2" assigns d_k(var) = polynomial."""
    pairs = _key_values(spec or "", ";", "value", "K:VAR=EXPR", _order_and_variable)
    return {head: _polynomial(variables, expr) for head, expr in pairs}


def _choice(variables: Tuple[str, ...], spec: Optional[str]):
    pairs = _key_values(spec or "", ";", "choice", "VAR=EXPR")
    return {var: _polynomial(variables, expr) for var, expr in pairs}


def _param_values(spec: Optional[str]):
    if spec is None:
        return {}
    if spec.strip() == "all-units":
        return "all-units"
    return parse_params(piece.strip() for piece in spec.split(","))


def _window(spec: str) -> IntegerWindow:
    try:
        lo, hi = map(int, spec.split(":"))
    except ValueError:
        raise SessionError(f"bad window {spec!r}: expected LO:HI") from None
    return IntegerWindow(lo, hi)


def _budget(args) -> Optional[int]:
    """--budget as given; 0 is a budget too, and only a negative one is refused."""
    if args.budget is not None and args.budget < 0:
        raise SessionError(f"--budget must be nonnegative, got {args.budget}")
    return args.budget


def _report_exit(out: Out, report, kind: str) -> int:
    for line, (name, r) in zip(report.lines(), report.axioms.items()):
        out.emit(kind, "  " + line, axiom=name, status=r.status, witness=r.witness,
                 lhs=r.lhs, rhs=r.rhs, checked=r.checked, skipped=r.skipped)
    return 0 if report.ok else 1


# -- command handlers ----------------------------------------------------------


def _cmd_tower(args, out: Out) -> int:
    tower = _tower_from_spec(args.spec)
    out.emit("tower", tower.describe(), spec=args.spec, tower=tower.describe())
    if args.cmd2 == "show" and getattr(args, "expr", None):
        value = element_eval(tower, args.expr)
        out.emit("element", f"{args.expr} = {value}", expr=args.expr, value=value)
    return 0


def _cmd_der(args, out: Out) -> int:
    tower = _tower_from_spec(args.tower)
    if args.cmd2 == "define":
        name, der = build_derivation(tower, args.der.split(";"))
        for line in der.describe(name).splitlines():
            out.emit("derivation", line, value=line)
        return 0
    if args.cmd2 == "eval":
        name, der = build_derivation(tower, args.der.split(";"))
        value = element_eval(tower, args.expr, {name: der})
        out.emit("eval", f"{args.expr} = {value}", expr=args.expr, value=value)
        return 0
    if args.cmd2 == "residual":
        return _cmd_der_residual(args, out, tower)
    if args.cmd2 == "bracket":
        name1, d1 = build_derivation(tower, args.der.split(";"))
        name2, d2 = build_derivation(tower, args.der2.split(";"))
        br = derivation_bracket(d1, d2)
        label = f"[{name1},{name2}]"
        if args.expr:
            ders = {name1: d1, name2: d2, label: br}
            value = br(element_eval(tower, args.expr, ders))
            out.emit("bracket", f"{label}({args.expr}) = {value}", expr=args.expr, value=value)
        else:
            for line in br.describe(label).splitlines():
                out.emit("bracket", line, value=line)
        return 0
    if args.cmd2 == "iterate":
        name, der = build_derivation(tower, args.der.split(";"))
        maps = iterate(der, args.k)
        elem = element_eval(tower, args.expr, {name: der})
        for i, mp in enumerate(maps):
            value = mp(elem)
            out.emit(
                "iterate",
                f"{name}^{i}({args.expr}) = {value}",
                order=i,
                expr=args.expr,
                value=value,
            )
        return 0
    if args.cmd2 == "rank":
        name, der = build_derivation(tower, args.der.split(";"))
        maps = iterate(der, args.k)
        points = [element_eval(tower, p.strip(), {name: der}) for p in args.points.split(",")]
        subst = _subst(args.subst) if args.subst else default_substitution(tower)
        r = independence_rank(maps, points, subst)
        out.emit("rank", f"rank = {r}", rank=r)
        return 0
    raise SessionError(f"unknown der subcommand {args.cmd2!r}")


# The options of the names a residual reads, where they differ: --d would
# abbreviate --der.
_OPTIONS = {"d": ("dd",), "g": ("der2", "slope2")}
# The options each kind of `der residual` reads besides --der and --slope;
# all but --der2 and --slope2 are needed.
_RESIDUAL_OPTIONS = {kind: tuple(o for name in rule.reads for o in _OPTIONS.get(name, (name,)))
                     for kind, rule in RULES.items()}
_RESIDUAL_ALL = tuple(dict.fromkeys(o for opts in _RESIDUAL_OPTIONS.values() for o in opts))


class _Spelled(dict):
    """Format keys as themselves: "{k-1}" reads (k-1)."""

    def __missing__(self, key: str) -> str:
        return key if key.isidentifier() else f"({key})"


def _cmd_der_residual(args, out: Out, tower: FieldTower) -> int:
    kind = args.kind
    reads = _RESIDUAL_OPTIONS[kind]
    missing = [f"--{o}" for o in reads if o not in _OPTIONS["g"] and getattr(args, o) is None]
    if missing:
        raise SessionError(f"der residual {kind} needs {' '.join(missing)}")
    stray = [f"--{o}" for o in _RESIDUAL_ALL if o not in reads and getattr(args, o) is not None]
    if stray:
        raise SessionError(f"der residual {kind} does not read {' '.join(stray)}")
    name, f = _affine(tower, args.der, args.slope, "--slope")
    given = {p: element_eval(tower, getattr(args, p), {name: f.der})
             for p in ("u", "v", "x") if p in reads}
    g = f
    if args.der2 is not None or args.slope2 is not None:
        _, g = _affine(tower, args.der if args.der2 is None else args.der2,
                       "0" if args.slope2 is None else args.slope2, "--slope2")
    for r, o in zip("abcd", ("a", "b", "c", "dd")):
        if o in reads:
            given[r] = _rational(getattr(args, o), f"--{o}")
    given.update((e, getattr(args, e)) for e in ("k", "n", "m") if e in reads)
    value = residual(kind, f, g, **given)
    out.emit("residual", f"residual = {value}", rule=kind, value=value)
    return 0


def _cmd_hod(args, out: Out) -> int:
    if args.cmd2 == "gamma-check":
        table = _gamma_table(args)
        report = gamma_check(table)
        if report.ok:
            out.emit("gamma", f"cocycle condition: pass (order {table.order})",
                     status="pass", order=table.order)
            return 0
        for i, j, k, lhs, rhs in report.violations:
            out.emit(
                "gamma",
                f"cocycle condition FAIL at (i,j,k)=({i},{j},{k}): "
                f"G(i+j,k)*G(i,j) = {lhs} but G(i,j+k)*G(j,k) = {rhs}",
                status="fail", i=i, j=j, k=k, lhs=lhs, rhs=rhs,
            )
        return 1
    if args.cmd2 == "gamma-factor":
        factor = gamma_factor(_gamma_table(args))
        out.emit("gamma-factor", str(factor), values=",".join(str(v) for v in factor.values))
        return 0
    variables = tuple(v.strip() for v in args.vars.split(","))
    table = _gamma_table(args)
    values = _hod_values(variables, args.values)
    if args.cmd2 == "define":
        hd = hod_define(table, variables, values)
        for k in range(1, hd.order + 1):
            for v in variables:
                poly = hd.values[(k, v)]
                out.emit("hod", f"d_{k}({v}) = {poly}", k=k, var=v, value=poly)
        return 0
    if args.cmd2 == "eval":
        hd = hod_define(table, variables, values)
        poly = _polynomial(variables, args.expr)
        value = hod_eval(hd, args.k, poly)
        out.emit("hod-eval", f"d_{args.k}({args.expr}) = {value}", k=args.k,
                 expr=args.expr, value=value)
        return 0
    if args.cmd2 == "construct":
        current = hod_define(table.restricted_to(table.order - 1), variables, values)
        ext = hod_construct_next(current, table, _choice(variables, args.choice), args.grid)
        n = ext.order
        for v in variables:
            poly = ext.values[(n, v)]
            out.emit("hod", f"d_{n}({v}) = {poly}", k=n, var=v, value=poly)
        out.emit(
            "hod",
            f"product rule verified at order {n} on monomial pairs of total degree <= {args.grid}",
            status="pass", order=n, grid=args.grid,
        )
        return 0
    if args.cmd2 == "residual":
        hd = hod_define(table, variables, values)
        p = _polynomial(variables, args.p)
        q = _polynomial(variables, args.q)
        value = hod_leibniz_residual(hd, args.k, p, q)
        out.emit("hod-residual", f"residual = {value}", k=args.k, value=value)
        return 0
    raise SessionError(f"unknown hod subcommand {args.cmd2!r}")


def _cmd_cocycle(args, out: Out) -> int:
    if args.cmd2 == "diff":
        carrier = parse_carrier(args.carrier)
        table = fn_from_spec(args.f, carrier)
        maker = cauchy_difference if args.kind == "cauchy" else leibniz_difference
        C = maker(dict(table.values), carrier)
        for (a, b), v in C.table().items():
            out.emit("difference", f"{a} {b} {v}", a=a, b=b, value=v)
        return 0
    if args.cmd2 == "verify":
        if not (args.F or args.f):
            raise SessionError("need --f (pair from one function) or --F (raw cocycle)")
        pair = not args.F
        header, report = check_cocycle(args.f if pair else args.F, args.carrier, pair,
                                       args.mode, args.sample, args.seed)
        out.emit("verify", header, **({"f": args.f} if pair else {"F": args.F}))
        return _report_exit(out, report, "axiom")
    if args.cmd2 == "extend":
        window = _window(args.window)
        F = fn2_from_expr(args.F, window)
        G = fn2_from_expr(args.G, window, "G") if args.G else None
        Fe, Ge, report = cocycle_extend_positive(F, window, G)
        out.emit("extend", f"extended to window [{window.lo}, {window.hi}]",
                 lo=window.lo, hi=window.hi)
        return _report_exit(out, report, "axiom")
    if args.cmd2 == "primitive":
        window = _window(args.window)
        F = fn2_from_expr(args.F, window)
        f = cocycle_primitive(F, window, args.f1)
        for x in sorted(f):
            out.emit("primitive", f"{x} -> {f[x]}", x=x, value=f[x])
        return 0
    if args.cmd2 == "ld-check":
        carrier = parse_carrier(args.carrier)
        D = fn2_from_expr(args.D, carrier, "D")
        report = leibniz_coboundary_check(D, carrier)
        out.emit("ld-check", f"Leibniz-difference conditions on {args.carrier}", D=args.D)
        return _report_exit(out, report, "condition")
    raise SessionError(f"unknown cocycle subcommand {args.cmd2!r}")


def _cmd_char(args, out: Out) -> int:
    carrier = parse_carrier(args.carrier)
    if not isinstance(carrier, FiniteCarrier):
        raise SessionError("characteristic-p commands need a finite carrier")
    if args.cmd2 == "decompose":
        f = fn_from_spec(args.f, carrier)
        g = fn_from_spec(args.g, carrier)
        dec = char_decompose(dict(f.values), dict(g.values), carrier)
        out.emit("decompose", dec.describe(), alpha=dec.alpha, beta=dec.beta,
                 phi=str(sorted(dec.phi.items())))
        return 0
    if args.cmd2 == "alien":
        report = alien_check(args.lam, args.mu, carrier, _budget(args))
        for sol in report.solutions:
            text = ", ".join(f"f({i})={v}" for i, v in enumerate(sol))
            out.emit("solution", "  " + text, table=",".join(str(v) for v in sol))
        out.emit(
            "alien",
            f"solutions: {len(report.solutions)}; only zero: {report.only_zero}; "
            f"all derivations: {report.all_derivations}",
            count=len(report.solutions),
            only_zero=report.only_zero,
            all_derivations=report.all_derivations,
        )
        return 0
    raise SessionError(f"unknown char subcommand {args.cmd2!r}")


def _cmd_multi(args, out: Out) -> int:
    if args.cmd2 == "trace":
        A = _tensor(args.arity, args.dim, args.tensor)
        value = trace(A, _vec(args.x, "--x"))
        out.emit("trace", f"A*({args.x}) = {value}", x=args.x, value=value)
        return 0
    if args.cmd2 == "delta":
        ys, x = _vecs(args.ys, "--ys"), _vec(args.x, "--x")
        for where, vec in [("--ys", y) for y in ys] + [("--x", x)]:
            if len(vec) != args.dim:
                raise SessionError(f"a vector in {where} has length {len(vec)}, "
                                   f"but --dim is {args.dim}")
        value = multi_delta(_vector_fn(args.dim, args.f), ys, x)
        out.emit("delta", f"delta = {value}", value=value)
        return 0
    if args.cmd2 == "polarize":
        A = _tensor(args.arity, args.dim, args.tensor)
        rep = polarization_check(A, _vecs(args.ys, "--ys"), _vec(args.x, "--x"))
        status = "pass" if rep.ok else "FAIL"
        out.emit(
            "polarize",
            f"delta = {rep.lhs}, expected {rep.rhs} (m={rep.m}, arity={rep.arity}): {status}",
            lhs=rep.lhs, rhs=rep.rhs, m=rep.m, arity=rep.arity, status=status,
        )
        return 0 if rep.ok else 1
    if args.cmd2 == "binomial":
        A = _tensor(args.arity, args.dim, args.tensor)
        rep = binomial_check(A, _vec(args.x, "--x"), _vec(args.y, "--y"))
        status = "pass" if rep.ok else "FAIL"
        out.emit("binomial", f"A*(x+y) = {rep.lhs}, expansion = {rep.rhs}: {status}",
                 lhs=rep.lhs, rhs=rep.rhs, status=status)
        return 0 if rep.ok else 1
    if args.cmd2 == "recover":
        check_recovery(args.n, args.dim)
        fn = _vector_fn(args.dim, args.f)
        pf = recover_components(fn, args.n, args.dim)
        for k, comp in enumerate(pf.components):
            lines = comp.serialize()
            if not lines:
                out.emit("component", f"A_{k}: 0", k=k, tensor="0")
                continue
            for line in lines:
                out.emit("component", f"A_{k}: {line}", k=k, entry=line)
        return 0
    raise SessionError(f"unknown multi subcommand {args.cmd2!r}")


def _cmd_feq(args, out: Out) -> int:
    if args.cmd2 == "list":
        for name in sorted(CORPUS):
            eq = CORPUS[name]
            out.emit("equation", eq.describe(), name=eq.name, source=eq.source,
                     params=",".join(eq.params))
        return 0
    eq = equation_by_name(args.eq)
    carrier = parse_carrier(args.carrier)
    params = _param_values(args.params)
    if args.cmd2 == "check":
        table = fn_from_spec(args.f, carrier)
        if params == "all-units":
            if not isinstance(carrier, FiniteCarrier):
                raise SessionError("all-units needs a finite carrier")
            failed = 0
            for lam in carrier.units():
                for mu in carrier.units():
                    report = feq_check(eq, {"f": table}, {"lam": lam, "mu": mu})
                    prefix = f"lam={lam} mu={mu}: "
                    out.emit("check", prefix + report.line(), lam=lam, mu=mu,
                             status=report.status, witness=report.witness)
                    failed += 0 if report.ok else 1
            return 0 if failed == 0 else 1
        report = feq_check(eq, {"f": table}, params,
                           mode=args.mode, sample=args.sample, seed=args.seed)
        out.emit("check", report.line(), equation=eq.name, status=report.status,
                 witness=report.witness, checked=report.checked, skipped=report.skipped)
        return 0 if report.ok else 1
    if args.cmd2 == "solve":
        if not isinstance(carrier, FiniteCarrier):
            raise SessionError("brute-force solving needs a finite carrier")
        budget = _budget(args)
        if params == "all-units":
            for lam in carrier.units():
                for mu in carrier.units():
                    report = feq_solve_brute(eq, list(eq.functions), carrier,
                                             {"lam": lam, "mu": mu}, budget)
                    out.emit("solve", f"lam={lam} mu={mu}: {report.count} solutions",
                             lam=lam, mu=mu, count=report.count)
            return 0
        report = feq_solve_brute(eq, list(eq.functions), carrier, params, budget)
        if report.status == "skipped":
            out.emit("solve", f"{eq.name} on {args.carrier}: skipped ({report.note})",
                     equation=eq.name, status="skipped", note=report.note)
            return 0
        for sol in report.solutions:
            for fname, table in zip(report.unknowns, sol):
                out.emit("solution", f"{fname} = {table}", name=fname, table=table)
        out.emit(
            "solve",
            f"{eq.name} on {args.carrier}: {report.count} solutions "
            f"({report.skipped_pairs} pairs skipped)",
            equation=eq.name, count=report.count, skipped=report.skipped_pairs,
        )
        return 0
    raise SessionError(f"unknown feq subcommand {args.cmd2!r}")


def _cmd_run(args, out: Out) -> int:
    lines, code = run_session(args.script)
    for line in lines:
        out.emit("session", line, line=line)
    return code


# -- argument parser ------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dercalc",
        description="exact derivations on field towers, cocycle calculus, "
        "and functional-equation checking",
    )
    p.add_argument("--format", choices=("text", "records"), default="text")
    sub = p.add_subparsers(dest="cmd", required=True)

    tower = sub.add_parser("tower", help="build and display field towers")
    tower_sub = tower.add_subparsers(dest="cmd2", required=True)
    for name in ("new", "show"):
        tp = tower_sub.add_parser(name)
        tp.add_argument("--spec", required=True,
                        help='generators, e.g. "t:trans;s:alg:s^2 - t"')
        if name == "show":
            tp.add_argument("--expr", help="element to display in canonical form")

    der = sub.add_parser("der", help="derivations on towers")
    der_sub = der.add_subparsers(dest="cmd2", required=True)

    def der_common(sp):
        sp.add_argument("--tower", required=True)
        sp.add_argument("--der", required=True, help='values, e.g. "d(t)=1"')

    dp = der_sub.add_parser("define")
    der_common(dp)
    dp = der_sub.add_parser("eval")
    der_common(dp)
    dp.add_argument("--expr", required=True)
    dp = der_sub.add_parser(
        "residual", formatter_class=argparse.RawDescriptionHelpFormatter,
        description="lhs - rhs of the KIND's rule in f = d + SLOPE*id and in g, which is f\n"
        "unless --der2 or --slope2 gives it; the rational d is given by --dd:\n\n" + "\n".join(
            f"  {kind:9} {rule.equation.format_map(_Spelled())}" for kind, rule in RULES.items()))
    der_common(dp)
    dp.add_argument("kind", choices=tuple(RULES))
    dp.add_argument("--slope", default="0")
    for o in _RESIDUAL_ALL:
        dp.add_argument(f"--{o}", type=int if o in ("k", "n", "m") else None)
    dp = der_sub.add_parser("bracket")
    der_common(dp)
    dp.add_argument("--der2", required=True)
    dp.add_argument("--expr")
    dp = der_sub.add_parser("iterate")
    der_common(dp)
    dp.add_argument("--k", type=int, required=True)
    dp.add_argument("--expr", required=True)
    dp = der_sub.add_parser("rank")
    der_common(dp)
    dp.add_argument("--k", type=int, required=True)
    dp.add_argument("--points", required=True, help="comma-separated elements")
    dp.add_argument("--subst", help='generator values, e.g. "t=2"')

    hod = sub.add_parser("hod", help="higher-order derivation systems")
    hod_sub = hod.add_subparsers(dest="cmd2", required=True)

    def hod_table(sp):
        sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--binomial", action="store_true")
        sp.add_argument("--ones", action="store_true")
        sp.add_argument("--table", help='file of "i j value" lines')

    hp = hod_sub.add_parser("gamma-check")
    hod_table(hp)
    hp = hod_sub.add_parser("gamma-factor")
    hod_table(hp)

    def hod_system(sp):
        hod_table(sp)
        sp.add_argument("--vars", required=True, help="comma-separated variables")
        sp.add_argument("--values", help='e.g. "1:t=1;2:t=t^2"')

    hp = hod_sub.add_parser("define")
    hod_system(hp)
    hp = hod_sub.add_parser("eval")
    hod_system(hp)
    hp.add_argument("--k", type=int, required=True)
    hp.add_argument("--expr", required=True)
    hp = hod_sub.add_parser("construct")
    hod_system(hp)
    hp.add_argument("--choice", help='top generator values, e.g. "t=0"')
    hp.add_argument("--grid", type=int, default=6)
    hp = hod_sub.add_parser("residual")
    hod_system(hp)
    hp.add_argument("--k", type=int, required=True)
    hp.add_argument("--p", required=True)
    hp.add_argument("--q", required=True)

    coc = sub.add_parser("cocycle", help="two-variable cocycle calculus")
    coc_sub = coc.add_subparsers(dest="cmd2", required=True)
    cp = coc_sub.add_parser("diff")
    cp.add_argument("--kind", choices=("cauchy", "leibniz"), required=True)
    cp.add_argument("--f", required=True)
    cp.add_argument("--carrier", required=True)
    cp = coc_sub.add_parser("verify")
    cp.add_argument("--f", help="one-argument function; checks the (F,G) pair")
    cp.add_argument("--F", help="raw two-argument cocycle in a, b")
    cp.add_argument("--carrier", required=True)
    cp.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
    cp.add_argument("--sample", type=int, default=0)
    cp.add_argument("--seed", type=int, default=0)
    cp = coc_sub.add_parser("extend")
    cp.add_argument("--F", required=True, help="cocycle on positive a, b")
    cp.add_argument("--G")
    cp.add_argument("--window", required=True, help="LO:HI")
    cp = coc_sub.add_parser("primitive")
    cp.add_argument("--F", required=True)
    cp.add_argument("--window", required=True)
    cp.add_argument("--f1", type=int, required=True, help="free value f(1)")
    cp = coc_sub.add_parser("ld-check")
    cp.add_argument("--D", required=True, help="two-argument map in a, b")
    cp.add_argument("--carrier", required=True)

    ch = sub.add_parser("char", help="prime-field decomposition and alienness")
    ch_sub = ch.add_subparsers(dest="cmd2", required=True)
    cp = ch_sub.add_parser("decompose")
    cp.add_argument("--f", required=True)
    cp.add_argument("--g", required=True)
    cp.add_argument("--carrier", required=True)
    cp = ch_sub.add_parser("alien")
    cp.add_argument("--lam", type=int, required=True)
    cp.add_argument("--mu", type=int, required=True)
    cp.add_argument("--carrier", required=True)
    cp.add_argument("--budget", type=int)

    mu = sub.add_parser("multi", help="symmetric multiadditive maps")
    mu_sub = mu.add_subparsers(dest="cmd2", required=True)

    def tensor_args(sp):
        sp.add_argument("--arity", type=int, required=True)
        sp.add_argument("--dim", type=int, required=True)
        sp.add_argument("--tensor", required=True,
                        help='"(0,0)=1;(0,1)=2" or @file')

    mp = mu_sub.add_parser("trace")
    tensor_args(mp)
    mp.add_argument("--x", required=True)
    mp = mu_sub.add_parser("delta")
    mp.add_argument("--f", required=True, help="expression in x0..x{dim-1}")
    mp.add_argument("--dim", type=int, required=True)
    mp.add_argument("--ys", required=True, help="vectors separated by |")
    mp.add_argument("--x", required=True)
    mp = mu_sub.add_parser("polarize")
    tensor_args(mp)
    mp.add_argument("--ys", required=True)
    mp.add_argument("--x", required=True)
    mp = mu_sub.add_parser("binomial")
    tensor_args(mp)
    mp.add_argument("--x", required=True)
    mp.add_argument("--y", required=True)
    mp = mu_sub.add_parser("recover")
    mp.add_argument("--f", required=True)
    mp.add_argument("--n", type=int, required=True)
    mp.add_argument("--dim", type=int, required=True)

    fq = sub.add_parser("feq", help="functional equations over finite carriers")
    fq_sub = fq.add_subparsers(dest="cmd2", required=True)
    fp = fq_sub.add_parser("check")
    fp.add_argument("--eq", required=True)
    fp.add_argument("--f", required=True, help='"parity", "zero", or expression in x')
    fp.add_argument("--carrier", required=True)
    fp.add_argument("--params", help='"lam=1,mu=1" or all-units')
    fp.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
    fp.add_argument("--sample", type=int, default=0)
    fp.add_argument("--seed", type=int, default=0)
    fp = fq_sub.add_parser("solve")
    fp.add_argument("--eq", required=True)
    fp.add_argument("--carrier", required=True)
    fp.add_argument("--params")
    fp.add_argument("--budget", type=int)
    fq_sub.add_parser("list")

    rp = sub.add_parser("run", help="execute a session script")
    rp.add_argument("script")

    return p


_HANDLERS = {
    "tower": _cmd_tower,
    "der": _cmd_der,
    "hod": _cmd_hod,
    "cocycle": _cmd_cocycle,
    "char": _cmd_char,
    "multi": _cmd_multi,
    "feq": _cmd_feq,
    "run": _cmd_run,
}

def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    out = Out(args.format)
    try:
        return _HANDLERS[args.cmd](args, out)
    except DercalcError as exc:
        print(f"{'check failed' if exc.exit_code == 1 else 'error'}: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
