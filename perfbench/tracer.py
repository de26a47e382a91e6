"""Spans around the public functions of each dercalc module.

The tracer replaces functions and methods with wrappers from this file;
nothing in src/ changes. Each call records a span (name, start, end,
parent, operation index, outcome) in memory. `layer_metrics` derives the
per-layer figures from the spans of timed operations: a layer's self time
is the time its spans cover minus the time their child spans cover.
"""
from __future__ import annotations

import functools
import json
import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple


def _pairs(args, kwargs, report) -> int:
    return report.checked + report.skipped


def _tuples(args, kwargs, report) -> int:
    return sum(r.checked + r.skipped for r in report.axioms.values())


def _solutions(args, kwargs, report) -> int:
    return report.count


def _cocycle_kind(args, kwargs) -> str:
    return "sampled" if kwargs.get("mode", args[3] if len(args) > 3 else "") == "sampled" else "verify"


_ARITH = ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__", "__rmul__",
          "inv", "__truediv__", "__rtruediv__", "__pow__")

# (module, attribute or Class.method, layer, kind, count of work done)
TARGETS: List[Tuple[str, str, str, object, Optional[Callable]]] = (
    [("towers", f"TowerElement.{m}", "towers", "arith", None) for m in _ARITH]
    + [
        ("towers", "TowerElement.__str__", "towers", "print", None),
        ("towers", "element_eval", "towers", "eval", None),
        ("towers", "tower_new", "towers", "build", None),
        ("towers", "FieldTower.adjoin_transcendental", "towers", "build", None),
        ("towers", "FieldTower.adjoin_algebraic", "towers", "build", None),
        ("derivations", "Derivation.eval", "derivations", "eval", None),
        ("derivations", "Derivation.__call__", "derivations", "eval", None),
        ("derivations", "derivation_define", "derivations", "define", None),
        ("derivations", "leibniz_residual", "derivations", "residual", None),
        ("derivations", "power_rule_residual", "derivations", "residual", None),
        ("derivations", "reflection_residual", "derivations", "residual", None),
        ("exact", "poly_gcd", "exact", "gcd", None),
        ("exact", "RatFunc.__init__", "exact", "ratfunc", None),
        ("exact", "RatFunc.__str__", "exact", "print", None),
        ("parser", "parse_expr", "parser", "parse", None),
        ("parser", "parse_equation", "parser", "parse", None),
        ("higher", "hod_define", "higher", "define", None),
        ("higher", "hod_eval", "higher", "api", None),
        ("higher", "HigherDerivation.eval", "higher", "eval", None),
        ("multiadd", "recover_components", "multiadd", "recover", None),
        ("feq", "feq_check", "feq", "check", _pairs),
        ("feq", "feq_solve_brute", "feq", "solve", _solutions),
        ("feq", "logarithmic_zero_check", "feq", "logzero", None),
        ("cocycle", "cocycle_verify", "cocycle", _cocycle_kind, _tuples),
        ("cocycle", "leibniz_coboundary_check", "cocycle", "coboundary", _tuples),
        ("cocycle", "alien_check", "cocycle", "alien", None),
        ("cocycle", "cauchy_difference", "cocycle", "build", None),
        ("cocycle", "leibniz_difference", "cocycle", "build", None),
        ("session", "run_session_text", "session", "script", None),
    ]
)

NAME, START, END, PARENT, OP, OUTCOME = range(6)


class Tracer:
    """Collects spans; `op` is the index of the operation being timed, or
    -1 outside timed operations."""

    def __init__(self) -> None:
        self.names: List[Tuple[str, str, str]] = []   # (qualified name, layer, kind)
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.op = -1

    def _name_id(self, name: str, layer: str, kind: str) -> int:
        key = (name, layer, kind)
        if key not in self.names:
            self.names.append(key)
        return self.names.index(key)

    def wrap(self, fn, name: str, layer: str, kind, count: Optional[Callable]):
        spans, stack = self.spans, self.stack
        ids: Dict[str, int] = {}

        def name_id(k: str) -> int:
            if k not in ids:
                ids[k] = self._name_id(name, layer, k)
            return ids[k]

        static = None if callable(kind) else name_id(kind)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = static if static is not None else name_id(kind(args, kwargs))
            idx = len(spans)
            span = [nid, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            spans.append(span)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[OUTCOME] = type(exc).__name__
                raise
            finally:
                span[END] = perf_counter()
                span[START] = start
                stack.pop()
            if count is not None:
                span[OUTCOME] = count(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target, in its defining module and wherever another
        dercalc module imported it by name."""
        modules = [m for n, m in sys.modules.items() if n == "dercalc" or n.startswith("dercalc.")]
        for mod_name, attr, layer, kind, count in TARGETS:
            home = sys.modules[f"dercalc.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, meth, self.wrap(cls.__dict__[meth], f"{mod_name}.{attr}", layer, kind, count))
                continue
            original = getattr(home, attr)
            wrapped = self.wrap(original, f"{mod_name}.{attr}", layer, kind, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def dump(self, path: str, ops: List[dict]) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "outcome"],
                       "names": self.names, "ops": ops, "spans": self.spans}, fh)


def layer_metrics(names, spans) -> Dict[str, Tuple[float, str]]:
    """Per-layer (value, unit) pairs from the spans of timed operations."""
    n = len(spans)
    child = [0.0] * n
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    # kinds[i]: the (layer, kind) pairs on span i's ancestor chain, itself included.
    kinds: List[frozenset] = [frozenset()] * n
    calls: Dict[Tuple[str, str], int] = {}
    outer: Dict[Tuple[str, str], float] = {}
    self_s: Dict[str, float] = {}
    counts: Dict[Tuple[str, str], int] = {}
    refused = 0
    for i, s in enumerate(spans):
        _, layer, kind = names[s[NAME]]
        key = (layer, kind)
        above = kinds[s[PARENT]] if s[PARENT] >= 0 else frozenset()
        kinds[i] = above | {key}
        if s[OP] < 0:
            continue
        dur = s[END] - s[START]
        calls[key] = calls.get(key, 0) + 1
        if key not in above:
            outer[key] = outer.get(key, 0.0) + dur
        self_s[layer] = self_s.get(layer, 0.0) + dur - child[i]
        if isinstance(s[OUTCOME], int):
            counts[key] = counts.get(key, 0) + s[OUTCOME]
        if key == ("feq", "solve") and s[OUTCOME] == "BudgetError":
            refused += 1

    def c(layer, kind):
        return calls.get((layer, kind), 0), "count"

    def t(layer, kind):
        return outer.get((layer, kind), 0.0), "s"

    def own(layer):
        return self_s.get(layer, 0.0), "s"

    def rate(count, seconds):
        return (count / seconds if seconds else 0.0), "1/s"

    pairs = counts.get(("feq", "check"), 0)
    tuples = sum(counts.get(("cocycle", k), 0) for k in ("verify", "sampled", "coboundary"))
    tuple_s = sum(outer.get(("cocycle", k), 0.0) for k in ("verify", "sampled", "coboundary"))
    return {
        "towers.arith_calls": c("towers", "arith"),
        "towers.arith_s": t("towers", "arith"),
        "towers.eval_s": t("towers", "eval"),
        "towers.print_calls": c("towers", "print"),
        "towers.print_s": t("towers", "print"),
        "towers.self_s": own("towers"),
        "derivations.eval_calls": c("derivations", "eval"),
        "derivations.eval_s": t("derivations", "eval"),
        "derivations.self_s": own("derivations"),
        "derivations.define_s": t("derivations", "define"),
        "exact.gcd_calls": c("exact", "gcd"),
        "exact.gcd_s": t("exact", "gcd"),
        "exact.ratfunc_calls": c("exact", "ratfunc"),
        "exact.self_s": own("exact"),
        "parser.calls": c("parser", "parse"),
        "parser.self_s": own("parser"),
        "higher.eval_calls": c("higher", "eval"),
        "higher.self_s": own("higher"),
        "multiadd.recover_calls": c("multiadd", "recover"),
        "multiadd.self_s": own("multiadd"),
        "feq.pairs": (pairs, "count"),
        "feq.pairs_per_s": rate(pairs, outer.get(("feq", "check"), 0.0)),
        "feq.check_s": t("feq", "check"),
        "feq.solve_calls": c("feq", "solve"),
        "feq.solve_s": t("feq", "solve"),
        "feq.solutions": (counts.get(("feq", "solve"), 0), "count"),
        "feq.refused": (refused, "count"),
        "cocycle.tuples": (tuples, "count"),
        "cocycle.tuples_per_s": rate(tuples, tuple_s),
        "cocycle.self_s": own("cocycle"),
        "cocycle.sampled_s": t("cocycle", "sampled"),
        "session.scripts": c("session", "script"),
        "session.self_s": own("session"),
    }
