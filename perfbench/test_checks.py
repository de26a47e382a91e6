"""The benchmark's checks reject wrong answers; its tracer counts and
subtracts spans correctly; its machine gauge is pooled and applied as
documented.

    python3 perfbench/test_checks.py

Each test takes a real answer from a cheap operation, confirms that the
check accepts it, then changes the answer and confirms the check rejects it.
"""
from __future__ import annotations

import sys
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracles as O  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402

_BUILT = {}


def ops_of(workload: str, kind: str):
    if workload not in _BUILT:
        _BUILT[workload] = workloads.build(workload, 7)
    return [op for op in _BUILT[workload] if op.kind == kind]


def answer(op):
    return op.digest(op.run())


class CheckRejects(unittest.TestCase):
    def assert_rejects(self, op, digest):
        with self.assertRaises(O.CheckError):
            op.check(digest)

    def accepted(self, op):
        digest = answer(op)
        op.check(digest)
        return digest

    # -- derive --

    def test_derivative(self):
        op = ops_of("derive", "der_t")[0]
        printed = self.accepted(op)
        self.assert_rejects(op, printed + " + 1")
        self.assert_rejects(op, printed.replace("t", "(t + 1)", 1))
        self.assert_rejects(op, "0")

    def test_derivative_with_algebraic_generator(self):
        op = ops_of("derive", "der_s")[0]
        printed = self.accepted(op)
        # s and -s agree on t = s^2 but not on the derivative's value.
        self.assert_rejects(op, printed.replace("s", "(-s)"))

    def test_residuals(self):
        leibniz = ops_of("derive", "leibniz")[0]
        self.accepted(leibniz)
        self.assert_rejects(leibniz, "t - t + 1")
        for kind in ("power", "reflection"):
            op = next(op for op in ops_of("derive", kind) if "slope=1" in op.label)
            printed = self.accepted(op)
            self.assert_rejects(op, "0" if printed != "0" else "t")

    def test_higher_system(self):
        op = ops_of("derive", "hod")[0]
        terms = self.accepted(op)
        wrong = [dict(t) for t in terms]
        e = max(wrong[1])
        wrong[1][e] += 1
        self.assert_rejects(op, wrong)

    def test_recover(self):
        op = ops_of("derive", "recover")[0]
        comps = self.accepted(op)
        wrong = [dict(c) for c in comps]
        idx = next(iter(wrong[2]))
        wrong[2][idx] += Fraction(1, 2)
        self.assert_rejects(op, wrong)

    # -- check --

    def test_feq(self):
        for op in ops_of("check", "feq")[:14]:
            if op.fault:
                continue
            status, witness, lhs, rhs, checked, skipped = self.accepted(op)
            self.assert_rejects(op, ("fail" if status == "pass" else "pass",
                                     witness, lhs, rhs, checked, skipped))
            self.assert_rejects(op, (status, witness, lhs, rhs, checked + 1, skipped))

    def test_feq_window_skips(self):
        op = next(op for op in ops_of("check", "feq") if "Z[" in op.label)
        status, witness, lhs, rhs, checked, skipped = self.accepted(op)
        self.assertGreater(skipped, 0)
        self.assert_rejects(op, (status, witness, lhs, rhs, checked + skipped, 0))

    def test_cocycle_counts_and_witness(self):
        for op in ops_of("check", "cocycle") + ops_of("check", "coboundary"):
            got = self.accepted(op)
            name = next(iter(got))
            res = got[name]
            wrong = dict(got, **{name: res[:4] + (res[4] - 1, res[5] + 1)})
            self.assert_rejects(op, wrong)

    def test_sampled(self):
        op = ops_of("check", "sampled")[0]
        got = self.accepted(op)
        res = got["beta"]
        # Any split of the sample into checked and skipped tuples is accepted.
        op.check(dict(got, beta=res[:4] + (res[4] + 1, res[5] - 1)))
        self.assert_rejects(op, dict(got, beta=res[:4] + (res[4] + 1, res[5])))
        self.assert_rejects(op, dict(got, beta=("fail", (1, 2, 3), 0, 1) + res[4:]))
        self.assert_rejects(op, dict(got, zeta=("pass", None, None, None, 1, 0)))
        self.assert_rejects(op, {k: v for k, v in got.items() if k != "delta"})

    def test_session(self):
        for op in ops_of("check", "session")[:2]:
            lines, code = self.accepted(op)
            self.assert_rejects(op, (lines, 1 - code))
            self.assert_rejects(op, (lines[:-1], code))
            eval_line = lines[0]
            self.assert_rejects(op, ([eval_line + " + 1"] + lines[1:], code))
            self.assert_rejects(op, (lines[:1] + [lines[1].replace("pass", "FAIL")] + lines[2:], code))

    def test_kept_failing_operation_fails_as_named(self):
        op = next(op for op in ops_of("check", "feq") if op.fault)
        with self.assertRaises(Exception) as ctx:
            op.run()
        self.assertEqual(type(ctx.exception).__name__, op.fault.exc)
        self.assertIn(op.fault.fragment, str(ctx.exception))

    # -- solve --

    def test_solver_counts_and_tables(self):
        for label in ("opp3 on GF(19)", "cauchy-exp on GF(19)", "ger-hom on GF(19)"):
            op = next(op for op in ops_of("solve", "solve") if op.label.endswith(label))
            tables = self.accepted(op)
            self.assert_rejects(op, tables[:-1])
            self.assert_rejects(op, tables + tables[:1])
            wrong = [dict(t) for t in tables]
            wrong[0][3] = (wrong[0][3] + 1) % 19
            self.assert_rejects(op, wrong)

    def test_logarithmic_maps(self):
        for op in ops_of("solve", "logzero"):
            sols = self.accepted(op)
            wrong = [dict(s) for s in sols]
            key = max(wrong[-1])
            wrong[-1][key] += 1
            self.assert_rejects(op, wrong)

    def test_alien(self):
        op = ops_of("solve", "alien")[0]
        sols, all_der = self.accepted(op)
        self.assert_rejects(op, (sols, False))
        self.assert_rejects(op, (sols + [tuple(range(19))], all_der))


class Oracles(unittest.TestCase):
    def test_reader(self):
        env = {"t": Fraction(4), "s": Fraction(2), "u": Fraction(-3)}
        self.assertEqual(O.read_value("(-2*t*s*u^3 + 1)/(2*t)", env), Fraction(433, 8))
        self.assertEqual(O.read_value("-1/u", env), Fraction(1, 3))
        self.assertEqual(O.read_value("3*s/2", env), Fraction(3))
        with self.assertRaises(O.CheckError):
            O.read_value("2*t)", env)

    def test_closed_forms_match_rank(self):
        for eq in ("cauchy-add", "jensen", "hosszu", "leibniz"):
            for p in (5, 7, 11):
                self.assertEqual(O.linear_solution_count(eq, p), O.closed_form_count(eq, p), (eq, p))

    def test_window_order_is_canonical(self):
        from dercalc import IntegerWindow
        self.assertEqual(O.window_order(-3, 5), list(IntegerWindow(-3, 5).elements()))


class Tracing(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        names = [("x.a", "towers", "arith"), ("x.b", "exact", "gcd"), ("x.c", "towers", "print")]
        spans = [
            [2, 0.0, 10.0, -1, 0, None],   # print, 10 s
            [0, 1.0, 4.0, 0, 0, None],     # arith inside print, 3 s
            [0, 2.0, 3.0, 1, 0, None],     # arith inside arith, 1 s
            [1, 5.0, 9.0, 0, 0, None],     # gcd inside print, 4 s
            [0, 20.0, 22.0, -1, -1, None],  # outside an operation: ignored
        ]
        m = {k: v for k, (v, _) in tr.layer_metrics(names, spans).items()}
        self.assertEqual(m["towers.print_s"], 10.0)
        self.assertEqual(m["towers.arith_calls"], 2)
        self.assertEqual(m["towers.arith_s"], 3.0)      # nested arith counted once
        self.assertEqual(m["exact.gcd_s"], 4.0)
        self.assertEqual(m["exact.self_s"], 4.0)
        self.assertEqual(m["towers.self_s"], 3.0 + 2.0 + 1.0)

    def test_counts_repeat(self):
        import dercalc  # noqa: F401
        tracer = tr.Tracer()
        tracer.install()
        try:
            ops = workloads.build("derive", 3)[:12] + workloads.build("check", 3)[:6]
            counts = []
            for _ in range(2):
                del tracer.spans[:]
                for i, op in enumerate(ops):
                    tracer.op = i
                    op.run()
                tracer.op = -1
                m = tr.layer_metrics(tracer.names, tracer.spans)
                counts.append({k: v for k, (v, unit) in m.items() if unit == "count"})
            self.assertEqual(counts[0], counts[1])
            self.assertGreater(counts[0]["towers.arith_calls"], 0)
            self.assertGreater(counts[0]["parser.calls"], 0)
        finally:
            tracer.op = -1


class Gauge(unittest.TestCase):
    def test_local_gauge_is_the_median_around_each_operation(self):
        import worker
        results = [(i, None, None, 0.1, g) for i, g in enumerate([2.0, 9.0, 2.2, 2.4, 2.6, 2.8])]
        gauges = [r[4] for r in worker.local_gauges(results)]
        # Windows of five, cut at the ends: the 9.0 reading never wins.
        for got, want in zip(gauges, [2.2, 2.3, 2.4, 2.6, 2.5, 2.6], strict=True):
            self.assertAlmostEqual(got, want)

    def test_scaling_to_the_reference_speed(self):
        import run
        self.assertEqual(run._scaled(1.0, run.REFERENCE_GAUGE_MS), 1.0)
        self.assertAlmostEqual(run._scaled(1.0, 2 * run.REFERENCE_GAUGE_MS), 0.5)


if __name__ == "__main__":
    unittest.main()
