"""Finite-carrier evidence for the two open separation questions.

The corpus equations opp2 and opp3 each ask whether a single identity mixing
an additive-type and a Leibniz-type defect forces both defects to vanish.
Nobody knows the answer over the rationals; over a prime field GF(p) both
equations are linear in the table of f, so the solutions are the kernel of
a p^2 x p system mod p, which `feq_solve_brute` finds by elimination and
this script lists.  Elimination reads the system's rows on demand: a seed
of about 3p rows, then the rows its failing re-checks point to, so a run
reads a few rows per table entry rather than all p^2.

A run prints, per prime, every solution table of each equation and whether
it is additive, Leibniz, both, or neither.  Finding only the zero table is
consistent with a separation theorem but proves nothing beyond the primes
listed; a nonzero solution would be an actual counterexample for that field.
"""
import argparse
import sys
from typing import Sequence

from dercalc.exact import gf
from dercalc.feq import CORPUS, FnTable, equation_by_name, feq_check, feq_solve_brute

EQUATIONS = ("opp2", "opp3")
BUDGET = 10 ** 30


def classify(tab: FnTable) -> str:
    additive, leibniz = (feq_check(CORPUS[name], {"f": tab}).ok
                         for name in ("cauchy-add", "leibniz"))
    if additive and leibniz:
        return "derivation (additive and Leibniz)"
    if additive:
        return "additive only"
    if leibniz:
        return "Leibniz only"
    return "neither part holds separately"


def run(primes: Sequence[int], show_tables: bool) -> int:
    surprises = 0
    for name in EQUATIONS:
        eq = equation_by_name(name)
        print(f"== {eq.describe()}")
        for p in primes:
            report = feq_solve_brute(eq, ("f",), gf(p), budget=BUDGET)
            nonzero = [
                sol[0] for sol in report.solutions
                if any(v != 0 for v in sol[0].values.values())
            ]
            print(f"GF({p}): {report.count} solution(s), status {report.status}")
            if show_tables:
                for (tab,) in report.solutions:
                    print(f"  f = {tab}  [{classify(tab)}]")
            if nonzero:
                surprises += len(nonzero)
                print(f"  NONZERO SOLUTION over GF({p}) -- a counterexample for this field")
        print()
    if surprises:
        print(f"{surprises} nonzero solution(s) found; the separation fails on those fields.")
    else:
        print("Only zero tables found.  Evidence, not proof: the question stays open")
        print("for infinite carriers, and larger primes remain unchecked.")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--primes", default="3,5,7,11,13",
        help="comma-separated primes to enumerate (default 3,5,7,11,13)",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress solution tables")
    args = parser.parse_args(argv)
    return run([int(p) for p in args.primes.split(",")], show_tables=not args.quiet)


if __name__ == "__main__":
    sys.exit(main())
