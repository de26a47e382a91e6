"""Every outcome of the solver on a fixed grid, one line each, and their digest.

The grid is every corpus equation on GF(5, 7, 11, 13, 17, 19, 23) and
Z/4, 6, 8, 9, 10, 12, at budgets 10^6 and 5000, and the units-only log
check (`logarithmic_zero_check`) on the same carriers at the default budget
and at 200.  An outcome is a solve's status, solution count, skipped pairs
and a digest of its tables, or the message of the error that refused it.
The last line is the sha256 of the outcome lines, so two versions of the
solver that print the same digest list the same solutions, skip the same
pairs and refuse with the same messages on the whole grid.

    PYTHONPATH=src python scripts/solve_sweep.py
"""
import hashlib
import sys

from dercalc.exact import BudgetError, gf, zmod
from dercalc.feq import CORPUS, FeqError, feq_solve_brute, logarithmic_zero_check

CARRIERS = [gf(p) for p in (5, 7, 11, 13, 17, 19, 23)] + [zmod(n) for n in (4, 6, 8, 9, 10, 12)]
BUDGETS = (10 ** 6, 5000)
LOG_BUDGETS = (None, 200)  # None is the default budget
PARAMS = (1, 2)  # the values of an equation's parameters, in order (alien-c22: lam, mu)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def solve(eq, carrier, budget):
    """A corpus solve's status, tables and skipped pairs."""
    report = feq_solve_brute(eq, eq.functions, carrier, dict(zip(eq.params, PARAMS)), budget)
    tables = [[t.serialize() for t in sol] for sol in report.solutions]
    return report.status, tables, report.skipped_pairs


def log_check(carrier, budget):
    """The units-only log check's status, tables and skipped pairs."""
    report = logarithmic_zero_check(carrier, units_only=True, budget=budget)
    return "complete", [sorted(sol.items()) for sol in report.solutions], 0


def outcome(run, *args) -> str:
    """`run(*args)` as text, or the error that refused it."""
    try:
        status, tables, skipped = run(*args)
    except (BudgetError, FeqError) as exc:
        return f"refused: {type(exc).__name__}: {exc}"
    return (f"{status}, {len(tables)} solution(s), {skipped} skipped, "
            f"tables {digest(repr(tables))[:16]}")


def outcomes():
    for eq in CORPUS.values():
        for carrier in CARRIERS:
            for budget in BUDGETS:
                yield (f"{eq.name} on {carrier}, budget {budget}: "
                       f"{outcome(solve, eq, carrier, budget)}")
    for carrier in CARRIERS:
        for budget in LOG_BUDGETS:
            yield (f"units-only log check on {carrier}, budget {budget or 'default'}: "
                   f"{outcome(log_check, carrier, budget)}")


def main() -> int:
    lines = list(outcomes())
    for line in lines:
        print(line)
    print("sha256", digest("".join(line + "\n" for line in lines)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
