"""One benchmark interpreter; run.py starts it, one at a time.

Modes:
  setup  import dercalc and build the inputs of one workload, then exit
  run    the closed loop: whole rounds of one workload's operations, each
         round in a seeded shuffled order, until --seconds have passed and
         at least MIN_OPS operations succeeded, or until the next round
         would likely end past --stop-after. The machine gauge runs before
         every operation, and each successful operation is reported with
         the median gauge of the GAUGE_SPAN operations around it
  pass   one round of every workload for the per-layer metrics, traced
         when --trace-out names a file for the spans

The last line of standard output is a JSON object.
"""
from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
from time import perf_counter

import oracles
import workloads

# Fewer successful operations than this leave no tail for the 90th percentile.
MIN_OPS = 100
# Gauge readings per set-up, and operations whose gauge readings are pooled.
SETUP_GAUGES = 5
GAUGE_SPAN = 5
STARTED = perf_counter()


def calibrate() -> float:
    """Milliseconds of a fixed pure-Python loop: a gauge of machine speed.

    The host's speed drifts by about a fifth over seconds to minutes, and
    dercalc's operations drift with this loop: scaled by it, ten-second
    stretches of `check` spread 0.04 instead of 0.19."""
    start = perf_counter()
    total = 0
    for i in range(30000):
        total += i * i % 7
    return (perf_counter() - start) * 1e3


class Round:
    """Runs operations in a given order and checks their answers.

    Repeats of an operation must give the digest its first run gave, and
    that first digest must pass the operation's independent check."""

    def __init__(self, ops):
        self.ops = ops
        self.verified = {}
        self.attempted = self.failed = 0
        self.errors = []
        self.latencies = []
        self.gauges = []

    def run(self, order, before_each=None):
        """Runs the operations; before_each(i) is called, untimed, before
        operation i, and what it returns is kept as that operation's gauge."""
        results = []
        for i in order:
            gauge = before_each(i) if before_each else None
            start = perf_counter()
            try:
                result, err = self.ops[i].run(), None
            except Exception as exc:  # a failed operation is counted, not fatal
                result, err = None, exc
            results.append((i, result, err, perf_counter() - start, gauge))
        return results

    def check(self, results) -> None:
        """Record the outcome of each operation and check its answer."""
        for i, result, err, dt, gauge in results:
            op = self.ops[i]
            self.attempted += 1
            if err is not None:
                self.failed += 1
                fault = op.fault
                if not (fault and type(err).__name__ == fault.exc and fault.fragment in str(err)):
                    self.errors.append(f"{op.label}: unexpected {type(err).__name__}: {err}")
                continue
            try:
                digest = op.digest(result)
                if i in self.verified:
                    oracles.expect(digest == self.verified[i], f"{op.label}: answer changed on repeat")
                else:
                    op.check(digest)
                    self.verified[i] = digest
            except Exception as exc:  # any disagreement is reported, not fatal
                self.errors.append(f"{type(exc).__name__}: {exc}")
            self.latencies.append(dt)
            self.gauges.append(gauge)


def shuffled(n: int, seed: int, round_no: int, workload: str):
    order = list(range(n))
    random.Random(f"order:{workload}:{seed}:{round_no}").shuffle(order)
    return order


def local_gauges(results):
    """Each operation's gauge replaced by the median of the GAUGE_SPAN
    readings around it, so that one disturbed reading weighs little."""
    raw = [r[4] for r in results]
    half = GAUGE_SPAN // 2
    return [r[:4] + (statistics.median(raw[max(0, k - half):k + half + 1]),)
            for k, r in enumerate(results)]


def set_up(args):
    """Import dercalc and build the inputs; returns the operations, the
    seconds this took and the median gauge read just before."""
    gauge = statistics.median(calibrate() for _ in range(SETUP_GAUGES))
    start = perf_counter()
    import dercalc  # noqa: F401  (timed: part of set-up)
    ops = workloads.build(args.workload, args.seed)
    return ops, perf_counter() - start, gauge


def mode_setup(args) -> dict:
    _, setup_s, gauge = set_up(args)
    return {"setup_s": setup_s, "setup_gauge_ms": gauge}


def mode_run(args) -> dict:
    ops, setup_s, setup_gauge = set_up(args)
    rnd = Round(ops)
    loop_start = perf_counter()
    rounds = 0
    while True:
        round_start = perf_counter()
        results = rnd.run(shuffled(len(ops), args.seed, rounds, args.workload),
                          lambda i: calibrate())
        rnd.check(local_gauges(results))
        rounds += 1
        now = perf_counter()
        if now - loop_start >= args.seconds and len(rnd.latencies) >= MIN_OPS:
            break
        # A much slower program still reports: stop rather than be killed.
        if now + (now - round_start) > STARTED + args.stop_after:
            break
    return {
        "setup_s": setup_s,
        "setup_gauge_ms": setup_gauge,
        "rounds": rounds,
        "attempted": rnd.attempted,
        "failed": rnd.failed,
        "errors": rnd.errors,
        "latencies_s": rnd.latencies,
        "gauges_ms": rnd.gauges,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def mode_pass(args) -> dict:
    import dercalc  # noqa: F401
    import tracer as tr

    tracer = tr.Tracer() if args.trace_out else None
    if tracer:
        tracer.install()
    built = {w: workloads.build(w, args.seed) for w in workloads.WORKLOADS}
    out = {"workloads": {}, "calib_ms": []}
    op_meta = []
    for w, ops in built.items():
        rnd = Round(ops)
        base = len(op_meta)
        op_meta += [{"workload": w, "kind": op.kind, "label": op.label} for op in ops]

        def before_each(i, base=base):
            if tracer:
                tracer.op = base + i
            else:
                out["calib_ms"].append(calibrate())

        results = rnd.run(shuffled(len(ops), args.seed, 0, w), before_each)
        if tracer:
            tracer.op = -1
        rnd.check(results)
        out["workloads"][w] = {"attempted": rnd.attempted, "failed": rnd.failed,
                               "errors": rnd.errors,
                               "op_s": sum(r[3] for r in results)}
    if tracer:
        out["metrics"] = tr.layer_metrics(tracer.names, tracer.spans)
        out["spans"] = len(tracer.spans)
        tracer.dump(args.trace_out, op_meta)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    modes = ap.add_subparsers(dest="mode", required=True)
    setup, run, pass_ = (modes.add_parser(m) for m in ("setup", "run", "pass"))
    for sub in (setup, run):
        sub.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    for sub in (setup, run, pass_):
        sub.add_argument("--seed", type=int, required=True)
    run.add_argument("--seconds", type=float, required=True)
    run.add_argument("--stop-after", type=float, required=True,
                     help="seconds from the start of this interpreter by which it must end")
    pass_.add_argument("--trace-out", help="trace the pass and write the spans to this file")
    args = ap.parse_args(argv)
    result = {"setup": mode_setup, "run": mode_run, "pass": mode_pass}[args.mode](args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
