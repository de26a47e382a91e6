"""Steadiness of the benchmark: repeated runs, median and quartile spread.

    python3 perfbench/steady.py --workloads derive,check,solve --seeds 1-10 --seconds 30

Runs run.py once per workload and seed, one run at a time, and prints for
each metric the median, the quartiles (statistics.quantiles, n=4) and the
spread (q3 - q1) / median, with the failed share of every run. A metric's
bound in BENCHMARK.json should exceed its spread at least threefold.
The raw results go to perfbench/out/steady-<time>.json.

    python3 perfbench/steady.py --against perfbench/out/steady-<time>.json

also prints, per metric, the median of that earlier set and by what share
of it this set's median is worse (negative: better). Two sets of the same
code should stay within each metric's bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def median(rs, name):
    return statistics.median(r["metrics"][name]["value"] for r in rs)


def seeds(spec: str):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="derive,check,solve")
    ap.add_argument("--seeds", default="1-10", help="inclusive range, as 1-10")
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--against", type=Path, help="raw results of an earlier set")
    args = ap.parse_args(argv)
    earlier = json.loads(args.against.read_text()) if args.against else {}
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    runs = {}
    for w in args.workloads.split(","):
        runs[w] = []
        for seed in seeds(args.seeds):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"], result["wall_s"] = seed, time.perf_counter() - start
            runs[w].append(result)
            print(f"{w} seed {seed}: {result['wall_s']:.1f} s, correct {result['correct']}, "
                  f"failed {result['failed']}/{result['attempted']}", flush=True)
    print()
    print(f"{'workload':9s} {'metric':14s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'spread':>7s}"
          f" {'bound':>6s}" + (f" {'earlier':>10s} {'worse':>7s}" if earlier else ""))
    for w, rs in runs.items():
        for name in rs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in rs]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / med if med else float("nan")
            row = (f"{w:9s} {name:14s} {med:10.5g} {q1:10.5g} {q3:10.5g} {spread:7.3f}"
                   f" {e2e[name]['bound']:6.2f}")
            if earlier.get(w):
                before = median(earlier[w], name)
                worse = (med - before) / before
                if e2e[name]["better"] == "higher":
                    worse = -worse
                row += f" {before:10.5g} {worse:7.3f}"
            print(row)
        shares = sorted({r["failed"] / r["attempted"] for r in rs})
        print(f"{w:9s} {'failed share':26s} {', '.join(f'{s:.5f}' for s in shares)}")
        print(f"{w:9s} {'all correct':26s} {all(r['correct'] for r in rs)}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(runs, indent=1))
    print(f"\nraw results: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
