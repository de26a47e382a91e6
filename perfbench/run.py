"""dercalc benchmark: one workload, checked answers, one JSON line of metrics.

    python3 perfbench/run.py --workload derive --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; dercalc is imported from src/.
Every interpreter it starts is fresh and single-threaded, and runs alone.

--trace 0: nine set-up probes, then the closed-loop run. Prints the
  end-to-end metrics: setup_s, ops_per_s, op_p50_ms, op_p90_ms, peak_rss_mb.
  Times are scaled to the reference machine speed: each is multiplied by
  REFERENCE_GAUGE_MS over the gauge read next to it (worker.calibrate).
  The run stops early, still reporting, when another round would not end
  in time.
--trace 1: one round of every workload untraced, then the same rounds
  traced; prints the per-layer metrics and writes the spans to
  perfbench/out/trace-<workload>-<seed>.json. attempted and failed are
  those of the named workload's round.

Exits with 2, printing no result, when the sources or a worker fail.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 9
IMPORT_PROBES = 5
# Milliseconds worker.calibrate() takes at the reference machine speed,
# about its median on the 2-vCPU Xeon the bounds were set on.
REFERENCE_GAUGE_MS = 2.5
# Every run must end within this many seconds.
DEADLINE_S = 175.0
# Time kept back from the closed-loop worker for its start, its last
# round's overrun and the report.
RESERVE_S = 10.0


class BenchError(Exception):
    pass


def _env() -> dict:
    # The hash seed is fixed so that call counts repeat exactly.
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")


def _python(args, deadline: float) -> str:
    """Run a fresh interpreter to completion and return its last output line."""
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[:2]} did not finish in time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args[:2]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return lines[-1]


def _worker(mode: str, deadline: float, *extra: str) -> dict:
    return json.loads(_python([str(HERE / "worker.py"), mode, *extra], deadline))


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _report_errors(errors) -> None:
    for line in errors[:20]:
        print(f"check failed: {line}", file=sys.stderr)


def _scaled(seconds: float, gauge_ms: float) -> float:
    """A time taken at the machine speed a gauge read, at the reference speed."""
    return seconds * REFERENCE_GAUGE_MS / gauge_ms


def end_to_end(workload: str, seed: int, seconds: int, deadline: float) -> dict:
    common = ["--workload", workload, "--seed", str(seed)]
    probes = [_worker("setup", deadline, *common) for _ in range(SETUP_PROBES)]
    stop_after = deadline - perf_counter() - RESERVE_S
    run = _worker("run", deadline, *common, "--seconds", str(seconds),
                  "--stop-after", f"{stop_after:.3f}")
    setups = [_scaled(p["setup_s"], p["setup_gauge_ms"]) for p in probes + [run]]
    lat_ms = sorted(1e3 * _scaled(x, g) for x, g in zip(run["latencies_s"], run["gauges_ms"]))
    _report_errors(run["errors"])
    return {
        "correct": not run["errors"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            "setup_s": _metric(statistics.median(setups), "s"),
            "ops_per_s": _metric(len(lat_ms) / (sum(lat_ms) / 1e3), "1/s"),
            "op_p50_ms": _metric(statistics.median(lat_ms), "ms"),
            "op_p90_ms": _metric(statistics.quantiles(lat_ms, n=10)[8], "ms"),
            "peak_rss_mb": _metric(run["peak_rss_mb"], "MB"),
        },
    }


def traced(workload: str, seed: int, deadline: float) -> dict:
    OUT.mkdir(exist_ok=True)
    code = "import time; t = time.perf_counter(); import dercalc.cli; print(time.perf_counter() - t)"
    imports = [float(_python(["-c", code], deadline)) for _ in range(IMPORT_PROBES)]
    plain = _worker("pass", deadline, "--seed", str(seed))
    trace_out = OUT / f"trace-{workload}-{seed}.json"
    spans = _worker("pass", deadline, "--seed", str(seed), "--trace-out", str(trace_out))
    errors = [e for p in (plain, spans) for w in p["workloads"].values() for e in w["errors"]]
    _report_errors(errors)
    own = spans["workloads"][workload]
    metrics = {name: _metric(value, unit) for name, (value, unit) in spans["metrics"].items()}
    metrics["cli.import_s"] = _metric(statistics.median(imports), "s")
    metrics["machine.calib_ms"] = _metric(statistics.median(plain["calib_ms"]), "ms")
    overhead = sum(w["op_s"] for w in spans["workloads"].values()) - sum(
        w["op_s"] for w in plain["workloads"].values())
    metrics["trace.overhead_s"] = _metric(overhead, "s")
    return {"correct": not errors, "attempted": own["attempted"], "failed": own["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = perf_counter() + DEADLINE_S
    if not (ROOT / "src" / "dercalc" / "__init__.py").is_file():
        print(f"no dercalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            result = traced(args.workload, args.seed, deadline)
        else:
            result = end_to_end(args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
