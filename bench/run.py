"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload scan --seed 1 --seconds 50 --trace 0

Run from the root of a checkout; the package is imported from its src/.
`setup_s` is the median time to import markoff.cli in a fresh process,
over SETUP_RUNS processes, half before the workload and half after it.  The workload itself runs in one child process
(bench/workloads.py), whose peak RSS is `peak_rss_mb`.  With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.  The
lines before the last give each metric with its sample count and the run
context; the last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_RUNS = 8
CHILD_TIMEOUT_S = 170

IMPORT_TIMER = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import markoff.cli; print(time.perf_counter() - t)"
)


def child_env():
    env = dict(os.environ)
    env.pop("MARKOFF_CACHE", None)
    return env


def setup_times(env, runs):
    times = []
    for _ in range(runs):
        done = subprocess.run(
            [sys.executable, "-I", "-c", IMPORT_TIMER, str(SRC)],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout))
    return times


def main(argv=None):
    parser = argparse.ArgumentParser(description="Run one markoff benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="self-test size")
    args = parser.parse_args(argv)

    if not (SRC / "markoff" / "__init__.py").is_file():
        print(f"error: no markoff package under {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    started = time.monotonic()
    cmd = [sys.executable, "-I", str(BENCH / "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    try:
        setup = [] if args.trace else setup_times(env, SETUP_RUNS // 2)
        done = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S - (time.monotonic() - started))
        if setup:
            setup += setup_times(env, SETUP_RUNS - len(setup))
    except (subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        print(f"error: workload exited with code {done.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    if setup:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s", "samples": len(setup)}

    for line in lines[:-1]:
        print(line)
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']:6s} n={m['samples']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
