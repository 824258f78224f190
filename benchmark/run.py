"""hmajority benchmark: one workload per call, end-to-end or traced.

    python3 benchmark/run.py --workload sweep_small_h --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The workload runs in a child process
(workload.py), so its peak memory is its own. Set-up time is taken in
three fresh processes (two that only set up, then the measured one) and
reported as their median. The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--quick 1`` runs every workload at a tiny size (see selfcheck.py).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("sweep_small_h", "simulate_large_n", "exact_oracle")
SETUP_ONLY_PROCESSES = 2
CHILD_TIMEOUT_S = 150


def child(args, mode, workdir):
    """Run workload.py once; return (setup seconds, parsed last line)."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--quick", str(args.quick), "--mode", mode, "--workdir", workdir]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        raise SystemExit(f"workload process exited with {proc.returncode}")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    return result["ready"] - start, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "hmajority", "cli.py")):
        print(f"no hmajority sources under {os.path.join(ROOT, 'src')}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2

    work_root = os.path.join(BENCH_DIR, ".work")
    os.makedirs(work_root, exist_ok=True)
    try:
        setup = []
        for i in range(SETUP_ONLY_PROCESSES):
            seconds, _ = child(args, "setup",
                               os.path.join(work_root, f"{os.getpid()}-setup{i}"))
            setup.append(seconds)
        seconds, result = child(args, "run", os.path.join(work_root, f"{os.getpid()}-run"))
        setup.append(seconds)
    finally:
        try:
            os.rmdir(work_root)
        except OSError:  # another run still uses it
            pass

    metrics = result["metrics"]
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"},
                   **metrics}
    print(f"info: setup samples {[round(s, 4) for s in setup]}, "
          f"{result['rounds']} rounds")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
