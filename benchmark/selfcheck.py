"""Self-check of the benchmark harness, about a minute on two cores.

    python3 benchmark/selfcheck.py

Runs every workload at a tiny size (``--quick 1``), untraced and traced,
and asserts that each prints a correct result whose metric names and units
are exactly those listed in BENCHMARK.json. Then checks that, in a
directory holding only BENCHMARK.json and the benchmark's files, the
command exits nonzero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run(cwd, workload, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        command = json.load(fh)["command"]
    cmd = [sys.executable if c == "python3" else c for c in command]
    cmd += ["--workload", workload, "--seed", "1", "--seconds", "1",
            "--trace", str(trace)]
    if cwd == ROOT:
        cmd += ["--quick", "1"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=180)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            proc = run(ROOT, workload, trace)
            assert proc.returncode == 0, (workload, trace, proc.stderr)
            result = json.loads(proc.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] is True, (workload, trace, proc.stdout)
            assert result["attempted"] >= 1 and result["failed"] == 0, result
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            assert units == expected[trace], (workload, trace, units)
            print(f"ok {workload} trace={trace}: {len(units)} metrics, "
                  f"{result['attempted']} operations")

    bare = os.path.join(BENCH_DIR, ".work", f"bare-{os.getpid()}")
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in bench["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = run(bare, bench["workloads"][0]["name"], 0)
        assert proc.returncode != 0, proc.stdout
        assert '"metrics"' not in proc.stdout, proc.stdout
        print(f"ok without sources: exit {proc.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bare))
        except OSError:  # a benchmark run still uses it
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
