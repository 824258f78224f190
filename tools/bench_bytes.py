"""Byte comparison and end-to-end pairs for a change that keeps behaviour.

    python3 tools/bench_bytes.py --parent PARENT_CHECKOUT --pairs 10 --out BENCH_30.json

Run from the root of a checkout; PARENT_CHECKOUT is a full checkout of the
commit to compare against (for example from ``git archive``). It writes one
JSON document with:

* ``bytes``: for each side, in a fresh process, the stdout of
  ``hmajority oracle --report win|event|tiemap`` on every instance of the
  ``verify --suite tiemap`` grid, and the ``verify --out`` file of the six
  suites ``benchmark/workload.py`` runs at seed 2029 and the default trials,
  and the ``trajectory.json`` and stdout of ``hmajority simulate`` on the
  grid of the ``SIMULATE_*`` constants (every step mode and stop rule,
  k = 2..64, h = 3..200); the SHA-256 of each, and which differ between
  the sides;
* ``end_to_end``: ``benchmark/run.py`` on every workload, ``--pairs``
  pairs, the side that runs first alternating, seeds 2611 on (the pair
  runner of ``tools/bench_window.py``);
* the source line count of each side and the machine context.

A probe of one side runs as ``--probe SRC_DIR`` and prints JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile

from bench_window import ROOT, end_to_end, source_lines

SUITES = ("difference_equality", "dominance", "tiemap", "monotonicity",
          "growth_claim", "bounds")
VERIFY_SEED = 2029
# the simulate grid at n = 1000: (k, h) pairs; starts (opinion 1 ahead by
# twice the sqrt of its count, or that start with opinions 1 and 2 tied);
# step modes; stop rules, None being plurality_consensus_on with target
# opinion 2; seeds
SIMULATE_N = 1000
SIMULATE_KH = ((2, 3), (2, 200), (3, 3), (4, 24), (8, 8), (16, 3), (16, 200),
               (64, 3), (64, 24))
SIMULATE_STARTS = ("biased", "tied")
STEP_MODES = ("agent_level", "oracle_level", "auto")
STOP_RULES = ("consensus", "plurality_consensus_on", None, "max_rounds_only")
SIMULATE_SEEDS = (3, 30)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def probe(src: str) -> dict:
    """SHA-256 of one side's oracle reports on the tiemap grid and of its
    verify --out file, with the exit codes."""
    sys.path.insert(0, src)
    from hmajority.cli import main
    from hmajority.verify import _event_grid

    oracle = {}
    for h, _, p in _event_grid(range(2, 7), (2, 3), 10):
        for report in ("win", "event", "tiemap"):
            argv = ["oracle", "--h", str(h), "--p", ",".join(repr(v) for v in p),
                    "--report", report]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            oracle[" ".join(argv[1:])] = {"exit": code,
                                          "sha256": _sha(out.getvalue().encode())}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "verify.json")
        argv = ["verify", *(a for s in SUITES for a in ("--suite", s)),
                "--seed", str(VERIFY_SEED), "--out", path]
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        with open(path, "rb") as fh:
            verify = {"argv": argv[:-1] + ["VERIFY_JSON"], "exit": code,
                      "sha256": _sha(fh.read())}
    return {"oracle": oracle, "verify": verify, "simulate": simulate_probe()}


def simulate_probe() -> dict:
    """SHA-256 of trajectory.json and of the printed line of each simulate
    run on the grid, with the exit code."""
    from hmajority.cli import main
    from hmajority.montecarlo import balanced_plus_bias_counts

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for k, h in SIMULATE_KH:
            for start in SIMULATE_STARTS:
                counts = list(balanced_plus_bias_counts(SIMULATE_N, k, 2.0)[0])
                if start == "tied":  # opinions 1 and 2 split their agents
                    pair = counts[0] + counts[1]
                    counts[:2] = [pair // 2] * 2
                    counts[-1] += pair % 2
                for mode in STEP_MODES:
                    for rule in STOP_RULES:
                        config = {"schema_version": 1, "counts": counts, "h": h,
                                  "max_rounds": 12 if rule == "max_rounds_only" else 60,
                                  "step_mode": mode,
                                  "stop_rule": rule or "plurality_consensus_on"}
                        if rule is None:
                            config["target_opinion"] = 2
                        for seed in SIMULATE_SEEDS:
                            key = f"k={k} h={h} {start} {mode} {rule or 'target=2'} seed={seed}"
                            out[key] = _simulate_once(main, tmp, config, seed)
    return out


def _simulate_once(main, tmp: str, config: dict, seed: int) -> dict:
    path = os.path.join(tmp, "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    argv = ["simulate", "--config", path, "--out", os.path.join(tmp, "out"),
            "--seed", str(seed), "--force"]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    with open(os.path.join(tmp, "out", "trajectory.json"), "rb") as fh:
        trajectory = fh.read()
    os.remove(os.path.join(tmp, "out", "trajectory.json"))
    return {"exit": code, "trajectory_sha256": _sha(trajectory),
            "stdout_sha256": _sha(printed.getvalue().encode())}


def run_probe(checkout: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--probe",
         os.path.join(checkout, "src")],
        stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout)


def _compare_simulate(before: dict, after: dict) -> dict:
    """Per step mode and stop rule, how many runs there were and which
    differ between the sides."""
    groups = {}
    for key, old in before.items():
        _, _, _, mode, rule, _ = key.split(" ")
        group = groups.setdefault(f"{mode} {rule}", {"runs": 0, "differing": []})
        group["runs"] += 1
        if after.get(key) != old:
            group["differing"].append(key)
    return {"runs": len(before), "same_runs": before.keys() == after.keys(),
            "exit_codes": sorted({r["exit"] for r in before.values()}),
            "identical": before == after,
            "parent_sha256": _sha(json.dumps(before, sort_keys=True).encode()),
            "change_sha256": _sha(json.dumps(after, sort_keys=True).encode()),
            "by_mode_and_rule": groups}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", default="BENCH_30.json")
    parser.add_argument("--probe")
    args = parser.parse_args()
    if args.probe:
        print(json.dumps(probe(args.probe)))
        return 0
    import numpy as np

    parent = os.path.abspath(args.parent)
    before, after = run_probe(parent), run_probe(ROOT)
    differ = sorted(key for key in before["oracle"]
                    if before["oracle"][key] != after["oracle"].get(key))
    doc = {
        "command": "python3 tools/bench_bytes.py --parent PARENT_CHECKOUT "
                   f"--pairs {args.pairs} --out {args.out}",
        "machine": {"cores": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__, "platform": platform.platform()},
        "source_lines": {"command": "wc -l src/hmajority/*.py",
                         "parent": source_lines(parent), "change": source_lines(ROOT)},
        "bytes": {
            "oracle": {"calls": len(before["oracle"]),
                       "same_calls": before["oracle"].keys() == after["oracle"].keys(),
                       "differing": differ,
                       "parent_sha256": _sha(json.dumps(before["oracle"]).encode()),
                       "change_sha256": _sha(json.dumps(after["oracle"]).encode())},
            "verify": {"identical": before["verify"] == after["verify"],
                       "parent": before["verify"], "change": after["verify"]},
            "simulate": _compare_simulate(before["simulate"], after["simulate"]),
        },
        "end_to_end": end_to_end(parent, args.pairs) if args.pairs else None,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
