"""Before/after evidence for the one agent-mode kernel (sampler.sample_modes).

    python3 tools/bench_modes.py --parent PARENT_CHECKOUT --pairs 10 --out BENCH_28.json

Run from the root of a checkout; PARENT_CHECKOUT is a full checkout of the
commit to compare against (for example from ``git archive``). It writes one
JSON document with:

* ``kernels``: in three fresh processes a side, best and median of repeated
  calls of ``mode_of_draws`` on 1e4 x 3 ids (k = 8 and 64), ``step`` at
  n = 1e4, h = 3, k = 8 and 64, ``sample_win_events`` on the draw ids
  (1e5 trials, k = 8, h = 3) and on the chain (1e6 trials at the first
  ``verify --suite bounds`` cell: k = 2, h = 1923), and ``step`` on
  round 0 of ``simulate_large_n``'s theorem-h call (n = 1e6, k = 16,
  h = 68 812), and ``verify --suite monotonicity`` (99 binomial-pair
  tables); ``best_s`` gives each side's best over its processes;
* ``tables``: on this checkout, ``step`` at four k <= h <= 255 points
  with the chain's binomial tables and with numpy's binomial
  (``sampler._TABLE_MAX_H`` = 0), best of 3 on one thread;
* ``end_to_end``: ``benchmark/run.py`` on every workload, ``--pairs``
  pairs, the side that runs first alternating, seeds 2611 on (the pair
  runner of ``tools/bench_window.py``);
* the source line count of each side and the machine context.

A probe of one side runs as ``--probe SRC_DIR`` and prints JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from bench_window import ROOT, end_to_end, source_lines

THEOREM_H = 68_812


def _times(fn, repeats: int) -> dict:
    """Best and median seconds of repeats calls of fn, after one warm-up."""
    fn()
    seconds = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        seconds.append(time.perf_counter() - start)
    return {"best_s": min(seconds), "median_s": statistics.median(seconds),
            "repeats": repeats}


def probe(src: str) -> dict:
    """Time one side's agent-mode kernels."""
    sys.path.insert(0, src)
    import numpy as np

    from hmajority import sampler
    from hmajority.core import Configuration
    from hmajority.dynamics import step
    from hmajority.montecarlo import (
        _h_rule, balanced_plus_bias_counts, sample_win_events)
    from hmajority.theory import DEFAULT_C4
    from hmajority.verify import _near_uniform, suite_monotonicity

    out = {}
    ids = np.random.default_rng(2801)
    for k in (8, 64):
        draws = ids.integers(0, k, size=(10**4, 3)).astype(np.uint8)
        out[f"mode_of_draws_1e4x3_k{k}"] = _times(
            lambda: sampler.mode_of_draws(draws), 200)
    for k in (8, 64):
        cfg = Configuration.from_counts(balanced_plus_bias_counts(10**4, k, 2.0)[0])
        out[f"step_n1e4_h3_k{k}"] = _times(
            lambda: step(cfg, 3, sampler.RngHandle(1)), 100)
    probs = (0.2, 0.15, 0.15, 0.1, 0.1, 0.1, 0.1, 0.1)
    out["sample_win_events_ids_1e5_k8_h3"] = _times(
        lambda: sample_win_events(3, probs, 10**5, sampler.RngHandle(2)), 30)
    probs = _near_uniform(2)
    h = _h_rule(probs[0], 20, DEFAULT_C4)
    out["sample_win_events_chain_1e6_k2"] = {"h": h, **_times(
        lambda: sample_win_events(h, probs, 10**6, sampler.RngHandle(3)), 5)}
    cfg = Configuration.from_counts(balanced_plus_bias_counts(10**6, 16, 10.0)[0])
    out["step_theorem_round0_n1e6_k16"] = {"h": THEOREM_H, **_times(
        lambda: step(cfg, THEOREM_H, sampler.RngHandle(4)), 3)}
    out["suite_monotonicity"] = _times(suite_monotonicity, 10)
    return out


# (n, h, k) of the table check: rounds auto leaves to the chain's tables
TABLE_POINTS = ((10**4, 200, 16), (10**5, 24, 4), (10**4, 255, 64), (10**6, 200, 16))


def table_check() -> list:
    """step with the binomial tables against numpy's binomial."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from hmajority import sampler
    from hmajority.core import Configuration
    from hmajority.dynamics import step
    from hmajority.montecarlo import balanced_plus_bias_counts

    sampler.MAX_THREADS = 1
    rows = []
    for n, h, k in TABLE_POINTS:
        cfg = Configuration.from_counts(balanced_plus_bias_counts(n, k, 10.0)[0])
        row = {"n": n, "h": h, "k": k}
        for key, cap in (("tables_s", sampler._TABLE_MAX_H), ("numpy_s", 0)):
            saved, sampler._TABLE_MAX_H = sampler._TABLE_MAX_H, cap
            row[key] = _times(lambda: step(cfg, h, sampler.RngHandle(5)), 3)["best_s"]
            sampler._TABLE_MAX_H = saved
        row["numpy_over_tables"] = row["numpy_s"] / row["tables_s"]
        rows.append(row)
    return rows


def run_probe(checkout: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--probe",
         os.path.join(checkout, "src")],
        stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent")
    parser.add_argument("--pairs", type=int, default=10)
    # one of them: a run without --out must not overwrite a committed file
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--out")
    target.add_argument("--probe")
    args = parser.parse_args()
    if args.probe:
        print(json.dumps(probe(args.probe)))
        return 0
    import numpy as np

    parent = os.path.abspath(args.parent)
    # three probes a side, alternating, so drift on a shared machine falls
    # on both; the summary takes each side's best probe
    kernels = {"parent": [], "change": []}
    for side in ("parent", "change", "change", "parent", "parent", "change"):
        kernels[side].append(run_probe(parent if side == "parent" else ROOT))
    kernels["best_s"] = {
        name: {side: min(probe[name]["best_s"] for probe in kernels[side])
               for side in ("parent", "change")}
        for name in kernels["parent"][0]}
    doc = {
        "command": "python3 tools/bench_modes.py --parent PARENT_CHECKOUT "
                   f"--pairs {args.pairs} --out {args.out}",
        "machine": {"cores": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__, "platform": platform.platform()},
        "source_lines": {"command": "wc -l src/hmajority/*.py",
                         "parent": source_lines(parent), "change": source_lines(ROOT)},
        "kernels": kernels,
        "tables": table_check(),
        "end_to_end": end_to_end(parent, args.pairs) if args.pairs else None,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
