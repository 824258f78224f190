"""Before/after evidence for the certified-window adoption-law DP.

    python3 tools/bench_window.py --parent PARENT_CHECKOUT --pairs 10 --out BENCH_26.json

Run from the root of a checkout; PARENT_CHECKOUT is a full checkout of the
commit to compare against (for example from ``git archive``). It writes one
JSON document with:

* ``rounds``: win_distribution on the three h = 200 rounds of
  ``simulate_large_n`` and on round 1 of its theorem-h call, best of 5 in a
  fresh process per side, with the winning counts the DP runs on and those
  it gives in closed form, and the largest |q change - q parent|. Where a
  side refuses the DP, the agent step's time is given instead;
* ``refusal``: the time ``oracle_is_cheaper`` takes to refuse round 0 of
  the theorem-h call, and a round at n = k = 1e5, h = 24 beside the
  agent step it leaves the round to;
* ``grid``: the auto rule on the ``BENCH_25.json`` grid points whose DP
  plan is cut (h >= 12), with the oracle re-timed on this checkout and the
  agent times read from that file; points with nothing cut keep their
  decision and times;
* ``end_to_end``: ``benchmark/run.py`` on every workload, ``--pairs``
  pairs, the side that runs first alternating, seeds 2611 on;
* the source line count of each side and the machine context.

A probe of one side runs as ``--probe SRC_DIR`` and prints JSON.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
N = 10**6
THEOREM_H = 68_812
# a round the rule must refuse from its largest count: n = k = 1e5, h = 24
LARGE_K, LARGE_K_H = 10**5, 24


def simulate_large_n_rounds(dynamics, Configuration, balanced_plus_bias_counts):
    """{name: (h, counts)}: the h = 200 rounds that are not yet consensus
    and round 1 of the theorem-h call, from simulate_large_n's start at
    n = 1e6, k = 16 by agent rounds at seed 5 (the same stream on both
    sides), and round 0 of the theorem-h call."""
    start = Configuration.from_counts(balanced_plus_bias_counts(N, 16, 10.0)[0])
    out = {}
    for h, label, last in ((200, "h200_round", 3), (THEOREM_H, "theorem_round", 2)):
        params = dynamics.RunParams(h=h, max_rounds=last, seed=5,
                                    step_mode="agent_level")
        for r in dynamics.run(start, params).rounds:
            if max(r.counts) < N and (h == 200 or r.t == 1):
                out[f"{label}{r.t}"] = (h, r.counts)
    return out, start.counts


def probe(src: str) -> dict:
    """Time one side's oracle on the simulate_large_n rounds and its
    refusal of the theorem-h call's round 0 and of a large-k round."""
    sys.path.insert(0, src)
    import numpy as np
    from hmajority import dynamics, oracle, sampler
    from hmajority.core import Configuration
    from hmajority.montecarlo import balanced_plus_bias_counts
    from hmajority.sampler import RngHandle

    windowed = hasattr(oracle, "live_plan")
    rounds, theorem_round0 = simulate_large_n_rounds(
        dynamics, Configuration, balanced_plus_bias_counts)
    out = {"rounds": {}, "windowed": windowed}
    for name, (h, counts) in rounds.items():
        probs = tuple(c / N for c in counts)
        row = {}
        try:
            oracle.win_distribution(h, probs)
        except oracle.TooLargeError as exc:
            row["dp"] = f"refused: {exc}"
            cfg = Configuration.from_counts(counts)
            row["agent_step_s"] = min(
                _timed(lambda: dynamics.step(cfg, h, RngHandle(1))) for _ in range(3))
        else:
            row["dp_s"] = min(_timed(lambda: oracle.win_distribution(h, probs))
                              for _ in range(5))
            w = oracle.win_distribution(h, probs)
            row["q"], row["q_strict"], row["q_ties"] = w.q, w.q_strict, w.q_ties
            row["sum_q_minus_1"] = math.fsum(w.q) - 1.0
        if windowed:
            plan = oracle.live_plan(h, np.array(probs))
            row["t_full"] = len(plan.full)
            row["t_saturated"] = len(plan.saturated)
            row["cells"] = plan.cells
        else:
            row["t_full"] = h - -(-h // len(counts)) + 1
            row["t_saturated"] = 0
        out["rounds"][name] = row

    for key, h, counts, repeats in (
            ("refusal_us", THEOREM_H, theorem_round0, 50),
            ("refusal_large_k_us", LARGE_K_H, (1,) * LARGE_K, 20)):
        args = (counts, h) if windowed else (sum(counts), h, len(counts), len(counts))
        seconds = []
        for _ in range(repeats):
            start = time.perf_counter()
            assert not dynamics.oracle_is_cheaper(*args)
            seconds.append(time.perf_counter() - start)
        out[key] = {"best": min(seconds) * 1e6,
                    "median": statistics.median(seconds) * 1e6}
    cfg = Configuration.from_counts((1,) * LARGE_K)
    out["refusal_large_k_us"]["agent_step_us"] = 1e6 * min(
        _timed(lambda: dynamics.step(cfg, LARGE_K_H, RngHandle(1))) for _ in range(3))
    return out


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def run_probe(checkout: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--probe",
         os.path.join(checkout, "src")],
        stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout)


def grid_check() -> dict:
    """The windowed rule on the BENCH_25.json grids, oracle re-timed where
    the DP plan is cut."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np
    from hmajority import dynamics, oracle, sampler
    from hmajority.core import Configuration
    from hmajority.montecarlo import balanced_plus_bias_counts
    from hmajority.sampler import RngHandle

    bench = json.load(open(os.path.join(ROOT, "BENCH_25.json")))
    result = {}
    for key in ("grid", "grid_small_h", "grid_dead"):
        timed = {}
        wrong = wrong_before = cut_points = 0
        ratios = []
        total = total_best = 0.0
        for row in bench[key]["rows"]:
            n, h, k = row["n"], row["h"], row["k"]
            live = row.get("live", k)
            counts = balanced_plus_bias_counts(n, live, 10.0)[0] + (0,) * (k - live)
            plan = oracle.live_plan(h, np.array(counts) / n)
            oracle_ms = row["oracle_ms"]
            if (plan.lo > 0).any() or (plan.hi < h).any() or plan.saturated:
                cut_points += 1
                if (n, h, k, live) not in timed:
                    timed[n, h, k, live] = _oracle_ms(oracle, sampler, Configuration,
                                                      RngHandle, h, counts)
                oracle_ms = timed[n, h, k, live]
            pick = "oracle" if dynamics.oracle_is_cheaper(counts, h) else "agent"
            times = {"agent": row["agent_ms"], "oracle": oracle_ms}
            best = min(v for v in times.values() if v is not None)
            wrong += times[pick] is None or times[pick] > best
            wrong_before += row["rule"] != row["faster"]
            ratios.append(times[pick] / best if times[pick] is not None else math.inf)
            total += times[pick]
            total_best += best
        result[key] = {
            "points": len(bench[key]["rows"]), "points_cut": cut_points,
            "wrong_choices": int(wrong),
            "wrong_choices_bench_25": int(wrong_before),
            "worst_time_over_best": max(ratios),
            "total_ms": round(total, 1),
            "total_ms_if_always_faster": round(total_best, 1),
        }
    return result


def _oracle_ms(oracle, sampler, Configuration, RngHandle, h, counts):
    """Best of 3 of an oracle round, win_distribution + draw_multinomial,
    after a warm-up, in ms; None when the DP is over its cap. Both calls
    keep their signatures across checkouts, so this times any side."""
    cfg = Configuration.from_counts(counts)
    probs = tuple(c / cfg.n for c in counts)

    def once():
        win = oracle.win_distribution(h, probs)
        sampler.draw_multinomial(cfg.n, win.q, RngHandle(1))

    try:
        once()
    except oracle.TooLargeError:
        return None
    return min(_timed(once) for _ in range(3)) * 1e3


def end_to_end(parent: str, pairs: int) -> dict:
    out = {}
    for workload in ("sweep_small_h", "simulate_large_n", "exact_oracle"):
        runs = {"parent": [], "change": []}
        for i in range(pairs):
            seed = 2611 + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                checkout = parent if side == "parent" else ROOT
                proc = subprocess.run(
                    [sys.executable, "benchmark/run.py", "--workload", workload,
                     "--seed", str(seed), "--seconds", "20", "--trace", "0"],
                    cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
                doc = json.loads(proc.stdout.splitlines()[-1])
                runs[side].append({"seed": seed, "correct": doc["correct"],
                                   "attempted": doc["attempted"], "failed": doc["failed"],
                                   **{m: v["value"] for m, v in doc["metrics"].items()}})
        metrics = {}
        for name in runs["parent"][0]:
            if name in ("seed", "correct", "attempted", "failed"):
                continue
            before = [r[name] for r in runs["parent"]]
            after = [r[name] for r in runs["change"]]
            lower = name not in ("agent_rounds_per_s",)
            better = sum((a < b) if lower else (a > b) for a, b in zip(after, before))
            q1, _, q3 = statistics.quantiles(before, n=4)
            metrics[name] = {
                "parent_median": statistics.median(before),
                "change_median": statistics.median(after),
                "change_pct": 100.0 * (statistics.median(after) / statistics.median(before) - 1),
                "better_pairs": f"{better}/{pairs}",
                "parent_iqr": q3 - q1,
            }
        out[workload] = {"metrics": metrics, "runs": runs,
                         "all_correct": all(r["correct"] for s in runs.values() for r in s),
                         "failed_operations": sum(r["failed"] for s in runs.values() for r in s)}
    return out


def source_lines(checkout: str) -> int:
    return sum(sum(1 for _ in open(p)) for p in glob.glob(
        os.path.join(checkout, "src", "hmajority", "*.py")))


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
    before, after = run_probe(parent), run_probe(ROOT)
    for name, row in after["rounds"].items():
        old = before["rounds"][name]
        if "q" in row and "q" in old:
            row["max_abs_q_change"] = max(
                float(np.max(np.abs(np.subtract(row[f], old[f]))))
                for f in ("q", "q_strict", "q_ties"))
    doc = {
        "command": "python3 tools/bench_window.py --parent PARENT_CHECKOUT "
                   f"--pairs {args.pairs} --out {args.out}",
        "machine": {"cores": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__, "platform": platform.platform()},
        "source_lines": {"command": "wc -l src/hmajority/*.py",
                         "parent": source_lines(parent), "change": source_lines(ROOT)},
        "rounds": {"parent": before["rounds"], "change": after["rounds"]},
        "refusal_theorem_round0_us": {"parent": before["refusal_us"],
                                      "change": after["refusal_us"]},
        "refusal_large_k_us": {"parent": before["refusal_large_k_us"],
                               "change": after["refusal_large_k_us"]},
        "grid": grid_check(),
        "end_to_end": end_to_end(parent, args.pairs) if args.pairs else None,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
