"""One workload in one process: set up, run timed rounds, check the outputs.

Started by run.py; not meant to be run by hand. With ``--mode setup`` it
stops after set-up, so run.py can time set-up in several fresh processes.
The last stdout line is a JSON object for run.py.

Every round drives ``hmajority.cli.main`` in this process with inputs
derived from (seed, round). Rounds repeat while another one is expected to
end within ``--seconds`` of wall time; every round is whole, and there is
at least one. Outputs are checked after the timed loop, against
computations in reference.py or properties the dynamics must have.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

SUITES = ("difference_equality", "dominance", "tiemap", "monotonicity",
          "growth_claim", "bounds")
SWEEP_KS = (8, 16, 32, 64)
CHI_SQUARE_SEED = 20240501
CHI_SQUARE_P_MIN = 1e-3
ORACLE_TOL = 1e-12


def derive_seed(*parts) -> int:
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


class Call:
    """One timed CLI call and what it left behind."""

    def __init__(self, label, argv, simulates):
        self.label = label
        self.argv = argv
        self.simulates = simulates
        self.seconds = 0.0
        self.code = None
        self.stdout = ""

    def run(self, cli_main):
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli_main(self.argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
        self.seconds = time.perf_counter() - start
        self.code = code
        self.stdout = buf.getvalue()


class Checks:
    """Operation accounting and output checks for one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, ok: bool):
        self.attempted += 1
        if not ok:
            self.failed += 1

    def expect(self, ok: bool, message: str) -> bool:
        if not ok:
            self.problems.append(message)
        return ok


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class SweepSmallH:
    """``sweep`` then ``report`` at n = 1e4, h = 3, k in {8, 16, 32, 64}."""

    name = "sweep_small_h"

    def __init__(self, seed, quick, workdir):
        self.seed = seed
        self.n = 1_000 if quick else 10_000
        self.trials = 1
        self.quick = quick
        self.workdir = workdir

    def spec(self, master_seed, ks, trials):
        return {
            "schema_version": 1, "n": [self.n], "k": list(ks), "h": [3],
            "pattern": "balanced_plus_bias", "bias_multiplier": 0,
            "trials": trials, "master_seed": master_seed,
            "stop_rule": "consensus", "max_rounds": 1000,
        }

    def calls(self, r, tag):
        base = os.path.join(self.workdir, f"round{r}{tag}")
        os.makedirs(base)
        spec = self.spec(derive_seed(self.name, self.seed, r), SWEEP_KS, self.trials)
        spec_path = write_json(os.path.join(base, "spec.json"), spec)
        out = os.path.join(base, "sweep")
        return [
            Call("sweep", ["sweep", "--spec", spec_path, "--out", out,
                           "--workers", "1"], True),
            Call("report", ["report", "--in", out, "--out",
                            os.path.join(base, "report")], False),
        ]

    def agent_rounds(self, calls):
        records = self._records(calls[0])
        return self.n * sum(rec["rounds_run"] for rec in records)

    def _records(self, call):
        path = os.path.join(call.argv[call.argv.index("--out") + 1], "records.jsonl")
        if not os.path.exists(path):
            return []
        with open(path, encoding="utf-8") as fh:
            return [json.loads(line) for line in fh if line.strip()]

    def check_round(self, calls, checks: Checks):
        from reference import nearest_rank

        sweep, report = calls
        checks.op(sweep.code == 0)
        checks.op(report.code == 0)
        records = self._records(sweep)
        checks.expect(len(records) == len(SWEEP_KS) * self.trials,
                      f"sweep wrote {len(records)} records")
        for rec in records:
            if rec["status"].startswith("error:"):
                checks.op(False)
                continue
            ok = checks.expect(rec["status"] == "consensus",
                               f"{rec['cell_id']}/{rec['trial']}: status {rec['status']}")
            ok &= checks.expect(rec["consensus_round"] == rec["rounds_run"],
                                f"{rec['cell_id']}/{rec['trial']}: consensus_round "
                                f"{rec['consensus_round']} != rounds_run {rec['rounds_run']}")
            ok &= checks.expect(
                len(rec["bias_trace"]) == rec["rounds_run"] + 1
                and rec["bias_trace"][-1][1] == 1.0,
                f"{rec['cell_id']}/{rec['trial']}: bias_trace does not end at bias 1")
            ok &= checks.expect(
                len(rec["lead_trace"]) == rec["rounds_run"] + 1
                and rec["lead_trace"][-1][1:] == [1.0, 0.0],
                f"{rec['cell_id']}/{rec['trial']}: lead_trace does not end at (1, 0)")
            checks.op(ok)

        summary_path = os.path.join(report.argv[report.argv.index("--out") + 1],
                                    "summary.csv")
        if not checks.expect(os.path.exists(summary_path), "no summary.csv"):
            return
        with open(summary_path, encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            rows = [dict(zip(header, line.strip().split(","))) for line in fh]
        by_cell: dict[str, list[int]] = {}
        for rec in records:
            by_cell.setdefault(rec["cell_id"], []).append(rec["consensus_round"])
        checks.expect(sorted(r["cell_id"] for r in rows) == sorted(by_cell),
                      "summary.csv cells differ from records.jsonl")
        for row in rows:
            rounds = by_cell.get(row["cell_id"], [])
            expected = (len(rounds), nearest_rank(rounds, 0.5), nearest_rank(rounds, 0.9))
            got = (int(row["trials"]), int(row["median_consensus_round"]),
                   int(row["p90_consensus_round"]))
            checks.expect(got == expected,
                          f"summary.csv {row['cell_id']}: {got} != {expected}")

    def check_run(self, rounds, checks: Checks, cli_main, info):
        import numpy as np

        from hmajority.core import Configuration
        from hmajority.dynamics import step
        from hmajority.sampler import RngHandle
        from reference import adoption_law, balanced_plus_bias, chi_square_pvalue

        # one-round law of step against the brute-force adoption law
        steps = 4 if self.quick else 10
        for k in (8, 64):
            counts = balanced_plus_bias(self.n, k, 0.0)
            config = Configuration.from_counts(counts)
            q = adoption_law(3, [c / self.n for c in counts])
            observed = np.zeros(k)
            for i in range(steps):
                rng = RngHandle(CHI_SQUARE_SEED, stream_id=1000 * k + i)
                observed += step(config, 3, rng).counts
            pvalue = chi_square_pvalue(observed, steps * self.n * np.asarray(q))
            checks.expect(pvalue >= CHI_SQUARE_P_MIN,
                          f"step law chi-square at k={k}: p={pvalue:.3g}")
            info.append(f"step law chi-square k={k}: p={pvalue:.4f} over {steps} rounds")

        # the record bytes do not depend on the worker count
        workers = min(2, os.cpu_count() or 1)
        spec = self.spec(derive_seed(self.name, self.seed, "workers"), (8, 16), 2)
        spec_path = write_json(os.path.join(self.workdir, "workers_spec.json"), spec)
        digests = []
        for w in (1, workers):
            out = os.path.join(self.workdir, f"workers{w}")
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(["sweep", "--spec", spec_path, "--out", out,
                                 "--workers", str(w)])
            checks.expect(code == 0, f"sweep with workers={w} exited {code}")
            digests.append(_sha256(os.path.join(out, "records.jsonl")))
        checks.expect(digests[0] == digests[1],
                      f"records.jsonl differs between workers=1 and workers={workers}")

        first = rounds[0][0]
        spec0 = first.argv[first.argv.index("--spec") + 1]
        with open(spec0, encoding="utf-8") as fh:
            info.append(f"round 0 spec: {fh.read()}")
        records0 = os.path.join(first.argv[first.argv.index("--out") + 1],
                                "records.jsonl")
        info.append(f"round 0 records.jsonl sha256: {_sha256(records0)}")


class SimulateLargeN:
    """Two ``simulate`` calls at n = 1e6, k = 16: h = 200 and the theorem's h."""

    name = "simulate_large_n"

    def __init__(self, seed, quick, workdir):
        from reference import balanced_plus_bias

        self.seed = seed
        self.n = 20_000 if quick else 1_000_000
        self.counts = balanced_plus_bias(self.n, 16, 10.0)
        self.h_theorem = math.ceil(324 * math.log(self.n) / (self.counts[0] / self.n))
        self.workdir = workdir

    def calls(self, r, tag):
        base = os.path.join(self.workdir, f"round{r}{tag}")
        os.makedirs(base)
        out = []
        for label, h in (("simulate_h200", 200), ("simulate_theorem_h", self.h_theorem)):
            config = {
                "schema_version": 1, "counts": self.counts, "h": h,
                "max_rounds": 100, "stop_rule": "consensus",
                "seed": derive_seed(self.name, self.seed, r, label),
            }
            path = write_json(os.path.join(base, f"{label}.json"), config)
            out.append(Call(label, ["simulate", "--config", path, "--out",
                                    os.path.join(base, label)], True))
        return out

    def agent_rounds(self, calls):
        return sum(self.n * (len(_trajectory(c)["rounds"]) - 1) for c in calls)

    def check_round(self, calls, checks: Checks):
        for call in calls:
            checks.op(call.code == 0)
            if call.code != 0:
                continue
            traj = _trajectory(call)
            check_rounds(traj["rounds"], self.n, call.label, checks)
            check_summary_line(call, traj, checks)
            final = traj["rounds"][-1]["counts"]
            checks.expect(traj["rounds"][0]["counts"] == self.counts,
                          f"{call.label}: round 0 is not the input configuration")
            checks.expect(
                max(final) == self.n and traj["terminal_status"] == "consensus"
                and traj["consensus_round"] == len(traj["rounds"]) - 1
                and traj["winner"] == final.index(self.n) + 1,
                f"{call.label}: last round is not a consensus")
            if call.label == "simulate_theorem_h":
                checks.expect(traj["initial_plurality"] == 1 and traj["winner"] == 1,
                              f"{call.label}: consensus on {traj['winner']}, "
                              "not the initial plurality")

    def check_run(self, rounds, checks, cli_main, info):
        info.append(f"counts={self.counts} h_theorem={self.h_theorem}")


class ExactOracle:
    """Oracle-level ``simulate`` at n = 1e4, k = 32, h = 3, then ``verify``."""

    name = "exact_oracle"

    def __init__(self, seed, quick, workdir):
        from reference import balanced_plus_bias

        self.seed = seed
        self.quick = quick
        self.n = 1_000 if quick else 10_000
        self.k = 8 if quick else 32
        self.max_rounds = 3 if quick else 12
        self.counts = balanced_plus_bias(self.n, self.k, 0.0)
        self.workdir = workdir

    def calls(self, r, tag):
        base = os.path.join(self.workdir, f"round{r}{tag}")
        os.makedirs(base)
        config = {
            "schema_version": 1, "counts": self.counts, "h": 3,
            "max_rounds": self.max_rounds, "stop_rule": "consensus",
            "step_mode": "oracle_level",
            "seed": derive_seed(self.name, self.seed, r, "simulate"),
        }
        path = write_json(os.path.join(base, "config.json"), config)
        verify = ["verify"]
        for suite in SUITES:
            verify += ["--suite", suite]
        verify += ["--seed", str(derive_seed(self.name, self.seed, r, "verify") % 2**31),
                   "--out", os.path.join(base, "verify.json")]
        if self.quick:
            verify += ["--trials", "20000"]
        return [
            Call("simulate_oracle", ["simulate", "--config", path, "--out",
                                     os.path.join(base, "simulate")], True),
            Call("verify", verify, False),
        ]

    def agent_rounds(self, calls):
        return self.n * (len(_trajectory(calls[0])["rounds"]) - 1)

    def check_round(self, calls, checks: Checks):
        from hmajority.oracle import win_distribution
        from reference import adoption_law

        simulate, verify = calls
        checks.op(simulate.code == 0)
        if simulate.code == 0:
            traj = _trajectory(simulate)
            rounds = traj["rounds"]
            check_rounds(rounds, self.n, simulate.label, checks)
            check_summary_line(simulate, traj, checks)
            for t in sorted({0, len(rounds) // 2, len(rounds) - 1}):
                probs = [c / self.n for c in rounds[t]["counts"]]
                err = max(abs(a - b) for a, b in
                          zip(win_distribution(3, probs).q, adoption_law(3, probs)))
                checks.expect(err <= ORACLE_TOL,
                              f"adoption law at round {t} off by {err:.3g}")

        checks.op(verify.code == 0)
        path = verify.argv[verify.argv.index("--out") + 1]
        results = []
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                results = json.load(fh)["results"]
        by_name = {res["name"]: res for res in results}
        for suite in SUITES:
            res = by_name.get(suite)
            checks.op(res is not None and res["passed"] and res["failure_count"] == 0)

    def check_run(self, rounds, checks, cli_main, info):
        pass


WORKLOADS = {w.name: w for w in (SweepSmallH, SimulateLargeN, ExactOracle)}


# ---------------------------------------------------------------------------
# shared checks
# ---------------------------------------------------------------------------


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _out_file(call, name):
    return os.path.join(call.argv[call.argv.index("--out") + 1], name)


def _trajectory(call) -> dict:
    with open(_out_file(call, "trajectory.json"), encoding="utf-8") as fh:
        return json.load(fh)["trajectory"]


def check_rounds(rounds, n, label, checks: Checks):
    """Counts sum to n; bias and plurality agree with the counts."""
    for r in rounds:
        counts = r["counts"]
        if not checks.expect(counts is not None and sum(counts) == n,
                             f"{label} round {r['t']}: counts do not sum to n"):
            continue
        ordered = sorted(counts, reverse=True)
        gap = ordered[0] - ordered[1] if len(counts) > 1 else n
        plurality = counts.index(ordered[0]) + 1 if gap > 0 else None
        checks.expect(
            r["additive_bias"] == gap and abs(r["normalized_bias"] - gap / n) <= 1e-15
            and r["plurality"] == plurality,
            f"{label} round {r['t']}: bias {r['additive_bias']}/"
            f"{r['normalized_bias']} != {gap}/{gap / n}")


def check_summary_line(call, traj, checks: Checks):
    """The printed summary line agrees with trajectory.json."""
    fields = dict(item.split("=", 1) for item in call.stdout.split())

    def same(text, value):
        return text == ("none" if value is None else str(value))

    final_bias = traj["rounds"][-1]["normalized_bias"]
    checks.expect(
        same(fields.get("winner"), traj["winner"])
        and same(fields.get("consensus_round"), traj["consensus_round"])
        and fields.get("status") == traj["terminal_status"]
        and float(fields.get("final_bias", "nan")) == float(f"{final_bias:.6g}"),
        f"{call.label}: summary line {call.stdout.strip()!r} disagrees with "
        "trajectory.json")


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import hmajority.cli

    os.makedirs(args.workdir)
    workload = WORKLOADS[args.workload](args.seed, bool(args.quick), args.workdir)
    pending = workload.calls(0, "")
    ready = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    from spans import Tracer

    cli_main = hmajority.cli.main
    tracer = Tracer() if args.trace else None
    rounds = []  # (calls, traced)
    start = time.monotonic()
    r = 0
    while True:
        round_start = time.monotonic()
        calls = pending if r == 0 else workload.calls(r, "")
        for call in calls:
            call.run(cli_main)
        rounds.append((calls, False))
        if tracer is not None:
            traced = workload.calls(r, "traced")
            tracer.install()
            try:
                for call in traced:
                    tracer.span("cli.main", call.run, cli_main)
            finally:
                tracer.uninstall()
            rounds.append((traced, True))
        r += 1
        # start another round only if one as long as the last still fits
        now = time.monotonic()
        if now + (now - round_start) > start + args.seconds:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = Checks()
    info: list[str] = []
    for calls, _ in rounds:
        workload.check_round(calls, checks)
    workload.check_run([c for c, _ in rounds], checks, cli_main, info)

    if tracer is None:
        metrics = end_to_end(workload, [c for c, _ in rounds], peak_rss_mib)
    else:
        metrics = per_layer(tracer, rounds)
    for line in info:
        print(f"info: {line}")
    for line in checks.problems[:20]:
        print(f"check failed: {line}")
    print(json.dumps({
        "ready": ready,
        "correct": not checks.problems,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "rounds": len(rounds),
        "metrics": metrics,
    }))
    return 0


def end_to_end(workload, rounds, peak_rss_mib) -> dict:
    """Medians over rounds, call by call, so a burst of load on the machine
    during one call does not move the result."""
    calls_per_round = len(rounds[0])
    per_call = [statistics.median(calls[i].seconds for calls in rounds)
                for i in range(calls_per_round)]
    rate = [workload.agent_rounds(calls)
            / sum(c.seconds for c in calls if c.simulates) for calls in rounds]
    return {
        "wall_s": {"value": sum(per_call), "unit": "s"},
        "agent_rounds_per_s": {"value": statistics.median(rate),
                               "unit": "agent-rounds/s"},
        "second_call_s": {"value": per_call[1], "unit": "s"},
        "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
    }


def per_layer(tracer, rounds) -> dict:
    traced = [calls for calls, is_traced in rounds if is_traced]
    plain = [calls for calls, is_traced in rounds if not is_traced]
    per_round = 1.0 / len(traced)
    self_s = tracer.self_times()
    counts = tracer.counts

    def seconds(name):
        return {"value": self_s.get(name, 0.0) * per_round, "unit": "s"}

    def count(name):
        return {"value": counts[name] * per_round, "unit": "count"}

    cells = counts["sampler.cells"]
    metrics = {
        "core.validate.calls": count("core.validate.calls"),
        "core.validate.self_s": seconds("core.validate"),
        "core.bias_stats.self_s": seconds("core.bias_stats"),
        "core.is_consensus.self_s": seconds("core.is_consensus"),
        "sampler.sample_counts_matrix.self_s": seconds("sampler.sample_counts_matrix"),
        "sampler.chain_rows": count("sampler.chain_rows"),
        "sampler.categorical_rows": count("sampler.categorical_rows"),
        "sampler.argmax_rows_with_tiebreak.self_s":
            seconds("sampler.argmax_rows_with_tiebreak"),
        "sampler.tiebreak_draws": count("sampler.tiebreak_draws"),
        "sampler.live_cell_frac": {
            "value": counts["sampler.live_cells"] / cells if cells else 0.0,
            "unit": "ratio"},
        "sampler.draw_multinomial.self_s": seconds("sampler.draw_multinomial"),
        "dynamics.step.self_s": seconds("dynamics.step"),
        "dynamics.summarize_round.self_s": seconds("dynamics.summarize_round"),
        "dynamics.run.self_s": seconds("dynamics.run"),
        "dynamics.oracle_step.self_s": seconds("dynamics.oracle_step"),
        "oracle.win_distribution.self_s": seconds("oracle.win_distribution"),
        "oracle.win_distribution.outcomes": count("oracle.win_distribution.outcomes"),
        "oracle.event_report.self_s": seconds("oracle.event_report"),
        "oracle.event_report.outcomes": count("oracle.event_report.outcomes"),
        "oracle.tie_map_audit.self_s": seconds("oracle.tie_map_audit"),
        "oracle.binomial_pair_report.self_s": seconds("oracle.binomial_pair_report"),
        "montecarlo.run_trial.self_s": seconds("montecarlo.run_trial"),
        "montecarlo.to_json_line.self_s": seconds("montecarlo.to_json_line"),
        "montecarlo.sample_win_events.self_s": seconds("montecarlo.sample_win_events"),
        "montecarlo.sample_win_events.rows": count("montecarlo.sample_win_events.rows"),
        "theory.self_s": seconds("theory"),
    }
    for suite in SUITES:
        metrics[f"verify.{suite}.self_s"] = seconds(f"verify.{suite}")
    metrics["cli.self_s"] = seconds("cli.main")
    overhead = [sum(c.seconds for c in t) - sum(c.seconds for c in p)
                for t, p in zip(traced, plain)]
    metrics["trace.overhead_s"] = {"value": statistics.median(overhead), "unit": "s"}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
