"""Command-line entry point: simulate, sweep, oracle, verify, report.

Exit codes are the machine contract: 0 success, 1 runtime or verification
failure, 2 configuration error. Every JSON artifact carries schema_version
and the master seed it was produced from. Record files are never silently
overwritten; pass --append (sweep, which resumes an interrupted sweep) or
--force (simulate) to reuse a path.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, fields

from .core import Configuration, HMajorityError, integer, json_object
from .dynamics import RunParams, require_target, run
from .montecarlo import (
    SCHEMA_VERSION,
    RecordFileError,
    SweepSpec,
    read_mean_timings_csv,
    read_records_jsonl,
    scaling_fit,
    summarize_cells,
    write_sweep,
    SUMMARY_HEADER,
)
from .oracle import event_report, tie_map_audit, win_distribution
from .verify import ALL_SUITES, run_suites


class ConfigError(HMajorityError, ValueError):
    pass


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")


def trajectory_summary_line(doc: dict) -> str:
    """One-line run summary derived purely from a trajectory document."""
    traj = doc["trajectory"]
    final = traj["rounds"][-1]
    winner = traj["winner"]
    rounds = traj["consensus_round"]
    return (
        f"winner={winner if winner is not None else 'none'} "
        f"consensus_round={rounds if rounds is not None else 'none'} "
        f"status={traj['terminal_status']} "
        f"final_bias={final['normalized_bias']:.6g}"
    )


def _cmd_simulate(args) -> int:
    names = ("schema_version", "counts", *(f.name for f in fields(RunParams)))
    data = json_object(_load_json(args.config), names, SCHEMA_VERSION, ConfigError)
    get, err = data.get, ConfigError
    seed = integer(get("seed", 0) if args.seed is None else args.seed, "seed", err)
    try:
        config = Configuration.from_counts(get("counts"))
        params = RunParams(
            h=integer(get("h"), "h", err),
            max_rounds=integer(get("max_rounds"), "max_rounds", err),
            stop_rule=get("stop_rule", RunParams.stop_rule),
            target_opinion=integer(get("target_opinion"), "target_opinion", err, True),
            seed=seed,
            step_mode=get("step_mode", RunParams.step_mode),
        )
        require_target(params.target_opinion, config.k)
    except (ValueError, HMajorityError) as exc:
        raise ConfigError(str(exc))
    out_path = os.path.join(args.out, "trajectory.json")
    if os.path.exists(out_path) and not args.force:
        raise ConfigError(f"{out_path} exists; pass --force to overwrite")

    traj = run(config, params)
    os.makedirs(args.out, exist_ok=True)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "master_seed": seed,
        "params": {k: v for k, v in asdict(params).items() if k != "seed"},
        "initial_counts": list(config.counts),
        "trajectory": asdict(traj),
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
    print(trajectory_summary_line(doc))
    return 0


def _cmd_sweep(args) -> int:
    try:
        spec = SweepSpec.from_json_dict(_load_json(args.spec))
        spec.cells()  # grid errors too exit 2, before the clobber check
    except HMajorityError as exc:
        raise ConfigError(str(exc))
    records_path = os.path.join(args.out, "records.jsonl")
    if os.path.exists(records_path) and not args.append:
        raise ConfigError(f"{records_path} exists; pass --append to extend it")
    written, done = write_sweep(spec, args.out, workers=args.workers)
    print(f"wrote {written} records to {records_path} ({done} already there)")
    return 0


def _cmd_oracle(args) -> int:
    try:
        probs = tuple(float(v) for v in args.p.split(","))
    except ValueError:
        raise ConfigError(f"cannot parse probability vector {args.p!r}")
    try:
        if args.report == "win":
            report = win_distribution(args.h, probs)
        elif args.report == "event":
            report = event_report(args.h, probs, rare_x=args.rare_x)
        else:
            report = tie_map_audit(args.h, probs)
    except HMajorityError as exc:
        raise ConfigError(str(exc))
    doc = {**asdict(report), "k": report.k, "schema_version": SCHEMA_VERSION}
    text = json.dumps(doc, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(text)
    return 0


def _cmd_verify(args) -> int:
    names = args.suite if args.suite else None
    try:
        results = run_suites(names, trials=args.trials, seed=args.seed)
    except KeyError as exc:
        raise ConfigError(f"{exc.args[0]}; known suites: {', '.join(ALL_SUITES)}")
    failed = False
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name}: {res.checks} checks, "
              f"{res.failure_count} failures, {len(res.inconclusive)} inconclusive")
        for line in res.failures:
            print(f"  fail: {line}")
        for line in res.inconclusive:
            print(f"  inconclusive: {line}")
        for key, value in res.stats.items():
            if key != "reports":
                print(f"  {key}: {value}")
        failed = failed or not res.passed
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "schema_version": SCHEMA_VERSION,
                    "results": [asdict(r) for r in results],
                },
                fh,
                indent=2,
                default=str,
            )
    return 1 if failed else 0


def _cmd_report(args) -> int:
    if not os.path.isdir(args.in_dir):
        raise ConfigError(f"input directory not found: {args.in_dir}")
    record_files = sorted(
        os.path.join(args.in_dir, f)
        for f in os.listdir(args.in_dir)
        if f.endswith(".jsonl")
    )
    if not record_files:
        raise ConfigError(f"no .jsonl record files in {args.in_dir}")
    records = []
    for path in record_files:
        records.extend(read_records_jsonl(path))
    timings_path = os.path.join(args.in_dir, "timings.csv")
    try:
        timings = read_mean_timings_csv(timings_path)
    except ValueError as exc:
        raise ConfigError(f"{timings_path} holds a malformed line: {exc}")
    rows = summarize_cells(records, timings)
    os.makedirs(args.out, exist_ok=True)
    summary_path = os.path.join(args.out, "summary.csv")
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write(",".join(SUMMARY_HEADER) + "\n")
        for row in rows:
            fh.write(
                ",".join(
                    "" if row[key] is None else str(row[key])
                    for key in SUMMARY_HEADER
                )
                + "\n"
            )
    fits = scaling_fit(rows)
    scaling_path = os.path.join(args.out, "scaling.csv")
    with open(scaling_path, "w", encoding="utf-8") as fh:
        fh.write("k,n_values,medians,slope,intercept\n")
        for fit in fits:
            ns = ";".join(str(n) for n, _ in fit["points"])
            meds = ";".join(str(y) for _, y in fit["points"])
            fh.write(f"{fit['k']},{ns},{meds},{fit['slope']},{fit['intercept']}\n")
    print(f"wrote {summary_path} ({len(rows)} cells) and {scaling_path}")
    return 0


def _positive_int(text: str) -> int:
    """argparse type of a count that must be at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hmajority",
        description="h-majority opinion dynamics: simulation, exact oracle, "
        "and verification harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one trajectory from a JSON config")
    sim.add_argument("--config", required=True)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--out", required=True)
    sim.add_argument("--force", action="store_true")
    sim.set_defaults(func=_cmd_simulate)

    swp = sub.add_parser("sweep", help="run a parameter sweep from a JSON spec")
    swp.add_argument("--spec", required=True)
    swp.add_argument("--workers", type=_positive_int, default=1)
    swp.add_argument("--out", required=True)
    swp.add_argument("--append", action="store_true")
    swp.set_defaults(func=_cmd_sweep)

    orc = sub.add_parser("oracle", help="exact adoption law and small-instance reports")
    orc.add_argument("--h", type=int, required=True)
    orc.add_argument("--p", required=True, help='comma list, e.g. "0.5,0.3,0.2"')
    orc.add_argument("--report", choices=("win", "event", "tiemap"), default="win")
    orc.add_argument("--rare-x", type=float, default=0.25, dest="rare_x")
    orc.add_argument("--out", default=None)
    orc.set_defaults(func=_cmd_oracle)

    ver = sub.add_parser("verify", help="run the verification suites")
    ver.add_argument(
        "--suite", action="append", default=None, help="suite name, repeatable"
    )
    ver.add_argument("--trials", type=_positive_int, default=10**6)
    ver.add_argument("--seed", type=int, default=20240501)
    ver.add_argument("--out", default=None)
    ver.set_defaults(func=_cmd_verify)

    rep = sub.add_parser("report", help="aggregate sweep records into CSV")
    rep.add_argument("--in", dest="in_dir", required=True)
    rep.add_argument("--out", required=True)
    rep.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, RecordFileError) as exc:  # bad inputs, not a bad run
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except HMajorityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
