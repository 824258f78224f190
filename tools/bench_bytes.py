"""Byte comparison and end-to-end pairs for a change that keeps behaviour.

    python3 tools/bench_bytes.py --parent PARENT_CHECKOUT --pairs 10 --out BENCH_29.json

Run from the root of a checkout; PARENT_CHECKOUT is a full checkout of the
commit to compare against (for example from ``git archive``). It writes one
JSON document with:

* ``bytes``: for each side, in a fresh process, the stdout of
  ``hmajority oracle --report win|event|tiemap`` on every instance of the
  ``verify --suite tiemap`` grid, and the ``verify --out`` file of the six
  suites ``benchmark/workload.py`` runs at seed 2029 and the default trials;
  the SHA-256 of each, and which differ between the sides;
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
    return {"oracle": oracle, "verify": verify}


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
    parser.add_argument("--out", default="BENCH_29.json")
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
        },
        "end_to_end": end_to_end(parent, args.pairs) if args.pairs else None,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
