"""The evidence tools under tools/ refuse to run without an output file."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("tool", ["bench_bytes", "bench_modes", "bench_window"])
def test_tool_requires_out(tool, tmp_path):
    # the parent checkout does not exist: argparse exits 2 before any
    # checkout is read, and no BENCH file is written
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", f"{tool}.py"),
         "--parent", str(tmp_path / "missing"), "--pairs", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "--out" in proc.stderr
    assert os.listdir(tmp_path) == []
