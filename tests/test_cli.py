import json
import os
import subprocess
import sys

import pytest

import hmajority.cli
from hmajority.cli import main, trajectory_summary_line


def _write_json(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def test_simulate_consensus_start(tmp_path, capsys):
    config = tmp_path / "config.json"
    out = tmp_path / "out"
    _write_json(config, {
        "schema_version": 1,
        "counts": [0, 9, 0],
        "h": 3,
        "max_rounds": 10,
        "seed": 4,
    })
    code = main(["simulate", "--config", str(config), "--out", str(out)])
    printed = capsys.readouterr().out.strip()
    assert code == 0
    doc = json.loads((out / "trajectory.json").read_text())
    assert doc["trajectory"]["consensus_round"] == 0
    assert doc["trajectory"]["winner"] == 2
    # round trip: the printed line is reproducible from the file alone
    assert printed == trajectory_summary_line(doc)


def test_simulate_refuses_overwrite(tmp_path, capsys):
    config = tmp_path / "config.json"
    out = tmp_path / "out"
    _write_json(config, {
        "schema_version": 1, "counts": [5, 5], "h": 3, "max_rounds": 5, "seed": 1,
    })
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
    assert main(["simulate", "--config", str(config), "--out", str(out), "--force"]) == 0


def test_simulate_refuses_overwrite_before_running(tmp_path, capsys, monkeypatch):
    config = tmp_path / "config.json"
    out = tmp_path / "out"
    out.mkdir()
    (out / "trajectory.json").write_text("keep")
    _write_json(config, {
        "schema_version": 1, "counts": [5, 5], "h": 3, "max_rounds": 5, "seed": 1,
    })

    def never(*args):
        raise AssertionError("run called before the overwrite check")

    monkeypatch.setattr(hmajority.cli, "run", never)
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
    assert (out / "trajectory.json").read_text() == "keep"


def test_cli_import_loads_no_scipy():
    # numpy.polynomial (Gauss-Legendre nodes) loads on the first oracle call
    code = (
        "import sys, hmajority.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.startswith(('scipy', 'numpy.polynomial'))))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


def test_simulate_malformed_config(tmp_path, capsys):
    config = tmp_path / "config.json"
    _write_json(config, {"schema_version": 1, "h": 3, "max_rounds": 5})
    code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert "counts" in err


def test_simulate_unknown_field(tmp_path, capsys):
    config = tmp_path / "config.json"
    _write_json(config, {
        "schema_version": 1, "counts": [4, 4], "h": 3, "max_rounds": 5, "extra": 1,
    })
    code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert "extra" in err


def test_oracle_win_report(capsys):
    code = main(["oracle", "--h", "3", "--p", "0.6,0.4", "--report", "win"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["q"][0] - 0.648) < 1e-12


def test_oracle_event_report_unsorted(capsys):
    code = main(["oracle", "--h", "3", "--p", "0.4,0.6", "--report", "event"])
    assert code == 2


def test_oracle_tiemap_report(capsys):
    code = main(["oracle", "--h", "4", "--p", "0.5,0.3,0.2", "--report", "tiemap"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["domain_size"] >= 1


def test_verify_single_suite(capsys):
    code = main(["verify", "--suite", "monotonicity"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("PASS monotonicity")


def test_verify_reports_failing_suite(capsys):
    # the full lemma9 grid contains the documented even-m defect
    code = main(["verify", "--suite", "lemma9"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL lemma9" in out


def test_sweep_report_roundtrip(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    _write_json(spec, {
        "schema_version": 1,
        "n": [40, 80, 160],
        "k": [2],
        "h": [3],
        "bias_multiplier": 2.0,
        "trials": 3,
        "master_seed": 31,
        "max_rounds": 400,
    })
    out = tmp_path / "sweep"
    assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
    capsys.readouterr()
    # refuses to clobber
    assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 2
    capsys.readouterr()

    report_dir = tmp_path / "report"
    assert main(["report", "--in", str(out), "--out", str(report_dir)]) == 0
    capsys.readouterr()
    lines = (report_dir / "summary.csv").read_text().strip().splitlines()
    assert lines[0] == (
        "cell_id,n,k,h,B0,trials,plurality_success_rate,"
        "median_consensus_round,p90_consensus_round,mean_wall_time_ms"
    )
    assert len(lines) == 4  # three cells
    scaling = (report_dir / "scaling.csv").read_text().strip().splitlines()
    assert scaling[0] == "k,n_values,medians,slope,intercept"


def test_sweep_append_resumes_interrupted_sweep(tmp_path, capsys, monkeypatch):
    spec = tmp_path / "spec.json"
    _write_json(spec, {
        "schema_version": 1, "n": [60, 120], "k": [3], "h": [3],
        "bias_multiplier": 2.0, "trials": 3, "master_seed": 17, "max_rounds": 300,
    })
    full = tmp_path / "full"
    assert main(["sweep", "--spec", str(spec), "--out", str(full)]) == 0
    expected = (full / "records.jsonl").read_bytes()
    lines = expected.splitlines(keepends=True)
    assert len(lines) == 6

    real_run_sweep = hmajority.cli.run_sweep

    def interrupted(*args, **kwargs):
        for i, record in enumerate(real_run_sweep(*args, **kwargs)):
            if i == 4:
                raise KeyboardInterrupt
            yield record

    part = tmp_path / "part"
    monkeypatch.setattr(hmajority.cli, "run_sweep", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["sweep", "--spec", str(spec), "--out", str(part)])
    monkeypatch.undo()
    # a crash mid-write leaves a torn last line in both files
    with open(part / "records.jsonl", "ab") as fh:
        fh.write(lines[4][:25])
    with open(part / "timings.csv", "a", encoding="utf-8") as fh:
        fh.write("n120-k3")

    resume = ["sweep", "--spec", str(spec), "--out", str(part), "--append"]
    assert main(resume) == 0
    assert (part / "records.jsonl").read_bytes() == expected
    rows = (part / "timings.csv").read_text().splitlines()
    assert rows[0] == "cell_id,trial,wall_time_ms"
    keys = [tuple(row.split(",")[:2]) for row in rows[1:]]
    records = [json.loads(line) for line in lines]
    assert keys == [(r["cell_id"], str(r["trial"])) for r in records]

    # resuming a finished sweep adds nothing
    assert main(resume) == 0
    assert (part / "records.jsonl").read_bytes() == expected
    assert (part / "timings.csv").read_text().splitlines() == rows
    assert "wrote 0 records" in capsys.readouterr().out


def _small_sweep(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    _write_json(spec, {
        "schema_version": 1, "n": [40, 80], "k": [2], "h": [3],
        "bias_multiplier": 2.0, "trials": 2, "master_seed": 5, "max_rounds": 300,
    })
    out = tmp_path / "sweep"
    assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
    capsys.readouterr()
    return out


def test_report_skips_torn_last_line(tmp_path, capsys):
    out = _small_sweep(tmp_path, capsys)
    whole = tmp_path / "whole"
    assert main(["report", "--in", str(out), "--out", str(whole)]) == 0
    # an interrupted sweep leaves a last line without its newline in both files
    with open(out / "records.jsonl", "ab") as fh:
        fh.write(b'{"cell_id":"n80-k2-h3","tri')
    with open(out / "timings.csv", "a", encoding="utf-8") as fh:
        fh.write("n80-k2-h3,2,")
    torn = tmp_path / "torn"
    assert main(["report", "--in", str(out), "--out", str(torn)]) == 0
    for name in ("summary.csv", "scaling.csv"):
        assert (torn / name).read_bytes() == (whole / name).read_bytes()


def test_report_rejects_undecodable_record_line(tmp_path, capsys):
    out = _small_sweep(tmp_path, capsys)
    lines = (out / "records.jsonl").read_bytes().splitlines(keepends=True)
    lines[1] = lines[1][:20] + b"\n"
    (out / "records.jsonl").write_bytes(b"".join(lines))
    code = main(["report", "--in", str(out), "--out", str(tmp_path / "rep")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and "records.jsonl" in err
    assert "Traceback" not in err


def test_report_missing_inputs(tmp_path, capsys):
    code = main(["report", "--in", str(tmp_path / "nope"), "--out", str(tmp_path)])
    assert code == 2


def test_report_empty_records(tmp_path, capsys):
    src = tmp_path / "records"
    os.makedirs(src)
    (src / "records.jsonl").write_text("")
    out = tmp_path / "summaries"
    code = main(["report", "--in", str(src), "--out", str(out)])
    assert code == 0
    lines = (out / "summary.csv").read_text().strip().splitlines()
    assert len(lines) == 1  # header only


def test_sweep_bad_spec(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    _write_json(spec, {"schema_version": 1, "n": [40], "k": [2], "trials": 3})
    assert main(["sweep", "--spec", str(spec), "--out", str(tmp_path / "s")]) == 2
