import json
import os
import subprocess
import sys

import pytest

import hmajority.cli
import hmajority.montecarlo
from hmajority import sampler
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


def test_simulate_defaults_come_from_run_params(tmp_path, capsys, monkeypatch):
    # the config reader holds no copy of RunParams' defaults
    monkeypatch.setattr(hmajority.cli.RunParams, "step_mode", "oracle_level")
    config, out = tmp_path / "config.json", tmp_path / "out"
    _write_json(config, {"schema_version": 1, "counts": [6, 4], "h": 3,
                         "max_rounds": 2})
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    params = json.loads((out / "trajectory.json").read_text())["params"]
    assert (params["step_mode"], params["stop_rule"]) == ("oracle_level", "consensus")


def test_simulate_trajectory_does_not_depend_on_thread_count(
    tmp_path, capsys, monkeypatch
):
    # k = 4 <= h = 5 at n = 70 000: chain calls of four sub-blocks
    config = tmp_path / "config.json"
    _write_json(config, {
        "schema_version": 1, "counts": [20000, 18000, 17000, 15000], "h": 5,
        "max_rounds": 3, "step_mode": "agent_level", "seed": 41,
    })
    docs = []
    for threads in (1, 2):
        monkeypatch.setattr(sampler, "MAX_THREADS", threads)
        out = tmp_path / f"threads{threads}"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        docs.append((out / "trajectory.json").read_bytes())
    assert docs[0] == docs[1]


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


@pytest.mark.parametrize("target", [0, 3, 7, "1", True])
def test_simulate_rejects_target_outside_opinions(tmp_path, capsys, target):
    config = tmp_path / "config.json"
    out = tmp_path / "o"
    _write_json(config, {
        "schema_version": 1, "counts": [6, 4], "h": 3, "max_rounds": 50,
        "stop_rule": "plurality_consensus_on", "target_opinion": target,
    })
    code = main(["simulate", "--config", str(config), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and "target_opinion" in err
    assert not out.exists()


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


def test_oracle_rejects_nan_probability(capsys):
    code = main(["oracle", "--h", "3", "--p", "nan,1.0", "--report", "win"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("config error:")
    assert captured.out == ""


def test_oracle_rejects_nan_rare_x(capsys):
    # json.dumps would print "rare_x": NaN, which is not JSON
    argv = ["oracle", "--h", "3", "--p", "0.6,0.4", "--report", "event"]
    code = main([*argv, "--rare-x", "nan"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("config error:") and "rare_x" in captured.err
    assert captured.out == ""


def test_oracle_event_report_unsorted(capsys):
    code = main(["oracle", "--h", "3", "--p", "0.4,0.6", "--report", "event"])
    assert code == 2


def test_oracle_tiemap_report(capsys):
    code = main(["oracle", "--h", "4", "--p", "0.5,0.3,0.2", "--report", "tiemap"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["domain_size"] >= 1


@pytest.mark.parametrize("report", ["win", "event", "tiemap"])
def test_oracle_out_writes_the_printed_json(tmp_path, capsys, report):
    path = tmp_path / "report.json"
    argv = ["oracle", "--h", "4", "--p", "0.5,0.3,0.2", "--report", report]
    assert main([*argv, "--out", str(path)]) == 0
    out = capsys.readouterr().out
    assert out == path.read_text() + "\n"
    assert json.loads(out)["h"] == 4


@pytest.mark.parametrize("report", ["win", "event", "tiemap"])
def test_oracle_negative_h_is_config_error(report, capsys):
    code = main(["oracle", "--h", "-1", "--p", "0.6,0.4", "--report", report])
    captured = capsys.readouterr()
    assert code == 2
    assert "h must be >= 0" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "monotonicity", "--suite", "bounds", "--trials", "0"],
    ["sweep", "--spec", "spec.json", "--out", "OUT", "--workers", "0"],
    ["sweep", "--spec", "spec.json", "--out", "OUT", "--workers", "-2"],
])
def test_counts_on_the_command_line_must_be_positive(tmp_path, capsys, argv):
    argv = [str(tmp_path / a) if a in ("spec.json", "OUT") else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert "must be an integer >= 1" in captured.err
    assert captured.out == ""  # no suite ran
    assert not (tmp_path / "OUT").exists()


def test_verify_single_suite(capsys):
    code = main(["verify", "--suite", "monotonicity"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("PASS monotonicity")


def test_verify_out_writes_the_results(tmp_path, capsys):
    path = tmp_path / "verify.json"
    argv = ["verify", "--suite", "monotonicity", "--suite", "tiemap"]
    assert main([*argv, "--out", str(path)]) == 0
    out = capsys.readouterr().out
    doc = json.loads(path.read_text())
    assert doc["schema_version"] == 1
    assert [r["name"] for r in doc["results"]] == ["monotonicity", "tiemap"]
    for result in doc["results"]:
        assert result["passed"] is True and result["failure_count"] == 0
        assert f"PASS {result['name']}: {result['checks']} checks" in out


def test_verify_reports_failing_suite(capsys):
    # the full lemma9 grid contains the documented even-m defect
    code = main(["verify", "--suite", "lemma9"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL lemma9" in out


@pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
def test_verify_takes_any_integer_seed(capsys, seed):
    # growth_claim's stream masks its seed to 64 bits like every other one
    code = main(["verify", "--suite", "growth_claim", "--seed", seed])
    assert code == 0
    assert capsys.readouterr().out.startswith("PASS growth_claim")


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
    # one fit over k = 2, its n column the spec's ns as written
    assert [line.split(",")[:2] for line in scaling[1:]] == [["2", "40;80;160"]]


def test_report_leaves_the_round_columns_empty_without_consensus(tmp_path, capsys):
    # one round from a near-balanced start at n = 1000 never reaches consensus
    spec = tmp_path / "spec.json"
    _write_json(spec, {
        "schema_version": 1, "n": [1000], "k": [3], "h": [3],
        "bias_multiplier": 1.0, "trials": 2, "master_seed": 5, "max_rounds": 1,
    })
    out = tmp_path / "sweep"
    assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
    report_dir = tmp_path / "report"
    assert main(["report", "--in", str(out), "--out", str(report_dir)]) == 0
    capsys.readouterr()
    header, row = (report_dir / "summary.csv").read_text().splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert fields["trials"] == "2"
    assert fields["plurality_success_rate"] == "0.0"
    assert fields["median_consensus_round"] == fields["p90_consensus_round"] == ""
    assert float(fields["mean_wall_time_ms"]) > 0.0
    scaling = (report_dir / "scaling.csv").read_text().splitlines()
    assert scaling == ["k,n_values,medians,slope,intercept"]


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

    real_run_sweep = hmajority.montecarlo.run_sweep

    def interrupted(*args, **kwargs):
        for i, record in enumerate(real_run_sweep(*args, **kwargs)):
            if i == 4:
                raise KeyboardInterrupt
            yield record

    part = tmp_path / "part"
    monkeypatch.setattr(hmajority.montecarlo, "run_sweep", interrupted)
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


@pytest.mark.parametrize("field, value", [
    ("n", ["12x"]),
    ("k", "23"),  # a string, not the list [2, 3]
    ("custom_counts", [5, "a"]),
    ("h", [3, 3]),  # two cells with one cell_id
    ("target_opinion", 7),
    ("h", [3.7]),  # not truncated to 3
    ("trials", 2.5),
    ("master_seed", True),
])
def test_sweep_rejects_malformed_spec(tmp_path, capsys, field, value):
    spec = tmp_path / "spec.json"
    data = {"schema_version": 1, "n": [40], "k": [2], "h": [3],
            "bias_multiplier": 2.0, "trials": 2,
            "stop_rule": "plurality_consensus_on"}
    if field == "custom_counts":
        data["pattern"] = "custom"
    _write_json(spec, {**data, field: value})
    out = tmp_path / "sweep"
    code = main(["sweep", "--spec", str(spec), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:")
    assert "Traceback" not in err
    assert not out.exists()


_SIMULATE_CONFIG = {"schema_version": 1, "counts": [6, 4], "h": 3, "max_rounds": 5}
_SWEEP_SPEC = {"schema_version": 1, "pattern": "custom", "custom_counts": [6, 4],
               "h": [3], "trials": 2}


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("field, value", [
    *((field, v) for field in ("h", "counts") for v in (3.7, True, "3", [[1], 2])),
    *((None, top) for top in (5, None, [1, 2])),  # a top level that is no object
])
def test_malformed_input_is_config_error(tmp_path, capsys, command, field, value):
    if command == "simulate":
        flag, data, key = "--config", _SIMULATE_CONFIG, field
    else:
        flag, data = "--spec", _SWEEP_SPEC
        key = "custom_counts" if field == "counts" else field
    path, out = tmp_path / "input.json", tmp_path / "out"
    _write_json(path, value if field is None else {**data, key: value})
    code = main([command, flag, str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:")
    assert (f"'{key}'" if field else "JSON object") in err
    assert "Traceback" not in err
    assert not out.exists()


def test_sweep_append_refuses_record_line_not_json(tmp_path, capsys):
    out = _small_sweep(tmp_path, capsys)
    lines = (out / "records.jsonl").read_bytes().splitlines(keepends=True)
    lines[1] = lines[1][:20] + b"\n"
    corrupt = b"".join(lines)
    (out / "records.jsonl").write_bytes(corrupt)
    timings = (out / "timings.csv").read_bytes()
    spec = str(tmp_path / "spec.json")
    code = main(["sweep", "--spec", spec, "--out", str(out), "--append"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and "records.jsonl" in err
    assert "Traceback" not in err
    assert (out / "records.jsonl").read_bytes() == corrupt
    assert (out / "timings.csv").read_bytes() == timings


@pytest.mark.parametrize("line", [
    b"{}\n", b"[1, 2]\n", b'{"cell_id": "x"}\n',
    # a complete record with one key of the wrong type
    pytest.param({"consensus_round": "3"}, id="consensus_round-str"),
    pytest.param({"cell_id": ["x"]}, id="cell_id-list"),
    pytest.param({"trial": "0"}, id="trial-str"),
])
def test_sweep_append_and_report_refuse_json_line_not_a_record(
    tmp_path, capsys, line
):
    out = _small_sweep(tmp_path, capsys)
    if isinstance(line, dict):
        first = json.loads((out / "records.jsonl").read_bytes().splitlines()[0])
        line = (json.dumps({**first, **line}) + "\n").encode()
    with open(out / "records.jsonl", "ab") as fh:
        fh.write(line)
    corrupt = (out / "records.jsonl").read_bytes()
    spec = str(tmp_path / "spec.json")
    for argv in (["sweep", "--spec", spec, "--out", str(out), "--append"],
                 ["report", "--in", str(out), "--out", str(tmp_path / "rep")]):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2, argv[0]
        assert err.startswith("config error:") and "records.jsonl" in err
        assert "Traceback" not in err
    assert (out / "records.jsonl").read_bytes() == corrupt
    assert not (tmp_path / "rep").exists()


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


def test_runtime_error_exits_1(tmp_path, capsys):
    # the oracle-level round at n = 1e6, k = 16, h = 68 812 needs a DP of
    # 2e9 cells, above its cap: a TooLargeError from a valid config
    config, out = tmp_path / "config.json", tmp_path / "out"
    _write_json(config, {"schema_version": 1, "counts": [62500] * 16, "h": 68812,
                         "max_rounds": 5, "step_mode": "oracle_level"})
    code = main(["simulate", "--config", str(config), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "cap" in err
    assert not out.exists()


def test_verify_bounds_suite_runs_through_the_cli(capsys):
    code = main(["verify", "--suite", "bounds", "--trials", "1000"])
    assert code == 0
    assert capsys.readouterr().out.startswith("PASS bounds")


@pytest.mark.parametrize("text, message", [
    (None, "config file not found"),
    ("{", "is not valid JSON"),
])
def test_simulate_config_file_missing_or_not_json(tmp_path, capsys, text, message):
    config = tmp_path / "config.json"
    if text is not None:
        config.write_text(text)
    code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and message in err


@pytest.mark.parametrize("argv, message", [
    (["oracle", "--h", "3", "--p", "0.6,x"], "cannot parse probability vector"),
    (["verify", "--suite", "bogus"], "known suites:"),
])
def test_bad_command_line_value_is_config_error(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("config error:") and message in captured.err
    assert captured.out == ""


def test_report_needs_a_record_file(tmp_path, capsys):
    code = main(["report", "--in", str(tmp_path), "--out", str(tmp_path / "rep")])
    err = capsys.readouterr().err
    assert code == 2
    assert "no .jsonl record files" in err
    assert not (tmp_path / "rep").exists()


def test_report_rejects_malformed_timings(tmp_path, capsys):
    out = _small_sweep(tmp_path, capsys)
    with open(out / "timings.csv", "a", encoding="utf-8") as fh:
        fh.write("n40-k2-h3,2,fast\n")
    code = main(["report", "--in", str(out), "--out", str(tmp_path / "rep")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and "timings.csv" in err
    assert not (tmp_path / "rep").exists()


def test_report_names_a_record_field_that_is_missing(tmp_path, capsys):
    out = _small_sweep(tmp_path, capsys)
    first = json.loads((out / "records.jsonl").read_bytes().splitlines()[0])
    del first["trial"]
    with open(out / "records.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(first) + "\n")
    code = main(["report", "--in", str(out), "--out", str(tmp_path / "rep")])
    err = capsys.readouterr().err
    assert code == 2
    assert "missing field 'trial'" in err


@pytest.mark.parametrize("meta, message", [
    ("{", "is not JSON"),
    ("[1, 2]", "must hold a JSON object"),
])
def test_sweep_append_refuses_unreadable_meta(tmp_path, capsys, meta, message):
    out = _small_sweep(tmp_path, capsys)
    (out / "sweep_meta.json").write_text(meta)
    records = (out / "records.jsonl").read_bytes()
    spec = str(tmp_path / "spec.json")
    code = main(["sweep", "--spec", spec, "--out", str(out), "--append"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and "sweep_meta.json" in err
    assert message in err
    assert (out / "records.jsonl").read_bytes() == records
