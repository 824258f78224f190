import dataclasses
import json
import math
import multiprocessing
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chi2

import hmajority.montecarlo
from hmajority import sampler
from hmajority.cli import main
from hmajority.core import Configuration, NotSortedError
from hmajority.dynamics import step
from hmajority.montecarlo import (
    Estimate,
    RecordFileError,
    SweepSpec,
    SweepSpecError,
    balanced_plus_bias_counts,
    bias_growth_audit,
    check_w1_lower_bound,
    derive_trial_seed,
    rare_outsample_audit,
    read_records_jsonl,
    run_sweep,
    sample_win_events,
    scaling_fit,
    summarize_cells,
    wilson_interval,
    write_sweep,
)
from hmajority.oracle import win_distribution
from hmajority.sampler import InvalidProbError, RngHandle


def test_wilson_interval_orders():
    low, high = wilson_interval(50, 100)
    assert 0.0 <= low <= 0.5 <= high <= 1.0


def test_wilson_interval_coverage_battery():
    # 99.9% interval must contain the truth in >= 99.8% of 1e4 repetitions
    rng = np.random.default_rng(20240229)
    per_rep = 1000
    reps = 10**4
    for p in (0.01, 0.1, 0.5):
        successes = rng.binomial(per_rep, p, size=reps)
        covered = 0
        for s in successes:
            low, high = wilson_interval(int(s), per_rep)
            covered += low <= p <= high
        assert covered / reps >= 0.998


def test_estimate_invariants():
    est = Estimate.from_counts(3, 10)
    assert est.wilson_low <= est.point <= est.wilson_high


def win_estimates(h, p, trials, seed):
    """Per-opinion adoption estimates from one seeded sample_win_events."""
    counts = sample_win_events(h, p, trials, RngHandle(seed, stream_id=0))
    return [Estimate.from_counts(c, trials) for c in counts.win]


def test_estimate_win_probs_point_mass():
    estimates = win_estimates(4, (1.0, 0.0), trials=500, seed=1)
    assert estimates[0].point == 1.0
    assert estimates[1].point == 0.0


def test_estimate_win_probs_uniform_symmetric():
    estimates = win_estimates(2, (1 / 3, 1 / 3, 1 / 3), trials=10**5, seed=2)
    for est in estimates:
        assert est.wilson_low <= 1 / 3 <= est.wilson_high


def test_estimates_contain_exact_oracle_values():
    # 1e6-trial estimates must cover the exact oracle values at 99.9%
    cases = [(3, (0.6, 0.4)), (2, (1 / 3, 1 / 3, 1 / 3)), (4, (0.5, 0.3, 0.2))]
    for seed, (h, probs) in enumerate(cases):
        exact = win_distribution(h, probs)
        estimates = win_estimates(h, probs, trials=10**6, seed=8000 + seed)
        for est, q in zip(estimates, exact.q):
            assert est.wilson_low <= q <= est.wilson_high


@pytest.mark.parametrize("h, p, seed", [
    (12, (0.7, 0.1, 0.1, 0.1), 8101),  # dominant plurality: most rows leave early
    (8, (0.1, 0.15, 0.15, 0.6), 8102),  # the plurality listed last
    (6, (0.4, 0.0, 0.35, 0.0, 0.25), 8103),  # dead opinions in the middle
    (4, (0.55, 0.45), 8104),  # even h at k = 2: 2-2 ties
    (3, (0.5, 0.3, 0.2), 8105),  # h = k
    (0, (0.5, 0.3, 0.2, 0.0), 8106),  # h = 0: every row ties all k opinions
])
def test_sample_win_events_chain_path_matches_win_distribution(h, p, seed):
    # k <= h: modes from the early-exit chain. The winner law against q by
    # chi-square (alpha 1e-3); the opinion-1 and pair events against
    # q_strict[0], q_ties[0] and q_strict_pair_12 by 0.999 Wilson intervals
    trials = 200_000
    w = win_distribution(h, p)
    counts = sample_win_events(h, p, trials, RngHandle(seed))
    assert counts.trials == trials and sum(counts.win) == trials
    q = np.array(w.q)
    seen = np.array(counts.win)
    assert np.all(seen[q == 0] == 0)
    expect = trials * q[q > 0]
    stat = ((seen[q > 0] - expect) ** 2 / expect).sum()
    assert chi2.sf(stat, expect.size - 1) > 1e-3
    for events, exact in [
        (counts.strict_1, w.q_strict[0]),
        (counts.ties_1, w.q_ties[0]),
        (counts.strict_pair_12, w.q_strict_pair_12),
    ]:
        est = Estimate.from_counts(events, trials)
        assert est.wilson_low <= exact <= est.wilson_high, (events, exact)


@pytest.mark.parametrize("h, p, trials, seed, expected", [
    # k > h, h <= 24: pairwise mode of the draw ids
    (3, (0.3, 0.25, 0.2, 0.15, 0.1), 100_000, 2801,
     {"win": (32310, 25566, 19421, 13854, 8849), "strict_1": 21637,
      "ties_1": 53733, "strict_pair_12": 37200}),
    # k > h > 24: sorted mode of the draw ids
    (40, (0.3,) + (0.7 / 40,) * 40, 70_000, 2803,
     {"win[0]": 69902, "strict_1": 69845, "ties_1": 69963,
      "strict_pair_12": 69846}),
    # k <= h: the binomial chain
    (12, (0.4, 0.3, 0.2, 0.1), 100_000, 2802,
     {"win": (58844, 29516, 10222, 1418), "strict_1": 52165,
      "ties_1": 66483, "strict_pair_12": 75608}),
], ids=["pairwise", "sorted", "chain"])
def test_sample_win_events_keeps_its_stream_on_every_mode_kernel(
        h, p, trials, seed, expected):
    counts = sample_win_events(h, p, trials, RngHandle(seed))
    seen = {"win": counts.win, "win[0]": counts.win[0], "strict_1": counts.strict_1,
            "ties_1": counts.ties_1, "strict_pair_12": counts.strict_pair_12}
    assert {key: seen[key] for key in expected} == expected


def test_sample_win_events_rejects_negative_trials():
    with pytest.raises(InvalidProbError):
        sample_win_events(3, (0.5, 0.5), -1, RngHandle(1))
    with pytest.raises(InvalidProbError):
        sample_win_events(1, (0.5, 0.3, 0.2), -1, RngHandle(1))


@pytest.mark.parametrize("trials", [2.5, True])
@pytest.mark.parametrize("call", [
    lambda trials: sample_win_events(3, (0.5, 0.5), trials, RngHandle(1)),
    lambda trials: sample_win_events(1, (0.5, 0.3, 0.2), trials, RngHandle(1)),
    lambda trials: check_w1_lower_bound(
        (0.6, 0.4), n=20, c4=324.0, trials=trials, seed=1),
], ids=["chain", "ids", "check_w1"])
def test_trials_must_be_an_integer(call, trials):
    # 2.5 died in numpy with a bare TypeError, and True ran as one trial
    with pytest.raises(InvalidProbError, match="'trials' must be an integer"):
        call(trials)


def test_estimate_win_probs_deterministic():
    a = win_estimates(3, (0.6, 0.4), trials=10**4, seed=77)
    b = win_estimates(3, (0.6, 0.4), trials=10**4, seed=77)
    assert a == b


def test_check_w1_lower_bound_single_opinion():
    report = check_w1_lower_bound((1.0,), n=20, c4=324.0, trials=2000, seed=3)
    assert report.w1.point == 1.0
    assert report.w1_verdict == "pass"


def test_check_w1_lower_bound_balanced_pair():
    report = check_w1_lower_bound((0.5, 0.5), n=20, c4=324.0, trials=10**5, seed=4)
    assert report.h == math.ceil(324 * math.log(20) / 0.5)
    assert report.w1_verdict == "pass"
    assert report.strict_vs_ties_verdict in ("pass", "inconclusive")
    assert report.strict_pair_verdict == "pass"


def test_check_w1_strict_vs_ties_fails_far_below_the_theorem_h():
    # c4 = 0.4 gives h = ceil(0.4 ln(2) 7) = 2 over seven equal opinions:
    # Pr(W_strict,1) = 1/49 against Pr(W_ties,1) / 6 = 13/294, so strict_1's
    # interval lies wholly below 1/6 of ties_1's
    report = check_w1_lower_bound((1 / 7,) * 7, n=2, c4=0.4, trials=20_000, seed=6)
    assert report.h == 2
    assert report.strict_1.wilson_high < report.ties_1.wilson_low / 6
    assert report.strict_vs_ties_verdict == "fail"
    assert report.w1_verdict == "pass"


def test_check_w1_requires_sorted():
    with pytest.raises(NotSortedError):
        check_w1_lower_bound((0.3, 0.7), n=20, c4=324.0, trials=100, seed=5)


# ---------------------------------------------------------------------------
# sweep machinery
# ---------------------------------------------------------------------------


def test_balanced_plus_bias_counts_properties():
    counts, b0 = balanced_plus_bias_counts(10**4, 16, 10.0)
    assert sum(counts) == 10**4
    assert b0 < counts[0]
    # B0 is the smallest self-consistent integer bias
    assert b0 >= 10.0 * math.sqrt(counts[0])
    assert (b0 - 1) < 10.0 * math.sqrt(625 + (b0 - 1))
    second = sorted(counts, reverse=True)[1]
    assert counts[0] - second >= b0


def test_balanced_plus_bias_zero_multiplier():
    counts, b0 = balanced_plus_bias_counts(100, 8, 0.0)
    assert b0 == 0
    assert max(counts) - min(counts) <= 1


def test_derive_trial_seed_stable():
    # frozen value: the on-disk reproducibility contract depends on it
    assert derive_trial_seed(0, 0, 0) == 0xE8CA2BD51293D64A
    assert derive_trial_seed(1, 2, 3) != derive_trial_seed(1, 3, 2)


@pytest.mark.parametrize("field, value", [
    ("ns", (40.0,)), ("ks", (2.0,)), ("hs", (3.5,)), ("hs", (True,)),
    ("custom_counts", (30, 10.0)), ("trials", 2.0), ("trials", "2"),
    ("master_seed", True), ("max_rounds", 9.5),
])
def test_sweep_spec_rejects_non_integer_fields(field, value):
    # a float n or h used to reach the cell ids, as n40.0-k2-h3.5
    spec = dict(ns=(40,), ks=(2,), hs=(3,), bias_multiplier=2.0)
    spec[field] = value
    with pytest.raises(SweepSpecError, match=field):
        SweepSpec(**spec)


def test_sweep_spec_takes_python_and_numpy_integers():
    spec = SweepSpec(ns=(np.int64(40),), ks=[np.int32(2)], hs=(3,),
                     bias_multiplier=2.0, trials=np.int16(2),
                     master_seed=np.uint64(5), max_rounds=10,
                     stop_rule="plurality_consensus_on", target_opinion=np.int8(1))
    assert [c.cell_id for c in spec.cells()] == ["n40-k2-h3-balanced_plus_bias"]


def test_sweep_spec_validation():
    with pytest.raises(SweepSpecError):
        SweepSpec(ns=(10,), ks=(2,), hs=(3,), trials=0)
    with pytest.raises(SweepSpecError):
        SweepSpec(ns=(10,), ks=(2,), trials=5)  # no h source
    with pytest.raises(SweepSpecError):
        SweepSpec.from_json_dict({"schema_version": 1, "bogus": 1})
    with pytest.raises(SweepSpecError):
        SweepSpec.from_json_dict({"n": [10], "k": [2], "h": [3], "trials": 5})


@pytest.mark.parametrize("field, value", [
    ("n", ["12x"]),
    ("n", "100"),  # a string is not a list of sizes
    ("k", [None]),
    ("custom_counts", [5, "a"]),
    ("trials", "many"),
    # a fraction or a bool in an integer field is not truncated to an int
    ("h", [3.7]),
    ("n", [40, 40.5]),
    ("k", [True]),
    ("custom_counts", [30, 10.25]),
    ("trials", 2.5),
    ("trials", True),
    ("master_seed", 1.5),
    ("max_rounds", 300.5),
    ("target_opinion", 1.5),
    ("bias_multiplier", True),
])
def test_sweep_spec_rejects_malformed_values(field, value):
    data = {"schema_version": 1, "n": [40], "k": [2], "h": [3], "trials": 2,
            "pattern": "custom", "custom_counts": [30, 10]}
    data[field] = value
    with pytest.raises(SweepSpecError, match=field):
        SweepSpec.from_json_dict(data).cells()


def test_sweep_spec_reads_integral_numbers(tmp_path, capsys):
    # 4e1 and 2.0 are integers written as JSON numbers with a fraction part
    spec = SweepSpec.from_json_dict({
        "schema_version": 1, "n": 4e1, "k": [2.0], "h": [3], "trials": 2.0,
        "master_seed": 7.0, "bias_multiplier": 2,
    })
    assert (spec.ns, spec.ks, spec.trials, spec.master_seed) == ((40,), (2,), 2, 7)
    assert all(type(v) is int for v in (*spec.ns, *spec.ks, spec.trials))
    assert spec.bias_multiplier == 2.0
    # the simulate config reads its integer fields the same way
    config, out = tmp_path / "config.json", tmp_path / "out"
    config.write_text(json.dumps({
        "schema_version": 1, "counts": [30.0, 2e1], "h": 3.0, "max_rounds": 5,
    }))
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    doc = json.loads((out / "trajectory.json").read_text())
    assert (doc["initial_counts"], doc["params"]["h"]) == ([30, 20], 3)
    assert type(doc["params"]["h"]) is int


def test_sweep_spec_rejects_repeated_cells():
    with pytest.raises(SweepSpecError, match="twice"):
        SweepSpec(ns=(40,), ks=(2,), hs=(3, 3), bias_multiplier=2.0).cells()
    # an h_rule_c4 that derives an h the spec already lists
    (derived,) = SweepSpec(ns=(40,), ks=(2,), h_rule_c4=1.0,
                           bias_multiplier=2.0).cells()
    with pytest.raises(SweepSpecError, match="twice"):
        SweepSpec(ns=(40,), ks=(2,), hs=(derived.h,), h_rule_c4=1.0,
                  bias_multiplier=2.0).cells()


@pytest.mark.parametrize("target", [0, 3, 7, True, 1.0])
def test_sweep_spec_rejects_target_outside_opinions(target):
    spec = SweepSpec(ns=(40,), ks=(2,), hs=(3,), bias_multiplier=2.0,
                     stop_rule="plurality_consensus_on", target_opinion=target)
    with pytest.raises(SweepSpecError, match="target_opinion"):
        spec.cells()
    assert len(dataclasses.replace(spec, target_opinion=2).cells()) == 1


def test_sweep_single_trial_consensus_start():
    spec = SweepSpec(
        ns=(),
        ks=(),
        hs=(3,),
        pattern="custom",
        custom_counts=(20, 0),
        trials=1,
        master_seed=5,
        max_rounds=10,
    )
    records = list(run_sweep(spec))
    assert len(records) == 1
    assert records[0].consensus_round == 0
    assert records[0].winner == 1
    assert records[0].rounds_run == 0


def test_sweep_lead_trace_reads_the_top_counts_above_full_counts_max_k():
    # k = 70 > FULL_COUNTS_MAX_K: round summaries keep only the top counts,
    # and the lead trace's two largest shares come from them
    counts = [3] * 70
    counts[10], counts[40] = 9, 7
    spec = SweepSpec(
        ns=(), ks=(), hs=(3,), pattern="custom", custom_counts=tuple(counts),
        trials=1, master_seed=11, max_rounds=2,
    )
    (record,) = run_sweep(spec)
    n = sum(counts)
    assert record.lead_trace[0] == [0, 9 / n, 7 / n]
    assert len(record.lead_trace) == record.rounds_run + 1


def test_sweep_deterministic_and_worker_invariant():
    spec = SweepSpec(
        ns=(60,), ks=(3,), hs=(3,), bias_multiplier=2.0,
        trials=6, master_seed=99, max_rounds=200,
    )
    lines_a = [r.to_json_line() for r in run_sweep(spec)]
    lines_b = [r.to_json_line() for r in run_sweep(spec)]
    assert lines_a == lines_b
    lines_c = [r.to_json_line() for r in run_sweep(spec, workers=2)]
    assert lines_a == lines_c


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the pinned step mode reaches workers only by fork")
def test_sweep_workers_after_threaded_chain_step(
    tmp_path, monkeypatch, pin_sweep_step_mode
):
    # a step whose chain call ran on a thread pool, then worker processes
    # forked from this process: the sweep finishes and the worker count
    # does not change its records. The default step mode would take the
    # oracle at this n, so the trials pin the agents.
    pin_sweep_step_mode("agent_level")
    monkeypatch.setattr(sampler, "MAX_THREADS", 2)
    cfg = Configuration.from_counts((30_000, 20_000))
    assert sum(step(cfg, 3, RngHandle(3)).counts) == cfg.n
    # n = 20 000, k = 2 <= h = 3: every round's chain call spans two sub-blocks
    spec = SweepSpec(
        ns=(20_000,), ks=(2,), hs=(3,), bias_multiplier=4.0,
        trials=3, master_seed=11, max_rounds=60,
    )
    digests = []
    for workers in (2, 1):
        out = tmp_path / f"workers{workers}"
        assert write_sweep(spec, str(out), workers=workers) == (3, 0)
        digests.append((out / "records.jsonl").read_bytes())
    assert digests[0] == digests[1]
    assert b'"status":"consensus"' in digests[0]


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched run_trial reaches workers only by fork")
def test_sweep_workers_draw_on_one_thread(tmp_path, monkeypatch):
    monkeypatch.setattr(sampler, "MAX_THREADS", 2)

    def report_threads(cell, trial_index, spec):
        return hmajority.montecarlo._cell_record(
            spec, cell, trial_index, f"threads:{sampler.MAX_THREADS}")

    monkeypatch.setattr(hmajority.montecarlo, "run_trial", report_threads)
    spec = SweepSpec(ns=(40,), ks=(2,), hs=(3,), bias_multiplier=2.0, trials=4)
    assert {r.status for r in run_sweep(spec, workers=2)} == {"threads:1"}
    assert {r.status for r in run_sweep(spec, workers=1)} == {"threads:2"}


def test_sweep_error_records_worker_invariant(tmp_path):
    # a negative count passes the spec but fails every trial at run time
    spec = SweepSpec(
        ns=(), ks=(), hs=(3, 5), pattern="custom", custom_counts=(6, -1, 3),
        trials=3, master_seed=5,
    )
    digests = []
    for workers in (1, 2):
        out = tmp_path / f"workers{workers}"
        assert write_sweep(spec, str(out), workers=workers) == (6, 0)
        digests.append((out / "records.jsonl").read_bytes())
    assert digests[0] == digests[1]
    statuses = {json.loads(line)["status"] for line in digests[0].splitlines()}
    assert statuses == {"error:SumMismatchError"}


def test_record_jsonl_roundtrip(tmp_path):
    spec = SweepSpec(
        ns=(40,), ks=(2,), hs=(3,), bias_multiplier=2.0,
        trials=2, master_seed=1, max_rounds=100,
    )
    records = list(run_sweep(spec))
    assert write_sweep(spec, str(tmp_path)) == (2, 0)
    loaded = read_records_jsonl(str(tmp_path / "records.jsonl"))
    assert loaded == [json.loads(r.to_json_line()) for r in records]
    assert "wall_time_ms" not in loaded[0]
    # a second call resumes: nothing is left to write
    assert write_sweep(spec, str(tmp_path)) == (0, 2)
    assert read_records_jsonl(str(tmp_path / "records.jsonl")) == loaded


def test_sweep_meta_names_the_step_mode_and_resume_keeps_it(
    tmp_path, pin_sweep_step_mode
):
    # the records do not name the step mode, which picks their RNG stream
    grid = dict(ns=(40,), ks=(2,), hs=(3,), bias_multiplier=2.0, master_seed=1)
    spec = SweepSpec(trials=2, **grid)
    auto, legacy = tmp_path / "auto", tmp_path / "legacy"
    assert write_sweep(spec, str(auto)) == (2, 0)
    meta = json.loads((auto / "sweep_meta.json").read_text())
    assert meta["step_mode"] == "auto"
    # a directory written before the meta named a mode holds agent_level
    pin_sweep_step_mode("agent_level")
    assert write_sweep(spec, str(legacy)) == (2, 0)
    meta = json.loads((legacy / "sweep_meta.json").read_text())
    del meta["step_mode"]
    (legacy / "sweep_meta.json").write_text(json.dumps(meta))
    assert write_sweep(spec, str(legacy)) == (0, 2)
    for out, mode in ((auto, "agent_level"), (legacy, "auto")):
        pin_sweep_step_mode(mode)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        with pytest.raises(RecordFileError, match="cannot resume"):
            write_sweep(SweepSpec(trials=4, **grid), str(out))
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    # and so does one without sweep_meta.json: the file used to be written
    # last, so a sweep interrupted then left none
    (legacy / "sweep_meta.json").unlink()
    with pytest.raises(RecordFileError, match="step mode 'agent_level'"):
        write_sweep(spec, str(legacy))


def test_sweep_resumes_only_its_own_spec(tmp_path):
    # two trials under a 300-round cap, then four under a 2-round cap: the
    # second call would append trials run under another cap
    grid = dict(ns=(40,), ks=(2,), hs=(3,), bias_multiplier=2.0, master_seed=1)
    first = SweepSpec(trials=2, max_rounds=300, **grid)
    assert write_sweep(first, str(tmp_path)) == (2, 0)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    for other in (dict(max_rounds=2), dict(max_rounds=300, stop_rule="max_rounds_only")):
        with pytest.raises(RecordFileError, match="another sweep spec"):
            write_sweep(SweepSpec(trials=4, **other, **grid), str(tmp_path))
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    # a meta file written before the digest resumes on the step mode alone
    meta = json.loads((tmp_path / "sweep_meta.json").read_text())
    del meta["spec_digest"]
    (tmp_path / "sweep_meta.json").write_text(json.dumps(meta))
    assert write_sweep(SweepSpec(trials=3, max_rounds=2, **grid), str(tmp_path)) == (1, 2)


def test_sweep_spec_holds_its_fields_as_json_reads_them(tmp_path):
    # numpy integers and an integer bias multiplier are the spec that JSON
    # reads back: they write a sweep, and either form resumes it
    grid = dict(ns=(np.int64(40),), ks=[np.int32(2)], hs=(np.int64(3),),
                master_seed=np.int64(1), max_rounds=np.int64(100))
    spec = SweepSpec(trials=2, bias_multiplier=2, **grid)
    loaded = SweepSpec.from_json_dict({
        "schema_version": 1, "n": [40], "k": [2], "h": [3], "bias_multiplier": 2,
        "trials": 2, "master_seed": 1, "max_rounds": 100,
    })
    assert spec == loaded and type(spec.bias_multiplier) is float
    assert all(type(v) is int for v in (*spec.ns, *spec.ks, *spec.hs, spec.master_seed))
    assert write_sweep(spec, str(tmp_path)) == (2, 0)
    assert write_sweep(dataclasses.replace(loaded, trials=3), str(tmp_path)) == (1, 2)
    more = SweepSpec(trials=4, bias_multiplier=np.float64(2.0), **grid)
    assert write_sweep(more, str(tmp_path)) == (1, 3)


def test_sweep_extended_by_trials_is_byte_equal_to_one_run(tmp_path):
    # one cell: records run cell by cell, so a longer run of one cell is
    # the shorter one followed by the new trials
    grid = dict(ns=(40,), ks=(3,), hs=(3,), bias_multiplier=2.0, master_seed=4,
                max_rounds=300)
    whole, grown = tmp_path / "whole", tmp_path / "grown"
    assert write_sweep(SweepSpec(trials=5, **grid), str(whole)) == (5, 0)
    assert write_sweep(SweepSpec(trials=2, **grid), str(grown)) == (2, 0)
    assert write_sweep(SweepSpec(trials=5, **grid), str(grown)) == (3, 2)
    records = [(out / "records.jsonl").read_bytes() for out in (whole, grown)]
    assert records[0] == records[1]
    metas = [json.loads((out / "sweep_meta.json").read_text()) for out in (whole, grown)]
    assert metas[0] == metas[1] and metas[1]["trials"] == 5


def test_bias_growth_audit_zero_trace():
    record = {
        "n": 100, "h": 1,
        "bias_trace": [[0, 0.0], [1, 0.0], [2, 0.0]],
        "lead_trace": [[0, 0.25, 0.25], [1, 0.25, 0.25], [2, 0.25, 0.25]],
    }
    report = bias_growth_audit([record], bias_multiplier=10.0)
    assert report.qualifying_pairs == 0
    assert report.vacuous


def test_bias_growth_audit_synthetic_trace():
    # h=1 with p1=p2=0.25 puts the small-bias boundary at exactly 1, so all
    # pairs qualify once the bias threshold is cleared; factors are (3, 3)
    record = {
        "n": 10**8, "h": 1,
        "bias_trace": [[0, 0.01], [1, 0.03], [2, 0.09]],
        "lead_trace": [[0, 0.25, 0.25], [1, 0.25, 0.25], [2, 0.25, 0.25]],
    }
    report = bias_growth_audit([record], bias_multiplier=10.0, c6=10.0)
    assert report.qualifying_pairs == 2
    assert report.growth_factors == pytest.approx((3.0, 3.0))
    assert report.fraction == 1.0
    assert not report.vacuous


def test_rare_outsample_audit_smoke():
    cfg = Configuration.from_counts((48, 20, 20, 12))
    report = rare_outsample_audit(cfg, rare_opinion=4, rounds=20, seed=1, h=200)
    assert report.rounds == 20
    assert 0.0 <= report.fraction <= 1.0
    assert report.bound == pytest.approx(1 - 1 / 100)


@pytest.mark.parametrize("rounds", [0, -1])
def test_rare_outsample_rejects_rounds_below_one(rounds):
    # the report's fraction is clean rounds / rounds
    cfg = Configuration.from_counts((48, 20, 20, 12))
    with pytest.raises(SweepSpecError, match="rounds"):
        rare_outsample_audit(cfg, rare_opinion=4, rounds=rounds, seed=1, h=10)


@pytest.mark.parametrize("h", [0, -1, 2.5, True, "3"])
def test_rare_outsample_rejects_h_not_a_positive_integer(h):
    # a float or bool h used to run and report int(h)
    cfg = Configuration.from_counts((48, 20, 20, 12))
    with pytest.raises(SweepSpecError, match=r"\bh'? must be"):
        rare_outsample_audit(cfg, rare_opinion=4, rounds=5, seed=1, h=h)


def test_sweep_spec_names_a_listed_h_below_one():
    # a listed h used to be reported as derived
    with pytest.raises(SweepSpecError, match="^listed h=0 must be >= 1$"):
        SweepSpec(ns=(40,), ks=(2,), hs=(0,), bias_multiplier=1.0).cells()


@pytest.mark.parametrize("n, message", [(1, "derived h=0 must be"), (0, "n >= 1")])
def test_check_w1_rejects_h_rule_below_one(n, message):
    # ln(1) = 0 derives h = 0, which used to run and pass W1; ln(0) raised a
    # bare math domain error
    with pytest.raises(SweepSpecError, match=message):
        check_w1_lower_bound((0.6, 0.4), n=n, c4=324.0, trials=1000, seed=1)


def test_rare_outsample_rejects_derived_h_below_one():
    # n = 1 derives h = 0, which used to run and report no clean round
    cfg = Configuration.from_counts((1, 0))
    with pytest.raises(SweepSpecError, match="derived h=0 must be"):
        rare_outsample_audit(cfg, rare_opinion=2, rounds=3, seed=1)


def test_rare_outsample_rejects_leader():
    cfg = Configuration.from_counts((48, 20, 20, 12))
    with pytest.raises(SweepSpecError):
        rare_outsample_audit(cfg, rare_opinion=1, rounds=5, seed=1, h=10)


@pytest.mark.parametrize("rare_opinion", [0, 5])
def test_rare_outsample_rejects_opinion_out_of_range(rare_opinion):
    # opinions are 1..k: 0 must not wrap round to opinion k
    cfg = Configuration.from_counts((48, 20, 20, 12))
    with pytest.raises(SweepSpecError, match="1..4"):
        rare_outsample_audit(cfg, rare_opinion=rare_opinion, rounds=5, seed=1, h=10)


def test_rare_outsample_memory_independent_of_k():
    # each agent's sample is a (leader, rare, rest) count triple, so a
    # block holds rows x 3 counts, never a rows x k matrix
    n, k = 65_536, 128
    cfg = Configuration.from_counts([n // k] * k)
    tracemalloc.start()
    try:
        report = rare_outsample_audit(cfg, rare_opinion=k, rounds=1, seed=41, h=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.rounds == 1 and report.k == k
    assert peak < 16 * 2**20, peak


def test_summaries_and_scaling():
    spec = SweepSpec(
        ns=(50, 100), ks=(2,), hs=(3,), bias_multiplier=2.0,
        trials=4, master_seed=77, max_rounds=300,
    )
    records = list(run_sweep(spec))
    rows = summarize_cells(records)
    assert len(rows) == 2
    for row in rows:
        assert 0.0 <= row["plurality_success_rate"] <= 1.0
        assert row["trials"] == 4
    fits = scaling_fit(rows)
    assert len(fits) == 1
    assert "slope" in fits[0]


def test_scaling_fit_points_keep_n():
    # the points hold n itself: exp(ln n) printed as an integer read
    # n = 2^48 as 2^48 - 1; the fit is still on ln(n)
    rows = [{"k": 2, "n": n, "median_consensus_round": m}
            for n, m in ((1000, 4), (2**48, 9))]
    (fit,) = scaling_fit(rows)
    assert fit["points"] == [(1000, 4), (2**48, 9)]
    assert fit["slope"] == pytest.approx(5 / (math.log(2**48) - math.log(1000)))


def test_trial_record_json_is_versioned():
    spec = SweepSpec(
        ns=(30,), ks=(2,), hs=(3,), bias_multiplier=2.0,
        trials=1, master_seed=2, max_rounds=50,
    )
    record = next(iter(run_sweep(spec)))
    data = json.loads(record.to_json_line())
    assert data["schema_version"] == 1
    assert data["master_seed"] == 2
    assert data["bias_trace"][0][0] == 0
