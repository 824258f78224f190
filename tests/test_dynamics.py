import json
import math
import time
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chi2

from hmajority import oracle, sampler
from hmajority.core import Configuration, bias_stats, is_consensus
from hmajority.dynamics import (
    STATUS_CONSENSUS,
    STATUS_PLURALITY_LOST,
    STATUS_ROUND_CAP,
    STEP_AUTO,
    STEP_ORACLE,
    STOP_MAX_ROUNDS,
    STOP_PLURALITY,
    RunParams,
    oracle_is_cheaper,
    oracle_step,
    run,
    step,
    summarize_round,
)
from hmajority.montecarlo import SweepSpec, balanced_plus_bias_counts, run_sweep
from hmajority.oracle import win_distribution
from hmajority.sampler import CHUNK_CELLS, RngHandle

from oracles import naive_win_distribution


def test_step_consensus_absorbing():
    rng = RngHandle(1)
    cfg = Configuration.from_counts((50, 0, 0))
    assert step(cfg, 3, rng) is cfg
    cfg2 = Configuration.from_counts((0, 50))
    assert step(cfg2, 5, rng) is cfg2


def test_step_near_consensus_absorbs_probabilistically():
    # sampled consensus outputs stay fixed points when fed back in
    rng = RngHandle(2)
    cfg = Configuration.from_counts((199, 1))
    current = cfg
    for _ in range(50):
        current = step(current, 7, rng)
        if is_consensus(current):
            fixed = step(current, 7, rng)
            assert fixed.counts == current.counts
            break


@given(
    st.lists(st.integers(min_value=0, max_value=40), min_size=2, max_size=5).filter(
        lambda c: sum(c) > 0
    ),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=80, deadline=None)
def test_step_conserves_population(counts, h, seed):
    cfg = Configuration.from_counts(counts)
    nxt = step(cfg, h, RngHandle(seed))
    assert sum(nxt.counts) == cfg.n
    assert nxt.k == cfg.k


def test_step_expected_next_count():
    # q1 = Pr(Bin(3, 0.6) >= 2) = 0.648; mean over 1e3 steps within 3 sigma
    rng = RngHandle(314159)
    cfg = Configuration.from_counts((6000, 4000))
    reps = 10**3
    totals = 0
    for _ in range(reps):
        totals += step(cfg, 3, rng).counts[0]
    mean = totals / reps
    sigma = math.sqrt(10**4 * 0.648 * 0.352)
    assert abs(mean - 0.648 * 10**4) < 3 * sigma / math.sqrt(reps)


def test_oracle_step_point_mass():
    # a consensus configuration's adoption law is a point mass on its opinion
    rng = RngHandle(5)
    cfg = Configuration.from_counts((0, 20, 0))
    for h in (1, 3, 200):
        assert oracle_step(cfg, h, rng).counts == (0, 20, 0)


def test_oracle_step_symmetric():
    rng = RngHandle(6)
    n = 3 * 10**5
    cfg = Configuration.from_counts((n // 3, n // 3, n // 3))
    nxt = oracle_step(cfg, 2, rng)
    sigma = math.sqrt(n * (1 / 3) * (2 / 3))
    for c in nxt.counts:
        assert abs(c - n / 3) < 3 * sigma


@pytest.mark.parametrize("round_fn", [step, oracle_step])
@pytest.mark.parametrize("h", [0, -2, 2.5, True])
def test_round_functions_reject_h_that_is_not_a_positive_integer(round_fn, h):
    cfg = Configuration.from_counts((6, 4))
    with pytest.raises(ValueError, match="'?h'? must be"):
        round_fn(cfg, h, RngHandle(8))


def test_step_and_oracle_step_same_marginal_law():
    # two-sample chi-square on the next-round count of opinion 1, alpha 1e-3;
    # the k = 16 case is balanced-plus-bias, past the reach of enumeration
    steps = 4000
    cases = [
        ((60, 40, 20), 2, 101, 202),
        (balanced_plus_bias_counts(1600, 16, 2.0)[0], 3, 303, 404),
    ]
    for counts, h, seed_a, seed_b in cases:
        cfg = Configuration.from_counts(counts)
        rng_a = RngHandle(seed_a)
        rng_b = RngHandle(seed_b)
        sample_a = np.array([step(cfg, h, rng_a).counts[0] for _ in range(steps)])
        sample_b = np.array(
            [oracle_step(cfg, h, rng_b).counts[0] for _ in range(steps)]
        )
        lo = min(sample_a.min(), sample_b.min())
        hi = max(sample_a.max(), sample_b.max())
        edges = np.linspace(lo - 0.5, hi + 0.5, 16)
        counts_a, _ = np.histogram(sample_a, edges)
        counts_b, _ = np.histogram(sample_b, edges)
        keep = (counts_a + counts_b) >= 8
        counts_a, counts_b = counts_a[keep], counts_b[keep]
        stat = ((counts_a - counts_b) ** 2 / (counts_a + counts_b)).sum()
        assert chi2.sf(stat, keep.sum() - 1) > 1e-3, (len(counts), h)


def test_step_over_sub_blocks_matches_adoption_law():
    # k <= h at n = 50 000: each step's rows span four chain sub-blocks.
    # Given the configuration the next one is Multinomial(n, q); ten steps
    # from it sum to Multinomial(10 n, q). Chi-square, alpha 1e-3.
    cfg = Configuration.from_counts((20_000, 15_000, 10_000, 5_000))
    h, steps = 5, 10
    q = np.array(win_distribution(h, tuple(c / cfg.n for c in cfg.counts)).q)
    rng = RngHandle(8080)
    total = sum(np.array(step(cfg, h, rng).counts) for _ in range(steps))
    expect = q * cfg.n * steps
    stat = ((total - expect) ** 2 / expect).sum()
    assert chi2.sf(stat, cfg.k - 1) > 1e-3


def test_step_law_matches_win_distribution_on_the_table_path():
    # k = 16 <= h = 200 <= _TABLE_MAX_H at n = 1e5: the chain steps draw from
    # the guide tables over seven sub-blocks. Three steps from the
    # near-balanced start sum to Multinomial(3 n, q), q from the
    # adoption-law DP; chi-square over the 16 opinions, alpha 1e-3
    counts, _ = balanced_plus_bias_counts(100_000, 16, 10.0)
    cfg = Configuration.from_counts(counts)
    h, steps = 200, 3
    q = np.array(win_distribution(h, tuple(c / cfg.n for c in counts)).q)
    rng = RngHandle(1919)
    total = sum(np.array(step(cfg, h, rng).counts) for _ in range(steps))
    expect = q * cfg.n * steps
    stat = ((total - expect) ** 2 / expect).sum()
    assert chi2.sf(stat, cfg.k - 1) > 1e-3


@pytest.mark.parametrize("counts, h, seed", [
    ((30, 20, 20, 15, 10, 5, 0, 0), 3, 505),
    ((40, 30, 0, 20, 10), 4, 606),
    ((0, 9, 0, 1, 0, 0, 10, 0, 0, 0, 0, 0), 5, 707),
])
def test_step_law_matches_sequence_enumeration_when_k_exceeds_h(counts, h, seed):
    # k > h: agents take the mode of their draw ids. Summed over rounds from
    # one configuration, the next counts are Multinomial(rounds * n, q) with
    # q enumerated over the k^h ordered samples; chi-square at alpha 1e-3.
    # Opinions with no agents must never be adopted.
    cfg = Configuration.from_counts(counts)
    q = naive_win_distribution(h, [c / cfg.n for c in counts])[0]
    rng = RngHandle(seed)
    rounds = 300
    total = np.zeros(cfg.k, dtype=np.int64)
    for _ in range(rounds):
        total += step(cfg, h, rng).counts
    live = np.array(counts) > 0
    assert np.all(total[~live] == 0)
    expected = rounds * cfg.n * np.array(q)[live]
    stat = ((total[live] - expected) ** 2 / expected).sum()
    assert chi2.sf(stat, live.sum() - 1) > 1e-3


def test_step_law_matches_win_distribution_when_k_exceeds_h():
    # k > h: agents read the opinions of uniform agents from the look-up
    # table. 200 steps from one configuration sum to Multinomial(200 n, q),
    # q from the adoption-law DP; dead opinions in the middle and at the
    # end are never adopted. Chi-square over the live opinions, alpha 1e-3.
    counts = (400, 0, 300, 200, 0, 100, 0, 0)
    cfg = Configuration.from_counts(counts)
    h, steps = 3, 200
    q = np.array(win_distribution(h, tuple(c / cfg.n for c in counts)).q)
    rng = RngHandle(909)
    total = sum(np.array(step(cfg, h, rng).counts) for _ in range(steps))
    live = np.array(counts) > 0
    assert np.all(total[~live] == 0)
    expect = q[live] * cfg.n * steps
    stat = ((total[live] - expect) ** 2 / expect).sum()
    assert chi2.sf(stat, live.sum() - 1) > 1e-3


@pytest.mark.parametrize("n, k", [(65_536, 128), (10**5, 10**5), (10**7, 10**5)])
def test_step_memory_bounded_by_rows_times_h(n, k):
    # with k > h a block holds rows x h draw ids, never a rows x k count
    # matrix: 128 bytes a cell of the largest block, plus 128 bytes an
    # opinion for the configuration and the guide table, which holds one
    # entry an agent up to CHUNK_CELLS agents (at most 4 bytes each) and
    # 2 x 2^ceil(log2 k) entries above
    h = 3
    counts = [n // k] * k
    counts[0] += n - sum(counts)
    cfg = Configuration.from_counts(counts)
    block_cells = min(65_536, CHUNK_CELLS // h, n) * h
    cap = 128 * block_cells + 128 * k
    tracemalloc.start()
    try:
        nxt = step(cfg, h, RngHandle(37))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(nxt.counts) == n
    assert peak <= cap, (peak, cap)


def test_symmetric_start_winner_uniform():
    # permutation symmetry: winner frequencies uniform over a symmetric start
    wins = np.zeros(3)
    runs = 600
    for i in range(runs):
        traj = run(
            Configuration.from_counts((10, 10, 10)),
            RunParams(h=3, max_rounds=500, seed=1000 + i),
        )
        assert traj.winner is not None
        wins[traj.winner - 1] += 1
    freq = wins / runs
    sigma = math.sqrt((1 / 3) * (2 / 3) / runs)
    assert np.all(np.abs(freq - 1 / 3) < 4 * sigma)


def test_run_already_consensus():
    traj = run(
        Configuration.from_counts((0, 9)),
        RunParams(h=3, max_rounds=10, seed=0),
    )
    assert traj.consensus_round == 0
    assert traj.winner == 2
    assert traj.terminal_status == STATUS_CONSENSUS
    assert len(traj.rounds) == 1


def test_run_params_validation():
    with pytest.raises(ValueError):
        RunParams(h=3, max_rounds=0)
    with pytest.raises(ValueError):
        RunParams(h=0, max_rounds=5)
    with pytest.raises(ValueError):
        RunParams(h=1, max_rounds=5, stop_rule="bogus")


def test_run_params_reject_unknown_step_mode():
    with pytest.raises(ValueError, match="unknown step mode 'bogus'"):
        RunParams(h=1, max_rounds=5, step_mode="bogus")


@pytest.mark.parametrize("field, value", [
    ("h", 3.7), ("h", 3.0), ("h", True), ("h", "3"), ("max_rounds", 5.0),
    ("max_rounds", False), ("seed", "1"), ("seed", 2.5),
])
def test_run_params_reject_non_integer_fields(field, value):
    # a fractional h used to run the round law at int(h) without a word
    params = dict(h=3, max_rounds=5)
    params[field] = value
    with pytest.raises(ValueError, match=field):
        RunParams(**params)


@pytest.mark.parametrize("target", [1.0, True, "1", 0, 3])
def test_run_rejects_target_outside_opinions(target):
    params = RunParams(h=3, max_rounds=5, stop_rule=STOP_PLURALITY,
                       target_opinion=target)
    with pytest.raises(ValueError, match="target_opinion"):
        run(Configuration.from_counts([6, 4]), params)


def test_run_params_take_python_and_numpy_integers():
    params = RunParams(h=np.int64(3), max_rounds=np.int32(5), seed=np.uint64(7),
                       target_opinion=np.int8(1))
    traj = run(Configuration.from_counts([6, 4]), params)
    assert traj.terminal_status in (STATUS_CONSENSUS, STATUS_ROUND_CAP)


def test_run_round_cap():
    traj = run(
        Configuration.from_counts((500, 500)),
        RunParams(h=1, max_rounds=3, seed=3),
    )
    # h=1 is a voter-style update; consensus in 3 rounds at n=1000 is unlikely
    assert traj.terminal_status in (STATUS_ROUND_CAP, STATUS_CONSENSUS)
    assert traj.rounds[-1].t == len(traj.rounds) - 1
    assert [r.t for r in traj.rounds] == list(range(len(traj.rounds)))


def test_run_plurality_lost_status():
    # start with a tiny lead for opinion 1 and a stop rule pinned to it;
    # across seeds some runs must end in consensus on another opinion
    statuses = set()
    for seed in range(40):
        traj = run(
            Configuration.from_counts((11, 10, 9)),
            RunParams(
                h=3,
                max_rounds=400,
                stop_rule=STOP_PLURALITY,
                target_opinion=1,
                seed=seed,
            ),
        )
        statuses.add(traj.terminal_status)
        if traj.terminal_status == STATUS_PLURALITY_LOST:
            assert traj.winner is not None and traj.winner != 1
            assert traj.plurality_lost_round is not None
    assert STATUS_PLURALITY_LOST in statuses
    assert STATUS_CONSENSUS in statuses


@pytest.mark.parametrize("seed, winner, status", [
    (0, 2, STATUS_PLURALITY_LOST),
    (1, 1, STATUS_CONSENSUS),
])
def test_plurality_rule_without_target_keeps_the_initial_plurality(
        seed, winner, status):
    # with no target_opinion the target is round 0's plurality, opinion 1
    params = RunParams(h=3, max_rounds=200, stop_rule=STOP_PLURALITY, seed=seed)
    traj = run(Configuration.from_counts((4, 3, 3)), params)
    assert traj.initial_plurality == 1
    assert (traj.winner, traj.terminal_status) == (winner, status)


@pytest.mark.parametrize("seed", range(4))
def test_plurality_rule_without_target_from_a_tie_ends_in_consensus(seed):
    # a tied start has no plurality, so any consensus is not a loss
    params = RunParams(h=3, max_rounds=200, stop_rule=STOP_PLURALITY, seed=seed)
    traj = run(Configuration.from_counts((5, 5)), params)
    assert traj.initial_plurality is None
    assert traj.winner is not None
    assert traj.terminal_status == STATUS_CONSENSUS


def test_plurality_loss_recorded_but_not_terminal():
    # under the plain consensus stop rule a plurality flip is an observation;
    # the run must continue past it
    found = False
    for seed in range(60):
        traj = run(
            Configuration.from_counts((11, 10, 9)),
            RunParams(h=3, max_rounds=400, seed=seed),
        )
        if (
            traj.plurality_lost_round is not None
            and traj.consensus_round is not None
            and traj.plurality_lost_round < traj.consensus_round
        ):
            found = True
            assert traj.terminal_status == STATUS_CONSENSUS
            assert len(traj.rounds) - 1 == traj.consensus_round
            break
    assert found, "no run lost and then resolved the plurality in 60 seeds"


def test_run_max_rounds_only_keeps_stepping():
    traj = run(
        Configuration.from_counts((19, 1)),
        RunParams(h=5, max_rounds=12, stop_rule=STOP_MAX_ROUNDS, seed=9),
    )
    assert len(traj.rounds) == 13
    if traj.consensus_round is not None:
        assert traj.terminal_status == STATUS_CONSENSUS
        # absorbing: all rounds after first consensus stay consensus
        for summary in traj.rounds[traj.consensus_round:]:
            assert max(summary.counts) == 20


def test_run_oracle_level_mode():
    traj = run(
        Configuration.from_counts((14, 4, 2)),
        RunParams(h=3, max_rounds=300, step_mode=STEP_ORACLE, seed=11),
    )
    assert traj.terminal_status == STATUS_CONSENSUS
    assert traj.winner in (1, 2, 3)


def test_round_summary_compression():
    counts = [1] * 100
    counts[7] = 51
    cfg = Configuration.from_counts(counts)
    summary = summarize_round(0, cfg)
    assert summary.counts is None
    assert len(summary.top_counts) == 16
    assert summary.top_counts[0] == (8, 51)
    assert summary.other_count == cfg.n - sum(c for _, c in summary.top_counts)
    small = summarize_round(0, Configuration.from_counts([5, 5]))
    assert small.counts == (5, 5)
    assert small.top_counts is None


def test_round_summary_top_counts_match_sorted_rule():
    # the kept opinions follow (-count, index) order exactly, ties included
    rng = np.random.default_rng(41)
    for trial in range(200):
        k = int(rng.integers(65, 300))
        counts = rng.integers(0, int(rng.integers(1, 6)) + 1, size=k)
        counts[rng.integers(0, k)] += 1
        cfg = Configuration.from_counts(counts.tolist())
        order = sorted(range(k), key=lambda i: (-cfg.counts[i], i))[:16]
        summary = summarize_round(trial, cfg)
        assert summary.top_counts == tuple((i + 1, cfg.counts[i]) for i in order)
        assert summary.other_count == cfg.n - sum(cfg.counts[i] for i in order)


def test_trajectory_json_roundtrip():
    traj = run(
        Configuration.from_counts((30, 10)),
        RunParams(h=3, max_rounds=100, seed=21),
    )
    doc = json.loads(json.dumps(asdict(traj)))
    assert doc["terminal_status"] == traj.terminal_status
    assert doc["consensus_round"] == traj.consensus_round
    assert doc["rounds"][0]["counts"] == [30, 10]
    final = doc["rounds"][-1]
    assert final["normalized_bias"] == traj.rounds[-1].normalized_bias


def test_run_bias_trace_matches_counts():
    traj = run(
        Configuration.from_counts((40, 30, 30)),
        RunParams(h=5, max_rounds=200, seed=33),
    )
    for summary in traj.rounds:
        cfg = Configuration.from_counts(summary.counts)
        assert bias_stats(cfg).additive_bias == summary.additive_bias


def test_auto_is_the_default_step_mode():
    assert RunParams(h=3, max_rounds=5).step_mode == STEP_AUTO


@pytest.mark.parametrize("n, h, k, live, oracle_path", [
    (10**6, 200, 16, 16, True),      # simulate_large_n at h = 200
    (10**6, 68_812, 16, 16, False),  # its theorem h: the DP is over its cap
    (10**4, 3, 64, 64, False),       # sweep_small_h at k = 64
    (10**4, 3, 8, 8, True),          # sweep_small_h at k = 8
    (10**6, 3, 1, 1, False),         # consensus
    (10**6, 3, 64, 1, False),        # consensus among dead opinions
    # dead opinions (BENCH_25.json grid_dead): with k > h step still draws
    # h ids an agent, so the agents cost n x h whatever the live count is
    (5000, 24, 64, 10, False),       # 1.3 ms against the oracle's 1.7
    (1000, 8, 64, 4, False),         # 0.15 ms against 0.43
    (10**4, 24, 64, 8, True),        # 2.3 ms against the oracle's 1.5
    (10**6, 200, 16, 8, True),       # the chain over 8 live opinions
])
def test_auto_rule_decision_table(n, h, k, live, oracle_path):
    assert oracle_is_cheaper(_grid_counts(n, k, live), h) is oracle_path


def _grid_counts(n, k, live):
    """The BENCH_25.json grid's start: balanced_plus_bias_counts(n, live,
    10) followed by k - live zero counts; (n,) alone at live = 1."""
    held = balanced_plus_bias_counts(n, live, 10.0)[0] if live > 1 else (n,)
    return held + (0,) * (k - live)


# the theorem call of simulate_large_n: h = ceil(324 ln n / p1) at n = 1e6
THEOREM_H = 68_812


def test_auto_rule_at_theorem_h_is_fast_and_builds_no_dp(monkeypatch):
    # round 0, 16 near-equal opinions: about 2e9 cells, refused from the
    # O(k) windows and the layout of its 726 full winning counts
    def refuse(*args):
        raise AssertionError("the rule built the DP")

    monkeypatch.setattr(oracle, "_win_dp", refuse)
    counts = _grid_counts(10**6, 16, 16)
    seconds = []
    for _ in range(20):
        start = time.perf_counter()
        assert not oracle_is_cheaper(counts, THEOREM_H)
        seconds.append(time.perf_counter() - start)
    assert min(seconds) < 1e-3, seconds


def test_auto_rule_refuses_many_opinions_from_the_largest_count(monkeypatch):
    # n = k = 1e5 at h = 24: the calls' lower bound from h, the live count
    # and the largest count alone outweighs the agents, so no window of
    # the 1e5 opinions is built
    from hmajority import dynamics

    def refuse(*args):
        raise AssertionError("the rule built the windows")

    monkeypatch.setattr(dynamics, "live_plan", refuse)
    assert not oracle_is_cheaper((1,) * 10**5, 24)


def test_auto_rule_takes_the_oracle_near_consensus_at_theorem_h(round_paths):
    # round 1 of the theorem call: opinion 1 holds 83%, so every winning
    # count in its window is saturated and the DP has no t in full
    counts = (832_000,) + (11_200,) * 15
    plan = oracle.live_plan(THEOREM_H, np.array(counts) / 10**6)
    assert not plan.full and len(plan.saturated) > 5000
    assert oracle_is_cheaper(counts, THEOREM_H)
    run(Configuration.from_counts(counts),
        RunParams(h=THEOREM_H, max_rounds=1, stop_rule=STOP_MAX_ROUNDS, seed=9))
    assert round_paths == ["oracle_step"]


def test_auto_rule_does_not_depend_on_thread_count(monkeypatch):
    points = [(n, h, _grid_counts(n, k, live))
              for n in (10**4, 10**5, 10**6) for h in (3, 8, 24, 64, 200)
              for k, live in ((16, 16), (16, 4), (64, 8))]
    picks = []
    for threads in (1, 2):
        monkeypatch.setattr(sampler, "MAX_THREADS", threads)
        picks.append([oracle_is_cheaper(counts, h) for n, h, counts in points])
    assert picks[0] == picks[1]
    assert any(picks[0]) and not all(picks[0])


def test_auto_rule_counts_live_opinions_only(round_paths):
    # 62 dead opinions: the DP over 64 opinions costs more than the agents'
    # ids, the DP over the 2 live ones less
    assert not oracle_is_cheaper(_grid_counts(10**4, 64, 64), 3)
    assert oracle_is_cheaper(_grid_counts(10**4, 64, 2), 3)
    run(Configuration.from_counts([5000, 5000] + [0] * 62),
        RunParams(h=3, max_rounds=1, stop_rule=STOP_MAX_ROUNDS, seed=3))
    assert round_paths == ["oracle_step"]


def test_auto_trajectory_does_not_depend_on_thread_count(monkeypatch, round_paths):
    # n = 20 000 > SUB_BLOCK_ROWS at k = 3 <= h = 128: the first round is a
    # chain call of two sub-blocks; once opinion 3 dies the oracle is cheaper
    docs = []
    for threads in (1, 2):
        monkeypatch.setattr(sampler, "MAX_THREADS", threads)
        traj = run(Configuration.from_counts((9500, 9400, 1100)),
                   RunParams(h=128, max_rounds=50, seed=7))
        docs.append(json.dumps(asdict(traj)))
    assert round_paths == ["step", "oracle_step", "oracle_step"] * 2
    assert docs[0] == docs[1]


def test_auto_sweep_records_do_not_depend_on_worker_count(round_paths):
    # from a balanced start at h = 3, k = 32 the agents are cheaper until
    # the live opinions collapse below 17
    spec = SweepSpec(ns=(10**4,), ks=(32,), hs=(3,), bias_multiplier=0.0,
                     trials=2, master_seed=8, max_rounds=2000)
    lines = [r.to_json_line() for r in run_sweep(spec, workers=1)]
    assert set(round_paths) == {"step", "oracle_step"}
    assert all('"status":"consensus"' in line for line in lines)
    assert [r.to_json_line() for r in run_sweep(spec, workers=2)] == lines
