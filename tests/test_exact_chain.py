"""Whole runs against the exact multi-round law.

tests/oracles.consensus_chain solves the absorbing configuration chain for
the winner law and the law of the consensus round. run_sweep is run in both
pinned step modes on one instance of each agent-level sampling path: k > h
draws category ids and breaks ties among them, k <= h takes the binomial
chain. At these n the auto rule keeps every round on the agents, so auto
is checked with a rule that switches paths mid-run. The winner law is
checked with 0.999 Wilson intervals and the consensus round with a
chi-square test at alpha 1e-3.
"""

import functools
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chi2

from hmajority import dynamics
from hmajority.dynamics import STEP_AGENT, STEP_ORACLE
from hmajority.montecarlo import SweepSpec, run_sweep, wilson_interval

from oracles import consensus_chain

HORIZON = 200
ALPHA = 1e-3
MIN_EXPECTED = 5.0
CASES = {
    # k = 4 > h = 3: the draw-id path; all-distinct samples are 3-way ties
    "k4-h3": ((5, 4, 4, 3), 3),
    # k = 2 <= h = 3: the binomial-chain path
    "k2-h3": ((105, 95), 3),
}
RUNS = {STEP_AGENT: 1000, STEP_ORACLE: 500}
SEEDS = {
    ("k4-h3", STEP_AGENT): 61001, ("k4-h3", STEP_ORACLE): 61002,
    ("k2-h3", STEP_AGENT): 61003, ("k2-h3", STEP_ORACLE): 61004,
}


@functools.cache
def _exact_law(case):
    start, h = CASES[case]
    return consensus_chain(start, h, HORIZON)


def _merged_bins(expected):
    """Bin edges over rounds 0..HORIZON, merged left to right until each bin
    expects at least MIN_EXPECTED; a short last bin joins its neighbour."""
    edges = [0]
    acc = 0.0
    for r, e in enumerate(expected):
        acc += e
        if acc >= MIN_EXPECTED:
            edges.append(r + 1)
            acc = 0.0
    if edges[-1] != len(expected):
        if len(edges) > 1:
            edges.pop()
        edges.append(len(expected))
    return edges


def test_consensus_chain_reference_is_consistent():
    # at h = 2 the tie split makes q = p, so each count is a martingale and
    # opinion i wins with probability x_i / n
    win, expected, pmf = consensus_chain((7, 7, 6), 2, 4000)
    assert np.allclose(win, [0.35, 0.35, 0.30], rtol=0, atol=1e-12)
    assert abs(pmf.sum() - 1.0) < 1e-12
    rounds = np.arange(pmf.size)
    assert abs((rounds * pmf).sum() - expected) < 1e-9 * expected
    for case in CASES:
        win, expected, pmf = _exact_law(case)
        assert abs(sum(win) - 1.0) < 1e-12
        assert abs(pmf.sum() - 1.0) < 1e-12
        assert abs((np.arange(pmf.size) * pmf).sum() - expected) < 1e-9


@pytest.mark.parametrize("mode", [STEP_AGENT, STEP_ORACLE])
@pytest.mark.parametrize("case", sorted(CASES))
def test_run_sweep_matches_exact_chain(case, mode, pin_sweep_step_mode):
    pin_sweep_step_mode(mode)
    _check_sweep(case, mode, RUNS[mode], SEEDS[case, mode])


def test_auto_matches_exact_chain_across_a_switch(monkeypatch, round_paths):
    # the default step mode with a rule that leaves the agents once an
    # opinion dies: runs start on step's draw ids and end on oracle_step
    monkeypatch.setattr(dynamics, "oracle_is_cheaper",
                        lambda counts, h: 0 in counts)
    _check_sweep("k4-h3", "auto", 500, 61005)
    assert set(round_paths) == {"step", "oracle_step"}


def _check_sweep(case, mode, runs, seed):
    start, h = CASES[case]
    win, _, pmf = _exact_law(case)
    spec = SweepSpec(
        ns=(), ks=(), hs=(h,), pattern="custom", custom_counts=start,
        trials=runs, master_seed=seed, max_rounds=HORIZON,
    )
    records = list(run_sweep(spec))
    assert len(records) == runs
    assert all(r.status == "consensus" for r in records)

    winners = Counter(r.winner for r in records)
    for i, p in enumerate(win):
        low, high = wilson_interval(winners[i + 1], runs)
        assert low <= p <= high, (case, mode, i + 1, winners[i + 1], p)

    observed = np.bincount([r.consensus_round for r in records],
                           minlength=HORIZON + 1)
    edges = _merged_bins(runs * pmf)
    obs = np.add.reduceat(observed, edges[:-1])
    exp = np.add.reduceat(runs * pmf, edges[:-1])
    stat = ((obs - exp) ** 2 / exp).sum()
    assert len(exp) >= 4
    assert chi2.sf(stat, len(exp) - 1) > ALPHA, (case, mode, obs, exp)
