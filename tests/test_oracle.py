import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hmajority.cli import main
from hmajority.montecarlo import Estimate, sample_win_events
from hmajority.oracle import (
    DP_CELL_CAP,
    ENUMERATION_GUARD,
    InvalidQError,
    NotSortedError,
    TooLargeError,
    binomial_pair_report,
    conditional_sum_binomial_check,
    enumerate_outcomes,
    event_report,
    g_function,
    log_multinomial_pmf,
    multinomial_pmf,
    outcome_count,
    tie_map_audit,
    win_distribution,
)
from hmajority.core import SumMismatchError
from hmajority.sampler import RngHandle

from oracles import (
    exact_multinomial_pmf_fraction,
    naive_event_report,
    naive_pair_diffs,
    naive_win_distribution,
)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_enumerate_small_cases():
    assert list(enumerate_outcomes(2, 2)) == [(2, 0), (1, 1), (0, 2)]
    assert list(enumerate_outcomes(1, 3)) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_enumerate_counts_stars_and_bars():
    outcomes = list(enumerate_outcomes(4, 3))
    assert len(outcomes) == math.comb(6, 2) == 15
    assert len(set(outcomes)) == 15
    assert all(sum(x) == 4 for x in outcomes)


def test_enumerate_guard():
    with pytest.raises(TooLargeError):
        list(enumerate_outcomes(500, 10))


# k = 4 admits h <= 182: C(185, 3) * 4 = 4 152 880 cells, C(186, 3) * 4 =
# 4 220 960 cells
CAP_P = (0.4, 0.3, 0.2, 0.1)


def test_outcome_table_cap_sits_between_h182_and_h183():
    assert outcome_count(182, 4) * 4 <= ENUMERATION_GUARD < outcome_count(183, 4) * 4


@pytest.mark.parametrize(
    "call",
    [
        lambda: event_report(183, CAP_P),
        lambda: tie_map_audit(183, CAP_P),
        lambda: enumerate_outcomes(183, 4),
    ],
    ids=["event_report", "tie_map_audit", "enumerate_outcomes"],
)
def test_outcome_table_cap_raises_before_allocating(call):
    tracemalloc.start()
    try:
        with pytest.raises(TooLargeError, match=str(ENUMERATION_GUARD)):
            call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_oracle_cli_event_report_above_cap_exits_2(capsys):
    p = ",".join(repr(v) for v in CAP_P)
    assert main(["oracle", "--h", "183", "--p", p, "--report", "event"]) == 2
    assert str(ENUMERATION_GUARD) in capsys.readouterr().err


@given(st.integers(min_value=0, max_value=7), st.integers(min_value=1, max_value=4))
@settings(max_examples=60, deadline=None)
def test_enumerate_complete_and_unique(h, k):
    outcomes = list(enumerate_outcomes(h, k))
    assert len(outcomes) == outcome_count(h, k)
    assert len(set(outcomes)) == len(outcomes)


# ---------------------------------------------------------------------------
# pmf
# ---------------------------------------------------------------------------


def test_pmf_point_mass():
    assert multinomial_pmf((2, 0), 2, (1.0, 0.0)) == 1.0
    assert multinomial_pmf((1, 1), 2, (1.0, 0.0)) == 0.0


def test_pmf_fair_coin():
    assert abs(multinomial_pmf((1, 1), 2, (0.5, 0.5)) - 0.5) < 1e-15


def test_pmf_two_draws_uniform():
    assert abs(multinomial_pmf((1, 1, 0), 2, (1 / 3, 1 / 3, 1 / 3)) - 2 / 9) < 1e-14


def test_pmf_sum_mismatch():
    with pytest.raises(SumMismatchError):
        multinomial_pmf((1, 2), 2, (0.5, 0.5))


def test_pmf_against_fraction_arithmetic():
    fracs = (Fraction(1, 2), Fraction(3, 10), Fraction(1, 5))
    probs = tuple(float(f) for f in fracs)
    for x in enumerate_outcomes(5, 3):
        exact = float(exact_multinomial_pmf_fraction(x, 5, fracs))
        assert abs(multinomial_pmf(x, 5, probs) - exact) < 1e-13


def test_pmf_sums_to_one():
    for h, probs in [(6, (0.5, 0.3, 0.2)), (4, (0.7, 0.3)), (3, (0.4, 0.3, 0.2, 0.1))]:
        total = sum(multinomial_pmf(x, h, probs) for x in enumerate_outcomes(h, len(probs)))
        assert abs(total - 1.0) < 1e-12


def test_log_pmf_impossible():
    assert log_multinomial_pmf((0, 3), 3, (1.0, 0.0)) == -math.inf


# ---------------------------------------------------------------------------
# win distribution
# ---------------------------------------------------------------------------


def test_win_distribution_symmetric():
    w = win_distribution(2, (1 / 3, 1 / 3, 1 / 3))
    for qi in w.q:
        assert abs(qi - 1 / 3) < 1e-12
    assert abs(w.q_strict[0] - 1 / 9) < 1e-12
    assert abs(w.q_ties[0] - 5 / 9) < 1e-12


def test_win_distribution_binomial_case():
    w = win_distribution(3, (0.6, 0.4))
    assert abs(w.q[0] - 0.648) < 1e-12
    assert abs(w.q[1] - 0.352) < 1e-12


def test_win_distribution_invariants_on_grid():
    grids = [(2, (0.5, 0.5)), (4, (0.5, 0.3, 0.2)), (5, (0.4, 0.3, 0.2, 0.1)), (1, (1.0,))]
    for h, probs in grids:
        w = win_distribution(h, probs)
        assert abs(sum(w.q) - 1.0) < 1e-12
        for qs, qi, qt in zip(w.q_strict, w.q, w.q_ties):
            assert qs <= qi + 1e-12
            assert qi <= qt + 1e-12
        assert abs(w.q_strict_pair_12 - (w.q_strict[0] + (w.q_strict[1] if w.k > 1 else 0.0))) < 1e-12


def _assert_matches_naive(h, probs):
    w = win_distribution(h, probs)
    q, q_strict, q_ties, pair = naive_win_distribution(h, probs)
    for fast, slow in ((w.q, q), (w.q_strict, q_strict), (w.q_ties, q_ties)):
        assert max(abs(a - b) for a, b in zip(fast, slow)) <= 1e-12
    assert abs(w.q_strict_pair_12 - pair) <= 1e-12


def test_win_distribution_matches_sequence_enumeration():
    # the criterion-1 grid, every field to 1e-12
    rng = np.random.default_rng(20240501)
    grid = [(h, k) for k in (2, 3, 4) for h in range(1, 7)]
    grid += [(h, 8) for h in range(1, 5)]
    for h, k in grid:
        for _ in range(3):
            _assert_matches_naive(h, tuple(float(v) for v in rng.dirichlet([1.0] * k)))


def test_win_distribution_zero_probs_match_naive_without_warnings():
    cases = [
        (0.5, 0.0, 0.5),
        (0.0, 0.3, 0.7, 0.0),
        (0.0, 0.0, 1.0),
        (0.25, 0.0, 0.25, 0.0, 0.2, 0.0, 0.3, 0.0),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for probs in cases:
            for h in range(1, 5 if len(probs) > 4 else 7):
                _assert_matches_naive(h, probs)
                w = win_distribution(h, probs)
                for i, v in enumerate(probs):
                    if v == 0.0:
                        assert w.q[i] == w.q_strict[i] == w.q_ties[i] == 0.0


def test_win_distribution_degenerate_sizes_exact():
    # the values the outcome enumeration returned: h = 0 is one all-zero
    # outcome, every opinion tied; k = 1 draws h of its one opinion
    third = 1.0 / 3.0
    w = win_distribution(0, (0.5, 0.3, 0.2))
    assert (w.q, w.q_strict, w.q_ties) == ((third,) * 3, (0.0,) * 3, (1.0,) * 3)
    assert w.q_strict_pair_12 == 0.0
    w = win_distribution(0, (0.0, 1.0, 0.0))
    assert (w.q, w.q_strict, w.q_ties) == ((third,) * 3, (0.0,) * 3, (1.0,) * 3)
    for h in (0, 1, 7):
        w = win_distribution(h, (1.0,))
        assert (w.q, w.q_strict, w.q_ties, w.q_strict_pair_12) == ((1.0,),) * 3 + (1.0,)
    w = win_distribution(4, (0.0, 1.0, 0.0))
    assert (w.q, w.q_strict, w.q_ties) == ((0.0, 1.0, 0.0),) * 3
    assert w.q_strict_pair_12 == 1.0


# ---------------------------------------------------------------------------
# win distribution beyond the enumeration guard
# ---------------------------------------------------------------------------

# h = 30, k = 16: C(45, 15) ~ 3.4e11 outcomes, above ENUMERATION_GUARD
LARGE_H = 30
LARGE_P = (0.16,) + (0.056,) * 15


def test_win_distribution_large_instance_is_a_law():
    assert outcome_count(LARGE_H, len(LARGE_P)) > 10**11
    w = win_distribution(LARGE_H, LARGE_P)
    assert abs(sum(w.q) - 1.0) <= 1e-12
    for qs, qi, qt in zip(w.q_strict, w.q, w.q_ties):
        assert qs <= qi + 1e-15
        assert qi <= qt + 1e-15
    # equal probabilities, equal adoption
    assert max(w.q[1:]) - min(w.q[1:]) <= 1e-12
    assert w.q[0] > w.q[1]


def test_win_distribution_large_instance_permutation_equivariant():
    rng = np.random.default_rng(7)
    probs = tuple(float(v) for v in rng.dirichlet([1.0] * 16))
    perm = rng.permutation(16)
    w = win_distribution(LARGE_H, probs)
    w_perm = win_distribution(LARGE_H, tuple(probs[i] for i in perm))
    for field in ("q", "q_strict", "q_ties"):
        a = np.array(getattr(w, field))[perm]
        assert np.max(np.abs(a - getattr(w_perm, field))) <= 1e-12


def test_win_distribution_large_instance_matches_monte_carlo():
    trials = 200_000
    w = win_distribution(LARGE_H, LARGE_P)
    counts = sample_win_events(LARGE_H, LARGE_P, trials, RngHandle(31))
    for qi, wins in zip(w.q, counts.win):
        est = Estimate.from_counts(wins, trials)
        assert est.wilson_low <= qi <= est.wilson_high
    strict_1 = Estimate.from_counts(counts.strict_1, trials)
    ties_1 = Estimate.from_counts(counts.ties_1, trials)
    assert strict_1.wilson_low <= w.q_strict[0] <= strict_1.wilson_high
    assert ties_1.wilson_low <= w.q_ties[0] <= ties_1.wilson_high


def test_oracle_cli_win_report_large_instance(capsys):
    p = ",".join(repr(v) for v in LARGE_P)
    assert main(["oracle", "--h", str(LARGE_H), "--p", p, "--report", "win"]) == 0
    assert '"q_strict_pair_12"' in capsys.readouterr().out


def test_win_distribution_cap_raises_before_allocating():
    k = 2000
    tracemalloc.start()
    try:
        with pytest.raises(TooLargeError, match=str(DP_CELL_CAP)):
            win_distribution(2000, (1.0 / k,) * k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# ---------------------------------------------------------------------------
# event report
# ---------------------------------------------------------------------------


def test_event_report_symmetric_pair():
    report = event_report(2, (0.5, 0.5))
    assert report.cond_diff_majority == 0.0
    assert report.cond_diff_comparison == 0.0


def test_event_report_requires_sorted():
    with pytest.raises(NotSortedError):
        event_report(2, (0.3, 0.7))


def test_event_report_equality_and_dominance_mini_grid():
    for h in range(1, 6):
        for probs in [(0.5, 0.3, 0.2), (0.4, 0.4, 0.2), (0.6, 0.4), (0.7, 0.2, 0.1)]:
            report = event_report(h, probs)
            assert abs(report.cond_diff_majority - report.cond_diff_comparison) <= 1e-12
            assert report.sum_tail_conditional >= report.sum_tail_unconditional - 1e-12


def test_event_report_sets():
    report = event_report(2, (0.5, 0.3, 0.1, 0.1), rare_x=0.25)
    assert report.rare_set == (3, 4)  # p_i <= p_1/4
    assert report.strong_set == (1, 2)  # p_i > p_1/2


def test_event_report_unconditional_diff_matches_win_distribution():
    probs = (0.5, 0.3, 0.2)
    report = event_report(4, probs)
    w = win_distribution(4, probs)
    assert abs(report.unconditional_diff - (w.q[0] - w.q[1])) < 1e-12
    assert abs(report.strict_pair_prob - w.q_strict_pair_12) < 1e-12


def test_conditional_sum_reduction_identity():
    for h, probs in [(4, (0.5, 0.3, 0.2)), (5, (0.4, 0.3, 0.2, 0.1)), (6, (0.5, 0.5))]:
        assert conditional_sum_binomial_check(h, probs) < 1e-12


def _assert_event_reports_match_naive(h, probs):
    naive = naive_event_report(h, probs)
    report = event_report(h, probs)
    for field in (
        "cond_diff_majority", "cond_diff_comparison", "sum_tail_conditional",
        "sum_tail_unconditional", "sum_threshold", "strict_pair_prob",
        "unconditional_diff",
    ):
        assert abs(getattr(report, field) - naive[field]) <= 1e-12, field
    audit = tie_map_audit(h, probs)
    assert abs(audit.strict_prob - naive["strict_prob"]) <= 1e-12
    assert abs(audit.ties_prob - naive["ties_prob"]) <= 1e-12
    assert audit.domain_size == naive["domain_size"]


def test_event_report_and_tie_map_match_sequence_enumeration():
    rng = np.random.default_rng(20240502)
    grid = [(h, k) for k in (2, 3, 4) for h in range(1, 6 if k == 4 else 7)]
    for h, k in grid:
        for _ in range(3):
            probs = sorted(rng.dirichlet([1.0] * k), reverse=True)
            _assert_event_reports_match_naive(h, tuple(float(v) for v in probs))


def test_event_report_and_tie_map_with_zero_probs_match_sequence_enumeration():
    cases = [(1.0, 0.0), (0.6, 0.4, 0.0), (0.5, 0.5, 0.0), (1.0, 0.0, 0.0),
             (0.5, 0.3, 0.2, 0.0), (0.7, 0.3, 0.0, 0.0)]
    for probs in cases:
        for h in range(1, 6 if len(probs) == 4 else 7):
            _assert_event_reports_match_naive(h, probs)


def test_event_report_point_mass_pair():
    # the dropped impossible outcomes must not reach the counts
    _assert_event_reports_match_naive(2, (1.0, 0.0))
    report = event_report(2, (1.0, 0.0))
    assert report.strict_pair_prob == 1.0
    assert report.unconditional_diff == 1.0
    audit = tie_map_audit(2, (1.0, 0.0))
    assert (audit.domain_size, audit.applicable, audit.inapplicable) == (0, 0, 0)


# ---------------------------------------------------------------------------
# binomial pair report
# ---------------------------------------------------------------------------


def test_pair_report_single_draw():
    report = binomial_pair_report(1, 0.6)
    assert abs(report.diff_unconditional - 0.2) < 1e-12


def test_pair_report_three_draws():
    report = binomial_pair_report(3, 0.6)
    assert abs(report.diff_unconditional - 0.296) < 1e-12


def test_pair_report_conditional_table_m2():
    report = binomial_pair_report(2, 0.6)
    assert report.thresholds == (1, 2)
    assert abs(report.diff_given_max_ge[0] - 0.2) < 1e-12
    assert abs(report.diff_given_max_ge[1] - (0.36 - 0.16) / 0.52) < 1e-12
    assert report.diff_given_max_ge[1] >= report.diff_given_max_ge[0]


def test_pair_report_invalid_q():
    with pytest.raises(InvalidQError):
        binomial_pair_report(3, 0.5)
    with pytest.raises(InvalidQError):
        binomial_pair_report(3, 1.0)
    with pytest.raises(TooLargeError):
        binomial_pair_report(10**5, 0.6)


def test_pair_report_against_indicator_sums():
    for m in (2, 3, 4, 7, 10, 25):
        for q in (0.51, 0.6, 0.75, 0.9):
            report = binomial_pair_report(m, q)
            diff, thresholds, diffs = naive_pair_diffs(m, q)
            assert abs(report.diff_unconditional - diff) < 1e-10
            assert report.thresholds == tuple(thresholds)
            for a, b in zip(report.diff_given_max_ge, diffs):
                assert abs(a - b) < 1e-10


def test_pair_report_lowest_threshold_is_unconditional():
    for m in (3, 5, 9):
        report = binomial_pair_report(m, 0.7)
        assert abs(report.diff_given_max_ge[0] - report.diff_unconditional) < 1e-12


def test_lemma9_bound_holds_for_odd_m():
    # the tie-free case: the kernel bound is valid for every odd m
    for m in range(1, 120, 2):
        for delta in (0.01, 0.05, 0.2, 0.5, 0.9):
            report = binomial_pair_report(m, (1 + delta) / 2)
            assert report.diff_unconditional >= report.lemma9_bound - 1e-12


# ---------------------------------------------------------------------------
# g function
# ---------------------------------------------------------------------------


def test_g_zero():
    for h in (1, 2, 5, 50):
        assert g_function(0.0, h) == 0.0


def test_g_identity_at_single_draw():
    for delta in (0.1, 0.5, 0.99):
        assert g_function(delta, 1) == delta


def test_g_flat_branch_value():
    expected = 0.5 * 0.75**1.5
    assert abs(g_function(0.9, 4) - expected) < 1e-12
    assert abs(expected - 0.324760) < 1e-6


def test_g_domain():
    with pytest.raises(ValueError):
        g_function(-0.1, 3)
    with pytest.raises(ValueError):
        g_function(0.5, 0)


# ---------------------------------------------------------------------------
# tie map audit
# ---------------------------------------------------------------------------


def test_tie_map_single_opinion_has_no_ties():
    audit = tie_map_audit(3, (1.0,))
    assert audit.domain_size == 0
    assert audit.applicable == 0
    assert audit.outcomes == ()


def test_tie_map_uniform_two_draws():
    # T_1 = {(1,1,0), (1,0,1)}; the min-count strong donor has zero samples
    # in both outcomes, so the literal map applies nowhere
    audit = tie_map_audit(2, (1 / 3, 1 / 3, 1 / 3))
    assert audit.domain_size == 2
    assert audit.applicable == 0
    assert audit.inapplicable == 2
    assert audit.injective  # vacuously on the empty applicable domain


def test_tie_map_ratio_identity():
    for h, probs in [(5, (0.5, 0.3, 0.2)), (6, (0.4, 0.4, 0.2)), (4, (0.5, 0.5))]:
        audit = tie_map_audit(h, probs)
        assert audit.applicable > 0
        assert audit.max_ratio_error <= 1e-12
        for outcome in audit.outcomes:
            if outcome.image is None:
                continue
            assert sum(outcome.image) == h
            assert min(outcome.image) >= 0
            # the image is always a strict win for opinion 1
            assert outcome.image[0] > max(outcome.image[1:])


def test_tie_map_aggregate_matches_win_distribution():
    probs = (0.5, 0.3, 0.2)
    audit = tie_map_audit(5, probs)
    w = win_distribution(5, probs)
    assert abs(audit.strict_prob - w.q_strict[0]) < 1e-12
    assert abs(audit.ties_prob - w.q_ties[0]) < 1e-12
    assert audit.strict_ties_ratio == pytest.approx(w.q_strict[0] / w.q_ties[0])
