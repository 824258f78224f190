import numpy as np
import pytest
from hypothesis import given, strategies as st

from hmajority import core
from hmajority.core import (
    Configuration,
    EmptySystemError,
    FieldError,
    SumMismatchError,
    bias_stats,
    is_consensus,
    validate,
)
from hmajority.dynamics import STOP_MAX_ROUNDS, RunParams, oracle_step, run, step
from hmajority.montecarlo import (
    SweepSpec,
    SweepSpecError,
    rare_outsample_audit,
    sample_win_events,
)
from hmajority.oracle import (
    InvalidQError,
    NegativeHError,
    binomial_pair_report,
    event_report,
    win_distribution,
)
from hmajority.sampler import (
    InvalidProbError,
    RngHandle,
    sample_chain_modes,
    sample_counts_matrix,
    sample_draw_chunks,
)


def test_validate_ok():
    validate(Configuration(counts=(3, 2), n=5))


def test_validate_sum_mismatch():
    with pytest.raises(SumMismatchError):
        validate(Configuration(counts=(3, 2), n=6))


def test_validate_empty_system():
    with pytest.raises(EmptySystemError):
        validate(Configuration(counts=(), n=0))


def test_validate_negative_count():
    with pytest.raises(SumMismatchError):
        validate(Configuration(counts=(6, -1), n=5))


@pytest.mark.parametrize("p", [
    (float("nan"), 1.0),
    (0.5, float("nan"), 0.5),
    (float("inf"), 1.0),
])
def test_coerce_probs_rejects_non_finite(p):
    with pytest.raises(SumMismatchError, match="non-finite"):
        core.coerce_probs(p)


def test_bias_stats_basic():
    b = bias_stats(Configuration(counts=(600, 400), n=1000))
    assert b.plurality_opinion == 1
    assert b.additive_bias == 200
    assert b.normalized_bias == 0.2


def test_bias_stats_tied():
    b = bias_stats(Configuration(counts=(5, 5, 0), n=10))
    assert b.plurality_opinion is None
    assert b.additive_bias == 0
    assert b.normalized_bias == 0.0


def test_bias_stats_close_race():
    b = bias_stats(Configuration(counts=(4, 3, 3), n=10))
    assert b.plurality_opinion == 1
    assert b.additive_bias == 1
    assert b.normalized_bias == 0.1


def test_bias_stats_single_opinion():
    # vacuous pairwise minimum: defined as full bias so stopping rules stay total
    b = bias_stats(Configuration(counts=(7,), n=7))
    assert b.plurality_opinion == 1
    assert b.additive_bias == 7
    assert b.normalized_bias == 1.0


def test_is_consensus():
    assert is_consensus(Configuration(counts=(0, 7, 0), n=7)) == 2
    assert is_consensus(Configuration(counts=(6, 1, 0), n=7)) is None
    assert is_consensus(Configuration(counts=(1,), n=1)) == 1


@pytest.mark.parametrize(
    "counts, n, error",
    [((3, 2), 6, SumMismatchError), ((6, -1), 5, SumMismatchError),
     ((), 0, EmptySystemError)],
)
def test_configuration_is_valid_by_construction(counts, n, error):
    with pytest.raises(error):
        Configuration(counts=counts, n=n)


def test_run_validates_once_per_configuration(monkeypatch):
    # each configuration checks itself when built; nothing checks it again
    calls = []
    real = core.validate
    monkeypatch.setattr(core, "validate", lambda cfg: calls.append(cfg) or real(cfg))
    rounds = 20
    config0 = Configuration.from_counts((40, 30, 30))
    run(config0, RunParams(h=3, max_rounds=rounds, stop_rule=STOP_MAX_ROUNDS, seed=5))
    assert 1 <= len(calls) <= rounds + 1, len(calls)
    assert len({id(cfg) for cfg in calls}) == len(calls)


def test_from_counts_validates():
    cfg = Configuration.from_counts([2, 3])
    assert cfg.n == 5 and cfg.k == 2
    with pytest.raises(SumMismatchError):
        Configuration.from_counts([2, -3])
    # integers are read, not truncated: numpy integers and 2.0 are counts
    cfg = Configuration.from_counts(np.array([2.0, 3.0]))
    assert Configuration.from_counts([np.int64(2), 3e0]) == cfg
    assert all(type(c) is int for c in (*cfg.counts, cfg.n))
    for counts in ([True, 3], [2, "3"], "23", [[2], 3], [2.5, 3], 5, [2, None]):
        with pytest.raises(FieldError, match="counts"):
            Configuration.from_counts(counts)


counts_strategy = st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=8).filter(
    lambda c: sum(c) > 0
)


@given(counts_strategy)
def test_bias_is_ratio_of_integers(counts):
    cfg = Configuration.from_counts(counts)
    b = bias_stats(cfg)
    assert 0.0 <= b.normalized_bias <= 1.0
    assert b.normalized_bias == b.additive_bias / cfg.n


@given(counts_strategy)
def test_bias_zero_iff_tied(counts):
    cfg = Configuration.from_counts(counts)
    b = bias_stats(cfg)
    if cfg.k > 1:
        assert (b.additive_bias == 0) == (b.plurality_opinion is None)


@given(counts_strategy, st.randoms(use_true_random=False))
def test_bias_stats_permutation_equivariant(counts, pyrandom):
    cfg = Configuration.from_counts(counts)
    b = bias_stats(cfg)
    perm = list(range(cfg.k))
    pyrandom.shuffle(perm)
    permuted = Configuration.from_counts([counts[i] for i in perm])
    bp = bias_stats(permuted)
    assert bp.additive_bias == b.additive_bias
    if b.plurality_opinion is not None and cfg.counts.count(max(cfg.counts)) == 1:
        assert permuted.counts[bp.plurality_opinion - 1] == cfg.counts[b.plurality_opinion - 1]


@given(counts_strategy)
def test_consensus_implies_full_count(counts):
    cfg = Configuration.from_counts(counts)
    winner = is_consensus(cfg)
    if winner is not None:
        assert cfg.counts[winner - 1] == cfg.n


_PAIR = (0.5, 0.5)
_AUDIT_CONFIG = Configuration.from_counts((48, 20, 20, 12))

# every size argument checked by require_integer(..., minimum=): the call
# with the argument set to v, the caller's error class and the minimum
_SIZE_ARGUMENTS = {
    "RunParams h": (lambda v: RunParams(h=v, max_rounds=5), ValueError, 1),
    "RunParams max_rounds": (lambda v: RunParams(h=3, max_rounds=v), ValueError, 1),
    "step h": (
        lambda v: step(Configuration.from_counts((6, 4)), v, RngHandle(1)),
        ValueError, 1),
    "oracle_step h": (
        lambda v: oracle_step(Configuration.from_counts((6, 4)), v, RngHandle(1)),
        ValueError, 1),
    "sample_counts_matrix h": (
        lambda v: sample_counts_matrix(v, _PAIR, RngHandle(1), 3), InvalidProbError, 0),
    "sample_counts_matrix rows": (
        lambda v: sample_counts_matrix(5, _PAIR, RngHandle(1), v), InvalidProbError, 0),
    "sample_chain_modes h": (
        lambda v: next(sample_chain_modes(v, _PAIR, RngHandle(1), 4)),
        InvalidProbError, 0),
    "sample_draw_chunks h": (
        lambda v: next(sample_draw_chunks(v, np.array([3, 3, 2, 2]), RngHandle(1), 10)),
        InvalidProbError, 0),
    "event_report h": (lambda v: event_report(v, _PAIR), NegativeHError, 0),
    "win_distribution h": (lambda v: win_distribution(v, _PAIR), NegativeHError, 0),
    "binomial_pair_report m": (
        lambda v: binomial_pair_report(v, 0.6), InvalidQError, 1),
    "sample_win_events trials": (
        lambda v: sample_win_events(3, _PAIR, v, RngHandle(1)), InvalidProbError, 0),
    "SweepSpec trials": (
        lambda v: SweepSpec(ns=(40,), ks=(2,), hs=(3,), trials=v), SweepSpecError, 1),
    "SweepSpec max_rounds": (
        lambda v: SweepSpec(ns=(40,), ks=(2,), hs=(3,), max_rounds=v),
        SweepSpecError, 1),
    "rare_outsample_audit rounds": (
        lambda v: rare_outsample_audit(_AUDIT_CONFIG, 3, v, 1, h=5), SweepSpecError, 1),
    "rare_outsample_audit h": (
        lambda v: rare_outsample_audit(_AUDIT_CONFIG, 3, 2, 1, h=v), SweepSpecError, 1),
}


@pytest.mark.parametrize("site", list(_SIZE_ARGUMENTS))
def test_size_argument_below_its_minimum_names_it(site):
    call, error, minimum = _SIZE_ARGUMENTS[site]
    name = site.split()[-1]
    message = f"^{name} must be >= {minimum}, got {minimum - 1}$"
    with pytest.raises(error, match=message):
        call(minimum - 1)


@pytest.mark.parametrize("site", [
    "sample_counts_matrix rows",
    "rare_outsample_audit rounds",
    "binomial_pair_report m",
])
def test_size_argument_must_be_an_integer(site):
    # 2.5 used to reach range or numpy and fail there with a TypeError, or
    # with a broadcasting ValueError in binomial_pair_report
    call, error, _ = _SIZE_ARGUMENTS[site]
    name = site.split()[-1]
    with pytest.raises(error, match=f"^'{name}' must be an integer, got 2.5$"):
        call(2.5)


def test_rare_opinion_must_be_an_integer():
    # 2.5 used to index the counts tuple and fail with a TypeError
    with pytest.raises(SweepSpecError, match="^'rare_opinion' must be an integer"):
        rare_outsample_audit(_AUDIT_CONFIG, 2.5, 2, 1, h=5)


def test_require_integer_minimum_checks_after_the_type():
    core.require_integer(0, "x", minimum=0)
    core.require_integer(None, "x", optional=True, minimum=1)
    with pytest.raises(FieldError, match="^x must be >= 1, got 0$"):
        core.require_integer(0, "x", minimum=1)
    with pytest.raises(FieldError, match="must be an integer"):
        core.require_integer(True, "x", minimum=0)
