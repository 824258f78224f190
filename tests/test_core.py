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
from hmajority.dynamics import STOP_MAX_ROUNDS, RunParams, run


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
