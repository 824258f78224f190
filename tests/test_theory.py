import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hmajority import theory
from hmajority.core import Configuration
from hmajority.montecarlo import (
    Estimate,
    SweepSpec,
    check_w1_lower_bound,
    rare_outsample_audit,
)
from hmajority.theory import (
    BOUND_CATALOG,
    DEFAULT_C4,
    REGIME_LARGE,
    REGIME_MID,
    REGIME_SMALL,
    VERDICT_PASS,
    UnclassifiedOpinionError,
    UnknownBoundError,
    classify_opinions,
    large_bias_boundary,
    lemma9_lower,
    p1_growth_audit,
    regime_classifier,
    small_bias_boundary,
    verdict,
    weak_opinion_c4,
)
from hmajority.oracle import g_function
from hmajority.verify import _near_uniform, suite_bounds, suite_lemma9


def test_lemma9_lower_single_draw():
    assert lemma9_lower(1, 0.2) == pytest.approx(math.sqrt(2 / math.pi) * 0.2)
    assert lemma9_lower(1, 0.2) == pytest.approx(0.159577, abs=1e-6)


def test_weak_opinion_constant_instantiation():
    assert weak_opinion_c4(0.5, 3.0) == pytest.approx(324.0)
    assert DEFAULT_C4 == pytest.approx(324.0)


def test_catalog_is_total_on_examples():
    samples = {
        "lemma9_lower": {"m": 3, "delta": 0.5},
        "reduction_lower": {"m": 9, "q": 0.7, "c1": 0.1},
        "w1_lower": {"p1": 0.25},
        "strict_vs_ties_lower": {},
        "strict_pair_lower": {"p1": 0.3, "p2": 0.2},
        "cond_diff_lower": {"p1": 0.3, "p2": 0.2, "h": 5, "c": 0.1},
        "uncond_diff_lower": {"delta_j": 0.1, "h": 5, "p1": 0.3, "p2": 0.2, "c5": 0.1},
        "ratio_regime_lower": {"q_j": 0.2, "c6": 0.05},
        "bias_threshold": {"p1": 0.1, "n": 1000, "lam1": 10.0},
        "h_threshold": {"p1": 0.1, "n": 1000, "c4": 324.0},
        "weak_opinion_c4": {"c2": 0.5, "c3": 3.0},
    }
    assert set(samples) == set(BOUND_CATALOG)
    for name, params in samples.items():
        value = BOUND_CATALOG[name](**params)
        assert math.isfinite(value)


def test_verdict_exact_values():
    assert verdict("w1_lower", {"p1": 1.0}, 1.0) == "pass"
    assert verdict("w1_lower", {"p1": 0.9}, 0.1) == "fail"
    assert verdict("lemma9_lower", {"m": 1, "delta": 0.2}, 0.2) == "pass"


def test_verdict_interval_three_valued():
    passing = Estimate(point=0.5, trials=100, wilson_low=0.4, wilson_high=0.6)
    failing = Estimate(point=0.1, trials=100, wilson_low=0.05, wilson_high=0.15)
    straddle = Estimate(point=0.34, trials=100, wilson_low=0.30, wilson_high=0.40)
    assert verdict("w1_lower", {"p1": 0.9}, passing) == "pass"
    assert verdict("w1_lower", {"p1": 0.9}, failing) == "fail"
    assert verdict("w1_lower", {"p1": 0.99}, straddle) == "inconclusive"


def test_verdict_against_a_bound_interval():
    # an estimated bound is an interval; the measurement must clear all of
    # it to pass and fall below all of it to fail
    measured = Estimate(point=0.3, trials=100, wilson_low=0.25, wilson_high=0.35)
    assert theory.verdict_vs_value((0.1, 0.25), measured) == "pass"
    assert theory.verdict_vs_value((0.36, 0.5), measured) == "fail"
    assert theory.verdict_vs_value((0.2, 0.3), measured) == "inconclusive"
    assert theory.verdict_vs_value((0.3, 0.4), measured) == "inconclusive"
    # a float is the one-point interval
    assert theory.verdict_vs_value(0.25, measured) == "pass"
    assert theory.verdict_vs_value((0.25, 0.25), measured) == "pass"


def test_verdict_unknown_bound():
    with pytest.raises(UnknownBoundError):
        verdict("not_a_bound", {}, 1.0)


# ---------------------------------------------------------------------------
# growth audit
# ---------------------------------------------------------------------------


def test_growth_audit_consensus_after():
    before = Configuration.from_counts((5, 3, 2))
    after = Configuration.from_counts((10, 0, 0))
    labels = classify_opinions(before, after)
    assert set(labels) == {2, 3}
    assert p1_growth_audit(before, after) == "pass"


def test_growth_audit_identity_unclassified():
    cfg = Configuration.from_counts((5, 3, 2))
    with pytest.raises(UnclassifiedOpinionError):
        classify_opinions(cfg, cfg)


def test_growth_audit_requires_leading_first_opinion():
    before = Configuration.from_counts((2, 5, 3))
    after = Configuration.from_counts((10, 0, 0))
    with pytest.raises(UnclassifiedOpinionError):
        classify_opinions(before, after)


@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=6, max_value=30),
    st.randoms(use_true_random=False),
)
@settings(max_examples=300, deadline=None)
def test_growth_audit_randomized(k, n, pyrandom):
    before = [0] * k
    after = [0] * k
    for _ in range(n):
        before[pyrandom.randrange(k)] += 1
        after[pyrandom.randrange(k)] += 1
    if before[0] < max(before):
        return
    before_cfg = Configuration.from_counts(before)
    after_cfg = Configuration.from_counts(after)
    try:
        classify_opinions(before_cfg, after_cfg)
    except UnclassifiedOpinionError:
        return
    # whenever the partition exists the leader's share strictly grew
    assert p1_growth_audit(before_cfg, after_cfg) == "pass"


# ---------------------------------------------------------------------------
# regime classifier
# ---------------------------------------------------------------------------


def _sorted_config(probs):
    return tuple(probs)


def test_regime_zero_gap_is_small():
    p = _sorted_config((0.25, 0.25, 0.25, 0.25))
    assert regime_classifier(p, h=100, j=2) == REGIME_SMALL


def test_regime_absent_opinion_is_large():
    p = _sorted_config((0.6, 0.4, 0.0))
    assert regime_classifier(p, h=100, j=3) == REGIME_LARGE


def test_regime_matches_defining_inequalities():
    h = 50
    c6 = 0.05
    for gap in (0.0, 0.001, 0.01, 0.02, 0.05, 0.1, 0.2, 0.4):
        p1 = 0.5
        probs = (p1, p1 - gap, 1.0 - (2 * p1 - gap))
        if any(v < 0 for v in probs):
            continue
        ordered = tuple(sorted(probs, reverse=True))
        p = _sorted_config(ordered)
        label = regime_classifier(p, h=h, j=2, c6=c6)
        delta = ordered[0] - ordered[1]
        if delta >= large_bias_boundary(ordered[0], c6):
            assert label == REGIME_LARGE
        elif delta < small_bias_boundary(ordered[0], ordered[1], h):
            assert label == REGIME_SMALL
        else:
            assert label == REGIME_MID


def test_regime_between_the_boundaries_is_mid():
    # p = (0.5, 0.3), h = 1e4: the small boundary is 0.0126 and the large
    # one 0.0238, so a gap of 0.02 is mid and the gaps either side are not
    assert theory.bias_regime(0.02, 0.5, 0.3, 10**4) == REGIME_MID
    assert theory.bias_regime(0.01, 0.5, 0.3, 10**4) == REGIME_SMALL
    assert theory.bias_regime(0.03, 0.5, 0.3, 10**4) == REGIME_LARGE


def test_regime_monotone_in_gap():
    order = {REGIME_SMALL: 0, REGIME_MID: 1, REGIME_LARGE: 2}
    h = 200
    previous = -1
    for gap_milli in range(0, 300, 5):
        gap = gap_milli / 1000.0
        p1 = 0.35
        p2 = p1 - gap
        if p2 < 0:
            break
        rest = 1.0 - p1 - p2
        if rest < 0:
            break
        probs = (p1, p2, rest) if rest <= p2 else (p1, p2, 0.0)
        total = sum(probs)
        probs = tuple(v / total for v in probs)
        if probs[1] < probs[2]:
            continue
        label = regime_classifier(_sorted_config(probs), h=h, j=2)
        assert order[label] >= previous
        previous = order[label]


def test_g_function_branch_continuity():
    # the two branches agree at delta = 1/sqrt(h) up to (1-d^2) vs (1-1/h)
    for h in range(2, 51):
        boundary = 1.0 / math.sqrt(h)
        eps = 1e-9
        assert abs(g_function(boundary - eps, h) - g_function(boundary, h)) < 1e-9


# ---------------------------------------------------------------------------
# the catalog's users read it, not copies of it
# ---------------------------------------------------------------------------


def _stub(monkeypatch, name, stub):
    """Replace theory.<name> under every name the package holds it by: each
    module attribute and each module-level dict entry (BOUND_CATALOG)."""
    original = getattr(theory, name)
    modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "hmajority"]
    namespaces = [vars(m) for m in modules]
    namespaces += [v for ns in namespaces for v in ns.values() if isinstance(v, dict)]
    for ns in namespaces:
        for key, value in list(ns.items()):
            if value is original:
                monkeypatch.setitem(ns, key, stub)


def test_w1_check_follows_strict_vs_ties_lower(monkeypatch):
    def ratio_verdict():
        return check_w1_lower_bound(
            _near_uniform(4), n=20, c4=324.0, trials=2000, seed=3
        ).strict_vs_ties_verdict

    assert ratio_verdict() == VERDICT_PASS
    # strict wins are a subset of tie-inclusive wins: a ratio of 1 never passes
    _stub(monkeypatch, "strict_vs_ties_lower", lambda: 1.0)
    assert ratio_verdict() != VERDICT_PASS


def test_h_rule_users_follow_h_threshold(monkeypatch):
    _stub(monkeypatch, "h_threshold", lambda p1, n, c4=DEFAULT_C4: 2.5)
    report = check_w1_lower_bound((0.6, 0.4), n=20, c4=324.0, trials=100, seed=1)
    assert report.h == 3
    (cell,) = SweepSpec(ns=(40,), ks=(2,), h_rule_c4=1.0, bias_multiplier=1.0).cells()
    assert cell.h == 3
    cfg = Configuration.from_counts((48, 20, 20, 12))
    assert rare_outsample_audit(cfg, rare_opinion=4, rounds=1, seed=1).h == 3


def test_lemma9_suite_follows_lemma9_lower(monkeypatch):
    assert suite_lemma9(m_max=30).failure_count > 0
    _stub(monkeypatch, "lemma9_lower", lambda m, delta: np.zeros_like(delta))
    assert suite_lemma9(m_max=30).failure_count == 0


@pytest.mark.parametrize("name, stat", [
    ("reduction_lower", "C1_empirical"),
    ("cond_diff_lower", "C_ema_empirical"),
    ("uncond_diff_lower", "C5_empirical"),
])
def test_constant_searches_follow_their_base_bound(monkeypatch, name, stat):
    before = suite_bounds(trials=1000, seed=5).stats[stat]
    original = getattr(theory, name)
    _stub(monkeypatch, name, lambda *args, **kwargs: 0.5 * original(*args, **kwargs))
    assert suite_bounds(trials=1000, seed=5).stats[stat] == pytest.approx(2 * before)
