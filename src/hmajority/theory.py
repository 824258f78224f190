"""Closed-form bounds and thresholds, plus machine-checkable verdicts.

Every bound, threshold and regime rule has its one implementation here, and
the other modules read them from it. The bounds live in BOUND_CATALOG under
a stable name:

    lemma9_lower(m, delta)            sqrt(2m/pi) * g(delta, m)
    reduction_lower(m, q, c1)         c1 * min(sqrt(m) * (2q - 1), 1)
    w1_lower(p1)                      p1 / 3
    strict_vs_ties_lower()            1/6
    strict_pair_lower(p1, p2)         (p1 + p2) / 36
    cond_diff_lower(p1, p2, h, c)     c * min((p1-p2) sqrt(h) / sqrt(2(p1+p2)), 1)
    uncond_diff_lower(delta_j, h, p1, p2, c5)
                                      c5 (p1+p2) min(delta_j sqrt(h/(2(p1+p2))), 1)
    ratio_regime_lower(q_j, c6)       q_j / (1 - c6)
    bias_threshold(p1, n, lam1)       lam1 * sqrt(p1 / n)
    h_threshold(p1, n, c4)            c4 * ln(n) / p1
    weak_opinion_c4(c2, c3)           (3 c3 / (1 - c2))^2

Defaults are C2 = 1/2, C3 = 3 (hence C4 = 324) and C6 = 0.05; all
overridable. Natural logarithm is used wherever a threshold says "log n".
Verdicts compare exact measurements at absolute tolerance 1e-12 and
interval estimates with the three-valued rule (pass / fail / inconclusive
when the interval straddles the bound).
"""

from __future__ import annotations

import math
from typing import Callable

from .core import Configuration, HMajorityError, coerce_probs, require_sorted
from .oracle import ABS_TOL, g_function


class UnknownBoundError(HMajorityError, KeyError):
    """No bound with that name in the catalog."""


class UnclassifiedOpinionError(HMajorityError, ValueError):
    """An opinion fits none of the growth-audit classes."""


DEFAULT_C2 = 0.5
DEFAULT_C3 = 3.0
DEFAULT_C6 = 0.05


def weak_opinion_c4(c2: float = DEFAULT_C2, c3: float = DEFAULT_C3) -> float:
    return (3.0 * c3 / (1.0 - c2)) ** 2


DEFAULT_C4 = weak_opinion_c4()  # 324 with the default constants


def lemma9_lower(m: int, delta: float) -> float:
    return math.sqrt(2.0 * m / math.pi) * g_function(delta, m)


def reduction_lower(m: int, q: float, c1: float) -> float:
    return c1 * min(math.sqrt(m) * (2.0 * q - 1.0), 1.0)


def w1_lower(p1: float) -> float:
    return p1 / 3.0


def strict_vs_ties_lower() -> float:
    return 1.0 / 6.0


def strict_pair_lower(p1: float, p2: float) -> float:
    return (p1 + p2) / 36.0


def cond_diff_lower(p1: float, p2: float, h: int, c: float) -> float:
    if p1 + p2 <= 0.0:
        return 0.0
    return c * min((p1 - p2) * math.sqrt(h) / math.sqrt(2.0 * (p1 + p2)), 1.0)


def uncond_diff_lower(delta_j: float, h: int, p1: float, p2: float, c5: float) -> float:
    if p1 + p2 <= 0.0:
        return 0.0
    return c5 * (p1 + p2) * min(delta_j * math.sqrt(h / (2.0 * (p1 + p2))), 1.0)


def ratio_regime_lower(q_j: float, c6: float = DEFAULT_C6) -> float:
    return q_j / (1.0 - c6)


def bias_threshold(p1: float, n: int, lam1: float) -> float:
    return lam1 * math.sqrt(p1 / n)


def h_threshold(p1: float, n: int, c4: float = DEFAULT_C4) -> float:
    return c4 * math.log(n) / p1


BOUND_CATALOG: dict[str, Callable[..., float]] = {
    "lemma9_lower": lemma9_lower,
    "reduction_lower": reduction_lower,
    "w1_lower": w1_lower,
    "strict_vs_ties_lower": strict_vs_ties_lower,
    "strict_pair_lower": strict_pair_lower,
    "cond_diff_lower": cond_diff_lower,
    "uncond_diff_lower": uncond_diff_lower,
    "ratio_regime_lower": ratio_regime_lower,
    "bias_threshold": bias_threshold,
    "h_threshold": h_threshold,
    "weak_opinion_c4": weak_opinion_c4,
}

VERDICT_PASS = "pass"
VERDICT_FAIL = "fail"
VERDICT_INCONCLUSIVE = "inconclusive"


def bound_value(bound: str, params: dict) -> float:
    if bound not in BOUND_CATALOG:
        raise UnknownBoundError(bound)
    return BOUND_CATALOG[bound](**params)


def verdict_vs_value(value, measured) -> str:
    """Three-valued comparison of a measurement against a lower bound.

    The bound is a float, or an interval (low, high) that holds it when it
    is itself estimated; a float is the one-point interval. Exact
    measurements pass when measured >= high - 1e-12. Interval estimates
    pass when the whole interval clears the bound's, fail when the whole
    interval is below it, and are inconclusive otherwise.
    """
    low, high = value if isinstance(value, tuple) else (value, value)
    m_low = getattr(measured, "wilson_low", None)
    m_high = getattr(measured, "wilson_high", None)
    if m_low is None or m_high is None:
        m = float(measured)
        return VERDICT_PASS if m >= high - ABS_TOL else VERDICT_FAIL
    if m_low >= high:
        return VERDICT_PASS
    if m_high < low:
        return VERDICT_FAIL
    return VERDICT_INCONCLUSIVE


def verdict(bound: str, params: dict, measured) -> str:
    """Compare a measured value or Estimate against a named catalog bound."""
    return verdict_vs_value(bound_value(bound, params), measured)


def verdict_report(bound: str, params: dict, measured) -> dict:
    """JSON-ready record of one verdict call."""
    value = bound_value(bound, params)
    v = verdict_vs_value(value, measured)
    low = getattr(measured, "wilson_low", None)
    measured_out = (
        {"point": measured.point, "wilson_low": measured.wilson_low,
         "wilson_high": measured.wilson_high}
        if low is not None
        else float(measured)
    )
    return {
        "bound": bound,
        "params": params,
        "measured": measured_out,
        "bound_value": value,
        "verdict": v,
    }


CLASS_GAP_GREW = "additive_gap_grew"
CLASS_RATIO_SHRANK = "ratio_shrank"
CLASS_VANISHED = "vanished"

# Class predicates on (c(1), c'(1), c(j), c'(j)), in the precedence order
# classify_opinions assigns them.
_CLASS_PREDICATES = {
    CLASS_VANISHED: lambda c1, c1p, cj, cjp: cjp == 0 and cj > 0,
    CLASS_GAP_GREW: lambda c1, c1p, cj, cjp: (c1p - cjp) > (c1 - cj),
    CLASS_RATIO_SHRANK: lambda c1, c1p, cj, cjp: (
        c1 > 0 and c1p > 0 and cjp * c1 < cj * c1p
    ),
}


def classify_opinions(
    before: Configuration, after: Configuration
) -> dict[int, str]:
    """Partition every opinion j != 1 into the growth-audit classes.

    For each j: "additive_gap_grew" when c'(1) - c'(j) > c(1) - c(j),
    "ratio_shrank" when c'(j)/c'(1) < c(j)/c(1), "vanished" when a
    previously supported opinion dropped to zero. Opinion 1 must hold a
    maximum of the before configuration. Raises UnclassifiedOpinionError
    when some opinion satisfies none, in which case the growth claim's
    hypotheses do not hold.
    """
    if before.k != after.k or before.n != after.n:
        raise UnclassifiedOpinionError("configurations must share n and k")
    if before.k < 2:
        raise UnclassifiedOpinionError("the partition needs at least one rival")
    if before.counts[0] < max(before.counts):
        raise UnclassifiedOpinionError("opinion 1 is not a plurality opinion")
    c1, c1p = before.counts[0], after.counts[0]
    rivals = zip(before.counts[1:], after.counts[1:])
    out: dict[int, str] = {}
    for j, (cj, cjp) in enumerate(rivals, start=2):
        label = next((c for c, pred in _CLASS_PREDICATES.items()
                      if pred(c1, c1p, cj, cjp)), None)
        if label is None:
            raise UnclassifiedOpinionError(
                f"opinion {j} fits no class: before={cj}, after={cjp}"
            )
        out[j] = label
    return out


def p1_growth_audit(before: Configuration, after: Configuration) -> str:
    """Check that the support of opinion 1 strictly grew.

    Requires every opinion j != 1 to fall into one of the three classes.
    Returns "pass" when p'(1) > p(1), "fail" otherwise.
    """
    classify_opinions(before, after)  # raises unless every rival has a class
    p1_before = before.counts[0] / before.n
    p1_after = after.counts[0] / after.n
    return VERDICT_PASS if p1_after > p1_before else VERDICT_FAIL


REGIME_SMALL = "small_bias"
REGIME_MID = "mid_bias"
REGIME_LARGE = "large_bias"


def small_bias_boundary(p1: float, p2: float, h: int) -> float:
    return math.sqrt(2.0 * (p1 + p2) / h)


def large_bias_boundary(p1: float, c6: float = DEFAULT_C6) -> float:
    return (1.0 - 1.0 / (1.0 + c6)) * p1


def bias_regime(
    delta: float, p1: float, p2: float, h: int, c6: float = DEFAULT_C6
) -> str:
    """The analysis regime of a gap delta below the leader's share p1.

    Boundary points go to the higher regime, and the large check takes
    precedence so the classification is monotone in delta.
    """
    if delta >= large_bias_boundary(p1, c6):
        return REGIME_LARGE
    if delta < small_bias_boundary(p1, p2, h):
        return REGIME_SMALL
    return REGIME_MID


def regime_classifier(p, h: int, j: int, c6: float = DEFAULT_C6) -> str:
    """The bias_regime of the gap delta(j) = p_1 - p_j, for p sorted in
    non-increasing order and a 1-based opinion id j >= 2."""
    probs = coerce_probs(p)
    if j < 2 or j > len(probs):
        raise UnclassifiedOpinionError(f"j must be in 2..k, got {j}")
    require_sorted(probs)
    return bias_regime(probs[0] - probs[j - 1], probs[0], probs[1], h, c6)
