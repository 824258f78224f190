"""Grid-based verification suites behind the `verify` CLI subcommand.

Each suite turns one analytical statement into a machine-checkable sweep:

    lemma9               exact pair difference >= sqrt(2m/pi) g(delta, m)
    difference_equality  conditional adoption diff == conditional comparison diff
    monotonicity         conditional diffs non-decreasing in the max threshold
    dominance            conditional pair-sum tail >= unconditional tail
    tiemap               tie-removal map pmf-ratio identity (+ injectivity report)
    growth_claim         classified opinions imply the leader's share grew
    bounds               Monte Carlo lower-bound verdicts + empirical constants

Exact checks gate at absolute tolerance 1e-12; statistical checks gate only
on outright "fail" verdicts, with inconclusive intervals listed but allowed.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .core import Configuration
from .montecarlo import balanced_plus_bias_counts, check_w1_lower_bound
from .oracle import (
    ABS_TOL,
    binomial_pair_report,
    binomial_pair_table,
    event_report,
    tie_map_audit,
    win_distribution,
)
from .sampler import RngHandle
from .theory import (
    BOUND_CATALOG,
    DEFAULT_C4,
    VERDICT_FAIL,
    VERDICT_INCONCLUSIVE,
    VERDICT_PASS,
    UnclassifiedOpinionError,
    cond_diff_lower,
    lemma9_lower,
    p1_growth_audit,
    reduction_lower,
    strict_vs_ties_lower,
    uncond_diff_lower,
    verdict_report,
)

_MAX_LISTED_FAILURES = 20


@dataclass
class SuiteResult:
    name: str
    passed: bool
    checks: int
    failures: list[str] = field(default_factory=list)
    failure_count: int = 0
    inconclusive: list[str] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    def add_failure(self, message: str) -> None:
        self.failure_count += 1
        if len(self.failures) < _MAX_LISTED_FAILURES:
            self.failures.append(message)
        self.passed = False


def simplex_grid(k: int, denom: int = 20):
    """Non-increasing probability vectors with entries i/denom summing to 1."""

    def parts(total, slots, cap):
        if slots == 1:
            if total <= cap:
                yield (total,)
            return
        lo = math.ceil(total / slots)
        for first in range(min(cap, total), lo - 1, -1):
            for rest in parts(total - first, slots - 1, first):
                yield (first,) + rest

    for ints in parts(denom, k, denom):
        yield tuple(v / denom for v in ints)


def suite_lemma9(m_max: int = 200) -> SuiteResult:
    """Exact pair difference against the g-kernel lower bound on a full grid.

    The stats break violations down by the parity of m: for even m the tie
    outcome Y1 = Y2 = m/2 drains the comparison difference, and the printed
    inequality genuinely fails at small even m (already at m = 2 where the
    difference is exactly delta but the bound is ~1.128 delta). Odd m has no
    tie outcome and the full grid holds with margin.
    """
    deltas = np.arange(0.01, 1.0 - 1e-12, 0.01)
    qs = (1.0 + deltas) / 2.0
    result = SuiteResult(name="lemma9", passed=True, checks=0)
    min_margin = math.inf
    min_margin_odd = math.inf
    odd_violations = 0
    even_violations = 0
    even_violating_m: set[int] = set()
    for m in range(1, m_max + 1):
        diff, _, _ = binomial_pair_table(m, qs)
        bound = lemma9_lower(m, deltas)
        margins = diff - bound
        min_margin = min(min_margin, float(margins.min()))
        if m % 2 == 1:
            min_margin_odd = min(min_margin_odd, float(margins.min()))
        bad = np.nonzero(margins < -ABS_TOL)[0]
        for idx in bad:
            if m % 2 == 1:
                odd_violations += 1
            else:
                even_violations += 1
                even_violating_m.add(m)
            result.add_failure(
                f"m={m} delta={deltas[idx]:.2f}: diff={diff[idx]:.6g} "
                f"< bound={bound[idx]:.6g}"
            )
        result.checks += deltas.size
    result.stats["min_margin"] = min_margin
    result.stats["min_margin_odd_m"] = min_margin_odd
    result.stats["odd_m_violations"] = odd_violations
    result.stats["even_m_violations"] = even_violations
    result.stats["even_m_violating"] = sorted(even_violating_m)
    return result


def suite_monotonicity(m_min: int = 2, m_max: int = 100) -> SuiteResult:
    """Conditional comparison diffs must be non-decreasing in the threshold."""
    qs = np.arange(0.51, 0.995, 0.01)
    result = SuiteResult(name="monotonicity", passed=True, checks=0)
    worst = math.inf
    for m in range(m_min, m_max + 1):
        _, thresholds, table = binomial_pair_table(m, qs)
        steps = np.diff(table, axis=1)
        if steps.size:
            worst = min(worst, float(steps.min()))
            bad = np.argwhere(steps < -ABS_TOL)
            for qi, ti in bad:
                result.add_failure(
                    f"m={m} q={qs[qi]:.2f}: diff drops at threshold "
                    f"{thresholds[ti]} -> {thresholds[ti] + 1}"
                )
        result.checks += int(steps.size)
    result.stats["min_step"] = worst if worst < math.inf else 0.0
    return result


def _event_grid(hs, ks, denom: int):
    for k in ks:
        for p in simplex_grid(k, denom):
            for h in hs:
                yield h, k, p


def suite_difference_equality(
    hs=range(1, 8), ks=(2, 3, 4), denom: int = 20
) -> SuiteResult:
    """Adoption-probability diff equals comparison diff given a strict pair win."""
    result = SuiteResult(name="difference_equality", passed=True, checks=0)
    worst = 0.0
    for h, k, p in _event_grid(hs, ks, denom):
        report = event_report(h, p)
        err = abs(report.cond_diff_majority - report.cond_diff_comparison)
        worst = max(worst, err)
        if err > ABS_TOL:
            result.add_failure(f"h={h} k={k} p={p}: |maj-cmp|={err:.3e}")
        result.checks += 1
    result.stats["max_error"] = worst
    return result


def suite_dominance(hs=range(1, 8), ks=(2, 3, 4), denom: int = 20) -> SuiteResult:
    """Conditioning on a strict pair win cannot shrink the pair-sum tail."""
    result = SuiteResult(name="dominance", passed=True, checks=0)
    worst = math.inf
    for h, k, p in _event_grid(hs, ks, denom):
        report = event_report(h, p)
        margin = report.sum_tail_conditional - report.sum_tail_unconditional
        worst = min(worst, margin)
        if margin < -ABS_TOL:
            result.add_failure(f"h={h} k={k} p={p}: tail margin {margin:.3e}")
        result.checks += 1
    result.stats["min_margin"] = worst
    return result


def suite_tiemap() -> SuiteResult:
    """Pmf-ratio identity of the tie-removal map; injectivity reported.

    The exact gate is the algebraic identity Pr(f(X))/Pr(X) =
    x_j/(x_1+1) * p_1/p_j on every applicable outcome. Injectivity of the
    literal donor rule is recorded per instance but not gated: outcomes
    whose donor has no sample to give are inapplicable by construction.
    """
    result = SuiteResult(name="tiemap", passed=True, checks=0)
    worst = 0.0
    injective_all = True
    audited = 0
    applicable_total = 0
    for h, k, p in _event_grid(range(2, 7), (2, 3), 10):
        audit = tie_map_audit(h, p)
        audited += 1
        applicable_total += audit.applicable
        if audit.applicable:
            worst = max(worst, audit.max_ratio_error)
            if audit.max_ratio_error > ABS_TOL:
                result.add_failure(
                    f"h={h} k={k} p={p}: ratio error {audit.max_ratio_error:.3e}"
                )
        if not audit.injective:
            injective_all = False
        result.checks += max(audit.applicable, 1)
    result.stats["instances"] = audited
    result.stats["applicable_outcomes"] = applicable_total
    result.stats["max_ratio_error"] = worst
    result.stats["injective_on_all_instances"] = injective_all
    return result


def suite_growth_claim(seed: int = 7) -> SuiteResult:
    """Whenever every rival gap grew, ratio shrank, or rival vanished,
    the leading opinion's share must strictly increase."""
    result = SuiteResult(name="growth_claim", passed=True, checks=0)
    classified = 0

    def compositions(total, slots):
        if slots == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, slots - 1):
                yield (first,) + rest

    def check(before_counts, after_counts):
        nonlocal classified
        n = sum(before_counts)
        if n == 0 or before_counts[0] == 0 or max(before_counts) != before_counts[0]:
            return
        before = Configuration(counts=before_counts, n=n)
        after = Configuration(counts=after_counts, n=n)
        try:
            outcome = p1_growth_audit(before, after)
        except UnclassifiedOpinionError:
            return
        classified += 1
        result.checks += 1
        if outcome != "pass":
            result.add_failure(f"before={before_counts} after={after_counts}")

    # exhaustive over every pair of 3-opinion configurations with n = 6
    small = list(compositions(6, 3))
    for before_counts in small:
        for after_counts in small:
            check(before_counts, after_counts)

    rng = RngHandle(seed, stream_id=1).gen
    for _ in range(300):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(k, 40))
        before_counts = tuple(int(v) for v in rng.multinomial(n, np.full(k, 1.0 / k)))
        after_counts = tuple(int(v) for v in rng.multinomial(n, np.full(k, 1.0 / k)))
        if max(before_counts) != before_counts[0]:
            continue
        check(before_counts, after_counts)

    result.stats["classified_instances"] = classified
    return result


def _near_uniform(k: int, tilt: float = 0.02) -> tuple[float, ...]:
    raw = [1.0 + tilt] + [1.0] * (k - 1)
    total = sum(raw)
    probs = [v / total for v in raw]
    probs[-1] += 1.0 - sum(probs)  # absorb rounding so the vector sums to 1
    return tuple(probs)


def suite_bounds(trials: int = 10**6, seed: int = 20240501) -> SuiteResult:
    """Monte Carlo lower-bound verdicts plus empirical constant searches.

    Gates only on outright "fail" verdicts; inconclusive results are listed.
    Also reports the tightest constants observed for the existential bounds
    (reduction, conditional difference, unconditional difference) over the
    exact oracle grids, and exercises every bound in the catalog at least
    once through verdict calls.
    """
    result = SuiteResult(name="bounds", passed=True, checks=0)
    n, c4 = 20, DEFAULT_C4  # agents and sample-size constant of the w1 cells
    reports = []
    exercised: set[str] = set()

    def record(rep: dict) -> None:
        exercised.add(rep["bound"])
        reports.append(rep)
        result.checks += 1
        if rep["verdict"] == VERDICT_FAIL:
            result.add_failure(f"{rep['bound']} {rep['params']}: fail")
        elif rep["verdict"] == VERDICT_INCONCLUSIVE:
            result.inconclusive.append(f"{rep['bound']} {rep['params']}")

    # statistical cells in the large-sample-size regime
    for idx, k in enumerate((2, 4, 8)):
        probs = _near_uniform(k)
        report = check_w1_lower_bound(probs, n=n, c4=c4, trials=trials, seed=seed + idx)
        record(
            verdict_report("w1_lower", {"p1": probs[0]}, report.w1)
        )
        record(
            verdict_report(
                "strict_pair_lower",
                {"p1": probs[0], "p2": probs[1]},
                report.strict_pair_12,
            )
        )
        # both sides of the strict/ties ratio are estimates; reuse the
        # report's interval-vs-interval verdict
        record({"bound": "strict_vs_ties_lower", "params": {"k": k},
                "measured": asdict(report.strict_1),
                "bound_value": report.ties_1.point * strict_vs_ties_lower(),
                "verdict": report.strict_vs_ties_verdict})
        record(
            verdict_report(
                "h_threshold", {"p1": probs[0], "n": n, "c4": c4}, float(report.h)
            )
        )

    # spot exact instances
    pair = binomial_pair_report(1, 0.6)
    record(
        verdict_report("lemma9_lower", {"m": 1, "delta": 0.2}, pair.diff_unconditional)
    )

    # empirical constants over exact grids
    c1_min = math.inf
    c1_arg = None
    qs = np.arange(0.51, 0.995, 0.02)
    for m in range(2, 101):
        _, thresholds, table = binomial_pair_table(m, qs)
        keep = [t for t, thr in enumerate(thresholds) if thr > m / 2]
        base = np.array([reduction_lower(m, q, 1.0) for q in qs])
        ratios = table[:, keep] / base[:, None]
        qi, ti = np.unravel_index(np.argmin(ratios), ratios.shape)
        if ratios[qi, ti] < c1_min:
            c1_min = float(ratios[qi, ti])
            c1_arg = (m, float(qs[qi]), thresholds[keep[ti]])
    result.stats["C1_empirical"] = c1_min
    result.stats["C1_argmin"] = c1_arg
    wit_m, wit_q, _ = c1_arg
    wit = binomial_pair_report(wit_m, wit_q)
    record(
        verdict_report(
            "reduction_lower",
            {"m": wit_m, "q": wit_q, "c1": c1_min * 0.999},
            min(wit.diff_given_max_ge),
        )
    )

    c_ema = math.inf
    c5 = math.inf
    ema_arg = c5_arg = None
    for h, k, p in _event_grid(range(1, 8), (2, 3, 4), 10):
        if p[0] <= p[1]:
            continue
        rep = event_report(h, p)
        # both bases are positive, as p[0] > p[1] and h >= 1
        ratio = rep.cond_diff_majority / cond_diff_lower(p[0], p[1], h, 1.0)
        if ratio < c_ema:
            c_ema = ratio
            ema_arg, rep_w = (h, p), rep
        base5 = uncond_diff_lower(p[0] - p[1], h, p[0], p[1], 1.0)
        ratio5 = rep.unconditional_diff / base5
        if ratio5 < c5:
            c5 = ratio5
            c5_arg, rep5 = (h, p), rep
    result.stats["C_ema_empirical"] = c_ema
    result.stats["C_ema_argmin"] = ema_arg
    result.stats["C5_empirical"] = c5
    result.stats["C5_argmin"] = c5_arg
    if c_ema <= 0:
        result.add_failure("conditional difference constant is not positive")
    if c5 <= 0:
        result.add_failure("unconditional difference constant is not positive")

    h_w, p_w = ema_arg
    record(
        verdict_report(
            "cond_diff_lower",
            {"p1": p_w[0], "p2": p_w[1], "h": h_w, "c": c_ema * 0.999},
            rep_w.cond_diff_majority,
        )
    )
    h5, p5 = c5_arg
    record(
        verdict_report(
            "uncond_diff_lower",
            {
                "delta_j": p5[0] - p5[1],
                "h": h5,
                "p1": p5[0],
                "p2": p5[1],
                "c5": c5 * 0.999,
            },
            rep5.unconditional_diff,
        )
    )

    win = win_distribution(3, (0.6, 0.4))
    record(verdict_report("ratio_regime_lower", {"q_j": win.q[1], "c6": 0.05}, win.q[0]))
    record(verdict_report("weak_opinion_c4", {"c2": 0.5, "c3": 3.0}, DEFAULT_C4))

    # the bias threshold of the convergence regime, on a regime-shaped cell
    counts, _ = balanced_plus_bias_counts(10_000, 16, 10.0)
    n_cell = sum(counts)
    p1 = counts[0] / n_cell
    second = sorted(counts, reverse=True)[1]
    delta0 = (counts[0] - second) / n_cell
    record(
        verdict_report("bias_threshold", {"p1": p1, "n": n_cell, "lam1": 10.0}, delta0)
    )

    # descriptive search: the smallest sample-size constant on a doubling
    # grid for which the plurality lower bound still clears its check
    probe = _near_uniform(4)
    minimal_c4 = None
    for candidate in (1, 2, 4, 8, 16, 32, 64, 128, 324):
        rep = check_w1_lower_bound(
            probe, n=n, c4=float(candidate), trials=min(trials, 10**5), seed=seed + 99
        )
        if rep.w1_verdict == VERDICT_PASS:
            minimal_c4 = candidate
            break
    result.stats["minimal_passing_c4_k4"] = minimal_c4

    result.stats["bounds_exercised"] = sorted(exercised)
    result.stats["reports"] = reports
    missing = set(BOUND_CATALOG) - exercised
    if missing:
        result.add_failure(f"catalog bounds never exercised: {sorted(missing)}")
    return result


ALL_SUITES = {
    "lemma9": suite_lemma9,
    "difference_equality": suite_difference_equality,
    "monotonicity": suite_monotonicity,
    "dominance": suite_dominance,
    "tiemap": suite_tiemap,
    "growth_claim": suite_growth_claim,
    "bounds": suite_bounds,
}


def run_suites(
    names=None, trials: int = 10**6, seed: int = 20240501
) -> list[SuiteResult]:
    """Run the named suites (all by default) with their standard grids."""
    selected = list(ALL_SUITES) if not names else list(names)
    results = []
    for name in selected:
        if name not in ALL_SUITES:
            raise KeyError(f"unknown suite {name!r}")
        if name == "bounds":
            results.append(suite_bounds(trials=trials, seed=seed))
        elif name == "growth_claim":
            results.append(suite_growth_claim(seed=seed))
        else:
            results.append(ALL_SUITES[name]())
    return results
