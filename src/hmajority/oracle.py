"""Exact oracle for the one-round winning probabilities.

* win_distribution: q_i = Pr(opinion i is adopted), with the u.a.r. tie
  split 1/m applied whenever m opinions share the maximum, plus the strict
  and tie-inclusive variants Pr(X_i > X_j for all j) and
  Pr(X_i >= X_j for all j). Computed in polynomial time from Levin's
  Poissonised representation of the multinomial by a generating-function
  DP, so it reaches (h, k) far beyond enumeration; its size is capped by
  DP_CELL_CAP.
* event_report, tie_map_audit and conditional_sum_binomial_check need
  outcome-level events, so they sum the multinomial pmf over all
  C(h+k-1, k-1) unordered outcomes, capped by ENUMERATION_GUARD.
  event_report gives the conditional quantities behind the two-opinion
  reduction, all conditioned on the event that opinion 1 or opinion 2 is
  the unique maximum.
* binomial_pair_table (vectorised over q) and its scalar view
  binomial_pair_report: the exact distribution of a binomial pair
  (Y1, Y2 = m - Y1), its unconditional comparison difference, and the same
  difference conditioned on max(Y1, Y2) exceeding a threshold, evaluated
  through the closed form
  Pr(Y1 > Y2 | M = j) = q^(2j-m) / (q^(2j-m) + (1-q)^(2j-m)).
* g_function: the two-branch kernel governing expected bias growth for two
  opinions (the corrected form: the flat branch uses (1 - 1/h), not
  (1 - 1/sqrt(h))).

Pmfs are evaluated in log space with log-gamma and exponentiated at the
end; enumeration accumulates with compensated (Neumaier) summation. All
equalities carry an absolute tolerance of 1e-12.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import (
    HMajorityError,
    NormalizedConfig,
    NotSortedError,
    SumMismatchError,
    coerce_probs,
    require_sorted,
)

ENUMERATION_GUARD = 10**8
# Cell budget of win_distribution: points in u x live opinions x (h+1),
# summed over the winning count t. Its arrays peak below 48 bytes a cell
# (under 200 MiB at the cap) and its work stays below h + 2 multiply-adds a
# cell.
DP_CELL_CAP = 1 << 22
ABS_TOL = 1e-12


class TooLargeError(HMajorityError):
    """The outcome space exceeds the enumeration guard, or the adoption-law
    DP its cell cap."""


class InvalidQError(HMajorityError, ValueError):
    """The binomial pair requires 1/2 < q < 1."""


class _NeumaierSum:
    """Compensated accumulator: error stays O(eps) independent of count."""

    __slots__ = ("s", "c")

    def __init__(self):
        self.s = 0.0
        self.c = 0.0

    def add(self, x: float) -> None:
        t = self.s + x
        if abs(self.s) >= abs(x):
            self.c += (self.s - t) + x
        else:
            self.c += (x - t) + self.s
        self.s = t

    @property
    def value(self) -> float:
        return self.s + self.c


def outcome_count(h: int, k: int) -> int:
    """Number of non-negative integer vectors of length k summing to h."""
    return math.comb(h + k - 1, k - 1)


def _check_guard(h: int, k: int) -> None:
    if k < 1 or h < 0:
        raise ValueError(f"need k >= 1 and h >= 0, got h={h}, k={k}")
    if outcome_count(h, k) > ENUMERATION_GUARD:
        raise TooLargeError(
            f"outcome space C({h + k - 1},{k - 1}) = {outcome_count(h, k)} "
            f"exceeds the guard {ENUMERATION_GUARD}"
        )


def enumerate_outcomes(h: int, k: int) -> Iterator[tuple[int, ...]]:
    """Yield every count vector (x_1..x_k) with sum h, each exactly once,
    in colexicographic order (last coordinate varies slowest)."""
    _check_guard(h, k)

    def rec(budget: int, m: int):
        if m == 1:
            yield (budget,)
            return
        for last in range(budget + 1):
            for rest in rec(budget - last, m - 1):
                yield rest + (last,)

    return rec(h, k)


def log_multinomial_pmf(x, h: int, p) -> float:
    """log of h!/(prod x_i!) * prod p_i^{x_i}; -inf when impossible."""
    probs = coerce_probs(p)
    xs = tuple(int(v) for v in x)
    if len(xs) != len(probs):
        raise SumMismatchError(f"x has length {len(xs)}, p has length {len(probs)}")
    if sum(xs) != h:
        raise SumMismatchError(f"counts {xs} sum to {sum(xs)}, expected h={h}")
    out = math.lgamma(h + 1)
    for xi, pi in zip(xs, probs):
        if xi == 0:
            continue
        if pi <= 0.0:
            return -math.inf
        out += xi * math.log(pi) - math.lgamma(xi + 1)
    return out


def multinomial_pmf(x, h: int, p) -> float:
    """Multinomial pmf, exactly 0 when some x_i > 0 has p_i = 0."""
    logv = log_multinomial_pmf(x, h, p)
    return math.exp(logv) if logv > -math.inf else 0.0


def _iter_pmf(h: int, probs: tuple[float, ...]):
    """Yield (outcome, pmf) over the whole outcome space, log-space pmf."""
    k = len(probs)
    logp = [math.log(pi) if pi > 0.0 else None for pi in probs]
    lgam = [math.lgamma(i + 1) for i in range(h + 1)]
    log_h_fact = lgam[h]
    for x in enumerate_outcomes(h, k):
        log_pmf = log_h_fact
        impossible = False
        for xi, lpi in zip(x, logp):
            if xi == 0:
                continue
            if lpi is None:
                impossible = True
                break
            log_pmf += xi * lpi - lgam[xi]
        if impossible:
            continue
        yield x, math.exp(log_pmf)


def argmax_set(x) -> tuple[int, ...]:
    """0-based indices attaining the maximum of x."""
    top = max(x)
    return tuple(i for i, v in enumerate(x) if v == top)


def _tiebreak_weight(m: int) -> float:
    """Probability that a fixed member of an m-way tie wins the u.a.r. split."""
    return 1.0 / m


@dataclass(frozen=True)
class WinDistribution:
    """Per-opinion adoption probabilities for one agent update.

    q[i] includes the u.a.r. tie split; q_strict[i] counts only outcomes
    where opinion i+1 is the unique maximum; q_ties[i] counts outcomes where
    it is a (possibly shared) maximum, so q_strict <= q <= q_ties holds
    coordinatewise. q_strict_pair_12 is the probability that the unique
    maximum is opinion 1 or opinion 2.
    """

    q: tuple[float, ...]
    q_strict: tuple[float, ...]
    q_ties: tuple[float, ...]
    q_strict_pair_12: float
    h: int

    @property
    def k(self) -> int:
        return len(self.q)


@functools.lru_cache(maxsize=None)
def _gauss_legendre01(m: int) -> tuple[np.ndarray, np.ndarray]:
    """m Gauss-Legendre nodes and weights on [0, 1], exact for polynomials
    of degree < 2m; numpy.polynomial is imported on first use only."""
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(m)
    return (x + 1.0) / 2.0, w / 2.0


def win_distribution(h: int, p) -> WinDistribution:
    """Exact adoption law through Levin's Poissonised multinomial.

    With a_l(s) = Pois(h p_l)(s), Pr(X = x) = prod_l a_l(x_l) / Pois(h)(h),
    so the mass of "opinion i draws t and every other opinion draws at most
    t, j of them exactly t", weighted by u^j, is a_i(t) / Pois(h)(h) times
    [z^(h-t)] prod_{l != i} (sum_{s<t} a_l(s) z^s + u a_l(t) z^t).
    u = 0 gives q_strict, u = 1 gives q_ties, and the u.a.r. tie split
    1/(j+1) = int_0^1 u^j du gives q, integrated exactly by Gauss-Legendre.
    The products over l != i come from prefix and suffix products over the
    opinions, vectorised over the u nodes. Opinions with p_l = 0 never draw
    and are dropped. Raises TooLargeError when the DP would exceed
    DP_CELL_CAP cells.
    """
    probs = coerce_probs(p)
    k = len(probs)
    h = int(h)
    if h < 0:
        raise ValueError(f"need h >= 0, got h={h}")
    live = [i for i, v in enumerate(probs) if v > 0.0]
    out = np.zeros((3, k))  # rows: q, q_strict, q_ties
    if h == 0 or len(live) == 1:
        # one outcome: all k opinions tie at zero draws, or the live one draws h
        leaders = range(k) if h == 0 else live
        out[0, leaders] = 1.0 / len(leaders)
        out[1, leaders] = 1.0 if len(leaders) == 1 else 0.0
        out[2, leaders] = 1.0
    else:
        out[:, live] = _win_dp(h, np.array([probs[i] for i in live]))
    q, q_strict, q_ties = (tuple(float(v) for v in row) for row in out)
    return WinDistribution(
        q=q,
        q_strict=q_strict,
        q_ties=q_ties,
        q_strict_pair_12=sum(q_strict[:2]),
        h=h,
    )


def _win_dp(h: int, probs: np.ndarray) -> np.ndarray:
    """(3, k) array of q, q_strict, q_ties for h >= 1 and k >= 2 positive
    probabilities; see win_distribution."""
    k = probs.size
    # j bounds how many other opinions can also draw t, the degree in u of
    # the tie-split integrand; a winning count below ceil(h/k) has no mass
    plan = [(t, min(k - 1, (h - t) // t)) for t in range(-(-h // k), h + 1)]
    # points in u at each t: 0, 1 and (j + 2) // 2 nodes, or one when j = 0
    cells = sum(1 if j == 0 else (j + 2) // 2 + 2 for _, j in plan) * k * (h + 1)
    if cells > DP_CELL_CAP:
        raise TooLargeError(
            f"adoption-law DP at h={h} over {k} live opinions needs {cells} "
            f"cells, above the cap {DP_CELL_CAP}"
        )
    s = np.arange(h + 1)
    log_s_fact = np.array([math.lgamma(v + 1) for v in range(h + 1)])
    lam = h * probs
    # a[l, s] = Pois(h p_l)(s), in log space so h! never appears
    a = np.exp(s * np.log(lam)[:, None] - lam[:, None] - log_s_fact)
    pois_h = math.exp(h * math.log(h) - h - log_s_fact[h])

    out = np.zeros((3, k))
    for t, j in plan:
        deg = h - t
        width = min(t, deg) + 1  # factor coefficients of degree 0..width-1
        if j == 0:
            nodes = np.zeros(1)
            weights = np.ones((3, 1))
        else:
            gl_u, gl_w = _gauss_legendre01((j + 2) // 2)
            nodes = np.concatenate(([0.0, 1.0], gl_u))
            weights = np.zeros((3, nodes.size))
            weights[0, 2:] = gl_w
            weights[1, 0] = 1.0
            weights[2, 1] = 1.0
        g = nodes.size
        factor = np.broadcast_to(a[:, :width], (g, k, width)).copy()
        if t <= deg:
            factor[:, :, t] *= nodes[:, None]
        # prefix products in both opinion orders at once: rows 0..g-1 run
        # l = 0..k-1, rows g..2g-1 run l = k-1..0; polynomials sit behind
        # width-1 zeros so a sliding window is one convolution step
        both = np.concatenate((factor, factor[:, ::-1]))[:, :, ::-1]
        prod = np.zeros((2 * g, k + 1, width + deg))
        prod[:, 0, width - 1] = 1.0
        window = np.lib.stride_tricks.sliding_window_view(prod, width, axis=-1)
        for l in range(k):
            np.einsum("gdw,gw->gd", window[:, l], both[:, l],
                      out=prod[:, l + 1, width - 1:])
        before = prod[:g, :k, width - 1:]  # opinions < i, by degree
        after = prod[g:, :k, width - 1:][:, ::-1, ::-1]  # opinions > i, reversed
        coef = np.einsum("gid,gid->gi", before, after)
        out += (weights @ coef) * a[:, t]
    return out / pois_h


@dataclass(frozen=True)
class EventReport:
    """Exact conditional quantities for one (h, p) instance with sorted p.

    The conditioning event is "opinion 1 or opinion 2 is the unique
    maximum". cond_diff_majority subtracts the adoption probabilities of
    opinions 1 and 2 given that event; cond_diff_comparison subtracts the
    direct comparison probabilities Pr(X1 > X2) - Pr(X2 > X1) given the same
    event; the two are asserted equal by the verification suites.
    sum_tail_* are Pr(X1 + X2 >= h (p1+p2)/2), conditional and not.
    """

    h: int
    p: tuple[float, ...]
    rare_x: float
    cond_diff_majority: float
    cond_diff_comparison: float
    sum_tail_conditional: float
    sum_tail_unconditional: float
    sum_threshold: float
    strict_pair_prob: float
    unconditional_diff: float
    rare_set: tuple[int, ...]
    strong_set: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.p)


def relabel_descending(p) -> tuple[NormalizedConfig, tuple[int, ...]]:
    """Sort probabilities in non-increasing order.

    Returns the sorted vector and the permutation perm with
    sorted[i] = original[perm[i]] (perm holds 1-based original opinion ids),
    so report indices can be mapped back to the caller's labels. Inputs are
    never permuted silently anywhere else in the package.
    """
    probs = coerce_probs(p)
    n = p.n if isinstance(p, NormalizedConfig) else 0
    order = sorted(range(len(probs)), key=lambda i: (-probs[i], i))
    sorted_probs = tuple(probs[i] for i in order)
    return NormalizedConfig(probs=sorted_probs, n=n), tuple(i + 1 for i in order)


def event_report(h: int, p, rare_x: float = 0.25) -> EventReport:
    """Every EventReport field by exact enumeration; p must be pre-sorted.

    rare_set lists 1-based opinions with p_i <= rare_x * p_1; strong_set
    lists those with p_i > p_1 / 2.
    """
    probs = coerce_probs(p)
    k = len(probs)
    if k < 2:
        raise NotSortedError("event_report needs at least two opinions")
    require_sorted(probs)
    _check_guard(h, k)
    p1 = probs[0]
    threshold = h * (probs[0] + probs[1]) / 2.0

    den_pair = _NeumaierSum()
    num_w1 = _NeumaierSum()
    num_w2 = _NeumaierSum()
    num_cmp_12 = _NeumaierSum()
    num_cmp_21 = _NeumaierSum()
    tail_cond = _NeumaierSum()
    tail_uncond = _NeumaierSum()
    q1 = _NeumaierSum()
    q2 = _NeumaierSum()

    for x, pmf in _iter_pmf(h, probs):
        leaders = argmax_set(x)
        w = _tiebreak_weight(len(leaders))
        if 0 in leaders:
            q1.add(pmf * w)
        if 1 in leaders:
            q2.add(pmf * w)
        in_tail = x[0] + x[1] >= threshold
        if in_tail:
            tail_uncond.add(pmf)
        if len(leaders) == 1 and leaders[0] < 2:
            den_pair.add(pmf)
            # adoption accounting: on this event the tie split is degenerate
            if 0 in leaders:
                num_w1.add(pmf * w)
            if 1 in leaders:
                num_w2.add(pmf * w)
            # direct sample comparison, no reference to the maximum set
            if x[0] > x[1]:
                num_cmp_12.add(pmf)
            elif x[1] > x[0]:
                num_cmp_21.add(pmf)
            if in_tail:
                tail_cond.add(pmf)

    pair_prob = den_pair.value
    if pair_prob > 0.0:
        cond_maj = (num_w1.value - num_w2.value) / pair_prob
        cond_cmp = (num_cmp_12.value - num_cmp_21.value) / pair_prob
        cond_tail = tail_cond.value / pair_prob
    else:
        cond_maj = cond_cmp = cond_tail = 0.0

    rare = tuple(i + 1 for i, v in enumerate(probs) if v <= rare_x * p1)
    strong = tuple(i + 1 for i, v in enumerate(probs) if v > p1 / 2.0)
    return EventReport(
        h=int(h),
        p=probs,
        rare_x=float(rare_x),
        cond_diff_majority=cond_maj,
        cond_diff_comparison=cond_cmp,
        sum_tail_conditional=cond_tail,
        sum_tail_unconditional=tail_uncond.value,
        sum_threshold=threshold,
        strict_pair_prob=pair_prob,
        unconditional_diff=q1.value - q2.value,
        rare_set=rare,
        strong_set=strong,
    )


@dataclass(frozen=True)
class BinomialPairReport:
    """Exact comparison probabilities for Y1 ~ Bin(m, q), Y2 = m - Y1.

    diff_unconditional = Pr(Y1 > Y2) - Pr(Y2 > Y1) by direct pmf summation.
    diff_given_max_ge[i] conditions the same difference on
    M = max(Y1, Y2) >= thresholds[i], evaluated through the closed form for
    Pr(Y1 > Y2 | M = j). lemma9_bound = sqrt(2m/pi) * g(2q-1, m), a lower
    bound on diff_unconditional.
    """

    m: int
    q: float
    diff_unconditional: float
    thresholds: tuple[int, ...]
    diff_given_max_ge: tuple[float, ...]
    lemma9_bound: float

MAX_PAIR_M = 10**4


def binomial_pair_table(m: int, qs) -> tuple[np.ndarray, tuple[int, ...], np.ndarray]:
    """The binomial-pair kernel for Y1 ~ Bin(m, q), Y2 = m - Y1, vectorised
    over an array qs of q values; the caller checks m and q.

    Returns (diff, thresholds, table): diff[i] = Pr(Y1 > Y2) - Pr(Y2 > Y1)
    at qs[i] by direct pmf summation, thresholds = ceil(m/2)..m, and
    table[i, t] the same difference conditioned on M = max(Y1, Y2) >=
    thresholds[t], through the closed form
    Pr(Y1 > Y2 | M = j) = 1 / (1 + exp(-(2j - m) logit(q))).
    """
    qs = np.asarray(qs, dtype=np.float64)
    j = np.arange(m + 1)
    lgam = np.array([math.lgamma(i + 1) for i in range(m + 1)])
    log_c = lgam[m] - lgam - lgam[::-1]
    pmf = np.exp(
        log_c + j * np.log(qs)[:, None] + (m - j) * np.log1p(-qs)[:, None]
    )
    upper = j[2 * j > m]
    diff = (pmf[:, upper] - pmf[:, m - upper]).sum(axis=1)

    # mass and signed comparison mass at each value j of M
    lo = math.ceil(m / 2)
    js = np.arange(lo, m + 1)
    mass = pmf[:, js] + pmf[:, m - js]
    if 2 * lo == m:  # the tie Y1 = Y2 = m/2 is one outcome, not two
        mass[:, 0] = pmf[:, lo]
    logit = np.log(qs) - np.log1p(-qs)
    f = 1.0 / (1.0 + np.exp(-(2 * js - m) * logit[:, None]))
    signed = mass * (2.0 * f - 1.0)
    num = np.cumsum(signed[:, ::-1], axis=1)[:, ::-1]
    den = np.cumsum(mass[:, ::-1], axis=1)[:, ::-1]
    table = np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)
    return diff, tuple(range(lo, m + 1)), table


def binomial_pair_report(m: int, q: float) -> BinomialPairReport:
    """Exact pair comparison report; requires 1/2 < q < 1 and m <= 1e4."""
    if not (0.5 < q < 1.0):
        raise InvalidQError(f"need 1/2 < q < 1, got q={q}")
    if m < 1:
        raise InvalidQError(f"need m >= 1, got m={m}")
    if m > MAX_PAIR_M:
        raise TooLargeError(f"m={m} exceeds the direct-summation cap {MAX_PAIR_M}")
    diff, thresholds, table = binomial_pair_table(m, [q])
    return BinomialPairReport(
        m=int(m),
        q=float(q),
        diff_unconditional=float(diff[0]),
        thresholds=thresholds,
        diff_given_max_ge=tuple(float(v) for v in table[0]),
        lemma9_bound=math.sqrt(2.0 * m / math.pi) * g_function(2.0 * q - 1.0, m),
    )


def g_function(delta, h: int):
    """Two-branch expected-bias-growth kernel, elementwise over delta.

    Returns delta * (1 - delta^2)^((h-1)/2) when delta < 1/sqrt(h), and
    (1/sqrt(h)) * (1 - 1/h)^((h-1)/2) otherwise. The flat branch uses
    (1 - 1/h), the corrected form consistent with the first branch at the
    crossover point. A float delta gives a float, an array an array.
    """
    d = np.asarray(delta, dtype=np.float64)
    if not np.all((0.0 <= d) & (d <= 1.0)):
        raise ValueError(f"need 0 <= delta <= 1, got {delta}")
    if h < 1:
        raise ValueError(f"need h >= 1, got {h}")
    root = 1.0 / math.sqrt(h)
    exponent = (h - 1) / 2.0
    g = np.where(
        d < root, d * (1.0 - d * d) ** exponent, root * (1.0 - 1.0 / h) ** exponent
    )
    return float(g) if g.ndim == 0 else g


@dataclass(frozen=True)
class TieMapOutcome:
    """One audited 1-tie outcome and its image under the tie-removal map."""

    x: tuple[int, ...]
    donor: int  # 1-based id of the decremented opinion, 0 when inapplicable
    image: tuple[int, ...] | None
    pmf: float
    pmf_image: float | None
    ratio: float | None
    expected_ratio: float | None


@dataclass(frozen=True)
class TieMapAudit:
    """Audit of the injection from 1-tie outcomes to strict wins.

    The map increments x_1 and decrements the strong opinion with the
    smallest sampled count, largest index winning equal counts. Outcomes
    whose selected donor has count zero (or is opinion 1 itself) are
    reported as inapplicable rather than mapped. injective refers to the
    applicable domain; max_ratio_error compares each pmf ratio
    Pr(f(X))/Pr(X) against the algebraic identity
    x_j / (x_1 + 1) * p_1 / p_j.
    """

    h: int
    p: tuple[float, ...]
    domain_size: int
    applicable: int
    inapplicable: int
    injective: bool
    collisions: tuple[tuple[tuple[int, ...], ...], ...]
    max_ratio_error: float
    strict_prob: float
    ties_prob: float
    strict_ties_ratio: float
    outcomes: tuple[TieMapOutcome, ...]

    @property
    def k(self) -> int:
        return len(self.p)


def tie_map_audit(h: int, p) -> TieMapAudit:
    """Enumerate the 1-tie set, apply the tie-removal map, report checks.

    The 1-tie set holds outcomes where opinion 1 attains the maximum jointly
    with at least one other opinion. The donor index is
    j = max{i strong : x_i = min over strong opinions}, with strong meaning
    p_i > p_1 / 2.
    """
    probs = coerce_probs(p)
    k = len(probs)
    require_sorted(probs)
    _check_guard(h, k)
    p1 = probs[0]
    strong = [i for i, v in enumerate(probs) if v > p1 / 2.0]

    outcomes = []
    images = {}
    max_err = 0.0
    strict1 = _NeumaierSum()
    ties1 = _NeumaierSum()
    applicable = 0
    inapplicable = 0
    domain = 0

    for x, pmf in _iter_pmf(h, probs):
        leaders = argmax_set(x)
        if 0 in leaders:
            ties1.add(pmf)
            if len(leaders) == 1:
                strict1.add(pmf)
        if 0 not in leaders or len(leaders) < 2:
            continue
        domain += 1
        low = min(x[i] for i in strong)
        donor = max(i for i in strong if x[i] == low)
        if donor == 0 or x[donor] == 0:
            inapplicable += 1
            outcomes.append(
                TieMapOutcome(
                    x=x, donor=0, image=None, pmf=pmf,
                    pmf_image=None, ratio=None, expected_ratio=None,
                )
            )
            continue
        applicable += 1
        image = list(x)
        image[0] += 1
        image[donor] -= 1
        image = tuple(image)
        pmf_image = multinomial_pmf(image, h, probs)
        ratio = pmf_image / pmf if pmf > 0.0 else math.inf
        expected = (x[donor] / (x[0] + 1)) * (p1 / probs[donor])
        err = abs(ratio - expected)
        max_err = max(max_err, err)
        images.setdefault(image, []).append(x)
        outcomes.append(
            TieMapOutcome(
                x=x, donor=donor + 1, image=image, pmf=pmf,
                pmf_image=pmf_image, ratio=ratio, expected_ratio=expected,
            )
        )

    collisions = tuple(
        tuple(sources) for sources in images.values() if len(sources) > 1
    )
    ties_val = ties1.value
    ratio_val = strict1.value / ties_val if ties_val > 0.0 else math.inf
    return TieMapAudit(
        h=int(h),
        p=probs,
        domain_size=domain,
        applicable=applicable,
        inapplicable=inapplicable,
        injective=not collisions,
        collisions=collisions,
        max_ratio_error=max_err,
        strict_prob=strict1.value,
        ties_prob=ties_val,
        strict_ties_ratio=ratio_val,
        outcomes=tuple(outcomes),
    )


def conditional_sum_binomial_check(h: int, p) -> float:
    """Max abs error of the pair-sum reduction over all (m, a).

    Given X_1 + X_2 = m, the pair (X_1, X_2) is Binomial(m, p1/(p1+p2)) and
    independent of the remaining coordinates. Compares that closed form
    against raw enumeration and returns the largest absolute deviation.
    """
    probs = coerce_probs(p)
    k = len(probs)
    if k < 2:
        raise NotSortedError("need at least two opinions")
    _check_guard(h, k)
    p1, p2 = probs[0], probs[1]
    if p1 + p2 <= 0.0:
        return 0.0
    ratio = p1 / (p1 + p2)

    sum_mass = [_NeumaierSum() for _ in range(h + 1)]
    joint = [dict() for _ in range(h + 1)]
    for x, pmf in _iter_pmf(h, probs):
        m = x[0] + x[1]
        sum_mass[m].add(pmf)
        acc = joint[m].setdefault(x[0], _NeumaierSum())
        acc.add(pmf)

    worst = 0.0
    for m in range(h + 1):
        total = sum_mass[m].value
        if total <= 1e-300:
            continue
        for a in range(m + 1):
            cond = joint[m][a].value / total if a in joint[m] else 0.0
            closed = (
                math.comb(m, a) * ratio**a * (1.0 - ratio) ** (m - a)
                if 0.0 < ratio < 1.0
                else (1.0 if (a == m if ratio >= 1.0 else a == 0) else 0.0)
            )
            worst = max(worst, abs(cond - closed))
    return worst
