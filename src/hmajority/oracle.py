"""Exact oracle for the one-round winning probabilities.

* win_distribution: q_i = Pr(opinion i is adopted), with the u.a.r. tie
  split 1/m applied whenever m opinions share the maximum, plus the strict
  and tie-inclusive variants Pr(X_i > X_j for all j) and
  Pr(X_i >= X_j for all j). Computed in polynomial time from Levin's
  Poissonised representation of the multinomial by a generating-function
  DP, so it reaches (h, k) far beyond enumeration; its size is capped by
  DP_CELL_CAP.
* event_report, tie_map_audit and conditional_sum_binomial_check need
  outcome-level events, so they work on one outcome table: every one of
  the C(h+k-1, k-1) unordered outcomes as a row of an (N, k) count array,
  with its multinomial pmf, and each report is masks and sums over that
  table. Its size is capped at ENUMERATION_GUARD = N * k cells.
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
end. event_report and tie_map_audit sum over the table with math.fsum,
which is exactly rounded; the pair-sum check groups its masses with
np.bincount. All equalities carry an absolute tolerance of 1e-12.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    HMajorityError,
    NotSortedError,
    SumMismatchError,
    coerce_probs,
    require_sorted,
)

# Cell budget of the outcome table: outcomes x k count cells. A report's
# arrays, with the lists math.fsum reads, peak near 36 bytes a cell at
# k = 4 and 76 at k = 2, where each row holds only two cells (143 and
# 304 MiB at the cap).
ENUMERATION_GUARD = 1 << 22
# Cell budget of win_distribution: points in u x live opinions x (h+1),
# summed over the winning count t. Its arrays peak below 48 bytes a cell
# (under 200 MiB at the cap) and its work stays below h + 2 multiply-adds a
# cell.
DP_CELL_CAP = 1 << 22
ABS_TOL = 1e-12


class TooLargeError(HMajorityError):
    """The outcome table or the adoption-law DP exceeds its cell cap."""


class InvalidQError(HMajorityError, ValueError):
    """The binomial pair requires 1/2 < q < 1."""


def outcome_count(h: int, k: int) -> int:
    """Number of non-negative integer vectors of length k summing to h."""
    return math.comb(h + k - 1, k - 1)


def _log_pmf(x: np.ndarray, probs) -> np.ndarray:
    """Row-wise log multinomial pmf of the count vectors x, each row with
    its own sum h: log h! + sum_i (x_i log p_i - log x_i!), and -inf for a
    row that draws an opinion with p_i = 0."""
    p = np.asarray(probs, dtype=np.float64)
    live = p > 0.0
    sums = x.sum(axis=1)
    # log-gamma once per distinct count, so the cost follows the size of x
    # and not the size of its entries
    values = np.union1d(x, sums)
    lgam = np.array([math.lgamma(v + 1) for v in values.tolist()])
    terms = x * np.log(np.where(live, p, 1.0)) - lgam[np.searchsorted(values, x)]
    out = lgam[np.searchsorted(values, sums)] + terms.sum(axis=1)
    if not live.all():
        out[x[:, ~live].any(axis=1)] = -np.inf
    return out


def _outcome_table(h: int, probs) -> tuple[np.ndarray, np.ndarray]:
    """(x, pmf) over the whole outcome space.

    x is an (N, k) int64 array of every count vector with sum h, in
    colexicographic order (last coordinate varies slowest), built by stars
    and bars; pmf is its multinomial pmf. Rows that draw an opinion with
    p_i = 0 are dropped. Raises TooLargeError, before allocating, when the
    table would exceed ENUMERATION_GUARD cells.
    """
    k = len(probs)
    if k < 1 or h < 0:
        raise ValueError(f"need k >= 1 and h >= 0, got h={h}, k={k}")
    n = outcome_count(h, k)
    if n * k > ENUMERATION_GUARD:
        raise TooLargeError(
            f"outcome table at h={h}, k={k} needs {n} x {k} cells, above the "
            f"cap {ENUMERATION_GUARD}"
        )
    # bar positions among h + k - 1 slots, framed by -1 and h + k - 1; the
    # gaps between bars are the counts, read right to left for colex order
    bars = itertools.combinations(range(h + k - 1), k - 1)
    edges = np.hstack((
        np.full((n, 1), -1),
        np.fromiter(itertools.chain.from_iterable(bars), dtype=np.int64,
                    count=n * (k - 1)).reshape(n, k - 1),
        np.full((n, 1), h + k - 1),
    ))
    x = edges[:, :0:-1]  # a view: the gaps overwrite the bars in place
    np.subtract(x, edges[:, -2::-1], out=x)
    x -= 1
    log_pmf = _log_pmf(x, probs)
    possible = log_pmf > -np.inf
    return x[possible], np.exp(log_pmf[possible])


def _mass(values: np.ndarray, mask: np.ndarray) -> float:
    """Exactly rounded sum of values over mask."""
    return math.fsum(values[mask].tolist())


def enumerate_outcomes(h: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Every count vector (x_1..x_k) with sum h, each exactly once, in
    colexicographic order (last coordinate varies slowest)."""
    x, _ = _outcome_table(h, (1.0,) * k)
    return tuple(map(tuple, x.tolist()))


def log_multinomial_pmf(x, h: int, p) -> float:
    """log of h!/(prod x_i!) * prod p_i^{x_i}; -inf when impossible."""
    probs = coerce_probs(p)
    xs = tuple(int(v) for v in x)
    if len(xs) != len(probs):
        raise SumMismatchError(f"x has length {len(xs)}, p has length {len(probs)}")
    if sum(xs) != h:
        raise SumMismatchError(f"counts {xs} sum to {sum(xs)}, expected h={h}")
    return float(_log_pmf(np.array([xs], dtype=np.int64), probs)[0])


def multinomial_pmf(x, h: int, p) -> float:
    """Multinomial pmf, exactly 0 when some x_i > 0 has p_i = 0."""
    return math.exp(log_multinomial_pmf(x, h, p))


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


def event_report(h: int, p, rare_x: float = 0.25) -> EventReport:
    """Every EventReport field by exact enumeration; p must be pre-sorted.

    rare_set lists 1-based opinions with p_i <= rare_x * p_1; strong_set
    lists those with p_i > p_1 / 2.
    """
    probs = coerce_probs(p)
    if len(probs) < 2:
        raise NotSortedError("event_report needs at least two opinions")
    require_sorted(probs)
    x, pmf = _outcome_table(h, probs)
    p1 = probs[0]
    threshold = h * (probs[0] + probs[1]) / 2.0

    leads = x == x.max(axis=1, keepdims=True)
    leaders = leads.sum(axis=1)
    adopt = pmf * _tiebreak_weight(leaders)
    # the conditioning event: opinion 1 or opinion 2 is the unique maximum
    pair = (leaders == 1) & (leads[:, 0] | leads[:, 1])
    in_tail = x[:, 0] + x[:, 1] >= threshold

    pair_prob = _mass(pmf, pair)
    if pair_prob > 0.0:
        # adoption accounting: on this event the tie split is degenerate
        num_maj = _mass(adopt, pair & leads[:, 0]) - _mass(adopt, pair & leads[:, 1])
        # direct sample comparison, no reference to the maximum set
        num_cmp = _mass(pmf, pair & (x[:, 0] > x[:, 1])) - _mass(
            pmf, pair & (x[:, 1] > x[:, 0])
        )
        cond_maj = num_maj / pair_prob
        cond_cmp = num_cmp / pair_prob
        cond_tail = _mass(pmf, pair & in_tail) / pair_prob
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
        sum_tail_unconditional=_mass(pmf, in_tail),
        sum_threshold=threshold,
        strict_pair_prob=pair_prob,
        unconditional_diff=_mass(adopt, leads[:, 0]) - _mass(adopt, leads[:, 1]),
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
    require_sorted(probs)
    x, pmf = _outcome_table(h, probs)
    p1 = probs[0]
    strong = np.array([i for i, v in enumerate(probs) if v > p1 / 2.0])

    leads = x == x.max(axis=1, keepdims=True)
    leaders = leads.sum(axis=1)
    strict_prob = _mass(pmf, leads[:, 0] & (leaders == 1))
    ties_prob = _mass(pmf, leads[:, 0])
    # from here on x and pmf hold the 1-tie set only
    tied = leads[:, 0] & (leaders > 1)
    x, pmf = x[tied], pmf[tied]

    # the last strong opinion among those with the smallest count
    donor = strong[strong.size - 1 - np.argmin(x[:, strong[::-1]], axis=1)]
    rows = np.arange(len(x))
    applicable = (donor != 0) & (x[rows, donor] > 0)
    image = x.copy()
    image[applicable, 0] += 1
    image[rows[applicable], donor[applicable]] -= 1
    pmf_image = np.exp(_log_pmf(image, probs))
    ratio = np.divide(pmf_image, pmf, out=np.full(len(x), np.inf), where=pmf > 0.0)
    expected = x[rows, donor] / (x[:, 0] + 1) * (p1 / np.asarray(probs)[donor])
    max_err = float(np.abs(ratio - expected)[applicable].max(initial=0.0))

    outcomes = []
    sources = {}
    for row, j, img, mass, mass_img, r, e, ok in zip(
        x.tolist(), donor.tolist(), image.tolist(), pmf.tolist(),
        pmf_image.tolist(), ratio.tolist(), expected.tolist(), applicable.tolist(),
    ):
        row = tuple(row)
        if ok:
            img = tuple(img)
            sources.setdefault(img, []).append(row)
            outcomes.append(TieMapOutcome(
                x=row, donor=j + 1, image=img, pmf=mass,
                pmf_image=mass_img, ratio=r, expected_ratio=e,
            ))
        else:
            outcomes.append(TieMapOutcome(
                x=row, donor=0, image=None, pmf=mass,
                pmf_image=None, ratio=None, expected_ratio=None,
            ))

    collisions = tuple(tuple(src) for src in sources.values() if len(src) > 1)
    applied = int(applicable.sum())
    return TieMapAudit(
        h=int(h),
        p=probs,
        domain_size=len(outcomes),
        applicable=applied,
        inapplicable=len(outcomes) - applied,
        injective=not collisions,
        collisions=collisions,
        max_ratio_error=max_err,
        strict_prob=strict_prob,
        ties_prob=ties_prob,
        strict_ties_ratio=strict_prob / ties_prob if ties_prob > 0.0 else math.inf,
        outcomes=tuple(outcomes),
    )


def conditional_sum_binomial_check(h: int, p) -> float:
    """Max abs error of the pair-sum reduction over all (m, a).

    Given X_1 + X_2 = m, the pair (X_1, X_2) is Binomial(m, p1/(p1+p2)) and
    independent of the remaining coordinates. Compares that closed form
    against raw enumeration and returns the largest absolute deviation.
    """
    probs = coerce_probs(p)
    if len(probs) < 2:
        raise NotSortedError("need at least two opinions")
    x, pmf = _outcome_table(h, probs)
    p1, p2 = probs[0], probs[1]
    if p1 + p2 <= 0.0:
        return 0.0
    ratio = p1 / (p1 + p2)

    # mass of each pair (a, m - a) = (x_1, x_2) in the table, and of each m;
    # a pair missing from it needs p1 = 0 or p2 = 0, where the closed form
    # is 0 as well
    keys, group = np.unique(x[:, 0] * (h + 1) + x[:, 1], return_inverse=True)
    joint = np.bincount(group.ravel(), weights=pmf)
    pairs = np.column_stack(np.divmod(keys, h + 1))
    m = pairs.sum(axis=1)
    total = np.bincount(m, weights=joint)[m]
    closed = np.exp(_log_pmf(pairs, (ratio, 1.0 - ratio)))
    seen = total > 1e-300
    err = np.abs(joint[seen] / total[seen] - closed[seen])
    return float(err.max(initial=0.0))
