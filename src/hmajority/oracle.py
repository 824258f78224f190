"""Exact oracle for the one-round winning probabilities.

* win_distribution: q_i = Pr(opinion i is adopted), with the u.a.r. tie
  split 1/m applied whenever m opinions share the maximum, plus the strict
  and tie-inclusive variants Pr(X_i > X_j for all j) and
  Pr(X_i >= X_j for all j). Computed in polynomial time from Levin's
  Poissonised representation of the multinomial by a generating-function
  DP over a certified window of winning counts (live_plan), so it reaches
  (h, k) far beyond enumeration; its size is capped by DP_CELL_CAP.
* event_report and tie_map_audit need outcome-level events, so they work
  on one outcome table: every one of the C(h+k-1, k-1) unordered outcomes
  as a row of an (N, k) count array, with its multinomial pmf, and each
  report is masks and sums over that table. Its size is capped at
  ENUMERATION_GUARD = N * k cells.
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

Pmfs are evaluated in log space, in Loader's saddle-point form, and
exponentiated at the end. event_report and tie_map_audit sum over the
table with math.fsum, which is exactly rounded. All equalities carry an
absolute tolerance of 1e-12.
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
    coerce_probs,
    number,
    require_integer,
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
    """The binomial pair requires 1/2 < q < 1 and an integer m >= 1."""


class NegativeHError(HMajorityError, ValueError):
    """A sample size h below 0."""


# Loader's saddle-point form of the Poisson pmf ("Fast and accurate
# computation of binomial probabilities", 2000): for s >= 1,
# log Pois(lam)(s) = -stirlerr(s) - bd0(s, lam) - log(2 pi s) / 2, where
# stirlerr(s) = log s! - log(sqrt(2 pi s) (s/e)^s) and
# bd0(s, lam) = s log(s/lam) + lam - s. Both terms stay small wherever the
# pmf is not negligible, so the log carries a few eps of absolute error at
# any s, where s log(lam) - lam - log s! cancels terms of size s log s.
# stirlerr(n) at n = 1..15, correctly rounded (n = 0 is never read):
_STIRLERR_SMALL = np.array([0.0] + [float.fromhex(v) for v in (
    "0x1.4c071bcda0a5bp-4", "0x1.52a9b923ea649p-5", "0x1.c579a268d80b3p-6",
    "0x1.54a2662fd78a9p-6", "0x1.10b4e513fcbedp-6", "0x1.c6b167bebdf36p-7",
    "0x1.85d4d612e4a86p-7", "0x1.552805e7b3076p-7", "0x1.2f4871b12ab64p-7",
    "0x1.10f9d4c0743a7p-7", "0x1.f0593088014f8p-8", "0x1.c7018733aa9c6p-8",
    "0x1.a40514700f36cp-8", "0x1.86076c002d4a7p-8", "0x1.6c08f6f194a10p-8",
)])
_LOG_2PI = math.log(2.0 * math.pi)
_TINY = np.finfo(np.float64).tiny
# rows of one _log_pmf block: its temporaries stay near 100 bytes a cell
_PMF_ROWS = 1 << 16


def _log_poisson(s, lam) -> np.ndarray:
    """log Pois(lam)(s), elementwise at integers s >= 0 and lam >= 0 with
    lam > 0 wherever s > 0, in Loader's form; -lam at s = 0.

    stirlerr comes from the table up to 15 and from the Stirling series to
    s^-9 above it, whose next term is below 2^-52 of the value. bd0 in its
    direct form errs by about (s + |s - lam|) eps, so above s = 15 and
    where |v| < 0.1, with v = (s - lam)/(s + lam), Loader's series
    (s - lam) v + 2 s v sum_j v^2j/(2j + 1) takes over; its terms past
    j = 8 are below 2^-56 of it.
    """
    s = np.asarray(s)
    lam = np.asarray(lam, dtype=np.float64)
    n = np.maximum(s, 1)
    x = n.astype(np.float64)
    rate = np.maximum(lam, _TINY)
    d = x - rate
    bd0 = np.asarray(x * np.log(x / rate) - d)
    stirlerr = _STIRLERR_SMALL[np.minimum(n, 15)]
    if n.max(initial=1) > 15:
        large = n > 15
        w = 1.0 / (x * x)
        series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - w / 1188) * w) * w) * w) / x
        stirlerr = np.where(large, series, stirlerr)
        v = d / (x + rate)
        near = large & (np.abs(v) < 0.1)
        if near.any():
            d, v, x_near = d[near], v[near], np.broadcast_to(x, near.shape)[near]
            w = v * v
            series = 1 / 17
            for odd in (15, 13, 11, 9, 7, 5, 3):
                series = 1 / odd + w * series
            bd0[near] = d * v + 2.0 * x_near * v * w * series
    return np.where(s > 0, -(stirlerr + bd0 + 0.5 * (_LOG_2PI + np.log(x))), -lam)


@functools.lru_cache(maxsize=64)
def _log_poisson_at_mean(h: int) -> float:
    """log Pois(h)(h)."""
    return float(_log_poisson(h, h))


def _log_pmf(x: np.ndarray, probs) -> np.ndarray:
    """Row-wise log multinomial pmf of the count vectors x, each row with
    its own sum m, and -inf for a row that draws an opinion with p_i = 0.

    By Levin's identity the pmf is prod_i Pois(m p_i)(x_i) divided by
    Pois(m)(m) e^(m (1 - sum p)), so the terms are one _log_poisson over
    the live columns and the row sums, _PMF_ROWS rows at a time.
    """
    p = np.asarray(probs, dtype=np.float64)
    live = p > 0.0
    every = bool(live.all())
    rates = np.append(p if every else p[live], 1.0)
    sign = np.append(np.ones(rates.size - 1), -1.0)  # the row sum's term divides
    excess = math.fsum(p.tolist()) - 1.0
    out = np.empty(len(x))
    for start in range(0, len(x), _PMF_ROWS):
        rows = x[start:start + _PMF_ROWS]
        sums = rows.sum(axis=1)
        counts = rows if every else rows[:, live]
        terms = _log_poisson(np.concatenate((counts, sums[:, None]), axis=1),
                             sums[:, None] * rates)
        out[start:start + len(rows)] = terms @ sign + sums * excess
    if not every:
        out[x[:, ~live].any(axis=1)] = -np.inf
    return out


# The DP's cut: each (opinion i, winning count t) may be left out, trimmed
# or given in closed form when its certified error is below
# _CUT_MASS / ((h + 1) k), so each q_i moves by at most 2 _CUT_MASS / k.
_CUT_MASS = 2.0**-60


def _tail_windows(lam: np.ndarray, level: float, h: int):
    """Integer windows [lo, hi] within 0..h outside which Pois(lam) puts at
    most e^-level on each side. The right tail is sub-gamma with variance
    lam and scale 1/3 and the left one sub-Gaussian, so
    P(X >= lam + sqrt(2 lam level) + level/3) <= e^-level and
    P(X <= lam - sqrt(2 lam level)) <= e^-level; the +-1 absorbs rounding."""
    root = np.sqrt(2.0 * level * lam)
    lo = np.maximum(np.ceil(lam - root) - 1, 0).astype(np.int64)
    hi = np.minimum(np.floor(lam + root + level / 3.0) + 1, h).astype(np.int64)
    return lo, hi


@dataclass(frozen=True, eq=False)
class DPPlan:
    """The certified-window plan of win_distribution's DP at h >= 1 over
    k >= 2 live opinions with Poisson means lam = h p.

    Each opinion keeps the window [lo, hi] outside which its Poisson puts
    at most tau on either side, tau = cut N / k with the cut
    2^-60 / ((h + 1) k) and N = Pois(h)(h) e^(h (1 - sum p)) >= its
    Stirling lower bound; the same bound at sqrt(tau) ends a shallow
    window at hi_sqrt. The prefix/suffix DP runs on the winning counts in
    full: ceil(h/k) <= t, every lo <= t (below, some factor holds at most
    tau), and t within the second-largest hi and the largest hi_sqrt.
    Above that a t is saturated: at most one opinion's window reaches it,
    or every tail at t is below sqrt(tau), so for each opinion i whose
    window holds t the other opinions' mass at or above t costs at most
    (k - 1) tau. There the coefficient is Binomial(h, p_i)(t).
    """

    h: int
    lo: np.ndarray
    hi: np.ndarray
    full: range
    saturated: range

    @functools.cached_property
    def layout(self) -> tuple[np.ndarray, ...]:
        """(t, j, points, width, length) over the winning counts in full.

        j = h // t - 1 bounds how many other opinions can also draw t: the
        degree in u of the tie-split integrand, which takes the points 0,
        1 and (j + 2) // 2 Gauss-Legendre nodes, or one point when j = 0.
        width bounds the factors' windows, min(t, max hi) - min lo + 1,
        and length the product's degree axis,
        min(h - t, sum of min(hi, t) - lo) + 1.
        """
        h, k = self.h, self.lo.size
        t = np.arange(self.full.start, self.full.stop)
        j = h // t - 1
        points = np.where(j == 0, 1, (j + 2) // 2 + 2)
        top = np.sort(self.hi)
        below = np.searchsorted(top, t, side="right")
        reach = np.concatenate(([0], np.cumsum(top)))[below] + t * (k - below)
        length = np.minimum(h - t, reach - self.lo.sum()) + 1
        width = np.minimum(t, top[-1]) - self.lo.min() + 1
        return t, j, points, width, length

    @functools.cached_property
    def geometry(self) -> tuple:
        """The prefix/suffix DP's indices, which depend on the plan only:
        (degrees, inside, at, held, steps).

        Factor l is Pois(lam_l) at degrees[l] where inside, its window
        lo_l..hi_l stored from lo_l, and 0 past hi_l; a_l(t) sits at
        at[r, l] where held[r, l]. For the r-th winning count t in full,
        with deg = h - t, factor l keeps its degrees low..top,
        low = min(lo, t, deg) and top = min(hi, t, deg): w = max(top - low)
        + 1 slots, with keep masking the slots past top where some factor
        is shorter (None where none is; a factor whose window starts above
        min(t, deg) is one zero). ties are the (opinions, slots) of the
        factors that reach degree t, and gather realigns after's degrees to
        before's, deg - sum(low) + low_i - x (None where no shift is
        needed). steps holds (j, n, w, keep, ties, gather) per t, with n
        the product's degree axis from layout.
        """
        h, lo, hi = self.h, self.lo, self.hi
        k = lo.size
        span = np.arange(int((hi - lo).max()) + 1)
        s = lo[:, None] + span
        degrees, inside = np.minimum(s, hi[:, None]), s <= hi[:, None]
        t_full, j_full, _, _, length = self.layout
        tc = t_full[:, None]
        deg = h - tc
        low = np.minimum(lo, np.minimum(tc, deg))
        top = np.minimum(hi, np.minimum(tc, deg))
        width = (top - low).max(axis=1) + 1
        trim = (top - lo < width[:, None] - 1).any(axis=1)
        ties = (top == tc) & (tc <= deg)
        shift = length[:, None] - 1 - deg + low.sum(axis=1, keepdims=True) - low
        held = (lo <= tc) & (tc <= hi)
        at = np.clip(tc - lo, 0, span.size - 1)
        steps = []
        for r, (t, j, n, w) in enumerate(zip(t_full.tolist(), j_full.tolist(),
                                             length.tolist(), width.tolist())):
            keep = span[:w] <= (top[r] - lo)[:, None] if trim[r] else None
            rows = np.flatnonzero(ties[r])
            gather = None
            if shift[r].any():
                gather = n + np.clip(shift[r], -n, n)[:, None] + np.arange(n)
            steps.append((j, n, w, keep, (rows, t - lo[rows]), gather))
        return degrees, inside, at, held, steps

    @functools.cached_property
    def saturated_spans(self) -> tuple[np.ndarray, np.ndarray]:
        """(first, count): each opinion's saturated t, its window within
        the saturated range."""
        first = np.maximum(self.lo, self.saturated.start)
        last = np.minimum(self.hi, self.saturated.stop - 1)
        return first, np.maximum(last - first + 1, 0)

    @functools.cached_property
    def cells(self) -> int:
        """Points x k x (width + length - 1) over the winning counts in
        full, plus one cell for each saturated (opinion, t). With nothing
        cut that is points x k x (h + 1) for each t >= ceil(h/k)."""
        _, _, points, width, length = self.layout
        cells = int((points * (width + length - 1)).sum()) * self.lo.size
        if self.saturated:
            cells += int(self.saturated_spans[1].sum())
        return cells


def live_plan(h: int, probs: np.ndarray) -> DPPlan:
    """The DP plan of win_distribution(h, probs) for a float array probs
    with at least two positive entries at h >= 1, unchecked, with its zeros
    dropped: O(1) where cuts_nothing holds, else O(k) numpy work; the
    layout costs O(len(full)) on use."""
    probs = probs[probs > 0.0]
    k = probs.size
    if cuts_nothing(h, k):
        return _unwindowed_plan(h, k)
    lam = h * probs
    level = _tail_level(h, k, abs(h * (math.fsum(probs.tolist()) - 1.0)))
    lo, hi = _tail_windows(lam, level, h)
    top2, top1 = np.partition(hi, k - 2)[-2:].tolist()
    shallow = int(_tail_windows(lam.max(keepdims=True), level / 2, h)[1][0])
    start = max(int(lo.max()), -(-h // k))
    end = min(top2, shallow)
    return DPPlan(h, lo, hi, range(start, end + 1), range(max(start, end + 1), top1 + 1))


def _tail_level(h: int, k: int, excess: float = 0.0) -> float:
    """ln(1/tau) for the windows of live_plan: tau = cut x N / k with the cut
    2^-60 / ((h + 1) k), through N >= e^(-1/(12h) - excess) / sqrt(2 pi h)
    where excess = |h (sum p - 1)|."""
    return (math.log((h + 1) * k * k / _CUT_MASS)
            + 0.5 * (_LOG_2PI + math.log(h)) + 1.0 / (12 * h) + excess)


def cuts_nothing(h: int, k: int) -> bool:
    """Whether the DP plan at h over k live opinions is the unwindowed one
    whatever their probabilities: every window holds 0..h and every
    shallow one ends at h or beyond (its end at lam = 0 is
    floor(ln(1/tau) / 6) + 1). True up to about h = 8."""
    return 6 * (h - 1) <= _tail_level(h, k)


def full_floor(h: int, k: int, p_max: float) -> int:
    """A lower bound on len(live_plan(h, probs).full) over k live opinions
    whose largest probability is p_max, in O(1). Windows start at 0 up to
    lam = 2 ln(1/tau) and rise with lam above, so none starts after the
    largest opinion's; the second-largest ends no lower than the window of
    lam = 0; the shallow window is the largest opinion's; and ln(1/tau)
    without the sum's excess gives windows within the plan's. The bounds
    of _tail_windows are taken in the same IEEE operations on floats, and
    one t of slack absorbs rounding."""
    level = _tail_level(h, k)
    lam = h * p_max
    lo = max(math.ceil(lam - math.sqrt(2.0 * level * lam)) - 1, 0)
    hi_empty = min(math.floor(level / 3.0) + 1, h)
    shallow = min(math.floor(lam + math.sqrt(level * lam) + level / 6.0) + 1, h)
    return max(min(hi_empty, shallow) - max(lo, -(-h // k)), 0)


@functools.lru_cache(maxsize=64)
def _unwindowed_plan(h: int, k: int) -> DPPlan:
    """Every window 0..h and every t from ceil(h/k) to h in full."""
    return DPPlan(h, np.zeros(k, np.int64), np.full(k, h, np.int64),
                  range(-(-h // k), h + 1), range(0))


def _outcome_table(h: int, probs) -> tuple[np.ndarray, np.ndarray]:
    """(x, pmf) over the whole outcome space.

    x is an (N, k) int64 array of every count vector with sum h, in
    colexicographic order (last coordinate varies slowest), built by stars
    and bars; pmf is its multinomial pmf. Rows that draw an opinion with
    p_i = 0 are dropped. Raises TooLargeError, before allocating, when the
    table would exceed ENUMERATION_GUARD cells.
    """
    k = len(probs)
    require_integer(h, "h", NegativeHError, minimum=0)
    n = math.comb(h + k - 1, k - 1)
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


# leggauss(m) mapped to [0, 1] for m = 1 and 2, bit for bit: the h = 2 and
# h = 3 DPs need no more, so they never import numpy.polynomial or run its
# eigenvalue solver
_GAUSS_LEGENDRE01_SMALL = {
    1: (np.array([0.5]), np.array([1.0])),
    2: (np.array([float.fromhex("0x1.b0cb174df99c8p-3"),
                  float.fromhex("0x1.93cd3a2c8198ep-1")]), np.array([0.5, 0.5])),
}


@functools.lru_cache(maxsize=None)
def _gauss_legendre01(m: int) -> tuple[np.ndarray, np.ndarray]:
    """m Gauss-Legendre nodes and weights on [0, 1], exact for polynomials
    of degree < 2m; numpy.polynomial is imported for m > 2 only."""
    if m in _GAUSS_LEGENDRE01_SMALL:
        return _GAUSS_LEGENDRE01_SMALL[m]
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(m)
    return (x + 1.0) / 2.0, w / 2.0


@functools.lru_cache(maxsize=None)
def _tie_split_points(j: int) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, weights) in u for a winning count that j other opinions can
    also draw: u = 0 for q_strict, u = 1 for q_ties and (j + 2) // 2
    Gauss-Legendre nodes for q, whose integrand has degree j; one point
    when j = 0, where all three agree. weights is (3, points)."""
    if j == 0:
        return np.zeros(1), np.ones((3, 1))
    gl_u, gl_w = _gauss_legendre01((j + 2) // 2)
    nodes = np.concatenate(([0.0, 1.0], gl_u))
    weights = np.zeros((3, nodes.size))
    weights[0, 2:] = gl_w
    weights[1, 0] = 1.0
    weights[2, 1] = 1.0
    return nodes, weights


def win_distribution(h: int, p) -> WinDistribution:
    """Exact adoption law through Levin's Poissonised multinomial.

    With a_l(s) = Pois(h p_l)(s) and N = Pois(h)(h) e^(h (1 - sum p)),
    Pr(X = x) = prod_l a_l(x_l) / N, so the mass of "opinion i draws t and
    every other opinion draws at most t, j of them exactly t", weighted by
    u^j, is a_i(t) / N times
    [z^(h-t)] prod_{l != i} F_l, F_l = sum_{s<t} a_l(s) z^s + u a_l(t) z^t.
    u = 0 gives q_strict, u = 1 gives q_ties, and the u.a.r. tie split
    1/(j+1) = int_0^1 u^j du gives q, integrated exactly by Gauss-Legendre.
    The products over l != i come from prefix and suffix products over the
    opinions, vectorised over the u nodes. Opinions with p_l = 0 never draw
    and are dropped.

    The DP runs over the certified window of live_plan. Each (i, t) is left
    out when its bound a_i(t) prod_{l != i} Pr(Pois(h p_l) <= t) / N is
    below the cut 2^-60 / ((h + 1) k): t below some opinion's window or
    above opinion i's. Each factor keeps only its window, which moves a
    coefficient by at most 2 (k - 1) tau / N. A saturated t is given in
    closed form: prod_{l != i} of the untruncated factors is the
    generating function of Pois(h sum p - h p_i), so the coefficient is
    a_i(t) Pois(h sum p - h p_i)(h - t) / N = Binomial(h, p_i)(t), off by
    at most a_i(t) sum_{l != i} Pr(Pois(h p_l) >= t) / N. With tau = cut
    N / k each (i, t) errs by at most twice the cut, so each of q, q_strict
    and q_ties errs by at most 2^-59 / k an opinion and 2^-59 in total, on
    top of rounding. Up to about h = 8 every window is 0..h and nothing is
    cut (cuts_nothing).
    Raises TooLargeError when the DP would exceed DP_CELL_CAP cells.
    """
    probs = coerce_probs(p)
    k = len(probs)
    require_integer(h, "h", NegativeHError, minimum=0)
    h = int(h)
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
    plan = live_plan(h, probs)
    if plan.cells > DP_CELL_CAP:
        raise TooLargeError(
            f"adoption-law DP at h={h} over {probs.size} live opinions needs "
            f"{plan.cells} cells, above the cap {DP_CELL_CAP}"
        )
    total = math.fsum(probs.tolist())
    # the normaliser Pois(h)(h) e^(h (1 - sum p)): with it the Poisson
    # factors give the multinomial exactly
    log_norm = _log_poisson_at_mean(h) - h * (total - 1.0)
    lam = h * probs
    out = _prefix_suffix_dp(plan, lam) * math.exp(-log_norm)
    # each saturated (i, t) adds Pois(lam_i)(t) Pois(h sum p - lam_i)(h - t)
    # over the normaliser, which is Binomial(h, p_i)(t)
    if plan.saturated:
        first, count = plan.saturated_spans
        owner = np.repeat(np.arange(probs.size), count)
        start = np.repeat(np.cumsum(count) - count, count)  # owner's first index
        t = first[owner] + np.arange(owner.size) - start
        rest = h * total - lam
        log_b = (_log_poisson(t, lam[owner]) + _log_poisson(h - t, rest[owner])
                 - log_norm)
        out += np.bincount(owner, weights=np.exp(log_b), minlength=probs.size)
    return out


def _prefix_suffix_dp(plan: DPPlan, lam: np.ndarray) -> np.ndarray:
    """(3, k) sums over the winning counts in full of a_i(t) times the
    tie-split integrals of [z^(h-t)] prod_{l != i} F_l, each factor F_l cut
    to its window, for Poisson means lam; not yet divided by the
    normaliser."""
    k = lam.size
    out = np.zeros((3, k))
    if not plan.full:
        return out
    degrees, inside, at, held, steps = plan.geometry
    a = np.where(inside, np.exp(_log_poisson(degrees, lam[:, None])), 0.0)
    a_t = np.where(held, a[np.arange(k), at], 0.0)
    for r, (j, n, w, keep, ties, gather) in enumerate(steps):
        nodes, weights = _tie_split_points(j)
        g = nodes.size
        factor = a[:, :w] if keep is None else a[:, :w] * keep
        factor = np.broadcast_to(factor, (g, k, w)).copy()
        factor[:, ties[0], ties[1]] *= nodes[:, None]
        # prefix products in both opinion orders at once: rows 0..g-1 run
        # l = 0..k-1, rows g..2g-1 run l = k-1..0; polynomials sit behind
        # w-1 zeros so a sliding window is one convolution step. A
        # product's row starts at the sum of its factors' low.
        both = np.concatenate((factor, factor[:, ::-1]))[:, :, ::-1]
        prod = np.zeros((2 * g, k, w - 1 + n))
        prod[:, 0, w - 1] = 1.0
        window = np.lib.stride_tricks.sliding_window_view(prod, w, axis=-1)
        for l in range(k - 1):
            np.einsum("gdw,gw->gd", window[:, l], both[:, l], out=prod[:, l + 1, w - 1:])
        before = prod[:g, :, w - 1:]  # opinions < i, by degree
        after = prod[g:, ::-1, w - 1:][:, :, ::-1]  # opinions > i, reversed
        if gather is not None:
            pad = np.zeros((g, k, n))
            after = np.concatenate((pad, after, pad), axis=-1)
            after = np.take_along_axis(after, np.broadcast_to(gather, before.shape), axis=-1)
        coef = np.einsum("gix,gix->gi", before, after)
        out += (weights @ coef) * a_t[r]
    return out


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
    lists those with p_i > p_1 / 2. A non-finite rare_x raises FieldError.
    """
    rare_x = number(rare_x, "rare_x")
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
        rare_x=rare_x,
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

    diff_unconditional = Pr(Y1 > Y2) - Pr(Y2 > Y1) by pmf summation.
    diff_given_max_ge[i] conditions the same difference on
    M = max(Y1, Y2) >= thresholds[i], evaluated through the closed form for
    Pr(Y1 > Y2 | M = j). theory.lemma9_lower(m, 2q - 1) is the paper's
    lower bound on diff_unconditional.
    """

    m: int
    q: float
    diff_unconditional: float
    thresholds: tuple[int, ...]
    diff_given_max_ge: tuple[float, ...]

MAX_PAIR_M = 10**4


def binomial_pair_table(m: int, qs) -> tuple[np.ndarray, tuple[int, ...], np.ndarray]:
    """The binomial-pair kernel for Y1 ~ Bin(m, q), Y2 = m - Y1, vectorised
    over an array qs of q values; the caller checks m and q.

    Returns (diff, thresholds, table): diff[i] = Pr(Y1 > Y2) - Pr(Y2 > Y1)
    at qs[i] by summing the pmf of Y1 <= Y2, thresholds = ceil(m/2)..m, and
    table[i, t] the same difference conditioned on M = max(Y1, Y2) >=
    thresholds[t], through the closed form
    Pr(Y1 > Y2 | M = j) = 1 / (1 + exp(-(2j - m) logit(q))). The pmf is
    a product of three _log_poisson factors, within a few eps of itself at
    any m.
    """
    qs = np.asarray(qs, dtype=np.float64)
    j = np.arange(m + 1)
    # Bin(m, q)(j) = Pois(mq)(j) Pois(m(1 - q))(m - j) / Pois(m)(m); one
    # _log_poisson call over the columns (j, m - j), as per-call overhead
    # dominates at m <= 200
    rates = np.repeat(np.stack((m * qs, m * (1.0 - qs)), axis=1), m + 1, axis=1)
    both = _log_poisson(np.concatenate((j, m - j)), rates)
    pmf = np.exp(both[:, :m + 1] + both[:, m + 1:] - _log_poisson_at_mean(m))
    # 1 - 2 Pr(Y1 < Y2) - Pr(Y1 = Y2): at most 1, and the small side keeps
    # its relative accuracy where the difference nears 1
    diff = 1.0 - 2.0 * pmf[:, : -(-m // 2)].sum(axis=1)
    if m % 2 == 0:
        diff -= pmf[:, m // 2]

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
    require_integer(m, "m", InvalidQError, minimum=1)
    if m > MAX_PAIR_M:
        raise TooLargeError(f"m={m} exceeds the direct-summation cap {MAX_PAIR_M}")
    diff, thresholds, table = binomial_pair_table(m, [q])
    return BinomialPairReport(
        m=int(m),
        q=float(q),
        diff_unconditional=float(diff[0]),
        thresholds=thresholds,
        diff_given_max_ge=tuple(float(v) for v in table[0]),
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

    # images shared by more than one source, each group in table order and
    # the groups in the order of their first source
    sources = x[applicable]
    _, first, group, size = np.unique(
        image[applicable], axis=0,
        return_index=True, return_inverse=True, return_counts=True,
    )
    shared = np.flatnonzero(size > 1)
    collisions = tuple(
        tuple(map(tuple, sources[group.ravel() == g].tolist()))
        for g in shared[np.argsort(first[shared])]
    )
    applied = len(sources)
    return TieMapAudit(
        h=int(h),
        p=probs,
        domain_size=len(x),
        applicable=applied,
        inapplicable=len(x) - applied,
        injective=not collisions,
        collisions=collisions,
        max_ratio_error=max_err,
        strict_prob=strict_prob,
        ties_prob=ties_prob,
        strict_ties_ratio=strict_prob / ties_prob if ties_prob > 0.0 else math.inf,
    )
