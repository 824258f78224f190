"""Independent reference implementations used only as test oracles.

These deliberately avoid the library's code paths: the win distribution and
the event-report quantities are computed by enumerating all k^h ordered
sample sequences, pmfs come from
exact Fraction arithmetic, and the conditional pair differences are summed
directly from scipy's binomial pmf with indicator events.
"""

from fractions import Fraction
import itertools
import math

from scipy.stats import binom


def naive_win_distribution(h, probs):
    """Adoption law by brute force over ordered sequences, tie split 1/m."""
    k = len(probs)
    q = [0.0] * k
    q_strict = [0.0] * k
    q_ties = [0.0] * k
    pair = 0.0
    for seq in itertools.product(range(k), repeat=h):
        prob = 1.0
        for i in seq:
            prob *= probs[i]
        if prob == 0.0:
            continue
        counts = [0] * k
        for i in seq:
            counts[i] += 1
        top = max(counts)
        leaders = [i for i in range(k) if counts[i] == top]
        share = prob / len(leaders)
        for i in leaders:
            q[i] += share
            q_ties[i] += prob
        if len(leaders) == 1:
            q_strict[leaders[0]] += prob
            if leaders[0] < 2:
                pair += prob
    return q, q_strict, q_ties, pair


def exact_multinomial_pmf_fraction(x, h, prob_fractions):
    """Multinomial pmf in exact rational arithmetic."""
    if sum(x) != h:
        raise ValueError("counts must sum to h")
    value = Fraction(math.factorial(h))
    for xi, pi in zip(x, prob_fractions):
        value /= math.factorial(xi)
        value *= Fraction(pi) ** xi
    return value


def naive_pair_diffs(m, q):
    """Unconditional and max-conditioned comparison differences.

    Uses scipy's pmf and direct indicator sums; no closed-form shortcut.
    Returns (diff_unconditional, thresholds, diffs).
    """
    pmf = binom.pmf(range(m + 1), m, q)
    diff_uncond = sum(pmf[j] - pmf[m - j] for j in range(m + 1) if 2 * j > m)
    lo = math.ceil(m / 2)
    thresholds = list(range(lo, m + 1))
    diffs = []
    for i in thresholds:
        num = 0.0
        den = 0.0
        for j in range(m + 1):
            big = max(j, m - j)
            if big < i:
                continue
            den += pmf[j]
            if j > m - j:
                num += pmf[j]
            elif m - j > j:
                num -= pmf[j]
        diffs.append(num / den if den > 0 else 0.0)
    return diff_uncond, thresholds, diffs


def random_simplex(rng, k):
    """A uniform point on the k-simplex."""
    raw = rng.dirichlet([1.0] * k)
    vec = [float(v) for v in raw]
    vec[-1] += 1.0 - sum(vec)
    return tuple(vec)


def naive_event_report(h, probs):
    """Event-report and tie-map quantities by brute force over the k^h
    ordered sample sequences, straight from their definitions.

    Returns a dict with every float field of EventReport
    (cond_diff_majority, cond_diff_comparison, sum_tail_conditional,
    sum_tail_unconditional, sum_threshold, strict_pair_prob,
    unconditional_diff) and the tie-map fields strict_prob, ties_prob and
    domain_size. The conditioning event is "opinion 1 or opinion 2 is the
    unique maximum"; the tie split is 1/m over the m maxima.
    """
    k = len(probs)
    threshold = h * (probs[0] + probs[1]) / 2.0
    pair = win_1 = win_2 = cmp_12 = cmp_21 = tail_pair = tail = 0.0
    q1 = q2 = strict_1 = ties_1 = 0.0
    one_tie = set()
    for seq in itertools.product(range(k), repeat=h):
        prob = 1.0
        for i in seq:
            prob *= probs[i]
        if prob == 0.0:
            continue
        counts = [seq.count(i) for i in range(k)]
        top = max(counts)
        leaders = [i for i in range(k) if counts[i] == top]
        if 0 in leaders:
            q1 += prob / len(leaders)
            ties_1 += prob
            if len(leaders) == 1:
                strict_1 += prob
            else:
                one_tie.add(tuple(counts))
        if 1 in leaders:
            q2 += prob / len(leaders)
        in_tail = counts[0] + counts[1] >= threshold
        if in_tail:
            tail += prob
        if leaders in ([0], [1]):
            pair += prob
            if leaders == [0]:
                win_1 += prob
            else:
                win_2 += prob
            if counts[0] > counts[1]:
                cmp_12 += prob
            elif counts[1] > counts[0]:
                cmp_21 += prob
            if in_tail:
                tail_pair += prob
    return {
        "cond_diff_majority": (win_1 - win_2) / pair if pair > 0 else 0.0,
        "cond_diff_comparison": (cmp_12 - cmp_21) / pair if pair > 0 else 0.0,
        "sum_tail_conditional": tail_pair / pair if pair > 0 else 0.0,
        "sum_tail_unconditional": tail,
        "sum_threshold": threshold,
        "strict_pair_prob": pair,
        "unconditional_diff": q1 - q2,
        "strict_prob": strict_1,
        "ties_prob": ties_1,
        "domain_size": len(one_tie),
    }
