"""Independent reference implementations used only as test oracles.

These deliberately avoid the library's code paths: the win distribution and
the event-report quantities are computed by enumerating all k^h ordered
sample sequences, pmfs come from
exact Fraction or integer arithmetic, and the conditional pair differences are summed
directly from scipy's binomial pmf with indicator events. The multi-round
law comes from the absorbing Markov chain on whole configurations. At
larger h the adoption law comes from the unwindowed Poissonised DP over
40-digit decimal Poisson factors, and at k = 2 from scipy's binomial tails.
"""

from decimal import Decimal, localcontext
from fractions import Fraction
import itertools
import math

import numpy as np
from numpy.polynomial.legendre import leggauss
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


def poisson_pmf_decimal(lam, top):
    """Pois(lam)(s) for s = 0..top from 40-digit decimal logarithms of the
    exact binary value of lam, each rounded to a float."""
    with localcontext() as ctx:
        ctx.prec = 40
        rate = Decimal(lam)
        log_rate = rate.ln()
        log_fact = Decimal(0)
        out = []
        for s in range(top + 1):
            if s:
                log_fact += Decimal(s).ln()
            out.append(float((s * log_rate - rate - log_fact).exp()))
    return np.array(out)


def unwindowed_win_distribution(h, probs):
    """(q, q_strict, q_ties) from Levin's Poissonised multinomial with no
    cut: every winning count t = ceil(h/k)..h and every factor over its
    full degree range 0..min(t, h - t), for h >= 1 and k >= 2 positive
    probabilities.

    q_i sums a_i(t) [z^(h-t)] prod_{l != i} (sum_{s<t} a_l(s) z^s
    + u a_l(t) z^t) / Pois(h)(h) e^(h (1 - sum p)) over t, with the tie
    split 1/(j+1) = int_0^1 u^j du from numpy's Gauss-Legendre nodes, each
    product over l != i from the product of all but i in one pass from each
    side. The Poisson factors come from poisson_pmf_decimal.
    """
    k = len(probs)
    lam = [h * p for p in probs]
    a = np.array([poisson_pmf_decimal(v, h) for v in lam])
    norm = poisson_pmf_decimal(float(h), h)[h] * math.exp(h * (1.0 - math.fsum(probs)))
    out = np.zeros((3, k))
    for t in range(-(-h // k), h + 1):
        deg = h - t
        m = (h // t + 1) // 2 + 1  # exact for the tie degree, at most h // t - 1
        x, w = leggauss(m)
        nodes = np.concatenate(([0.0, 1.0], (x + 1.0) / 2.0))
        weights = np.zeros((3, nodes.size))
        weights[0, 2:] = w / 2.0
        weights[1, 0] = weights[2, 1] = 1.0
        width = min(t, deg) + 1
        factors = np.repeat(a[None, :, :width], nodes.size, axis=0)
        if t <= deg:
            factors[:, :, t] *= nodes[:, None]
        for g in range(nodes.size):
            front = [np.ones(1)]
            for l in range(k - 1):
                front.append(np.convolve(front[-1], factors[g, l])[:deg + 1])
            back = [np.ones(1)]
            for l in range(k - 1, 0, -1):
                back.append(np.convolve(back[-1], factors[g, l])[:deg + 1])
            for i in range(k):
                prod = np.convolve(front[i], back[k - 1 - i])
                coef = prod[deg] if deg < prod.size else 0.0
                out[:, i] += weights[:, g] * coef * a[i, t]
    return out / norm


def binomial_majority(h, p1):
    """(q_1, q_1 strict, q_1 with ties) of opinion 1 of two at sample
    size h: Pr(Bin(h, p1) > h/2) + Pr(= h/2) / 2, Pr(> h/2) and Pr(>= h/2),
    from scipy's binomial survival function and pmf."""
    above = binom.sf(h // 2, h, p1)
    tie = binom.pmf(h // 2, h, p1) if h % 2 == 0 else 0.0
    return above + tie / 2.0, above, above + tie


def exact_multinomial_pmf_fraction(x, h, prob_fractions):
    """Multinomial pmf in exact rational arithmetic."""
    if sum(x) != h:
        raise ValueError("counts must sum to h")
    value = Fraction(math.factorial(h))
    for xi, pi in zip(x, prob_fractions):
        value /= math.factorial(xi)
        value *= Fraction(pi) ** xi
    return value


def exact_binomial_pmf(r, q, cols):
    """P(Binomial(r, q) = x) for x in 0..cols - 1 and the upper tail
    P(Binomial(r, q) >= cols), each correctly rounded to a float.

    Integer arithmetic on the exact binary value a / d of the float q:
    comb(r, x) a^x (d - a)^(r - x) / d^r, no Pascal rule and no logs.
    """
    exact = Fraction(q)
    a, d = exact.numerator, exact.denominator
    scale = d**r
    terms = [math.comb(r, x) * a**x * (d - a) ** (r - x) for x in range(min(cols, r + 1))]
    pmf = [t / scale for t in terms] + [0.0] * (cols - len(terms))
    return pmf, (scale - sum(terms)) / scale


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
    unconditional_diff) and the tie-map fields strict_prob, ties_prob,
    domain_size, applicable and collisions (the sorted source groups that
    share an image, each sorted). The conditioning event is "opinion 1 or
    opinion 2 is the unique maximum"; the tie split is 1/m over the m
    maxima. The tie map moves one sample from the donor, the last strong
    opinion (p_i > p_1/2) with the smallest count, to opinion 1, and applies
    where the donor is not opinion 1 and holds a sample.
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
    strong = [i for i in range(k) if probs[i] > probs[0] / 2.0]
    sources = {}
    for counts in one_tie:
        low = min(counts[i] for i in strong)
        donor = max(i for i in strong if counts[i] == low)
        if donor != 0 and counts[donor] > 0:
            image = list(counts)
            image[0] += 1
            image[donor] -= 1
            sources.setdefault(tuple(image), []).append(counts)
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
        "applicable": sum(map(len, sources.values())),
        "collisions": sorted(sorted(s) for s in sources.values() if len(s) > 1),
    }


def compositions(n, k):
    """Every count vector of n agents over k opinions, as tuples."""
    if k == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in compositions(n - first, k - 1):
            yield (first, *rest)


def consensus_chain(start, h, horizon):
    """Exact law of the h-majority run from the configuration start.

    The states are the compositions of n into k parts. From x, every agent
    adopts opinion i with probability q_i(x) (naive_win_distribution at
    x/n) independently, so row x of the transition matrix is the
    Multinomial(n, q(x)) pmf, written from math.lgamma. The k consensus
    states are absorbing; with Q the transient block and R the block into
    consensus, N = (I - Q)^-1 gives the winner law N R and E[T] = N 1
    (Kemeny and Snell, Finite Markov Chains, ch. III).

    Returns (win, expected_rounds, round_pmf): win[i] is P(opinion i + 1
    wins), and round_pmf[r] is P(T = r) for r = 0..horizon, with T the
    first round at consensus.
    """
    n, k = sum(start), len(start)
    states = list(compositions(n, k))
    x = np.array(states, dtype=np.int64)
    log_fact = np.array([math.lgamma(c + 1) for c in range(n + 1)])
    log_coef = log_fact[n] - log_fact[x].sum(axis=1)
    P = np.empty((len(states), len(states)))
    for row, state in enumerate(states):
        q = np.array(naive_win_distribution(h, [c / n for c in state])[0])
        log_q = np.log(np.where(q > 0, q, 1.0))
        impossible = ((x > 0) & (q == 0)).any(axis=1)
        P[row] = np.where(impossible, 0.0, np.exp(log_coef + x @ log_q))
    absorbing = [states.index(tuple(n if j == i else 0 for j in range(k)))
                 for i in range(k)]
    transient = [i for i in range(len(states)) if i not in absorbing]
    Q = P[np.ix_(transient, transient)]
    R = P[np.ix_(transient, absorbing)]
    origin = states.index(tuple(start))
    round_pmf = np.zeros(horizon + 1)
    if origin in absorbing:
        round_pmf[0] = 1.0
        return [float(c == n) for c in start], 0.0, round_pmf
    fundamental = np.eye(len(transient)) - Q
    i0 = transient.index(origin)
    win = np.linalg.solve(fundamental, R)[i0]
    expected = np.linalg.solve(fundamental, np.ones(len(transient)))[i0]
    mass = np.zeros(len(transient))
    mass[i0] = 1.0
    for r in range(1, horizon + 1):
        round_pmf[r] = (mass @ R).sum()
        mass = mass @ Q
    return [float(w) for w in win], float(expected), round_pmf
