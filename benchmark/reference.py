"""Computations the output checks compare against, written apart from the
package: nothing here imports hmajority."""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import chi2


def adoption_law(h: int, probs) -> list[float]:
    """Exact one-agent adoption law by brute force over all k^h ordered
    sample sequences.

    Each sequence has probability prod_j p[s_j]; its most frequent opinions
    share that mass equally (uniform tie-break). Per-opinion sums use
    math.fsum, so the result is exact to rounding of the inputs.
    """
    p = np.asarray(probs, dtype=np.float64)
    k = p.size
    seqs = np.indices((k,) * h).reshape(h, -1).T  # (k^h, h) opinion ids
    weight = np.prod(p[seqs], axis=1)
    same = seqs[:, :, None] == seqs[:, None, :]
    mult = same.sum(axis=2)  # how often position j's opinion occurs
    first = ~np.tril(same, -1).any(axis=2)  # position j is its first occurrence
    top = (mult == mult.max(axis=1, keepdims=True)) & first
    share = weight / top.sum(axis=1)
    labels = seqs[top]
    contrib = np.broadcast_to(share[:, None], top.shape)[top]
    order = np.argsort(labels, kind="stable")
    bounds = np.searchsorted(labels[order], np.arange(k + 1))
    sorted_contrib = contrib[order]
    return [math.fsum(sorted_contrib[bounds[i]:bounds[i + 1]]) for i in range(k)]


def balanced_plus_bias(n: int, k: int, multiplier: float) -> list[int]:
    """Balanced split of n into k opinions, then B0 agents moved to opinion 1
    evenly from the others, with B0 the least integer such that
    B0 >= multiplier * sqrt(c1), where c1 is opinion 1's final count."""
    counts = [n // k + (1 if i < n % k else 0) for i in range(k)]
    b0 = 0
    if multiplier > 0:
        while b0 < multiplier * math.sqrt(counts[0] + b0):
            b0 += 1
    counts[0] += b0
    take, extra = divmod(b0, k - 1)
    for j in range(1, k):
        counts[j] -= take + (1 if j - 1 < extra else 0)
    return counts


def nearest_rank(values, fraction: float):
    """Smallest value v with at least fraction of the values <= v."""
    ordered = sorted(values)
    if not ordered:
        return None
    for v in ordered:
        if sum(1 for u in ordered if u <= v) >= fraction * len(ordered):
            return v
    return ordered[-1]


def chi_square_pvalue(observed, expected) -> float:
    """Pearson goodness-of-fit p-value over cells with positive expectation."""
    obs = np.asarray(observed, dtype=np.float64)
    exp = np.asarray(expected, dtype=np.float64)
    keep = exp > 0
    stat = float(((obs[keep] - exp[keep]) ** 2 / exp[keep]).sum())
    return float(chi2.sf(stat, int(keep.sum()) - 1))
