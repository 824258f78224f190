"""Configurations, bias statistics, and validity checks shared by every module.

A configuration is the full state of the process at one round: how many of
the n agents support each of the k opinions. All types here are immutable
values and safe to share across concurrent workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class HMajorityError(Exception):
    """Base class for every semantic error raised by this package."""


class SumMismatchError(HMajorityError, ValueError):
    """Counts do not sum to the declared total."""


class EmptySystemError(HMajorityError, ValueError):
    """Zero agents or zero opinions."""


class NotSortedError(HMajorityError, ValueError):
    """The probability vector must be sorted in non-increasing order."""


PROB_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Configuration:
    """Integer opinion counts, indexed by opinion id 1..k, summing to n."""

    counts: tuple[int, ...]
    n: int

    @property
    def k(self) -> int:
        return len(self.counts)

    @classmethod
    def from_counts(cls, counts) -> "Configuration":
        """Build a validated configuration with n inferred from the counts."""
        cfg = cls(counts=tuple(int(c) for c in counts), n=int(sum(counts)))
        validate(cfg)
        return cfg


@dataclass(frozen=True)
class NormalizedConfig:
    """Opinion probabilities p_i = counts_i / n, with n carried along.

    n is kept because several threshold formulas need the absolute system
    size; n = 0 means "not tied to a concrete system".
    """

    probs: tuple[float, ...]
    n: int = 0

    @property
    def k(self) -> int:
        return len(self.probs)

    @classmethod
    def from_probs(cls, probs, n: int = 0) -> "NormalizedConfig":
        p = tuple(float(v) for v in probs)
        if len(p) == 0:
            raise EmptySystemError("no opinions")
        if any(v < 0.0 for v in p):
            raise SumMismatchError(f"negative probability in {p}")
        # fsum: counts/n vectors sum to 1 within one rounding at any k
        total = math.fsum(p)
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise SumMismatchError(f"probabilities sum to {total!r}, not 1")
        return cls(probs=p, n=int(n))


def coerce_probs(p) -> tuple[float, ...]:
    """The probabilities of a NormalizedConfig, or of a sequence validated by
    NormalizedConfig.from_probs (non-empty, non-negative, summing to 1)."""
    if isinstance(p, NormalizedConfig):
        return p.probs
    return NormalizedConfig.from_probs(p).probs


def require_sorted(probs) -> None:
    """Raise NotSortedError unless probs is non-increasing (1e-15 slack)."""
    for a, b in zip(probs, probs[1:]):
        if b > a + 1e-15:
            raise NotSortedError(f"probabilities must be non-increasing, got {probs}")


@dataclass(frozen=True)
class BiasStats:
    """Plurality opinion and bias of a configuration.

    plurality_opinion is the 1-based id of the unique most-supported opinion,
    or None when the maximum is attained by two or more opinions (the tied
    marker). additive_bias is the integer gap between the largest and the
    second-largest count, zero exactly when tied. pairwise_gap[j-1] is
    (count of the leading opinion - count of opinion j) / n, where the
    leading opinion is the lowest-indexed maximum.
    """

    plurality_opinion: int | None
    additive_bias: int
    normalized_bias: float
    pairwise_gap: tuple[float, ...]


def validate(config: Configuration) -> None:
    """Raise unless the configuration invariants hold.

    Raises SumMismatchError when the counts do not sum to n, and
    EmptySystemError when n = 0 or k = 0, or any count is negative.
    """
    if config.k == 0:
        raise EmptySystemError(f"empty system: k={config.k}, n={config.n}")
    if any(c < 0 for c in config.counts):
        raise SumMismatchError(f"negative count in {config.counts}")
    if config.n <= 0:
        raise EmptySystemError(f"empty system: k={config.k}, n={config.n}")
    total = sum(config.counts)
    if total != config.n:
        raise SumMismatchError(f"counts sum to {total}, expected n={config.n}")


def bias_stats(config: Configuration) -> BiasStats:
    """Plurality opinion, additive bias B, and normalized bias B/n.

    B is the largest count minus the second-largest count, computed in
    integer arithmetic; B = 0 if and only if the maximum is shared. For the
    degenerate single-opinion system (k = 1) the pairwise minimum is vacuous
    and we define B = n with opinion 1 as the plurality, which keeps
    consensus-based stopping rules total.
    """
    validate(config)
    counts = config.counts
    n = config.n
    if config.k == 1:
        return BiasStats(
            plurality_opinion=1,
            additive_bias=n,
            normalized_bias=1.0,
            pairwise_gap=(0.0,),
        )
    max_count = max(counts)
    leaders = [i for i, c in enumerate(counts) if c == max_count]
    lead = leaders[0]
    gaps = tuple((max_count - c) / n for c in counts)
    if len(leaders) > 1:
        return BiasStats(
            plurality_opinion=None,
            additive_bias=0,
            normalized_bias=0.0,
            pairwise_gap=gaps,
        )
    second = max(c for i, c in enumerate(counts) if i != lead)
    b = max_count - second
    return BiasStats(
        plurality_opinion=lead + 1,
        additive_bias=b,
        normalized_bias=b / n,
        pairwise_gap=gaps,
    )


def is_consensus(config: Configuration) -> int | None:
    """Return the 1-based opinion id holding all n agents, else None."""
    validate(config)
    for i, c in enumerate(config.counts):
        if c == config.n:
            return i + 1
    return None
