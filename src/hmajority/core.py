"""Configurations, bias statistics, validity checks and JSON field readers.

A configuration is the full state of the process at one round: how many of
the n agents support each of the k opinions. It is valid by construction:
Configuration runs validate once, when it is built, so every function that
takes one relies on its invariants without checking them again. All types
here are immutable values and safe to share across concurrent workers.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass


class HMajorityError(Exception):
    """Base class for every semantic error raised by this package."""


class SumMismatchError(HMajorityError, ValueError):
    """Counts do not sum to the declared total."""


class EmptySystemError(HMajorityError, ValueError):
    """Zero agents or zero opinions."""


class NotSortedError(HMajorityError, ValueError):
    """The probability vector must be sorted in non-increasing order."""


class FieldError(HMajorityError, ValueError):
    """An input field is missing or holds a value outside its type."""


PROB_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Configuration:
    """Integer opinion counts, indexed by opinion id 1..k, summing to n.

    Valid by construction: building one with no opinions, a negative count,
    n <= 0 or counts that do not sum to n raises the error validate names.
    """

    counts: tuple[int, ...]
    n: int

    def __post_init__(self):
        validate(self)

    @property
    def k(self) -> int:
        return len(self.counts)

    @classmethod
    def from_counts(cls, counts) -> "Configuration":
        """Build a configuration with n inferred from the counts, which are
        read as integers reads them (FieldError, not truncation)."""
        counts = integers(counts, "counts")
        return cls(counts=counts, n=sum(counts))


# Field readers for every JSON input: the simulate config, the sweep spec
# and record lines. Each raises the caller's error class, naming the field.


def json_object(data, fields, schema_version, error) -> dict:
    """data, checked to be an object with keys only from fields, at schema_version."""
    if not isinstance(data, dict):
        raise error(f"the top level must be a JSON object, got {data!r:.80}")
    unknown = set(data) - set(fields)
    if unknown:
        raise error(f"unknown fields: {sorted(unknown)}")
    if data.get("schema_version") != schema_version:
        raise error(f"unsupported schema_version {data.get('schema_version')!r}")
    return data


def integer(value, name: str, error=FieldError, optional: bool = False) -> int | None:
    """value read as an integer field: a Python or numpy integer, or a float
    without a fractional part (2.0, 2e1); not a bool, a string or 3.7. A
    missing field (None) is read only when optional."""
    if type(value) is int or isinstance(value, float) and value.is_integer():
        return int(value)
    require_integer(value, name, error, optional)
    return None if value is None else int(value)


def require_integer(value, name: str, error=FieldError, optional: bool = False,
                    minimum: int | None = None) -> None:
    """Raise error unless value is a Python or numpy integer: the type check
    of a dataclass's integer field and of every size argument, which takes
    no bool, string or float, and, when minimum is given, is at least
    minimum. None passes only when optional."""
    if optional and value is None:
        return
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"'{name}' must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise error(f"{name} must be >= {minimum}, got {value}")


def integers(values, name: str, error=FieldError) -> tuple[int, ...]:
    """values read as a list of integer fields, returned as a tuple."""
    if isinstance(values, str) or not hasattr(values, "__iter__"):
        raise error(f"'{name}' must be a list of integers, got {values!r}")
    return tuple(v if type(v) is int else integer(v, name, error) for v in values)


def number(value, name: str, error=FieldError, optional: bool = False) -> float | None:
    """value read as a finite number field; a bool is not a number."""
    if optional and value is None:
        return None
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Real) and math.isfinite(value)
    ):
        raise error(f"'{name}' must be a finite number, got {value!r}")
    return float(value)


def coerce_probs(p) -> tuple[float, ...]:
    """p as a tuple of floats, checked to be non-empty, finite, non-negative
    and summing to 1 (within PROB_SUM_TOL)."""
    probs = tuple(float(v) for v in p)
    if not probs:
        raise EmptySystemError("no opinions")
    if not all(map(math.isfinite, probs)):  # a NaN fails no comparison below
        raise SumMismatchError(f"non-finite probability in {probs}")
    if any(v < 0.0 for v in probs):
        raise SumMismatchError(f"negative probability in {probs}")
    # fsum: counts/n vectors sum to 1 within one rounding at any k
    total = math.fsum(probs)
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise SumMismatchError(f"probabilities sum to {total!r}, not 1")
    return probs


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
    second-largest count, zero exactly when tied.
    """

    plurality_opinion: int | None
    additive_bias: int
    normalized_bias: float


def validate(config: Configuration) -> None:
    """Raise unless the configuration invariants hold.

    Raises SumMismatchError when a count is negative or the counts do not
    sum to n, and EmptySystemError when k = 0 or n <= 0. Configuration
    calls it once, when it is built.
    """
    counts = config.counts
    if config.k == 0:
        raise EmptySystemError(f"empty system: k={config.k}, n={config.n}")
    if min(counts) < 0:
        raise SumMismatchError(f"negative count in {counts}")
    if config.n <= 0:
        raise EmptySystemError(f"empty system: k={config.k}, n={config.n}")
    total = sum(counts)
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
    counts = config.counts
    n = config.n
    if config.k == 1:
        return BiasStats(plurality_opinion=1, additive_bias=n, normalized_bias=1.0)
    max_count = max(counts)
    if counts.count(max_count) > 1:
        return BiasStats(plurality_opinion=None, additive_bias=0, normalized_bias=0.0)
    lead = counts.index(max_count)
    b = max_count - max(counts[:lead] + counts[lead + 1:])
    return BiasStats(plurality_opinion=lead + 1, additive_bias=b, normalized_bias=b / n)


def is_consensus(config: Configuration) -> int | None:
    """Return the 1-based opinion id holding all n agents, else None."""
    counts = config.counts
    if max(counts) == config.n:
        return counts.index(config.n) + 1
    return None
