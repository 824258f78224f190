"""Bounded-cost random draws: multinomial count vectors (conditional-binomial
chain or alias-table categorical sampling), memory-capped blocks of them,
and the row-wise mode with uniform tie-break.

All randomness flows through RngHandle, a counter-based Philox stream keyed
by (master_seed, stream_id): identical keys give byte-identical draw
sequences regardless of thread schedule, which is what makes sweeps
reproducible under parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import HMajorityError, coerce_probs

_MASK64 = (1 << 64) - 1

# Row batch bound for matrix helpers; callers chunk above this.
MAX_BATCH_CELLS = 1 << 28
# Cell budget of one sample_counts_chunks block: rows x min(k, h).
CHUNK_CELLS = 1 << 22


class InvalidProbError(HMajorityError, ValueError):
    """A sampling request with negative h or rows, an unknown method, or
    more cells than MAX_BATCH_CELLS."""


@dataclass(frozen=True)
class SampleVector:
    """Counts of each opinion among h sampled neighbors."""

    counts: tuple[int, ...]
    h: int

    @property
    def k(self) -> int:
        return len(self.counts)


class RngHandle:
    """Deterministic pseudorandom stream keyed by (master_seed, stream_id).

    Backed by the counter-based Philox generator, so distinct stream ids on
    the same master seed give independent streams without jump-ahead
    bookkeeping. Each handle must be owned by exactly one worker.
    """

    __slots__ = ("master_seed", "stream_id", "gen")

    def __init__(self, master_seed: int, stream_id: int = 0):
        self.master_seed = int(master_seed) & _MASK64
        self.stream_id = int(stream_id) & _MASK64
        key = np.array([self.master_seed, self.stream_id], dtype=np.uint64)
        self.gen = np.random.Generator(np.random.Philox(key=key))

    def spawn(self, stream_id: int) -> "RngHandle":
        """Fresh independent stream under the same master seed."""
        return RngHandle(self.master_seed, stream_id)

    def __repr__(self) -> str:
        return f"RngHandle(master_seed={self.master_seed}, stream_id={self.stream_id})"


def draw_multinomial(h: int, p, rng: RngHandle) -> SampleVector:
    """One exact Multinomial(h, p) draw: a single row of the chain sampler,
    so its cost is O(k) whatever h is."""
    row = sample_counts_matrix(h, p, rng, 1, "chain")[0]
    return SampleVector(counts=tuple(int(c) for c in row), h=int(h))


class AliasTable:
    """Walker alias table: O(k) setup, O(1) per categorical draw.

    Build once per round and share read-only across workers.
    """

    __slots__ = ("k", "accept", "alias")

    def __init__(self, p):
        probs = np.asarray(coerce_probs(p), dtype=np.float64)
        total = probs.sum()
        scaled = probs * (probs.size / total)
        k = probs.size
        accept = np.ones(k, dtype=np.float64)
        alias = np.arange(k, dtype=np.int64)
        small = [i for i in range(k) if scaled[i] < 1.0]
        large = [i for i in range(k) if scaled[i] >= 1.0]
        scaled = scaled.copy()
        while small and large:
            s = small.pop()
            g = large.pop()
            accept[s] = scaled[s]
            alias[s] = g
            scaled[g] = scaled[g] - (1.0 - scaled[s])
            if scaled[g] < 1.0:
                small.append(g)
            else:
                large.append(g)
        # leftovers are 1 up to rounding
        self.k = k
        self.accept = accept
        self.alias = alias

    def draw_ids(self, rng: RngHandle, size) -> np.ndarray:
        """Array of category ids (0-based) with the table's law."""
        idx = rng.gen.integers(0, self.k, size=size)
        u = rng.gen.random(size=size)
        return np.where(u < self.accept[idx], idx, self.alias[idx])


def sample_counts_matrix(
    h: int, p, rng: RngHandle, rows: int, method: str = "auto"
) -> np.ndarray:
    """(rows, k) matrix of independent Multinomial(h, p) draws.

    method "chain" runs the conditional-binomial chain vectorized over rows
    (O(k) per row); "categorical" draws h category ids per row through an
    alias table (O(h) per row after O(k) setup). "auto" picks chain when
    k <= h, categorical otherwise, which keeps per-row cost O(min(k, h)).
    """
    probs = np.asarray(coerce_probs(p), dtype=np.float64)
    if h < 0:
        raise InvalidProbError(f"h must be >= 0, got {h}")
    if rows < 0:
        raise InvalidProbError(f"rows must be >= 0, got {rows}")
    k = probs.size
    if method == "auto":
        method = "chain" if k <= h else "categorical"
    if method == "chain":
        if rows * k > MAX_BATCH_CELLS:
            raise InvalidProbError("batch too large; chunk the rows")
        out = np.zeros((rows, k), dtype=np.int64)
        remaining = np.full(rows, int(h), dtype=np.int64)
        rem_p = 1.0
        for i in range(k - 1):
            pi = float(probs[i])
            if pi <= 0.0:
                continue
            if rem_p <= pi:
                out[:, i] = remaining
                remaining = np.zeros(rows, dtype=np.int64)
                rem_p = 0.0
                continue
            x = rng.gen.binomial(remaining, pi / rem_p)
            out[:, i] = x
            remaining = remaining - x
            rem_p -= pi
        out[:, k - 1] += remaining
        return out
    if method == "categorical":
        if rows * max(h, 1) > MAX_BATCH_CELLS:
            raise InvalidProbError("batch too large; chunk the rows")
        if h == 0:
            return np.zeros((rows, k), dtype=np.int64)
        table = AliasTable(probs)
        ids = table.draw_ids(rng, (rows, h))
        flat = ids + (np.arange(rows, dtype=np.int64) * k)[:, None]
        counts = np.bincount(flat.ravel(), minlength=rows * k)
        return counts.reshape(rows, k).astype(np.int64)
    raise InvalidProbError(f"unknown sampling method {method!r}")


def sample_counts_chunks(h: int, p, rng: RngHandle, n: int):
    """Yield sample_counts_matrix blocks ("auto" method) whose rows total n.

    Each block has min(65536, CHUNK_CELLS // min(k, h)) rows, the last one
    fewer, so rows x min(k, h), the sampler's per-row work, stays within
    CHUNK_CELLS. Every block is still a (rows, k) count matrix. Blocks are
    drawn from rng in order, so the stream depends only on (h, p, n).
    """
    probs = np.asarray(coerce_probs(p), dtype=np.float64)
    width = max(1, min(probs.size, h))
    rows_per_chunk = min(1 << 16, max(1, CHUNK_CELLS // width))
    done = 0
    while done < n:
        rows = min(rows_per_chunk, n - done)
        yield sample_counts_matrix(h, probs, rng, rows)
        done += rows


def argmax_rows_with_tiebreak(counts: np.ndarray, rng: RngHandle) -> np.ndarray:
    """Per-row argmax (0-based) with exact uniform tie-breaking.

    Rows with m tied maxima pick each with probability 1/m using one uniform
    integer per tied row.
    """
    rowmax = counts.max(axis=1)
    winners = counts.argmax(axis=1)
    is_max = counts == rowmax[:, None]
    m = is_max.sum(axis=1)
    tied = np.nonzero(m > 1)[0]
    if tied.size:
        u = rng.gen.integers(0, m[tied])
        cumulative = np.cumsum(is_max[tied], axis=1)
        winners[tied] = np.argmax(cumulative == (u + 1)[:, None], axis=1)
    return winners
