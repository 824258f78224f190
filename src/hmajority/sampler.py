"""Bounded-cost random draws: multinomial count vectors from numpy's own
multinomial kernel, memory-capped blocks of them or of raw category ids,
and sample_modes, the one agent-mode kernel: the modes, with uniform
tie-break, of n samples of h opinions, for the rounds of dynamics.step and
the one-agent events of montecarlo.sample_win_events. Its path rule is
draws_take_ids: the conditional-binomial chain for k <= h, the draw ids
for k > h.

All randomness flows through RngHandle, a counter-based Philox stream keyed
by (master_seed, stream_id): identical keys give byte-identical draw
sequences regardless of thread schedule, which is what makes sweeps
reproducible under parallelism.

The modes of k <= h rounds come from the chain without a count matrix
(sample_chain_modes). It walks the opinions in descending probability, and
a row leaves the chain once its top count exceeds its remaining draws: no
undrawn count can then reach the top, so the set of maxima is fixed. A
tied row takes one uniform draw.

Each chain step is a Binomial(remaining, q) draw. For h <= _TABLE_MAX_H
(255) it is an inversion from per-call tables (_BinomialTables): the CDF
of Binomial(r, q) for every r in 0..h from Pascal's rule, each entry
within about (h + 1) eps of the exact one and less than 2^-53 of upper
tail cut, and a byte guide table that makes a draw O(1): one uniform and
fewer than 2 compares on average. Tables cover the steps whose cells fit
_TABLE_CELLS; larger h and the other steps draw from numpy's binomial,
whose inversion costs O(r q) steps while r min(q, 1 - q) <= 30.

A chain call splits more than SUB_BLOCK_ROWS rows into sub-blocks of that
many rows and draws them on a thread pool that lives for the call only
(_run_sub_blocks), the only threaded path here. Each sub-block returns
its own rows, which the block joins in order, and the stream rule does not
depend on the thread count: a call of at most one sub-block draws from the
caller's generator; a larger one takes a single 63-bit key from it, and
sub-block j draws from RngHandle(key, j).

The ids of k > h rounds are the opinions of uniform units of integer
weight, one random integer each, found by indexed search from a guide
table over the cumulative weights (sample_draw_chunks): exact for counts,
and within about k 2^-62 for probabilities. Up to CHUNK_CELLS agents the
guide is the table of the n agents' opinions and a draw needs no search.

The mode from the ids needs no random draw: among tied maxima the id drawn
first wins. Rows of at most _PAIRWISE_MAX_H ids compare every pair of
id columns once and count matches per draw position in bytes; longer rows
sort each row's (id, position) keys. Both return the same winners, counts,
tie sizes and first_is_top, in O(rows x h) memory.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .core import HMajorityError, coerce_probs, require_integer

_MASK64 = (1 << 64) - 1

# Cell budget of one block: rows x k counts or rows x h draw ids. It also
# caps the total weight whose draw-id guide table holds one slot a unit,
# the table of the agents' opinions (sample_draw_chunks).
CHUNK_CELLS = 1 << 22

# Rows of one chain sub-block: the unit of the stream rule and of the work
# a thread takes.
SUB_BLOCK_ROWS = 1 << 14

# Longest row whose mode comes from pairwise comparisons: h(h-1)/2 column
# compares against the sort's O(h log h) a row. At 10 000 and 65 536 rows
# the pairwise kernel is faster up to h = 24 for any id width (BENCH_13.json).
# Counts and draw positions must fit in a byte, so it is at most 255.
_PAIRWISE_MAX_H = 24

# Largest h whose chain steps draw from _BinomialTables: inversion from a
# guide table, O(1) a draw, where numpy's binomial inverts from 0 up in
# O(h q) steps while h min(q, 1 - q) <= 30; at h = 5..255 a table draw
# took 20-60 ns against numpy's 31-136 ns (BENCH_19.json). Table columns
# and guide entries must fit in a byte, so it is at most 255.
_TABLE_MAX_H = 255

# Cells of one call's _BinomialTables, 9 bytes each (a float64 CDF entry
# and a guide byte): 4.5 MiB. At k = h = 255 the tables of all 254 steps
# could take 143 MiB; steps past the budget draw from numpy instead.
_TABLE_CELLS = 1 << 19

# Threads a sample_chain_modes call may use; None means the usable cores.
# Sweep worker processes set it to 1.
MAX_THREADS: int | None = None


class InvalidProbError(HMajorityError, ValueError):
    """A sampling request with negative h or rows."""


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

    def __repr__(self) -> str:
        return f"RngHandle(master_seed={self.master_seed}, stream_id={self.stream_id})"


def draw_multinomial(h: int, p, rng: RngHandle) -> tuple[int, ...]:
    """One exact Multinomial(h, p) draw as a counts tuple: a single row of
    sample_counts_matrix, so its cost is O(k) whatever h is."""
    return tuple(sample_counts_matrix(h, p, rng, 1)[0].tolist())


def sample_counts_matrix(h: int, p, rng: RngHandle, rows: int) -> np.ndarray:
    """(rows, k) matrix of independent Multinomial(h, p) draws.

    One Generator.multinomial call on the caller's generator, on one
    thread: numpy's kernel runs the conditional-binomial chain row by row,
    O(k) per row whatever h is. Callers bound rows x k through
    sample_counts_chunks. Rounds and one-agent events take their modes from
    sample_modes and never build this matrix.
    """
    probs = np.asarray(coerce_probs(p), dtype=np.float64)
    require_integer(h, "h", InvalidProbError, minimum=0)
    require_integer(rows, "rows", InvalidProbError, minimum=0)
    # coerce_probs lets an entry exceed 1 by its sum tolerance; numpy does not
    np.minimum(probs, 1.0, out=probs)
    return rng.gen.multinomial(h, probs, size=rows)


def _run_sub_blocks(rows: int, rng: RngHandle, draw) -> list:
    """[draw(sub_rows, gen)] over the sub-blocks that cover rows rows, in
    order: the stream rule of every sample_chain_modes block.

    At most SUB_BLOCK_ROWS rows are one sub-block drawn from rng itself.
    More rows are split into sub-blocks of SUB_BLOCK_ROWS rows (the last one
    fewer): one 63-bit key is drawn from rng, and sub-block j draws from
    RngHandle(key, j), on up to min(usable cores, sub-blocks) threads of a
    pool that is shut down before the call returns. Each sub-block returns
    its own rows, so the result does not depend on the thread count.
    """
    if rows <= SUB_BLOCK_ROWS:
        return [draw(rows, rng.gen)]
    key = int(rng.gen.integers(0, 1 << 63))
    sub_blocks = range(-(-rows // SUB_BLOCK_ROWS))

    def run(j: int):
        sub_rows = min(SUB_BLOCK_ROWS, rows - j * SUB_BLOCK_ROWS)
        return draw(sub_rows, RngHandle(key, stream_id=j).gen)

    threads = min(MAX_THREADS or _usable_cores(), len(sub_blocks))
    if threads <= 1:
        return [run(j) for j in sub_blocks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(run, sub_blocks))  # re-raises a worker's error


def sample_chain_modes(h: int, p, rng: RngHandle, n: int):
    """Yield (winner, top, ties, first_is_top) blocks of n agents' modes
    of Multinomial(h, p) samples, the rows of k <= h rounds.

    winner, top and ties are those of mode_of_draws: the adopted opinion
    (0-based), its count and the number of opinions at that count, with
    one uniform draw among tied maxima. first_is_top tells whether opinion
    1 holds the top count. Blocks have _block_rows(k, n) rows and follow
    the stream rule of _run_sub_blocks.

    Each sub-block walks the conditional-binomial chain over the live
    opinions in descending probability (a stable sort), keeping each row's
    running top count. A row whose top exceeds its remaining draws leaves
    the chain: it draws no further binomial. This is exact, since every
    undrawn count is at most remaining < top, so the set of maxima is
    already fixed, and reading an undrawn count as 0 can neither make nor
    undo a tie. Near consensus most rows leave after the first opinion.
    """
    probs = np.asarray(coerce_probs(p), dtype=np.float64)
    require_integer(h, "h", InvalidProbError, minimum=0)
    k = probs.size
    order = np.argsort(-probs, kind="stable")
    ranked = probs[order]
    live = int(np.count_nonzero(ranked))
    # p_i / (p_i + ... + p_last live), the tail summed from its small end
    tail = np.cumsum(ranked[live - 1 :: -1])[::-1]
    step_p = ranked[: live - 1] / tail[: live - 1]
    first = int(np.flatnonzero(order == 0)[0])
    tables = _BinomialTables(h, step_p)

    def draw(rows: int, gen):
        counts, best = _chain_counts(rows, h, step_p, tables, k, gen)
        rank, ties = _argmax_tiebreak(counts.T, best, gen)
        return order[rank], best, ties, counts[first] == best

    for rows in _block_rows(k, n):
        parts = _run_sub_blocks(rows, rng, draw)
        block = parts[0] if len(parts) == 1 else tuple(map(np.concatenate, zip(*parts)))
        del parts  # not to be held while the caller reads the block
        yield block


def _chain_counts(rows: int, h: int, step_p: np.ndarray, tables, k: int, gen):
    """(k, rows) chain counts in ranked opinion order and each row's top
    count, with rows leaving the chain once their top exceeds their
    remaining draws (sample_chain_modes). step_p holds the conditional
    probabilities of all live opinions but the last, which takes the rest;
    the counts of the dead opinions, ranked last, stay 0.

    Step i draws Binomial(remaining, step_p[i]) from the guide table of
    tables (_BinomialTables), one uniform a row, while i < tables.steps:
    every step when h <= _TABLE_MAX_H, unless the tables would pass
    _TABLE_CELLS. Its law is that of the exact binomial to about
    (h + 1) eps in each CDF entry, with less than 2^-53 of upper tail cut.
    Other steps draw from numpy's binomial (BTPE, or inversion from 0 up
    while remaining x min(q, 1 - q) <= 30)."""
    counts = np.zeros((k, rows), dtype=np.int64)
    top = np.zeros(rows, dtype=np.int64)
    at = np.arange(rows)  # rows still in the chain
    remaining = np.full(rows, int(h), dtype=np.int64)
    best = np.zeros(rows, dtype=np.int64)
    for i, pi in enumerate(step_p):
        if i < tables.steps:
            x = tables.draw(i, remaining, gen)
        else:
            x = gen.binomial(remaining, pi)
        counts[i, at] = x
        remaining -= x
        np.maximum(best, x, out=best)
        out_of_reach = best > remaining
        if out_of_reach.any():
            top[at[out_of_reach]] = best[out_of_reach]
            stay = ~out_of_reach
            at, remaining, best = at[stay], remaining[stay], best[stay]
    counts[step_p.size, at] = remaining
    top[at] = np.maximum(best, remaining)
    return counts, top


class _BinomialTables:
    """Guide-table inversion for the chain steps Binomial(r, q_i), r in
    0..h, when h <= _TABLE_MAX_H: O(1) compares a draw (indexed search:
    Chen and Asau 1974; Devroye, Non-Uniform Random Variate Generation,
    III.2.4). Built once per sample_chain_modes call and only read after.

    Step i holds the CDF F_r(x) = P(Binomial(r, q_i) <= x) of every r in
    W_i columns, x in 0..W_i - 1. W_i - 1 is the first x at which
    P(Binomial(h, q_i) > x) < 2^-53, and that column is set to 1.0: the law
    grows stochastically with r, so no row cuts more than 2^-53 of mass.
    F_r is 1 minus the upper tail of _binomial_tails, whose Pascal rule
    keeps each entry within about (r + 1) eps, each row nondecreasing and
    the entries with x >= r at 1.0, so a draw never exceeds r.

    A draw takes one uniform u, starts at guide[r, floor(u W_i)], the
    first x with floor(F_r(x) W_i) >= floor(u W_i), and steps forward
    while F_r(x) <= u: fewer than 2 compares on average, since the W_i
    slots split the W_i - 1 inner CDF points. Step i owns columns
    offset[i]..offset[i] + W_i - 1 of the (h + 1, sum (W_i + 1)) float64
    cdf and byte guide arrays, after a column that holds F_r(-1) = 0; a
    guide entry is at most W_i - 1 <= h, hence the cap of 255.

    Tables cover the first steps (the opinions of largest probability)
    while their cells fit _TABLE_CELLS, so memory stays bounded at large
    k; steps from tables.steps on, and all of them for h = 0 and
    h > _TABLE_MAX_H, draw from numpy's binomial.
    """

    __slots__ = ("steps", "cdf", "guide", "width", "offset")

    def __init__(self, h: int, step_p: np.ndarray):
        self.steps = 0
        if not 0 < h <= _TABLE_MAX_H or step_p.size == 0:
            return  # at h = 0 numpy's binomial draws nothing
        for tail in _binomial_tails(step_p, h, np.full(step_p.size, h + 1)):
            pass  # up to row h, which is nonincreasing in x and 0 at x = h
        beyond = tail.reshape(-1, h + 2)[:, 1:] >= 2.0**-53
        width = np.count_nonzero(beyond, axis=1) + 1
        m = int(np.count_nonzero(np.cumsum(width + 1) * (h + 1) <= _TABLE_CELLS))
        if m == 0:
            return
        width = width[:m]
        offset = np.cumsum(width + 1) - width
        cdf = np.empty((h + 1, offset[-1] + width[-1]))
        for r, tail in enumerate(_binomial_tails(step_p[:m], h, width)):
            np.subtract(1.0, tail, out=cdf[r])
        cdf[:, offset + width - 1] = 1.0
        # guide[r, offset + j] counts the x of its step and row with
        # floor(F_r(x) W) < j. Clipped to W - 1 and shifted by the step's
        # offset, these slots are nondecreasing along a row, and the F_r(-1)
        # column, shifted to itself, stays below its step's slots: so one
        # histogram and one cumulative sum give every guide entry. Rows go
        # 32 at a time, which keeps these passes in cache.
        w = np.repeat(width, width + 1)
        shift = np.repeat(offset, width + 1)
        shift[offset - 1] -= 1
        chunk = 32
        shift = shift + np.arange(0, chunk * cdf.shape[1], cdf.shape[1])[:, None]
        guide = np.empty(cdf.shape, dtype=np.uint8)
        for r in range(0, h + 1, chunk):
            f = cdf[r : r + chunk]
            slot = (f * w).astype(np.intp)
            np.minimum(slot, w - 1, out=slot)
            slot += shift[: len(f)]
            below = np.zeros(slot.size, dtype=np.intp)
            np.cumsum(np.bincount(slot.ravel(), minlength=slot.size)[:-1], out=below[1:])
            guide[r : r + chunk] = below.reshape(slot.shape) - shift[: len(f)]
        self.steps = m
        self.cdf = cdf
        self.guide = guide
        self.width = width
        self.offset = offset

    def draw(self, i: int, remaining: np.ndarray, gen) -> np.ndarray:
        """One Binomial(remaining[j], q_i) draw for each j, from one
        gen.random uniform each, for i < steps."""
        u = gen.random(remaining.size)
        width = int(self.width[i])
        first = remaining * self.cdf.shape[1] + int(self.offset[i])
        slot = (u * width).astype(np.intp)
        np.minimum(slot, width - 1, out=slot)  # u W may round up to W
        slot += first
        at = first + self.guide.ravel()[slot]
        cdf = self.cdf.ravel()
        # the step's last column is 1.0 > u, so no search leaves its row
        ahead = np.flatnonzero(cdf[at] <= u)
        while ahead.size:
            at[ahead] += 1
            ahead = ahead[cdf[at[ahead]] <= u[ahead]]
        at -= first
        return at


def _binomial_tails(step_p: np.ndarray, h: int, width: np.ndarray):
    """Yield the upper tails P(Binomial(r, q_i) > x) for r = 0..h: one
    array a row, overwritten by the next. Step i holds x = -1, where the
    tail is 1, then x = 0..width[i] - 1.

    Pascal's rule P_r(X > x) = (1 - q) P_(r-1)(X > x) + q P_(r-1)(X > x - 1)
    takes convex combinations of non-negative numbers, so the tails neither
    underflow nor lose relative precision: each is off by at most about
    (r + 1) eps of itself, is nonincreasing in x and is exactly 0 for
    x >= r. The x = -1 entries take q = 0 and stay 1, so a row is three
    operations on one contiguous array.
    """
    q = np.repeat(step_p, width + 1)
    starts = np.cumsum(width + 1) - width - 1
    q[starts] = 0.0
    keep = 1.0 - q
    tail = np.zeros(q.size)
    tail[starts] = 1.0
    spill = np.empty(q.size - 1)
    yield tail
    for _ in range(h):
        np.multiply(tail[:-1], q[1:], out=spill)
        tail *= keep
        tail[1:] += spill
        yield tail


def _usable_cores() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _block_rows(width: int, n: int):
    """Row counts of the blocks that cover n rows of width cells each:
    min(65536, CHUNK_CELLS // width) rows per block, the last one fewer."""
    rows_per_chunk = min(1 << 16, max(1, CHUNK_CELLS // max(1, width)))
    done = 0
    while done < n:
        rows = min(rows_per_chunk, n - done)
        yield rows
        done += rows


def sample_counts_chunks(h: int, p, rng: RngHandle, n: int):
    """Yield (rows, k) sample_counts_matrix blocks whose rows total n.

    Blocks have _block_rows(k, n) rows, so each holds at most CHUNK_CELLS
    counts whatever h is: numpy's multinomial kernel does not split a call,
    so this bound is the only cap on its memory. Blocks are drawn from rng
    in order, so the stream depends only on (h, p, n).
    """
    probs = np.asarray(coerce_probs(p), dtype=np.float64)
    for rows in _block_rows(probs.size, n):
        yield sample_counts_matrix(h, probs, rng, rows)


def draws_take_ids(k: int, h: int) -> bool:
    """The path rule of sample_modes: with 0 < h < k a row's h category ids
    are fewer than its k counts, so each agent's mode comes from its ids
    (sample_draw_chunks + mode_of_draws); otherwise from the binomial chain
    (sample_chain_modes)."""
    return 0 < h < k


def sample_modes(h: int, weights, rng: RngHandle, n: int):
    """Yield (winner, top, ties, first_is_top) blocks of the modes of n
    agents' samples of h opinions, drawn with law weights / sum(weights):
    the one agent-mode kernel of rounds and one-agent events.

    weights are non-negative integer counts or validated probabilities.
    winner is the adopted opinion (0-based), top its count, ties the number
    of opinions at that count, and first_is_top whether opinion 1 holds it.
    draws_take_ids(k, h) picks the path. With k > h the modes are those of
    the draw ids (sample_draw_chunks + mode_of_draws), whose tie rule needs
    no random draw. Otherwise they come from the binomial chain
    (sample_chain_modes), integer counts becoming counts / sum(counts) in
    float64, with one uniform draw per tied row.
    """
    w = np.asarray(weights)
    if draws_take_ids(w.size, h):
        for draws in sample_draw_chunks(h, w, rng, n):
            yield mode_of_draws(draws)
        return
    if w.dtype.kind != "f":
        w = w / w.sum()
    yield from sample_chain_modes(h, w, rng, n)


def sample_draw_chunks(h: int, weights, rng: RngHandle, n: int):
    """Yield (rows, h) arrays of opinion indices, h i.i.d. draws in each
    row, whose rows total n.

    weights are non-negative integer counts, drawn with law exactly
    counts / sum(counts), or validated probabilities, which become the
    integer weights floor(p_i 2^62): each within one unit of p_i 2^62, so
    the law is within about k 2^-62 of p / sum(p). A dead opinion (weight
    0) is never drawn. Blocks have _block_rows(h, n) rows: at most
    CHUNK_CELLS ids each, whatever k is.

    Each id is one uniform unit of weight a in [0, total), total the sum of
    the weights, and its opinion searchsorted(cum, a, "right"), cum the
    cumulative weights, found by indexed search (Chen and Asau 1974;
    Devroye, Non-Uniform Random Variate Generation, III.2.4): slot j of a
    guide table holds the opinion of weight unit j x stride, and a draw
    starts at guide[a // stride] and steps forward while cum[x] <= a. A
    dead opinion has no width, so no draw stops on it. While total <=
    CHUNK_CELLS the stride is 1: the guide is the table of the n agents'
    opinions, repeat(arange(k), counts), read as guide[a] with no step.
    Above it the guide has 2 x 2^ceil(log2 k) slots, so the table takes
    O(k) memory whatever n is and a draw at most about half a step on
    average.
    Ids arrive in the narrowest unsigned type that holds k - 1. One random
    integer per id, from the caller's generator on one thread.
    """
    require_integer(h, "h", InvalidProbError, minimum=0)
    w = np.asarray(weights)
    if w.dtype.kind == "f":
        w = (w * 2.0**62).astype(np.int64)
    k = w.size
    total = int(w.sum())
    if total <= CHUNK_CELLS:
        stride, slots = 1, w
    else:
        cum = np.cumsum(w, dtype=np.int64)
        stride = -(-total // (2 << (k - 1).bit_length()))
        # opinion i holds the slots j with cum[i - 1] <= j x stride < cum[i]
        slots = np.diff(-(-cum // stride), prepend=0)
    guide = np.repeat(np.arange(k, dtype=np.min_scalar_type(k - 1)), slots)
    for rows in _block_rows(h, n):
        a = rng.gen.integers(0, total, size=(rows, h))
        if stride == 1:
            ids = guide[a]
        else:
            ids = guide[a // stride]
            x, a = ids.ravel(), a.ravel()
            ahead = np.flatnonzero(cum[x] <= a)
            while ahead.size:
                x[ahead] += 1
                ahead = ahead[cum[x[ahead]] <= a[ahead]]
        del a  # 8 bytes an id, not to be held while the caller reads ids
        yield ids


def mode_of_draws(draws: np.ndarray):
    """Per-row mode of a (rows, h) array of non-negative category ids,
    h >= 1.

    Returns (winner, top, ties, first_is_top): the winning id, its count,
    the number of ids that share that count, and whether id 0 holds that
    count. Among tied ids the winner is the one
    whose first draw comes earliest. That is exactly uniform over the tied
    set with no random draw: the draws are i.i.d., so given the counts every
    order of them is equally likely, and swapping two tied labels maps the
    orders where one wins onto those where the other wins.

    Rows with h <= _PAIRWISE_MAX_H compare every pair of draws once
    (_mode_pairwise); longer rows are sorted (_mode_sorted). Both give the
    same result, in O(rows x h) memory: no (rows, k) array is built.
    """
    if draws.shape[1] <= _PAIRWISE_MAX_H:
        return _mode_pairwise(draws)
    return _mode_sorted(draws)


def _mode_pairwise(draws: np.ndarray):
    """mode_of_draws by pairwise comparison, for h <= 255.

    Each draw position counts the positions holding its id: every pair of
    id columns is compared once and a match adds one to both counts. The
    winner is the id at the first position with the largest count, found
    as the maximum of count << 8 | (255 - position), and id 0 holds the top
    count when a position of id 0 does. O(h^2) per row.
    """
    rows, h = draws.shape
    hi = int(draws.max())
    id_type = np.uint8 if hi <= 0xFF else np.uint16 if hi <= 0xFFFF else draws.dtype
    cols = np.array(draws.T, dtype=id_type, order="C")
    count = np.ones((h, rows), dtype=np.uint8)
    for i in range(h - 1):
        match = cols[i + 1 :] == cols[i]
        count[i + 1 :] += match
        count[i] += match.sum(axis=0, dtype=np.uint8)
    score = count.astype(np.uint16)
    score <<= 8
    score |= (255 - np.arange(h, dtype=np.uint16))[:, None]
    best = score.max(axis=0)
    top = (best >> 8).astype(np.uint8)
    winner = draws[np.arange(rows), 255 - (best & 255)]
    # each tied id holds top positions at the top count
    at_top = count == top
    ties = at_top.sum(axis=0) // top
    at_top &= cols == 0
    return winner, top.astype(np.int64), ties, at_top.any(axis=0)


def _mode_sorted(draws: np.ndarray):
    """mode_of_draws by sorting each row.

    Each row is sorted by (id, position) keys, id << shift | position, in
    int32 when they fit; its runs of equal ids give every id's count and
    first position; id 0 holds the top count when it is the row's first run
    and that run is top long. O(h log h) per row.
    """
    rows, h = draws.shape
    cells = rows * h
    shift = max(1, (h - 1).bit_length())
    mask = (1 << shift) - 1
    # keys hold ids up to draws.max() and scores counts up to h
    narrow = (max(int(draws.max()), h) + 1) << shift <= np.iinfo(np.int32).max
    key = draws.astype(np.int32 if narrow else np.int64)
    key <<= shift
    key |= np.arange(h, dtype=key.dtype)
    key.sort(axis=1)
    key = key.ravel()
    ids = key >> shift
    start = np.empty(cells, dtype=bool)
    np.not_equal(ids[1:], ids[:-1], out=start[1:])
    start[::h] = True
    runs = np.flatnonzero(start)
    row_start = np.arange(0, cells, h)
    row_runs = np.searchsorted(runs, row_start)
    length = np.diff(runs, append=cells)
    # larger count first, then earlier first draw; unique within a row
    score = key[runs]
    score &= mask
    np.subtract(mask, score, out=score)
    score |= (length << shift).astype(key.dtype, copy=False)
    best = np.maximum.reduceat(score, row_runs)
    top = best >> shift
    winner = draws.ravel()[row_start + (mask - (best & mask))]
    runs_per_row = np.diff(row_runs, append=runs.size)
    ties = np.add.reduceat(length == np.repeat(top, runs_per_row), row_runs)
    # a row's first run holds its smallest id
    first_is_top = (ids[row_start] == 0) & (length[row_runs] == top)
    return winner, top, ties, first_is_top


def argmax_rows_with_tiebreak(counts: np.ndarray, rng: RngHandle) -> np.ndarray:
    """Per-row argmax (0-based) of a (rows, k) count matrix with exact
    uniform tie-breaking: rows with m tied maxima pick each with
    probability 1/m using one uniform integer per tied row."""
    return _argmax_tiebreak(counts, counts.max(axis=1), rng.gen)[0]


def _argmax_tiebreak(counts: np.ndarray, top: np.ndarray, gen):
    """(winner, ties) of each row of the (rows, k) counts whose row maxima
    are top: the number of columns at the maximum, and the first of them,
    or for a tied row the u-th, u uniform from one draw of gen."""
    is_max = counts == top[:, None]
    ties = is_max.sum(axis=1)
    winner = is_max.argmax(axis=1)
    tied = np.flatnonzero(ties > 1)
    if tied.size:
        u = gen.integers(0, ties[tied])
        cumulative = np.cumsum(is_max[tied], axis=1)
        winner[tied] = np.argmax(cumulative == (u + 1)[:, None], axis=1)
    return winner, ties
