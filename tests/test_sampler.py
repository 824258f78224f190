import hashlib
import itertools
import math
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import binom, chi2

from hmajority import sampler
from hmajority.core import PROB_SUM_TOL, Configuration, SumMismatchError, coerce_probs
from hmajority.dynamics import step
from hmajority.montecarlo import sample_win_events
from hmajority.oracle import event_report, win_distribution
from hmajority.sampler import (
    CHUNK_CELLS,
    SUB_BLOCK_ROWS,
    InvalidProbError,
    RngHandle,
    argmax_rows_with_tiebreak,
    draw_multinomial,
    mode_of_draws,
    sample_chain_modes,
    sample_counts_chunks,
    sample_counts_matrix,
    sample_draw_chunks,
)

from oracles import exact_binomial_pmf, exact_multinomial_pmf_fraction


def test_rng_streams_are_reproducible():
    a = RngHandle(987654321, 5).gen.integers(0, 2**32, 64)
    b = RngHandle(987654321, 5).gen.integers(0, 2**32, 64)
    assert a.tobytes() == b.tobytes()


def test_rng_streams_differ_across_stream_ids():
    a = RngHandle(987654321, 5).gen.integers(0, 2**32, 64)
    b = RngHandle(987654321, 6).gen.integers(0, 2**32, 64)
    assert a.tobytes() != b.tobytes()


def count_draw_ids(h, p, rng, rows):
    """(rows, k) count matrix of the ids sample_draw_chunks draws: the
    categorical sampler, counted row by row."""
    k = len(p)
    blocks = []
    for ids in sample_draw_chunks(h, np.asarray(p), rng, rows):
        flat = ids + (np.arange(ids.shape[0]) * k)[:, None]
        counts = np.bincount(flat.ravel(), minlength=ids.shape[0] * k)
        blocks.append(counts.reshape(-1, k))
    return np.concatenate(blocks)


# Both samplers of one row's counts: sample_counts_matrix, whose numpy
# kernel runs the conditional-binomial chain, and the counted draw ids.
SAMPLERS = {"chain": sample_counts_matrix, "categorical": count_draw_ids}


# With k = 2 the chain sampler's first column is one Binomial(h, p_1) draw.


def test_draw_binomial_degenerate():
    rng = RngHandle(1)
    for sampler in SAMPLERS.values():
        assert np.all(sampler(5, (0.0, 1.0), rng, 8)[:, 0] == 0)
        assert np.all(sampler(5, (1.0, 0.0), rng, 8)[:, 0] == 5)
        assert np.all(sampler(0, (0.3, 0.7), rng, 8) == 0)


def test_draw_binomial_invalid_prob():
    rng = RngHandle(1)
    with pytest.raises(SumMismatchError):
        sample_counts_matrix(5, (1.5, -0.5), rng, 1)
    with pytest.raises(InvalidProbError):
        sample_counts_matrix(-1, (0.5, 0.5), rng, 1)


def test_draw_binomial_mean_large_trials():
    # Bin(1e5, 0.3): sample mean over 1e4 draws within 3 sigma/100 of 3e4
    rng = RngHandle(12345)
    draws = sample_counts_matrix(10**5, (0.3, 0.7), rng, 10**4)[:, 0]
    sigma = math.sqrt(10**5 * 0.3 * 0.7)
    assert abs(np.mean(draws) - 3 * 10**4) < 3 * sigma / 100


def test_draw_multinomial_trivial():
    rng = RngHandle(2)
    assert draw_multinomial(0, (0.5, 0.5), rng) == (0, 0)
    assert draw_multinomial(4, (1.0,), rng) == (4,)


def test_draw_multinomial_means():
    rng = RngHandle(77)
    total = np.zeros(3)
    reps = 10**5
    for _ in range(reps):
        total += draw_multinomial(6, (0.5, 0.3, 0.2), rng)
    means = total / reps
    for mean, p in zip(means, (0.5, 0.3, 0.2)):
        sigma = math.sqrt(6 * p * (1 - p))
        assert abs(mean - 6 * p) < 3 * sigma / math.sqrt(reps)


@pytest.mark.parametrize("p, expected", [
    ((0.5, 0.5, 0.0), [(530, 470, 0), (515, 485, 0), (494, 506, 0)]),
    ((0.3, 0.7, 0.0, 0.0), [(253, 747, 0, 0), (314, 686, 0, 0), (295, 705, 0, 0)]),
])
def test_draw_multinomial_stream_with_dead_trailing_opinions(p, expected):
    # the stream is Generator.multinomial's: once the live mass is used up
    # it still draws a p = 1 binomial, which uses up a uniform
    rng, twin = RngHandle(3), RngHandle(3)
    drawn = [draw_multinomial(1000, p, rng) for _ in expected]
    assert drawn == expected
    assert drawn == [tuple(twin.gen.multinomial(1000, p).tolist()) for _ in expected]


def test_draw_categorical_trivial():
    rng = RngHandle(3)
    empty = count_draw_ids(0, (0.5, 0.5), rng, 4)
    assert empty.tolist() == [[0, 0]] * 4
    point = count_draw_ids(1, (0.0, 1.0, 0.0), rng, 4)
    assert point.tolist() == [[0, 1, 0]] * 4


def _two_sample_chi2(counts_a, counts_b):
    counts_a = np.asarray(counts_a, float)
    counts_b = np.asarray(counts_b, float)
    keep = (counts_a + counts_b) > 0
    counts_a, counts_b = counts_a[keep], counts_b[keep]
    k1 = math.sqrt(counts_b.sum() / counts_a.sum())
    k2 = 1.0 / k1
    stat = ((k1 * counts_a - k2 * counts_b) ** 2 / (counts_a + counts_b)).sum()
    return chi2.sf(stat, keep.sum() - 1)


def test_multinomial_vs_categorical_same_law():
    # two-sample chi-square over the joint outcome space at significance 1e-3
    rng = RngHandle(2024)
    probs = (1 / 3, 1 / 3, 1 / 3)
    draws = 10**5
    outcomes_a = {}
    outcomes_b = {}
    for row in sample_counts_matrix(3, probs, rng, draws).tolist():
        key = tuple(row)
        outcomes_a[key] = outcomes_a.get(key, 0) + 1
    for row in count_draw_ids(3, probs, rng, draws).tolist():
        key = tuple(row)
        outcomes_b[key] = outcomes_b.get(key, 0) + 1
    keys = sorted(set(outcomes_a) | set(outcomes_b))
    pvalue = _two_sample_chi2(
        [outcomes_a.get(key, 0) for key in keys],
        [outcomes_b.get(key, 0) for key in keys],
    )
    assert pvalue > 1e-3


@pytest.mark.parametrize("name", SAMPLERS)
def test_counts_matrix_matches_exact_pmf(name):
    # goodness of fit of each batched sampler against the exact pmf (alpha 1e-3)
    rng = RngHandle(5150)
    h, fracs = 4, (Fraction(1, 2), Fraction(3, 10), Fraction(1, 5))
    probs = tuple(float(f) for f in fracs)
    rows = 10**6
    matrix = SAMPLERS[name](h, probs, rng, rows)
    assert matrix.sum(axis=1).min() == h and matrix.sum(axis=1).max() == h
    observed = {}
    key = matrix[:, 0] * 25 + matrix[:, 1] * 5 + matrix[:, 2]
    for value, count in zip(*np.unique(key, return_counts=True)):
        observed[int(value)] = int(count)
    stat = 0.0
    cells = 0
    for x0 in range(h + 1):
        for x1 in range(h + 1 - x0):
            x2 = h - x0 - x1
            exact = exact_multinomial_pmf_fraction((x0, x1, x2), h, fracs)
            expect = float(exact) * rows
            seen = observed.get(x0 * 25 + x1 * 5 + x2, 0)
            stat += (seen - expect) ** 2 / expect
            cells += 1
    assert chi2.sf(stat, cells - 1) > 1e-3


def test_chain_sub_blocks_do_not_depend_on_thread_count(monkeypatch):
    # count matrices do not split into sub-blocks: more rows than four
    # sub-blocks are one Generator.multinomial call on the caller's stream,
    # whatever MAX_THREADS is (the sub-block rule of the chain modes is
    # pinned by test_chain_modes_do_not_depend_on_thread_count)
    rows = 3 * SUB_BLOCK_ROWS + 5
    probs = (0.4, 0.3, 0.2, 0.1)
    results = []
    for threads in (1, 2):
        monkeypatch.setattr(sampler, "MAX_THREADS", threads)
        rng = RngHandle(77, 3)
        matrix = sample_counts_matrix(9, probs, rng, rows)
        results.append((matrix.tobytes(), rng.gen.integers(0, 2**32, 4).tobytes()))
    assert results[0] == results[1]
    assert matrix.shape == (rows, 4) and np.all(matrix.sum(axis=1) == 9)
    twin = RngHandle(77, 3).gen
    assert results[0][0] == twin.multinomial(9, probs, size=rows).tobytes()
    assert results[0][1] == twin.integers(0, 2**32, 4).tobytes()


def test_chain_call_of_one_sub_block_keeps_its_bytes():
    # the bytes of two successive count-matrix calls, pinned: numpy's
    # multinomial kernel fixes them, so a change in it shows here
    rng = RngHandle(20261018, 5)
    a = sample_counts_matrix(7, (0.4, 0.3, 0.2, 0.1), rng, SUB_BLOCK_ROWS)
    b = sample_counts_matrix(200, (0.5, 0.25, 0.25), rng, 3)
    assert hashlib.sha256(a.tobytes() + b.tobytes()).hexdigest() == (
        "5e79983df58483b0db323fb88594b5b5993a0c48116c9e668e9a02c7670f4bc8"
    )


def _largest_accepted(probs):
    """probs with its largest entry raised ulp by ulp to the last value at
    which coerce_probs still accepts the vector."""
    probs = list(probs)
    i = probs.index(max(probs))
    while True:
        bumped = probs.copy()
        bumped[i] = math.nextafter(bumped[i], 2.0)
        try:
            coerce_probs(bumped)
        except SumMismatchError:
            return probs
        probs = bumped


def test_count_draws_take_every_vector_coerce_probs_accepts():
    # numpy's multinomial refuses an entry above 1 and a sum of all but the
    # last entry above 1 + 1e-12; coerce_probs allows a sum up to
    # 1 + PROB_SUM_TOL, here reached with a dead last opinion
    rng = np.random.default_rng(61)
    vectors = [(1.0,), (1.0, 0.0), (0.0, 1.0), (0.5, 0.5, 0.0)]
    for _ in range(2000):
        k = int(rng.integers(2, 40))
        w = rng.random(k - 1) ** 4
        vectors.append(tuple(w / w.sum() * (1 + 0.999 * PROB_SUM_TOL)) + (0.0,))
    draw = RngHandle(62)
    for p in map(_largest_accepted, vectors):
        assert math.fsum(p) > 1.0
        matrix = sample_counts_matrix(50, p, draw, 2)
        assert matrix.shape == (2, len(p)) and np.all(matrix.sum(axis=1) == 50)
        assert sum(draw_multinomial(10**6, p, draw)) == 10**6
    assert sample_counts_matrix(5, (0.5, 0.5, 0.0), draw, 0).shape == (0, 3)


def _chain_modes(h, p, rng, rows):
    """The (winner, ties, first_is_top) arrays of one sample_chain_modes
    call of at most one block, its yielded sub-blocks joined."""
    return tuple(map(np.concatenate, zip(*sample_chain_modes(h, p, rng, rows))))


def test_chain_modes_do_not_depend_on_thread_count(monkeypatch):
    # four sub-blocks, the last one short, each yielded as its own piece;
    # unsorted p, so rows leave the chain at different opinions
    assert SUB_BLOCK_ROWS == 16384
    rows = 3 * SUB_BLOCK_ROWS + 5
    probs = (0.1, 0.4, 0.2, 0.3)
    results = []
    for threads in (1, 2):
        monkeypatch.setattr(sampler, "MAX_THREADS", threads)
        rng = RngHandle(78, 3)
        pieces = list(sample_chain_modes(9, probs, rng, rows))
        assert [len(winner) for winner, _, _ in pieces] == [SUB_BLOCK_ROWS] * 3 + [5]
        modes = tuple(map(np.concatenate, zip(*pieces)))
        after = rng.gen.integers(0, 2**32, 4).tobytes()
        results.append((b"".join(a.tobytes() for a in modes), after))
    assert results[0] == results[1]
    # one key from the caller's generator; sub-block j draws from (key, j)
    key_rng = RngHandle(78, 3)
    key = int(key_rng.gen.integers(0, 1 << 63))
    assert results[0][1] == key_rng.gen.integers(0, 2**32, 4).tobytes()
    for j in range(4):
        block = slice(j * SUB_BLOCK_ROWS, min(rows, (j + 1) * SUB_BLOCK_ROWS))
        own = _chain_modes(9, probs, RngHandle(key, j), block.stop - block.start)
        for a, b in zip(modes, own):
            assert a[block].tobytes() == b.tobytes()


class CountingGenerator:
    """A numpy generator that counts the elements of its binomial and
    uniform calls."""

    def __init__(self, gen):
        self.gen = gen
        self.binomials = 0
        self.uniforms = 0

    def binomial(self, n, p):
        self.binomials += np.size(n)
        return self.gen.binomial(n, p)

    def random(self, size=None):
        self.uniforms += 1 if size is None else int(np.prod(size))
        return self.gen.random(size)

    def __getattr__(self, name):
        return getattr(self.gen, name)


def test_chain_modes_rows_out_of_reach_draw_no_further_opinion():
    # h = 1000, p_1 = 0.83: after its first binomial a row leads with about
    # 830 against 170 left, so it draws none of the other 14 conditional
    # binomials a full chain would (15 000 draws over 1000 rows)
    rng = RngHandle(91)
    rng.gen = CountingGenerator(rng.gen)
    probs = (0.83,) + (0.17 / 15,) * 15
    winner, ties, first_is_top = _chain_modes(1000, probs, rng, 1000)
    assert rng.gen.binomials < 1100
    assert np.all(winner == 0) and np.all(ties == 1) and np.all(first_is_top)


def test_chain_modes_rows_out_of_reach_draw_no_further_opinion_from_tables():
    # h = 200 <= _TABLE_MAX_H: the chain steps draw one uniform a row from
    # the guide tables, no binomial. After the first step a row leads with
    # about 166 against 34 left, so it draws none of the other 14 steps a
    # full chain would (15 000 uniforms over 1000 rows)
    rng = RngHandle(92)
    rng.gen = CountingGenerator(rng.gen)
    probs = (0.83,) + (0.17 / 15,) * 15
    winner, ties, first_is_top = _chain_modes(200, probs, rng, 1000)
    assert rng.gen.binomials == 0
    assert 1000 <= rng.gen.uniforms < 1100
    assert np.all(winner == 0) and np.all(ties == 1) and np.all(first_is_top)


@pytest.mark.parametrize("q", [1e-300, 1 / 16, 0.5, 0.83, 1 - 1e-16])
def test_binomial_tables_match_exact_pmf(q):
    # h = 255, the cap: for every r the table's pmf, the differences of its
    # CDF row, is within 1e-12 of the exact pmf of q's binary value, and
    # the columns cut from the row hold less than 2^-53. The CDF reaches
    # exactly 1.0 at x = r and at the last column, so no draw exceeds r
    h = 255
    tables = sampler._BinomialTables(h, np.array([q]))
    (width,), (offset,) = tables.width, tables.offset
    cdf = tables.cdf[:, offset : offset + width]
    guide = tables.guide[:, offset : offset + width]
    for r in range(h + 1):
        pmf, cut = exact_binomial_pmf(r, q, width)
        assert np.abs(np.diff(cdf[r], prepend=0.0) - pmf).max() <= 1e-12, r
        assert cut < 2.0**-53, r
        assert np.all(np.diff(cdf[r]) >= 0) and np.all(cdf[r, r:] == 1.0)
        # slot j starts at the first x with floor(F(x) W) >= j
        slots = np.minimum((cdf[r] * width).astype(int), width - 1)
        assert guide[r].tolist() == np.searchsorted(slots, np.arange(width)).tolist()
    assert cdf[:, -1].tolist() == [1.0] * (h + 1)


@pytest.mark.parametrize("r, q", [(200, 1 / 16), (37, 1 / 16), (200, 0.83), (9, 0.5)])
def test_binomial_table_draws_match_binomial_law(r, q):
    # chi-square of 100 000 table draws at one r against binom.pmf, cells
    # with fewer than 5 expected draws pooled, alpha 1e-3; the table is
    # built for h = 200, so rows r < h test the rows below the cut's row
    draws = 100_000
    tables = sampler._BinomialTables(200, np.array([0.3, q]))
    x = tables.draw(1, np.full(draws, r), RngHandle(4343, r).gen)
    assert x.min() >= 0 and x.max() <= r
    expect = binom.pmf(np.arange(r + 1), r, q) * draws
    seen = np.bincount(x, minlength=r + 1).astype(float)
    small = expect < 5
    if small.any():
        expect = np.append(expect[~small], expect[small].sum())
        seen = np.append(seen[~small], seen[small].sum())
    stat = ((seen - expect) ** 2 / expect).sum()
    assert chi2.sf(stat, expect.size - 1) > 1e-3


def test_binomial_tables_cover_the_steps_that_fit_their_budget(monkeypatch):
    # k = 40 opinions of geometric weight at h = 255 would need 39 wide
    # tables; the first steps keep the table while its cells fit
    # _TABLE_CELLS and the others draw from numpy, with the same law
    weights = 0.7 ** np.arange(40)
    probs = tuple(weights / weights.sum())
    ranked = np.array(probs)
    step_p = ranked[:-1] / np.cumsum(ranked[::-1])[::-1][:-1]
    tables = sampler._BinomialTables(255, step_p)
    assert 0 < tables.steps < step_p.size
    assert tables.cdf.size <= sampler._TABLE_CELLS
    assert tables.cdf.shape == (256, int((tables.width + 1).sum()))
    first = 256 * int(tables.width[0] + 1)  # cells of the first step's table
    monkeypatch.setattr(sampler, "_TABLE_CELLS", first)
    assert sampler._BinomialTables(255, step_p).steps == 1
    monkeypatch.setattr(sampler, "_TABLE_CELLS", first - 1)
    assert sampler._BinomialTables(255, step_p).steps == 0
    # a small budget mixes both draws in one chain: its mode law against
    # win_distribution, chi-square over one sub-block of rows, alpha 1e-3
    h, probs, rows = 12, (0.4, 0.3, 0.2, 0.1), SUB_BLOCK_ROWS
    # the first step's table, 13 rows of 12 columns after its x = -1 column
    monkeypatch.setattr(sampler, "_TABLE_CELLS", 13 * 14)
    rng = RngHandle(4545)
    rng.gen = CountingGenerator(rng.gen)
    winner = _chain_modes(h, probs, rng, rows)[0]
    assert rng.gen.binomials > 0 and rng.gen.uniforms >= rows
    expect = np.array(win_distribution(h, probs).q) * rows
    stat = ((np.bincount(winner, minlength=4) - expect) ** 2 / expect).sum()
    assert chi2.sf(stat, 3) > 1e-3


def test_binomial_tables_leave_h_above_the_cap_and_h_0_to_numpy():
    assert sampler._BinomialTables(256, np.array([0.5])).steps == 0
    assert sampler._BinomialTables(255, np.array([0.5])).steps == 1
    # at h = 0 the chain draws nothing from the stream
    rng = RngHandle(93)
    winner, ties, _ = _chain_modes(0, (0.5, 0.3, 0.2), rng, 100)
    assert np.all(ties == 3)  # all three at count 0
    twin = RngHandle(93).gen
    twin.integers(0, np.full(100, 3))  # the tie-break of the 100 tied rows
    assert rng.gen.random() == twin.random()


def test_chain_modes_reject_negative_h():
    with pytest.raises(InvalidProbError):
        list(sample_chain_modes(-1, (0.5, 0.5), RngHandle(1), 4))


def test_draw_chunks_reject_negative_h():
    # a negative h used to reach numpy, which refused the (rows, -1) shape
    with pytest.raises(InvalidProbError, match="h must be >= 0"):
        next(sample_draw_chunks(-1, np.array([3, 3, 2, 2]), RngHandle(1), 10))


def test_chain_column_marginals_match_binomial_laws():
    # column i of Multinomial(h, p) rows is Binomial(h, p_i); chi-square per
    # column, cells with fewer than 5 expected rows pooled, alpha 1e-3
    h, probs, rows = 12, (0.4, 0.3, 0.2, 0.1), 50_000
    matrix = sample_counts_matrix(h, probs, RngHandle(4242, 1), rows)
    assert np.all(matrix.sum(axis=1) == h)
    for i, pi in enumerate(probs):
        expect = binom.pmf(np.arange(h + 1), h, pi) * rows
        seen = np.bincount(matrix[:, i], minlength=h + 1).astype(float)
        small = expect < 5
        if small.any():
            expect = np.append(expect[~small], expect[small].sum())
            seen = np.append(seen[~small], seen[small].sum())
        stat = ((seen - expect) ** 2 / expect).sum()
        assert chi2.sf(stat, expect.size - 1) > 1e-3, i


def test_mode_with_tiebreak_unique_max():
    rng = RngHandle(4)
    counts = np.array([[2, 0, 0], [0, 0, 5]], dtype=np.int64)
    assert argmax_rows_with_tiebreak(counts, rng).tolist() == [0, 2]


def test_mode_with_tiebreak_fair_coin():
    rng = RngHandle(31337)
    trials = 10**5
    counts = np.tile(np.array([1, 1, 0], dtype=np.int64), (trials, 1))
    ones = int((argmax_rows_with_tiebreak(counts, rng) == 0).sum())
    assert 0.49 <= ones / trials <= 0.51


def test_batch_tiebreak_uniform_three_way():
    rng = RngHandle(999)
    rows = 3 * 10**4
    counts = np.ones((rows, 3), dtype=np.int64)
    winners = argmax_rows_with_tiebreak(counts, rng)
    freq = np.bincount(winners, minlength=3) / rows
    sigma = math.sqrt((1 / 3) * (2 / 3) / rows)
    assert np.all(np.abs(freq - 1 / 3) < 4 * sigma)


def test_batch_tiebreak_matches_scalar_law():
    rng = RngHandle(7)
    rows = 10**4
    counts = np.tile(np.array([2, 2, 1], dtype=np.int64), (rows, 1))
    winners = argmax_rows_with_tiebreak(counts, rng)
    share_1 = (winners == 0).mean()
    assert abs(share_1 - 0.5) < 0.02
    assert not np.any(winners == 2)


@given(
    st.integers(min_value=0, max_value=12),
    st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=5),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_multinomial_sums_to_h(h, weights, seed):
    total = sum(weights)
    probs = [w / total for w in weights]
    probs[-1] += 1.0 - sum(probs)
    rng = RngHandle(seed)
    vec = draw_multinomial(h, tuple(probs), rng)
    assert sum(vec) == h
    assert all(c >= 0 for c in vec)
    row = count_draw_ids(h, tuple(probs), rng, 1)[0]
    assert row.sum() == h
    assert row.min() >= 0


@pytest.mark.parametrize(
    "k, h, n", [(2, 3, 70_000), (3000, 2000, 5000), (2000, 0, 5000)]
)
def test_count_chunks_cap_cells(k, h, n):
    rng = RngHandle(8)
    rows = []
    for block in sample_counts_chunks(h, np.full(k, 1.0 / k), rng, n):
        assert block.shape == (block.shape[0], k)
        assert block.shape[0] * k <= CHUNK_CELLS
        assert np.all(block.sum(axis=1) == h)
        rows.append(block.shape[0])
    assert sum(rows) == n
    # blocks shrink below 65 536 rows only when k > 64
    assert rows[0] == min(65_536, CHUNK_CELLS // k)


# Each multiset is fed to mode_of_draws in every distinct order. Given its
# counts, every order of i.i.d. draws is equally likely, so each tied label
# must win in exactly the same number of orders.
MULTISETS = [
    (0, 1, 2),
    (4, 4, 7),
    (0, 0, 1, 1),
    (2, 0, 0, 1, 1),
    (5, 3, 3, 1, 1, 9, 9),
    (0, 0, 1, 1, 2, 2),
    (3, 3, 1, 1, 0, 2, 2, 5),
    (6, 6, 6, 2, 2, 2, 0),
    (8, 1, 2, 3, 4),
]


# mode_of_draws takes the pairwise kernel for h <= _PAIRWISE_MAX_H and the
# sort above it; the kernel tests run each case through both
KERNELS = [sampler._mode_pairwise, sampler._mode_sorted]


@pytest.mark.parametrize("multiset", MULTISETS)
def test_mode_of_draws_tie_rule_exact_over_orderings(multiset):
    orders = np.array(sorted(set(itertools.permutations(multiset))))
    counts = Counter(multiset)
    best = max(counts.values())
    tied = sorted(label for label, c in counts.items() if c == best)
    for kernel in KERNELS:
        winner, ties, first_is_top = kernel(orders)
        assert all(counts[w] == best for w in winner.tolist())
        assert np.all(ties == len(tied))
        assert np.all(first_is_top == (counts[0] == best))
        wins = Counter(winner.tolist())
        assert sorted(wins) == tied
        assert set(wins.values()) == {len(orders) // len(tied)}


def test_mode_of_draws_matches_count_matrix_mode():
    # ties, first_is_top and the winner's count agree with a dense count of
    # each row
    # the last case has one id drawn about 38 000 times out of 40 000: its
    # count << shift outgrows int32 though the ids do not; the pairwise
    # kernel counts in bytes, so it takes rows of at most 255 draws
    rng = np.random.default_rng(17)
    cases = [rng.integers(0, k, size=(2000, h))
             for k, h in [(9, 3), (40, 12), (5, 4), (300, 30), (2, 1)]]
    cases.append((rng.random((4, 40_000)) < 0.05).astype(np.int64))
    for draws, kernel in itertools.product(cases, KERNELS):
        if kernel is sampler._mode_pairwise and draws.shape[1] > 255:
            continue
        k = int(draws.max()) + 1
        winner, ties, first_is_top = kernel(draws)
        dense = np.zeros((draws.shape[0], k), dtype=np.int64)
        np.add.at(dense, (np.arange(draws.shape[0])[:, None], draws), 1)
        rowmax = dense.max(axis=1)
        assert np.array_equal(ties, (dense == rowmax[:, None]).sum(axis=1))
        assert np.array_equal(first_is_top, dense[:, 0] == rowmax)
        assert np.array_equal(dense[np.arange(draws.shape[0]), winner], rowmax)


def test_mode_kernels_agree_on_random_arrays():
    # identical (winner, ties, first_is_top) from both kernels, at h = 1, at
    # the switch point H and at H + 1; the pairwise kernel gives the same
    # on int64 ids and on the narrowest id type, which sample_draw_chunks
    # issues; rows of all-distinct ids and rows of one id in every case
    H = sampler._PAIRWISE_MAX_H
    assert 1 <= H <= 255
    rng = np.random.default_rng(41)
    for h in sorted({1, 2, 3, 5, 8, H - 1, H, H + 1}):
        for k in (2, 3, h + 1, 250, 60_000, 10**6):
            draws = rng.integers(0, k, size=(500, h))
            distinct = rng.permuted(np.tile(np.arange(h), (50, 1)), axis=1)
            same = np.repeat(rng.integers(0, k, size=(50, 1)), h, axis=1)
            draws = np.concatenate([draws, k - 1 - distinct % k, same])
            pairwise = sampler._mode_pairwise(draws)
            ranked = sampler._mode_sorted(draws)
            narrow = sampler._mode_pairwise(draws.astype(np.min_scalar_type(k - 1)))
            for a, b, c in zip(pairwise, ranked, narrow):
                assert np.array_equal(a, b) and np.array_equal(a, c), (h, k)
            assert np.all(pairwise[0][-50:] == same[:, 0])
            assert np.all(pairwise[1][-50:] == 1)
            if k >= h:
                assert np.all(pairwise[0][500:550] == draws[500:550, 0])
                assert np.all(pairwise[1][500:550] == h)


def test_mode_of_draws_switches_kernel_at_pairwise_max_h(monkeypatch):
    calls = []
    monkeypatch.setattr(sampler, "_mode_pairwise", lambda d: calls.append("pairwise"))
    monkeypatch.setattr(sampler, "_mode_sorted", lambda d: calls.append("sorted"))
    H = sampler._PAIRWISE_MAX_H
    for h in (1, H, H + 1):
        mode_of_draws(np.zeros((3, h), dtype=np.int64))
    assert calls == ["pairwise", "pairwise", "sorted"]


def test_sample_draw_chunks_live_opinions_only():
    # integer counts: ids come from the agents' look-up table
    rng = RngHandle(29)
    weights = np.array([0, 5, 0, 3, 2, 0])
    blocks = list(sample_draw_chunks(3, weights, rng, 70_000))
    assert [b.shape for b in blocks] == [(65_536, 3), (70_000 - 65_536, 3)]
    draws = np.concatenate(blocks).ravel()
    assert set(np.unique(draws).tolist()) == {1, 3, 4}
    freq = np.bincount(draws, minlength=6)[[1, 3, 4]] / draws.size
    sigma = np.sqrt(0.25 / draws.size)
    assert np.all(np.abs(freq - [0.5, 0.3, 0.2]) < 4 * sigma)


@pytest.mark.parametrize("k, id_type", [
    (1, np.uint8), (256, np.uint8), (257, np.uint16), (65_536, np.uint16),
    (65_537, np.uint32),
])
def test_sample_draw_chunks_counts_arrive_in_narrowest_id_type(k, id_type):
    counts = np.ones(k, dtype=np.int64)
    for weights in (counts, counts / k):
        (ids,) = sample_draw_chunks(3, weights, RngHandle(30), 50)
        assert ids.dtype == id_type and ids.shape == (50, 3)
        assert ids.max() < k


def test_sample_draw_chunks_counts_draw_agents_up_to_the_cell_budget():
    # a table of CHUNK_CELLS agents is the largest the look-up builds: each
    # id is one uniform agent index read from the table
    counts = np.array([CHUNK_CELLS // 2, 0, CHUNK_CELLS // 4, CHUNK_CELLS // 4, 0])
    assert counts.sum() == CHUNK_CELLS
    (ids,) = sample_draw_chunks(3, counts, RngHandle(31), 6)
    agents = RngHandle(31).gen.integers(0, CHUNK_CELLS, size=(6, 3))
    assert ids.dtype == np.uint8
    assert ids.tolist() == np.repeat(np.arange(5), counts)[agents].tolist()


@pytest.mark.parametrize("weights", [
    # one agent more than the cell budget: the guide's stride passes 1
    np.array([CHUNK_CELLS // 2 + 1, 0, CHUNK_CELLS // 4, CHUNK_CELLS // 4, 0]),
    np.array([0.5, 0.0, 0.25, 0.25, 0.0]),
    np.array([0.1, 0.0, 0.2, 0.7]),
])
def test_sample_draw_chunks_search_the_integer_weights_otherwise(weights):
    # each id is the opinion of one uniform unit of integer weight, drawn
    # from the same stream; a probability p weighs floor(p 2^62)
    w = weights
    if w.dtype.kind == "f":
        w = np.array([math.floor(Fraction(p) * 2**62) for p in w.tolist()])
    (ids,) = sample_draw_chunks(3, weights, RngHandle(32), 6)
    units = RngHandle(32).gen.integers(0, int(w.sum()), size=(6, 3))
    assert ids.tolist() == np.searchsorted(np.cumsum(w), units, "right").tolist()


class AgentIndices:
    """A stand-in generator whose integers calls return the agent indices
    0, 1, 2, ... in order, so the draws visit every unit of weight once."""

    def __init__(self):
        self.done = 0

    def integers(self, low, high, size):
        a = np.arange(self.done, self.done + math.prod(size)).reshape(size)
        self.done += a.size
        assert a.max(initial=0) < high
        return a


def test_sample_draw_chunks_map_every_agent_to_searchsorted(monkeypatch):
    # with the cell budget lowered every case takes the guide's search:
    # agent index a maps to searchsorted(cum, a, "right"), so a dead first,
    # middle or last opinion never draws, at stride 1 and above
    monkeypatch.setattr(sampler, "CHUNK_CELLS", 4)
    rng = np.random.default_rng(24)
    cases = [
        np.array([7]), np.array([0, 5, 0, 3, 2, 0]), np.array([0, 0, 9]),
        np.array([1, 0, 0, 1000]), np.array([1000, 0, 0, 1]),
        np.r_[np.ones(40, int), 0],
    ]
    for k in rng.integers(1, 80, 300):
        cases.append(rng.integers(0, 50, k) * (rng.random(k) < 0.7))
    agents = 0
    for counts in cases:
        if counts.sum() <= 4:
            continue
        gen = AgentIndices()
        blocks = sample_draw_chunks(1, counts, SimpleNamespace(gen=gen), counts.sum())
        ids = np.concatenate(list(blocks)).ravel()
        assert gen.done == counts.sum()
        every = np.searchsorted(np.cumsum(counts), np.arange(counts.sum()), "right")
        assert ids.tolist() == every.tolist()
        agents += counts.sum()
    assert agents > 10_000


# every entry point that takes h; at h = 2.5, k = 2 takes the chain path and
# k = 4 and 8 the draw-id path
_H_CALLS = {
    "step k=2": lambda h: step(Configuration.from_counts((6, 4)), h, RngHandle(1)),
    "step k=8": lambda h: step(Configuration.from_counts((3,) * 8), h, RngHandle(1)),
    "sample_win_events k=2": lambda h: sample_win_events(
        h, (0.5, 0.5), 10, RngHandle(1)),
    "sample_win_events k=4": lambda h: sample_win_events(
        h, (0.25,) * 4, 10, RngHandle(1)),
    "sample_chain_modes": lambda h: next(
        sample_chain_modes(h, (0.5, 0.5), RngHandle(1), 10)),
    "sample_counts_matrix": lambda h: sample_counts_matrix(
        h, (0.5, 0.5), RngHandle(1), 3),
    "draw_multinomial": lambda h: draw_multinomial(h, (0.5, 0.5), RngHandle(1)),
    "sample_draw_chunks": lambda h: next(
        sample_draw_chunks(h, np.array([3, 3, 2, 2]), RngHandle(1), 10)),
    "win_distribution": lambda h: win_distribution(h, (0.5, 0.5)),
    "event_report": lambda h: event_report(h, (0.5, 0.5)),
}


@pytest.mark.parametrize("h", [2.5, True])
@pytest.mark.parametrize("call", list(_H_CALLS.values()), ids=list(_H_CALLS))
def test_h_must_be_an_integer(call, h):
    # a float h used to run as int(h) or die in numpy with a TypeError, and
    # a bool h ran as 0 or 1
    with pytest.raises(ValueError, match="'h' must be an integer"):
        call(h)
