"""Monte Carlo estimation and parameter sweeps beyond exact enumeration.

Event probabilities are estimated with Wilson score intervals (default
confidence 0.999) because the bound checks happen at small probabilities,
where the normal approximation is unreliable. Sweep trials derive their
seeds as hash(master_seed, cell_index, trial_index), so any trial can be
re-run in isolation and worker count never changes the emitted records.

Record streams serialize to JSON-lines with a fixed key order. Wall-clock
timings are kept out of the record lines (they would break byte-for-byte
reproducibility of repeated runs) and travel in a separate timings table.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from statistics import NormalDist
from time import perf_counter

import numpy as np

from .core import Configuration, HMajorityError, coerce_probs, require_sorted
from .dynamics import (
    STOP_CONSENSUS,
    STOP_RULES,
    RunParams,
    run,
)
from .sampler import RngHandle, argmax_rows_with_tiebreak, sample_counts_chunks
from .theory import (
    DEFAULT_C3,
    DEFAULT_C4,
    DEFAULT_C6,
    VERDICT_FAIL,
    VERDICT_INCONCLUSIVE,
    VERDICT_PASS,
    large_bias_boundary,
    small_bias_boundary,
    strict_pair_lower,
    verdict_vs_value,
    w1_lower,
)

SCHEMA_VERSION = 1
DEFAULT_CONFIDENCE = 0.999


class SweepSpecError(HMajorityError, ValueError):
    """A sweep specification violates its schema."""


def wilson_interval(
    successes: int, trials: int, confidence: float = DEFAULT_CONFIDENCE
) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise SweepSpecError(f"trials must be >= 1, got {trials}")
    z = NormalDist().inv_cdf(1.0 - (1.0 - confidence) / 2.0)
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(
        phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials)
    )
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True)
class Estimate:
    """Point estimate with a Wilson interval."""

    point: float
    trials: int
    wilson_low: float
    wilson_high: float
    confidence: float = DEFAULT_CONFIDENCE

    @classmethod
    def from_counts(
        cls, successes: int, trials: int, confidence: float = DEFAULT_CONFIDENCE
    ) -> "Estimate":
        low, high = wilson_interval(successes, trials, confidence)
        return cls(
            point=successes / trials,
            trials=trials,
            wilson_low=low,
            wilson_high=high,
            confidence=confidence,
        )


@dataclass(frozen=True)
class WinEventCounts:
    """Raw event counts from repeated one-agent updates."""

    trials: int
    win: tuple[int, ...]
    strict_1: int
    ties_1: int
    strict_pair_12: int


def sample_win_events(h: int, p, trials: int, rng: RngHandle) -> WinEventCounts:
    """Count winning events over repeated independent sample vectors."""
    probs = coerce_probs(p)
    k = len(probs)
    win = np.zeros(k, dtype=np.int64)
    strict_1 = 0
    ties_1 = 0
    strict_pair = 0
    for matrix in sample_counts_chunks(h, probs, rng, trials):
        rowmax = matrix.max(axis=1)
        is_max = matrix == rowmax[:, None]
        mcount = is_max.sum(axis=1)
        top_1 = is_max[:, 0]
        ties_1 += int(top_1.sum())
        strict_1 += int((top_1 & (mcount == 1)).sum())
        if k >= 2:
            strict_pair += int(((is_max[:, 0] | is_max[:, 1]) & (mcount == 1)).sum())
        else:
            strict_pair += int((mcount == 1).sum())
        winners = argmax_rows_with_tiebreak(matrix, rng)
        win += np.bincount(winners, minlength=k)
    return WinEventCounts(
        trials=trials,
        win=tuple(int(c) for c in win),
        strict_1=strict_1,
        ties_1=ties_1,
        strict_pair_12=strict_pair,
    )


def estimate_win_probs(
    h: int,
    p,
    trials: int,
    seed: int,
    confidence: float = DEFAULT_CONFIDENCE,
) -> list[Estimate]:
    """Per-opinion adoption probability estimates; deterministic given seed."""
    if trials < 1:
        raise SweepSpecError(f"trials must be >= 1, got {trials}")
    rng = RngHandle(seed, stream_id=0)
    counts = sample_win_events(h, p, trials, rng)
    return [Estimate.from_counts(c, trials, confidence) for c in counts.win]


@dataclass(frozen=True)
class W1BoundReport:
    """Monte Carlo check of the plurality-opinion lower bounds.

    Verdicts are three-valued: statistical evidence must not masquerade as
    proof, so an interval straddling its bound reports inconclusive.
    """

    p: tuple[float, ...]
    n: int
    c4: float
    h: int
    trials: int
    w1: Estimate
    strict_1: Estimate
    ties_1: Estimate
    strict_pair_12: Estimate
    w1_bound: float
    strict_pair_bound: float
    w1_verdict: str
    strict_vs_ties_verdict: str
    strict_pair_verdict: str


def check_w1_lower_bound(
    p, n: int, c4: float, trials: int, seed: int
) -> W1BoundReport:
    """Estimate Pr(W_1) and friends at h = ceil(c4 ln(n) / p_1).

    Checks Pr(W_1) >= p_1/3, Pr(W_strict,1) >= Pr(W_ties,1)/6 (both sides
    estimated, compared interval-against-interval), and
    Pr(W_{1,2,strict}) >= (p_1 + p_2)/36.
    """
    probs = coerce_probs(p)
    require_sorted(probs)
    p1 = probs[0]
    p2 = probs[1] if len(probs) > 1 else 0.0
    h = math.ceil(c4 * math.log(n) / p1)
    rng = RngHandle(seed, stream_id=0)
    counts = sample_win_events(h, probs, trials, rng)
    w1 = Estimate.from_counts(counts.win[0], trials)
    strict_1 = Estimate.from_counts(counts.strict_1, trials)
    ties_1 = Estimate.from_counts(counts.ties_1, trials)
    pair = Estimate.from_counts(counts.strict_pair_12, trials)

    w1_bound = w1_lower(p1)
    pair_bound = strict_pair_lower(p1, p2)
    w1_verdict = verdict_vs_value(w1_bound, w1)
    pair_verdict = verdict_vs_value(pair_bound, pair)
    ratio = 1.0 / 6.0
    if strict_1.wilson_low >= ratio * ties_1.wilson_high:
        ratio_verdict = VERDICT_PASS
    elif strict_1.wilson_high < ratio * ties_1.wilson_low:
        ratio_verdict = VERDICT_FAIL
    else:
        ratio_verdict = VERDICT_INCONCLUSIVE

    return W1BoundReport(
        p=probs,
        n=int(n),
        c4=float(c4),
        h=h,
        trials=trials,
        w1=w1,
        strict_1=strict_1,
        ties_1=ties_1,
        strict_pair_12=pair,
        w1_bound=w1_bound,
        strict_pair_bound=pair_bound,
        w1_verdict=w1_verdict,
        strict_vs_ties_verdict=ratio_verdict,
        strict_pair_verdict=pair_verdict,
    )


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

PATTERN_BALANCED_BIAS = "balanced_plus_bias"
PATTERN_CUSTOM = "custom"


def balanced_plus_bias_counts(
    n: int, k: int, bias_multiplier: float
) -> tuple[tuple[int, ...], int]:
    """Near-balanced counts with opinion 1 ahead by a self-consistent bias.

    Starts from the balanced split of n into k parts, then moves B0 agents
    to opinion 1, spread evenly over the others, where B0 is the smallest
    integer satisfying B0 >= bias_multiplier * sqrt(c(1)) with
    c(1) = base + B0 (the realized plurality count). Requires B0 < c(1).
    """
    if k < 2:
        raise SweepSpecError(f"need k >= 2, got {k}")
    base = n // k
    rem = n - base * k
    counts = [base + 1 if i < rem else base for i in range(k)]
    lam = float(bias_multiplier)
    if lam > 0:
        c0 = counts[0]
        b0 = math.ceil((lam * lam + lam * math.sqrt(lam * lam + 4.0 * c0)) / 2.0)
    else:
        b0 = 0
    if b0 >= n - counts[0]:
        raise SweepSpecError(
            f"bias B0={b0} cannot be carved out of n={n}, k={k}"
        )
    counts[0] += b0
    take, extra = divmod(b0, k - 1)
    for j in range(1, k):
        counts[j] -= take + (1 if j - 1 < extra else 0)
        if counts[j] < 0:
            raise SweepSpecError(f"bias B0={b0} drives opinion {j + 1} negative")
    assert sum(counts) == n
    return tuple(counts), b0


@dataclass(frozen=True)
class SweepCell:
    """One fully resolved grid cell of a sweep."""

    index: int
    cell_id: str
    n: int
    k: int
    h: int
    b0: int
    pattern: str
    counts: tuple[int, ...]


@dataclass(frozen=True)
class SweepSpec:
    """Parameter grid driving a batch experiment.

    h is either an explicit list or derived per cell as
    ceil(h_rule_c4 * ln(n) / p1) from that cell's realized initial
    configuration. The constants are exposed as knobs because the theory
    only claims "large enough"; sweeps may probe smaller values.
    """

    ns: tuple[int, ...]
    ks: tuple[int, ...]
    hs: tuple[int, ...] = ()
    h_rule_c4: float | None = None
    pattern: str = PATTERN_BALANCED_BIAS
    bias_multiplier: float = 10.0
    custom_counts: tuple[int, ...] | None = None
    trials: int = 100
    master_seed: int = 0
    stop_rule: str = STOP_CONSENSUS
    max_rounds: int = 1000
    target_opinion: int | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise SweepSpecError(f"trials must be >= 1, got {self.trials}")
        if self.max_rounds < 1:
            raise SweepSpecError(f"max_rounds must be >= 1, got {self.max_rounds}")
        if self.stop_rule not in STOP_RULES:
            raise SweepSpecError(f"unknown stop rule {self.stop_rule!r}")
        if not self.hs and self.h_rule_c4 is None:
            raise SweepSpecError("either hs or h_rule_c4 must be given")
        if self.pattern not in (PATTERN_BALANCED_BIAS, PATTERN_CUSTOM):
            raise SweepSpecError(f"unknown pattern {self.pattern!r}")
        if self.pattern == PATTERN_CUSTOM and not self.custom_counts:
            raise SweepSpecError("custom pattern requires custom_counts")

    _JSON_FIELDS = (
        "schema_version",
        "n",
        "k",
        "h",
        "h_rule_c4",
        "pattern",
        "bias_multiplier",
        "custom_counts",
        "trials",
        "master_seed",
        "stop_rule",
        "max_rounds",
        "target_opinion",
    )

    @classmethod
    def from_json_dict(cls, data: dict) -> "SweepSpec":
        unknown = set(data) - set(cls._JSON_FIELDS)
        if unknown:
            raise SweepSpecError(f"unknown sweep spec fields: {sorted(unknown)}")
        if data.get("schema_version") != SCHEMA_VERSION:
            raise SweepSpecError(
                f"unsupported schema_version {data.get('schema_version')!r}"
            )

        def as_list(name, default=()):
            v = data.get(name, default)
            if isinstance(v, (int, float)):
                v = [v]
            return tuple(int(x) for x in v)

        return cls(
            ns=as_list("n"),
            ks=as_list("k"),
            hs=as_list("h"),
            h_rule_c4=data.get("h_rule_c4"),
            pattern=data.get("pattern", PATTERN_BALANCED_BIAS),
            bias_multiplier=float(data.get("bias_multiplier", 10.0)),
            custom_counts=tuple(data["custom_counts"])
            if data.get("custom_counts")
            else None,
            trials=int(data.get("trials", 100)),
            master_seed=int(data.get("master_seed", 0)),
            stop_rule=data.get("stop_rule", STOP_CONSENSUS),
            max_rounds=int(data.get("max_rounds", 1000)),
            target_opinion=data.get("target_opinion"),
        )

    def cells(self) -> list[SweepCell]:
        if self.pattern == PATTERN_CUSTOM:
            counts = tuple(int(c) for c in self.custom_counts)
            b0 = max(counts) - sorted(counts)[-2] if len(counts) >= 2 else sum(counts)
            starts = [(counts, b0)]
        else:
            starts = [
                balanced_plus_bias_counts(n, k, self.bias_multiplier)
                for n in self.ns
                for k in self.ks
            ]
        cells = []
        for counts, b0 in starts:
            n, k = sum(counts), len(counts)
            for h in self._hs_for(n, counts):
                cells.append(
                    SweepCell(
                        index=len(cells),
                        cell_id=f"n{n}-k{k}-h{h}-{self.pattern}",
                        n=n,
                        k=k,
                        h=h,
                        b0=b0,
                        pattern=self.pattern,
                        counts=counts,
                    )
                )
        return cells

    def _hs_for(self, n: int, counts: tuple[int, ...]) -> list[int]:
        out = list(self.hs)
        if self.h_rule_c4 is not None:
            p1 = max(counts) / n
            out.append(math.ceil(self.h_rule_c4 * math.log(n) / p1))
        for h in out:
            if h < 1:
                raise SweepSpecError(f"derived h={h} must be >= 1")
        return out


def derive_trial_seed(master_seed: int, cell_index: int, trial_index: int) -> int:
    """Stable 64-bit per-trial seed from the master seed and grid position."""
    digest = hashlib.sha256(
        f"{master_seed}:{cell_index}:{trial_index}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big")


# JSON-lines field order is part of the on-disk contract.
_RECORD_FIELDS = (
    "schema_version",
    "master_seed",
    "cell_id",
    "cell_index",
    "trial",
    "seed",
    "n",
    "k",
    "h",
    "b0",
    "pattern",
    "status",
    "consensus_round",
    "winner",
    "initial_plurality",
    "plurality_preserved",
    "rounds_run",
    "bias_trace",
    "lead_trace",
)


@dataclass
class TrialRecord:
    """Outcome of one simulated run inside a sweep cell.

    bias_trace holds (round, normalized bias) pairs; lead_trace holds
    (round, p1, p2) with the two largest opinion fractions, which the growth
    audit needs to evaluate its per-round regime boundaries. wall_time_ms is
    intentionally not serialized into the record line. The outcome fields
    default to those of an error record, which ran no round.
    """

    schema_version: int
    master_seed: int
    cell_id: str
    cell_index: int
    trial: int
    seed: int
    n: int
    k: int
    h: int
    b0: int
    pattern: str
    status: str
    consensus_round: int | None = None
    winner: int | None = None
    initial_plurality: int | None = None
    plurality_preserved: bool = False
    rounds_run: int = 0
    bias_trace: list = field(default_factory=list)
    lead_trace: list = field(default_factory=list)
    wall_time_ms: float = 0.0

    def to_json_line(self) -> str:
        data = {name: getattr(self, name) for name in _RECORD_FIELDS}
        return json.dumps(data, separators=(",", ":"), allow_nan=False)

    @classmethod
    def from_json_dict(cls, data: dict) -> "TrialRecord":
        return cls(**{name: data[name] for name in _RECORD_FIELDS})


def _top_two_fracs(summary, n: int) -> tuple[float, float]:
    if summary.counts is not None:
        ordered = sorted(summary.counts, reverse=True)
    else:
        ordered = sorted((c for _, c in summary.top_counts), reverse=True)
    top = ordered[0] / n
    second = ordered[1] / n if len(ordered) > 1 else 0.0
    return top, second


def run_trial(
    cell: SweepCell,
    trial_index: int,
    spec: SweepSpec,
) -> TrialRecord:
    """Execute one seeded trial of one cell."""
    seed = derive_trial_seed(spec.master_seed, cell.index, trial_index)
    config = Configuration.from_counts(cell.counts)
    params = RunParams(
        h=cell.h,
        max_rounds=spec.max_rounds,
        stop_rule=spec.stop_rule,
        target_opinion=spec.target_opinion,
        seed=seed,
    )
    start = perf_counter()
    traj = run(config, params)
    elapsed_ms = (perf_counter() - start) * 1e3
    return _cell_record(
        spec,
        cell,
        trial_index,
        traj.terminal_status,
        consensus_round=traj.consensus_round,
        winner=traj.winner,
        initial_plurality=traj.initial_plurality,
        plurality_preserved=(
            traj.winner is not None and traj.winner == traj.initial_plurality
        ),
        rounds_run=len(traj.rounds) - 1,
        bias_trace=[[r.t, r.normalized_bias] for r in traj.rounds],
        lead_trace=[[r.t, *_top_two_fracs(r, cell.n)] for r in traj.rounds],
        wall_time_ms=elapsed_ms,
    )


def _safe_trial(job) -> TrialRecord:
    spec, cell, trial_index = job
    try:
        return run_trial(cell, trial_index, spec)
    except Exception as exc:  # per-trial errors never abort the sweep
        return _cell_record(spec, cell, trial_index, f"error:{type(exc).__name__}")


def _cell_record(spec, cell, trial_index, status, **outcome) -> TrialRecord:
    """The record of one (cell, trial); outcome fields left out keep their
    error-record defaults."""
    return TrialRecord(
        schema_version=SCHEMA_VERSION,
        master_seed=spec.master_seed,
        cell_id=cell.cell_id,
        cell_index=cell.index,
        trial=trial_index,
        seed=derive_trial_seed(spec.master_seed, cell.index, trial_index),
        n=cell.n,
        k=cell.k,
        h=cell.h,
        b0=cell.b0,
        pattern=cell.pattern,
        status=status,
        **outcome,
    )


def run_sweep(spec: SweepSpec, workers: int = 1, skip=frozenset()):
    """Yield TrialRecords cell by cell in deterministic (cell, trial) order.

    Per-trial failures are captured into the record stream as status
    "error:<Type>" rather than aborting the sweep. Worker count never
    changes the emitted sequence. (cell_id, trial) pairs in skip are left
    out, which is how an interrupted sweep resumes.
    """
    jobs = [
        (spec, cell, t)
        for cell in spec.cells()
        for t in range(spec.trials)
        if (cell.cell_id, t) not in skip
    ]
    if workers <= 1:
        yield from map(_safe_trial, jobs)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(_safe_trial, jobs, chunksize=4)


def write_records_jsonl(records, path: str, append: bool = False) -> int:
    """Stream records to a JSON-lines file; refuses to overwrite silently."""
    mode = "a" if append else "x"
    count = 0
    with open(path, mode, encoding="utf-8") as fh:
        for record in records:
            fh.write(record.to_json_line())
            fh.write("\n")
            count += 1
    return count


def _read_complete(path: str) -> bytes:
    """The file up to its last newline. Records and timings are written a
    line at a time, so a last line without its newline is a write that an
    interruption tore, not a record."""
    with open(path, "rb") as fh:
        data = fh.read()
    return data[: data.rfind(b"\n") + 1]


def drop_torn_line(path: str) -> int:
    """Cut a torn last line off the file; returns the remaining size in bytes."""
    size = len(_read_complete(path))
    os.truncate(path, size)
    return size


def read_records_jsonl(path: str) -> list[dict]:
    """The records of a JSON-lines file, without a torn last line; a line
    that is not JSON raises ValueError."""
    lines = _read_complete(path).decode("utf-8").split("\n")
    return [json.loads(line) for line in lines if line.strip()]


# ---------------------------------------------------------------------------
# audits over record streams
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrowthAuditReport:
    """Round-over-round bias growth in the small-bias regime.

    A pair (t, t+1) qualifies when delta_t is at least
    bias_multiplier * sqrt(p1/n) and the regime classification of delta_t,
    evaluated from that round's configuration, is small-bias. vacuous is
    True when no pair qualifies, in which case the fraction is reported
    as 1.0 (no violations over an empty set).
    """

    qualifying_pairs: int
    satisfied: int
    fraction: float
    vacuous: bool
    growth_factors: tuple[float, ...]


def bias_growth_audit(
    records,
    bias_multiplier: float = 10.0,
    growth_factor: float = math.e,
    c6: float = DEFAULT_C6,
) -> GrowthAuditReport:
    """Audit delta_{t+1} >= growth_factor * delta_t over qualifying pairs.

    Accepts TrialRecords or their JSON dicts. The regime boundary
    sqrt(2 (p1 + p2) / h) is evaluated per round from the recorded traces,
    not frozen at round 0.
    """
    factors = []
    satisfied = 0
    for record in records:
        data = record if isinstance(record, dict) else record.__dict__
        n = data["n"]
        h = data["h"]
        bias = {int(t): d for t, d in data["bias_trace"]}
        lead = {int(t): (p1, p2) for t, p1, p2 in data["lead_trace"]}
        ts = sorted(bias)
        for t in ts:
            if t + 1 not in bias or t not in lead:
                continue
            delta_t = bias[t]
            p1, p2 = lead[t]
            if delta_t <= 0.0 or p1 <= 0.0:
                continue
            if delta_t < bias_multiplier * math.sqrt(p1 / n):
                continue
            if delta_t >= large_bias_boundary(p1, c6):
                continue
            if delta_t >= small_bias_boundary(p1, p2, h):
                continue
            factor = bias[t + 1] / delta_t
            factors.append(factor)
            if bias[t + 1] >= growth_factor * delta_t:
                satisfied += 1
    total = len(factors)
    return GrowthAuditReport(
        qualifying_pairs=total,
        satisfied=satisfied,
        fraction=(satisfied / total) if total else 1.0,
        vacuous=total == 0,
        growth_factors=tuple(factors),
    )


@dataclass(frozen=True)
class RareOutsampleReport:
    """How often the rare opinion loses to the leader at every agent."""

    n: int
    k: int
    h: int
    rare_opinion: int
    rounds: int
    rounds_all_outsampled: int
    fraction: float
    bound: float


def rare_outsample_audit(
    config: Configuration,
    rare_opinion: int,
    rounds: int,
    seed: int,
    h: int | None = None,
    c4: float = DEFAULT_C4,
    c3: float = DEFAULT_C3,
) -> RareOutsampleReport:
    """Repeat independent one-round experiments from a fixed configuration.

    A round counts as clean when every one of the n agents samples the
    leading opinion strictly more often than the rare one. The comparison
    bound is 1 - 1/n^(c3 - 2).
    """
    probs = np.asarray(config.counts, dtype=np.float64) / config.n
    lead = int(np.argmax(probs))
    rare = rare_opinion - 1
    if rare == lead:
        raise SweepSpecError("rare opinion coincides with the leader")
    p1 = float(probs[lead])
    if h is None:
        h = math.ceil(c4 * math.log(config.n) / p1)
    rng = RngHandle(seed, stream_id=0)
    clean = 0
    for _ in range(rounds):
        all_outsampled = True
        # every block is drawn, so each round consumes the same stream
        for matrix in sample_counts_chunks(h, probs, rng, config.n):
            if np.any(matrix[:, lead] <= matrix[:, rare]):
                all_outsampled = False
        if all_outsampled:
            clean += 1
    return RareOutsampleReport(
        n=config.n,
        k=config.k,
        h=int(h),
        rare_opinion=rare_opinion,
        rounds=rounds,
        rounds_all_outsampled=clean,
        fraction=clean / rounds,
        bound=1.0 - 1.0 / config.n ** (c3 - 2.0),
    )


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------

SUMMARY_HEADER = (
    "cell_id",
    "n",
    "k",
    "h",
    "B0",
    "trials",
    "plurality_success_rate",
    "median_consensus_round",
    "p90_consensus_round",
    "mean_wall_time_ms",
)


def _percentile(sorted_values, fraction: float):
    if not sorted_values:
        return None
    idx = max(0, math.ceil(fraction * len(sorted_values)) - 1)
    return sorted_values[idx]


def summarize_cells(records, timings: dict | None = None) -> list[dict]:
    """Aggregate record dicts into one summary row per cell."""
    by_cell: dict[str, list[dict]] = {}
    order = []
    for record in records:
        data = record if isinstance(record, dict) else record.__dict__
        cid = data["cell_id"]
        if cid not in by_cell:
            by_cell[cid] = []
            order.append(cid)
        by_cell[cid].append(data)
    rows = []
    for cid in order:
        group = by_cell[cid]
        first = group[0]
        success = sum(
            1
            for g in group
            if g["consensus_round"] is not None and g["plurality_preserved"]
        )
        rounds = sorted(
            g["consensus_round"] for g in group if g["consensus_round"] is not None
        )
        wall = timings.get(cid) if timings else None
        rows.append(
            {
                "cell_id": cid,
                "n": first["n"],
                "k": first["k"],
                "h": first["h"],
                "B0": first["b0"],
                "trials": len(group),
                "plurality_success_rate": success / len(group),
                "median_consensus_round": _percentile(rounds, 0.5),
                "p90_consensus_round": _percentile(rounds, 0.9),
                "mean_wall_time_ms": wall,
            }
        )
    return rows


def scaling_fit(summary_rows) -> list[dict]:
    """Least-squares fit of median consensus round against ln(n) per group."""
    groups: dict[tuple, list[dict]] = {}
    for row in summary_rows:
        groups.setdefault((row["k"],), []).append(row)
    out = []
    for key, rows in groups.items():
        pts = [
            (math.log(r["n"]), r["median_consensus_round"])
            for r in rows
            if r["median_consensus_round"] is not None
        ]
        if len(pts) < 2:
            continue
        xs = np.array([x for x, _ in pts])
        ys = np.array([y for _, y in pts])
        slope, intercept = np.polyfit(xs, ys, 1)
        out.append(
            {
                "k": key[0],
                "points": pts,
                "slope": float(slope),
                "intercept": float(intercept),
            }
        )
    return out


# Sidecar per-trial wall times (non-deterministic, kept out of records).
TIMINGS_HEADER = "cell_id,trial,wall_time_ms\n"


def timings_row(record: TrialRecord) -> str:
    """The timings.csv line of one record."""
    return f"{record.cell_id},{record.trial},{record.wall_time_ms:.3f}\n"


def read_mean_timings_csv(path: str) -> dict[str, float]:
    sums: dict[str, list[float]] = {}
    if not os.path.exists(path):
        return {}
    for line in _read_complete(path).decode("utf-8").splitlines()[1:]:
        parts = line.strip().split(",")
        if len(parts) == 3:
            sums.setdefault(parts[0], []).append(float(parts[2]))
    return {cid: sum(v) / len(v) for cid, v in sums.items()}
