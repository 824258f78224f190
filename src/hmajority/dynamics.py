"""One synchronous round of the h-majority dynamics and full trajectories.

Each round, every one of the n agents independently samples h neighbors
uniformly at random with repetition (self-loops included: the sampling law
is exactly counts/n) and adopts the most frequent sampled opinion, breaking
ties uniformly at random. Agents are anonymous; a round only needs the
aggregated outcome counts, so step sums the winners of the blocks of
sampler.sample_modes. Its path rule is sampler.draws_take_ids: with k > h
each agent's mode comes from its h draw ids, otherwise from the binomial
chain over the opinions in descending share.

oracle_step takes the same arguments, (config, h, rng), and draws the same
next configuration from its exact law instead: Multinomial(n, q), with q
the one-agent adoption law of oracle.win_distribution, whose DP cost does
not grow with n. run calls one of the two each round, by
RunParams.step_mode. "agent_level" always calls step and
"oracle_level" always calls oracle_step. "auto", the default, takes the
oracle round whenever oracle_is_cheaper finds its DP within DP_CELL_CAP and
cheaper than sampling the agents: the cells and einsum calls of the DP's
plan over the live opinions against the draws of the path step takes,
n x h ids when k > h or n x (live k) chain binomials otherwise. The plan
is oracle.live_plan: certified Poisson windows of the round's counts leave
out the winning counts whose mass is below 2^-60 / ((h + 1) k) and give
those that at most one opinion reaches in closed form, so a near-consensus
round costs O(sqrt(h)) at any h and its DP plan is cheap. Both paths have
the same law (the DP to within 2^-59), so auto changes only the speed and
the RNG stream; the rule reads only h and the counts, so the stream is the
same on every machine. Set "agent_level" or "oracle_level" to pin a path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    Configuration,
    bias_stats,
    is_consensus,
    require_integer,
)
from .oracle import (
    DP_CELL_CAP,
    full_floor,
    live_plan,
    win_distribution,
)
from .sampler import (
    RngHandle,
    draw_multinomial,
    draws_take_ids,
    sample_modes,
)


STOP_CONSENSUS = "consensus"
STOP_PLURALITY = "plurality_consensus_on"
STOP_MAX_ROUNDS = "max_rounds_only"
STOP_RULES = (STOP_CONSENSUS, STOP_PLURALITY, STOP_MAX_ROUNDS)

STEP_AGENT = "agent_level"
STEP_ORACLE = "oracle_level"
STEP_AUTO = "auto"
STEP_MODES = (STEP_AGENT, STEP_ORACLE, STEP_AUTO)

STATUS_CONSENSUS = "consensus"
STATUS_PLURALITY_LOST = "plurality_lost"
STATUS_ROUND_CAP = "round_cap"

# Full counts are kept in round summaries up to this k; beyond it only the
# top TOP_KEEP counts plus an "other" bucket are stored.
FULL_COUNTS_MAX_K = 64
TOP_KEEP = 16


@dataclass(frozen=True)
class RunParams:
    """Parameters of a single trajectory execution.

    step_mode picks each round's path: "auto" (the default) by
    oracle_is_cheaper, or one path pinned by "agent_level" or
    "oracle_level". All three draw every round from the same law.
    """

    h: int
    max_rounds: int
    stop_rule: str = STOP_CONSENSUS
    target_opinion: int | None = None
    seed: int = 0
    step_mode: str = STEP_AUTO

    def __post_init__(self):
        # target_opinion is checked against k by require_target
        require_integer(self.h, "h", ValueError, minimum=1)
        require_integer(self.max_rounds, "max_rounds", ValueError, minimum=1)
        require_integer(self.seed, "seed", ValueError)
        if self.stop_rule not in STOP_RULES:
            raise ValueError(f"unknown stop rule {self.stop_rule!r}")
        if self.step_mode not in STEP_MODES:
            raise ValueError(f"unknown step mode {self.step_mode!r}")


@dataclass(frozen=True)
class RoundSummary:
    """Per-round state snapshot kept in a trajectory."""

    t: int
    counts: tuple[int, ...] | None
    top_counts: tuple[tuple[int, int], ...] | None  # (opinion id, count)
    other_count: int
    additive_bias: int
    normalized_bias: float
    plurality: int | None


@dataclass
class Trajectory:
    """Ordered per-round summaries plus the terminal classification.

    plurality_lost_round records the first round whose plurality differs
    from the initial one; it is an observation, not a stopping condition,
    because rare runs that lose the plurality are themselves measurement
    targets. trajectory.json stores dataclasses.asdict of a trajectory, so
    the field order here and in RoundSummary is its key order.
    """

    rounds: list[RoundSummary] = field(default_factory=list)
    terminal_status: str = STATUS_ROUND_CAP
    winner: int | None = None
    consensus_round: int | None = None
    initial_plurality: int | None = None
    plurality_lost_round: int | None = None


def summarize_round(t: int, config: Configuration) -> RoundSummary:
    """Snapshot one round; large-k configurations keep only the top counts."""
    stats = bias_stats(config)
    if config.k <= FULL_COUNTS_MAX_K:
        counts = config.counts
        top = None
        other = 0
    else:
        counts = None
        # descending count, ties by ascending index (stable sort)
        values = np.asarray(config.counts, dtype=np.int64)
        kept = np.argsort(-values, kind="stable")[:TOP_KEEP]
        top = tuple((int(i) + 1, int(values[i])) for i in kept)
        other = config.n - int(values[kept].sum())
    return RoundSummary(
        t=t,
        counts=counts,
        top_counts=top,
        other_count=other,
        additive_bias=stats.additive_bias,
        normalized_bias=stats.normalized_bias,
        plurality=stats.plurality_opinion,
    )


def step(config: Configuration, h: int, rng: RngHandle) -> Configuration:
    """One synchronous round at agent level.

    Every agent draws h opinions with law counts/n and adopts the mode with
    u.a.r. tie-breaking: the winners of sampler.sample_modes, aggregated
    into the next configuration. Consensus is absorbing: every sample then
    consists of the consensus opinion only, so the input is returned as is.
    """
    require_integer(h, "h", ValueError, minimum=1)
    if is_consensus(config) is not None:
        return config
    k = config.k
    new_counts = np.zeros(k, dtype=np.int64)
    counts = np.asarray(config.counts, dtype=np.int64)
    for winners, _, _, _ in sample_modes(h, counts, rng, config.n):
        new_counts += np.bincount(winners, minlength=k)
    return Configuration(counts=tuple(new_counts.tolist()), n=config.n)


def oracle_step(config: Configuration, h: int, rng: RngHandle) -> Configuration:
    """One synchronous round drawn from its exact law, with step's arguments.

    Agent outcomes are i.i.d. given the configuration, so the next
    configuration is Multinomial(n, q), with q the adoption law
    win_distribution(h, counts/n) renormalised; distributionally identical
    to step.
    """
    require_integer(h, "h", ValueError, minimum=1)
    q = win_distribution(h, tuple(c / config.n for c in config.counts)).q
    total = sum(q)
    drawn = draw_multinomial(config.n, tuple(v / total for v in q), rng)
    return Configuration(counts=drawn, n=config.n)


# Costs in DP cells, fitted on a grid of n in 1e3..1e6, h in 3..200 and
# 2..64 live opinions, on one thread and on two, and checked on starts with
# dead opinions (BENCH_25.json): one einsum call of the adoption-law DP, one
# agent's draw id (k > h) and one binomial of an agent's chain (k <= h).
EINSUM_CELLS = 80
ID_CELLS = 0.15
BINOMIAL_CELLS = 0.9


def oracle_is_cheaper(counts, h: int) -> bool:
    """The auto rule: whether a round from the configuration with these
    opinion counts takes oracle_step rather than step.

    The oracle's cost is its DP over the live opinions, laid out by
    oracle.live_plan over the certified windows of the counts: the plan's
    cells plus EINSUM_CELLS for each of its einsum calls, live + 1 for
    each winning count the prefix/suffix DP runs on. The agents' cost is
    that of the path step takes, which sampler.draws_take_ids picks from
    all k opinions, dead ones included: n x h ids at ID_CELLS each when
    k > h, else n x live chain binomials at BINOMIAL_CELLS each. A DP above
    DP_CELL_CAP is never taken. oracle.full_floor bounds the calls from
    below from h, the live count and the largest count in O(1), and the
    windows count them in O(k) numpy work (O(1) up to about h = 8, where
    oracle.cuts_nothing holds), so a DP whose calls already cost more than
    the agents is refused before its layout is built. Nothing here
    reads a timing, the thread count or the environment, so the path, and
    with it the RNG stream, is the same on every machine.
    """
    n, live = sum(counts), len(counts) - counts.count(0)
    if live < 2:
        return False  # consensus: step returns it as is
    if draws_take_ids(len(counts), h):
        agent_cost = ID_CELLS * n * h
    else:
        agent_cost = BINOMIAL_CELLS * n * live
    if EINSUM_CELLS * full_floor(h, live, max(counts) / n) * (live + 1) >= agent_cost:
        return False  # decided from h, live and the largest count alone
    plan = live_plan(h, np.asarray(counts, dtype=np.float64) / n)
    call_cost = EINSUM_CELLS * len(plan.full) * (live + 1)
    if call_cost >= agent_cost:  # decided without laying out the DP
        return False
    return plan.cells <= DP_CELL_CAP and plan.cells + call_cost < agent_cost


def require_target(target: int | None, k: int, error=ValueError) -> None:
    """Raise error unless target is None or an integer opinion id in 1..k."""
    require_integer(target, "target_opinion", error, optional=True)
    if target is not None and not 1 <= target <= k:
        raise error(f"target_opinion must be in 1..{k}, got {target!r}")


def run(config0: Configuration, params: RunParams) -> Trajectory:
    """Iterate rounds until the stop rule fires or max_rounds is reached.

    Round 0 is config0; every later round calls step or oracle_step, both
    as (config, h, rng), by params.step_mode; under "auto"
    oracle_is_cheaper decides from h and the round's counts.

    Under plurality_consensus_on, reaching consensus on an opinion other
    than the target terminates with status plurality_lost (consensus is
    absorbing, so the target can never be reached afterwards). Under
    max_rounds_only all rounds are executed and the terminal status reflects
    the final configuration. A target_opinion outside 1..k raises ValueError.
    """
    require_target(params.target_opinion, config0.k)
    rng = RngHandle(params.seed, stream_id=0)
    traj = Trajectory()
    config = config0
    for t in range(params.max_rounds + 1):
        if t:
            oracle = params.step_mode == STEP_ORACLE or (
                params.step_mode == STEP_AUTO
                and oracle_is_cheaper(config.counts, params.h)
            )
            config = (oracle_step if oracle else step)(config, params.h, rng)
        summary = summarize_round(t, config)
        traj.rounds.append(summary)
        if not t:
            traj.initial_plurality = summary.plurality
        elif (
            traj.plurality_lost_round is None
            and summary.plurality != traj.initial_plurality
        ):
            traj.plurality_lost_round = t
        winner = is_consensus(config)
        if winner is not None and traj.consensus_round is None:
            traj.consensus_round = t
            traj.winner = winner
        if params.stop_rule != STOP_MAX_ROUNDS and traj.consensus_round is not None:
            break

    target = params.target_opinion or traj.initial_plurality
    if traj.consensus_round is not None:
        if params.stop_rule == STOP_PLURALITY and target not in (None, traj.winner):
            traj.terminal_status = STATUS_PLURALITY_LOST
        else:
            traj.terminal_status = STATUS_CONSENSUS
    return traj
