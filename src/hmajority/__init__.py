"""Synchronous h-majority opinion dynamics with k opinions on the complete
graph with self-loops: agent-level simulator, exact small-instance
probability oracle, Monte Carlo experiment harness, and a bound catalog
with machine-checkable verdicts."""

from .core import (
    BiasStats,
    Configuration,
    EmptySystemError,
    HMajorityError,
    SumMismatchError,
    bias_stats,
    is_consensus,
    validate,
)
from .dynamics import RunParams, Trajectory, oracle_step, run, step
from .montecarlo import (
    Estimate,
    SweepSpec,
    TrialRecord,
    bias_growth_audit,
    check_w1_lower_bound,
    run_sweep,
)
from .oracle import (
    BinomialPairReport,
    EventReport,
    WinDistribution,
    binomial_pair_report,
    event_report,
    g_function,
    tie_map_audit,
    win_distribution,
)
from .sampler import (
    RngHandle,
    draw_multinomial,
)
from .theory import (
    BOUND_CATALOG,
    p1_growth_audit,
    regime_classifier,
    verdict,
)

__version__ = "0.1.0"

__all__ = [
    "BiasStats",
    "BinomialPairReport",
    "BOUND_CATALOG",
    "Configuration",
    "EmptySystemError",
    "Estimate",
    "EventReport",
    "HMajorityError",
    "RngHandle",
    "RunParams",
    "SumMismatchError",
    "SweepSpec",
    "Trajectory",
    "TrialRecord",
    "WinDistribution",
    "bias_growth_audit",
    "bias_stats",
    "binomial_pair_report",
    "check_w1_lower_bound",
    "draw_multinomial",
    "event_report",
    "g_function",
    "is_consensus",
    "oracle_step",
    "p1_growth_audit",
    "regime_classifier",
    "run",
    "run_sweep",
    "step",
    "tie_map_audit",
    "validate",
    "verdict",
    "win_distribution",
]
