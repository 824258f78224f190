"""Span tracer that wraps the package's public functions from outside.

Every wrapped function is replaced under each name its callers use: the
attribute in every module of the package that holds the same function
object, and any dict entry (such as ``verify.ALL_SUITES``) that holds it.
Each call records a span (name, start, end, parent). A span's self time is
its duration minus the time its child spans cover. Counters computed inside
a wrapper run after the span has closed and their cost is excluded from the
parent's self time, so they are charged to no span.
"""

from __future__ import annotations

import importlib
import math
import time

import numpy as np

MODULES = ("core", "sampler", "dynamics", "oracle", "montecarlo", "theory",
           "verify", "cli")


def _probs(p):
    """The probability vector of a sequence or a NormalizedConfig."""
    return p.probs if hasattr(p, "probs") else p


def _count_sample_counts_matrix(args, kwargs, result, counts):
    h = args[0] if args else kwargs["h"]
    p = args[1] if len(args) > 1 else kwargs["p"]
    method = args[4] if len(args) > 4 else kwargs.get("method", "auto")
    rows, k = result.shape
    if method == "auto":
        method = "chain" if k <= h else "categorical"
    counts[f"sampler.{method}_rows"] += rows
    live = np.count_nonzero(np.asarray(_probs(p)))
    counts["sampler.live_cells"] += rows * int(live)
    counts["sampler.cells"] += rows * k


def _count_argmax(args, kwargs, result, counts):
    matrix = args[0] if args else kwargs["counts"]
    rowmax = matrix.max(axis=1)
    counts["sampler.tiebreak_draws"] += int(
        np.count_nonzero((matrix == rowmax[:, None]).sum(axis=1) > 1)
    )


def _outcome_counter(metric):
    def count(args, kwargs, result, counts):
        h = args[0] if args else kwargs["h"]
        p = args[1] if len(args) > 1 else kwargs["p"]
        k = len(_probs(p))
        counts[metric] += math.comb(int(h) + k - 1, k - 1)
    return count


def _count_win_event_rows(args, kwargs, result, counts):
    counts["montecarlo.sample_win_events.rows"] += int(result.trials)


# (module, function, span name, counter). Only layer boundaries are
# wrapped: per-outcome helpers such as oracle.argmax_set would cost more
# to trace than they cost to run.
TARGETS = [
    ("core", "validate", "core.validate", None),
    ("core", "bias_stats", "core.bias_stats", None),
    ("core", "is_consensus", "core.is_consensus", None),
    ("sampler", "sample_counts_matrix", "sampler.sample_counts_matrix",
     _count_sample_counts_matrix),
    ("sampler", "argmax_rows_with_tiebreak", "sampler.argmax_rows_with_tiebreak",
     _count_argmax),
    ("sampler", "draw_multinomial", "sampler.draw_multinomial", None),
    ("dynamics", "step", "dynamics.step", None),
    ("dynamics", "oracle_step", "dynamics.oracle_step", None),
    ("dynamics", "summarize_round", "dynamics.summarize_round", None),
    ("dynamics", "run", "dynamics.run", None),
    ("oracle", "win_distribution", "oracle.win_distribution",
     _outcome_counter("oracle.win_distribution.outcomes")),
    ("oracle", "event_report", "oracle.event_report",
     _outcome_counter("oracle.event_report.outcomes")),
    ("oracle", "tie_map_audit", "oracle.tie_map_audit", None),
    ("oracle", "binomial_pair_report", "oracle.binomial_pair_report", None),
    ("montecarlo", "run_trial", "montecarlo.run_trial", None),
    ("montecarlo", "sample_win_events", "montecarlo.sample_win_events",
     _count_win_event_rows),
]
THEORY_FUNCTIONS = (
    "weak_opinion_c4", "lemma9_lower", "reduction_lower", "w1_lower",
    "strict_vs_ties_lower", "strict_pair_lower", "cond_diff_lower",
    "uncond_diff_lower", "ratio_regime_lower", "bias_threshold", "h_threshold",
    "bound_value", "verdict_vs_value", "verdict", "verdict_report",
    "classify_opinions", "p1_growth_audit", "small_bias_boundary",
    "large_bias_boundary", "regime_classifier",
)
VERIFY_SUITES = ("lemma9", "difference_equality", "monotonicity", "dominance",
                 "tiemap", "growth_claim", "bounds")


class Tracer:
    """Collects spans and counters while installed; restores on uninstall."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.excluded: dict[int, float] = {}  # span index -> counter time
        self.counts: dict[str, int] = {
            "core.validate.calls": 0,
            "sampler.chain_rows": 0,
            "sampler.categorical_rows": 0,
            "sampler.tiebreak_draws": 0,
            "sampler.live_cells": 0,
            "sampler.cells": 0,
            "oracle.win_distribution.outcomes": 0,
            "oracle.event_report.outcomes": 0,
            "montecarlo.sample_win_events.rows": 0,
        }
        self._stack: list[int] = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self._method_patches: list[tuple[type, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def wrap(self, fn, name, counter=None):
        spans = self.spans
        stack = self._stack
        excluded = self.excluded
        counts = self.counts
        clock = time.perf_counter
        is_validate = name == "core.validate"

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if is_validate:
                counts["core.validate.calls"] += 1
            if counter is not None:
                c0 = clock()
                counter(args, kwargs, result, counts)
                if parent >= 0:
                    excluded[parent] = excluded.get(parent, 0.0) + clock() - c0
            return result

        return wrapper

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span opened by the benchmark itself."""
        return self.wrap(fn, name)(*args, **kwargs)

    # -- install -------------------------------------------------------------

    def install(self):
        pkg = importlib.import_module("hmajority")
        mods = {m: importlib.import_module(f"hmajority.{m}") for m in MODULES}
        namespaces = [vars(pkg)] + [vars(m) for m in mods.values()]
        for ns in list(namespaces):
            for key, value in list(ns.items()):
                if isinstance(value, dict) and key != "__builtins__":
                    namespaces.append(value)

        targets = list(TARGETS)
        targets += [("theory", f, "theory", None) for f in THEORY_FUNCTIONS]
        targets += [("verify", f"suite_{s}", f"verify.{s}", None)
                    for s in VERIFY_SUITES]
        for mod_name, fn_name, span_name, counter in targets:
            original = getattr(mods[mod_name], fn_name)
            wrapper = self.wrap(original, span_name, counter)
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if value is original:
                        self._patches.append((ns, key, original))
                        ns[key] = wrapper

        record_cls = mods["montecarlo"].TrialRecord
        original = record_cls.to_json_line
        self._method_patches.append((record_cls, "to_json_line", original))
        record_cls.to_json_line = self.wrap(original, "montecarlo.to_json_line")

    def uninstall(self):
        for ns, key, original in reversed(self._patches):
            ns[key] = original
        for cls, attr, original in reversed(self._method_patches):
            setattr(cls, attr, original)
        self._patches.clear()
        self._method_patches.clear()

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time summed per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for index, extra in self.excluded.items():
            child[index] += extra
        out: dict[str, float] = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[index]
        return out
