"""The traced benchmark (benchmark/spans.py) wraps package functions by
name from outside the package. Installing its tracer here makes a rename or
deletion that would break the traced benchmark fail the test suite too."""

import importlib.util
from pathlib import Path

import hmajority
from hmajority import dynamics, sampler, verify
from hmajority.core import Configuration
from hmajority.montecarlo import SweepSpec, write_sweep
from hmajority.sampler import RngHandle

SPANS = Path(__file__).resolve().parent.parent / "benchmark" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_resolves_every_target_and_restores_the_package():
    spans = load_spans()
    step = dynamics.step
    suites = dict(verify.ALL_SUITES)
    tracer = spans.Tracer()
    # install looks up every TARGETS, THEORY_FUNCTIONS and suite name, and
    # raises AttributeError on one the package no longer has
    tracer.install()
    try:
        patched = {key for _, key, _ in tracer._patches}
        names = [fn for _, fn, _, _ in spans.TARGETS]
        names += list(spans.THEORY_FUNCTIONS)
        names += [f"suite_{s}" for s in spans.VERIFY_SUITES]
        assert set(names) <= patched, set(names) - patched
        # 100 chain rows through the patched name; a chain round (k <= h)
        # takes its modes from sample_chain_modes, not from count matrices;
        # an oracle-level round: one chain row
        rng = RngHandle(3)
        cfg = Configuration.from_counts((40, 30, 30))
        sampler.sample_counts_matrix(4, (0.4, 0.3, 0.3), rng, 100)
        dynamics.step(cfg, 4, rng)
        dynamics.oracle_step(cfg, 3, rng)
        assert tracer.counts["sampler.chain_rows"] == 101
        assert tracer.counts["sampler.cells"] == 303
        assert {"dynamics.step", "sampler.sample_counts_matrix",
                "sampler.draw_multinomial"} <= set(tracer.self_times())
    finally:
        tracer.uninstall()
    assert dynamics.step is step and hmajority.step is step
    assert verify.ALL_SUITES == suites


def test_tracer_counts_one_validate_per_configuration():
    # Configuration checks itself through the module-global validate, so the
    # tracer's wrapper sees exactly one call per configuration built
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        cfg = Configuration.from_counts((40, 30, 30))
        assert tracer.counts["core.validate.calls"] == 1
        dynamics.step(cfg, 3, RngHandle(3))
        assert tracer.counts["core.validate.calls"] == 2
    finally:
        tracer.uninstall()


def test_traced_sweep_goes_through_the_wrapped_names(tmp_path):
    # the sweep_small_h per-layer metrics read run_trial and to_json_line
    # spans; a writer that bypassed either would leave them at 0
    spec = SweepSpec(ns=(40,), ks=(2,), hs=(3,), bias_multiplier=2.0,
                     trials=2, master_seed=7, max_rounds=100)
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        assert write_sweep(spec, str(tmp_path)) == (2, 0)
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert names.count("montecarlo.run_trial") == 2
    assert names.count("montecarlo.to_json_line") == 2
