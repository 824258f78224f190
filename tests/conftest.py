import functools
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def round_paths(monkeypatch):
    """A list that logs, in order, each round function dynamics.run calls:
    "step" or "oracle_step"."""
    from hmajority import dynamics

    paths = []
    for name in ("step", "oracle_step"):
        real = getattr(dynamics, name)
        monkeypatch.setattr(dynamics, name, lambda *a, _real=real, _name=name:
                            paths.append(_name) or _real(*a))
    return paths


@pytest.fixture
def pin_sweep_step_mode(monkeypatch):
    """pin(mode) runs every later sweep trial in that step mode. run_trial
    builds RunParams by name and takes its default step mode, so a partial
    that fixes the mode stands in for it; worker processes see it only when
    they are forked."""
    from hmajority import montecarlo
    from hmajority.dynamics import RunParams

    def pin(mode):
        monkeypatch.setattr(montecarlo, "RunParams",
                            functools.partial(RunParams, step_mode=mode))
    return pin
