import pathlib
import sys

import numpy as np
import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


@pytest.fixture
def segment_calls(monkeypatch):
    """The intervals [(lo, hi), ...] of every segment-kernel call that
    isoperiod.periods or isoperiod.comb makes, one list per call."""
    import isoperiod.comb as comb_module
    import isoperiod.periods as periods_module

    calls = []
    original = periods_module.tanh_sinh

    def recording(lo, hi, *args, **kwargs):
        calls.append(list(zip(np.asarray(lo).tolist(), np.asarray(hi).tolist())))
        return original(lo, hi, *args, **kwargs)

    for module in (periods_module, comb_module):
        monkeypatch.setattr(module, "tanh_sinh", recording)
    return calls


@pytest.fixture
def period_calls(monkeypatch):
    """The ``basis`` argument (None for the default gap marking) of every
    normalized_basis call that isoperiod.flow or isoperiod.apps makes, and once per
    curve of every normalized_bases call that isoperiod.flow makes, in order: one
    entry per evaluated curve."""
    import isoperiod.apps as apps_module
    import isoperiod.flow as flow_module

    calls = []
    original, original_stack = flow_module.normalized_basis, flow_module.normalized_bases

    def recording(*args, **kwargs):
        calls.append(kwargs.get("basis"))
        return original(*args, **kwargs)

    def stacked(cfgs, basis=None, tol=1e-10):
        calls.extend([basis] * len(cfgs))
        return original_stack(cfgs, basis, tol)

    for module in (flow_module, apps_module):
        monkeypatch.setattr(module, "normalized_basis", recording)
    monkeypatch.setattr(flow_module, "normalized_bases", stacked)
    return calls
