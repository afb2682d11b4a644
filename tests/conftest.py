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
    isoperiod.periods makes, one list per call."""
    import isoperiod.periods as periods_module

    calls = []
    original = periods_module.tanh_sinh

    def recording(lo, hi, q, tol):
        calls.append(list(zip(np.asarray(lo).tolist(), np.asarray(hi).tolist())))
        return original(lo, hi, q, tol)

    monkeypatch.setattr(periods_module, "tanh_sinh", recording)
    return calls
