"""The package namespace and the attributes the traced benchmark wraps."""

import importlib
import importlib.util
import os
import pathlib
import subprocess
import sys
import textwrap

import isoperiod

ROOT = pathlib.Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def _span_targets():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


def test_all_names_resolve():
    assert len(set(isoperiod.__all__)) == len(isoperiod.__all__)
    missing = [name for name in isoperiod.__all__ if not hasattr(isoperiod, name)]
    assert missing == []


def test_traced_benchmark_targets_resolve():
    # spans.py binds "<module>.<metric>" -> (attribute of isoperiod.<module>, counts)
    missing = []
    for key, (attr, _) in _span_targets().items():
        obj = importlib.import_module("isoperiod." + key.split(".")[0])
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(f"isoperiod.{key.split('.')[0]}.{attr}")
    assert missing == []


def test_scipy_is_imported_by_the_first_rational_step_only():
    # a fresh interpreter: the package and its CLI load without scipy.integrate,
    # and a rational-mode flow loads it on its first step
    script = textwrap.dedent("""
        import sys
        import isoperiod, isoperiod.cli
        from isoperiod.flow import RATIONAL, DeformationState, integrate_flow
        assert "scipy.integrate" not in sys.modules, "loaded at import"
        G2 = isoperiod.BranchConfig(x=[3.0, 5.0], u=[1.0, 4.0], real=True)
        traj = integrate_flow(DeformationState(G2, [0.0, 0.0], mode=RATIONAL),
                              [[3.0, 5.0], [3.02, 5.0]])
        assert len(traj.samples) == 3 and traj.max_drift() < 1e-8
        assert "scipy.integrate" in sys.modules, "not loaded by the flow"
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
