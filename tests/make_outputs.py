"""Committed outputs of the benchmark's seed-7 input pools (the output policy).

    PYTHONPATH=src python3 tests/make_outputs.py

runs every op of the five seed-7 pools of ``perfbench/workloads.py`` and
writes ``tests/data/seed7_outputs.json``.  ``perfbench/`` is read, never
changed: the arrays an op digests are captured by patching
``workloads._digest`` for the length of the run.  Each op's record holds

* ``error``: the name of the ``IsoperiodError`` it raised, or null;
* ``failed``: the names of the checks it failed;
* ``digest``: its digest, or null if it raised;
* ``values``: the arrays it digested, each as ``[re, im]`` lists of floats
  written in their shortest round-trip form, so they read back bit for bit.
  An ``identities`` op digests rounding-level residuals, so its values are
  its input instead, ``[x, u]``; its bounds are in ``failed``.

``test_outputs.py`` reruns the ops and compares.  A change that moves outputs
reruns this script and quotes that test's report.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path
from unittest import mock

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = HERE / "data" / "seed7_outputs.json"
SEED = 7
INPUTS_ONLY = "identities"


def load_workloads():
    """``perfbench/workloads.py`` as a module (perfbench is no package).

    It is in ``sys.modules`` only while it runs, as its dataclasses need: hypothesis
    draws examples from the literals of the local modules there, so a resident copy
    would change the examples of the property tests that run after it.
    """
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules["workloads"] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules["workloads"]
    return module


def _pairs(arrays) -> list:
    return [[a.real.tolist(), a.imag.tolist()]
            for a in (np.asarray(a, dtype=complex).ravel() for a in arrays)]


def run_pools() -> dict:
    """{workload: [record, ...]} over the seed-7 pool of every workload, in pool order."""
    from isoperiod.errors import IsoperiodError

    workloads = load_workloads()
    digest = workloads._digest
    captured = []

    def capture(*arrays):
        captured[:] = arrays
        return digest(*arrays)

    pools = {}
    with mock.patch.object(workloads, "_digest", capture):
        for name, w in workloads.WORKLOADS.items():
            pools[name] = records = []
            for inp in workloads.make_inputs(name, SEED):
                captured.clear()
                try:
                    res = w.op(inp)
                except IsoperiodError as exc:
                    records.append({"error": type(exc).__name__, "failed": [],
                                    "digest": None, "values": []})
                    continue
                values = [inp.x, inp.u] if name == INPUTS_ONLY else captured
                records.append({"error": None, "failed": res.failed_checks(),
                                "digest": res.digest, "values": _pairs(values)})
    return pools


def dumps(pools: dict) -> str:
    """JSON with one op per line."""
    blocks = []
    for name, records in pools.items():
        rows = ",\n".join("  " + json.dumps(r, separators=(",", ":")) for r in records)
        blocks.append(f" {json.dumps(name)}: [\n{rows}\n ]")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(dumps(run_pools()))
    print(f"wrote {DATA.relative_to(ROOT)}")
