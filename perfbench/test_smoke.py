"""Smoke test of the benchmark itself: python3 -m pytest -q perfbench/test_smoke.py

Runs every workload at its smallest size (--seconds 0: one pass over its
pool), checks that each metric named in BENCHMARK.json is printed with its
unit, and that a narrow-gap periods-sweep op is counted as failed rather
than raised.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))


def _run(cwd, workload, trace):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _check_result(proc, names):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in names}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, unit in want.items():
        assert re.search(rf"^{re.escape(name)} \S+ {re.escape(unit)}$", proc.stdout, re.M), name
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics(workload):
    proc = _run(ROOT, workload, 0)
    result = _check_result(proc, SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0
    assert re.search(r"^fail_frac \S+ frac$", proc.stdout, re.M)
    # narrow gaps in periods-sweep raise NoConvergence; no other workload fails
    if workload == "periods-sweep":
        assert result["failed"] > 0
    else:
        assert result["failed"] == 0


def test_per_layer_metrics():
    proc = _run(ROOT, "periods-sweep", 1)
    _check_result(proc, SPEC["per_layer"])
    assert "bit-identical outputs" in proc.stdout


def test_layer_map_covers_per_layer_metrics():
    layers = json.loads((HERE / "layers.json").read_text())["layers"]
    mapped = [m for layer in layers for m in layer["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in SPEC["per_layer"])


def test_narrow_gap_op_is_counted_not_raised():
    import run

    isoperiod, workloads = run._import_package()
    w = workloads.WORKLOADS["periods-sweep"]
    cfg = workloads.narrow_gap(isoperiod.BranchConfig(x=(2.0,), u=(1.0,), real=True), 0, 1e-4)
    op = run.timed_op(isoperiod, w, 0, cfg)
    assert op.failed and not op.wrong
    assert op.error == "NoConvergence"


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "cnoidal", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
