"""The output policy as a test: the seed-7 benchmark pools against their
committed outputs (``tests/data/seed7_outputs.json``, from ``make_outputs.py``).

An op passes when its outcome (the error it raised, the checks it failed) is
unchanged and every array it digests is within ``REL_TOL`` of the committed
one, relative to that array's largest magnitude.  Bit differences alone never
fail, so another numpy or BLAS build passes.  The report, printed under
``pytest -s``, gives per workload the count of bit-identical ops and the worst
relative change.
"""

import json

import numpy as np

import make_outputs

REL_TOL = 1e-10


def _relative_change(old, new) -> float:
    """max |new - old| / max |old| over one array given as [re, im] lists."""
    a = np.array(old[0]) + 1j * np.array(old[1])
    b = np.array(new[0]) + 1j * np.array(new[1])
    if a.shape != b.shape:
        return np.inf
    scale = float(np.max(np.abs(a), initial=0.0))
    change = float(np.max(np.abs(b - a), initial=0.0))
    return change / scale if scale else change


def test_seed7_outputs_within_policy():
    committed = json.loads(make_outputs.DATA.read_text())
    rerun = make_outputs.run_pools()
    assert list(rerun) == list(committed)
    problems, report = [], []
    for name, records in rerun.items():
        old_records = committed[name]
        assert len(records) == len(old_records), name
        identical, worst = 0, 0.0
        for i, (old, new) in enumerate(zip(old_records, records)):
            outcome = (new["error"], new["failed"])
            if outcome != (old["error"], old["failed"]) or len(new["values"]) != len(old["values"]):
                problems.append(f"{name} op {i}: outcome {(old['error'], old['failed'])} "
                                f"became {outcome}")
                continue
            identical += new["digest"] == old["digest"]
            change = max((_relative_change(a, b) for a, b in zip(old["values"], new["values"])),
                         default=0.0)
            worst = max(worst, change)
            if change > REL_TOL:
                problems.append(f"{name} op {i}: moved by {change:.3g} relative")
        report.append(f"{name}: {identical}/{len(records)} ops bit-identical, "
                      f"worst relative change {worst:.3g}")
    print("\n".join(report))
    assert not problems, "\n".join(problems[:20])
