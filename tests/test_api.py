"""The package namespace and the attributes the traced benchmark wraps."""

import importlib
import importlib.util
import pathlib

import isoperiod

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
