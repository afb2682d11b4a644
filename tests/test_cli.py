import csv
import json

import numpy as np
import pytest

from isoperiod.apps import kdv_wavevector_report
from isoperiod.cli import _EXAMPLES, j2c, main, read_trajectory_csv
from isoperiod.comb import comb_invariance_check
from isoperiod.curves import BranchConfig
from isoperiod.flow import DeformationState, FlowControl, Trajectory, integrate_flow

G1 = {"genus": 1, "x": [2.0], "u": [1.0], "real": True}
G2 = {"genus": 2, "x": [3.0, 5.0], "u": [1.0, 4.0], "real": True}


def _write_config(tmp_path, payload, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload), encoding="utf-8")
    return p


def _assert_manifest_lists_the_artifacts(out):
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == sorted(p.name for p in out.iterdir()
                                         if p.name != "manifest.json")


def test_periods_genus1_imaginary_riemann_matrix(tmp_path):
    cfg = _write_config(tmp_path, G1)
    out = tmp_path / "out"
    assert main(["periods", str(cfg), "--out", str(out), "--tol-quad", "1e-11"]) == 0
    data = json.loads((out / "periods.json").read_text())
    B = data["riemann_matrix"][0][0]
    assert abs(B[0]) < 1e-8 and B[1] > 0
    assert (out / "manifest.json").exists()


def test_periods_malformed_json_exit_2(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json", encoding="utf-8")
    assert main(["periods", str(p), "--out", str(tmp_path / "o")]) == 2


def test_periods_missing_file_exit_2(tmp_path):
    assert main(["periods", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 2


def test_periods_config_is_directory_exit_2(tmp_path):
    assert main(["periods", str(tmp_path), "--out", str(tmp_path / "o")]) == 2


def test_periods_duplicate_points_exit_3(tmp_path):
    cfg = _write_config(tmp_path, {"genus": 1, "x": [1.0], "u": [1.0], "real": True})
    assert main(["periods", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert not (tmp_path / "o").exists()


def test_periods_real_flag_on_a_complex_point_exit_3(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"genus": 1, "x": [[2.0, 1e-3]], "u": [1.0], "real": True})
    assert main(["periods", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert "real flag set but x_1 = (2+0.001j) is not real" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("payload,extra", [
    ({"x": 2.0, "u": [1.0]}, []),
    ([2.0, 1.0], []),
    ({"x": [2.0], "u": [1.0], "real": "false"}, []),
    ({"x": [[[2.0], [0.0]]], "u": [1.0]}, []),
    ({"x": [10 ** 400], "u": [1.0]}, []),
    (G1, ["--alpha", "0.5"]),
    (G1, ["--path", "5"]),
    (G1, ["--path", "[]"]),
    (G2, ["--alpha", "[NaN, 0]"]),
    (G2, ["--alpha", "[Infinity, 0]", "--path", "[[3, 5], [3.02, 5]]"]),
    (G2, ["--path", "[[3, 5], [3.02, 1e400]]"]),
    (G2, ["--path", "[[3, 5], [3.02, NaN]]"]),
    (G1, ["--hill-T", "0"]),
    (G1, ["--hill-T", "1e400"]),
], ids=["x-scalar", "top-level-list", "real-string", "nested-pair", "int-overflow",
        "alpha-scalar", "path-scalar", "path-empty", "alpha-nan", "alpha-infinity",
        "path-overflow", "path-nan", "hill-T-zero", "hill-T-overflow"])
def test_malformed_input_exit_2(tmp_path, capsys, payload, extra):
    cfg = _write_config(tmp_path, payload)
    cmd = "deform" if "--path" in extra else "verify" if "--hill-T" in extra else "periods"
    assert main([cmd, str(cfg), "--out", str(tmp_path / "o")] + extra) == 2
    if extra:                               # the message names the offending option
        assert extra[0] in capsys.readouterr().err


@pytest.mark.parametrize("token", ["NaN", "Infinity"])
def test_non_finite_config_exit_3_names_the_point(tmp_path, capsys, token):
    p = tmp_path / "config.json"
    p.write_text('{"x": [2.0], "u": [%s], "real": true}' % token, encoding="utf-8")
    assert main(["periods", str(p), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "non-finite branch point u_1" in err and "duplicate" not in err


def test_periods_unreachable_tolerance_exit_4(tmp_path):
    cfg = _write_config(tmp_path, G1)
    rc = main(["periods", str(cfg), "--tol-quad", "1e-30", "--out", str(tmp_path / "o")])
    assert rc == 4
    assert not (tmp_path / "o").exists()


def test_deform_writes_trajectory_with_schema(tmp_path):
    cfg = _write_config(tmp_path, G1)
    out = tmp_path / "run"
    rc = main(["deform", str(cfg), "--path", "[[2.0],[2.1]]", "--out", str(out),
               "--tol-quad", "1e-11", "--macro-step", "0.02"])
    assert rc == 0
    lines = (out / "trajectory.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header == ["step", "x_1", "u_1", "du_1_1", "beta_drift_1"]
    assert len(lines) >= 5
    sidecar = json.loads((out / "trajectory.json").read_text())
    assert sidecar["max_drift"] < 1e-7
    assert sidecar["mode"] == "implicit"


def test_deform_rational_mode(tmp_path):
    cfg = _write_config(tmp_path, G1)
    out = tmp_path / "run"
    rc = main(["deform", str(cfg), "--path", "[[2.0],[2.1]]", "--mode", "rational",
               "--out", str(out), "--macro-step", "0.02"])
    assert rc == 0
    assert json.loads((out / "trajectory.json").read_text())["max_drift"] < 1e-5


def test_deform_diagonal_path(tmp_path):
    cfg = _write_config(tmp_path, G2)
    out = tmp_path / "run"
    assert main(["deform", str(cfg), "--path", "[[3.0,5.0],[3.1,5.1]]", "--out", str(out),
                 "--macro-step", "0.05"]) == 0
    lines = (out / "trajectory.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 1 + 3                  # header, start, ceil(0.141 / 0.05) steps
    assert json.loads((out / "trajectory.json").read_text())["max_drift"] < 1e-10


@pytest.mark.parametrize("step", ["0", "-0.01"])
def test_deform_non_positive_macro_step_exit_2(tmp_path, capsys, step):
    cfg = _write_config(tmp_path, G1)
    assert main(["deform", str(cfg), "--path", "[[2.0],[2.1]]", "--macro-step", step,
                 "--out", str(tmp_path / "o")]) == 2
    assert "macro_step must be finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize("step", ["1e-320", "1e-16"])
def test_deform_path_of_too_many_macro_steps_exit_2(tmp_path, capsys, step):
    # the count is checked before the first step, and names the bound
    cfg = _write_config(tmp_path, G1)
    assert main(["deform", str(cfg), "--path", "[[2.0],[2.1]]", "--macro-step", step,
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "input error:" in err and "macro steps, more than 100000" in err
    assert "Traceback" not in err and not (tmp_path / "o").exists()


def test_verify_exit_4_where_the_w_constants_do_not_converge(tmp_path):
    # a real genus-3 curve with a gap of about 5.6e6: the periods converge, the
    # identity suite's W constants do not (see test_flow's twin)
    cfg = _write_config(tmp_path, {"genus": 3, "x": [2.33, 5624204.97, 5624205.73],
                                   "u": [0.729, 3.05, 5624205.32], "real": True})
    assert main(["verify", str(cfg), "--out", str(tmp_path / "o")]) == 4
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, option, value", [
    ("deform", "--tol-quad", "0"), ("deform", "--tol-quad", "nan"),
    ("deform", "--tol-quad", "-1"), ("deform", "--tol-quad", "tight"),
    ("deform", "--tol-flow", "-1"), ("deform", "--tol-flow", "inf"),
    ("comb", "--tol-invariance", "nan"), ("verify", "--tol-quad", "1e-400")])
def test_invalid_tolerance_exit_2(tmp_path, capsys, command, option, value):
    # each is parsed as a finite positive float before any quadrature runs
    cfg = _write_config(tmp_path, G1)
    extra = ["--path", "[[2.0],[2.1]]"] if command == "deform" else []
    assert main([command, str(cfg), option, value, "--out", str(tmp_path / "o")] + extra) == 2
    err = capsys.readouterr().err
    assert f"argument {option}: must be a finite positive number, not {value!r}" in err
    assert not (tmp_path / "o").exists()


def test_deform_alpha_breaking_reality_exit_3(tmp_path, capsys):
    cfg = _write_config(tmp_path, G2)
    rc = main(["deform", str(cfg), "--path", "[[3.0,5.0],[3.1,5.0]]", "--alpha", "[0.01, 0.02]",
               "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "reality condition" in capsys.readouterr().err


def test_deform_drift_gate_exit_5(tmp_path):
    cfg = _write_config(tmp_path, G1)
    rc = main(["deform", str(cfg), "--path", "[[2.0],[2.1]]", "--tol-flow", "1e-20",
               "--out", str(tmp_path / "o")])
    assert rc == 5
    assert not (tmp_path / "o").exists()


def test_deform_is_bit_deterministic(tmp_path):
    cfg = _write_config(tmp_path, G1)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["deform", str(cfg), "--path", "[[2.0],[2.05]]",
                     "--out", str(out), "--macro-step", "0.025"]) == 0
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
    assert (out1 / "trajectory.json").read_bytes() == (out2 / "trajectory.json").read_bytes()


def test_verify_reports_identities_and_hill(tmp_path):
    cfg = _write_config(tmp_path, G2)
    out = tmp_path / "v"
    assert main(["verify", str(cfg), "--out", str(out), "--tol-quad", "1e-11"]) == 0
    data = json.loads((out / "verify.json").read_text())
    assert max(data["identity_residuals"].values()) < 1e-9


def test_read_trajectory_csv_returns_trajectory(tmp_path):
    cfg = _write_config(tmp_path, G1)
    run = tmp_path / "run"
    assert main(["deform", str(cfg), "--path", "[[2.0],[2.1]]", "--out", str(run),
                 "--macro-step", "0.05"]) == 0
    traj = read_trajectory_csv(run / "trajectory.csv", 1)
    assert isinstance(traj, Trajectory)
    rows = (run / "trajectory.csv").read_text().strip().splitlines()[1:]
    assert len(traj.samples) == len(rows) >= 3
    assert np.array_equal(np.array(traj.path), np.array([s.x for s in traj.samples]))
    # alpha, the target and the mode come from deform's sidecar, and are None without it
    sidecar = json.loads((run / "trajectory.json").read_text())
    assert traj.mode == sidecar["mode"] == "implicit"
    assert np.array_equal(traj.alpha, [j2c(a) for a in sidecar["alpha"]])
    assert np.array_equal(traj.beta_target, [j2c(b) for b in sidecar["beta_target"]])
    (run / "trajectory.json").unlink()
    bare = read_trajectory_csv(run / "trajectory.csv", 1)
    assert bare.alpha is None and bare.beta_target is None and bare.mode is None
    with pytest.raises(ValueError, match="schema"):
        read_trajectory_csv(run / "trajectory.csv", 2)


def test_reports_on_csv_read_back_match_in_memory_trajectory(tmp_path, monkeypatch):
    # the read-back samples carry no period data, so both reports compute
    # them anew, as one stacked evaluation; the in-memory samples lend theirs.
    # Same values bit for bit
    import isoperiod.flow as flow_module

    cfg_path = _write_config(tmp_path, G2)
    run = tmp_path / "run"
    path = [[3.0, 5.0], [3.1, 5.0], [3.1, 5.1]]
    assert main(["deform", str(cfg_path), "--path", json.dumps(path), "--out", str(run),
                 "--macro-step", "0.05", "--tol-quad", "1e-11"]) == 0
    cfg = BranchConfig(x=G2["x"], u=G2["u"], real=True)
    mem = integrate_flow(DeformationState(cfg, np.zeros(2)), path,
                         FlowControl(quad_tol=1e-11, macro_step=0.05))
    back = read_trajectory_csv(run / "trajectory.csv", 2)
    assert all(s.pd is None for s in back.samples)
    assert all(s.pd is not None for s in mem.samples)
    calls = []
    one, stack = flow_module.normalized_basis, flow_module.normalized_bases
    monkeypatch.setattr(flow_module, "normalized_basis",
                        lambda *args, **kwargs: calls.append("one") or one(*args, **kwargs))
    monkeypatch.setattr(flow_module, "normalized_bases",
                        lambda cfgs, *args: calls.append(len(cfgs)) or stack(cfgs, *args))
    for report in (kdv_wavevector_report, comb_invariance_check):
        a = report(cfg, mem, quad_tol=1e-11)
        calls.clear()
        b = report(cfg, back, quad_tol=1e-11)
        assert calls == [len(back.samples)]
        assert a.keys() == b.keys()
        assert all(np.array_equal(a[k], b[k]) for k in a)


def test_verify_with_trajectory_reports_wavevector(tmp_path):
    cfg = _write_config(tmp_path, G1)
    run = tmp_path / "run"
    assert main(["deform", str(cfg), "--path", "[[2.0],[2.1]]", "--out", str(run),
                 "--macro-step", "0.05"]) == 0
    out = tmp_path / "v"
    rc = main(["verify", str(cfg), "--trajectory", str(run / "trajectory.csv"),
               "--out", str(out)])
    assert rc == 0
    data = json.loads((out / "verify.json").read_text())
    assert data["wavevector"]["max_drift"] < 1e-7
    assert data["wavevector"]["max_im_U_band"] < 1e-9


def test_comb_with_trajectory_reports_invariance(tmp_path):
    cfg = _write_config(tmp_path, G1)
    run = tmp_path / "run"
    assert main(["deform", str(cfg), "--path", "[[2.0],[2.2]]", "--out", str(run),
                 "--macro-step", "0.05"]) == 0
    out = tmp_path / "c"
    rc = main(["comb", str(cfg), "--trajectory", str(run / "trajectory.csv"),
               "--out", str(out)])
    assert rc == 0
    data = json.loads((out / "comb.json").read_text())
    assert data["invariance"]["base_invariant"]
    assert data["invariance"]["slits_moved"]


@pytest.mark.parametrize("sidecar", ["deform's", "none", "malformed"])
def test_comb_trajectory_takes_alpha_from_the_sidecar(tmp_path, capsys, sidecar):
    # the JSON that deform writes beside the CSV gives the read-back trajectory
    # its alpha, target b-periods and mode, so the comb refuses a flow with
    # nonzero a-periods (exit 2) as the library does; a CSV with no sidecar
    # carries no alpha and the comb runs along it, its base moving
    cfg = _write_config(tmp_path, G1)
    run = tmp_path / "run"
    assert main(["deform", str(cfg), "--path", "[[2.0],[2.04]]", "--alpha", "[[0, 0.3]]",
                 "--macro-step", "0.02", "--out", str(run)]) == 0
    if sidecar == "none":
        (run / "trajectory.json").unlink()
    elif sidecar == "malformed":
        (run / "trajectory.json").write_text("[]", encoding="utf-8")
    capsys.readouterr()
    out = tmp_path / "c"
    rc = main(["comb", str(cfg), "--trajectory", str(run / "trajectory.csv"), "--out", str(out)])
    err = capsys.readouterr().err
    if sidecar == "none":
        assert rc == 0
        assert not json.loads((out / "comb.json").read_text())["invariance"]["base_invariant"]
    else:
        assert rc == 2
        assert ("zero prescribed a-periods" if sidecar == "deform's" else "sidecar") in err


_LEG = ["--path", "[[3.0,5.0],[3.05,5.0]]", "--macro-step", "0.025"]


def _run_every_command(tmp_path) -> dict:
    """Every subcommand on G2 and all five examples, each into its own --out;
    returns {run name: out directory}."""
    cfg = str(_write_config(tmp_path, G2))
    traj = str(tmp_path / "implicit" / "trajectory.csv")
    runs = {"periods": ["periods", cfg, "--alpha", "[0.1, 0.2]"],
            "implicit": ["deform", cfg] + _LEG,
            "rational": ["deform", cfg, "--mode", "rational"] + _LEG,
            "verify": ["verify", cfg, "--hill-T", "[0, -1.5]", "--trajectory", traj],
            "comb": ["comb", cfg, "--trace", "--trajectory", traj]}
    runs.update((name, ["examples", name]) for name in _EXAMPLES)
    for name, argv in runs.items():
        assert main(argv + ["--out", str(tmp_path / name)]) == 0, name
    return {name: tmp_path / name for name in runs}


def test_every_subcommand_lists_its_artifacts_in_the_manifest(tmp_path, capsys):
    outs = _run_every_command(tmp_path)
    for out in outs.values():
        _assert_manifest_lists_the_artifacts(out)
    assert sorted(p.name for p in outs["comb"].iterdir()) == [
        "comb.json", "comb_trace.csv", "manifest.json"]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"wrote {tmp_path / 'periods' / 'periods.json'}"
    assert lines[1].startswith(f"wrote {tmp_path / 'implicit' / 'trajectory.csv'} "
                               "(max period drift ")


# the complex-valued JSON fields of every artifact, as dotted key paths (``*``
# for each item of a list), with the number of list levels above the entries
_COMPLEX_FIELDS = {
    "config.x": 1, "config.u": 1,
    "A_raw": 2, "C": 2, "riemann_matrix": 2, "omega_at_infinity": 1,
    "omega_at_ramification": 2, "second_kind.alpha": 1,
    "second_kind.poly_coefficients": 1, "second_kind.beta": 1,
    "second_kind.values_at_ramification": 1,
    "alpha": 1, "beta_target": 1, "path": 2,
    "hill.T": 0, "wavevector.U": 2,
    "zeros": 1, "beta_ratio": 1,
    "samples.*.x": 0, "samples.*.u": 0, "samples.*.two_w1": 0,
    "recovered_roots": 1, "beta": 1, "U": 1,
}


def _json_fields(node, key=""):
    """(dotted key path, value) of every complex field and every other leaf."""
    if key in _COMPLEX_FIELDS:
        yield key, node
    elif isinstance(node, dict):
        for k, v in node.items():
            yield from _json_fields(v, f"{key}.{k}" if key else k)
    elif isinstance(node, list):
        for v in node:
            yield from _json_fields(v, f"{key}.*")
    else:
        yield key, node


def _decode(v, levels: int):
    return j2c(v) if levels == 0 else [_decode(e, levels - 1) for e in v]


def test_every_artifact_holds_numbers_that_read_back(tmp_path):
    # CSV cells are plain numbers (complex ones as "(re+imj)"), the complex
    # JSON values are numbers or [re, im] pairs, and deform's trajectory CSV
    # reads back as the flow's own samples
    outs = _run_every_command(tmp_path)
    seen = set()
    for out in outs.values():
        for path in out.glob("*.csv"):
            with open(path, newline="", encoding="utf-8") as f:
                cells = [c for row in list(csv.reader(f))[1:] for c in row]
            assert cells, path
            for c in cells:
                complex(c)                  # raises on anything but a number
        for path in out.glob("*.json"):
            for key, value in _json_fields(json.loads(path.read_text())):
                if key in _COMPLEX_FIELDS:
                    levels = _COMPLEX_FIELDS[key]
                    decoded = np.array(_decode(value, levels))
                    assert decoded.ndim == levels and np.isfinite(decoded).all(), (path, key)
                    seen.add(key)
                else:
                    assert value is None or isinstance(value, (bool, int, float, str)), (path, key)
    assert seen == set(_COMPLEX_FIELDS)
    cfg = BranchConfig(x=G2["x"], u=G2["u"], real=True)
    mem = integrate_flow(DeformationState(cfg, np.zeros(2)), json.loads(_LEG[1]),
                         FlowControl(quad_tol=1e-10, macro_step=0.025))
    back = read_trajectory_csv(outs["implicit"] / "trajectory.csv", 2)
    assert len(back.samples) == len(mem.samples)
    for a, b in zip(mem.samples, back.samples):
        for name in ("x", "u", "du", "beta_drift"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_comb_subcommand(tmp_path):
    cfg = _write_config(tmp_path, G1)
    out = tmp_path / "c"
    assert main(["comb", str(cfg), "--out", str(out), "--trace"]) == 0
    data = json.loads((out / "comb.json").read_text())
    assert data["q"][0] > 0 and data["h"][0] > 0
    assert (out / "comb_trace.csv").exists()


def test_comb_trace_integrates_at_tol_quad(tmp_path, monkeypatch):
    import isoperiod.comb as comb

    tols = []
    original = comb.boundary_trace

    def recording(*args, **kwargs):
        tols.append(kwargs.get("tol"))
        return original(*args, **kwargs)

    monkeypatch.setattr(comb, "boundary_trace", recording)
    cfg = _write_config(tmp_path, G1)
    assert main(["comb", str(cfg), "--out", str(tmp_path / "c"), "--trace",
                 "--tol-quad", "1e-12"]) == 0
    assert tols == [1e-12]


def test_comb_on_narrow_gap_needs_no_b_periods(tmp_path):
    # the b-quadrature does not converge on a 1e-4 gap; the comb never reads it
    cfg = _write_config(tmp_path, {"genus": 2, "x": [1.0001, 3.0], "u": [1.0, 2.0],
                                   "real": True})
    out = tmp_path / "c"
    assert main(["comb", str(cfg), "--out", str(out)]) == 0
    data = json.loads((out / "comb.json").read_text())
    assert data["base_residual"] < 1e-9 and min(data["h"]) > 0


def test_comb_rejects_unordered_exit_3(tmp_path):
    cfg = _write_config(tmp_path, {"genus": 2, "x": [3.0, 1.0], "u": [2.0, 4.0],
                                   "real": True})
    assert main(["comb", str(cfg), "--out", str(tmp_path / "o")]) == 3


@pytest.mark.parametrize("name", ["genus1-reference", "lame-two-gap", "neumann-n2",
                                  "comb-g1"])
def test_examples_run(tmp_path, capsys, name):
    out = tmp_path / name
    assert main(["examples", name, "--out", str(out)]) == 0
    assert (out / "run.json").exists()
    _assert_manifest_lists_the_artifacts(out)
    assert capsys.readouterr().out == f"wrote {out / 'run.json'}\n"


def test_examples_lame_one_gap_small_grid(tmp_path):
    out = tmp_path / "lame1"
    assert main(["examples", "lame-one-gap", "--out", str(out)]) == 0
    _assert_manifest_lists_the_artifacts(out)
    data = json.loads((out / "run.json").read_text())
    assert data["max_two_w1_drift"] < 1e-7
    assert data["max_wave_defect"] < 1e-6


def test_examples_unknown_name_exit_2(tmp_path):
    assert main(["examples", "genus1-reference", "--out", str(tmp_path / "o")]) == 0
    assert main(["examples", "nope", "--out", str(tmp_path / "o")]) == 2
    assert main(["periods"]) == 2  # missing required argument
