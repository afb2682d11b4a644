import json

import numpy as np
import pytest

from isoperiod.cli import main, read_trajectory_csv
from isoperiod.flow import Trajectory

G1 = {"genus": 1, "x": [2.0], "u": [1.0], "real": True}
G2 = {"genus": 2, "x": [3.0, 5.0], "u": [1.0, 4.0], "real": True}


def _write_config(tmp_path, payload, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload), encoding="utf-8")
    return p


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


@pytest.mark.parametrize("payload,extra", [
    ({"x": 2.0, "u": [1.0]}, []),
    ([2.0, 1.0], []),
    ({"x": [2.0], "u": [1.0], "real": "false"}, []),
    ({"x": [[[2.0], [0.0]]], "u": [1.0]}, []),
    ({"x": [10 ** 400], "u": [1.0]}, []),
    (G1, ["--alpha", "0.5"]),
    (G1, ["--path", "5"]),
    (G1, ["--path", "[]"]),
], ids=["x-scalar", "top-level-list", "real-string", "nested-pair", "int-overflow",
        "alpha-scalar", "path-scalar", "path-empty"])
def test_malformed_input_exit_2(tmp_path, payload, extra):
    cfg = _write_config(tmp_path, payload)
    cmd = "deform" if "--path" in extra else "periods"
    assert main([cmd, str(cfg), "--out", str(tmp_path / "o")] + extra) == 2


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
    assert traj.alpha is None and traj.beta_target is None and traj.mode is None
    with pytest.raises(ValueError, match="schema"):
        read_trajectory_csv(run / "trajectory.csv", 2)


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


def test_comb_subcommand(tmp_path):
    cfg = _write_config(tmp_path, G1)
    out = tmp_path / "c"
    assert main(["comb", str(cfg), "--out", str(out), "--trace"]) == 0
    data = json.loads((out / "comb.json").read_text())
    assert data["q"][0] > 0 and data["h"][0] > 0
    assert (out / "comb_trace.csv").exists()


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
def test_examples_run(tmp_path, name):
    out = tmp_path / name
    assert main(["examples", name, "--out", str(out), "--macro-step", "0.05"]) == 0
    assert (out / "manifest.json").exists()
    assert (out / "run.json").exists()


def test_examples_lame_one_gap_small_grid(tmp_path):
    out = tmp_path / "lame1"
    rc = main(["examples", "lame-one-gap", "--out", str(out), "--grid", "64",
               "--macro-step", "0.05"])
    assert rc == 0
    data = json.loads((out / "run.json").read_text())
    assert data["max_two_w1_drift"] < 1e-7
    assert data["max_wave_defect"] < 1e-6


def test_examples_unknown_name_exit_2(tmp_path):
    assert main(["examples", "genus1-reference", "--out", str(tmp_path / "o")]) == 0
    assert main(["examples", "nope", "--out", str(tmp_path / "o")]) == 2
    assert main(["periods"]) == 2  # missing required argument
