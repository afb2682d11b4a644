"""Command-line interface: period computation, deformation runs, verification
reports, comb regions, and canned example runs.

Every command returns its artifacts, and only once it succeeds are they
written with a run manifest into --out; rerunning with identical inputs and
tolerances reproduces the data artifacts bit-identically (the manifest
records wall-clock time and is exempt).

Exit codes: 0 success, 2 input error, 3 validation error, 4 engine
singularity, 5 period drift exceeded.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import json
import math
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from . import apps, comb, flow, periods
from .curves import BranchConfig, validate_config
from .cycles import intersection_matrix
from .errors import (DegenerateConfig, DriftExceeded, IsoperiodError, NoConvergence,
                     SingularJacobian, SingularLocus, SingularPeriodMatrix,
                     VanishingOmegaAtU)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VALIDATION = 3
EXIT_SINGULAR = 4
EXIT_DRIFT = 5


# ---------------------------------------------------------------------------
# the artifact codec: engine values to JSON and CSV, and JSON numbers back
# ---------------------------------------------------------------------------

def _json_default(obj):
    """``json.dumps``'s ``default``: an array as nested lists, a numpy scalar as
    a number, a complex number as a number when its imaginary part is 0.0 and
    as [re, im] otherwise (which :func:`j2c` reads back)."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, complex):                # numpy's complex128 too
        return obj.real if obj.imag == 0.0 else [obj.real, obj.imag]
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _csv_cell(v):
    """A CSV cell: text and integers as they are, any other number as the repr
    of a float, or of a complex number when its imaginary part is not 0.0."""
    if isinstance(v, (str, int)):
        return v
    z = complex(v)
    return repr(z.real) if z.imag == 0.0 else repr(z)


def _is_real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def j2c(v):
    try:
        if _is_real(v):
            return complex(v)
        if isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_is_real, v)):
            return complex(float(v[0]), float(v[1]))
    except OverflowError:       # a JSON integer beyond the float range
        pass
    raise ValueError(f"expected number or [re, im] pair, got {v!r}")


def _vector(v, n: int, what: str) -> list:
    """A JSON list of n numbers or [re, im] pairs, as complex values."""
    if not isinstance(v, list) or len(v) != n:
        raise ValueError(f"{what} must be a JSON list of {n} numbers, got {v!r}")
    return [j2c(z) for z in v]


def _finite_vector(v, n: int, what: str) -> list:
    """:func:`_vector`, rejecting NaN and infinite entries, which ``json``
    reads from NaN, Infinity and out-of-range literals such as 1e400."""
    out = _vector(v, n, what)
    if not all(map(cmath.isfinite, out)):
        raise ValueError(f"{what} must have finite entries, got {v!r}")
    return out


def config_json(cfg: BranchConfig):
    return {"genus": cfg.genus, "x": cfg.x, "u": cfg.u, "real": cfg.real}


def _load_valid(path, ordered: bool = False) -> BranchConfig:
    """Read a JSON configuration file and validate it.

    Malformed input raises ValueError (exit 2); a well-formed configuration
    that violates an invariant raises DegenerateConfig (exit 3).
    """
    with open(path, "r", encoding="utf-8") as f:
        data = json.load(f)
    if not isinstance(data, dict) or not isinstance(data.get("x"), list):
        raise ValueError('configuration must be a JSON object with an "x" list')
    g = data.get("genus", len(data["x"]))
    real = data.get("real", False)
    if not isinstance(real, bool):
        raise ValueError(f'"real" must be a JSON boolean, got {real!r}')
    cfg = BranchConfig(x=tuple(_vector(data["x"], g, "x")),
                       u=tuple(_vector(data["u"], g, "u")), real=real)
    bad = validate_config(cfg, ordered=ordered)
    if bad:
        raise DegenerateConfig("invalid configuration: " + "; ".join(bad))
    return cfg


def write_json(path: Path, payload):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True,
                               default=_json_default) + "\n", encoding="utf-8")


def read_trajectory_csv(path, genus: int) -> flow.Trajectory:
    """Samples (x, u, du, drift) back from a trajectory CSV written by deform.

    Alpha, the target b-periods and the mode are read from the JSON sidecar
    that deform writes beside the CSV (same stem), and are None without one;
    the trajectory's path is the samples' x.
    """
    with open(path, "r", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    g = genus
    width = 1 + 2 * g + g * g + g
    if (len(rows) < 2 or rows[0][:1] != ["step"]
            or any(len(row) != width for row in rows)):
        raise ValueError(f"unexpected trajectory schema in {path}")
    samples = []
    for row in rows[1:]:
        vals = [complex(v) for v in row[1:]]
        x = np.array(vals[:g])
        u = np.array(vals[g:2 * g])
        du = np.array(vals[2 * g:2 * g + g * g]).reshape(g, g)
        drift = np.array([v.real for v in vals[2 * g + g * g:]])
        samples.append(flow.FlowSample(x=x, u=u, du=du, beta_drift=drift))
    sidecar, alpha, beta_target, mode = Path(path).with_suffix(".json"), None, None, None
    if sidecar.exists():
        data = json.loads(sidecar.read_text(encoding="utf-8"))
        if not isinstance(data, dict) or data.get("mode") not in (flow.IMPLICIT, flow.RATIONAL):
            raise ValueError(f"unexpected trajectory sidecar schema in {sidecar}")
        alpha, beta_target = (np.array(_finite_vector(data.get(k), g, f"{sidecar} {k}"))
                              for k in ("alpha", "beta_target"))
        mode = data["mode"]
    return flow.Trajectory(samples=samples, path=[s.x for s in samples],
                           beta_target=beta_target, alpha=alpha, mode=mode)


# ---------------------------------------------------------------------------
# subcommands: each returns its artifacts, {file name: JSON payload or CSV rows
# with the header first} holding the engine's own values, and the note printed
# after the first one's path
# ---------------------------------------------------------------------------

def cmd_periods(args):
    cfg, pd, om = _curve(args)
    return {"periods.json": {
        "config": config_json(cfg),
        "A_raw": pd.A_raw,
        "C": pd.C,
        "pairing": intersection_matrix(pd.basis, cfg.points),
        "riemann_matrix": pd.B,
        "omega_at_infinity": pd.omega_at[:, -1],
        "omega_at_ramification": pd.omega_at[:, :-1],
        "second_kind": {
            "alpha": om.alpha,
            "poly_coefficients": om.c,
            "beta": om.beta,
            "beta_residual": om.beta_residual,
            "values_at_ramification": om.values_at,
        },
        "diagnostics": pd.quad_report,
    }}, ""


def cmd_deform(args):
    cfg = _load_valid(args.config)
    path = _parse_path(args.path, cfg.genus)
    control = flow.FlowControl(quad_tol=args.tol_quad, macro_step=args.macro_step,
                               drift_tol=args.tol_flow)
    state = flow.DeformationState(cfg=cfg, alpha=_parse_alpha(args, cfg.genus),
                                  mode=args.mode)
    traj = flow.integrate_flow(state, path, control)
    return {"trajectory.csv": _trajectory_rows(traj), "trajectory.json": {
        "config": config_json(cfg),
        "mode": traj.mode,
        "alpha": traj.alpha,
        "beta_target": traj.beta_target,
        "path": traj.path,
        "max_drift": traj.max_drift(),
        "control": asdict(control),
    }}, f" (max period drift {traj.max_drift():.3e})"


def cmd_verify(args):
    cfg, pd, om = _curve(args)
    report = flow.verify_identities(cfg, pd, om, tol=args.tol_quad)
    hill = None
    if args.hill_T is not None:
        T = j2c(json.loads(args.hill_T))
        if not (cmath.isfinite(T) and T):
            raise ValueError(f"--hill-T must be a finite nonzero number, got {args.hill_T!r}")
        hc = flow.hill_check(cfg, pd, T)
        hill = {k: hc[k] for k in ("is_hill", "n", "residuals", "T")}
    wavevector = None
    if args.trajectory is not None:
        traj = read_trajectory_csv(args.trajectory, cfg.genus)
        rep = apps.kdv_wavevector_report(cfg, traj, quad_tol=args.tol_quad)
        wavevector = {k: rep[k] for k in ("max_drift", "U", "max_im_U_band") if k in rep}
        wavevector["max_recorded_beta_drift"] = traj.max_drift()
    return ({"verify.json": {"config": config_json(cfg), "identity_residuals": report,
                             "hill": hill, "wavevector": wavevector}},
            f" (worst identity residual {max(report.values()):.3e})")


def cmd_comb(args):
    cfg, pd, om = _curve(args, ordered=True)
    region = comb.comb_map(cfg, pd, om, tol=args.tol_quad)
    payload = {
        "config": config_json(cfg),
        "q": region.q,
        "h": region.h,
        "zeros": region.zeros,
        "base_residual": region.base_residual,
        "beta_ratio": region.beta_ratio,
    }
    if args.trajectory is not None:
        traj = read_trajectory_csv(args.trajectory, cfg.genus)
        rep = comb.comb_invariance_check(cfg, traj, tol=args.tol_invariance,
                                         quad_tol=args.tol_quad)
        payload["invariance"] = {k: rep[k] for k in (
            "base_invariant", "slits_moved", "q_drift", "h_variation", "ratio_spread")}
    artifacts = {"comb.json": payload}
    if args.trace:
        trace = comb.boundary_trace(cfg, pd, om, tol=args.tol_quad)
        artifacts["comb_trace.csv"] = [["lambda", "theta_re", "theta_im"]] + [
            [lam.real, th.real, th.imag] for lam, th in trace]
    return artifacts, ""


_EXAMPLES = ("comb-g1", "genus1-reference", "lame-one-gap", "lame-two-gap", "neumann-n2")


def cmd_examples(args):
    name = args.name
    if name == "genus1-reference":
        cfg = BranchConfig(x=(2.0,), u=(1.0,), real=True)
        state = flow.DeformationState(cfg=cfg, alpha=np.zeros(1), mode=flow.IMPLICIT)
        traj = flow.integrate_flow(state, [[2.0], [2.2]],
                                   flow.FlowControl(quad_tol=args.tol_quad, macro_step=0.02))
        return {"run.json": {"example": name, "config": config_json(cfg),
                             "max_drift": traj.max_drift()},
                "trajectory.csv": _trajectory_rows(traj)}, ""
    if name == "lame-one-gap":
        rep = apps.cnoidal_period_report(0.0, 1.0, 2.1, n_grid=512, quad_tol=args.tol_quad,
                                         macro_step=0.02)
        return {"run.json": {
            "example": name,
            "max_two_w1_drift": rep["max_two_w1_drift"],
            "max_wave_defect": rep["max_wave_defect"],
            "beta_drift": rep["beta_drift"],
            "samples": rep["samples"],
        }, "wave.csv": [["X", "v"], *zip(rep["wave_X"], rep["wave_v"].real)]}, ""
    if name == "lame-two-gap":
        cfg, recovered = apps.lame_two_gap_config(0.0, 1.0)
        return {"run.json": {
            "example": name, "config": config_json(cfg),
            "recovered_roots": recovered,
            "ordered": not validate_config(cfg, ordered=True),
            "violations": validate_config(cfg, ordered=True),
        }}, ""
    if name == "neumann-n2":
        cfg = apps.neumann_config([-5.0, -3.0], [4.0, 2.0])
        pd = periods.normalized_basis(cfg, tol=args.tol_quad)
        om = periods.build_omega(cfg, pd)
        return {"run.json": {
            "example": name, "config": config_json(cfg),
            "beta": om.beta,
            "U": periods.wavevector_U(cfg, pd),
        }}, ""
    cfg = BranchConfig(x=(2.0,), u=(1.0,), real=True)       # comb-g1
    pd = periods.normalized_basis(cfg, tol=args.tol_quad)
    om = periods.build_omega(cfg, pd)
    region = comb.comb_map(cfg, pd, om, tol=args.tol_quad)
    return {"run.json": {
        "example": name, "config": config_json(cfg),
        "q": region.q, "h": region.h, "beta_ratio": region.beta_ratio,
    }}, ""


# ---------------------------------------------------------------------------
# helpers and entry point
# ---------------------------------------------------------------------------

def _run(args) -> int:
    """Run the subcommand, then write its artifacts and manifest.json into --out
    and print the first artifact's path; a command that raises writes nothing."""
    t0 = time.time()
    artifacts, note = args.func(args)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, data in artifacts.items():
        if name.endswith(".csv"):
            with open(outdir / name, "w", newline="", encoding="utf-8") as f:
                csv.writer(f).writerows([_csv_cell(v) for v in row] for row in data)
        else:
            write_json(outdir / name, data)
    command = f"examples:{args.name}" if args.command == "examples" else args.command
    write_json(outdir / "manifest.json", {
        "command": command,
        "engine_version": __version__,
        "inputs": {k: v for k, v in vars(args).items() if k != "func"},
        "outputs": sorted(artifacts),
        "wall_clock_seconds": round(time.time() - t0, 3),
    })
    print(f"wrote {outdir / next(iter(artifacts))}{note}")
    return EXIT_OK


def _curve(args, ordered: bool = False):
    """The validated --config curve, its normalized periods at --tol-quad and
    its second-kind differential at --alpha (zero for a command without it)."""
    cfg = _load_valid(args.config, ordered=ordered)
    pd = periods.normalized_basis(cfg, tol=args.tol_quad)
    return cfg, pd, periods.build_omega(cfg, pd, alpha=_parse_alpha(args, cfg.genus))


def _parse_alpha(args, genus):
    if getattr(args, "alpha", None):
        return np.array(_finite_vector(json.loads(args.alpha), genus, "--alpha"), dtype=complex)
    return np.zeros(genus, dtype=complex)


def _parse_path(text, genus):
    """--path: a non-empty JSON list of x-points; a genus-one point may be a bare number."""
    points = json.loads(text)
    if not isinstance(points, list) or not points:
        raise ValueError(f"--path must be a non-empty JSON list of x-points, got {points!r}")
    return [_finite_vector(p if isinstance(p, list) else [p], genus, "each --path point")
            for p in points]


def _trajectory_rows(traj) -> list:
    """deform's trajectory CSV, header first: per sample x, u, du and the drift."""
    g = len(traj.samples[0].x)
    header = (["step"] + [f"x_{j}" for j in range(1, g + 1)]
              + [f"u_{m}" for m in range(1, g + 1)]
              + [f"du_{m}_{j}" for m in range(1, g + 1) for j in range(1, g + 1)]
              + [f"beta_drift_{k}" for k in range(1, g + 1)])
    return [header] + [[i, *s.x, *s.u, *s.du.reshape(-1), *s.beta_drift]
                       for i, s in enumerate(traj.samples)]


def _tolerance(text: str) -> float:
    """argparse type of the tolerance options: a finite positive float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite positive number, not {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="isoperiod",
                                 description="periods and isoperiodic deformations "
                                             "of hyperelliptic curves")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("config", help="JSON branch-point configuration")
        p.add_argument("--tol-quad", type=_tolerance, default=1e-10,
                       help="quadrature tolerance")
        p.add_argument("--out", default="out", help="output directory")

    p = sub.add_parser("periods", help="normalized differentials and period matrices")
    common(p)
    p.add_argument("--alpha", default=None, help="JSON list of prescribed a-periods")
    p.set_defaults(func=cmd_periods)

    p = sub.add_parser("deform", help="integrate an isoperiodic deformation")
    common(p)
    p.add_argument("--path", required=True,
                   help="JSON polyline in x-space, integrated along straight legs")
    p.add_argument("--mode", choices=[flow.IMPLICIT, flow.RATIONAL],
                   default=flow.IMPLICIT)
    p.add_argument("--alpha", default=None)
    p.add_argument("--tol-flow", type=_tolerance, default=None,
                   help="abort when period drift exceeds this")
    p.add_argument("--macro-step", type=float, default=0.01)
    p.set_defaults(func=cmd_deform)

    p = sub.add_parser("verify", help="run the identity verification harness")
    common(p)
    p.add_argument("--alpha", default=None)
    p.add_argument("--hill-T", default=None,
                   help="JSON number or [re, im]: test the Hill condition at this T")
    p.add_argument("--trajectory", default=None,
                   help="trajectory CSV: also report wavevector drift along it")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("comb", help="comb region of an ordered real configuration")
    common(p)
    p.add_argument("--trace", action="store_true", help="also write a boundary trace CSV")
    p.add_argument("--trajectory", default=None,
                   help="trajectory CSV: also run the base-invariance report")
    p.add_argument("--tol-invariance", type=_tolerance, default=1e-6)
    p.set_defaults(func=cmd_comb)

    p = sub.add_parser("examples", help="canned reference runs")
    p.add_argument("name", choices=_EXAMPLES)
    common(p, config=False)
    p.set_defaults(func=cmd_examples)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        return _run(args)
    except (OSError, ValueError, KeyError) as exc:     # JSONDecodeError is a ValueError
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DriftExceeded as exc:
        print(f"drift exceeded: {exc}", file=sys.stderr)
        return EXIT_DRIFT
    except (SingularPeriodMatrix, SingularLocus, SingularJacobian,
            VanishingOmegaAtU, NoConvergence) as exc:
        print(f"engine singularity: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except IsoperiodError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
