"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured quantity, its tolerance, and the elapsed time.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import math
import time

import numpy as np

from _oracles import PointCurve, ellipk_agm, rhs_genus1, second_difference

from isoperiod.apps import cnoidal_period_report, kdv_wavevector_report
from isoperiod.comb import comb_invariance_check
from isoperiod.curves import BranchConfig
from isoperiod.flow import (IMPLICIT, RATIONAL, DeformationState, FlowControl,
                            first_derivatives, integrate_flow, newton_correct,
                            period_jacobian, rhs_genus_g, verify_identities)
from isoperiod.periods import (beta_from_evaluations, build_omega,
                               normalized_basis, wavevector_U)

G1 = BranchConfig(x=[2.0], u=[1.0], real=True)
G2 = BranchConfig(x=[3.0, 5.0], u=[1.0, 4.0], real=True)
TOL = 1e-11


def _report(num, label, ok, detail, t0, budget):
    dt = time.perf_counter() - t0
    status = "PASS" if ok and dt < budget else "FAIL"
    print(f"ACCEPTANCE {num:02d} {status}  {label}: {detail}, {dt:.1f}s (budget {budget:.0f}s)")
    assert ok, f"criterion {num}: {detail}"
    assert dt < budget, f"criterion {num}: runtime {dt:.1f}s over budget {budget}s"


def _flow(cfg, path, mode, macro, **kw):
    state = DeformationState(cfg, np.zeros(cfg.genus), mode=mode)
    return integrate_flow(state, path, FlowControl(quad_tol=TOL, macro_step=macro, **kw))


def test_criterion_01_elliptic_integral_oracle():
    t0 = time.perf_counter()
    pd = normalized_basis(G1, tol=TOL)
    reference = (4.0 / math.sqrt(2.0)) * ellipk_agm(math.sqrt(0.5))
    rel = abs(abs(complex(pd.A_raw[0, 0])) - reference) / reference
    _report(1, "elliptic-integral oracle", rel < 1e-9,
            f"|oint_a phi| vs (4/sqrt x) K_AGM rel err {rel:.2e} (tol 1e-9)", t0, 1.0)


def test_criterion_02_riemann_matrix_properties():
    t0 = time.perf_counter()
    worst_sym = worst_re = 0.0
    pos = True
    for cfg in (G1, G2):
        pd = normalized_basis(cfg, tol=TOL)
        worst_sym = max(worst_sym, float(np.max(np.abs(pd.B - pd.B.T))))
        worst_re = max(worst_re, float(np.max(np.abs(pd.B.real))))
        pos = pos and bool(np.all(np.linalg.eigvalsh(pd.B.imag) > 0))
    ok = worst_sym < 1e-9 and worst_re < 1e-7 and pos
    _report(2, "Riemann matrix properties", ok,
            f"asym {worst_sym:.2e} (tol 1e-9), Re {worst_re:.2e} (tol 1e-7), "
            f"Im pos-def {pos}", t0, 5.0)


def test_criterion_03_rauch_finite_differences():
    t0 = time.perf_counter()
    pts0 = np.real(G2.points)
    h = 1e-5
    base = normalized_basis(PointCurve(tuple(pts0), real=True), tol=1e-12)
    worst = 0.0
    for k in range(5):
        plus, minus = pts0.copy(), pts0.copy()
        plus[k] += h
        minus[k] -= h
        Bp = normalized_basis(PointCurve(tuple(plus), real=True), tol=1e-12).B
        Bm = normalized_basis(PointCurve(tuple(minus), real=True), tol=1e-12).B
        fd = (Bp - Bm) / (2.0 * h)
        w = base.omega_at[:, k]
        predicted = 1j * math.pi * np.outer(w, w)
        worst = max(worst, float(np.max(np.abs(fd - predicted)) / np.max(np.abs(predicted))))
    _report(3, "Rauch variational check", worst < 1e-4,
            f"max rel err over all branch points {worst:.2e} (tol 1e-4)", t0, 30.0)


def test_criterion_04_identity_suite():
    t0 = time.perf_counter()
    pd1 = normalized_basis(G1, tol=TOL)
    om1 = build_omega(G1, pd1, tol=TOL)
    rep1 = verify_identities(G1, pd1, om1, tol=TOL)
    pd2 = normalized_basis(G2, tol=TOL)
    om2 = build_omega(G2, pd2, tol=TOL)
    rep2 = verify_identities(G2, pd2, om2, tol=TOL)
    ok = (rep1["omega_squares_sum"] < 1e-12
          and rep1["second_kind_residue_sum"] < 1e-9
          and max(rep1["dual_weighted_residue_sum"],
                  rep2["dual_weighted_residue_sum"]) < 1e-9
          and rep2["w_dual_expansion_xx"] < 1e-8
          and rep2["w_dual_expansion_diag"] < 1e-8)
    detail = (f"omega-sq {rep1['omega_squares_sum']:.1e} (1e-12), "
              f"residue sums {rep1['second_kind_residue_sum']:.1e}/"
              f"{max(rep1['dual_weighted_residue_sum'], rep2['dual_weighted_residue_sum']):.1e} (1e-9), "
              f"W-expansions {rep2['w_dual_expansion_xx']:.1e}, "
              f"{rep2['w_dual_expansion_diag']:.1e} (1e-8)")
    _report(4, "identity suite", ok, detail, t0, 30.0)


def test_criterion_05_genus1_isoperiodic_drift():
    t0 = time.perf_counter()
    imp = _flow(G1, [[2.0], [2.2]], IMPLICIT, 0.02)
    rat = _flow(G1, [[2.0], [2.2]], RATIONAL, 0.02)
    ok = imp.max_drift() < 1e-7 and rat.max_drift() < 1e-5
    _report(5, "genus-1 isoperiodicity drift", ok,
            f"implicit {imp.max_drift():.2e} (tol 1e-7), "
            f"rational {rat.max_drift():.2e} (tol 1e-5)", t0, 30.0)


def test_criterion_06_mode_cross_check():
    t0 = time.perf_counter()
    imp1 = _flow(G1, [[2.0], [2.2]], IMPLICIT, 0.02)
    rat1 = _flow(G1, [[2.0], [2.2]], RATIONAL, 0.02)
    d1 = float(np.max(np.abs(imp1.grid()[1] - rat1.grid()[1])))
    path2 = [[3.0, 5.0], [3.15, 5.0], [3.15, 5.25]]
    imp2 = _flow(G2, path2, IMPLICIT, 0.025)
    rat2 = _flow(G2, path2, RATIONAL, 0.025)
    d2 = float(np.max(np.abs(imp2.grid()[1] - rat2.grid()[1])))
    ok = d1 < 1e-6 and d2 < 1e-5
    _report(6, "mode cross-check", ok,
            f"genus-1 {d1:.2e} (tol 1e-6), genus-2 two-leg {d2:.2e} (tol 1e-5)",
            t0, 120.0)


def _corner_u(beta_target, x1, x2, guess):
    cfg = G2.replace(x=(x1, x2), u=tuple(guess))
    fixed, *_ = newton_correct(cfg, np.zeros(2), beta_target, tol=1e-12,
                               quad_tol=1e-13, max_iter=8)
    return np.asarray(fixed.u)


def test_criterion_07_second_derivative_consistency():
    t0 = time.perf_counter()
    # genus 1: centered second differences of the corrected implicit flow
    imp = _flow(G1, [[2.0], [2.2]], IMPLICIT, 5e-3)
    xs, us = imp.grid()
    h = float(xs[1, 0].real - xs[0, 0].real)
    fd = second_difference(us[:, 0], h)
    worst1 = 0.0
    for i in range(1, len(xs) - 1):
        rhs = rhs_genus1(complex(xs[i, 0]), complex(us[i, 0]),
                         complex(imp.samples[i].du[0, 0]))
        worst1 = max(worst1, abs(fd[i - 1] - rhs) / abs(rhs))

    # genus 2: diagonal and mixed second differences via corrected corner states
    pd = normalized_basis(G2, tol=1e-13)
    om = build_omega(G2, pd, tol=1e-13)
    du0 = first_derivatives(G2, pd, om)
    beta0 = beta_from_evaluations(pd)
    T = rhs_genus_g(G2.x, G2.u, du0)
    h2 = 1e-2
    u0 = np.array([1.0, 4.0], dtype=complex)
    up = _corner_u(beta0, 3.0 + h2, 5.0, u0 + du0[:, 0] * h2)
    um = _corner_u(beta0, 3.0 - h2, 5.0, u0 - du0[:, 0] * h2)
    diag_fd = (up - 2.0 * u0 + um) / h2 ** 2
    worst_diag = float(np.max(np.abs(diag_fd - T[:, 0, 0]) / np.abs(T[:, 0, 0])))
    upp = _corner_u(beta0, 3.0 + h2, 5.0 + h2, u0 + (du0[:, 0] + du0[:, 1]) * h2)
    upm = _corner_u(beta0, 3.0 + h2, 5.0 - h2, u0 + (du0[:, 0] - du0[:, 1]) * h2)
    ump = _corner_u(beta0, 3.0 - h2, 5.0 + h2, u0 + (-du0[:, 0] + du0[:, 1]) * h2)
    umm = _corner_u(beta0, 3.0 - h2, 5.0 - h2, u0 - (du0[:, 0] + du0[:, 1]) * h2)
    mixed_fd = (upp - upm - ump + umm) / (4.0 * h2 ** 2)
    worst_mixed = float(np.max(np.abs(mixed_fd - T[:, 0, 1]) / np.abs(T[:, 0, 1])))
    ok = worst1 < 1e-4 and worst_diag < 1e-3 and worst_mixed < 1e-3
    _report(7, "second-derivative consistency", ok,
            f"genus-1 {worst1:.2e} (tol 1e-4), genus-2 diag {worst_diag:.2e} / "
            f"mixed {worst_mixed:.2e} (tol 1e-3)", t0, 120.0)


def test_criterion_08_jacobian_and_newton():
    t0 = time.perf_counter()
    pd = normalized_basis(G2, tol=TOL)
    om = build_omega(G2, pd, tol=TOL)
    J = period_jacobian(G2, pd, om)
    h = 1e-6
    worst = 0.0
    for j in range(2):
        up, um = list(G2.u), list(G2.u)
        up[j] += h
        um[j] -= h
        bp = beta_from_evaluations(normalized_basis(G2.replace(u=up), tol=1e-12))
        bm = beta_from_evaluations(normalized_basis(G2.replace(u=um), tol=1e-12))
        fd = (bp - bm) / (2.0 * h)
        worst = max(worst, float(np.max(np.abs(fd - J[j])) / np.max(np.abs(J[j]))))
    target = beta_from_evaluations(pd)
    perturbed = G2.replace(u=(1.0 + 1e-6, 4.0 - 1e-6))
    _, res, iters, _, _ = newton_correct(perturbed, np.zeros(2), target, tol=1e-10,
                                         quad_tol=1e-12)
    ok = worst < 1e-4 and res < 1e-10 and iters <= 3
    _report(8, "implicit-function Jacobian", ok,
            f"FD rel err {worst:.2e} (tol 1e-4), Newton residual {res:.2e} "
            f"in {iters} iters (tol 1e-10, <=3)", t0, 30.0)


def test_criterion_09_half_period_and_cnoidal_wave():
    t0 = time.perf_counter()
    rep = cnoidal_period_report(0.0, 1.0, 2.1, n_grid=512, macro_step=0.02)
    ok = rep["max_two_w1_drift"] < 1e-7 and rep["max_wave_defect"] < 1e-6
    _report(9, "half-period and cnoidal-wave preservation", ok,
            f"2w1 drift {rep['max_two_w1_drift']:.2e} (tol 1e-7), wave defect "
            f"{rep['max_wave_defect']:.2e} (tol 1e-6 of max |v|)", t0, 60.0)


def test_criterion_10_wavevector_preservation():
    t0 = time.perf_counter()
    path = [[3.0, 5.0], [3.15, 5.0], [3.15, 5.25]]
    traj = _flow(G2, path, IMPLICIT, 0.05)
    rep = kdv_wavevector_report(G2, traj)
    # negative control: same x-legs with u frozen at the start
    U0 = rep["U"][0]
    control = 0.0
    for s in traj.samples:
        c = G2.replace(x=s.x, u=(1.0, 4.0))
        control = max(control, float(np.max(np.abs(
            wavevector_U(c, normalized_basis(c, tol=TOL)) - U0))))
    ok = rep["max_drift"] < 1e-7 and control > 1e-3
    _report(10, "wavevector preservation", ok,
            f"drift {rep['max_drift']:.2e} (tol 1e-7), frozen-u control "
            f"{control:.2e} (> 1e-3)", t0, 60.0)


def test_criterion_11_comb_invariance():
    t0 = time.perf_counter()
    traj = _flow(G1, [[2.0], [2.2]], IMPLICIT, 0.04)
    rep = comb_invariance_check(G1, traj, tol=1e-6, quad_tol=TOL)
    q_drift = float(np.max(rep["q_drift"]))
    h_var = float(np.max(rep["h_variation"]))
    ok = q_drift < 1e-6 and h_var > 1e-4 and rep["ratio_spread"] < 1e-6
    _report(11, "comb base invariance", ok,
            f"q drift {q_drift:.2e} (tol 1e-6), h variation {h_var:.2e} (> 1e-4), "
            f"ratio spread {rep['ratio_spread']:.2e} (tol 1e-6)", t0, 60.0)


def test_criterion_12_reality_preservation():
    t0 = time.perf_counter()
    path = [[3.0, 5.0], [3.15, 5.0], [3.15, 5.25]]
    traj = _flow(G2, path, IMPLICIT, 0.05)
    worst = float(np.max(np.abs(traj.grid()[1].imag)))
    _report(12, "reality preservation", worst < 1e-9,
            f"max |Im u| {worst:.2e} (tol 1e-9)", t0, 60.0)
