import math
import re

import numpy as np
import pytest

from _oracles import (ellipse_w_constants, first_derivatives_loops, hint_circle,
                      period_jacobian_loops, rhs_genus1, rhs_genus2_example,
                      rhs_genus_g_loops, second_difference, w_identity_loops)

from isoperiod.curves import BranchConfig
from isoperiod.cycles import gap_basis
import isoperiod.flow as flow_module
from isoperiod.errors import (DegenerateConfig, DriftExceeded, NoConvergence, NoProgress,
                             SingularJacobian, SingularLocus, SingularPeriodMatrix,
                             VanishingOmegaAtU)
from isoperiod.flow import (IMPLICIT, RATIONAL, DeformationState, FlowControl,
                            first_derivatives, hill_check, integrate_flow,
                            newton_correct, period_jacobian, rhs_genus_g,
                            verify_identities)
from isoperiod.periods import (beta_from_evaluations, build_omega,
                               normalized_basis)

G1 = BranchConfig(x=[2.0], u=[1.0], real=True)
G2 = BranchConfig(x=[3.0, 5.0], u=[1.0, 4.0], real=True)
# G1 and G2 moved off the real axis: their cycles are realized as contours
G1_COMPLEX = BranchConfig(x=[2.0 + 1e-3j], u=[1.0 - 2e-3j])
G2_COMPLEX = BranchConfig(x=[3.0 + 1e-3j, 5.0 - 2e-3j], u=[1.0 - 1.5e-3j, 4.0 + 2e-3j])
TOL = 1e-11


def _setup(cfg, alpha=None):
    pd = normalized_basis(cfg, tol=TOL)
    om = build_omega(cfg, pd, alpha=alpha, tol=TOL)
    return pd, om


# -- rational right-hand sides -------------------------------------------------

def test_rhs_genus1_zero_slope():
    assert rhs_genus1(2.0, 1.0, 0.0) == pytest.approx(0.5 * (1.0 / 2.0 + 1.0 / (1.0 - 2.0)))


def test_rhs_genus1_unit_slope_group_by_group():
    x, u, du = 2.0, 1.0, 1.0
    groups = (0.5 * (1 / x + 1 / (u - x))
              - 0.5 * du * (2 / x + 1 / (u - x))
              + 0.5 * du ** 2 * (2 / u + 1 / (x - u))
              - 0.5 * du ** 3 * (1 / u + 1 / (x - u)))
    assert rhs_genus1(x, u, du) == pytest.approx(groups)
    assert rhs_genus1(x, u, du) == pytest.approx(0.25)


def test_rhs_general_reduces_to_genus1():
    rng = np.random.default_rng(11)
    for _ in range(25):
        x = complex(rng.uniform(0.6, 3.0), rng.uniform(-0.2, 0.2))
        u = complex(rng.uniform(0.2, 0.5), rng.uniform(-0.2, 0.2))
        du = complex(rng.normal(), 0.3 * rng.normal())
        T = rhs_genus_g([x], [u], [[du]])
        assert T[0, 0, 0] == pytest.approx(rhs_genus1(x, u, du), rel=1e-12, abs=1e-12)


def test_rhs_general_matches_genus2_closed_forms():
    rng = np.random.default_rng(5)
    for _ in range(100):
        x = np.array([3.0, 5.0]) + rng.uniform(-0.4, 0.4, 2)
        u = np.array([1.0, 4.0]) + rng.uniform(-0.4, 0.4, 2)
        du = rng.normal(size=(2, 2)) * 0.8 + 1j * rng.normal(size=(2, 2)) * 0.2
        A = rhs_genus_g(x, u, du)
        B = rhs_genus2_example(x, u, du)
        assert np.max(np.abs(A - B)) < 1e-12 * max(1.0, np.max(np.abs(A)))


def test_rhs_genus2_zero_slope_hand_evaluation():
    # with all first derivatives zero only the inhomogeneous group survives:
    # mixed entries vanish, diagonal = (1/2) prod_{i!=m}((u_i - x_k)/u_i)
    #                                * (1/x_k - sum_j L_j / (x_k - u_j)),
    # L_j = prod_{s!=j} u_s / (u_s - u_j)
    x = np.array([3.0, 5.0])
    u = np.array([1.0, 4.0])
    T = rhs_genus_g(x, u, np.zeros((2, 2)))
    L = [u[1] / (u[1] - u[0]), u[0] / (u[0] - u[1])]
    for m in range(2):
        for k in range(2):
            other = u[1 - m]
            hand = 0.5 * ((other - x[k]) / other) * (
                1.0 / x[k] - L[0] / (x[k] - u[0]) - L[1] / (x[k] - u[1]))
            assert T[m, k, k] == pytest.approx(hand, rel=1e-13)
    assert abs(T[0, 0, 1]) == 0.0 and abs(T[1, 0, 1]) == 0.0


def test_rhs_mixed_symmetry():
    rng = np.random.default_rng(9)
    x = np.array([2.5, 6.0, 9.5])
    u = np.array([0.8, 4.2, 8.0])
    du = rng.normal(size=(3, 3))
    T = rhs_genus_g(x, u, du)
    assert np.max(np.abs(T - np.swapaxes(T, 1, 2))) == 0.0


def test_rhs_singular_locus_rejected():
    with pytest.raises(SingularLocus):
        rhs_genus_g([2.0], [2.0 + 1e-12], [[0.3]])
    # two close pairs among (0, x, u): the first in row-major (i < j) order is named
    with pytest.raises(SingularLocus) as exc:
        rhs_genus_g([2.0, 5.0, 8.0], [1.0, 5.0 + 1e-10, 2.0 + 1e-10], np.zeros((3, 3)))
    assert str(exc.value) == "branch points (2+0j) and (2.0000000001+0j) within 8e-08"


def _interleaved(rng, g, complex_perturbed):
    pts = np.arange(1, 2 * g + 1) + rng.uniform(-0.3, 0.3, 2 * g)
    if complex_perturbed:
        pts = pts + 0.1j * rng.normal(size=2 * g)
    return pts[1::2], pts[0::2]            # x, u with u_1 < x_1 < u_2 < ...


@pytest.mark.parametrize("g", range(1, 9))
def test_rhs_matches_loop_form(g):
    rng = np.random.default_rng(100 + g)
    for trial in range(20):
        x, u = _interleaved(rng, g, complex_perturbed=trial % 2 == 1)
        du = rng.normal(size=(g, g)) + 1j * rng.normal(size=(g, g))
        T = rhs_genus_g(x, u, du)
        ref = rhs_genus_g_loops(x, u, du)
        assert np.max(np.abs(T - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.array_equal(T, np.swapaxes(T, 1, 2))


@pytest.mark.parametrize("g", range(1, 9))
def test_rhs_of_real_inputs_is_real(g):
    # real (x, u, du) give a float64 T.  It rounds its sums in another order than the
    # complex128 call (they differ by up to ~50 ulp of max |T| at g = 8), but against
    # the same system in extended precision it is as accurate as that call
    rng = np.random.default_rng(200 + g)
    eps = np.finfo(float).eps
    for _ in range(10):
        x, u = _interleaved(rng, g, complex_perturbed=False)
        du = rng.normal(size=(g, g))
        T = rhs_genus_g(x, u, du)
        Tc = rhs_genus_g(x.astype(complex), u.astype(complex), du.astype(complex))
        assert T.dtype == np.float64 and Tc.dtype == np.complex128
        if np.finfo(np.longdouble).eps < eps:
            exact = rhs_genus_g(*(a.astype(np.longdouble) for a in (x, u, du)))
            scale = float(np.max(np.abs(exact)))
            err, err_c = (float(np.max(np.abs(A - exact))) / scale for A in (T, Tc))
            assert err <= 2.0 * err_c + 4.0 * eps
        ref = rhs_genus_g_loops(x, u, du)
        assert np.max(np.abs(T - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.array_equal(T, np.swapaxes(T, 1, 2))


def test_rhs_property_symmetric_and_matches_loop_form():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def configurations(draw):
        g = draw(st.integers(1, 5))
        gaps = draw(st.lists(st.floats(0.2, 2.0), min_size=2 * g, max_size=2 * g))
        pts = np.cumsum(gaps)              # 0 < u_1 < x_1 < u_2 < ... < x_g
        parts = draw(st.lists(st.floats(-3.0, 3.0), min_size=2 * g * g, max_size=2 * g * g))
        du = (np.array(parts[::2]) + 1j * np.array(parts[1::2])).reshape(g, g)
        return pts[1::2], pts[0::2], du

    @hypothesis.settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @hypothesis.given(configurations())
    def check(case):
        x, u, du = case
        T = rhs_genus_g(x, u, du)
        assert np.array_equal(T, np.swapaxes(T, 1, 2))
        ref = rhs_genus_g_loops(x, u, du)
        assert np.max(np.abs(T - ref)) <= 1e-12 * np.max(np.abs(ref))

    check()


# -- first derivatives ----------------------------------------------------------

def test_first_derivative_genus1_closed_form():
    pd, om = _setup(G1)
    du = first_derivatives(G1, pd, om)
    wx, wu = pd.omega_at[0, 2], pd.omega_at[0, 1]           # x_1 and u_1
    ox, ou = om.values_at[2], om.values_at[1]
    assert du[0, 0] == pytest.approx(-wx * ox / (wu * ou), rel=1e-12)


def test_first_derivative_sum_rule():
    pd, om = _setup(G2)
    du = first_derivatives(G2, pd, om)
    rep = verify_identities(G2, pd, om, tol=TOL)
    assert rep["derivative_sum_rule"] < 1e-10
    assert du.shape == (2, 2)


def test_first_derivative_implicit_function_oracle():
    # root-solve beta(x + h, u) = beta_target and compare the slope
    pd, om = _setup(G1)
    du = first_derivatives(G1, pd, om)[0, 0]
    beta0 = beta_from_evaluations(pd)
    h = 1e-4

    def solved_u(xval):
        cfg = G1.replace(x=(xval,))
        fixed, *_ = newton_correct(cfg, np.zeros(1), beta0, tol=1e-12,
                                   quad_tol=1e-13, max_iter=8)
        return complex(fixed.u[0])

    slope = (solved_u(2.0 + h) - solved_u(2.0 - h)) / (2.0 * h)
    assert slope == pytest.approx(complex(du), rel=2e-7)


def test_vanishing_omega_detected():
    pd, om = _setup(G1)
    om.values_at[1] = 0.0
    with pytest.raises(VanishingOmegaAtU):
        first_derivatives(G1, pd, om)


@pytest.mark.parametrize("g", range(1, 7))
def test_first_derivatives_and_jacobian_match_loop_forms(g):
    # the array forms make the same products as the scalar loops; the bound,
    # 4 ulp relative, leaves room only for a last-bit difference between
    # array and scalar complex products
    rng = np.random.default_rng(50 + g)
    for alpha in (None, rng.normal(size=g) * 1j):
        pts = np.cumsum(rng.uniform(0.3, 1.5, 2 * g))
        cfg = BranchConfig(x=tuple(pts[1::2]), u=tuple(pts[0::2]), real=True)
        pd, om = _setup(cfg, alpha)
        for arr, ref in ((first_derivatives(cfg, pd, om), first_derivatives_loops(cfg, pd, om)),
                         (period_jacobian(cfg, pd, om), period_jacobian_loops(cfg, pd, om))):
            assert np.max(np.abs(arr - ref)) <= 4 * np.finfo(float).eps * np.max(np.abs(ref))


# -- Newton projection -----------------------------------------------------------

def test_jacobian_matches_finite_differences():
    pd, om = _setup(G2)
    J = period_jacobian(G2, pd, om)
    h = 1e-6
    for j in range(2):
        up, um = list(G2.u), list(G2.u)
        up[j] += h
        um[j] -= h
        bp = beta_from_evaluations(normalized_basis(G2.replace(u=up), tol=1e-12))
        bm = beta_from_evaluations(normalized_basis(G2.replace(u=um), tol=1e-12))
        fd = (bp - bm) / (2.0 * h)
        rel = np.max(np.abs(fd - J[j])) / np.max(np.abs(J[j]))
        assert rel < 1e-4


def test_newton_quadratic_convergence():
    pd, _ = _setup(G2)
    target = beta_from_evaluations(pd)
    perturbed = G2.replace(u=(1.0 + 1e-6, 4.0 - 1e-6))
    fixed, res, iters, _, _ = newton_correct(perturbed, np.zeros(2), target,
                                             tol=1e-10, quad_tol=1e-12)
    assert res < 1e-10
    assert iters <= 3


def test_newton_max_iter_bounds_updates():
    pd, _ = _setup(G2)
    target = beta_from_evaluations(pd)
    perturbed = G2.replace(u=(1.0 + 1e-6, 4.0 - 1e-6))
    with pytest.raises(NoProgress):
        newton_correct(perturbed, np.zeros(2), target, tol=1e-10, quad_tol=1e-12,
                       max_iter=0)
    _, res, iters, _, _ = newton_correct(perturbed, np.zeros(2), target, tol=1e-10,
                                         quad_tol=1e-12, max_iter=1)
    assert res < 1e-10
    assert iters == 1


def test_newton_already_feasible_is_identity():
    pd, _ = _setup(G1)
    target = beta_from_evaluations(pd)
    fixed, res, iters, _, _ = newton_correct(G1, np.zeros(1), target, tol=1e-10,
                                             quad_tol=1e-12)
    assert abs(fixed.u[0] - 1.0) < 1e-12
    assert iters == 0


def test_newton_polishes_a_prediction_already_under_tol():
    # u moved by 1e-11 leaves a beta residual of 6.3e-12, under NEWTON_TOL = 1e-11;
    # the prediction is still polished once, down to the rounding floor
    target = beta_from_evaluations(normalized_basis(G2, tol=TOL))
    moved = G2.replace(u=(1.0 + 1e-11, 4.0 - 1e-11))
    fixed, res, iters, _, _ = newton_correct(moved, np.zeros(2), target,
                                             tol=flow_module.NEWTON_TOL, quad_tol=TOL)
    assert iters == 1
    assert np.max(np.abs(np.asarray(fixed.u) - np.asarray(G2.u))) <= 1e-14


def test_newton_raises_singular_jacobian_where_omega_vanishes_at_u():
    # alpha_1 = -Omega_0(P_u1) / omega_1(P_u1) makes Omega(P_u1) = 0: the period
    # Jacobian's first row vanishes, and its condition is infinite
    pd, om = _setup(G2)
    alpha = np.array([-om.values_at[1] / pd.omega_at[0, 1], 0.0])
    assert abs(build_omega(G2, pd, alpha).values_at[1]) <= 1e-15
    target = beta_from_evaluations(pd, alpha) + 1e-6
    with pytest.raises(SingularJacobian, match="^period Jacobian condition"):
        newton_correct(G2, alpha, target, quad_tol=TOL)


# -- flow integration -------------------------------------------------------------

@pytest.fixture(scope="module")
def g1_flows():
    ctrl = FlowControl(quad_tol=TOL, macro_step=0.02)
    imp = integrate_flow(DeformationState(G1, np.zeros(1), mode=IMPLICIT),
                         [[2.0], [2.2]], ctrl)
    rat = integrate_flow(DeformationState(G1, np.zeros(1), mode=RATIONAL),
                         [[2.0], [2.2]], ctrl)
    return imp, rat


def test_flow_drift_both_modes(g1_flows):
    imp, rat = g1_flows
    assert imp.max_drift() < 1e-7
    assert rat.max_drift() < 1e-5


def test_flow_modes_agree_pointwise(g1_flows):
    imp, rat = g1_flows
    _, ui = imp.grid()
    _, ur = rat.grid()
    assert np.max(np.abs(ui - ur)) < 1e-6


def test_flow_du_consistency(g1_flows):
    imp, rat = g1_flows
    for si, sr in zip(imp.samples, rat.samples):
        assert abs(si.du[0, 0] - sr.du[0, 0]) < 1e-6


def _without_correction(monkeypatch):
    """Make the implicit steps keep their predictions: newton_correct applies no update."""
    original = flow_module.newton_correct
    monkeypatch.setattr(flow_module, "newton_correct",
                        lambda cfg, alpha, target, basis, tol, quad_tol, max_iter:
                        original(cfg, alpha, target, basis, math.inf, quad_tol, 0))


def test_flow_without_correction_stays_within_loose_tolerance(monkeypatch):
    _without_correction(monkeypatch)
    ctrl = FlowControl(quad_tol=TOL, macro_step=0.02)
    traj = integrate_flow(DeformationState(G1, np.zeros(1), mode=IMPLICIT),
                          [[2.0], [2.2]], ctrl)
    assert traj.max_drift() < 1e-5


def test_flow_with_prescribed_a_periods():
    # a purely imaginary prescribed a-period keeps a real curve real in this
    # marking (real alpha would drive u off the real axis)
    alpha = np.array([0.3j])
    state = DeformationState(G1, alpha, mode=IMPLICIT)
    traj = integrate_flow(state, [[2.0], [2.1]],
                          FlowControl(quad_tol=TOL, macro_step=0.02))
    assert traj.max_drift() < 1e-8
    assert np.max(np.abs(traj.grid()[1].imag)) < 1e-9
    # the deformation genuinely differs from the zero-a-period one
    zero = integrate_flow(DeformationState(G1, np.zeros(1), mode=IMPLICIT),
                          [[2.0], [2.1]], FlowControl(quad_tol=TOL, macro_step=0.02))
    assert abs(traj.grid()[1][-1, 0] - zero.grid()[1][-1, 0]) > 1e-4
    # the rational system carries no explicit a-period dependence: the
    # prescribed periods enter only through the initial slope
    rat = integrate_flow(DeformationState(G1, alpha, mode=RATIONAL),
                         [[2.0], [2.1]], FlowControl(quad_tol=TOL, macro_step=0.02))
    assert np.max(np.abs(traj.grid()[1] - rat.grid()[1])) < 1e-8


@pytest.mark.parametrize("mode", [IMPLICIT, RATIONAL])
def test_real_alpha_on_gap_marking_rejected_before_first_step(mode, monkeypatch):
    # real alpha makes alpha . C imaginary on the gap marking: the flow would
    # leave the real locus, so it stops before any step with the reason
    calls = []
    original = flow_module.normalized_basis

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(flow_module, "normalized_basis", counting)
    with pytest.raises(DegenerateConfig, match="reality condition"):
        integrate_flow(DeformationState(G2, np.array([0.01, 0.02]), mode=mode),
                       [[3.0, 5.0], [3.1, 5.0]], FlowControl(quad_tol=TOL))
    assert len(calls) == 1


def test_flow_zero_length_path():
    traj = integrate_flow(DeformationState(G1, np.zeros(1), mode=IMPLICIT),
                          [[2.0], [2.0]], FlowControl(quad_tol=TOL))
    assert len(traj.samples) == 1
    assert traj.max_drift() < 1e-10
    assert complex(traj.samples[0].u[0]) == 1.0 + 0.0j


def test_flow_stops_at_singular_locus_with_location():
    # driving x down makes u(x) rise to meet it; the flow must stop and say where
    with pytest.raises(SingularLocus, match="x = \\["):
        integrate_flow(DeformationState(G1, np.zeros(1), mode=RATIONAL),
                       [[2.0], [1.02]],
                       FlowControl(quad_tol=TOL, macro_step=0.05))


def test_implicit_flow_stops_at_singular_locus_with_location():
    # the implicit twin: a corrected step may not jump u_1 across x_1 (about x = 1.4357)
    with pytest.raises(SingularLocus, match="x = \\[1\\.435"):
        integrate_flow(DeformationState(G1, np.zeros(1), mode=IMPLICIT),
                       [[2.0], [1.02]],
                       FlowControl(quad_tol=TOL, macro_step=0.05))


def test_implicit_flow_period_evaluations_per_macro_step(monkeypatch):
    # one predictor-corrector step costs at most 2 period evaluations: the third-order
    # predictor leaves a residual that one Newton update takes to the rounding floor
    calls = []
    original = flow_module.normalized_basis

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(flow_module, "normalized_basis", counting)
    traj = integrate_flow(DeformationState(G1, np.zeros(1), mode=IMPLICIT),
                          [[2.0], [2.2]], FlowControl(quad_tol=TOL, macro_step=0.02))
    n_macro = len(traj.samples) - 1
    assert len(calls) <= 1 + 2 * n_macro
    for s in traj.samples[1:]:
        assert s.info["newton_iters"] >= 0 and s.info["halvings"] >= 0


def test_implicit_flow_in_the_benchmark_shape_takes_two_evaluations_per_step(
        monkeypatch, period_calls):
    # two axis legs of one 0.025 macro step at genus 2: the start's evaluation, then
    # per step the predicted point's and one Newton update's; two rhs_genus_g calls a step
    rhs_calls = _count_rhs_calls(monkeypatch)
    traj = integrate_flow(DeformationState(G2, np.zeros(2), mode=IMPLICIT),
                          [[3.0, 5.0], [3.025, 5.0], [3.025, 5.025]],
                          FlowControl(quad_tol=TOL, macro_step=0.025))
    assert len(traj.samples) == 3
    assert len(period_calls) == 5 and len(rhs_calls) == 4
    assert [s.info["newton_iters"] for s in traj.samples[1:]] == [1, 1]
    assert traj.max_drift() < 1e-13


@pytest.mark.parametrize("cfg", [G2, BranchConfig(x=[2.5, 6.0, 9.5], u=[0.8, 4.2, 8.0], real=True)],
                         ids=["g2", "g3"])
def test_implicit_predictor_is_third_order(cfg, monkeypatch):
    # uncorrected, one step's drift is the predictor's local error, O(h^4): halving h
    # cuts it 16-fold (15.4 at g = 2, 15.6 at g = 3), where the second-order Taylor
    # predictor cut it 8-fold
    _without_correction(monkeypatch)
    x0 = np.real(cfg.x)
    d = np.eye(cfg.genus)[0]

    def drift(h):
        traj = integrate_flow(DeformationState(cfg, np.zeros(cfg.genus), mode=IMPLICIT),
                              [x0, x0 + h * d],
                              FlowControl(quad_tol=TOL, macro_step=h))
        assert len(traj.samples) == 2
        return traj.max_drift()

    assert drift(0.05) >= 12.0 * drift(0.025)


def test_implicit_flow_corrects_through_newton_correct(monkeypatch):
    # each step calls the public newton_correct once (no halvings on this
    # regular path), and its update counts are the samples' newton_iters
    updates = []
    original = flow_module.newton_correct

    def counting(*args, **kwargs):
        out = original(*args, **kwargs)
        updates.append(out[2])
        return out

    monkeypatch.setattr(flow_module, "newton_correct", counting)
    traj = integrate_flow(DeformationState(G2, np.zeros(2), mode=IMPLICIT),
                          [[3.0, 5.0], [3.1, 5.0], [3.05, 5.04]],
                          FlowControl(quad_tol=TOL, macro_step=0.02))
    assert all(s.info["halvings"] == 0 for s in traj.samples[1:])
    assert len(updates) == len(traj.samples) - 1
    assert sum(updates) == sum(s.info["newton_iters"] for s in traj.samples[1:]) > 0


def test_implicit_failed_step_is_halved(monkeypatch):
    # a Newton failure on the first step halves it; the two half steps land on the
    # sample a flow at half the macro step reaches, bit for bit
    original = flow_module.newton_correct
    failed = []

    def fail_once(*args, **kwargs):
        if not failed:
            failed.append(1)
            raise NoProgress("injected")
        return original(*args, **kwargs)

    path = [[3.0, 5.0], [3.05, 5.0]]
    state = DeformationState(G2, np.zeros(2), mode=IMPLICIT)
    monkeypatch.setattr(flow_module, "newton_correct", fail_once)
    traj = integrate_flow(state, path, FlowControl(quad_tol=TOL, macro_step=0.025))
    monkeypatch.setattr(flow_module, "newton_correct", original)
    fine = integrate_flow(state, path, FlowControl(quad_tol=TOL, macro_step=0.0125))
    s1, s2 = traj.samples[1:]
    assert (s1.info["halvings"], s1.info["newton_iters"]) == (1, 2)
    assert s2.info["halvings"] == 0
    assert np.array_equal(s1.u, fine.samples[2].u)


@pytest.mark.parametrize("macro_step", [0.0, -0.01, math.inf, math.nan])
def test_flow_control_rejects_non_positive_macro_step(macro_step):
    with pytest.raises(ValueError, match="macro_step must be finite and positive"):
        FlowControl(macro_step=macro_step)


def test_deformation_state_rejects_unknown_mode():
    with pytest.raises(ValueError, match="implict"):
        DeformationState(G2, np.zeros(2), mode="implict")


@pytest.mark.parametrize("alpha", [0, np.zeros(3), np.zeros((2, 1))])
def test_deformation_state_rejects_misshapen_alpha(alpha):
    with pytest.raises(ValueError, match=r"alpha must be of shape \(2,\)"):
        DeformationState(G2, alpha, mode=IMPLICIT)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_non_finite_alpha_rejected(bad):
    with pytest.raises(ValueError, match="alpha must be finite"):
        DeformationState(G2, [bad, 0.0])


def test_rational_samples_realize_b_contours_only_for_nonzero_alpha(monkeypatch):
    # the drift reads B only when alpha != 0, and first_derivatives never does
    # (contours: a complex configuration)
    import isoperiod.cycles as cycles_module

    cfg = G1_COMPLEX
    basis = gap_basis(cfg.points.real)
    path = [cfg.x, np.add(cfg.x, 0.1)]
    realized_b = []
    original = cycles_module.realize

    def recording(spec, points):
        realized_b.append(spec in basis.b)
        return original(spec, points)

    monkeypatch.setattr(cycles_module, "realize", recording)
    ctrl = FlowControl(quad_tol=TOL, macro_step=0.05)
    integrate_flow(DeformationState(cfg, np.zeros(1), mode=RATIONAL, basis=basis), path, ctrl)
    assert realized_b and sum(realized_b) == 0
    realized_b.clear()
    integrate_flow(DeformationState(cfg, np.array([0.3j]), mode=RATIONAL, basis=basis), path, ctrl)
    assert sum(realized_b) > 0


def test_rational_samples_integrate_b_segments_only_for_nonzero_alpha(segment_calls):
    # segment path: the b-cycle of G1 is the band [0, u_1], a-periods need only [u_1, x_1]
    ctrl = FlowControl(quad_tol=TOL, macro_step=0.05)
    integrate_flow(DeformationState(G1, np.zeros(1), mode=RATIONAL), [[2.0], [2.1]], ctrl)
    assert segment_calls and all(lo > 0.0 for call in segment_calls for lo, _ in call)
    segment_calls.clear()
    integrate_flow(DeformationState(G1, np.array([0.3j]), mode=RATIONAL), [[2.0], [2.1]], ctrl)
    assert any(lo == 0.0 for call in segment_calls for lo, _ in call)


def test_rational_samples_checked_in_one_stacked_kernel_call(segment_calls):
    # three one-step legs: the start's a-segments, then those of all three
    # samples in one kernel call (the three gaps of each sample's curve)
    cfg = _interleaved_g3(0)
    step = 0.025 * (1.0 - 1e-9)
    path = [np.array(cfg.x)]
    for k in range(3):
        path.append(path[-1] + step * np.eye(3)[k])
    traj = integrate_flow(DeformationState(cfg, np.zeros(3), mode=RATIONAL), path,
                          FlowControl(quad_tol=TOL, macro_step=0.025))
    assert len(traj.samples) == 4
    assert len(segment_calls) == 2 and len(segment_calls[1]) == 3 * 3
    assert all(s.info["du_consistency"] < 1e-8 for s in traj.samples[1:])
    assert len({id(s.pd.table) for s in traj.samples}) == 4


def test_rational_samples_checked_in_blocks_of_check_block(monkeypatch, segment_calls):
    # in blocks of two, five one-step samples take three stacked kernel calls
    # after the start's and give the same drifts as one block; a drift failure
    # at the first sample raises before the stepper goes past its block
    cfg = _interleaved_g3(0)
    step = 0.025 * (1.0 - 1e-9)
    path = [np.array(cfg.x)]
    for k in (0, 1, 2, 0, 1):
        path.append(path[-1] + step * np.eye(3)[k])

    def run(drift_tol=None):
        return integrate_flow(DeformationState(cfg, np.zeros(3), mode=RATIONAL), path,
                              FlowControl(quad_tol=TOL, macro_step=0.025, drift_tol=drift_tol))

    whole = run()
    assert [len(call) for call in segment_calls] == [3, 15]
    monkeypatch.setattr(flow_module, "CHECK_BLOCK", 2)
    segment_calls.clear()
    blocks = run()
    assert [len(call) for call in segment_calls] == [3, 6, 6, 3]
    for a, b in zip(whole.samples, blocks.samples):
        assert np.array_equal(a.beta_drift, b.beta_drift) and np.array_equal(a.pd.C, b.pd.C)
        assert a.info == b.info
    steps = []
    original = flow_module.solve_ivp
    monkeypatch.setattr(flow_module, "solve_ivp",
                        lambda *args: steps.append(args[1]) or original(*args))
    with pytest.raises(DriftExceeded):
        run(1e-300)
    assert len(steps) == 2


def test_rational_checks_fall_back_to_one_evaluation_per_sample(monkeypatch):
    # when the stacked evaluation raises, the samples are evaluated one by one
    # in path order, so a sample's own period error raises after the checks of
    # the samples before it, and no later sample is evaluated
    calls = []
    original = flow_module.normalized_basis

    def stack(*args, **kwargs):
        raise NoConvergence("stack")

    def one(cfg, **kwargs):
        calls.append(cfg.x)
        if len(calls) == 3:             # the start, the first sample, then the second
            raise SingularPeriodMatrix("second sample")
        return original(cfg, **kwargs)

    monkeypatch.setattr(flow_module, "normalized_bases", stack)
    monkeypatch.setattr(flow_module, "normalized_basis", one)
    cfg = _interleaved_g3(0)
    path = [np.array(cfg.x)]
    for k in range(3):
        path.append(path[-1] + 0.02 * np.eye(3)[k])

    def run(drift_tol):
        calls.clear()
        integrate_flow(DeformationState(cfg, np.zeros(3), mode=RATIONAL), path,
                       FlowControl(quad_tol=TOL, macro_step=0.025, drift_tol=drift_tol))

    with pytest.raises(SingularPeriodMatrix, match="second sample"):
        run(None)
    assert len(calls) == 3
    with pytest.raises(DriftExceeded):
        run(1e-300)
    assert len(calls) == 2


def _g2_flow_into_collision(drift_tol):
    # the second leg runs x_2 from 3.9 back up towards u_2 = 4 and beyond; the
    # sample at x_2 = 4.45 drifts by ~3.6e-11, and the stepper stops near 4.448
    ctrl = FlowControl(quad_tol=TOL, macro_step=0.3, drift_tol=drift_tol)
    return integrate_flow(DeformationState(G2, np.zeros(2), mode=RATIONAL),
                          [[3.0, 5.0], [3.0, 3.9], [3.0, 5.0]], ctrl)


def test_rational_checks_recorded_samples_before_the_stepper_stops(tmp_path):
    from isoperiod.cli import main

    with pytest.raises(DriftExceeded, match=r"at x = \[3\.\s*\+0\.j 4\.45\+0\.j\]"):
        _g2_flow_into_collision(1e-11)
    with pytest.raises(SingularLocus, match="flow stopped near") as stop:
        _g2_flow_into_collision(None)
    x2 = float(re.search(r"(\d+\.\d+)\+0\.j\]", str(stop.value)).group(1))
    assert abs(x2 - 4.448) < 5e-4
    config = tmp_path / "g2.json"
    config.write_text('{"genus": 2, "x": [3.0, 5.0], "u": [1.0, 4.0], "real": true}')
    assert main(["deform", str(config), "--path", "[[3, 5], [3, 3.9], [3, 5]]",
                 "--mode", "rational", "--macro-step", "0.3", "--tol-flow", "1e-11",
                 "--out", str(tmp_path / "out")]) == 5


def test_empty_path_raises_value_error():
    with pytest.raises(ValueError, match="at least one point"):
        integrate_flow(DeformationState(G1, np.zeros(1)), [])


@pytest.mark.parametrize("path, macro_step, count", [
    ([[2.0], [2.1]], 1e-320, "inf"),            # the quotient overflows to inf
    ([[2.0], [2.1]], 1e-16, "1e+15"),
    ([[2.0], [10002.0]], 0.01, "1e+06")])
def test_path_of_too_many_macro_steps_rejected_before_any_quadrature(
        path, macro_step, count, segment_calls):
    with pytest.raises(ValueError, match=f"needs {re.escape(count)} macro steps, more than "
                                         f"{flow_module.MAX_MACRO_STEPS}"):
        integrate_flow(DeformationState(G1, np.zeros(1)), path,
                       FlowControl(quad_tol=TOL, macro_step=macro_step))
    assert segment_calls == []


@pytest.mark.parametrize("mode", [IMPLICIT, RATIONAL])
def test_flow_is_scale_covariant_below_unit_scale(mode):
    # lambda -> s lambda maps the family to itself, u(s x) = s u(x); the
    # singular-locus guard is relative to max |p|, so it does not fire at s = 1e-9
    def u_end(s):
        cfg = BranchConfig(x=[3.0 * s, 5.0 * s], u=[1.0 * s, 4.0 * s], real=True)
        x0 = np.array([3.0, 5.0]) * s
        traj = integrate_flow(DeformationState(cfg, np.zeros(2), mode=mode),
                              [x0, x0 + 0.05 * s], FlowControl(quad_tol=TOL, macro_step=0.01 * s))
        return traj.samples[-1].u / s

    ref = u_end(1.0)
    for s in (1e-9, 1e-6):
        assert np.max(np.abs(u_end(s) - ref) / np.abs(ref)) < 1e-13, s


def test_newton_floor_is_relative_below_unit_scale():
    # on the axis leg x_1 -> x_1 + 0.05 s of G2 scaled by s = 1e-9, |beta| ~ 3e-5
    # and the predictor's residual ~2.5e-15: Newton's rounding floor is relative
    # to |beta|, so every prediction gets an update (an absolute floor of
    # 16 eps = 3.6e-15 takes some unpolished, and u/s ends 1.3e-10 from s = 1)
    def leg(s):
        cfg = BranchConfig(x=[3.0 * s, 5.0 * s], u=[1.0 * s, 4.0 * s], real=True)
        x0 = np.array([3.0, 5.0]) * s
        traj = integrate_flow(DeformationState(cfg, np.zeros(2), mode=IMPLICIT),
                              [x0, x0 + np.array([0.05, 0.0]) * s],
                              FlowControl(quad_tol=TOL, macro_step=0.01 * s))
        return traj.samples[-1].u / s, [smp.info["newton_iters"] for smp in traj.samples[1:]]

    ref, _ = leg(1.0)
    u, iters = leg(1e-9)
    assert len(iters) == 5 and min(iters) >= 1
    assert np.max(np.abs(u - ref) / np.abs(ref)) < 1e-13


@pytest.mark.parametrize("s", [1e8, 1e9])
def test_newton_tol_is_relative_above_unit_scale(s):
    # on the diagonal leg x -> x + 0.05 s of G2 scaled by s, |beta| ~ 4e4 at s = 1e8
    # and 1.3e5 at s = 1e9, where its rounding (4.5e-11) exceeds an absolute tol of
    # 1e-11: each prediction then took up to 5 updates, or every step failed and the
    # flow stopped.  Relative to max |beta|, one update polishes each sample.
    def leg(s, mode):
        cfg = BranchConfig(x=[3.0 * s, 5.0 * s], u=[1.0 * s, 4.0 * s], real=True)
        x0 = np.array([3.0, 5.0]) * s
        traj = integrate_flow(DeformationState(cfg, np.zeros(2), mode=mode),
                              [x0, x0 + 0.05 * s], FlowControl(quad_tol=TOL, macro_step=0.01 * s))
        return traj.samples[-1].u / s, [smp.info.get("newton_iters") for smp in traj.samples[1:]]

    for mode in (IMPLICIT, RATIONAL):
        ref, _ = leg(1.0, mode)
        u, iters = leg(s, mode)
        assert np.max(np.abs(u - ref) / np.abs(ref)) < 1e-13, mode
        if mode == IMPLICIT:
            assert iters == [1] * 8


# -- the one recorder: every sample, the start included, is checked by check() --

G2_PATH = [[3.0, 5.0], [3.05, 5.0], [3.05, 5.05]]


def _count_period_evaluations(monkeypatch):
    """[normalized_basis calls, curves in normalized_bases calls] made by isoperiod.flow."""
    counts = [0, 0]
    one, stack = flow_module.normalized_basis, flow_module.normalized_bases

    def counting_one(*args, **kwargs):
        counts[0] += 1
        return one(*args, **kwargs)

    def counting_stack(cfgs, *args, **kwargs):
        counts[1] += len(cfgs)
        return stack(cfgs, *args, **kwargs)

    monkeypatch.setattr(flow_module, "normalized_basis", counting_one)
    monkeypatch.setattr(flow_module, "normalized_bases", counting_stack)
    return counts


@pytest.mark.parametrize("mode, evaluations, kernel_calls, intervals", [
    (IMPLICIT, [9, 0], 9, 18),      # the start's, then two a step: no sample is re-evaluated
    (RATIONAL, [1, 4], 2, 10)])     # the start's, then the four samples on one stack
def test_recorded_samples_take_the_parents_period_evaluations(
        mode, evaluations, kernel_calls, intervals, monkeypatch, segment_calls):
    counts = _count_period_evaluations(monkeypatch)
    traj = integrate_flow(DeformationState(G2, np.zeros(2), mode=mode), G2_PATH,
                          FlowControl(quad_tol=TOL, macro_step=0.025))
    assert len(traj.samples) == 5 and counts == evaluations
    assert len(segment_calls) == kernel_calls
    assert sum(len(call) for call in segment_calls) == intervals


def test_implicit_drift_failure_raises_before_the_next_step(monkeypatch):
    steps = []
    original = flow_module._continuation_step
    monkeypatch.setattr(flow_module, "_continuation_step",
                        lambda *args: steps.append(1) or original(*args))
    with pytest.raises(DriftExceeded, match=r"2\.665e-15 at x = \[3\.025"):
        integrate_flow(DeformationState(G2, np.zeros(2), mode=IMPLICIT), G2_PATH,
                       FlowControl(quad_tol=TOL, macro_step=0.025, drift_tol=1e-300))
    assert len(steps) == 1


@pytest.mark.parametrize("mode, keys", [(IMPLICIT, {"halvings", "newton_iters"}),
                                        (RATIONAL, {"halvings", "du_consistency"})])
def test_start_sample_is_recorded_as_every_other(mode, keys, monkeypatch):
    evaluated = []
    original = flow_module.normalized_basis

    def recording(*args, **kwargs):
        evaluated.append(original(*args, **kwargs))
        return evaluated[-1]

    monkeypatch.setattr(flow_module, "normalized_basis", recording)
    traj = integrate_flow(DeformationState(G2, np.zeros(2), mode=mode), G2_PATH,
                          FlowControl(quad_tol=TOL, macro_step=0.025))
    start = traj.samples[0]
    assert start.info == {} and start.pd is evaluated[0]
    assert start.beta_drift.tolist() == [0.0, 0.0]
    assert all(set(s.info) == keys for s in traj.samples[1:])


def test_zero_alpha_identities_never_assemble_B_on_contours(monkeypatch):
    # beta_consistency reads the b-contours' monomial periods, each contour
    # integrated once, after w_constants' two a-contours, and never assembles B
    # (contours: a complex configuration)
    import isoperiod.periods as periods_module

    cfg = G2_COMPLEX
    pd = normalized_basis(cfg, basis=gap_basis(cfg.points.real), tol=TOL)
    om = build_omega(cfg, pd)
    calls = []
    original = periods_module.integrate_contour

    def recording(contour, rows, tol):
        calls.append(contour)
        return original(contour, rows, tol)

    monkeypatch.setattr(periods_module, "integrate_contour", recording)
    rep = verify_identities(cfg, pd, om, tol=TOL)
    assert rep["beta_consistency"] < 1e-9
    contours = [pd.table.contour(s) for s in pd.basis.a + pd.basis.b]
    assert [id(c) for c in calls] == [id(c) for c in contours]
    assert "B" not in vars(pd) and pd.quad_report["b_nodes"] == []


def test_zero_alpha_identities_integrate_b_segments_once(segment_calls):
    # segment path: beta_consistency integrates the bands once, in one kernel
    # call, and reads them with Omega's coefficients; B is never read.  The
    # call before it is w_constants', on the gaps (the a-cycles' segments)
    pd, om = _setup(G2)
    assert segment_calls == [[(1.0, 3.0), (4.0, 5.0)]]
    rep = verify_identities(G2, pd, om, tol=TOL)
    assert rep["beta_consistency"] < 1e-9
    assert segment_calls[1:] == [[(1.0, 3.0), (4.0, 5.0)], [(0.0, 1.0), (3.0, 4.0)]]
    assert "B" not in vars(pd) and pd.quad_report["b_nodes"] == []


@pytest.mark.parametrize("mode", [IMPLICIT, RATIONAL])
def test_diagonal_leg_matches_both_axis_orders(mode):
    # the second-order system is integrable, so every route to (3.1, 5.1) ends
    # on the same u; the straight leg takes ceil(|dx| / macro_step) steps
    ctrl = FlowControl(quad_tol=TOL, macro_step=0.01)

    def run(path):
        return integrate_flow(DeformationState(G2, np.zeros(2), mode=mode), path, ctrl)

    diag = run([[3.0, 5.0], [3.1, 5.1]])
    assert len(diag.samples) == 1 + math.ceil(0.1 * math.sqrt(2.0) / 0.01)
    mid = diag.samples[len(diag.samples) // 2 - 1]
    assert abs(mid.x[0] - 3.0 - (mid.x[1] - 5.0)) < 1e-15          # on the diagonal
    assert diag.max_drift() < 1e-12
    for corner in ([3.1, 5.0], [3.0, 5.1]):
        axis = run([[3.0, 5.0], corner, [3.1, 5.1]])
        assert np.array_equal(axis.samples[-1].x, diag.samples[-1].x)
        assert np.max(np.abs(axis.samples[-1].u - diag.samples[-1].u)) < 1e-12
        assert axis.max_drift() < 1e-12


# The worst curve and legs of a seeded sweep (16 curves, g = 1..4) while Newton
# accepted an unpolished prediction (2.4e-11 between routes, 2.5e-11 loop miss);
# now implicit mode's routes end 8.1e-14 apart and its loop misses by 1.3e-14,
# and rational mode stays within 1.8e-15
WORST_ROUTES = ((2.1151031015284585, 4.286700590135139, 6.216369157938582, 9.05525173610932),
                (0.6776072780279745, 2.8922826267005917, 5.401350800742111, 7.678871979083679),
                ((0, 0.020281732544285367), (3, 0.020281732544285367)))


@pytest.mark.parametrize("mode,bound", [(RATIONAL, 1e-12), (IMPLICIT, 1e-12)])
def test_flow_is_path_independent_property(mode, bound):
    # u(x) is a function: a closed polyline returns to its starting u, and the
    # polyline and the straight leg to its endpoint end on the same u.  Random
    # interleaved curves at g <= 4 (band and gap widths 0.5-1.5) and polylines
    # of 2-4 axis legs of 0.02-0.06.  Implicit mode's Newton polishes every
    # sample to the rounding floor, so both modes share the bound
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def routes(draw):
        g = draw(st.integers(1, 4))
        pts = np.cumsum(draw(st.lists(st.floats(0.5, 1.5), min_size=2 * g, max_size=2 * g)))
        legs = draw(st.lists(st.tuples(st.integers(0, g - 1), st.floats(0.02, 0.06),
                                       st.sampled_from((1.0, -1.0))), min_size=2, max_size=4))
        return tuple(pts[1::2]), tuple(pts[0::2]), tuple((j, h * sign) for j, h, sign in legs)

    ctrl = FlowControl(quad_tol=TOL, macro_step=0.01)

    @hypothesis.settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @hypothesis.example(WORST_ROUTES)
    @hypothesis.given(routes())
    def check(case):
        x, u, legs = case
        cfg = BranchConfig(x=x, u=u, real=True)
        steps = [h * np.eye(len(x))[j] for j, h in legs]
        loop = np.cumsum([x] + steps + [-d for d in steps], axis=0)
        n = len(legs)

        def end_u(path):
            return integrate_flow(DeformationState(cfg, np.zeros(len(x)), mode=mode),
                                  list(path), ctrl).samples[-1].u

        assert np.max(np.abs(end_u(loop) - np.asarray(u))) <= bound
        assert np.max(np.abs(end_u(loop[:n + 1]) - end_u(loop[[0, n]]))) <= bound

    check()


def test_flow_second_difference_matches_ode(g1_flows):
    imp, _ = g1_flows
    xs, us = imp.grid()
    h = float(xs[1, 0].real - xs[0, 0].real)
    fd = second_difference(us[:, 0], h)
    for i in range(1, len(xs) - 1):
        x, u = complex(xs[i, 0]), complex(us[i, 0])
        du = complex(imp.samples[i].du[0, 0])
        rhs = rhs_genus1(x, u, du)
        assert abs(fd[i - 1] - rhs) < 1e-4 * abs(rhs)


def test_flow_rational_mode_du_consistency_recorded():
    ctrl = FlowControl(quad_tol=TOL, macro_step=0.05)
    traj = integrate_flow(DeformationState(G2, np.zeros(2), mode=RATIONAL),
                          [[3.0, 5.0], [3.1, 5.0]], ctrl)
    # carried du of the second-order system vs fresh first_derivatives
    for s in traj.samples[1:]:
        assert s.info["du_consistency"] < 1e-6


@pytest.mark.parametrize("field, value", [
    ("quad_tol", 0.0), ("quad_tol", -1e-11), ("quad_tol", math.nan), ("quad_tol", math.inf),
    ("drift_tol", -1.0), ("drift_tol", 0.0), ("drift_tol", math.nan)])
def test_flow_control_rejects_non_positive_or_non_finite(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite and positive"):
        FlowControl(**{field: value})


def test_path_must_start_at_the_configurations_x():
    state = DeformationState(G2, np.zeros(2), mode=IMPLICIT)
    with pytest.raises(ValueError, match="^path must start at the configuration's x$"):
        integrate_flow(state, [[3.01, 5.0], [3.02, 5.0]], FlowControl(quad_tol=TOL))


def test_path_point_of_wrong_length_rejected():
    # a 1-point leg at genus 2 is not broadcast to (3.02, 3.02)
    state = DeformationState(G2, np.zeros(2), mode=RATIONAL)
    with pytest.raises(ValueError, match=r"path point 1 \(\[3\.02\]\) has 1 coordinates, "
                                         r"not the 2 of genus 2"):
        integrate_flow(state, [[3.0, 5.0], [3.02]], FlowControl(quad_tol=TOL))
    with pytest.raises(ValueError, match="path point 0"):
        integrate_flow(state, [[3.0, 5.0, 7.0], [3.02, 5.0]], FlowControl(quad_tol=TOL))


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(3.02, math.nan)])
def test_non_finite_path_point_rejected(bad):
    # before the leg count, which read ceil(inf) or ceil(nan)
    state = DeformationState(G2, np.zeros(2), mode=RATIONAL)
    with pytest.raises(ValueError, match=r"path point 1 \(.*\) is not finite"):
        integrate_flow(state, [[3.0, 5.0], [3.02, bad]], FlowControl(quad_tol=TOL))


def _count_rhs_calls(monkeypatch):
    calls = []
    original = flow_module.rhs_genus_g

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(flow_module, "rhs_genus_g", counting)
    return calls


def _interleaved_g3(seed):
    x, u = _interleaved(np.random.default_rng(seed), 3, complex_perturbed=False)
    return BranchConfig(x=x, u=u, real=True)


def test_rational_macro_step_is_tried_as_one_step(monkeypatch):
    # a short leg is one accepted DOP853 step: 12 stages and the initial slope
    cfg = _interleaved_g3(0)
    calls = _count_rhs_calls(monkeypatch)
    step = 0.025 * (1.0 - 1e-9)         # one macro step despite rounding in x
    traj = integrate_flow(DeformationState(cfg, np.zeros(3), mode=RATIONAL),
                          [cfg.x, cfg.x + np.array([step, 0.0, 0.0])],
                          FlowControl(quad_tol=TOL, macro_step=0.025))
    assert len(traj.samples) == 2
    assert len(calls) == 12


def test_rational_leg_of_two_macro_steps_takes_24_evaluations(monkeypatch):
    # no evaluation at a step's end: 12 per accepted macro step
    calls = _count_rhs_calls(monkeypatch)
    traj = integrate_flow(DeformationState(G2, np.zeros(2), mode=RATIONAL),
                          [[3.0, 5.0], [3.02, 5.0]], FlowControl(quad_tol=TOL, macro_step=0.01))
    assert len(traj.samples) == 3 and all(s.info["halvings"] == 0 for s in traj.samples[1:])
    assert len(calls) == 24


@pytest.mark.parametrize("mode", [IMPLICIT, RATIONAL])
def test_leg_of_whole_macro_steps_gets_no_extra_step(mode):
    # 0.02 / 0.01 reads 2.0000000000000018 after rounding in 3.02 - 3
    traj = integrate_flow(DeformationState(G2, np.zeros(2), mode=mode), [[3.0, 5.0], [3.02, 5.0]],
                          FlowControl(quad_tol=TOL, macro_step=0.01))
    assert len(traj.samples) == 3
    assert np.allclose([s.x[0] for s in traj.samples], [3.0, 3.01, 3.02], rtol=0, atol=1e-15)


@pytest.mark.parametrize("seed", range(3))
def test_rational_and_implicit_agree_on_interleaved_genus3(seed):
    cfg = _interleaved_g3(seed)
    step = 0.025 * (1.0 - 1e-9)
    path = [cfg.x + np.array(c) for c in
            ([0, 0, 0], [step, 0, 0], [step, step, 0], [step, step, step])]
    ctrl = FlowControl(quad_tol=TOL, macro_step=0.025)
    _, ur = integrate_flow(DeformationState(cfg, np.zeros(3), mode=RATIONAL), path, ctrl).grid()
    _, ui = integrate_flow(DeformationState(cfg, np.zeros(3), mode=IMPLICIT), path, ctrl).grid()
    assert np.max(np.abs(ur - ui)) <= 1e-12


def test_rational_long_macro_step_stays_under_error_control(monkeypatch):
    # the trial step spans the whole macro step; the embedded estimate shrinks it
    cfg = _interleaved_g3(1)
    path = [cfg.x, cfg.x + 0.5 * (1.0 - 1e-9) / math.sqrt(3.0) * np.ones(3)]
    calls = _count_rhs_calls(monkeypatch)
    rat = integrate_flow(DeformationState(cfg, np.zeros(3), mode=RATIONAL), path,
                         FlowControl(quad_tol=TOL, macro_step=0.5))
    assert len(rat.samples) == 2 and len(calls) > 13
    assert rat.samples[-1].info["halvings"] >= 1
    imp = integrate_flow(DeformationState(cfg, np.zeros(3), mode=IMPLICIT), path,
                         FlowControl(quad_tol=TOL, macro_step=0.025))
    assert rat.max_drift() <= 1e-9
    assert np.max(np.abs(rat.samples[-1].u - imp.samples[-1].u)) <= 1e-9


def test_dop853_tableau_equals_scipy():
    integrate = pytest.importorskip("scipy.integrate")
    ref = integrate.DOP853
    assert np.array_equal(flow_module.DOP_A, ref.A)
    assert np.array_equal(flow_module.DOP_B, ref.B)
    assert np.array_equal(flow_module.DOP_C, ref.C)
    assert np.array_equal(flow_module.DOP_E3, ref.E3[:12])
    assert np.array_equal(flow_module.DOP_E5, ref.E5[:12])


def _recording_solve_ivp(monkeypatch):
    """Record (fun, t_span, y0, result) of every flow.solve_ivp call."""
    steps = []
    original = flow_module.solve_ivp

    def recording(fun, t_span, y0):
        out = original(fun, t_span, y0)
        steps.append((fun, t_span, y0, out))
        return out

    monkeypatch.setattr(flow_module, "solve_ivp", recording)
    return steps


def _rational_diagonal_flow(cfg, basis=None):
    """A rational flow from cfg along a diagonal leg of two macro steps."""
    g = cfg.genus
    x = np.array(cfg.x)
    leg = 0.02 * (1.0 - 1e-9) / math.sqrt(g) * np.ones(g)
    return integrate_flow(DeformationState(cfg, np.zeros(g), mode=RATIONAL, basis=basis),
                          [x, x + leg], FlowControl(quad_tol=TOL, macro_step=0.01))


@pytest.mark.parametrize("g", [1, 2, 3, 4, "complex"])
def test_dop853_step_equals_scipy(g, monkeypatch):
    # each macro step of a rational flow against scipy's DOP853 taking the same first
    # step: real curves step in float64, G1_COMPLEX in complex128
    integrate = pytest.importorskip("scipy.integrate")
    steps = _recording_solve_ivp(monkeypatch)
    if g == "complex":
        _rational_diagonal_flow(G1_COMPLEX, gap_basis(G1_COMPLEX.points.real))
    else:
        x, u = _interleaved(np.random.default_rng(60 + g), g, complex_perturbed=False)
        _rational_diagonal_flow(BranchConfig(x=x, u=u, real=True))
    assert len(steps) == 2
    assert {y0.dtype for _, _, y0, _ in steps} == {np.dtype(complex if g == "complex" else float)}
    rtol, atol = flow_module.RK_RTOL, flow_module.RK_ATOL
    for fun, t_span, y0, out in steps:
        h = t_span[1] - t_span[0]
        ref = integrate.solve_ivp(fun, t_span, y0, method="DOP853", rtol=rtol, atol=atol,
                                  first_step=h)
        assert ref.t.size == 2 and out.error_norm < 1.0       # one accepted step each
        assert (out.nfev, ref.nfev) == (12, 13)
        assert np.array_equal(out.y, ref.y[:, -1])
        # the norm scipy accepted the step with; its 13th stage has weight 0
        solver = integrate.DOP853(fun, t_span[0], y0, t_span[1], rtol=rtol, atol=atol, first_step=h)
        solver.step()
        scale = atol + np.maximum(np.abs(y0), np.abs(out.y)) * rtol
        norm = solver._estimate_error_norm(solver.K, h, scale)
        assert out.error_norm == pytest.approx(norm, rel=1e-12)


def test_flow_reality_preserved(g1_flows):
    imp, rat = g1_flows
    for traj in (imp, rat):
        _, us = traj.grid()
        assert np.max(np.abs(us.imag)) < 1e-9
    # rational mode steps a real curve in real arithmetic
    _, us = rat.grid()
    assert not us.imag.any()
    assert not any(s.du.imag.any() for s in rat.samples)


@pytest.mark.parametrize("case", ["g2", "g3", "g1-complex"])
def test_rational_state_dtype_follows_the_curve(case, monkeypatch):
    # float64 steps on a real curve, complex128 on a complex one; samples stay complex
    cfg = {"g2": G2, "g3": _interleaved_g3(0), "g1-complex": G1_COMPLEX}[case]
    steps = _recording_solve_ivp(monkeypatch)
    traj = _rational_diagonal_flow(cfg, None if cfg.real else gap_basis(cfg.points.real))
    assert len(steps) == 2
    assert {y0.dtype for _, _, y0, _ in steps} == {np.dtype(float if cfg.real else complex)}
    assert all(s.u.dtype == s.du.dtype == np.complex128 for s in traj.samples)


# -- Hill condition -----------------------------------------------------------------

def test_hill_with_matched_period():
    pd, om = _setup(G1)
    T = complex(2j * math.pi / om.beta[0])
    out = hill_check(G1, pd, T)
    assert out["is_hill"]
    assert list(out["n"]) == [1]
    assert float(np.max(out["residuals"])) < 1e-10


def test_hill_random_period_fails():
    pd, _ = _setup(G1)
    out = hill_check(G1, pd, 1.234)
    assert not out["is_hill"]
    assert float(np.max(out["residuals"])) > 1e-3


@pytest.mark.parametrize("T", [0.0, 0j, math.inf, math.nan, complex(1.0, math.inf)])
def test_hill_check_rejects_zero_or_non_finite_period(T):
    # T = 0 read as n = 0, a Hill point; a non-finite T failed in the rounding
    pd, _ = _setup(G1)
    with pytest.raises(ValueError, match="period T must be finite and nonzero"):
        hill_check(G1, pd, T)


def test_hill_point_preserved_along_flow():
    # manufacture a genus-2 Hill point: force beta = 2 pi i (1, 2) / T
    pd, om = _setup(G2)
    T = complex(2j * math.pi / om.beta[0])
    target = 2j * math.pi * np.array([1.0, 2.0]) / T
    hill_cfg, res, *_ = newton_correct(G2, np.zeros(2), target, tol=1e-11,
                                       quad_tol=1e-12, max_iter=10)
    pdh = normalized_basis(hill_cfg, tol=TOL)
    out0 = hill_check(hill_cfg, pdh, T)
    assert out0["is_hill"] and list(out0["n"]) == [1, 2]

    state = DeformationState(hill_cfg, np.zeros(2), mode=IMPLICIT)
    x0 = [complex(v) for v in hill_cfg.x]
    path = [x0, [x0[0] + 0.05, x0[1]], [x0[0] + 0.05, x0[1] + 0.05]]
    traj = integrate_flow(state, path, FlowControl(quad_tol=TOL, macro_step=0.025))
    end = traj.samples[-1]
    cfg_end = hill_cfg.replace(x=end.x, u=end.u)
    out1 = hill_check(cfg_end, normalized_basis(cfg_end, tol=TOL), T)
    assert out1["is_hill"] and list(out1["n"]) == [1, 2]
    assert float(np.max(out1["residuals"])) < 1e-8


# -- identity harness ------------------------------------------------------------

@pytest.mark.parametrize("cfg", [G1, G2])
def test_identity_suite_all_small(cfg):
    pd, om = _setup(cfg, alpha=None)
    rep = verify_identities(cfg, pd, om, tol=TOL)
    for name, val in rep.items():
        assert val < 1e-9, f"{name}: {val}"


def test_identity_suite_nonzero_alpha():
    alpha = np.array([0.2, -0.15])
    pd, om = _setup(G2, alpha=alpha)
    rep = verify_identities(G2, pd, om, tol=TOL)
    for name, val in rep.items():
        assert val < 1e-9, f"{name}: {val}"


IDENTITY_KEYS = {"dual_weighted_residue_sum", "derivative_sum_rule", "W_symmetry",
                 "beta_consistency", "w_residue_sum_at_u", "w_residue_sum_at_x"}
GENUS1_KEYS = {"omega_squares_sum", "second_kind_residue_sum",
               "normalization_constant_relation", "W_xu_two_forms"}
EXPANSION_KEYS = {"w_dual_expansion_xx", "w_dual_expansion_xu", "w_dual_expansion_diag"}


@pytest.mark.parametrize("g", range(1, 7))
def test_identity_suite_keys_and_bounds_by_genus(g):
    # the residue identities read rhs_genus_g's coefficient tables at every
    # genus, on real configurations (segments) and a complex one (ellipses)
    rng = np.random.default_rng(300 + g)
    for trial in range(4):
        x, u = _interleaved(rng, g, complex_perturbed=trial == 3)
        cfg = BranchConfig(x=x, u=u, real=trial < 3)
        pd = normalized_basis(cfg, basis=gap_basis(cfg.points.real), tol=TOL)
        om = build_omega(cfg, pd, tol=TOL)
        rep = verify_identities(cfg, pd, om, tol=TOL)
        assert set(rep) == IDENTITY_KEYS | (GENUS1_KEYS if g == 1 else EXPANSION_KEYS)
        for name, val in rep.items():
            assert val < 1e-9, f"{name}: {val}"


@pytest.mark.parametrize("g", range(1, 9))
def test_w_constants_match_v_solve_route(g):
    # I = -w^T Omega_u against a solve with the a-periods of the dual basis from
    # its monomial coefficients, on the inputs of the identity suite: the pole
    # periods on hinted circles of the real curves, and on the engine's own
    # a-contours of the complex-perturbed one
    from isoperiod.periods import w_constants

    rng = np.random.default_rng(300 + g)
    for trial in range(4):
        x, u = _interleaved(rng, g, complex_perturbed=trial == 3)
        cfg = BranchConfig(x=x, u=u, real=trial < 3)
        pd = normalized_basis(cfg, basis=gap_basis(cfg.points.real), tol=1e-12)
        contours = [pd.table.contour(s) if trial == 3 else hint_circle(s, cfg.points)
                    for s in pd.basis.a]
        I = w_constants(cfg, pd, 1e-12)
        ref = ellipse_w_constants(cfg, pd, contours, 1e-12)
        bound = 1e-13 if g <= 4 else 1e-11
        assert np.max(np.abs(I - ref)) <= bound * np.max(np.abs(ref)), trial


def test_identities_raise_no_convergence_on_a_real_wide_gap_curve():
    # the periods and Omega converge on this curve, whose gap of about 5.6e6 the
    # W constants' kernel call cannot resolve within its node limit
    cfg = BranchConfig(x=[2.33, 5624204.97, 5624205.73], u=[0.729, 3.05, 5624205.32], real=True)
    pd = normalized_basis(cfg)
    om = build_omega(cfg, pd)
    with pytest.raises(NoConvergence, match="did not converge within 131072 nodes"):
        verify_identities(cfg, pd, om)


def test_verify_identities_builds_tables_once(monkeypatch):
    import sys
    import isoperiod.curves
    import isoperiod.cycles
    import isoperiod.periods

    cfg = BranchConfig(x=[2.0, 5.0, 8.0, 11.0], u=[1.0, 4.0, 7.0, 10.0], real=True)
    g = cfg.genus
    pd, om = _setup(cfg)
    counts = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # patch every isoperiod module attribute that binds one of the counted functions
    for name, fn in [("phi_values", isoperiod.curves.phi_values),
                     ("v_polynomial", isoperiod.curves.v_polynomial),
                     ("w_constants", isoperiod.periods.w_constants),
                     ("w_value", isoperiod.periods.w_value),
                     ("integrate_contour", isoperiod.periods.integrate_contour),
                     ("realize", isoperiod.cycles.realize)]:
        counts[name] = 0
        wrapped = counted(name, fn)
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] == "isoperiod" and getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, wrapped)
    rep = verify_identities(cfg, pd, om, tol=TOL)
    assert counts["phi_values"] == 0
    assert counts["v_polynomial"] == 0      # the v table is in product form
    # one table; on a real curve the 2g+1 poles are integrated on the
    # segments, so no contour is realized or integrated
    assert counts["w_constants"] == 1
    assert counts["w_value"] == 1
    assert counts["integrate_contour"] == 0
    assert counts["realize"] == 0
    assert rep["W_symmetry"] < 1e-8


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_w_checks_match_loop_form_on_perturbed_table(g, monkeypatch):
    # a perturbed table gives residuals near 1e-3, where a tautological array
    # form could not agree with the loops to 1e-12
    from isoperiod.periods import w_value

    rng = np.random.default_rng(400 + g)
    x, u = _interleaved(rng, g, complex_perturbed=False)
    cfg = BranchConfig(x=x, u=u, real=True)
    pd, om = _setup(cfg)
    seen = {}

    def perturbed(cfg, pd, I):
        W = w_value(cfg, pd, I)
        n = len(W)
        P = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        W = W + np.where(np.eye(n, dtype=bool), 0.0, 1e-3 * np.nanmax(np.abs(W)) * P)
        seen.update(W=W, I=I)
        return W

    monkeypatch.setattr(flow_module, "w_value", perturbed)
    rep = verify_identities(cfg, pd, om, tol=TOL)
    ref = w_identity_loops(cfg, pd, seen["W"], seen["I"])
    assert set(ref) == {"W_symmetry"} | EXPANSION_KEYS
    for name, val in ref.items():
        assert val > 1e-6, name
        assert abs(rep[name] - val) <= 1e-12 * val, name


def test_genus3_identities_and_flow_smoke():
    cfg = BranchConfig(x=[2.5, 6.0, 9.5], u=[0.8, 4.2, 8.0], real=True)
    pd, om = _setup(cfg)
    rep = verify_identities(cfg, pd, om, tol=TOL)
    for name, val in rep.items():
        assert val < 1e-8, f"{name}: {val}"
    traj = integrate_flow(DeformationState(cfg, np.zeros(3), mode=IMPLICIT),
                          [[2.5, 6.0, 9.5], [2.6, 6.0, 9.5]],
                          FlowControl(quad_tol=TOL, macro_step=0.05))
    assert traj.max_drift() < 1e-8
    rat = integrate_flow(DeformationState(cfg, np.zeros(3), mode=RATIONAL),
                         [[2.5, 6.0, 9.5], [2.6, 6.0, 9.5]],
                         FlowControl(quad_tol=TOL, macro_step=0.05))
    assert np.max(np.abs(traj.grid()[1] - rat.grid()[1])) < 1e-6
