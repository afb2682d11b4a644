import math

import numpy as np
import pytest

from _oracles import (BranchOfMu, ellipk_agm, eval_at_infinity, gap_period_integral,
                      hinted_basis)

from isoperiod.curves import BranchConfig, PointCurve
from isoperiod.cycles import (CycleSpec, band_basis, gap_basis,
                              intersection_matrix, realize)
from isoperiod.periods import (DifferentialOverMu, beta_from_evaluations,
                               build_omega, integrate_contour, monomial,
                               normalized_basis, wavevector_U)

G1 = BranchConfig(x=[2.0], u=[1.0], real=True)
G2 = BranchConfig(x=[3.0, 5.0], u=[1.0, 4.0], real=True)
TOL = 1e-11


@pytest.fixture(scope="module")
def pd1():
    return normalized_basis(G1, tol=TOL)


@pytest.fixture(scope="module")
def pd2():
    return normalized_basis(G2, tol=TOL)


def _cycle_integral(cfg, diff, cycle, tol):
    return complex(integrate_contour(realize(cycle, cfg.points), diff, tol)[0])


# -- basic cycle integrals ---------------------------------------------------

def test_a_period_matches_elliptic_reduction(pd1):
    # |oint_a phi| = 2 * int_u^x dt / sqrt(t (t-u)(x-t)) = (4/sqrt(x)) K(sqrt(u/x))
    oracle = 2.0 * gap_period_integral(1.0, 2.0)
    k_form = (4.0 / math.sqrt(2.0)) * ellipk_agm(math.sqrt(0.5))
    A = complex(pd1.A_raw[0, 0])
    assert abs(oracle - k_form) < 1e-9 * k_form
    assert abs(abs(A) - k_form) < 1e-9 * k_form
    # with this package's orientation and sheet conventions the period is +i real
    assert A / (1j * k_form) == pytest.approx(1.0, abs=1e-10)


def test_exact_differential_integrates_to_zero():
    # d(mu) = (1/2) P'(lambda) dlambda / mu with P the full branch polynomial
    pts = G2.points
    poly = np.array([1.0 + 0.0j])
    for p in pts:
        poly = np.convolve(poly, np.array([-p, 1.0 + 0.0j]))
    dpoly = np.polynomial.polynomial.polyder(poly)
    dmu = DifferentialOverMu(poly=tuple(0.5 * dpoly))
    basis = gap_basis(pts)
    for spec in basis.a + basis.b:
        val = _cycle_integral(G2, dmu, spec, tol=TOL)
        assert abs(val) < 1e-9


def test_dlambda_closes_on_lifted_contour():
    contour = realize(gap_basis(G1.points).a[0], G1.points)
    lam, w, mu = contour.nodes(512)
    assert abs(np.sum(w)) < 1e-12


def test_realize_builds_no_node_table():
    # the separation check reads lambda only; mu is tracked when a quadrature asks
    contour = realize(gap_basis(G2.points).b[1], G2.points)
    assert contour._cache == {}
    clearance = contour.min_clearance()
    assert clearance > 0.0 and contour.min_clearance() == clearance and contour._cache == {}


def test_contour_tracking_agrees_with_pathwise_continuation():
    # two independent continuation implementations must produce the same lift
    contour = realize(gap_basis(G2.points).b[1], G2.points)
    lam, _, mu = contour.nodes(256)
    state = BranchOfMu(G2.points, lam[0])
    for k in (64, 128, 200, 255):
        walk = BranchOfMu(G2.points, state.lam, state.args.copy())
        for z in lam[1:k + 1]:
            walk.advance(z)
        assert abs(walk.mu - mu[k]) < 1e-10 * abs(mu[k])


def test_cycle_integral_respects_hints():
    spec = CycleSpec(frozenset({1, 2}), +1, center=1.5 + 0.0j, radius=0.75)
    val = _cycle_integral(G1, monomial(0), spec, tol=TOL)
    assert val == pytest.approx(complex(normalized_basis(G1, tol=TOL).A_raw[0, 0]), rel=1e-9)


# -- normalized basis and Riemann matrix -------------------------------------

def test_normalization_rows(pd2):
    delta = pd2.A_raw @ pd2.C.T - np.eye(2)
    assert np.max(np.abs(delta)) < 1e-13


@pytest.mark.parametrize("pd_fix", ["pd1", "pd2"])
def test_riemann_matrix_properties(pd_fix, request):
    pd = request.getfixturevalue(pd_fix)
    assert np.max(np.abs(pd.B - pd.B.T)) < 10 * TOL
    assert np.max(np.abs(pd.B.real)) < 100 * TOL
    eigs = np.linalg.eigvalsh(pd.B.imag)
    assert np.all(eigs > 0)


def test_intersection_pairing_gap_basis():
    for cfg in (G1, G2):
        g = cfg.genus
        basis = gap_basis(cfg.points)
        M = intersection_matrix(basis, cfg.points)
        expected = np.block([[np.zeros((g, g), dtype=int), np.eye(g, dtype=int)],
                             [-np.eye(g, dtype=int), np.zeros((g, g), dtype=int)]])
        assert np.array_equal(M, expected)


def test_intersection_pairing_band_basis():
    basis = band_basis(G2.points)
    M = intersection_matrix(basis, G2.points)
    assert np.array_equal(M[:2, 2:], np.eye(2, dtype=int))


def test_singular_period_matrix_detected():
    # a nearly-degenerate gap makes the raw period matrix ill-conditioned
    cfg = BranchConfig(x=[1.0 + 1e-14, 5.0], u=[1.0, 4.0], real=True)
    with pytest.raises(Exception):
        normalized_basis(cfg, tol=TOL)


# -- evaluations at infinity --------------------------------------------------

def test_eval_at_infinity_matches_closed_form(pd2):
    for j in range(2):
        diff = DifferentialOverMu(poly=tuple(pd2.C[j]))
        _, val, _, resid = eval_at_infinity(G2.points, diff.rational_part)
        assert resid < 1e-12
        assert val == pytest.approx(complex(pd2.omega_at[j, -1]), abs=1e-12)


def test_omega_identity_squares(pd1):
    vals = pd1.omega_at[0, :-1]
    assert abs(np.sum(vals ** 2)) < 1e-12


# -- second-kind differential -------------------------------------------------

@pytest.mark.parametrize("cfg_fix,pd_fix", [(G1, "pd1"), (G2, "pd2")])
def test_omega_leading_expansion_and_residue(cfg_fix, pd_fix, request):
    pd = request.getfixturevalue(pd_fix)
    om = build_omega(cfg_fix, pd, tol=TOL)
    coefs, _, lead, resid = eval_at_infinity(cfg_fix.points, om.differential(pd).rational_part)
    assert abs(lead - 1.0) < 1e-8
    assert abs(coefs[-1]) < 1e-10          # no residue at the double pole
    assert resid < 1e-10


def test_omega_a_periods_match_alpha(pd2):
    alpha = np.array([0.3 - 0.1j, -0.2 + 0.05j])
    om = build_omega(G2, pd2, alpha=alpha, tol=TOL)
    diff = om.differential(pd2)
    for j, spec in enumerate(pd2.basis.a):
        val = _cycle_integral(G2, diff, spec, tol=TOL)
        assert val == pytest.approx(complex(alpha[j]), abs=1e-9)


def test_beta_matches_evaluation_formula(pd2):
    alpha = np.array([0.1, 0.25])
    om = build_omega(G2, pd2, alpha=alpha, tol=TOL)
    assert om.beta_residual < 10 * TOL
    expected = beta_from_evaluations(pd2, alpha)
    assert np.max(np.abs(om.beta - expected)) < 10 * TOL


def test_residue_sum_omega_weighted(pd1):
    om = build_omega(G1, pd1, tol=TOL)
    total = np.sum(pd1.omega_at[0, :-1] * om.values_at)
    assert abs(total) < 1e-9


def test_b_contours_realized_once_on_first_read(monkeypatch):
    # on the ellipse path (hinted cycles) normalized_basis realizes the
    # a-contours only; B and beta share the b-contours
    import isoperiod.cycles as cycles_module

    basis = hinted_basis(gap_basis(G2.points), G2.points)
    realized = []
    original = cycles_module.realize

    def counting(spec, points):
        realized.append(spec)
        return original(spec, points)

    monkeypatch.setattr(cycles_module, "realize", counting)
    pd = normalized_basis(G2, basis=basis, tol=TOL)
    assert pd.segments is None
    assert len(realized) == G2.genus and pd.quad_report["b_nodes"] == []
    B = pd.B
    assert len(pd.quad_report["b_nodes"]) == G2.genus
    om = build_omega(G2, pd, alpha=np.array([0.1, 0.25]), tol=TOL)
    assert om.beta_residual < 10 * TOL
    assert len(realized) == 2 * G2.genus
    assert pd.B is B and om.beta is om.beta
    assert realized[G2.genus:] == list(pd.basis.b)


def test_b_segments_integrated_once_on_first_read(monkeypatch, segment_calls):
    # normalized_basis integrates the gaps only; B, beta and the comb share the bands
    import isoperiod.cycles as cycles_module
    from isoperiod.comb import comb_map

    realized = []
    monkeypatch.setattr(cycles_module, "realize", lambda spec, pts: realized.append(spec))
    pd = normalized_basis(G2, tol=TOL)
    assert segment_calls == [[(1.0, 3.0), (4.0, 5.0)]] and pd.quad_report["b_nodes"] == []
    B = pd.B
    assert segment_calls[1:] == [[(0.0, 1.0), (3.0, 4.0)]]
    assert len(pd.quad_report["b_nodes"]) == G2.genus
    om = build_omega(G2, pd, alpha=np.array([0.1, 0.25]), tol=TOL)
    assert om.beta_residual < 10 * TOL
    comb_map(G2, pd, build_omega(G2, pd, tol=TOL), tol=TOL)
    # the comb reads the table; its partial integrals are calls from comb.py
    assert len(segment_calls) == 2
    assert pd.B is B and om.beta is om.beta
    assert realized == [] and "contours_b" not in vars(pd)


# -- Rauch variation and translation invariance ---------------------------------

def _B_of(points):
    return normalized_basis(PointCurve(tuple(points), real=True), tol=1e-12).B


def test_rauch_finite_difference_genus2(pd2):
    pts0 = np.real(G2.points)
    h = 1e-5
    for k in range(5):
        plus, minus = pts0.copy(), pts0.copy()
        plus[k] += h
        minus[k] -= h
        fd = (_B_of(plus) - _B_of(minus)) / (2.0 * h)
        w = normalized_basis(PointCurve(tuple(pts0), real=True), tol=1e-12).omega_at[:, k]
        predicted = 1j * math.pi * np.outer(w, w)
        rel = np.max(np.abs(fd - predicted)) / np.max(np.abs(predicted))
        assert rel < 1e-4


def test_translation_invariance_sum_of_derivatives(pd2):
    # sum over all finite branch points of d/d(lambda_j) of Omega(P_{lambda_k}) = 0
    pts0 = np.real(G2.points)
    h = 1e-5

    def omega_values(points):
        pc = PointCurve(tuple(points), real=True)
        pd = normalized_basis(pc, tol=1e-12)
        om = build_omega(pc, pd, tol=1e-12)
        return om.values_at

    terms = []
    for j in range(5):
        plus, minus = pts0.copy(), pts0.copy()
        plus[j] += h
        minus[j] -= h
        terms.append((omega_values(plus) - omega_values(minus)) / (2.0 * h))
    total = np.sum(terms, axis=0)
    scale = np.max(np.abs(terms))
    assert np.max(np.abs(total)) < 1e-4 * scale


# -- bidifferential evaluations ------------------------------------------------

def test_W_links_omega_variation(pd2):
    # moving branch point u_2 at fixed evaluation point x_1:
    # d Omega(P_{x_1}) / d u_2 = (1/2) Omega(P_{u_2}) W(P_{x_1}, P_{u_2})
    from isoperiod.curves import idx_u, idx_x
    from isoperiod.periods import w_constants, w_value

    om = build_omega(G2, pd2, tol=TOL)
    I_u2 = w_constants(G2, pd2, idx_u(2), tol=TOL)
    predicted = 0.5 * om.values_at[idx_u(2)] * w_value(G2, pd2, idx_x(2, 1), idx_u(2), I_u2)
    h = 1e-6

    def omega_at_x1(u2):
        cfg = G2.replace(u=(1.0, u2))
        pd = normalized_basis(cfg, tol=1e-12)
        return build_omega(cfg, pd, tol=1e-12).values_at[idx_x(2, 1)]

    fd = (omega_at_x1(4.0 + h) - omega_at_x1(4.0 - h)) / (2.0 * h)
    assert abs(fd - predicted) < 1e-5 * abs(predicted)


def test_w_value_diagonal_raises(pd2):
    # W has a double pole at P_j = P_k: reject it instead of returning nan-infj
    import warnings
    from isoperiod.curves import idx_x
    from isoperiod.periods import w_constants, w_value

    j = idx_x(2, 1)
    I_j = w_constants(G2, pd2, j, tol=TOL)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="double pole"):
            w_value(G2, pd2, j, j, I_j)


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_dual_basis_table_matches_closed_form(g):
    from isoperiod.curves import v_at

    cfg = BranchConfig(x=[3.0 * j + 2.0 for j in range(g)],
                       u=[3.0 * j + 1.0 for j in range(g)], real=True)
    pd = normalized_basis(cfg, tol=TOL)
    assert "v_coeffs" not in vars(pd) and "v_poly_at" not in vars(pd)   # built on first read
    table = pd.v_poly_at * pd.phi_at
    assert pd.v_poly_at is pd.v_poly_at
    for m in range(1, g + 1):
        ref = np.array([v_at(cfg, m, q) for q in range(2 * g + 1)])
        # relative to the row's largest value: v_m vanishes at the other u_i
        assert np.max(np.abs(table[m - 1] - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_random_configs_matrix_and_normalization_sweep():
    rng = np.random.default_rng(99)
    for _ in range(6):
        g = int(rng.integers(1, 4))
        pts = np.cumsum(rng.uniform(0.1, 2.0, 2 * g)) * rng.uniform(0.5, 3.0)
        cfg = BranchConfig(x=tuple(pts[1::2]), u=tuple(pts[0::2]), real=True)
        pd = normalized_basis(cfg, tol=1e-10)
        assert np.max(np.abs(pd.A_raw @ pd.C.T - np.eye(g))) < 1e-12
        assert np.max(np.abs(pd.B - pd.B.T)) < 1e-9
        assert np.max(np.abs(pd.B.real)) < 1e-7
        assert np.all(np.linalg.eigvalsh(pd.B.imag) > 0)
        om = build_omega(cfg, pd, tol=1e-10)
        assert om.beta_residual < 1e-9


# -- wavevector -----------------------------------------------------------------

def test_wavevector_matches_b_periods(pd2):
    om = build_omega(G2, pd2, tol=TOL)
    U = wavevector_U(G2, pd2)
    assert np.max(np.abs(U - om.beta / (2j * math.pi))) < 1e-9


def test_wavevector_genus1_half_period_relation(pd1):
    # U = omega(P_inf) = -1 / (2 w_1) with 2 w_1 the a-period of dlambda / w
    two_w1 = complex(pd1.A_raw[0, 0]) / 2.0
    U = wavevector_U(G1, pd1)[0]
    assert U == pytest.approx(-1.0 / two_w1, rel=1e-10)


def test_wavevector_real_in_band_marking(pd2):
    pdb = normalized_basis(G2, basis=band_basis(G2.points), tol=TOL)
    U = pdb.omega_at[:, -1]
    assert np.max(np.abs(U.imag)) < 1e-10
