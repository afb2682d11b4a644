import math
import re
from dataclasses import replace

import numpy as np
import pytest

from isoperiod.apps import (WeierstrassData, cnoidal_period_report,
                            config_to_weierstrass, kdv_wavevector_report,
                            lame_two_gap_config, neumann_config,
                            weierstrass_to_config, wp_function)
from isoperiod.comb import comb_invariance_check
from isoperiod.curves import BranchConfig, validate_config
from isoperiod.cycles import band_basis
from isoperiod.errors import DegenerateConfig, LatticePoint, OrderingViolation
from isoperiod.flow import IMPLICIT, RATIONAL, DeformationState, FlowControl, integrate_flow
from isoperiod.periods import normalized_basis

from _oracles import wp_laurent


# -- root shifts ---------------------------------------------------------------

def test_weierstrass_shift_reference_values():
    cfg = weierstrass_to_config(0.0, 1.0)
    assert cfg.u == (1.0 + 0.0j,)
    assert cfg.x == (2.0 + 0.0j,)


def test_weierstrass_shift_double_root_rejected():
    with pytest.raises(DegenerateConfig):
        weierstrass_to_config(1.0, 1.0)


def test_weierstrass_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(20):
        e2 = rng.uniform(-1.0, 1.0)
        e3 = e2 + rng.uniform(0.1, 2.0)
        cfg = weierstrass_to_config(e2, e3)
        b2, b3 = config_to_weierstrass(cfg)
        assert abs(b2 - e2) < 1e-14 * max(1.0, abs(e2))
        assert abs(b3 - e3) < 1e-14 * max(1.0, abs(e3))


def test_lame_two_gap_reference_values():
    cfg, recovered = lame_two_gap_config(0.0, 1.0)
    s = math.sqrt(12.0)
    assert cfg.x == (6.0 + 0.0j, 3.0 + 0.0j)
    assert cfg.u[0] == pytest.approx(s + 3.0)
    assert cfg.u[1] == pytest.approx(3.0 - s)
    # u_2 < 0: a valid configuration, but the interleaving convention fails
    assert validate_config(cfg) == []
    assert validate_config(cfg, ordered=True)
    assert recovered[0] == pytest.approx(0.0, abs=1e-14)
    assert recovered[1] == pytest.approx(1.0, rel=1e-14)


def test_lame_two_gap_round_trip_random():
    rng = np.random.default_rng(4)
    for _ in range(10):
        e2 = rng.uniform(-0.5, 0.5)
        e3 = e2 + rng.uniform(0.2, 1.5)
        _, (b2, b3) = lame_two_gap_config(e2, e3)
        assert abs(b2 - e2) < 1e-14 * max(1.0, abs(e2))
        assert abs(b3 - e3) < 1e-14 * max(1.0, abs(e3))


# -- Weierstrass function ---------------------------------------------------------

@pytest.fixture(scope="module")
def wd():
    return WeierstrassData.from_roots(0.0, 1.0, tol=1e-12)


def test_wp_even(wd):
    z = 0.37 + 0.21j
    p1, _ = wp_function(wd, z)
    p2, _ = wp_function(wd, -z)
    assert abs(p1 - p2) < 1e-10 * max(1.0, abs(p1))


def test_wp_doubly_periodic(wd):
    z = 0.31 + 0.12j
    p0, _ = wp_function(wd, z)
    for w in wd.lattice():
        p1, _ = wp_function(wd, z + w)
        assert abs(p1 - p0) < 1e-8 * max(1.0, abs(p0))


def test_wp_ode_residual_random(wd):
    rng = np.random.default_rng(8)
    for _ in range(20):
        z = complex(rng.uniform(0.1, 1.1), rng.uniform(-0.5, 0.5))
        p, dp = wp_function(wd, z)
        assert abs(dp ** 2 - (4.0 * p ** 3 - wd.g2 * p - wd.g3)) < 1e-8


def test_wp_half_period_values_are_roots(wd):
    vals = sorted(wp_function(wd, hp)[0].real
                  for hp in (wd.w1, wd.w2, wd.w1 + wd.w2))
    assert np.allclose(vals, [-1.0, 0.0, 1.0], atol=1e-10)


def test_wp_matches_jacobi_oracle(wd):
    mpm = pytest.importorskip("mpmath")
    # classical reduction wp(z) = E3 + (E1 - E3) / sn(z sqrt(E1 - E3) | m)^2
    E1, E2, E3 = 1.0, 0.0, -1.0
    m = (E2 - E3) / (E1 - E3)
    for z in (0.3 + 0.11j, 0.8 - 0.2j, 1.1 + 0.4j):
        sn = mpm.ellipfun("sn", mpm.mpc(z.real, z.imag) * mpm.sqrt(E1 - E3), m=m)
        ref = complex(E3 + (E1 - E3) / sn ** 2)
        val, _ = wp_function(wd, z)
        assert abs(val - ref) < 1e-10 * max(1.0, abs(ref))


def test_wp_lattice_point_rejected(wd):
    with pytest.raises(LatticePoint):
        wp_function(wd, 0.0)


def test_wp_array_with_a_lattice_point_rejected(wd):
    z = np.linspace(0.1, 3.0, 16).astype(complex)
    z[5], z[9] = wd.lattice()[1], 2.0 * wd.lattice()[0]
    with pytest.raises(LatticePoint, match=re.escape(str(z[5]))):
        wp_function(wd, z)


def test_wp_scalar_equals_array_entries_bitwise(wd):
    z = (np.arange(64) + 0.5) * (4.0 * wd.w2 / 64) + 0.37 * wd.w1
    p, dp = wp_function(wd, z)
    assert p.shape == dp.shape == (64,)
    pairs = [wp_function(wd, zi) for zi in z]
    assert all(np.shape(a) == np.shape(b) == () for a, b in pairs)
    assert np.array_equal([a for a, _ in pairs], p)
    assert np.array_equal([b for _, b in pairs], dp)
    p2, dp2 = wp_function(wd, z.reshape(8, 8))
    assert np.array_equal(p2, p.reshape(8, 8)) and np.array_equal(dp2, dp.reshape(8, 8))


def _assert_matches_laurent(wd, z):
    p, dp = wp_function(wd, z)
    p_ref, dp_ref = wp_laurent(wd, z)
    assert np.max(np.abs(p - p_ref)) <= 1e-13 * np.max(np.abs(p_ref))
    assert np.max(np.abs(dp - dp_ref)) <= 1e-13 * np.max(np.abs(dp_ref))


def test_wp_matches_laurent_oracle_on_real_root_grids():
    # the cnoidal report's grids and their shift by the a-period 2 w1, on
    # seeded roots from the cnoidal benchmark's range
    rng = np.random.default_rng(23)
    for _ in range(30):
        e2 = rng.uniform(-0.1, 0.3)
        wd = WeierstrassData.from_roots(e2, e2 + rng.uniform(0.7, 1.3), tol=1e-11)
        for n in (8, 64):
            X = (np.arange(n) + 0.5) * (2.0 * abs(2.0 * wd.w2) / n)
            _assert_matches_laurent(wd, X)
            _assert_matches_laurent(wd, X + 2.0 * wd.w1)


def test_wp_matches_laurent_oracle_on_rhombic_lattice():
    # complex-conjugate roots e2 = conj(e3): a rhombic lattice, whose reduced
    # tau has a real part, so both lattice coordinates are reduced
    mpm = pytest.importorskip("mpmath")
    from isoperiod.apps import _gauss_reduce

    e2 = 0.3 + 1.0j
    e3 = e2.conjugate()
    e1 = -e2 - e3
    w1 = complex(mpm.elliprf(0, e1 - e2, e1 - e3))     # wp(w1) = e1
    w2 = complex(mpm.elliprf(0, e2 - e1, e2 - e3))     # wp(w2) = e2
    wd = WeierstrassData(e2=e2, e3=e3, e1=e1, g2=4.0 * (e2 ** 2 + e3 ** 2 + e2 * e3),
                         g3=-4.0 * e2 * e3 * (e2 + e3), w1=w1, w2=w2,
                         cfg=weierstrass_to_config(e2, e3))
    a, b = _gauss_reduce(*wd.lattice())
    assert abs((a / b).real) > 0.1
    s = (np.arange(12) + 0.5) / 6.0 - 1.0
    z = (s[:, None] * 2.0 * w1 + s[None, :] * 2.0 * w2 + 0.05).ravel()
    _assert_matches_laurent(wd, z)
    vals = wp_function(wd, np.array([w1, w2, w1 + w2]))[0]
    assert np.allclose(vals, [e1, e2, e3], atol=1e-13)


def test_wp_elongated_lattice_is_finite_and_matches_degenerate_limit():
    # Im tau = 30: cos 2nv of the series would overflow at the far edge of the
    # reduced cell, while the terms exp(2in(pi tau +- v)) stay below |q|^n.
    # At q = exp(-30 pi) wp is its trigonometric limit (pi/b)^2 (csc^2 v - 1/3).
    import warnings

    p3 = math.pi ** 2 / 3.0
    wd = WeierstrassData(e2=-p3, e3=2.0 * p3, e1=-p3, g2=4.0 * math.pi ** 4 / 3.0,
                         g3=8.0 * math.pi ** 6 / 27.0, w1=15j, w2=0.5, cfg=None)
    rng = np.random.default_rng(31)
    z = rng.uniform(-0.5, 0.5, 64) + 1j * rng.uniform(-15.0, 15.0, 64)
    z[:2] = [0.25 + 14.9j, -0.3 - 14.95j]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p, dp = wp_function(wd, z)
    assert np.all(np.isfinite(p)) and np.all(np.isfinite(dp))
    b = 2.0 * wd.w2
    ref = (math.pi / b) ** 2 * (1.0 / np.sin(math.pi * z / b) ** 2 - 1.0 / 3.0)
    assert np.max(np.abs(p - ref) / np.abs(ref)) <= 1e-13


# -- cnoidal report ------------------------------------------------------------------

def test_cnoidal_period_preservation_small():
    rep = cnoidal_period_report(0.0, 1.0, 2.06, n_grid=128, macro_step=0.03)
    assert rep["max_two_w1_drift"] < 1e-7
    assert rep["max_wave_defect"] < 1e-6
    assert rep["beta_drift"] < 1e-7


def test_cnoidal_two_wp_calls_per_sample(monkeypatch):
    # the grid and the shifted grid are one array call each
    import isoperiod.apps as apps

    shapes = []
    original = apps.wp_function

    def counting(wd, z):
        shapes.append(np.shape(z))
        return original(wd, z)

    monkeypatch.setattr(apps, "wp_function", counting)
    rep = cnoidal_period_report(0.0, 1.0, 2.04, n_grid=8, macro_step=0.02)
    assert len(shapes) <= 2 * len(rep["samples"])
    assert set(shapes) == {(8,)}


@pytest.mark.parametrize("n_grid", [0, -2, 3])
def test_cnoidal_rejects_odd_or_non_positive_grid(n_grid):
    # an odd grid puts its middle node X = L on a pole
    with pytest.raises(ValueError, match="n_grid"):
        cnoidal_period_report(0.0, 1.0, 2.04, n_grid=n_grid)


def test_cnoidal_makes_no_period_evaluation_beyond_the_flow(period_calls):
    # the report reads each sample's half-periods from the period data the
    # flow computed there, so every normalized_basis call is the flow's own
    rep = cnoidal_period_report(0.0, 1.0, 2.04, n_grid=8, macro_step=0.02)
    in_report = len(period_calls)
    period_calls.clear()
    cfg0 = weierstrass_to_config(0.0, 1.0)
    integrate_flow(DeformationState(cfg0, np.zeros(1), mode=IMPLICIT), [[2.0], [2.04]],
                   FlowControl(quad_tol=1e-11, macro_step=0.02))
    assert all(s.pd is not None for s in rep["trajectory"].samples)
    assert in_report == len(period_calls)


def test_weierstrass_from_sample_periods_matches_from_roots():
    # referee: half-periods and wave from a flow sample's own periods against
    # those of the curve rebuilt from its roots
    rep = cnoidal_period_report(0.0, 1.0, 2.04, n_grid=8, macro_step=0.02)
    s = rep["trajectory"].samples[-1]
    cfg = weierstrass_to_config(0.0, 1.0).replace(x=s.x, u=s.u)
    e2, e3 = config_to_weierstrass(cfg)
    ref = WeierstrassData.from_roots(e2, e3, tol=1e-11)
    wd = WeierstrassData.from_roots(e2, e3, pd=normalized_basis(cfg, tol=1e-11))
    assert (wd.e2, wd.e3, wd.g2, wd.g3) == (ref.e2, ref.e3, ref.g2, ref.g3)
    assert abs(wd.w1 - ref.w1) <= 1e-13 * abs(ref.w1)
    assert abs(wd.w2 - ref.w2) <= 1e-13 * abs(ref.w2)
    v = np.array([wp_function(wd, X)[0] for X in rep["wave_X"]])
    v_ref = np.array([wp_function(ref, X)[0] for X in rep["wave_X"]])
    assert np.max(np.abs(v - v_ref)) <= 1e-13 * np.max(np.abs(v_ref))
    assert np.array_equal(2.0 * v, rep["wave_v"])


def test_cnoidal_zero_length_path():
    rep = cnoidal_period_report(0.0, 1.0, 2.0, n_grid=64)
    assert len(rep["samples"]) == 1
    assert rep["max_two_w1_drift"] == 0.0


# -- spectra and the Neumann system -----------------------------------------------

def test_neumann_reference_identification():
    cfg = neumann_config([-5.0, -3.0], [4.0, 2.0])
    assert cfg.x == (5.0 + 0.0j, 3.0 + 0.0j)
    assert cfg.u == (4.0 + 0.0j, 2.0 + 0.0j)


def test_neumann_degenerate_gap_rejected():
    with pytest.raises(OrderingViolation):
        neumann_config([-5.0, -3.0], [5.0, 2.0])


def test_neumann_flow_preserves_hill_condition():
    from isoperiod.flow import hill_check, newton_correct
    cfg = neumann_config([-5.0, -3.0], [4.0, 2.0])
    pd = normalized_basis(cfg, tol=1e-11)
    from isoperiod.periods import build_omega
    om = build_omega(cfg, pd, tol=1e-11)
    # adjust the gap edges so the periods resonate: beta = 2 pi i (3, 4) / T
    # (the starting ratio beta_2 / beta_1 is near 4/3, so the move is small)
    T = complex(2j * np.pi * 3.0 / om.beta[0])
    target = 2j * np.pi * np.array([3.0, 4.0]) / T
    hill_cfg, *_ = newton_correct(cfg, np.zeros(2), target, tol=1e-11,
                                  quad_tol=1e-12, max_iter=10)
    out0 = hill_check(hill_cfg, normalized_basis(hill_cfg, tol=1e-11), T)
    assert out0["is_hill"]
    x0 = [complex(v) for v in hill_cfg.x]
    state = DeformationState(hill_cfg, np.zeros(2), mode=IMPLICIT)
    traj = integrate_flow(state, [x0, [x0[0] + 0.1, x0[1]]],
                          FlowControl(quad_tol=1e-11, macro_step=0.05))
    end = traj.samples[-1]
    cfg_end = hill_cfg.replace(x=end.x, u=end.u)
    out1 = hill_check(cfg_end, normalized_basis(cfg_end, tol=1e-11), T)
    assert out1["is_hill"]
    assert list(out1["n"]) == list(out0["n"])


# -- wavevector report ----------------------------------------------------------------

@pytest.fixture(scope="module")
def g2_traj():
    cfg = BranchConfig(x=[3.0, 5.0], u=[1.0, 4.0], real=True)
    state = DeformationState(cfg, np.zeros(2), mode=IMPLICIT)
    path = [[3.0, 5.0], [3.1, 5.0], [3.1, 5.1]]
    return cfg, integrate_flow(state, path, FlowControl(quad_tol=1e-11, macro_step=0.05))


def test_kdv_wavevector_preserved(g2_traj):
    cfg, traj = g2_traj
    rep = kdv_wavevector_report(cfg, traj)
    assert rep["max_drift"] < 1e-7
    assert rep["max_im_U_band"] < 1e-10


def test_kdv_wavevector_negative_control(g2_traj):
    cfg, traj = g2_traj

    class Frozen:
        # same x-legs but u pinned at the start: not isoperiodic
        samples = [type(s)(x=s.x, u=np.array([1.0, 4.0], dtype=complex),
                           du=s.du, beta_drift=s.beta_drift) for s in traj.samples]

    rep = kdv_wavevector_report(cfg, Frozen())
    assert rep["max_drift"] > 1e-3


def test_kdv_report_is_deterministic(g2_traj):
    cfg, traj = g2_traj
    r1 = kdv_wavevector_report(cfg, traj)
    r2 = kdv_wavevector_report(cfg, traj)
    assert np.array_equal(r1["U"], r2["U"])


# -- reports on the flow samples' own period data -------------------------------------

def test_band_marking_on_sample_table_matches_fresh_periods(g2_traj, segment_calls):
    # the band marking read on a sample's own segment table is what
    # normalized_basis computes for it, bit for bit, and the band segments it
    # integrates are the ones the comb map needs: no segment twice
    cfg, traj = g2_traj
    for s in traj.samples:
        band = band_basis(s.pd.cfg.points)
        pdb = s.pd.in_marking(band)
        ref = normalized_basis(s.pd.cfg, basis=band, tol=s.pd.tol)
        assert pdb.segments is s.pd.segments
        for key in ("A_raw", "C", "omega_at"):
            assert np.array_equal(getattr(pdb, key), getattr(ref, key))
        assert pdb.quad_report["a_nodes"] == ref.quad_report["a_nodes"]
    fresh = integrate_flow(DeformationState(cfg, np.zeros(2), mode=IMPLICIT),
                           [[3.0, 5.0], [3.05, 5.0]], FlowControl(quad_tol=1e-11, macro_step=0.05))
    segment_calls.clear()
    kdv_wavevector_report(cfg, fresh, quad_tol=1e-11)
    comb_invariance_check(cfg, fresh, quad_tol=1e-11)
    branch = {float(p) for s in fresh.samples for p in s.pd.cfg.points.real}
    full = [iv for call in segment_calls for iv in call if iv[1] in branch]
    assert len(full) == 2 * len(fresh.samples) and len(set(full)) == len(full)


def _same_report(a, b):
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)


@pytest.mark.parametrize("case", ["implicit", "rational", "band-marking", "other-quad-tol",
                                  "own-u"])
def test_reports_reuse_sample_periods_only_when_they_match(case, period_calls):
    # a sample's period data serve the gap-marking reads of both reports when
    # they were computed for its (x, u), to the report's tolerance and in the
    # gap marking; otherwise the reports compute them anew.  Referee: the
    # same trajectory with no period data on any sample, bit for bit
    cfg = BranchConfig(x=[3.0, 5.0], u=[1.0, 4.0], real=True)
    state = DeformationState(cfg, np.zeros(2), mode=RATIONAL if case == "rational" else IMPLICIT,
                             basis=band_basis(cfg.points) if case == "band-marking" else None)
    flow_tol = 1e-10 if case == "other-quad-tol" else 1e-11
    traj = integrate_flow(state, [[3.0, 5.0], [3.1, 5.0], [3.1, 5.1]],
                          FlowControl(quad_tol=flow_tol, macro_step=0.05))
    n = len(traj.samples)
    recomputed = {"implicit": 0, "rational": 0, "own-u": n - 1}.get(case, n)
    if case == "own-u":
        # u pinned at the start (the first sample's own); the samples keep their period data
        traj = replace(traj, samples=[replace(s, u=np.array([1.0, 4.0], dtype=complex))
                                      for s in traj.samples])
    assert all(s.pd is not None for s in traj.samples)
    bare = replace(traj, samples=[replace(s, pd=None) for s in traj.samples])

    period_calls.clear()
    kdv = kdv_wavevector_report(cfg, traj, quad_tol=1e-11)
    assert period_calls.count(None) == recomputed
    assert len(period_calls) == recomputed              # the band marking reads the same table
    period_calls.clear()
    comb = comb_invariance_check(cfg, traj, quad_tol=1e-11)
    assert period_calls == [None] * recomputed

    assert _same_report(kdv, kdv_wavevector_report(cfg, bare, quad_tol=1e-11))
    assert _same_report(comb, comb_invariance_check(cfg, bare, quad_tol=1e-11))
    # a band-marking flow keeps the periods of another differential than the comb's
    assert comb["base_invariant"] == (case not in ("band-marking", "own-u"))
