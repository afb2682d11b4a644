"""Segment quadrature of real configurations: agreement with the lifted
ellipses of the oracles, and narrow gaps down to the flow's singular-locus
guard."""

import importlib.util
import pathlib
import sys

import numpy as np
import pytest

from _oracles import real_ellipse, tanh_sinh_levels

from isoperiod.comb import boundary_trace, comb_map, omega_zeros
from isoperiod.curves import BranchConfig
from isoperiod.cycles import band_basis, gap_basis
from isoperiod.periods import (_reduced_poles, build_omega, integrate_contour, monomial,
                               normalized_basis, power_rows, tanh_sinh)

WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
TOL = 1e-11


def _ellipse_reference(cfg, pd, om, tol):
    """A_ext, B and beta of ``pd``'s marking, integrated on lifted ellipses."""
    g = cfg.genus
    mons = [monomial(k) for k in range(g + 1)]
    A = np.array([integrate_contour(real_ellipse(s, cfg.points), mons, tol)[0]
                  for s in pd.basis.a])
    cb = [real_ellipse(s, cfg.points) for s in pd.basis.b]
    B = np.array([integrate_contour(c, mons[:g], tol)[0] for c in cb]) @ np.linalg.inv(A[:, :g])
    beta = np.array([integrate_contour(c, om.differential(pd), tol)[0] for c in cb])
    return A, B, beta


def _assert_agree(cfg, basis, alpha, tol):
    pd = normalized_basis(cfg, basis=basis, tol=tol)
    assert pd.segments is not None
    om = build_omega(cfg, pd, alpha=alpha, tol=tol)
    for seg, ell in zip((pd.A_ext, pd.B, om.beta), _ellipse_reference(cfg, pd, om, tol)):
        assert np.max(np.abs(seg - ell)) <= 1e-13 * np.max(np.abs(ell))


@pytest.mark.parametrize("marking", [gap_basis, band_basis])
@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_segments_agree_with_ellipses(g, marking):
    rng = np.random.default_rng(100 + g)
    for _ in range(2):
        pts = np.cumsum(rng.uniform(0.3, 1.5, 2 * g))
        cfg = BranchConfig(x=tuple(pts[1::2]), u=tuple(pts[0::2]), real=True)
        alpha = rng.normal(size=g) + 1j * rng.normal(size=g)
        _assert_agree(cfg, marking(cfg.points), alpha, 1e-12)


def test_segments_agree_with_ellipses_on_sweep_pool(monkeypatch):
    # the seed-7 periods-sweep pool where the narrowest gap is at least 1e-3
    # (180 of 288 inputs): there the ellipses converge within 2^15 nodes.  At
    # 2^17 nodes (gaps near 1.5e-4) the ellipse's own b-period error reaches
    # about 3e-14 relative, and the two paths differ by up to 1.7e-13.
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)     # its dataclasses look it up
    spec.loader.exec_module(workloads)
    pool = [cfg for cfg in workloads.make_inputs("periods-sweep", 7)
            if np.min(np.diff(np.sort(cfg.points.real))) >= 1e-3]
    assert len(pool) > 100
    for cfg in pool:
        _assert_agree(cfg, None, None, workloads.QUAD_TOL)


def _narrow(g, j, width):
    """u_k = 2k - 1, x_k = 2k with gap j (0-based) narrowed to ``width``."""
    u = [2.0 * k + 1.0 for k in range(g)]
    x = [2.0 * k + 2.0 for k in range(g)]
    shift = (x[j] - u[j]) - width
    x[j] = u[j] + width
    for k in range(j + 1, g):
        u[k] -= shift
        x[k] -= shift
    return BranchConfig(x=tuple(x), u=tuple(u), real=True)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_gap_sweep_down_to_1e8(g):
    # b-periods grow like log(1/w), so the bounds are relative to max |B|
    for j in range(g):
        for width in 10.0 ** -np.arange(1, 9):
            cfg = _narrow(g, j, width)
            pd = normalized_basis(cfg, tol=TOL)
            B = pd.B
            scale = np.max(np.abs(B))
            assert np.max(np.abs(B - B.T)) <= 1e-13 * scale
            assert np.all(np.linalg.eigvalsh(B.imag) > 0)
            for alpha in (None, 0.1j * np.arange(1, g + 1)):
                assert build_omega(cfg, pd, alpha=alpha, tol=TOL).beta_residual <= 1e-12 * scale


@pytest.mark.parametrize("j", [0, 1])
def test_comb_and_boundary_trace_at_gap_1e8(j):
    cfg = _narrow(2, j, 1e-8)
    pd = normalized_basis(cfg, tol=TOL)
    om = build_omega(cfg, pd, tol=TOL)
    region = comb_map(cfg, pd, om, tol=TOL)
    assert region.base_residual < 1e-12
    assert np.all(region.q > 0) and np.all(np.diff(region.q) > 0)
    assert 0.0 < region.h[j] < 1e-8 < region.h[1 - j]
    trace = boundary_trace(cfg, pd, om, n_per_segment=16)
    assert np.all(np.isfinite(trace))
    lam, theta = trace[:, 0].real, trace[:, 1]
    gap = theta[(lam > cfg.u[j].real) & (lam <= cfg.x[j].real)]
    # the narrow gap walks its slit: real part at the base mark, height up to h_j
    assert np.max(np.abs(gap.real - region.q[j])) < 1e-9
    assert np.all(gap.imag >= -1e-15) and np.max(gap.imag) <= region.h[j] * (1.0 + 1e-6)


def _kernel_cases():
    """Seeded interleaved curves at g = 1..4 and u_k = 2k - 1, x_k = 2k with one
    gap narrowed to 1e-1 .. 1e-8: (config, sorted points)."""
    rng = np.random.default_rng(7)
    cases = []
    for g in (1, 2, 3, 4):
        for _ in range(2):
            pts = np.cumsum(rng.uniform(0.3, 1.5, 2 * g))
            cases.append(BranchConfig(x=tuple(pts[1::2]), u=tuple(pts[0::2]), real=True))
    cases += [_narrow(g, j, 10.0 ** -k) for g in (1, 2, 3) for j in range(g) for k in range(1, 9)]
    return [(cfg, np.sort(cfg.points.real)) for cfg in cases]


@pytest.mark.parametrize("rows", ["powers", "reduced poles", "comb partials"])
def test_one_pass_kernel_matches_level_by_level_loop(rows):
    # the first levels of tanh_sinh are one array pass, but every sum is
    # formed as in the loop, so nodes, error estimates and values are the
    # loop's bit for bit.  Full segments are accepted at the first pass (73
    # nodes) and, on narrow gaps, after one or more further passes; comb
    # partials at 73
    counts = set()
    for cfg, q in _kernel_cases():
        g = cfg.genus
        lo, hi, diffs = q[:-1], q[1:], rows != "powers"
        if rows == "powers":
            f = power_rows(g + 1)
        elif rows == "reduced poles":
            f = _reduced_poles(q)
        else:                           # comb_map's partial integrals up to the zeros
            zeros = np.sort(omega_zeros(build_omega(cfg, normalized_basis(cfg, tol=TOL))).real)
            gaps = np.arange(1, 2 * g, 2)
            offsets = zeros - q[gaps]
            lo, hi = q[gaps], zeros
            f = lambda t, D: np.prod(D[..., gaps] - offsets, axis=-1)[..., None]
        got = tanh_sinh(lo, hi, q, TOL, f, diffs=diffs)
        ref = tanh_sinh_levels(lo, hi, q, TOL, f, diffs=diffs)
        for a, b in zip(got, ref):
            assert np.array_equal(a, b)
        counts |= set(got[1].tolist())
    assert counts == {73} if rows == "comb partials" else {73, 145, 289, 577} <= counts
