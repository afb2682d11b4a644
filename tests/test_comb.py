import math
import re
from dataclasses import replace

import numpy as np
import pytest

import isoperiod.comb as comb_module
from isoperiod.comb import boundary_trace, comb_invariance_check, comb_map
from isoperiod.curves import BranchConfig, validate_config
from isoperiod.errors import OrderingViolation, RootLocalizationFailed
from isoperiod.flow import IMPLICIT, DeformationState, FlowControl, integrate_flow
from isoperiod.periods import build_omega, horner, normalized_basis

from _oracles import omega_zeros_fixed_steps

G1 = BranchConfig(x=[2.0], u=[1.0], real=True)
G2 = BranchConfig(x=[3.0, 5.0], u=[1.0, 4.0], real=True)
TOL = 1e-11


def _setup(cfg):
    pd = normalized_basis(cfg, tol=TOL)
    om = build_omega(cfg, pd, tol=TOL)
    return pd, om


def _zeros(om):
    # the comb's root solve on a stack of one curve: polished, not stalled
    (roots,), (stalled,) = comb_module._polished_roots(om.poly[None])
    assert stalled is None
    return roots


# -- zeros ------------------------------------------------------------------------

@pytest.mark.parametrize("cfg", [G1, G2])
def test_zeros_one_per_gap(cfg):
    _, om = _setup(cfg)
    zeros = _zeros(om)
    assert len(zeros) == cfg.genus
    for j, z in enumerate(sorted(zeros, key=lambda v: v.real)):
        assert abs(z.imag) < 1e-10
        assert cfg.u[j].real < z.real < cfg.x[j].real


def test_zeros_polished_residual():
    _, om = _setup(G2)
    zeros = _zeros(om)
    vals = np.polynomial.polynomial.polyval(zeros, om.poly)
    assert np.max(np.abs(vals)) < 1e-12


def test_zeros_perturbation_conditioning():
    _, om = _setup(G1)
    z0 = _zeros(om)[0]
    om.c = om.c + 1e-10
    z1 = _zeros(om)[0]
    dpoly = np.polynomial.polynomial.polyder(om.poly)
    deriv = abs(np.polynomial.polynomial.polyval(z1, dpoly))
    assert abs(z1 - z0) < 10.0 * 1e-10 / deriv + 1e-14


def _near_the_fixed_step_loop(zeros, om) -> bool:
    # the zeros (sorted) and the 8-step loop's both sit at Newton's rounding floor,
    # each within g eps sum_k |c_k| |z|^k / |Q'(z)| of the exact root (Horner's
    # bound), so they differ by at most twice that
    ref, c = omega_zeros_fixed_steps(om), om.poly
    g = len(c) - 1
    floor = horner(np.abs(c), np.abs(ref)) / np.abs(horner(np.arange(1, g + 1) * c[1:], ref))
    return bool(np.all(np.abs(zeros - ref) <= 2.0 * g * np.finfo(float).eps * floor))


def test_zeros_equal_the_fixed_step_loop(monkeypatch):
    # the zeros equal the 8-step loop's to Newton's rounding floor.  A curve is
    # frozen after a Newton step of at most 2^-40 of its largest root:
    # seeded interleaved curves with wide gaps and with every gap 1e-8 wide stop
    # after one step, at the floor of the loop that always takes 8 steps (its
    # bits differ by up to 27 ulp, or 3.9e-15 relative, where a root's
    # condition is poor)
    steps = []
    monkeypatch.setattr(comb_module, "horner",
                        lambda c, x: steps.append(len(x)) or horner(c, x))
    for g in range(1, 5):
        rng = np.random.default_rng(70 + g)
        for width in (None, 1e-8):
            for _ in range(4):
                bands = rng.uniform(0.5, 2.0, g)
                gaps = rng.uniform(0.5, 2.0, g) if width is None else np.full(g, width)
                u = np.cumsum(bands) + np.concatenate(([0.0], np.cumsum(gaps)[:-1]))
                cfg = BranchConfig(x=list(u + gaps), u=list(u), real=True)
                _, om = _setup(cfg)
                steps.clear()
                zeros = _zeros(om)
                assert len(steps) == 3                  # two evaluations a step, one residual
                assert _near_the_fixed_step_loop(zeros[np.argsort(zeros.real)], om)
    # started 0.5 from the double root of (t - 1)^2, Newton halves its error a
    # step: that curve takes all 8 steps and stalls, while the curve stacked with
    # it is frozen after one, with the bits of its own call
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals",
                        lambda m: eigvals(m) + 0.5 * (m[:, :1, 0] == 2.0))
    _, om = _setup(G2)
    stack = np.array([om.poly, [1.0, -2.0, 1.0]])
    steps.clear()
    roots, stalled = comb_module._polished_roots(stack)
    assert steps == [2, 2] + [1, 1] * 7 + [2]
    assert stalled[0] is None and isinstance(stalled[1], RootLocalizationFailed)
    assert np.array_equal(roots[0], comb_module._polished_roots(stack[:1])[0][0])


# -- the map ------------------------------------------------------------------------

@pytest.mark.parametrize("cfg", [G1, G2])
def test_comb_geometry(cfg):
    pd, om = _setup(cfg)
    region = comb_map(cfg, pd, om, tol=TOL)
    assert np.all(region.q > 0)
    assert np.all(np.diff(region.q) > 0) or cfg.genus == 1
    assert np.all(region.h > 0)
    assert region.base_residual < 1e-9
    assert region.q[-1] == pytest.approx(region.beta_ratio[-1].real
                                         * complex(_setup(cfg)[1].beta[-1]).real, rel=1e-8)


def test_theta_vanishes_at_origin_with_sqrt_rate():
    # Theta(0) = 0 by construction; near the corner |Theta| ~ C sqrt(lambda)
    pd, om = _setup(G1)
    trace = boundary_trace(G1, pd, om, n_per_segment=512)
    lam = trace[:4, 0].real
    scaled = np.abs(trace[:4, 1]) / np.sqrt(lam)
    assert np.max(scaled) / np.min(scaled) < 1.2


def test_boundary_trace_band_and_gap_structure():
    pd, om = _setup(G1)
    trace = boundary_trace(G1, pd, om, n_per_segment=24)
    lam = trace[:, 0].real
    th = trace[:, 1]
    band = th[lam <= 1.0]
    gap = th[(lam > 1.0) & (lam <= 2.0)]
    # bands map into the real base: imaginary part stays at 0, real part grows
    assert np.max(np.abs(band.imag)) < 1e-8
    assert np.all(np.diff(band.real) > 0)
    # gaps walk the slit: real part pinned at the mark
    assert np.max(np.abs(gap.real - gap.real[0])) < 1e-8
    assert np.max(gap.imag) > 1e-3


@pytest.mark.parametrize("n", [-1, 0, 1])
def test_boundary_trace_needs_two_parts_per_segment(n):
    pd, om = _setup(G1)
    with pytest.raises(ValueError, match="n_per_segment"):
        boundary_trace(G1, pd, om, n_per_segment=n)
    # two parts: one interior point per segment, then its end
    assert boundary_trace(G1, pd, om, n_per_segment=2).shape == (4, 2)


def test_boundary_trace_integrates_through_the_comb_map(monkeypatch):
    # the trace takes its checks and zeros from comb_map, then makes one kernel
    # call of its own, through the partials helper that the comb's stack uses
    events = []
    for name in ("comb_map", "_partials", "tanh_sinh"):
        original = getattr(comb_module, name)

        def recording(*args, _name=name, _original=original, **kwargs):
            events.append(_name)
            out = _original(*args, **kwargs)
            events.append("/" + _name)
            return out

        monkeypatch.setattr(comb_module, name, recording)
    pd, om = _setup(G2)
    boundary_trace(G2, pd, om, n_per_segment=8, tol=TOL)
    inner = ["_partials", "tanh_sinh", "/tanh_sinh", "/_partials"]
    assert events == ["comb_map"] + inner + ["/comb_map"] + inner
    assert not hasattr(comb_module, "power_rows")


def test_boundary_trace_refuses_what_comb_map_refuses():
    pd, om = _setup(G2)
    alpha = build_omega(G2, pd, alpha=[0.3j, 0.1j], tol=TOL)
    with pytest.raises(ValueError, match="^comb construction uses the zero-a-period differential$"):
        boundary_trace(G2, pd, alpha)
    cfg = BranchConfig(x=[3.0, 1.0], u=[2.0, 4.0], real=True)
    pd, om = _setup(cfg)
    message = re.escape(comb_module.UNORDERED)
    with pytest.raises(OrderingViolation, match=f"^{message}$"):
        boundary_trace(cfg, pd, om)


@pytest.mark.parametrize("width", [1e-2, 1e-4, 1e-6, 1e-8])
def test_boundary_trace_in_a_narrow_gap_matches_mpmath(width):
    # Theta(lambda) - Theta(u) = -(i/2) int_u^lambda Q dt / |mu| inside the gap,
    # Q the product over the comb's zeros.  The monomial form of Q cancels near
    # its zero: it was off by 3.2e-13, 1e-10, 3.3e-9 and 5e-7 relative at these
    # widths.  The product form reads 2.9e-16 and 2e-15 at 1e-2 and 1e-4, and
    # 5e-13 at 1e-6 and 1e-8, at the last point: below magnitude 1 the kernel's
    # tolerance is absolute, and a partial of 1e-7 is accepted at 73 nodes
    mp = pytest.importorskip("mpmath")
    cfg = BranchConfig(x=[1.0 + width], u=[1.0], real=True)
    pd = normalized_basis(cfg, tol=1e-12)
    om = build_omega(cfg, pd, tol=1e-12)
    (xi,) = comb_map(cfg, pd, om, tol=1e-12).zeros
    trace = boundary_trace(cfg, pd, om, n_per_segment=64, tol=1e-12)
    lam, theta = trace[:, 0].real, trace[:, 1]
    u, x = cfg.u[0].real, cfg.x[0].real
    (at_u,) = theta[lam == u]
    inside = (lam > u) & (lam < x)
    assert np.count_nonzero(inside) == 63
    with mp.workdps(40):
        U, X, XI = mp.mpf(u), mp.mpf(x), mp.mpf(xi)

        def f(v):                     # t = u + v^2 absorbs the endpoint root
            t = U + v * v
            return 2 * (t - XI) / mp.sqrt(t * (X - t))

        for lam_i, theta_i in zip(lam[inside], theta[inside]):
            ref = -0.5 * mp.quad(f, [0, mp.sqrt(mp.mpf(lam_i) - U)])
            d = theta_i - at_u
            assert abs(mp.mpc(d.real, d.imag) - mp.mpc(0, ref)) <= 1e-12 * abs(ref)


def test_ratio_constant_across_configs():
    ratios = []
    for cfg in (G1, BranchConfig(x=[2.4], u=[0.7], real=True), G2):
        pd, om = _setup(cfg)
        region = comb_map(cfg, pd, om, tol=TOL)
        ratios.extend(region.beta_ratio.tolist())
    ratios = np.array(ratios)
    assert np.max(np.abs(ratios - ratios[0])) < 1e-8


@pytest.mark.parametrize("j", [0, 1, 2])
def test_slit_heights_on_a_narrow_gap_match_mpmath(j):
    # h_j = (1/2) |int_{u_j}^{xi_j} Q dt / |mu||; near its zero xi_j the
    # monomial form of Q cancels, which cost up to 3.5e-10 relative here
    mp = pytest.importorskip("mpmath")
    u, x = [1.0, 3.0, 5.0], [2.0, 4.0, 6.0]
    x[j] = u[j] + 1.5e-4
    shift = 1.0 - 1.5e-4
    cfg = BranchConfig(x=x[:j + 1] + [v - shift for v in x[j + 1:]],
                       u=u[:j + 1] + [v - shift for v in u[j + 1:]], real=True)
    pd, om = _setup(cfg)
    region = comb_map(cfg, pd, om, tol=TOL)
    q = [mp.mpf(p) for p in sorted(cfg.points.real)]
    poly = [mp.mpf(c) for c in om.poly.real[::-1]]
    for k, xi in enumerate(region.zeros):
        lo = q[2 * k + 1]
        others = q[:2 * k + 1] + q[2 * k + 2:]

        def f(v):                     # t = u_k + v^2 absorbs the endpoint root
            t = lo + v * v
            return 2 * mp.polyval(poly, t) / mp.sqrt(abs(mp.fprod(t - p for p in others)))

        with mp.workdps(30):
            ref = 0.5 * abs(mp.quad(f, [0, mp.sqrt(mp.mpf(xi) - lo)]))
        assert abs(region.h[k] - ref) <= 5e-11 * ref


def test_comb_map_checks_the_ordering_once(monkeypatch):
    calls = []
    monkeypatch.setattr(comb_module, "validate_config",
                        lambda *a, **k: calls.append(k) or validate_config(*a, **k))
    pd, om = _setup(G2)
    comb_map(G2, pd, om, tol=TOL)
    assert calls == [{"ordered": True}]


def test_comb_requires_ordered_real_config():
    cfg = BranchConfig(x=[3.0, 1.0], u=[2.0, 4.0], real=True)
    pd = normalized_basis(cfg, tol=TOL)
    om = build_omega(cfg, pd, tol=TOL)
    with pytest.raises(OrderingViolation):
        comb_map(cfg, pd, om)


# -- the comb over a stack of curves ------------------------------------------------

def _interleaved(rng, g, width=None):
    bands = rng.uniform(0.5, 2.0, g)
    gaps = rng.uniform(0.5, 2.0, g) if width is None else np.full(g, width)
    u = np.cumsum(bands) + np.concatenate(([0.0], np.cumsum(gaps)[:-1]))
    return BranchConfig(x=list(u + gaps), u=list(u), real=True)


def _same_comb(a, b):
    return (all(np.array_equal(getattr(a, k), getattr(b, k))
                for k in ("q", "h", "zeros", "base_residual", "beta_ratio"))
            and a.diagnostics.keys() == b.diagnostics.keys()
            and np.array_equal(a.diagnostics["segment_values"], b.diagnostics["segment_values"])
            and a.diagnostics["tol"] == b.diagnostics["tol"])


@pytest.mark.parametrize("g", range(1, 9))
def test_stacked_combs_equal_comb_map_per_curve(g):
    # one batched root solve, one fill of all tables (a point row per interval)
    # and one partial-integral call give each curve what comb_map gives it
    # alone, bit for bit, and its zeros are at the fixed-step loop's floor
    # (np.roots, then 8 Newton steps).  Seeded interleaved stacks, with wide gaps and with
    # every gap 1e-6 wide
    rng = np.random.default_rng(90 + g)
    for width in (None, 1e-6):
        cfgs = [_interleaved(rng, g, width) for _ in range(4)]
        alone = [_setup(cfg) for cfg in cfgs]
        stack = [_setup(cfg) for cfg in cfgs]       # fresh tables, filled by the stack
        combs = comb_module._combs([(cfg, pd, om) for cfg, (pd, om) in zip(cfgs, stack)], TOL)
        roots, stalled = comb_module._polished_roots(np.array([om.poly for _, om in stack]))
        assert stalled == [None] * len(cfgs)
        for cfg, (pd, om), comb, r in zip(cfgs, alone, combs, roots):
            assert _same_comb(comb, comb_map(cfg, pd, om, tol=TOL))
            assert _near_the_fixed_step_loop(r[np.argsort(r.real)], om)


def test_stacked_comb_raises_for_the_first_failing_curve(monkeypatch):
    # the stack only computes: the ordering and the a-periods are its callers'
    # checks (comb_map's, below), and it raises the first stalled or misplaced
    # zero in stack order
    pd, om = _setup(G2)
    # Q = (t - 0.5)(t - 4.5) leaves the first gap, Q = (t - 2)(t - 6) the second
    first = (G2, pd, replace(om, c=np.array([2.25, -5.0], dtype=complex)))
    second = (G2, pd, replace(om, c=np.array([12.0, -8.0], dtype=complex)))
    for stack, gap in (([(G2, pd, om), first, second], "(1.0, 3.0)"),
                       ([(G2, pd, om), second, first], "(4.0, 5.0)")):
        with pytest.raises(RootLocalizationFailed, match=re.escape(f"in gap {gap}")):
            comb_module._combs(stack, TOL)
    original = comb_module._polished_roots

    def stall_second(poly):
        roots, stalled = original(poly)
        return roots, stalled[:1] + [RootLocalizationFailed("stalled")] + stalled[2:]

    monkeypatch.setattr(comb_module, "_polished_roots", stall_second)
    for stack, message in (([(G2, pd, om), (G2, pd, om), first], "^stalled$"),
                           ([first, (G2, pd, om), (G2, pd, om)], "in gap")):
        with pytest.raises(RootLocalizationFailed, match=message):
            comb_module._combs(stack, TOL)
    # comb_map checks its one curve: the interleaving, then alpha, then the zeros
    out_of_order = BranchConfig(x=[4.5, 5.0], u=[1.0, 4.0], real=True)
    alpha = np.array([0.1, 0.0], dtype=complex)
    for cfg, a, error in ((out_of_order, alpha, OrderingViolation),
                          (G2, alpha, ValueError), (G2, 0 * alpha, RootLocalizationFailed)):
        with pytest.raises(error):
            comb_map(cfg, pd, replace(first[2], alpha=a), tol=TOL)


# -- invariance along flows ------------------------------------------------------------

@pytest.fixture(scope="module")
def g1_reference_flow():
    state = DeformationState(G1, np.zeros(1), mode=IMPLICIT)
    return integrate_flow(state, [[2.0], [2.2]],
                          FlowControl(quad_tol=TOL, macro_step=0.04))


def test_comb_base_invariant_along_flow(g1_reference_flow):
    rep = comb_invariance_check(G1, g1_reference_flow, tol=1e-6, quad_tol=TOL)
    assert rep["base_invariant"]
    assert float(np.max(rep["q_drift"])) < 1e-6
    assert rep["slits_moved"]
    assert float(np.max(rep["h_variation"])) > 1e-4
    assert rep["ratio_spread"] < 1e-6


def test_comb_trivial_path(g1_reference_flow):
    state = DeformationState(G1, np.zeros(1), mode=IMPLICIT)
    traj = integrate_flow(state, [[2.0], [2.0]], FlowControl(quad_tol=TOL))
    rep = comb_invariance_check(G1, traj, tol=1e-10, quad_tol=TOL)
    assert float(np.max(rep["q_drift"])) < 1e-10
    assert float(np.max(rep["h_variation"])) < 1e-10


def test_comb_frozen_u_control(g1_reference_flow):
    traj = g1_reference_flow

    class Frozen:
        samples = [type(s)(x=s.x, u=np.array([1.0], dtype=complex), du=s.du,
                           beta_drift=s.beta_drift) for s in traj.samples]

    rep = comb_invariance_check(G1, Frozen(), tol=1e-6, quad_tol=TOL)
    assert not rep["base_invariant"]
    assert float(np.max(rep["q_drift"])) > 1e-3


def test_comb_defaults_reuse_a_default_flows_period_data(period_calls):
    # the comb's default quad_tol is FlowControl's, so it reads every sample's pd
    state = DeformationState(G2, np.zeros(2), mode=IMPLICIT)
    traj = integrate_flow(state, [[3.0, 5.0], [3.02, 5.0]])
    period_calls.clear()
    rep = comb_invariance_check(G2, traj)
    assert len(traj.samples) > 2
    assert period_calls == []
    assert rep["base_invariant"]


def test_comb_invariance_checks_each_sample_once(monkeypatch):
    calls = []
    monkeypatch.setattr(comb_module, "validate_config",
                        lambda *a, **k: calls.append(k) or validate_config(*a, **k))
    traj = integrate_flow(DeformationState(G2, np.zeros(2), mode=IMPLICIT),
                          [[3.0, 5.0], [3.05, 5.0]], FlowControl(quad_tol=TOL, macro_step=0.025))
    comb_invariance_check(G2, traj, quad_tol=TOL)
    assert calls == [{"ordered": True}] * len(traj.samples) and len(traj.samples) == 3


def test_comb_invariance_rejects_prescribed_a_periods():
    # alpha . C = (0.3, 0) is real, so the flow stays real and keeps its
    # periods, but they are not those of the comb's zero-a-period differential
    cfg = BranchConfig(x=[2.0, 4.0], u=[1.0, 3.0], real=True)
    alpha = np.array([0.3, 0.0]) @ np.linalg.inv(normalized_basis(cfg, tol=TOL).C)
    traj = integrate_flow(DeformationState(cfg, alpha, mode=IMPLICIT),
                          [[2.0, 4.0], [2.05, 4.0]], FlowControl(quad_tol=TOL, macro_step=0.05))
    assert traj.max_drift() < 1e-12
    with pytest.raises(ValueError, match="zero prescribed a-periods"):
        comb_invariance_check(cfg, traj, tol=1e-6, quad_tol=TOL)


def test_comb_invariance_raises_for_a_sample_out_of_order():
    # the second sample breaks the interleaving (u_2 < x_1): the stack raises
    # there, with the message a comb_map per sample gives
    traj = integrate_flow(DeformationState(G2, np.zeros(2), mode=IMPLICIT),
                          [[3.0, 5.0], [3.05, 5.0]], FlowControl(quad_tol=TOL, macro_step=0.025))
    bad = replace(traj.samples[1], x=np.array([4.5, 5.0], dtype=complex), pd=None)
    traj = replace(traj, samples=[traj.samples[0], bad, traj.samples[2]])
    message = "comb construction requires 0 < u_1 < x_1 < ... < x_g"
    with pytest.raises(OrderingViolation, match=f"^{re.escape(message)}$"):
        comb_invariance_check(G2, traj, quad_tol=TOL)


@pytest.mark.parametrize("name, value", [("tol", math.nan), ("tol", math.inf), ("tol", 0.0),
                                         ("quad_tol", math.nan), ("quad_tol", -1e-11)])
def test_comb_invariance_rejects_tolerances_before_quadrature(name, value, g1_reference_flow,
                                                              segment_calls):
    # a NaN tol made both flags False and an infinite one called every base
    # invariant; a NaN quad_tol refined to 2^17 nodes before NoConvergence
    segment_calls.clear()
    with pytest.raises(ValueError, match=f"^{name} must be finite and positive"):
        comb_invariance_check(G1, g1_reference_flow, **{name: value})
    assert segment_calls == []


def test_comb_invariance_checks_every_sample_order_before_quadrature(monkeypatch):
    # the second sample breaks the interleaving and the third is not finite:
    # the second's OrderingViolation raises before the third's periods are read
    traj = integrate_flow(DeformationState(G2, np.zeros(2), mode=IMPLICIT),
                          [[3.0, 5.0], [3.05, 5.0]], FlowControl(quad_tol=TOL, macro_step=0.025))
    bad = replace(traj.samples[1], x=np.array([4.5, 5.0], dtype=complex), pd=None)
    nan = replace(traj.samples[2], u=np.array([1.0, np.nan], dtype=complex), pd=None)
    traj = replace(traj, samples=[traj.samples[0], bad, nan])
    with pytest.raises(OrderingViolation):
        comb_invariance_check(G2, traj, quad_tol=TOL)
    # and a root failure of the first sample raises before the second's ordering
    original = comb_module.build_omega

    def moved_zeros(cfg, pd, **kwargs):
        om = original(cfg, pd, **kwargs)
        # Q = (t - 0.5)(t - 4.5) on the first sample: neither zero in its gap
        return replace(om, c=np.array([2.25, -5.0], dtype=complex)) if cfg == G2 else om

    monkeypatch.setattr(comb_module, "build_omega", moved_zeros)
    with pytest.raises(RootLocalizationFailed):
        comb_invariance_check(G2, traj, quad_tol=TOL)
