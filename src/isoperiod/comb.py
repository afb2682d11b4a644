"""Comb regions: the conformal image of the upper half plane under the
antiderivative of the zero-a-period second-kind differential.

For a real interleaved configuration 0 < u_1 < x_1 < ... < u_g < x_g the map

    Theta(z) = (1/2) * int_0^z Q(t) dt / mu(t),   Q = the monic polynomial of
                                                  the second-kind differential,

with mu continued from the principal branch on (x_g, infinity) along the upper
edge of the real axis, sends the upper half plane onto a vertical semi-strip
with g vertical slits: bands map onto the real base, gap [u_j, x_j] walks up
and down the j-th slit.  The base marks q_j = Theta(u_j) are real and are
proportional to the b-periods of the differential; the slit heights are
h_j = Im Theta(xi_j) at the zeros xi_j of Q (one zero per gap).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curves import BranchConfig, validate_config
from .errors import NoConvergence, OrderingViolation, RootLocalizationFailed
from .periods import OmegaDifferential, PeriodData, beta_from_evaluations

_MAX_SEG_NODES = 1 << 16


@dataclass
class CombRegion:
    """Base marks and slit heights of a comb region, with diagnostics."""

    q: np.ndarray
    h: np.ndarray
    zeros: np.ndarray
    base_residual: float          # max |Im Theta(u_j)|, zero up to quadrature error
    beta_ratio: np.ndarray        # q_j / b-period_j, constant across j and configs
    diagnostics: dict = field(default_factory=dict)


def omega_zeros(om: OmegaDifferential, newton_steps: int = 8) -> np.ndarray:
    """Roots of the monic polynomial defining the second-kind differential.

    Companion-matrix eigenvalues polished by Newton iteration; for ordered
    real configurations asserts exactly one root inside each gap (u_j, x_j).
    """
    poly = om.poly                      # ascending, monic
    roots = np.roots(poly[::-1])
    dpoly = np.polynomial.polynomial.polyder(poly)
    for _ in range(newton_steps):
        val = np.polynomial.polynomial.polyval(roots, poly)
        der = np.polynomial.polynomial.polyval(roots, dpoly)
        roots = roots - val / der
    resid = np.max(np.abs(np.polynomial.polynomial.polyval(roots, poly)))
    scale = max(1.0, float(np.max(np.abs(roots))) ** len(om.c))
    if resid > 1e-12 * scale:
        raise RootLocalizationFailed(f"root polishing stalled at residual {resid:.2e}")
    cfg = om.cfg
    if cfg.real and not validate_config(cfg, ordered=True):
        order = np.argsort([r.real for r in roots])
        roots = roots[order]
        for j, r in enumerate(roots):
            uj, xj = cfg.u[j].real, cfg.x[j].real
            if not (abs(r.imag) < 1e-9 and uj < r.real < xj):
                raise RootLocalizationFailed(
                    f"expected one real zero in gap ({uj}, {xj}), found {r}")
    return roots


def _angle_phases(points_sorted: np.ndarray):
    """i^(number of branch points above t) for each inter-point segment."""
    n = len(points_sorted)
    return [1j ** (n - (s + 1)) for s in range(n)]


def _segment_full(points_sorted, s, poly, n):
    """Gauss-Chebyshev value of int over [p_s, p_{s+1}] of Q(t)/|mu(t)| dt.

    The inverse square-root endpoint factors are absorbed into the weight;
    returns the integral of Q(t)/sqrt(prod_{i not in {s, s+1}} |t - p_i|).
    """
    a, b = points_sorted[s], points_sorted[s + 1]
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    theta = (2.0 * np.arange(1, n + 1) - 1.0) * math.pi / (2.0 * n)
    t = mid + half * np.cos(theta)
    others = np.concatenate((points_sorted[:s], points_sorted[s + 2:]))
    rest = np.sqrt(np.prod(np.abs(t[:, None] - others[None, :]), axis=1))
    qv = np.polynomial.polynomial.polyval(t, poly)
    return (math.pi / n) * np.sum(qv / rest)


def _segment_partial(points_sorted, s, target, poly, n):
    """int over [p_s, target] (target inside segment s) of Q(t)/|mu(t)| dt.

    Substituting t = p_s + (target - p_s) w^2 removes the left-endpoint
    inverse square root; Gauss-Legendre handles the smooth remainder.
    """
    a = points_sorted[s]
    w, wt = np.polynomial.legendre.leggauss(n)
    w = 0.5 * (w + 1.0)
    wt = 0.5 * wt
    t = a + (target - a) * w ** 2
    others = np.concatenate((points_sorted[:s], points_sorted[s + 1:]))
    rest = np.sqrt(np.prod(np.abs(t[:, None] - others[None, :]), axis=1))
    qv = np.polynomial.polynomial.polyval(t, poly)
    return 2.0 * math.sqrt(abs(target - a)) * np.sum(wt * qv / rest)


def _adaptive(fn, tol):
    n = 48
    prev = None
    while n <= _MAX_SEG_NODES:
        val = fn(n)
        if prev is not None and abs(val - prev) <= tol * max(1.0, abs(val)):
            return val
        prev = val
        n *= 2
    raise NoConvergence("segment quadrature did not converge")


def comb_map(cfg: BranchConfig, pd: PeriodData, om: OmegaDifferential,
             tol: float = 1e-10) -> CombRegion:
    """Base marks q_j, slit heights h_j, and the q/beta ratio vector."""
    if validate_config(cfg, ordered=True):
        raise OrderingViolation("comb construction requires 0 < u_1 < x_1 < ... < x_g")
    if np.any(np.abs(om.alpha) > 0):
        raise ValueError("comb construction uses the zero-a-period differential")
    g = cfg.genus
    pts = np.sort(cfg.points.real)
    poly = om.poly.real if np.max(np.abs(om.poly.imag)) < 1e-9 else om.poly
    phases = _angle_phases(pts)
    zeros = np.sort(omega_zeros(om).real)

    seg_vals = [_adaptive(lambda n, s=s: _segment_full(pts, s, poly, n), tol)
                for s in range(2 * g)]
    theta_nodes = 0.5 * np.cumsum([v / ph for v, ph in zip(seg_vals, phases)])

    q = np.empty(g)
    h = np.empty(g)
    base_residual = 0.0
    for j in range(1, g + 1):
        th_u = theta_nodes[2 * j - 2]           # Theta at u_j = sorted point 2j-1
        q[j - 1] = th_u.real
        base_residual = max(base_residual, abs(th_u.imag))
        part = _adaptive(
            lambda n, j=j: _segment_partial(pts, 2 * j - 1, zeros[j - 1], poly, n), tol)
        h[j - 1] = (th_u + 0.5 * part / phases[2 * j - 1]).imag

    beta = beta_from_evaluations(pd, None)
    ratio = q / beta
    return CombRegion(q=q, h=h, zeros=zeros, base_residual=base_residual,
                      beta_ratio=ratio,
                      diagnostics={"segment_values": seg_vals, "tol": tol})


def boundary_trace(cfg: BranchConfig, pd: PeriodData, om: OmegaDifferential,
                   n_per_segment: int = 64, tol: float = 1e-9) -> np.ndarray:
    """Sample (lambda, Theta(lambda)) along the real axis for plotting.

    Interior sample points of each inter-branch-point segment only; the map
    is continuous up to the branch points where it has square-root behaviour.
    """
    if validate_config(cfg, ordered=True):
        raise OrderingViolation("boundary trace requires an ordered real configuration")
    g = cfg.genus
    pts = np.sort(cfg.points.real)
    poly = om.poly.real if np.max(np.abs(om.poly.imag)) < 1e-9 else om.poly
    phases = _angle_phases(pts)
    rows = []
    theta_base = 0.0 + 0.0j
    for s in range(2 * g):
        for w in np.linspace(0.0, 1.0, n_per_segment, endpoint=False)[1:]:
            target = pts[s] + (pts[s + 1] - pts[s]) * w
            part = _adaptive(lambda n: _segment_partial(pts, s, target, poly, n), tol)
            rows.append((target, theta_base + 0.5 * part / phases[s]))
        seg = _adaptive(lambda n: _segment_full(pts, s, poly, n), tol)
        theta_base = theta_base + 0.5 * seg / phases[s]
        rows.append((pts[s + 1], theta_base))
    return np.array(rows, dtype=complex)


def comb_invariance_check(cfg: BranchConfig, trajectory, tol: float = 1e-6,
                          quad_tol: float = 1e-10) -> dict:
    """Recompute the comb at every trajectory sample; the base must not move.

    The trajectory must come from a real flow with zero prescribed a-periods.
    Reports max drift of each base mark, the variation of the slit heights
    (expected to move unless the path is trivial), and the spread of the
    q/beta ratio.
    """
    from .periods import build_omega, normalized_basis

    def make_comb(x, u):
        c = cfg.replace(x=x, u=u)
        pd = normalized_basis(c, tol=quad_tol)
        om = build_omega(c, pd, tol=quad_tol)
        return comb_map(c, pd, om, tol=quad_tol)

    combs = [make_comb(s.x, s.u) for s in trajectory.samples]
    q = np.array([c.q for c in combs])
    h = np.array([c.h for c in combs])
    ratios = np.array([c.beta_ratio for c in combs])
    q_drift = np.max(np.abs(q - q[0]), axis=0)
    h_var = np.max(h, axis=0) - np.min(h, axis=0)
    ratio_spread = float(np.max(np.abs(ratios - ratios[0])))
    return {
        "q": q,
        "h": h,
        "q_drift": q_drift,
        "h_variation": h_var,
        "ratio": ratios[0],
        "ratio_spread": ratio_spread,
        "base_invariant": bool(np.max(q_drift) < tol),
        "slits_moved": bool(np.max(h_var) > 10.0 * tol),
    }
