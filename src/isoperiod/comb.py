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

Theta at the branch points is a cumulative sum of the period data's segment
table (:class:`isoperiod.periods.SegmentTable`) times Q, so the full
segments cost no quadrature here; the partial integrals from a branch point
to an interior point use the same tanh-sinh kernel, with one singular
endpoint.  Up to the zeros, Q is evaluated in product form over them, from
the exact node differences: the monomial form cancels near xi_j, where
narrow gaps put the slit heights' whole integrand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .curves import BranchConfig, validate_config
from .errors import OrderingViolation, RootLocalizationFailed
from .flow import sample_periods
from .periods import (OmegaDifferential, PeriodData, beta_from_evaluations, build_omega,
                      horner, power_rows, tanh_sinh)


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
    dpoly = np.arange(1, len(poly)) * poly[1:]
    for _ in range(newton_steps):
        roots = roots - horner(poly, roots) / horner(dpoly, roots)
    resid = np.max(np.abs(horner(poly, roots)))
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


def comb_map(cfg: BranchConfig, pd: PeriodData, om: OmegaDifferential,
             tol: float = 1e-10) -> CombRegion:
    """Base marks q_j, slit heights h_j, and the q/beta ratio vector.

    The full segments are the segment table of ``pd`` (to ``pd.tol``) times
    the polynomial; only the g partial integrals up to the zeros are new
    quadratures (to ``tol``).
    """
    if validate_config(cfg, ordered=True):
        raise OrderingViolation("comb construction requires 0 < u_1 < x_1 < ... < x_g")
    if np.any(np.abs(om.alpha) > 0):
        raise ValueError("comb construction uses the zero-a-period differential")
    g = cfg.genus
    poly = om.poly.real if np.max(np.abs(om.poly.imag)) < 1e-9 else om.poly
    table = pd.segments
    zeros = np.sort(omega_zeros(om).real)

    seg_vals = table.rows(np.arange(2 * g)) @ poly          # phase included
    theta_nodes = 0.5 * np.cumsum(seg_vals)
    th_u = theta_nodes[0:2 * g:2]                           # Theta at u_j = sorted point 2j-1
    gaps = np.arange(1, 2 * g, 2)
    # int_{u_j}^{xi_j} Q / |mu|, with t - xi_k = (t - u_k) - (xi_k - u_k)
    offsets = zeros - table.q[gaps]
    part = tanh_sinh(table.q[gaps], zeros, table.q, tol,
                     lambda t, D: np.prod(D[..., gaps] - offsets, axis=-1)[..., None],
                     diffs=True)[0][:, 0]
    q = th_u.real
    # Theta(u_j) is real (the a-periods of Q vanish); its imaginary part is
    # rounding, reported as the base residual, and left out of h
    h = (0.5 * part / table.phase[gaps]).imag
    base_residual = float(np.max(np.abs(th_u.imag)))

    beta = beta_from_evaluations(pd, None)
    ratio = q / beta
    return CombRegion(q=q, h=h, zeros=zeros, base_residual=base_residual,
                      beta_ratio=ratio,
                      diagnostics={"segment_values": list(seg_vals * table.phase), "tol": tol})


def boundary_trace(cfg: BranchConfig, pd: PeriodData, om: OmegaDifferential,
                   n_per_segment: int = 64, tol: float = 1e-9) -> np.ndarray:
    """Sample (lambda, Theta(lambda)) along the real axis for plotting.

    Interior sample points of each inter-branch-point segment only; the map
    is continuous up to the branch points where it has square-root behaviour.
    """
    if validate_config(cfg, ordered=True):
        raise OrderingViolation("boundary trace requires an ordered real configuration")
    g = cfg.genus
    poly = om.poly.real if np.max(np.abs(om.poly.imag)) < 1e-9 else om.poly
    table = pd.segments
    pts = table.q
    seg_vals = table.rows(np.arange(2 * g)) @ poly
    rows = []
    theta_base = 0.0 + 0.0j
    frac = np.linspace(0.0, 1.0, n_per_segment, endpoint=False)[1:]
    for s in range(2 * g):
        targets = pts[s] + (pts[s + 1] - pts[s]) * frac
        part = tanh_sinh(np.full(len(targets), pts[s]), targets, pts, tol,
                         power_rows(g + 1))[0] @ poly
        rows.extend(zip(targets, theta_base + 0.5 * part / table.phase[s]))
        theta_base = theta_base + 0.5 * seg_vals[s]
        rows.append((pts[s + 1], theta_base))
    return np.array(rows, dtype=complex)


def comb_invariance_check(cfg: BranchConfig, trajectory, tol: float = 1e-6,
                          quad_tol: float = 1e-11) -> dict:
    """Build the comb at every trajectory sample; the base must not move.

    The trajectory must come from a real flow with zero prescribed a-periods:
    a nonzero ``trajectory.alpha`` raises ValueError (an absent or None alpha
    passes).  Each comb is built on the period data that
    :func:`isoperiod.flow.sample_periods` gives for the sample.  Reports max
    drift of each base mark, the variation of the slit heights (expected to
    move unless the path is trivial), and the spread of the q/beta ratio.
    """
    alpha = getattr(trajectory, "alpha", None)
    if alpha is not None and np.any(np.abs(alpha) > 0):
        raise ValueError("comb invariance needs a flow with zero prescribed a-periods")

    def make_comb(s):
        pd = sample_periods(cfg, s, quad_tol)
        om = build_omega(pd.cfg, pd, tol=quad_tol)
        return comb_map(pd.cfg, pd, om, tol=quad_tol)

    combs = [make_comb(s) for s in trajectory.samples]
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
