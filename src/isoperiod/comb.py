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
segments cost no quadrature here; the partial integrals from a branch point,
up to a zero or to a trace point, use the same tanh-sinh kernel, with one
singular endpoint.  Every one evaluates Q in product form over its zeros, from
the exact node differences: the monomial form cancels near xi_j, where
narrow gaps put the slit heights' whole integrand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .curves import BranchConfig, validate_config
from .errors import OrderingViolation, RootLocalizationFailed
from .flow import sample_periods
from .periods import (OmegaDifferential, PeriodData, SegmentTable, beta_from_evaluations,
                      build_omega, horner, require_positive, tanh_sinh)

UNORDERED = "comb construction requires 0 < u_1 < x_1 < ... < x_g"


@dataclass
class CombRegion:
    """Base marks and slit heights of a comb region, with diagnostics."""

    q: np.ndarray
    h: np.ndarray
    zeros: np.ndarray
    base_residual: float          # max |Im Theta(u_j)|, zero up to quadrature error
    beta_ratio: np.ndarray        # q_j / b-period_j, constant across j and configs
    diagnostics: dict = field(default_factory=dict)


def _polished_roots(poly: np.ndarray):
    """Roots of the monic polynomials ``poly`` (ascending, a row per curve): the
    eigenvalues of ``np.roots``'s companion matrices in one batched call, after at
    most 8 Newton steps, each curve frozen once a step is at most 2^-40 of its
    largest root (at its rounding floor; a frozen curve takes no more steps, so
    each gets its bits alone); and per curve, None or the RootLocalizationFailed
    of a stalled polish."""
    n, g = poly.shape[0], poly.shape[1] - 1
    companion = np.zeros((n, g, g), dtype=poly.dtype)
    companion[:, np.arange(1, g), np.arange(g - 1)] = 1.0     # the subdiagonal
    companion[:, 0] = -poly[:, -2::-1] / poly[:, -1:]
    roots = np.linalg.eigvals(companion)
    dpoly = np.arange(1, g + 1) * poly[:, 1:]
    live = np.arange(n)
    for _ in range(8):
        r = roots[live]
        step = horner(poly[live], r) / horner(dpoly[live], r)
        roots[live] = r - step
        live = live[~(np.abs(step).max(axis=1) <= 2.0 ** -40 * np.abs(r).max(axis=1))]
        if not live.size:
            break
    resid = np.abs(horner(poly, roots)).max(axis=1)
    stalled = resid > 1e-12 * np.maximum(1.0, np.abs(roots).max(axis=1) ** g)
    return roots, [RootLocalizationFailed(f"root polishing stalled at residual {r:.2e}")
                   if bad else None for r, bad in zip(resid, stalled)]


def _one_per_gap(cfg: BranchConfig, roots: np.ndarray) -> np.ndarray:
    """The roots in ascending real order, checked to be one real root inside
    each gap (u_j, x_j) of the ordered real configuration ``cfg``."""
    roots = roots[np.argsort(roots.real)]
    for j, r in enumerate(roots):
        uj, xj = cfg.u[j].real, cfg.x[j].real
        if not (abs(r.imag) < 1e-9 and uj < r.real < xj):
            raise RootLocalizationFailed(
                f"expected one real zero in gap ({uj}, {xj}), found {r}")
    return roots


def comb_map(cfg: BranchConfig, pd: PeriodData, om: OmegaDifferential,
             tol: float = 1e-10) -> CombRegion:
    """Base marks q_j, slit heights h_j, and the q/beta ratio vector.

    ``cfg`` must be ordered (else OrderingViolation), then ``om`` of zero
    a-periods (else ValueError).  The full segments are the segment table of
    ``pd`` (to ``pd.tol``) times the polynomial; only the g partial integrals up
    to the zeros are new quadratures (to ``tol``, which must be finite and
    positive).  It is the stack of one of the comb that
    :func:`comb_invariance_check` builds.
    """
    require_positive(tol=tol)
    if validate_config(cfg, ordered=True):
        raise OrderingViolation(UNORDERED)
    if np.any(np.abs(om.alpha) > 0):
        raise ValueError("comb construction uses the zero-a-period differential")
    return _combs([(cfg, pd, om)], tol)[0]


def _partials(q, zeros, first, hi, tol: float) -> np.ndarray:
    """int Q dt / |mu| from q[i, first[k]] to hi[i, k], for the curves i of sorted
    points q and zeros of Q (rows), as one kernel call.  Q is the product over its
    zeros, t - xi_j = (t - u_j) - (xi_j - u_j) from the exact node differences."""
    gaps, m = np.arange(1, q.shape[1] - 1, 2), hi.shape[1]
    offsets = (zeros - q[:, gaps]).repeat(m, axis=0)[:, None]
    return tanh_sinh(q[:, first].ravel(), hi.ravel(), q.repeat(m, axis=0), tol,
                     lambda t, D, sel: np.prod(D[..., gaps] - offsets[sel], axis=-1)[..., None],
                     diffs=True)[0].reshape(-1, m)


def _combs(curves, tol: float) -> list:
    """:func:`comb_map` of each (cfg, pd, om) of ``curves`` (one genus, tables to one
    tolerance, cfg ordered, om of zero a-periods) as one stack, bit for bit what a
    call per curve gives: one batched root solve, one fill of the segment tables and
    one kernel call for the partial integrals of all gaps.  The first curve in order
    whose zeros stall or leave their gaps raises."""
    polys = np.array([om.poly for *_, om in curves])
    roots, stalled = _polished_roots(polys)
    zeros = []
    for (cfg, _, _), r, err in zip(curves, roots, stalled):
        if err is not None:
            raise err
        zeros.append(np.sort(_one_per_gap(cfg, r).real))   # cfg is ordered, om built on it
    tables = [pd.table for _, pd, _ in curves]
    SegmentTable.fill(tables)
    gaps = np.arange(1, 2 * curves[0][0].genus, 2)
    q, zeros = np.array([t.q for t in tables]), np.array(zeros)
    part = _partials(q, zeros, gaps, zeros, tol)
    out = []
    for (_, pd, _), table, poly, xi, p in zip(curves, tables, polys, zeros, part):
        poly = poly.real if np.max(np.abs(poly.imag)) < 1e-9 else poly
        seg_vals = table.values @ poly          # phase included
        th_u = 0.5 * np.cumsum(seg_vals)[::2]         # Theta at u_j = sorted point 2j-1
        # Theta(u_j) is real (the a-periods of Q vanish); its imaginary part is
        # rounding, reported as the base residual, and left out of h
        out.append(CombRegion(q=th_u.real, h=(0.5 * p / table.phase[gaps]).imag, zeros=xi,
                              base_residual=float(np.max(np.abs(th_u.imag))),
                              beta_ratio=th_u.real / beta_from_evaluations(pd, None),
                              diagnostics={"segment_values": list(seg_vals * table.phase),
                                           "tol": tol}))
    return out


def boundary_trace(cfg: BranchConfig, pd: PeriodData, om: OmegaDifferential,
                   n_per_segment: int = 64, tol: float = 1e-9) -> np.ndarray:
    """Sample (lambda, Theta(lambda)) along the real axis for plotting.

    Interior sample points of each inter-branch-point segment, then its end;
    the map has square-root behaviour at the branch points.  :func:`comb_map`
    checks ``tol``, the ordering (its OrderingViolation) and alpha (nonzero
    raises ValueError) and finds the zeros; the partials are one kernel call.
    """
    if n_per_segment < 2:
        raise ValueError(f"n_per_segment must be at least 2, not {n_per_segment!r}")
    region = comb_map(cfg, pd, om, tol)
    pts, phase = pd.table.q, pd.table.phase
    frac = np.linspace(0.0, 1.0, n_per_segment, endpoint=False)[1:]
    targets = pts[:-1, None] + np.diff(pts)[:, None] * frac
    part = _partials(pts[None], region.zeros[None], np.arange(len(phase)).repeat(frac.size),
                     targets.reshape(1, -1), tol).reshape(targets.shape)
    # Theta at the points: the segment values (their phase, a power of i, divided out) summed from 0
    base = np.cumsum(np.append(0j, 0.5 * np.divide(region.diagnostics["segment_values"], phase)))
    theta = np.hstack((base[:-1, None] + 0.5 * part / phase[:, None], base[1:, None]))
    return np.stack((np.hstack((targets, pts[1:, None])).ravel(), theta.ravel()), axis=1)


def comb_invariance_check(cfg: BranchConfig, trajectory, tol: float = 1e-6,
                          quad_tol: float = 1e-11) -> dict:
    """Build the comb at every trajectory sample; the base must not move.

    The trajectory must come from a real flow with zero prescribed a-periods:
    a nonzero ``trajectory.alpha`` raises ValueError (an absent or None alpha
    passes), and so does a ``tol`` or ``quad_tol`` that is not finite and
    positive, before any quadrature.  After every sample's ordering is checked,
    the combs are stacked on the period data of :func:`isoperiod.flow.sample_periods`,
    ``CHECK_BLOCK`` samples at a time; the first failing sample raises (a quadrature
    failure may raise before an earlier root check in its block).  Reports max
    drift of each base mark, the variation of the slit heights (expected to
    move unless the path is trivial), and the spread of the q/beta ratio.
    """
    require_positive(tol=tol, quad_tol=quad_tol)
    alpha = getattr(trajectory, "alpha", None)
    if alpha is not None and np.any(np.abs(alpha) > 0):
        raise ValueError("comb invariance needs a flow with zero prescribed a-periods")
    samples, combs = list(trajectory.samples), []
    n = next((i for i, s in enumerate(samples)     # the first sample out of order
              if validate_config(cfg.replace(x=s.x, u=s.u), ordered=True)), len(samples))
    for run in sample_periods(cfg, samples[:n], quad_tol):     # their checks raise before its own
        combs += _combs([(pd.cfg, pd, build_omega(pd.cfg, pd)) for pd in run], quad_tol)
    if n < len(samples):
        raise OrderingViolation(UNORDERED)
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
