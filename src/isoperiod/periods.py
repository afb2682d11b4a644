"""Cycle integrals, normalized differentials, the Riemann matrix, and the
second-kind differential with a double pole at infinity.

All differentials handled here have the shape

    eta = (polynomial(lambda) + sum_p  c_p / (lambda - s_p)) * d(lambda) / mu,

which covers the holomorphic basis lambda^k * phi, the normalized basis
omega_j, the second-kind differential, and the bidifferential with one
argument frozen at a ramification point.

Two quadratures compute the periods, and the input picks one:

* Segment quadrature, for real configurations, whose cycles must be
  contiguous runs of the sorted branch points (those of every default
  marking are).  Each period is a signed sum of the integrals between
  consecutive branch points, computed by double-exponential (tanh-sinh)
  quadrature that absorbs the inverse square roots at both endpoints into
  its weights (``tanh_sinh``, which integrates any rows of smooth
  integrands).  The monomial integrals are kept in one ``SegmentTable`` per
  curve; the pole differentials of ``w_constants`` are first reduced by an
  exact form to polynomial differentials evaluated in product form.
* Lifted circles with spectrally convergent trapezoidal quadrature and
  adaptive node doubling (``integrate_contour``), for complex
  configurations only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import cycles as _cycles
from .curves import (BranchConfig, effective_points, phi_values, require_valid,
                     v_polynomial)
from .cycles import CanonicalBasis, CycleSpec, EllipseContour
from .errors import DegenerateConfig, NoConvergence, SingularPeriodMatrix

_MAX_NODES = 1 << 17
_MIN_NODES = 64          # first node count of a contour quadrature
# tanh-sinh nodes tau = j h, |tau| <= _TAU_MAX; the weights beyond the cut are
# below 1e-29 and the endpoint distances below 1e-61 of the half-width
_TAU_MAX = 4.5
_H0 = 0.25


@dataclass(frozen=True)
class DifferentialOverMu:
    """Coefficient description of (poly(lambda) + sum c/(lambda-s)) * dlambda / mu."""

    poly: tuple = ()          # ascending coefficients
    poles: tuple = ()         # ((s, c), ...) simple poles of the rational prefactor

    def rational_part(self, lam: np.ndarray) -> np.ndarray:
        out = np.zeros_like(lam, dtype=complex)
        if self.poly:
            out = out + np.polyval(np.asarray(self.poly)[::-1], lam)
        for s, c in self.poles:
            out = out + c / (lam - s)
        return out


def horner(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The polynomials with ascending coefficients along the last axis of c
    (one row, or a table of rows) at the points x, by Horner's rule over whole
    arrays: the arithmetic of ``np.polyval`` on each row, without its per-call
    argument handling."""
    y = c[..., -1, None] + x * 0
    for k in range(c.shape[-1] - 2, -1, -1):
        y = c[..., k, None] + y * x
    return y


def monomial(k: int) -> DifferentialOverMu:
    """lambda^k * dlambda / mu."""
    return DifferentialOverMu(poly=(0.0,) * k + (1.0,))


def integrate_contour(contour: EllipseContour, diffs, tol: float = 1e-10):
    """Integrate one or more differentials over a lifted contour.

    Doubles the node count until two successive trapezoidal values agree
    within ``tol`` (relative to max(1, magnitude)).  Returns (values, nodes,
    error_estimate).
    """
    single = isinstance(diffs, DifferentialOverMu)
    dlist = [diffs] if single else list(diffs)
    # make sure branch tracking resolves the closest approach to branch points
    ratio = (contour.semi_major + contour.semi_minor) / max(contour.min_clearance(), 1e-300)
    n = max(_MIN_NODES, 8 * int(ratio))
    n = 1 << int(math.ceil(math.log2(n)))
    prev = None
    while n <= _MAX_NODES:
        lam, w, mu = contour.nodes(n)
        vals = np.array([np.sum(d.rational_part(lam) * w / mu) for d in dlist])
        if prev is not None:
            err = float(np.max(np.abs(vals - prev)))
            if err <= tol * max(1.0, float(np.max(np.abs(vals)))):
                return (vals[0] if single else vals), n, err
        prev = vals
        n *= 2
    raise NoConvergence(f"contour quadrature did not converge within {_MAX_NODES} nodes")


@functools.cache
def _tanh_sinh_nodes(first: int, stop: int):
    """The nodes first used at refinement levels first..stop-1, in one table.

    Level l has step h_l = _H0 / 2^l and the nodes tau = j h_l, |tau| <=
    _TAU_MAX, with j odd from level 1 on, so every earlier node is reused.
    Returns (bounds, weights h_l (pi/2) cosh tau / cosh psi with psi = (pi/2)
    sinh tau, distances 1 + tanh psi and 1 - tanh psi of x = tanh psi to the
    ends of [-1, 1], and x); level first + i has the columns bounds[i]:bounds[i + 1].
    The weights and distances are formed from exp(-2 |psi|), with no
    overflow and no cancellation; h_l is a power of two, so the weights carry
    it exactly.
    """
    tau, step = [], []
    for level in range(first, stop):
        h = _H0 / (1 << level)
        m = int(_TAU_MAX / h)
        j = np.arange(-m, m + 1)
        if level:
            j = j[j % 2 == 1]
        tau.append(j * h)
        step.append(np.full(len(j), h))
    bounds = np.cumsum([0] + [len(t) for t in tau]).tolist()
    tau, step = np.concatenate(tau), np.concatenate(step)
    psi = 0.5 * math.pi * np.sinh(tau)
    e = np.exp(-2.0 * np.abs(psi))
    near, far = 2.0 * e / (1.0 + e), 2.0 / (1.0 + e)
    lower = tau < 0
    out = (step * (math.pi * np.cosh(tau) * np.sqrt(e) / (1.0 + e)),
           np.where(lower, near, far), np.where(lower, far, near), np.tanh(psi))
    for a in out:
        a.flags.writeable = False
    return (bounds,) + out


def power_rows(n: int):
    """The ``tanh_sinh`` row function of the monomials t^0..t^(n-1)."""
    powers = np.arange(n)
    return lambda t, D: t[..., None] ** powers


def tanh_sinh(lo, hi, q, tol: float, rows, diffs: bool = False):
    """Integrals of integrand rows over 1/|mu| on intervals of the real axis.

    ``rows(t, D)`` returns the integrand rows f_k at the nodes t (shape
    (intervals, nodes)) as an array of shape (intervals, nodes, K); D is
    None, or with ``diffs`` the exact node differences D[..., i] = t - q_i.
    Returns (values, nodes, err): ``values[r, k]`` = int f_k(t) dt /
    sqrt(prod_i |t - q_i|) over [lo_r, hi_r], the node count and the error
    estimate of each interval.  No branch point q_i may lie inside an
    interval; an endpoint may be a branch point or not.

    Tanh-sinh quadrature, t = (lo + hi)/2 + (hi - lo)/2 tanh((pi/2) sinh tau).
    The distances d_lo = t - lo and d_hi = hi - t are carried separately, so
    |t - q_i| = (lo - q_i) + d_lo below the interval and (q_i - hi) + d_hi
    above it never cancels; sqrt(d_lo d_hi) folds into the weight.  The step
    is halved (reusing every node) until two successive values of an
    interval agree within ``tol`` relative to max(1, magnitude), as in
    :func:`integrate_contour`; beyond ``_MAX_NODES`` nodes it raises
    NoConvergence.  The nodes of the first two levels are evaluated in one
    array pass over every interval, and the nested estimates formed from
    their per-level sums; each further level is one pass over the intervals
    not yet converged.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    below = q <= lo[:, None]
    gap = np.where(below, lo[:, None] - q, q - hi[:, None])
    half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)

    def level_sums(sel, first, stop):
        """The step-weighted node sums of levels first..stop-1 on the
        intervals ``sel``, one (intervals, K) array per level."""
        bounds, w, e_lo, e_hi, x = _tanh_sinh_nodes(first, stop)
        c = half[sel, None]
        d_lo, d_hi = c * e_lo, c * e_hi
        # |t - q_i| over (interval, point, node), nodes innermost
        dist = np.where(below[sel, :, None], d_lo[:, None], d_hi[:, None])
        dist += gap[sel, :, None]
        f = w * np.sqrt(d_lo * d_hi / dist.prod(axis=1))
        D = np.moveaxis(np.where(below[sel, :, None], dist, -dist), 1, -1) if diffs else None
        F = rows(mid[sel, None] + c * x, D)
        return [np.einsum("rn,rnk->rk", f[:, a:b], F[:, a:b]) for a, b in zip(bounds, bounds[1:])]

    # levels 0 and 1 (73 nodes, where most intervals converge) in one pass
    # over every interval, then one level per pass over the intervals ``live``
    # not yet accepted.  Level 2 is left out of the first pass: it would double
    # the row evaluations of every interval that converges at level 1, and the
    # reduced-pole rows of w_constants at genus 4 would cost 2.5 times as much
    live = np.arange(len(lo))
    values, step = level_sums(slice(None), 0, 2)
    nodes = np.zeros(len(lo), dtype=int)
    err = np.zeros(len(lo))
    n, level = len(_tanh_sinh_nodes(0, 2)[1]), 1
    while True:
        new = 0.5 * values[live] + step
        delta = np.abs(new - values[live]).max(axis=1)
        done = delta <= tol * np.maximum(1.0, np.abs(new).max(axis=1))
        values[live] = new
        nodes[live[done]] = n
        err[live[done]] = delta[done]
        live = live[~done]
        if not live.size:
            break
        level += 1
        n = 2 * n - 1
        if n > _MAX_NODES:
            raise NoConvergence(f"segment quadrature did not converge within {_MAX_NODES} nodes")
        step = level_sums(live, level, level + 1)[0]
    return values, nodes, err


def _reduced_poles(q: np.ndarray):
    """The ``tanh_sinh`` rows (with ``diffs``) of the reduced pole polynomials
    N_k of ``w_constants``, one for each point q_k.

    Over the points p_0 < p_1 < ... other than q_k, P_k' = sum_i prod_{j<i} (t - p_j)
    prod_{j>i} (t - p_j) and the divided difference of P_k telescopes to
    sum_i prod_{j<i} (q_k - p_j) prod_{j>i} (t - p_j), so N_k is the sum over
    i >= 1 of (prod_{j<i} (t - p_j) - prod_{j<i} (q_k - p_j)) prod_{j>i} (t - p_j):
    products of exact node differences, with no monomial expansion.
    """
    n = len(q)
    i = np.arange(n - 1)[:, None]
    others = i + (i >= np.arange(n))                   # others[i, k]: the i-th point other than q_k
    lead = np.cumprod(q - q[others[:-1]], axis=0)      # prod_{j<i} (q_k - p_j), i = 1..n-2

    def rows(t, D):
        d = np.moveaxis(D, -1, 0)[others]              # d[i, k] = t - p_i, p the others of q_k
        pre = np.cumprod(d[:-1], axis=0)               # prod_{j<i} (t - p_j), i = 1..n-2
        post = np.cumprod(d[:1:-1], axis=0)[::-1]      # prod_{j>i} (t - p_j), i = 1..n-3
        terms = pre - lead[..., None, None]
        terms[:-1] *= post
        return np.moveaxis(terms.sum(axis=0), 0, -1)

    return rows


class SegmentTable:
    """Monomial integrals between consecutive branch points of a real curve.

    Row s holds S[s, k] = int_{q_s}^{q_{s+1}} t^k dt / mu_+(t) over the sorted
    points q_0 < ... < q_2g, where mu_+ = |mu| i^(2g - s) is mu on the upper
    edge of the real axis continued from the principal branch on (q_2g, inf).
    A cycle around the contiguous run of ranks r..r+2m-1 has the period
    -2 orientation sum_{i<m} S[r + 2i, k].  Rows are integrated on first
    request, to ``tol``, and kept.
    """

    def __init__(self, points: np.ndarray, tol: float):
        """The empty table of the real points ``points`` (package order);
        ``order`` sorts them and ``rank`` is its inverse."""
        n = len(points) - 1
        self.order = np.argsort(points)
        self.q, self.rank, self.tol = points[self.order], np.argsort(self.order), tol
        self.phase = np.array([1j ** (n - s) for s in range(n)])
        self.values = np.zeros((n, n // 2 + 1), dtype=complex)
        self.nodes = np.zeros(n, dtype=int)
        self.err = np.zeros(n)

    @classmethod
    def of(cls, points, tol: float) -> "SegmentTable | None":
        """The table of a point set snapped as :func:`effective_points`
        returns it; None for a complex one."""
        return None if (points.imag != 0.0).any() else cls(points.real, tol)

    def cycle(self, spec: CycleSpec):
        """(slice of the first segments, factor) of a cycle's period.  A real
        cycle must encircle a contiguous run of the sorted points; any other
        raises DegenerateConfig."""
        ranks = sorted(int(self.rank[i]) for i in spec.encircled)
        if ranks[-1] - ranks[0] != len(ranks) - 1:
            raise DegenerateConfig("encircled set is not contiguous on the real axis")
        return slice(ranks[0], ranks[-1], 2), -2.0 * spec.orientation

    def _segments(self, specs):
        """The cycles of ``specs`` and the sorted segments they need."""
        cyc = [self.cycle(s) for s in specs]
        need = np.zeros(len(self.nodes), dtype=bool)
        for sl, _ in cyc:
            need[sl] = True
        return cyc, need

    def rows(self, segs) -> np.ndarray:
        """S[segs], integrating the rows not yet known in one kernel call;
        ``segs`` indexes the rows, or is a boolean mask over them."""
        todo = np.zeros(len(self.nodes), dtype=bool)
        todo[segs] = True
        todo = np.flatnonzero(todo & (self.nodes == 0))
        if todo.size:
            vals, self.nodes[todo], self.err[todo] = tanh_sinh(
                self.q[todo], self.q[todo + 1], self.q, self.tol, power_rows(self.values.shape[1]))
            self.values[todo] = vals / self.phase[todo, None]
        return self.values[segs]

    def periods(self, specs):
        """Monomial periods of each cycle (rows) with its node count and error estimate."""
        cyc, need = self._segments(specs)
        self.rows(need)
        vals = np.array([f * self.values[sl].sum(axis=0) for sl, f in cyc])
        nodes = [int(self.nodes[sl].sum()) for sl, _ in cyc]
        err = [2.0 * float(self.err[sl].sum()) for sl, _ in cyc]
        return vals, nodes, err

    def integrate(self, specs, rows, tol: float) -> np.ndarray:
        """The periods of the integrand rows ``rows`` (a ``tanh_sinh`` row
        function that reads the node differences), one row per cycle, from one
        kernel call over the cycles' segments to ``tol``; nothing is kept."""
        cyc, need = self._segments(specs)
        segs = np.flatnonzero(need)
        part = tanh_sinh(self.q[segs], self.q[segs + 1], self.q, tol, rows, diffs=True)[0]
        vals = np.zeros((len(need), part.shape[1]), dtype=complex)
        vals[segs] = part / self.phase[segs, None]
        return np.array([f * vals[sl].sum(axis=0) for sl, f in cyc])


def _contour_periods(contours, n_monomials: int, tol: float):
    """Monomial periods over realized contours, with node counts and error estimates."""
    mons = [monomial(k) for k in range(n_monomials)]
    out = [integrate_contour(c, mons, tol) for c in contours]
    return (np.array([v for v, _, _ in out]), [n for _, n, _ in out],
            [e for _, _, e in out])


@dataclass
class PeriodData:
    """Raw and normalized period data of a marked curve.

    ``A_raw[j, k]`` holds the a_j-period of lambda^(k-1) * phi; ``C[j, k]``
    the coefficients of omega_j = sum_k C[j, k] lambda^(k-1) phi; ``B`` the
    Riemann matrix.  ``omega_at[j, q]`` evaluates omega_j at ramification
    point q (columns follow the package point indexing; the final column is
    the point at infinity).  ``segments`` is the segment table of a real
    configuration; on a complex one it is None and ``contours_a`` holds the
    realized a-contours.  ``B``, the b-contours
    ``contours_b`` and the dual-basis tables ``v_coeffs`` and ``v_poly_at``
    are built on first read, so a caller that never reads them does not pay
    for them; on the segment path the b-cycles' segments are integrated on
    the first read of ``B``, an ``OmegaDifferential.beta`` or the comb map,
    and shared by all of them.
    """

    cfg: BranchConfig
    basis: CanonicalBasis
    A_raw: np.ndarray
    A_ext: np.ndarray
    C: np.ndarray
    omega_at: np.ndarray
    phi_at: np.ndarray
    tol: float
    quad_report: dict
    segments: SegmentTable | None = field(repr=False, default=None)
    contours_a: list | None = field(repr=False, default=None)

    @property
    def genus(self) -> int:
        return self.cfg.genus

    @cached_property
    def contours_b(self) -> list:
        """The realized b-contours of a complex configuration, shared by ``B`` and every
        ``OmegaDifferential.beta``."""
        return [_cycles.realize(s, self.cfg.points) for s in self.basis.b]

    @cached_property
    def B(self) -> np.ndarray:
        """Riemann matrix B_raw A_raw^-1, B_raw[j, k] the b_j-period of lambda^(k-1) * phi."""
        g = self.genus
        if self.segments is not None:
            B_ext, nodes, err = self.segments.periods(self.basis.b)
            B_raw = B_ext[:, :g]
        else:
            B_raw, nodes, err = _contour_periods(self.contours_b, g, self.tol)
        self.quad_report["b_nodes"].extend(nodes)
        self.quad_report["b_err"].extend(err)
        return B_raw @ np.linalg.inv(self.A_raw)

    def in_marking(self, basis: CanonicalBasis) -> "PeriodData":
        """The period data of the same curve, to the same tolerance, in the
        marking ``basis``: what :func:`normalized_basis` returns for it, but
        assembled on this object's segment table, so a segment either marking
        needs is integrated once and kept for both."""
        return _assemble(self.cfg, basis, self.tol, self.segments, self.phi_at)

    @cached_property
    def v_coeffs(self) -> np.ndarray:
        """Row m-1: ascending coefficients of the polynomial part of v_m over phi."""
        return np.array([v_polynomial(self.cfg, m, self.phi_at) for m in range(1, self.genus + 1)])

    @cached_property
    def v_poly_at(self) -> np.ndarray:
        """v_m(P_q) = v_poly_at[m-1, q] * phi_at[q] at every finite point q."""
        return horner(self.v_coeffs, self.cfg.points)


def normalized_basis(cfg: BranchConfig, basis: CanonicalBasis | None = None,
                     tol: float = 1e-10) -> PeriodData:
    """Normalize the holomorphic differentials and assemble period data.

    Solves sum_k C[j, k] * A_raw[., k] = identity so that the a-periods of
    omega_j are delta_jk and tabulates evaluations at all ramification
    points.  Only the a-cycles are integrated here (on the segment table of
    a real configuration, whose a- and b-cycles are all checked first, or on
    lifted circles of a complex one); the Riemann matrix ``B`` is integrated
    over the b-cycles on first read.  The configuration is validated, its
    points snapped and sorted once, and the default marking taken from that
    order; :meth:`PeriodData.in_marking` assembles another marking of the
    same curve on the same table.
    """
    require_valid(cfg)
    points = effective_points(cfg.points)
    segments = SegmentTable.of(points, tol)
    if basis is None:
        basis = (_cycles.gap_basis(points) if segments is None
                 else _cycles.gap_marking(tuple(segments.order.tolist())))
    return _assemble(cfg, basis, tol, segments, phi_values(points))


def _assemble(cfg: BranchConfig, basis: CanonicalBasis, tol: float,
              segments: SegmentTable | None, phis: np.ndarray) -> PeriodData:
    """The period data of ``cfg`` in the marking ``basis``: its a-periods on
    ``segments`` (a real configuration's table, on which the b-cycles are
    checked too) or on lifted circles, C, and omega at the ramification
    points, from the phi table ``phis``."""
    g = cfg.genus
    report = {"tol": tol, "b_nodes": [], "b_err": []}
    if segments is not None:
        for s in basis.b:               # reject a bad marking now, not on the first read of B
            segments.cycle(s)
        A_ext, report["a_nodes"], report["a_err"] = segments.periods(basis.a)
        ca = None
    else:
        ca = [_cycles.realize(s, cfg.points) for s in basis.a]
        A_ext, report["a_nodes"], report["a_err"] = _contour_periods(ca, g + 1, tol)
    A_raw = A_ext[:, :g]
    # the 1-norm condition number from the inverse: one LU factorization
    try:
        A_inv = np.linalg.inv(A_raw) if np.isfinite(A_raw).all() else None
    except np.linalg.LinAlgError:
        A_inv = None
    cond = math.inf if A_inv is None else float(
        np.abs(A_raw).sum(axis=0).max() * np.abs(A_inv).sum(axis=0).max())
    if not cond <= 1e12:
        raise SingularPeriodMatrix(f"a-period matrix condition {cond:.2e}")
    C = A_inv.T
    report["cond_A"] = cond

    # at infinity lambda^(g-1) phi -> -2 d(zeta) on the principal sheet
    omega_at = np.concatenate((horner(C, cfg.points) * phis, -2.0 * C[:, g - 1, None]), axis=1)
    return PeriodData(cfg=cfg, basis=basis, A_raw=A_raw, A_ext=A_ext, C=C,
                      omega_at=omega_at, phi_at=phis, tol=tol, quad_report=report,
                      segments=segments, contours_a=ca)


@dataclass
class OmegaDifferential:
    """Second-kind differential with a double pole at infinity.

    Represented as -(lambda^g + c_{g-1} lambda^{g-1} + ... + c_0) * phi / 2
    plus the combination alpha . omega fixing the prescribed a-periods; the
    sign makes the local expansion (zeta^-2 + O(1)) d(zeta) at infinity on
    the principal sheet.
    """

    cfg: BranchConfig
    alpha: np.ndarray
    c: np.ndarray                 # ascending coefficients c_0..c_{g-1}
    values_at: np.ndarray         # evaluations at finite ramification points
    pd: PeriodData = field(repr=False, compare=False)
    tol: float                    # quadrature tolerance of beta

    @property
    def poly(self) -> np.ndarray:
        """Ascending coefficients of the full degree-g polynomial (monic)."""
        return np.concatenate((self.c, [1.0 + 0.0j]))

    def differential(self, pd: PeriodData) -> DifferentialOverMu:
        coeffs = (-0.5 * self.poly).astype(complex)
        if np.any(self.alpha != 0):
            coeffs[: len(self.c)] += self.alpha @ pd.C
        return DifferentialOverMu(poly=tuple(coeffs))

    @cached_property
    def beta(self) -> np.ndarray:
        """b-periods, computed on first read: the monomial b-periods of ``pd``'s
        segment table times the coefficients (to ``pd.tol``), or quadrature to
        ``tol`` over the b-contours of ``pd`` on a complex configuration."""
        diff = self.differential(self.pd)
        if self.pd.segments is not None:
            return self.pd.segments.periods(self.pd.basis.b)[0] @ np.asarray(diff.poly)
        return np.array([integrate_contour(contour, diff, self.tol)[0]
                         for contour in self.pd.contours_b])

    @cached_property
    def beta_residual(self) -> float:
        """|beta - (2 pi i omega(inf) + alpha B)|; B is read only when alpha != 0."""
        return float(np.max(np.abs(self.beta - beta_from_evaluations(self.pd, self.alpha))))


def build_omega(cfg: BranchConfig, pd: PeriodData, alpha=None,
                tol: float = 1e-10) -> OmegaDifferential:
    """Construct the second-kind differential with prescribed a-periods.

    The polynomial coefficients solve the g x g linear system that kills the
    a-periods of -(lambda^g + ...) phi / 2; adding alpha . omega then sets
    a-period j to alpha_j.  The b-periods ``beta`` (quadrature to ``tol``) and
    ``beta_residual``, their distance to 2 pi i omega(infinity) + alpha B, are
    computed on first read.
    """
    g = cfg.genus
    alpha = np.zeros(g, dtype=complex) if alpha is None else np.asarray(alpha, dtype=complex)
    try:
        c = np.linalg.solve(pd.A_raw, -pd.A_ext[:, g])
    except np.linalg.LinAlgError as exc:
        raise SingularPeriodMatrix(str(exc)) from exc

    poly_full = np.concatenate((c, [1.0 + 0.0j]))
    lam = cfg.points
    base_vals = -0.5 * horner(poly_full, lam) * pd.phi_at
    values = base_vals + alpha @ pd.omega_at[:, :-1]
    return OmegaDifferential(cfg=cfg, alpha=alpha, c=c, values_at=values, pd=pd, tol=tol)


def beta_from_evaluations(pd: PeriodData, alpha=None) -> np.ndarray:
    """b-periods via 2 pi i omega(infinity) + alpha B (no extra quadrature)."""
    base = 2j * math.pi * pd.omega_at[:, -1]
    if alpha is None or not np.any(np.asarray(alpha) != 0):
        return base
    return base + np.asarray(alpha, dtype=complex) @ pd.B


def w_constants(cfg: BranchConfig, pd: PeriodData, tol: float = 1e-10) -> np.ndarray:
    """Normalization constants I of the bidifferential W in the dual-basis expansion.

    W(P, P_k) = phi(P) / (phi(P_k) (lambda(P) - lambda_k)) + sum_i I[k, i] v_i(P),
    with row k fixed by the vanishing a-periods of W(., P_k), and one linear
    solve for all 2g+1 rows.

    The pole differential dlambda / ((lambda - lambda_k) mu) is not
    integrable at a segment endpoint, so on the segment path it is reduced by
    an exact form: with P_k = prod_{j != k} (lambda - lambda_j),

        P_k(lambda_k) dlambda / ((lambda - lambda_k) mu)
            = N_k dlambda / mu - 2 d(mu / (lambda - lambda_k)),
        N_k = P_k' - (P_k - P_k(lambda_k)) / (lambda - lambda_k),

    and since phi_k = 2 / sqrt(P_k(lambda_k)), the a-period of the k-th pole
    differential phi / (phi_k (lambda - lambda_k)) is (phi_k / 4) times the
    a-period of the polynomial differential N_k dlambda / mu.  The 2g+1
    polynomials N_k are evaluated at the nodes in product form
    (``_reduced_poles``) and share one kernel call.  On a complex
    configuration the pole differentials themselves share one quadrature per
    a-contour.
    """
    if pd.segments is not None:
        table = pd.segments
        N = table.integrate(pd.basis.a, _reduced_poles(table.q), tol)
        w = N[:, table.rank] * (0.25 * pd.phi_at)
    else:
        poles = [DifferentialOverMu(poles=((lam, 1.0 / phi),))
                 for lam, phi in zip(cfg.points, pd.phi_at)]
        w = np.array([integrate_contour(contour, poles, tol)[0] for contour in pd.contours_a])
    V = pd.A_raw @ pd.v_coeffs.T            # a-periods of v_i, columns i
    return np.linalg.solve(V, -w).T


def w_value(cfg: BranchConfig, pd: PeriodData, I: np.ndarray) -> np.ndarray:
    """The table W[a, b] = W(P_a, P_b) over the finite points, with I = w_constants(cfg, pd).

    W[a, b] = phi_a / (phi_b (lambda_a - lambda_b)) + sum_i I[b, i] v_i(P_a); the
    diagonal is a double pole and holds NaN.
    """
    lam, phi = cfg.points, pd.phi_at
    E = np.eye(len(lam), dtype=bool)
    W = phi[:, None] / (phi * np.where(E, 1.0, lam[:, None] - lam)) + (pd.v_poly_at * phi).T @ I.T
    W[E] = np.nan
    return W


def wavevector_U(cfg: BranchConfig, pd: PeriodData) -> np.ndarray:
    """The vector omega(P_infinity) governing spatial quasi-periodicity.

    Equals the b-period vector of the zero-a-period second-kind differential
    divided by 2 pi i.
    """
    return pd.omega_at[:, -1].copy()
