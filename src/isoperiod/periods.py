"""Cycle integrals, normalized differentials, the Riemann matrix, and the
second-kind differential with a double pole at infinity.

All differentials handled here have the shape

    eta = (polynomial(lambda) + sum_p  c_p / (lambda - s_p)) * d(lambda) / mu,

which covers the holomorphic basis lambda^k * phi, the normalized basis
omega_j, the second-kind differential, and the bidifferential with one
argument frozen at a ramification point.

Two quadratures compute the periods, and the input picks one:

* Segment quadrature, for real configurations whose cycles are contiguous
  runs of the sorted branch points given without center/radius hints (every
  default marking).  Each period of a polynomial differential is a signed
  sum of the integrals between consecutive branch points (``SegmentTable``),
  computed by double-exponential (tanh-sinh) quadrature that absorbs the
  inverse square roots at both endpoints into its weights (``tanh_sinh``).
* Lifted ellipses with spectrally convergent trapezoidal quadrature and
  adaptive node doubling (``integrate_contour``), for complex
  configurations, hinted or non-contiguous cycles, and the pole
  differentials of ``w_constants``, whose singularity at a branch point is
  not integrable at a segment endpoint.
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
from .errors import NoConvergence, SingularPeriodMatrix

_MAX_NODES = 1 << 17
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


def monomial(k: int) -> DifferentialOverMu:
    """lambda^k * dlambda / mu."""
    return DifferentialOverMu(poly=(0.0,) * k + (1.0,))


def integrate_contour(contour: EllipseContour, diffs, tol: float = 1e-10,
                      n_start: int = 64):
    """Integrate one or more differentials over a lifted contour.

    Doubles the node count until two successive trapezoidal values agree
    within ``tol`` (relative to max(1, magnitude)).  Returns (values, nodes,
    error_estimate).
    """
    single = isinstance(diffs, DifferentialOverMu)
    dlist = [diffs] if single else list(diffs)
    # make sure branch tracking resolves the closest approach to branch points
    ratio = (contour.semi_major + contour.semi_minor) / max(contour.min_clearance(), 1e-300)
    n = max(n_start, 8 * int(ratio))
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
def _tanh_sinh_level(level: int):
    """Nodes first used at refinement ``level`` (step _H0 / 2^level; odd
    multiples of the step from level 1 on, so every earlier node is reused).

    Returns (step, weights (pi/2) cosh tau / cosh psi with psi = (pi/2) sinh tau,
    distances 1 + tanh psi and 1 - tanh psi of x = tanh psi to the ends of
    [-1, 1], and x).  The weights and distances are formed from exp(-2 |psi|),
    with no overflow and no cancellation.
    """
    h = _H0 / (1 << level)
    m = int(_TAU_MAX / h)
    j = np.arange(-m, m + 1)
    if level:
        j = j[j % 2 == 1]
    tau = j * h
    psi = 0.5 * math.pi * np.sinh(tau)
    e = np.exp(-2.0 * np.abs(psi))
    near, far = 2.0 * e / (1.0 + e), 2.0 / (1.0 + e)
    lower = tau < 0
    out = (math.pi * np.cosh(tau) * np.sqrt(e) / (1.0 + e),
           np.where(lower, near, far), np.where(lower, far, near), np.tanh(psi))
    for a in out:
        a.flags.writeable = False
    return (h,) + out


def tanh_sinh(lo, hi, q, tol: float):
    """Monomial integrals of 1/|mu| over intervals of the real axis.

    Returns (values, nodes, err): ``values[r, k]`` = int t^k dt / sqrt(prod_i
    |t - q_i|) over [lo_r, hi_r] for k = 0..g (g = (len(q) - 1) // 2), the
    node count and the error estimate of each interval.  No branch point q_i
    may lie inside an interval; an endpoint may be a branch point or not.

    Tanh-sinh quadrature, t = (lo + hi)/2 + (hi - lo)/2 tanh((pi/2) sinh tau).
    The distances d_lo = t - lo and d_hi = hi - t are carried separately, so
    |t - q_i| = (lo - q_i) + d_lo below the interval and (q_i - hi) + d_hi
    above it never cancels; sqrt(d_lo d_hi) folds into the weight.  The step
    is halved (reusing every node) until two successive values of an
    interval agree within ``tol`` relative to max(1, magnitude), as in
    :func:`integrate_contour`; beyond ``_MAX_NODES`` nodes it raises
    NoConvergence.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    powers = np.arange((len(q) - 1) // 2 + 1)
    below = q <= lo[:, None]
    gap = np.where(below, lo[:, None] - q, q - hi[:, None])
    half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)

    def level_sum(rows, level):
        h, w, e_lo, e_hi, x = _tanh_sinh_level(level)
        c = half[rows, None]
        d_lo, d_hi = c * e_lo, c * e_hi
        t = mid[rows, None] + c * x             # read only by the smooth factors t^k
        dist = np.where(below[rows, None, :], d_lo[..., None], d_hi[..., None])
        dist += gap[rows, None, :]
        f = w * np.sqrt(d_lo * d_hi / dist.prod(axis=-1))
        return h * np.einsum("rn,rnk->rk", f, t[..., None] ** powers)

    rows = np.arange(len(lo))
    values = level_sum(rows, 0)
    nodes = np.zeros(len(lo), dtype=int)
    err = np.zeros(len(lo))
    n, level = len(_tanh_sinh_level(0)[1]), 0
    while rows.size:
        level += 1
        n = 2 * n - 1
        if n > _MAX_NODES:
            raise NoConvergence(f"segment quadrature did not converge within {_MAX_NODES} nodes")
        new = 0.5 * values[rows] + level_sum(rows, level)
        delta = np.abs(new - values[rows]).max(axis=1)
        done = delta <= tol * np.maximum(1.0, np.abs(new).max(axis=1))
        values[rows] = new
        nodes[rows[done]] = n
        err[rows[done]] = delta[done]
        rows = rows[~done]
    return values, nodes, err


class SegmentTable:
    """Monomial integrals between consecutive branch points of a real curve.

    Row s holds S[s, k] = int_{q_s}^{q_{s+1}} t^k dt / mu_+(t) over the sorted
    points q_0 < ... < q_2g, where mu_+ = |mu| i^(2g - s) is mu on the upper
    edge of the real axis continued from the principal branch on (q_2g, inf).
    A cycle around the contiguous run of ranks r..r+2m-1 has the period
    -2 orientation sum_{i<m} S[r + 2i, k].  Rows are integrated on first
    request, to ``tol``, and kept.
    """

    def __init__(self, q: np.ndarray, rank: np.ndarray, tol: float):
        n = len(q) - 1
        self.q, self.rank, self.tol = q, rank, tol
        self.phase = np.array([1j ** (n - s) for s in range(n)])
        self.values = np.zeros((n, n // 2 + 1), dtype=complex)
        self.nodes = np.zeros(n, dtype=int)
        self.err = np.zeros(n)

    @classmethod
    def of(cls, points, tol: float) -> "SegmentTable | None":
        """The table of a real point set; None for a complex one."""
        pts = effective_points(points)
        if np.any(pts.imag != 0.0):
            return None
        order = np.argsort(pts.real)
        return cls(pts.real[order], np.argsort(order), tol)

    def cycle(self, spec: CycleSpec):
        """(first segments, factor) of a cycle's period, or None for a cycle
        that needs an ellipse (center/radius hints, or not a contiguous run)."""
        if spec.center is not None or spec.radius is not None:
            return None
        ranks = sorted(int(self.rank[i]) for i in spec.encircled)
        if ranks[-1] - ranks[0] != len(ranks) - 1:
            return None
        return ranks[::2], -2.0 * spec.orientation

    def rows(self, segs) -> np.ndarray:
        """S[segs], integrating the rows not yet known in one kernel call."""
        segs = np.asarray(segs, dtype=int)
        todo = np.unique(segs[self.nodes[segs] == 0])
        if todo.size:
            vals, self.nodes[todo], self.err[todo] = tanh_sinh(
                self.q[todo], self.q[todo + 1], self.q, self.tol)
            self.values[todo] = vals / self.phase[todo, None]
        return self.values[segs]

    def periods(self, specs):
        """Monomial periods of each cycle (rows) with its node count and error estimate."""
        cyc = [self.cycle(s) for s in specs]
        self.rows([s for segs, _ in cyc for s in segs])
        vals = np.array([f * self.values[segs].sum(axis=0) for segs, f in cyc])
        nodes = [int(self.nodes[segs].sum()) for segs, _ in cyc]
        err = [2.0 * float(self.err[segs].sum()) for segs, _ in cyc]
        return vals, nodes, err


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
    the point at infinity).  ``segments`` is the segment table when it serves
    the whole marking (None on the ellipse path).  ``B``, the contours
    ``contours_a`` and ``contours_b`` and the dual-basis tables ``v_coeffs``
    and ``v_poly_at`` are built on first read, so a caller that never reads
    them does not pay for them; on the segment path the b-cycles' segments
    are integrated on the first read of ``B``, an ``OmegaDifferential.beta``
    or the comb map, and shared by all of them.
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

    @property
    def genus(self) -> int:
        return self.cfg.genus

    @cached_property
    def contours_a(self) -> list:
        """The realized a-contours (the pole differentials of ``w_constants``)."""
        return [_cycles.realize(s, self.cfg.points) for s in self.basis.a]

    @cached_property
    def contours_b(self) -> list:
        """The realized b-contours of the ellipse path, shared by ``B`` and every
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

    @cached_property
    def v_coeffs(self) -> np.ndarray:
        """Row m-1: ascending coefficients of the polynomial part of v_m over phi."""
        return np.array([v_polynomial(self.cfg, m, self.phi_at) for m in range(1, self.genus + 1)])

    @cached_property
    def v_poly_at(self) -> np.ndarray:
        """v_m(P_q) = v_poly_at[m-1, q] * phi_at[q] at every finite point q."""
        return np.array([np.polyval(poly[::-1], self.cfg.points) for poly in self.v_coeffs])


def normalized_basis(cfg: BranchConfig, basis: CanonicalBasis | None = None,
                     tol: float = 1e-10) -> PeriodData:
    """Normalize the holomorphic differentials and assemble period data.

    Solves sum_k C[j, k] * A_raw[., k] = identity so that the a-periods of
    omega_j are delta_jk and tabulates evaluations at all ramification
    points.  Only the a-cycles are integrated here (on the segment table
    when it serves the marking, else on lifted ellipses); the Riemann matrix
    ``B`` is integrated over the b-cycles on first read.
    """
    require_valid(cfg)
    g = cfg.genus
    points = cfg.points
    if basis is None:
        basis = _cycles.gap_basis(points)
    report = {"tol": tol, "b_nodes": [], "b_err": []}
    segments = SegmentTable.of(points, tol)
    if segments is not None and all(segments.cycle(s) for s in basis.a + basis.b):
        A_ext, report["a_nodes"], report["a_err"] = segments.periods(basis.a)
        ca = None
    else:
        segments = None
        ca = [_cycles.realize(s, points) for s in basis.a]
        A_ext, report["a_nodes"], report["a_err"] = _contour_periods(ca, g + 1, tol)
    A_raw = A_ext[:, :g]
    cond = float(np.linalg.cond(A_raw)) if np.all(np.isfinite(A_raw)) else math.inf
    if cond > 1e12:
        raise SingularPeriodMatrix(f"a-period matrix condition {cond:.2e}")
    C = np.linalg.inv(A_raw).T
    report["cond_A"] = cond

    phis = phi_values(points)
    lam = points
    omega_at = np.empty((g, 2 * g + 2), dtype=complex)
    for j in range(g):
        poly = C[j]
        omega_at[j, :-1] = np.polyval(poly[::-1], lam) * phis
        # at infinity lambda^(g-1) phi -> -2 d(zeta) on the principal sheet
        omega_at[j, -1] = -2.0 * poly[g - 1]
    pd = PeriodData(cfg=cfg, basis=basis, A_raw=A_raw, A_ext=A_ext, C=C,
                    omega_at=omega_at, phi_at=phis, tol=tol, quad_report=report,
                    segments=segments)
    if ca is not None:
        pd.contours_a = ca          # seeds the cached property
    return pd


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
        ``tol`` over the b-contours of ``pd`` on the ellipse path."""
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
    base_vals = -0.5 * np.polyval(poly_full[::-1], lam) * pd.phi_at
    values = base_vals + alpha @ pd.omega_at[:, :-1]
    return OmegaDifferential(cfg=cfg, alpha=alpha, c=c, values_at=values, pd=pd, tol=tol)


def beta_from_evaluations(pd: PeriodData, alpha=None) -> np.ndarray:
    """b-periods via 2 pi i omega(infinity) + alpha B (no extra quadrature)."""
    base = 2j * math.pi * pd.omega_at[:, -1]
    if alpha is None or not np.any(np.asarray(alpha) != 0):
        return base
    return base + np.asarray(alpha, dtype=complex) @ pd.B


def _v_period_matrix(pd: PeriodData) -> np.ndarray:
    """a-periods of the dual basis v_i (columns i, rows cycles)."""
    g = pd.genus
    out = np.empty((g, g), dtype=complex)
    for i, poly in enumerate(pd.v_coeffs):
        out[:, i] = pd.A_ext[:, :g] @ poly
    return out


def w_constants(cfg: BranchConfig, pd: PeriodData, k: int, tol: float = 1e-10) -> np.ndarray:
    """Normalization constants of W(., P_k) in the dual-basis expansion.

    W(P, P_k) = phi(P) / (phi(P_k) (lambda(P) - lambda_k)) + sum_i I_i v_i(P),
    with the I vector fixed by vanishing a-periods of W.
    """
    g = cfg.genus
    lam_k = cfg.point(k)
    pole = DifferentialOverMu(poles=((lam_k, 1.0 / pd.phi_at[k]),))
    w = np.empty(g, dtype=complex)
    for n, contour in enumerate(pd.contours_a):
        val, _, _ = integrate_contour(contour, pole, tol)
        w[n] = val
    V = _v_period_matrix(pd)
    return np.linalg.solve(V, -w)


def w_value(cfg: BranchConfig, pd: PeriodData, j: int, k: int, I_k: np.ndarray) -> complex:
    """W(P_j, P_k) from the expansion based at point k, with I_k = w_constants(cfg, pd, k).

    W has a double pole on the diagonal: j == k raises ValueError."""
    if j == k:
        raise ValueError(f"W(P_j, P_k) has a double pole at j = k = {j}")
    lam_j, lam_k = cfg.point(j), cfg.point(k)
    phi, pv = pd.phi_at, pd.v_poly_at
    val = phi[j] / (phi[k] * (lam_j - lam_k))
    for i in range(1, cfg.genus + 1):
        val += I_k[i - 1] * pv[i - 1, j] * phi[j]
    return complex(val)


def wavevector_U(cfg: BranchConfig, pd: PeriodData) -> np.ndarray:
    """The vector omega(P_infinity) governing spatial quasi-periodicity.

    Equals the b-period vector of the zero-a-period second-kind differential
    divided by 2 pi i.
    """
    return pd.omega_at[:, -1].copy()
