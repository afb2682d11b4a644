"""Cycle integrals, normalized differentials, the Riemann matrix, and the
second-kind differential with a double pole at infinity.

All differentials handled here have the shape

    eta = (polynomial(lambda) + sum_p  c_p / (lambda - s_p)) * d(lambda) / mu,

which covers the holomorphic basis lambda^k * phi, the normalized basis
omega_j, the second-kind differential, and the bidifferential with one
argument frozen at a ramification point.

Each curve keeps its periods in one table, picked in :func:`normalized_bases`;
both kinds have ``periods(specs)``, the monomial periods of cycles (kept), and
``integrate(specs, rows, tol)`` for any row function of ``tanh_sinh``:

* ``SegmentTable``, for real configurations, whose cycles must be
  contiguous runs of the sorted branch points (those of every default
  marking are).  Each period is a signed sum of the integrals between
  consecutive branch points, computed by double-exponential (tanh-sinh)
  quadrature that absorbs the inverse square roots at both endpoints into
  its weights (``tanh_sinh``).
* ``ContourTable``, for complex configurations: lifted circles with
  spectrally convergent trapezoidal quadrature and adaptive node doubling
  (``integrate_contour``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import cycles as _cycles
from .curves import BranchConfig, effective_points, phi_values, require_valid
from .cycles import CanonicalBasis, EllipseContour
from .errors import DegenerateConfig, NoConvergence, SingularPeriodMatrix

_MAX_NODES = 1 << 17
_MIN_NODES = 64          # first node count of a contour quadrature
# tanh-sinh nodes tau = j h, |tau| <= _TAU_MAX; the weights beyond the cut are
# below 1e-29 and the endpoint distances below 1e-61 of the half-width
_TAU_MAX = 4.5
_H0 = 0.25


def require_positive(**values) -> None:
    """Raise ValueError naming the first of ``values`` that is not finite and positive."""
    for name, value in values.items():
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, not {value!r}")


def horner(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The polynomials with ascending coefficients along the last axis of c
    (one row, or a table of rows) at the points x, by Horner's rule over whole
    arrays: the arithmetic of ``np.polyval`` on each row, without its per-call
    argument handling."""
    y = c[..., -1, None] + x * 0
    for k in range(c.shape[-1] - 2, -1, -1):
        y = c[..., k, None] + y * x
    return y


def integrate_contour(contour: EllipseContour, rows, tol: float):
    """Integrals of integrand rows over dlambda / mu on a lifted contour.

    ``rows(t, D, sel)`` is a row function of :func:`tanh_sinh`, given the nodes
    t (shape (1, nodes)), D[..., i] = t - p_i over the contour's points and a
    slice.  Doubles the node count until two successive trapezoidal values
    agree within ``tol`` (relative to max(1, magnitude)).  Returns (values,
    nodes, error_estimate).
    """
    # make sure branch tracking resolves the closest approach to branch points
    ratio = (contour.semi_major + contour.semi_minor) / max(contour.min_clearance(), 1e-300)
    n = max(_MIN_NODES, 8 * int(ratio))
    n = 1 << int(math.ceil(math.log2(n)))
    prev = None
    while n <= _MAX_NODES:
        lam, w, mu = contour.nodes(n)
        t = lam[None]
        vals = (w / mu) @ rows(t, t[..., None] - contour.points, slice(None))[0]
        if prev is not None:
            err = float(np.max(np.abs(vals - prev)))
            if err <= tol * max(1.0, float(np.max(np.abs(vals)))):
                return vals, n, err
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
    return lambda t, D, sel: t[..., None] ** powers


def tanh_sinh(lo, hi, q, tol: float, rows, diffs: bool = False):
    """Integrals of integrand rows over 1/|mu| on intervals of the real axis.

    ``rows(t, D, sel)`` returns the integrand rows f_k at the nodes t (shape
    (intervals, nodes)) as an array of shape (intervals, nodes, K); D is
    None, or with ``diffs`` the exact node differences D[..., i] = t - q_i,
    and ``sel`` indexes the intervals evaluated (a slice or an index array),
    for rows that depend on the interval.
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
        F = rows(mid[sel, None] + c * x, D, sel)
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

    def rows(t, D, sel):
        d = np.moveaxis(D, -1, 0)[others]              # d[i, k] = t - p_i, p the others of q_k
        pre = np.cumprod(d[:-1], axis=0)               # prod_{j<i} (t - p_j), i = 1..n-2
        post = np.cumprod(d[:1:-1], axis=0)[::-1]      # prod_{j>i} (t - p_j), i = 1..n-3
        terms = pre - lead[..., None, None]
        terms[:-1] *= post
        return np.moveaxis(terms.sum(axis=0), 0, -1)

    return rows


@functools.lru_cache(maxsize=256)
def _segment_cycles(order: tuple, specs: tuple):
    """(slice of the first segments, factor) of each cycle ``specs`` on points in the
    ascending order ``order`` and the read-only mask of the segments they need; a cycle
    not around a run of sorted points raises DegenerateConfig.  Uncached, normalized_basis
    took 7-11% longer at genus 1-4."""
    cyc, need = [], np.zeros(len(order) - 1, dtype=bool)
    for spec in specs:
        ranks = sorted(order.index(i) for i in spec.encircled)
        if ranks[-1] - ranks[0] != len(ranks) - 1:
            raise DegenerateConfig("encircled set is not contiguous on the real axis")
        cyc.append((slice(ranks[0], ranks[-1], 2), -2.0 * spec.orientation))
        need[cyc[-1][0]] = True
    need.flags.writeable = False
    return tuple(cyc), need


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
        ``order`` sorts them (``key`` is the same as a tuple)."""
        n = len(points) - 1
        self.order = np.argsort(points)
        self.q, self.tol = points[self.order], tol
        self.key = tuple(self.order.tolist())
        self.phase = np.array([1j ** (n - s) for s in range(n)])
        self.values = np.zeros((n, n // 2 + 1), dtype=complex)
        self.nodes = np.zeros(n, dtype=int)
        self.err = np.zeros(n)

    @staticmethod
    def fill(tables, bases=None) -> None:
        """Integrate in one kernel call the segments of the a-cycles of ``bases[i]`` (all,
        if ``bases`` is None) that ``tables[i]`` lacks, for the segment tables among
        ``tables`` (one genus and tolerance), after checking every cycle of the bases."""
        masks = []
        for t, b in zip(tables, bases or [None] * len(tables)):
            if isinstance(t, SegmentTable):
                if b is not None:
                    _segment_cycles(t.key, tuple(b.b))
                masks.append((t, b is None or _segment_cycles(t.key, tuple(b.a))[1]))
        SegmentTable._fill(masks)

    @staticmethod
    def _fill(masks) -> None:
        """Integrate the rows in m that table t lacks, for each (t, m) of ``masks``, in
        one kernel call, each interval against its table's points."""
        live = [(t, (m & (t.nodes == 0)).nonzero()[0]) for t, m in masks]
        live = [(t, i) for t, i in live if i.size]
        if not live:
            return
        q, lo, hi = (np.concatenate(a) for a in zip(
            *((t.q[None].repeat(i.size, 0), t.q[i], t.q[i + 1]) for t, i in live)))
        t = live[0][0]
        vals, nodes, err = tanh_sinh(lo, hi, q, t.tol, power_rows(t.values.shape[1]))
        at = 0
        for t, i in live:
            sl = slice(at, at := at + i.size)
            t.nodes[i], t.err[i], t.values[i] = nodes[sl], err[sl], vals[sl] / t.phase[i, None]

    def periods(self, specs):
        """Monomial periods of each cycle (rows) with its node count and error
        estimate, integrating the segments not yet known first."""
        cyc, need = _segment_cycles(self.key, tuple(specs))
        self._fill([(self, need)])
        vals = np.array([f * self.values[sl].sum(axis=0) for sl, f in cyc])
        nodes = [int(self.nodes[sl].sum()) for sl, _ in cyc]
        err = [2.0 * float(self.err[sl].sum()) for sl, _ in cyc]
        return vals, nodes, err

    def integrate(self, specs, rows, tol: float) -> np.ndarray:
        """The periods of the row function ``rows`` (with ``diffs``), one row per
        cycle, from one kernel call over the cycles' segments to ``tol``."""
        cyc, need = _segment_cycles(self.key, tuple(specs))
        segs = np.flatnonzero(need)
        part = tanh_sinh(self.q[segs], self.q[segs + 1], self.q, tol, rows, diffs=True)[0]
        vals = np.zeros((len(need), part.shape[1]), dtype=complex)
        vals[segs] = part / self.phase[segs, None]
        return np.array([f * vals[sl].sum(axis=0) for sl, f in cyc])


class ContourTable:
    """The periods of a complex curve on lifted circles, with the interface of
    :class:`SegmentTable`: each cycle is realized (:func:`isoperiod.cycles.realize`)
    and its monomial periods integrated to ``tol`` on first request, and kept."""

    def __init__(self, points: np.ndarray, tol: float):
        self.q, self.tol, self.order = points, tol, np.arange(len(points))  # package order
        self._contours, self._periods = {}, {}

    def contour(self, spec) -> EllipseContour:
        """The lifted circle of the cycle ``spec``."""
        if spec not in self._contours:
            self._contours[spec] = _cycles.realize(spec, self.q)
        return self._contours[spec]

    def periods(self, specs):
        """Monomial periods of each cycle (rows) with its node count and error estimate."""
        for spec in specs:
            if spec not in self._periods:
                self._periods[spec] = integrate_contour(
                    self.contour(spec), power_rows(len(self.q) // 2 + 1), self.tol)
        vals, nodes, err = zip(*(self._periods[s] for s in specs))
        return np.array(vals), list(nodes), list(err)

    def integrate(self, specs, rows, tol: float) -> np.ndarray:
        """The periods of the row function ``rows``, one row per cycle, to ``tol``."""
        return np.array([integrate_contour(self.contour(s), rows, tol)[0] for s in specs])


@dataclass
class PeriodData:
    """Raw and normalized period data of a marked curve.

    ``A_raw[j, k]`` holds the a_j-period of lambda^(k-1) * phi; ``C[j, k]``
    the coefficients of omega_j = sum_k C[j, k] lambda^(k-1) phi; ``B`` the
    Riemann matrix.  ``omega_at[j, q]`` evaluates omega_j at ramification
    point q (columns follow the package point indexing; the final column is
    the point at infinity).  ``table`` is the curve's :class:`SegmentTable`
    or :class:`ContourTable`; in a :func:`normalized_bases` stack each curve has
    its own PeriodData and table, and its C and omega_at view the stack's arrays.
    ``B`` and the dual-basis table ``v_at`` are built on first read: the b-periods
    are integrated on the first read of ``B``, an ``OmegaDifferential.beta`` or
    the comb map, and shared by all of them.
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
    table: SegmentTable | ContourTable = field(repr=False)

    @property
    def genus(self) -> int:
        return self.cfg.genus

    @cached_property
    def B(self) -> np.ndarray:
        """Riemann matrix B_raw C^T (= B_raw A_raw^-1), B_raw the b-periods of lambda^(k-1) phi."""
        B_ext, nodes, err = self.table.periods(self.basis.b)
        self.quad_report["b_nodes"].extend(nodes)
        self.quad_report["b_err"].extend(err)
        return B_ext[:, :self.genus] @ self.C.T

    @cached_property
    def v_at(self) -> np.ndarray:
        """v_at[m-1, q] = v_m(P_q) at every finite point q, in product form over
        the point differences, v_m = phi prod_{i != m} (lambda - u_i) /
        (phi(P_{u_m}) prod_{i != m} (u_m - u_i)): exactly 0 at u_i, i != m."""
        g, pts = self.genus, self.cfg.points
        D = pts[:, None] - pts[1:g + 1]                 # D[q, i] = p_q - u_i
        num = np.where(np.eye(g, dtype=bool)[:, None], 1.0, D).prod(axis=2) * self.phi_at
        return num / num[:, 1:g + 1].diagonal()[:, None]


def normalized_basis(cfg: BranchConfig, basis: CanonicalBasis | None = None,
                     tol: float = 1e-10) -> PeriodData:
    """Normalize the holomorphic differentials and assemble period data.

    Solves sum_k C[j, k] * A_raw[., k] = identity so that the a-periods of
    omega_j are delta_jk and tabulates evaluations at all ramification
    points.  Only the a-cycles are integrated here, on the curve's table (a
    real configuration's a- and b-cycles are all checked first); ``B`` on first
    read.  A ``tol`` that is not finite and positive raises ValueError.  The
    configuration is validated, its points snapped and sorted once, and the
    default marking taken from that order.  Another marking's periods are a
    change of marking of these (the band a-cycles are differences of the gap
    b-cycles, as :func:`isoperiod.apps.kdv_wavevector_report` reads them).
    """
    return normalized_bases([cfg], basis, tol)[0]


def normalized_bases(cfgs, basis: CanonicalBasis | None = None,
                     tol: float = 1e-10) -> list:
    """:func:`normalized_basis` of each of ``cfgs`` (one genus) as one stack, bit for
    bit what a call per curve gives, in ``basis`` or else each curve's default
    marking; one :class:`PeriodData` per curve.  The a-periods are one kernel call
    for all segment tables (after checking every cycle), then C and omega at the
    ramification points come from one stacked inverse and Horner.  A failure raises
    for the stack."""
    require_positive(tol=tol)
    curves = []
    for cfg in cfgs:
        require_valid(cfg)
        points = effective_points(cfg.points)      # snapped: a real set has no imaginary part
        table = (ContourTable(points, tol) if (points.imag != 0.0).any()
                 else SegmentTable(points.real, tol))
        curves.append((cfg, default_marking(table) if basis is None else basis,
                       table, phi_values(points)))
    g = curves[0][0].genus
    SegmentTable.fill([t for _, _, t, _ in curves], [b for _, b, _, _ in curves])
    parts = []
    for _, b, table, _ in curves:
        report = {"tol": tol, "b_nodes": [], "b_err": []}
        A, report["a_nodes"], report["a_err"] = table.periods(b.a)
        parts.append((A, report))
    A_raw = np.array([A[:, :g] for A, _ in parts])
    # the 1-norm condition numbers from the inverses: one LU factorization each
    try:
        A_inv = np.linalg.inv(A_raw)
    except np.linalg.LinAlgError:       # exactly singular, or not finite
        A_inv = np.full_like(A_raw, np.inf)
    cond = np.abs(A_raw).sum(axis=1).max(axis=1) * np.abs(A_inv).sum(axis=1).max(axis=1)
    for (_, report), c in zip(parts, cond.tolist()):
        if not c <= 1e12:
            raise SingularPeriodMatrix(f"a-period matrix condition {c:.2e}")
        report["cond_A"] = c
    C = A_inv.transpose(0, 2, 1)
    lam_phi = np.array([(cfg.points, phi) for cfg, *_, phi in curves])
    # at infinity lambda^(g-1) phi -> -2 d(zeta) on the principal sheet
    omega_at = np.concatenate((horner(C, lam_phi[:, :1]) * lam_phi[:, 1:],
                               -2.0 * C[:, :, g - 1, None]), axis=2)
    return [PeriodData(cfg=cfg, basis=b, A_raw=A[:, :g], A_ext=A, C=Ci, omega_at=om,
                       phi_at=phi, tol=tol, quad_report=report, table=table)
            for (cfg, b, table, phi), (A, report), Ci, om in zip(curves, parts, C, omega_at)]


def default_marking(table) -> CanonicalBasis:
    """The default gap marking of the curve of ``table``, read from the sorted
    order that its segment table holds; a complex curve's ContourTable has none."""
    if isinstance(table, SegmentTable):
        return _cycles.gap_marking(table.key)
    raise DegenerateConfig("default cycle bases require real branch points")


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

    @property
    def poly(self) -> np.ndarray:
        """Ascending coefficients of the full degree-g polynomial (monic)."""
        return np.concatenate((self.c, [1.0 + 0.0j]))

    @cached_property
    def beta(self) -> np.ndarray:
        """b-periods, computed on first read: the monomial b-periods of ``pd``'s
        table (to ``pd.tol``) times the coefficients of the differential."""
        coeffs = -0.5 * self.poly
        if np.any(self.alpha != 0):
            coeffs[:len(self.c)] += self.alpha @ self.pd.C
        return self.pd.table.periods(self.pd.basis.b)[0] @ coeffs

    @cached_property
    def beta_residual(self) -> float:
        """|beta - (2 pi i omega(inf) + alpha B)|; B is read only when alpha != 0."""
        return float(np.max(np.abs(self.beta - beta_from_evaluations(self.pd, self.alpha))))


def build_omega(cfg: BranchConfig, pd: PeriodData, alpha=None,
                tol: float = 1e-10) -> OmegaDifferential:
    """Construct the second-kind differential with prescribed a-periods.

    The polynomial coefficients solve the g x g linear system that kills the
    a-periods of -(lambda^g + ...) phi / 2; adding alpha . omega then sets
    a-period j to alpha_j.  The b-periods ``beta`` and ``beta_residual``,
    their distance to 2 pi i omega(infinity) + alpha B, are computed on first
    read, from ``pd``'s table at ``pd.tol``; ``tol`` is accepted and not read.
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
    return OmegaDifferential(cfg=cfg, alpha=alpha, c=c, values_at=values, pd=pd)


def beta_from_evaluations(pd: PeriodData, alpha=None) -> np.ndarray:
    """b-periods via 2 pi i omega(infinity) + alpha B (no extra quadrature)."""
    base = 2j * math.pi * pd.omega_at[:, -1]
    if alpha is None or not np.any(np.asarray(alpha) != 0):
        return base
    return base + np.asarray(alpha, dtype=complex) @ pd.B


def w_constants(cfg: BranchConfig, pd: PeriodData, tol: float = 1e-10) -> np.ndarray:
    """Normalization constants I of the bidifferential W in the dual-basis expansion.

    W(P, P_k) = phi(P) / (phi(P_k) (lambda(P) - lambda_k)) + sum_i I[k, i] v_i(P),
    with row k fixed by the vanishing a-periods of W(., P_k).  A holomorphic
    differential eta is sum_m eta(P_{u_m}) v_m, so omega = Omega_u v with
    Omega_u = omega_at[:, u], the a-periods of v are (Omega_u^-1)^T, and with
    w[j, k] the a_j-period of the k-th pole differential, I = -w^T Omega_u:
    one product for all 2g+1 rows, with no linear solve.

    The pole differential dlambda / ((lambda - lambda_k) mu) is not
    integrable at a segment endpoint, so on the segment path it is reduced by
    an exact form: with P_k = prod_{j != k} (lambda - lambda_j),

        P_k(lambda_k) dlambda / ((lambda - lambda_k) mu)
            = N_k dlambda / mu - 2 d(mu / (lambda - lambda_k)),
        N_k = P_k' - (P_k - P_k(lambda_k)) / (lambda - lambda_k),

    and since phi_k = 2 / sqrt(P_k(lambda_k)), the a-period of the k-th pole
    differential phi / (phi_k (lambda - lambda_k)) is (phi_k / 4) times the
    a-period of the polynomial differential N_k dlambda / mu on any closed
    cycle, segments or circles.  The 2g+1 polynomials N_k are evaluated at the
    nodes in product form (``_reduced_poles``) and share one kernel call per
    table.  A ``tol`` that is not finite and positive raises ValueError.
    """
    require_positive(tol=tol)
    table = pd.table
    N = table.integrate(pd.basis.a, _reduced_poles(table.q), tol)
    w = N[:, np.argsort(table.order)] * (0.25 * pd.phi_at)
    return -w.T @ pd.omega_at[:, 1:cfg.genus + 1]


def w_value(cfg: BranchConfig, pd: PeriodData, I: np.ndarray) -> np.ndarray:
    """The table W[a, b] = W(P_a, P_b) over the finite points, with I = w_constants(cfg, pd).

    W[a, b] = phi_a / (phi_b (lambda_a - lambda_b)) + sum_i I[b, i] v_i(P_a); the
    diagonal is a double pole and holds NaN.
    """
    lam, phi = cfg.points, pd.phi_at
    E = np.eye(len(lam), dtype=bool)
    W = phi[:, None] / (phi * np.where(E, 1.0, lam[:, None] - lam)) + pd.v_at.T @ I.T
    W[E] = np.nan
    return W


def wavevector_U(cfg: BranchConfig, pd: PeriodData) -> np.ndarray:
    """The vector omega(P_infinity) governing spatial quasi-periodicity.

    Equals the b-period vector of the zero-a-period second-kind differential
    divided by 2 pi i.
    """
    return pd.omega_at[:, -1].copy()
