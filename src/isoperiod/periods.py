"""Cycle integrals, normalized differentials, the Riemann matrix, and the
second-kind differential with a double pole at infinity.

All differentials handled here have the shape

    eta = (polynomial(lambda) + sum_p  c_p / (lambda - s_p)) * d(lambda) / mu,

which covers the holomorphic basis lambda^k * phi, the normalized basis
omega_j, the second-kind differential, and the bidifferential with one
argument frozen at a ramification point.  Contours are lifted ellipses with
spectrally convergent trapezoidal quadrature and adaptive node doubling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import cycles as _cycles
from .curves import BranchConfig, phi_values, require_valid, v_polynomial
from .cycles import CanonicalBasis, EllipseContour
from .errors import NoConvergence, SingularPeriodMatrix

_MAX_NODES = 1 << 17


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


@dataclass
class PeriodData:
    """Raw and normalized period data of a marked curve.

    ``A_raw[j, k]`` holds the a_j-period of lambda^(k-1) * phi; ``C[j, k]``
    the coefficients of omega_j = sum_k C[j, k] lambda^(k-1) phi; ``B`` the
    Riemann matrix.  ``omega_at[j, q]`` evaluates omega_j at ramification
    point q (columns follow the package point indexing; the final column is
    the point at infinity).  ``B``, its b-contours ``contours_b`` and the
    dual-basis tables ``v_coeffs`` and ``v_poly_at`` are built on first read,
    so a caller that never reads them does not pay for them.
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
    _contours_a: list = field(repr=False, default=None)

    @property
    def genus(self) -> int:
        return self.cfg.genus

    @cached_property
    def contours_b(self) -> list:
        """The realized b-contours, shared by ``B`` and every ``OmegaDifferential.beta``."""
        return [_cycles.realize(s, self.cfg.points) for s in self.basis.b]

    @cached_property
    def B(self) -> np.ndarray:
        """Riemann matrix B_raw A_raw^-1, B_raw[j, k] the b_j-period of lambda^(k-1) * phi."""
        g = self.genus
        mons = [monomial(k) for k in range(g)]
        B_raw = np.empty((g, g), dtype=complex)
        for j, contour in enumerate(self.contours_b):
            vals, n, err = integrate_contour(contour, mons, self.tol)
            B_raw[j] = vals
            self.quad_report["b_nodes"].append(n)
            self.quad_report["b_err"].append(err)
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
    points.  Only the a-contours are integrated here; the Riemann matrix
    ``B`` is integrated over the b-contours on first read.
    """
    require_valid(cfg)
    g = cfg.genus
    points = cfg.points
    if basis is None:
        basis = _cycles.gap_basis(points)
    ca = [_cycles.realize(s, points) for s in basis.a]

    mons = [monomial(k) for k in range(g + 1)]
    A_ext = np.empty((g, g + 1), dtype=complex)
    report = {"tol": tol, "a_nodes": [], "a_err": [], "b_nodes": [], "b_err": []}
    for j, contour in enumerate(ca):
        vals, n, err = integrate_contour(contour, mons, tol)
        A_ext[j] = vals
        report["a_nodes"].append(n)
        report["a_err"].append(err)
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
    return PeriodData(cfg=cfg, basis=basis, A_raw=A_raw, A_ext=A_ext, C=C,
                      omega_at=omega_at, phi_at=phis, tol=tol, quad_report=report,
                      _contours_a=ca)


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
        """b-periods, by quadrature over the b-contours of ``pd`` on first read."""
        diff = self.differential(self.pd)
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
    for n, contour in enumerate(pd._contours_a):
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
