"""Isoperiodic deformation flows.

Moving the independent branch points x while forcing all periods of the
second-kind differential to stay constant determines u(x).  Two integration
modes are provided:

* ``implicit``: predictor-corrector continuation.  Each step predicts u by
  the second-order Taylor polynomial, with the first-order system
  du_m/dx_j = -v_m(P_xj) Omega(P_xj) / Omega(P_um) evaluated from fresh period
  data and the rational second derivative, then Newton-projects it back onto
  the constant-b-period manifold (unless ``correct`` is off).
* ``rational``: the second-order system with rational coefficients is
  integrated directly, each macro step tried as one DOP853 step
  (:func:`solve_ivp`); a step whose embedded error estimate is too large is
  rejected and halved.  No period computations happen inside the stepper.
  Each sample's drift is read from evaluations, 2 pi i omega(P_inf) + alpha B,
  so the b-cycles are integrated (for B) only when alpha is nonzero.

A path is a polyline in x-space, integrated leg by leg along the straight
segments x(tau) = p + tau (q - p).  The second-order system is integrable
(T[m, k, n] is symmetric in k, n), so every route between two points traces
the same family.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .curves import BranchConfig, idx_u, idx_x, idx_zero
from .errors import (DegenerateConfig, DriftExceeded, NoProgress, SingularJacobian,
                     SingularLocus, VanishingOmegaAtU)
from .periods import (OmegaDifferential, PeriodData, beta_from_evaluations,
                      build_omega, default_marking, normalized_basis, w_constants,
                      w_value)

IMPLICIT = "implicit"
RATIONAL = "rational"
RK_RTOL, RK_ATOL = 1e-9, 1e-12         # DOP853 error control, rational mode
NEWTON_TOL = 1e-11                      # implicit mode: Newton residual on beta
OMEGA_ZERO_TOL = 1e-11                  # |Omega(P_um)| below this times max |Omega| vanishes


# ---------------------------------------------------------------------------
# one Dormand-Prince 8(5,3) step (Hairer, Norsett & Wanner, Solving ODEs I, II.10)
# ---------------------------------------------------------------------------

# row s holds a[s, :s], zeros included: every stage sums over all earlier ones
_DOP_A_ROWS = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0, 0.08876275643042054),
    (0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0, 0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0, 0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0, 0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
     20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0, 0, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
     15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
     -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
     27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
     0.6433927460157636),
)
DOP_A = np.array([row + (0,) * (12 - len(row)) for row in _DOP_A_ROWS], dtype=float)
DOP_B = np.array([0.054293734116568765, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003,
                  -5.801203960010585, 0.3111643669578199, -0.1521609496625161,
                  0.20136540080403034, 0.04471061572777259])
DOP_C = np.array([0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
                  0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
                  0.6512820512820513, 0.6, 0.8571428571428571, 1.0])
# the embedded 3rd- and 5th-order error weights
DOP_E3 = np.array([-0.18980075407240762, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003,
                   -5.801203960010585, -0.4226823213237919, -0.1521609496625161,
                   0.20136540080403034, 0.02265179219836082])
DOP_E5 = np.array([0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044, -0.4957589496572502,
                   1.6643771824549864, -0.35032884874997366, 0.3341791187130175,
                   0.08192320648511571, -0.022355307863886294])


class DOP853Step(NamedTuple):
    y: np.ndarray           # the state at the step's end
    error_norm: float       # the step is accepted when below 1
    nfev: int               # right-hand-side evaluations


def solve_ivp(fun, t_span, y0) -> DOP853Step:
    """One DOP853 step of y' = fun(t, y) from t_span[0] to t_span[1], with the
    embedded 5th/3rd-order error norm at ``RK_RTOL`` / ``RK_ATOL``.

    The 12 stages and the norm are formed as scipy.integrate's DOP853 forms
    them, so an accepted step is bit for bit the result of
    ``scipy.integrate.solve_ivp(fun, t_span, y0, method="DOP853", rtol=RK_RTOL,
    atol=RK_ATOL, first_step=t_span[1] - t_span[0])`` whenever that takes one
    step; f at the step's end, which scipy computes and the error weights
    multiply by 0, is not evaluated.  The caller halves a rejected step.
    Rational mode needs nothing else from scipy, whose import cost about
    0.5 s of CPU and 40 MB.  The name is kept: the traced benchmark wraps
    ``flow.solve_ivp`` and reads ``nfev`` from its result.
    """
    t0, t1 = t_span
    h = t1 - t0
    y0 = np.asarray(y0)
    K = np.empty((len(DOP_B), y0.size), dtype=y0.dtype)
    K[0] = fun(t0, y0)
    for s in range(1, len(DOP_B)):
        K[s] = fun(t0 + DOP_C[s] * h, y0 + np.dot(K[:s].T, DOP_A[s, :s]) * h)
    y1 = y0 + h * np.dot(K.T, DOP_B)
    scale = RK_ATOL + np.maximum(np.abs(y0), np.abs(y1)) * RK_RTOL
    err5 = np.linalg.norm(np.dot(K.T, DOP_E5) / scale) ** 2
    err3 = np.linalg.norm(np.dot(K.T, DOP_E3) / scale) ** 2
    norm = abs(h) * err5 / np.sqrt((err5 + 0.01 * err3) * len(scale)) if err5 or err3 else 0.0
    return DOP853Step(y1, float(norm), len(DOP_B))


# ---------------------------------------------------------------------------
# first-order system
# ---------------------------------------------------------------------------

def first_derivatives(cfg: BranchConfig, pd: PeriodData, om: OmegaDifferential) -> np.ndarray:
    """du[m-1, j-1] = du_m/dx_j for the isoperiodic family through cfg.

    Requires Omega(P_{u_m}) != 0 for every m; a vanishing value means the
    constant-period manifold is not a graph over x there.
    """
    g = cfg.genus
    X, U = slice(idx_x(g, 1), idx_x(g, g) + 1), slice(idx_u(1), idx_u(g) + 1)
    om_u = om.values_at[U]
    scale = float(np.max(np.abs(om.values_at))) or 1.0
    if (vanishing := np.flatnonzero(np.abs(om_u) < OMEGA_ZERO_TOL * scale)).size:
        m = int(vanishing[0])
        raise VanishingOmegaAtU(m + 1, om_u[m])
    v_at_x = pd.v_poly_at[:, X] * pd.phi_at[X]          # v_m(P_{x_j})
    return -v_at_x * om.values_at[X] / om_u[:, None]


# ---------------------------------------------------------------------------
# rational second-order system
# ---------------------------------------------------------------------------

def _differences(x, u) -> np.ndarray:
    """The pairwise table D[a, b] = p_a - p_b over p = (0, x, u)."""
    pts = np.concatenate(([0.0], np.asarray(x, dtype=complex), np.asarray(u, dtype=complex)))
    return pts[:, None] - pts[None, :]


def _check_regular(x: np.ndarray, u: np.ndarray, threshold: float) -> np.ndarray:
    """Raise SingularLocus at the first pair (row-major, i < j) of p = (0, x, u)
    closer than ``threshold`` relative; return the table D of :func:`_differences`."""
    D = _differences(x, u)
    pts = D[:, 0]
    scale = max(1.0, float(np.abs(pts).max()))
    close = np.abs(D) < threshold * scale
    if np.count_nonzero(close) > len(pts):         # more than the diagonal
        i, j = np.argwhere(np.triu(close, 1))[0]
        raise SingularLocus(f"branch points {pts[i]} and {pts[j]} within {threshold * scale}")
    return D


@functools.cache
def _index_tables(g: int):
    """The genus-g tables of :func:`rhs_genus_g`, built once: ar = 0..g-1,
    the float masks off[m, s] = (s != m) and kn[k, n, i] = (i not in (k, n)),
    and the strict upper triangle k < n."""
    ar = np.arange(g)
    off = 1.0 - np.eye(g)
    out = (ar, off, off[:, None, :] * off[None], ar[:, None] < ar)
    for a in out:
        a.flags.writeable = False
    return out


def _coefficients(D: np.ndarray, du: np.ndarray):
    """The tables (R, S1, lag, G, Gx, Px, H, line6, line7) of :func:`rhs_genus_g`
    from du and the table D of :func:`_differences`; R = 1 / D, 0 on the diagonal.
    :func:`verify_identities` checks the W residue sums against the same tables."""
    g = len(du)
    n = 2 * g + 1
    D1 = D.copy()
    D1.flat[::n + 1] = 1.0                              # safe diagonal
    R = 1.0 / D1
    R.flat[::n + 1] = 0.0                               # reciprocals, 0 on the diagonal
    X, U = slice(1, g + 1), slice(g + 1, n)
    u = D[U, 0]
    xu = D[X, U]
    r_x, r_u, r_xx, r_xu, r_ux, r_uu = R[X, 0], R[U, 0], R[X, X], R[X, U], R[U, X], R[U, U]
    prod_u = u.prod()
    # px[k] = prod_s (x_k - u_s) and den[i] = prod_{s != i} (u_i - u_s), one reduction
    px_den = D1[1:, U].prod(axis=1)
    px, den = px_den[:g], px_den[g:]
    lag = prod_u / (u * (-1) ** (g - 1) * den)
    Gx_G = R[1:, 0] - R[1:, U] @ lag                    # rows x, then rows u
    Gx, G = Gx_G[:g], Gx_G[g:]
    Px = (-1) ** g * px * u[:, None] * r_ux / prod_u
    pref = px[:, None] * r_xu / den
    term = den[:, None] / px
    inner = xu.T * ((r_uu * den[:, None] / den[None, :]) @ r_xu.T)
    H = (du * (term + inner)).sum(axis=1)
    S1 = du.sum(axis=1) - 1.0
    dxu = du * xu.T
    line6 = r_xu.T * px * ((dxu / px) @ r_xx)
    line7 = r_xu.T * (dxu @ (r_xu @ pref.T))
    return R, S1, lag, G, Gx, Px, H, line6, line7


def rhs_genus_g(x, u, du) -> np.ndarray:
    """Full second-derivative tensor T[m, k, n] = d^2 u_{m+1} / dx_{k+1} dx_{n+1}.

    Rational in (x, u, du) and valid for every genus >= 1.

    Array form: the singular-locus check returns the pairwise table
    D[a, b] = p_a - p_b over p = (0, x, u), whose blocks are x_a - x_b,
    x_a - u_b and u_a - u_b, and one division gives all their reciprocals
    (0 on the diagonal).  Every factor is built from them once per call, all
    but C by :func:`_coefficients`:

    * lag[j] = prod_{s != j} u_s / (u_s - u_j), P[m] = prod_{s != m} (u_s - u_m) / u_s
      = 1 / lag[m], den[i] = prod_{s != i} (u_i - u_s) and R[m, i] = den[m] / den[i];
    * G[m] = 1/u_m - sum_{j != m} lag[j] / (u_m - u_j), Gx[k] = 1/x_k - sum_j lag[j] / (x_k - u_j);
    * Px[m, k] = prod_{s != m} (u_s - x_k) / u_s,
      pref[k, i] = prod_{s != i} (x_k - u_s) / (u_i - u_s);
    * H[m] = sum_j du[m, j] (1/(x_j - u_m) prod_{s != m} (u_m - u_s)/(x_j - u_s)
      + sum_{i != m} (x_j - u_m) R[m, i] / ((x_j - u_i)(u_m - u_i)));
    * line6[m, k] = sum_{j != k} du[m, j] / (x_j - x_k) prod_{s != m} (x_k - u_s) / (x_j - u_s),
      line7[m, k] = sum_{i, j} du[m, j] pref[k, i] (x_j - u_m) / ((x_j - u_i)(x_k - u_m));
    * C[m, k, n] = sum_{j != m} (1/(u_m - u_j) - 1/(x_k - u_j)) du[j, n] (line 3 at n = k).

    Products over s != m divide the s = m factor out of the full product; the
    j != m and i not in (k, n) sums are masked with float masks built once per
    genus.
    Mixed values are evaluated over all (k, n) and the k < n value is written
    to both T[m, k, n] and T[m, n, k], so T is exactly symmetric in (k, n).
    The terms are grouped and summed in another order than in the
    entry-by-entry loop form of the system, so the two agree to rounding
    (about 1e-14 relative for g <= 6), not bit for bit.
    """
    du = np.asarray(du, dtype=complex)
    g = len(du)
    R, S1, lag, G, Gx, Px, H, line6, line7 = _coefficients(_check_regular(x, u, 1e-8), du)
    ar, off, kn, upper = _index_tables(g)
    X, U = slice(1, g + 1), slice(g + 1, 2 * g + 1)
    r_x, r_u = R[X, 0], R[U, 0]
    r_xx, r_xu, r_ux, r_uu = R[X, X], R[X, U], R[U, X], R[U, U]

    Cm = r_uu[:, None, :] - r_xu[None]                  # over (m, k, j)
    Cm[ar, :, ar] = 0.0                                 # j != m
    C = Cm @ du
    # P_m = 1 / lag[m]; base collects the m-only part of the du^2 coefficients,
    # and UX[m, k, n] adds sum_{i not in (k, n)} 1/(u_m - x_i) to it
    base = r_u - 2.0 * r_uu.sum(axis=1) - S1 * G / lag - H
    UX = base[:, None, None] + (r_ux[:, None, None, :] * kn).sum(axis=-1)
    dd = du[:, :, None] * du[:, None, :]                # du[m, k] du[m, n]

    # diagonal entries T[m, k, k]
    line1 = ((-r_x - r_xx.sum(axis=1))[None]
             + 2.0 * (r_xu[None] * off[:, None, :]).sum(axis=-1) + r_xu.T)
    line2 = UX.diagonal(0, 1, 2) + r_xu.T
    diag = 0.5 * (du * (line1 + C.diagonal(0, 1, 2)) + dd.diagonal(0, 1, 2) * line2
                  - S1[:, None] * Px * Gx - line6 - line7)

    # mixed entries, Q[m, k, n] = du[m, k] (1/(x_k - x_n) + 1/(x_n - u_m) + C[m, k, n] / 2)
    Q = du[:, :, None] * (r_xx + r_xu.T[:, None, :] + 0.5 * C)
    val = 0.5 * (Q + np.swapaxes(Q, 1, 2) + dd * UX)
    T = np.where(upper, val, np.swapaxes(val, 1, 2))
    T.reshape(g, g * g)[:, ::g + 1] = diag
    return T


# ---------------------------------------------------------------------------
# Newton projection onto the constant-period manifold
# ---------------------------------------------------------------------------

def period_jacobian(cfg: BranchConfig, pd: PeriodData, om: OmegaDifferential) -> np.ndarray:
    """J[j-1, k-1] = d beta_k / d u_j = pi i Omega(P_{u_j}) omega_k(P_{u_j})."""
    U = slice(idx_u(1), idx_u(cfg.genus) + 1)
    return (1j * math.pi * om.values_at[U])[:, None] * pd.omega_at[:, U].T


def newton_correct(cfg: BranchConfig, alpha, beta_target, basis=None,
                   tol: float = 1e-11, quad_tol: float = 1e-11,
                   max_iter: int = 5):
    """Newton-project u onto beta(x, u) = beta_target at fixed x.

    Returns (corrected cfg, final residual, updates applied, PeriodData,
    OmegaDifferential), the last two of the final iterate, after at most
    ``max_iter`` updates.  Raises SingularJacobian / NoProgress on failure.
    """
    alpha = np.asarray(alpha, dtype=complex)
    beta_target = np.asarray(beta_target, dtype=complex)
    u = np.asarray(cfg.u, dtype=complex)
    # residuals this close to the rounding of beta are at the floor, however
    # much the last update cut them
    rounding = 16.0 * np.finfo(float).eps * max(1.0, float(np.max(np.abs(beta_target))))
    res_prev = None
    for it in range(max_iter + 1):
        work = cfg.replace(u=u)
        pd = normalized_basis(work, basis=basis, tol=quad_tol)
        om = build_omega(work, pd, alpha)
        r = beta_from_evaluations(pd, alpha) - beta_target
        res = float(np.max(np.abs(r)))
        # an update that still cut the residual by more than 1e3 stopped short of
        # the quadrature floor; one more reaches it at quadratic convergence
        floor = res_prev is None or 1e3 * res >= res_prev or res <= rounding
        if res <= tol and (floor or it == max_iter):
            return work, res, it, pd, om
        if it == max_iter or (res_prev is not None and res > res_prev and it >= 3):
            raise NoProgress(f"Newton correction stopped at residual {res:.3e} after {it} updates")
        res_prev = res
        J = period_jacobian(work, pd, om)
        if (cond := np.linalg.cond(J)) > 1e13:
            raise SingularJacobian(f"period Jacobian condition {cond:.2e}")
        u = u - np.linalg.solve(J.T, r)


# ---------------------------------------------------------------------------
# flow integration
# ---------------------------------------------------------------------------

@dataclass
class FlowControl:
    quad_tol: float = 1e-11
    macro_step: float = 0.01            # largest sample spacing along a leg
    correct: bool = True                # implicit mode: Newton after the Taylor predictor
    drift_tol: float | None = None      # raise DriftExceeded beyond this
    max_halvings: int = 40              # per macro step, on a failed step

    def __post_init__(self):
        if not (math.isfinite(self.macro_step) and self.macro_step > 0):
            raise ValueError(f"macro_step must be finite and positive, not {self.macro_step!r}")


@dataclass
class DeformationState:
    cfg: BranchConfig
    alpha: np.ndarray
    mode: str = IMPLICIT
    basis: object = None

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=complex)
        if self.mode not in (IMPLICIT, RATIONAL):
            raise ValueError(f"mode must be {IMPLICIT!r} or {RATIONAL!r}, not {self.mode!r}")
        g = self.cfg.genus
        if self.alpha.shape != (g,):
            raise ValueError(f"alpha must be of shape ({g},), not {self.alpha.shape}")


@dataclass
class FlowSample:
    """One point (x, u) of a flow with du = du/dx and the b-period drift there.

    ``pd`` is the period data the flow computed at (x, u), in its marking and
    to its ``quad_tol``: the start's, the final Newton iterate's (implicit
    mode) or the drift evaluation's (rational mode).  It is shared, not
    copied, with the reports that read it through :func:`sample_periods`;
    samples built elsewhere (CSV read-backs, controls) carry None.
    """

    x: np.ndarray
    u: np.ndarray
    du: np.ndarray
    beta_drift: np.ndarray
    info: dict = field(default_factory=dict)
    pd: PeriodData | None = field(default=None, repr=False, compare=False)


def sample_periods(cfg: BranchConfig, s: FlowSample, tol: float) -> PeriodData:
    """Default-marking period data of sample ``s`` on ``cfg``'s curve to ``tol``.

    Returns ``s.pd`` when it was computed for cfg.replace(x=s.x, u=s.u), to
    ``tol`` and in the default gap marking, and otherwise computes it anew, so
    a report reads the same values either way.
    """
    c = cfg.replace(x=s.x, u=s.u)
    pd = s.pd
    if (pd is not None and pd.cfg == c and pd.tol == tol
            and pd.basis == default_marking(c, pd.segments)):
        return pd
    return normalized_basis(c, tol=tol)


@dataclass
class Trajectory:
    samples: list
    path: list
    beta_target: np.ndarray
    alpha: np.ndarray
    mode: str

    def max_drift(self) -> float:
        return max(float(np.max(np.abs(s.beta_drift))) for s in self.samples)

    def grid(self):
        xs = np.array([s.x for s in self.samples])
        us = np.array([s.u for s in self.samples])
        return xs, us


def _continuation_step(state, control, beta_target, x0, x1, u, du):
    """One implicit-mode step from (x0, u, du) to x1: the Taylor predictor
    u + du dx + T(dx, dx) / 2 with dx = x1 - x0 and T = rhs_genus_g, then at
    most 3 Newton updates (none without ``control.correct``).  Returns
    (cfg, pd, om, du, updates) at x1.
    """
    dx = x1 - x0
    T = rhs_genus_g(x0, u, du)
    u_pred = u + du @ dx + 0.5 * np.einsum("mkn,kn->m", T, np.outer(dx, dx))
    _check_regular(x1, u_pred, 1e-8)
    tol, max_iter = (NEWTON_TOL, 3) if control.correct else (math.inf, 0)
    cfg, _, iters, pd, om = newton_correct(state.cfg.replace(x=x1, u=u_pred), state.alpha,
                                           beta_target, state.basis, tol, control.quad_tol,
                                           max_iter)
    # a real step that reorders the branch points has jumped through a collision
    if cfg.real and np.any(np.argsort(cfg.points.real) != np.argsort(state.cfg.points.real)):
        raise SingularLocus(f"branch points changed order between x = {x0} and {x1}")
    return cfg, pd, om, first_derivatives(cfg, pd, om), iters


def integrate_flow(state: DeformationState, path, control: FlowControl | None = None) -> Trajectory:
    """Integrate an isoperiodic deformation along a polyline in x-space.

    Each leg from path point p to the next distinct point q is the straight
    segment x = p + tau (q - p), tau in [0, 1], cut into ceil(|q - p| /
    ``control.macro_step``) equal macro steps (the quotient read with a
    relative slack of 1e-12, so rounding in q - p adds none); samples are
    recorded at their boundaries.  In implicit mode each macro step is one
    predictor-corrector step whose final Newton iterate gives the sample's du
    and drift; in rational mode (u, du) evolves through the second-order
    rational system, each macro step tried as one DOP853 step, and periods
    are only recomputed for drift reporting.  Each sample keeps the period
    data it was checked with (``FlowSample.pd``).  Failed steps, and in
    rational mode steps that the embedded error estimate rejects, are halved,
    at most ``control.max_halvings`` times per macro step; ``info["halvings"]``
    records how often.
    On a real curve the prescribed a-periods must keep the differential real
    (alpha . C real); other alpha raise DegenerateConfig before the first step.
    """
    control = control or FlowControl()
    cfg0 = state.cfg
    g = cfg0.genus
    path = [np.atleast_1d(np.asarray(p, dtype=complex)) for p in path]
    if np.max(np.abs(path[0] - np.asarray(cfg0.x))) > 1e-12 * max(1.0, cfg0.scale()):
        raise ValueError("path must start at the configuration's x")
    legs = [(p, q - p) for p, q in zip(path, path[1:]) if np.any(q != p)]

    pd0 = normalized_basis(cfg0, basis=state.basis, tol=control.quad_tol)
    # alpha sets alpha . C in Omega's polynomial; unless that is real, a real
    # curve leaves the real locus at the first step
    alpha_c = state.alpha @ pd0.C
    if cfg0.real and np.max(np.abs(alpha_c.imag)) > 1e-9 * np.max(np.abs(alpha_c)):
        raise DegenerateConfig(f"alpha violates the reality condition of a real curve: "
                               f"alpha . C = {alpha_c} is not real")
    om0 = build_omega(cfg0, pd0, state.alpha)
    beta_target = beta_from_evaluations(pd0, state.alpha)
    du = first_derivatives(cfg0, pd0, om0)

    samples = [FlowSample(x=np.asarray(cfg0.x).copy(), u=np.asarray(cfg0.u).copy(),
                          du=du.copy(), beta_drift=np.zeros(g), info={"leg": -1}, pd=pd0)]
    u = np.asarray(cfg0.u, dtype=complex)

    for leg_no, (p, d) in enumerate(legs):
        # a relative slack keeps a leg of a whole number of macro steps from
        # gaining one more when |q - p| rounds up (0.02 / 0.01 reads 2.0000000000000018)
        nmacro = max(1, math.ceil(np.linalg.norm(d) / control.macro_step * (1.0 - 1e-12)))
        # real leg parameter tau in [0, 1]; x = p + tau * d
        sgrid = [i / nmacro for i in range(nmacro + 1)]

        def rhs(tau, y):        # rational mode: y = (u, du) against tau
            du = y[g:].reshape(g, g)
            T = rhs_genus_g(p + tau * d, y[:g], du)
            return np.concatenate((du @ d, (T @ d).reshape(-1)))

        for a, b in zip(sgrid, sgrid[1:]):
            sub_from, target = a, b
            halvings = iters = 0
            while True:
                try:
                    if state.mode == IMPLICIT:
                        cfg_now, pd, om, du, n = _continuation_step(
                            state, control, beta_target, p + sub_from * d, p + target * d,
                            u, du)
                        u = np.asarray(cfg_now.u, dtype=complex)
                        iters += n
                    else:
                        step = solve_ivp(rhs, (sub_from, target),
                                         np.concatenate((u, du.reshape(-1))))
                        if not step.error_norm < 1.0:         # NaN fails too
                            raise SingularLocus(f"step [{sub_from}, {target}] rejected: "
                                                f"error norm {step.error_norm:.3g}")
                        u, du = step.y[:g], step.y[g:].reshape(g, g)
                except (SingularLocus, NoProgress, SingularJacobian, VanishingOmegaAtU,
                        DegenerateConfig) as exc:
                    # any failed step is halved, as a collision is
                    halvings += 1
                    if halvings > control.max_halvings:
                        raise SingularLocus(f"flow stopped near x = {p + sub_from * d}: "
                                            "singular locus") from exc
                    target = sub_from + 0.5 * (target - sub_from)
                    continue
                if target == b:
                    break
                sub_from, target = target, b

            x_now = p + b * d
            info = {"leg": leg_no, "halvings": halvings}
            if state.mode == IMPLICIT:
                info["newton_iters"] = iters
            else:
                cfg_now = state.cfg.replace(x=x_now, u=u)
                pd = normalized_basis(cfg_now, basis=state.basis, tol=control.quad_tol)
                om = build_omega(cfg_now, pd, state.alpha)
                du_fresh = first_derivatives(cfg_now, pd, om)
                info["du_consistency"] = float(np.max(np.abs(du_fresh - du)))
            drift = np.abs(beta_from_evaluations(pd, state.alpha) - beta_target)
            if control.drift_tol is not None and np.max(drift) > control.drift_tol:
                raise DriftExceeded(f"period drift {np.max(drift):.3e} at x = {x_now}")
            samples.append(FlowSample(x=x_now, u=u.copy(), du=du.copy(),
                                      beta_drift=drift, info=info, pd=pd))
        # next leg continues from the leg's endpoint
    return Trajectory(samples=samples, path=path, beta_target=beta_target,
                      alpha=state.alpha, mode=state.mode)


# ---------------------------------------------------------------------------
# Hill condition
# ---------------------------------------------------------------------------

def _round_half_away(v: float) -> int:
    return int(math.floor(v + 0.5)) if v >= 0 else int(math.ceil(v - 0.5))


def hill_check(cfg: BranchConfig, pd: PeriodData, T, tol: float = 1e-8) -> dict:
    """Test whether the zero-a-period differential has b-periods 2 pi i n / T.

    Returns integer candidates n_j, their residuals, and ambiguity flags for
    residuals in (tol, 0.25).
    """
    beta = beta_from_evaluations(pd, None)
    n_exact = T * beta / (2j * math.pi)
    n = np.array([_round_half_away(v.real) for v in n_exact])
    residuals = np.abs(n_exact - n)
    return {
        "is_hill": bool(np.all(residuals < tol) and cfg.real),
        "n": n,
        "residuals": residuals,
        "ambiguous": [bool(tol < r < 0.25) for r in residuals],
        "T": T,
        "beta": beta,
    }


# ---------------------------------------------------------------------------
# identity verification harness
# ---------------------------------------------------------------------------

def verify_identities(cfg: BranchConfig, pd: PeriodData, om: OmegaDifferential,
                      tol: float = 1e-10) -> dict:
    """Evaluate both sides of the structural identities; report max mismatches.

    Omega's values at the branch points are checked against the dual basis v_m
    (dual_weighted_residue_sum) and, at genus one, against omega
    (omega_squares_sum, second_kind_residue_sum).  W is the one table
    W[a, b] = W(P_a, P_b) of w_value, built from one w_constants call; it is
    checked for symmetry, against the constants at genus one and against its
    dual-basis expansion (w_dual_expansion_*, array expressions over W, the v
    table and the reciprocal table R of rhs_genus_g) from genus two.  The sum
    rule of first_derivatives and the Omega-weighted row sums of W
    (w_residue_sum_at_u, _at_x) are checked against the coefficient tables of
    rhs_genus_g.  beta_consistency is ``om.beta_residual``.
    """
    g = cfg.genus
    x = np.asarray(cfg.x)
    u = np.asarray(cfg.u)
    report = {}
    om_at = om.values_at
    w_at = pd.omega_at
    n_pts = 2 * g + 1
    U, X = slice(1, g + 1), slice(g + 1, n_pts)
    v_at_tab = pd.v_poly_at * pd.phi_at

    if g == 1:
        report["omega_squares_sum"] = float(abs(np.sum(w_at[0, :-1] ** 2)))
        report["second_kind_residue_sum"] = float(abs(np.sum(w_at[0, :-1] * om_at)))

    du = first_derivatives(cfg, pd, om)
    R, S1, lag, G, Gx, Px, H, line6, line7 = _coefficients(_differences(x, u), du)
    # vanishing residue sum of the dual-basis-weighted second-kind values
    v0 = om_at[idx_zero()] * v_at_tab[:, idx_zero()]
    report["dual_weighted_residue_sum"] = float(np.max(np.abs(
        v0 + v_at_tab[:, X] @ om_at[X] + om_at[U])))
    report["derivative_sum_rule"] = float(np.max(np.abs(v0 / om_at[U] - S1)))

    I = w_constants(cfg, pd, tol)
    W = w_value(cfg, pd, I)                 # NaN on the diagonal
    report["W_symmetry"] = float(np.nanmax(np.abs(W - W.T)))
    report["beta_consistency"] = float(om.beta_residual)

    if g == 1:
        # genus-one normalization constants relative to omega
        w0, wu, wx = w_at[0, idx_zero()], w_at[0, idx_u(1)], w_at[0, idx_x(1, 1)]
        I0, Iu, Ix = I[[idx_zero(), idx_u(1), idx_x(1, 1)], 0] / wu
        x1, u1 = x[0], u[0]
        rel0 = I0 - (-1.0 / (w0 * x1) + (Ix - 1.0 / (x1 * wx)) * w0 / wx)
        relu = Iu - ((1.0 / ((u1 - x1) * wx) + Ix) * wu / wx - 1.0 / ((x1 - u1) * wu))
        report["normalization_constant_relation"] = float(max(abs(rel0), abs(relu)))
        # both coordinate expressions for W(P_x, P_u)
        e1 = (1.0 / ((x1 - u1) * wu) + Iu) * wx
        e2 = (1.0 / ((u1 - x1) * wx) + Ix) * wu
        report["W_xu_two_forms"] = float(abs(e1 - e2))

    Iv_x = (I[X] * v_at_tab[:, X].T).sum(axis=1)
    if g >= 2:
        # R is in the order (0, x, u): r_xx[k, n] = 1/(x_k - x_n), r_xu[n, m] = 1/(x_n - u_m)
        r_xx, r_xu, r_uu = R[1:g + 1, 1:g + 1], R[1:g + 1, g + 1:], R[g + 1:, g + 1:]
        vx = v_at_tab[:, X]                 # vx[j, n] = v_j(P_{x_n})
        # lhs[n, k] = sum_j W(P_{u_j}, P_{x_k}) v_j(P_{x_n}); its diagonal serves _diag
        lhs = vx.T @ W[U, X]
        px = pd.phi_at[X] * np.prod(x[:, None] - u, axis=1)
        rational = px[:, None] / px * r_xx.T
        report["w_dual_expansion_xx"] = float(np.nanmax(np.abs(lhs - W[X, X] - rational)))
        # [m, n]: sum_{j != m} W(P_{u_j}, P_{u_m}) v_j(P_{x_n}) against the expansion at x_n
        lhs_u = np.where(np.eye(g, dtype=bool), 0.0, W[U, U]).T @ vx
        rhs_u = W[X, U].T - vx * (r_xu.T - r_uu.sum(axis=1)[:, None] + I[U].diagonal()[:, None])
        report["w_dual_expansion_xu"] = float(np.max(np.abs(lhs_u - rhs_u)))
        report["w_dual_expansion_diag"] = float(np.max(np.abs(
            lhs.diagonal() - Iv_x + r_xu.sum(axis=1))))

    # the vanishing sums of W(P_a, q) Omega(q) / Omega(P_a) over q != P_a
    W_sum = np.where(np.eye(n_pts, dtype=bool), 0.0, W) @ om_at / om_at
    report["w_residue_sum_at_u"] = float(np.max(np.abs(
        W_sum[U] + S1 * G / lag + H + I[U].diagonal())))
    report["w_residue_sum_at_x"] = float(np.max(np.abs(
        du * W_sum[X] - (S1[:, None] * Px * Gx + line6 + line7) + du * Iv_x)))
    return report
