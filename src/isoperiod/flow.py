"""Isoperiodic deformation flows.

Moving the independent branch points x while forcing all periods of the
second-kind differential to stay constant determines u(x).  Two integration
modes are provided:

* ``implicit``: predictor-corrector continuation.  Each step predicts u to
  third order from the first-order system
  du_m/dx_j = -v_m(P_xj) Omega(P_xj) / Omega(P_um), evaluated from fresh period
  data, and the rational second derivative at both ends of the step, then
  Newton-projects it back onto the constant-b-period manifold: two period
  evaluations a step at the usual step sizes.
* ``rational``: the second-order system with rational coefficients is
  integrated directly, each macro step tried as one DOP853 step
  (:func:`solve_ivp`); a step whose embedded error estimate is too large is
  rejected and halved.  On a real curve (real points, real alpha . C) the
  state (u, du) stays real, and is stepped in float64; the samples store it
  as complex.  The stepper reads no periods: its samples get theirs
  ``CHECK_BLOCK`` at a time from one stacked evaluation, the b-cycles
  integrated (for B) only if alpha != 0.

A path is a polyline in x-space of at most ``MAX_MACRO_STEPS`` macro steps,
integrated leg by leg along the straight segments x(tau) = p + tau (q - p).  The
second-order system is integrable (T[m, k, n] is symmetric in k, n), so every
route between two points traces the same family.  One check records every
sample, the start included, with its drift from the start's b-periods.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np

from .curves import BranchConfig
from .errors import (DegenerateConfig, DriftExceeded, IsoperiodError, NoProgress,
                     SingularJacobian, SingularLocus, VanishingOmegaAtU)
from .periods import (OmegaDifferential, PeriodData, beta_from_evaluations,
                      build_omega, default_marking, normalized_basis, normalized_bases,
                      require_positive, w_constants, w_value)

IMPLICIT = "implicit"
RATIONAL = "rational"
RK_RTOL, RK_ATOL = 1e-9, 1e-12         # DOP853 error control, rational mode
NEWTON_TOL = 1e-11                      # implicit mode: Newton residual on beta
MAX_HALVINGS = 40                       # per macro step, on a failed step
CHECK_BLOCK = 32                        # samples per stacked period evaluation
MAX_MACRO_STEPS = 100_000               # per path, checked before the first period evaluation
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
    X, U = slice(g + 1, 2 * g + 1), slice(1, g + 1)
    om_u = om.values_at[U]
    scale = float(np.max(np.abs(om.values_at))) or 1.0
    if (vanishing := np.flatnonzero(np.abs(om_u) < OMEGA_ZERO_TOL * scale)).size:
        m = int(vanishing[0])
        raise VanishingOmegaAtU(m + 1, om_u[m])
    return -pd.v_at[:, X] * om.values_at[X] / om_u[:, None]


# ---------------------------------------------------------------------------
# rational second-order system
# ---------------------------------------------------------------------------

def _differences(x, u) -> np.ndarray:
    """The pairwise table D[a, b] = p_a - p_b over p = (0, x, u), real when x and u are."""
    pts = np.concatenate(([0.0], x, u))
    return np.subtract.outer(pts, pts)


def _check_regular(x: np.ndarray, u: np.ndarray, threshold: float) -> np.ndarray:
    """Raise SingularLocus at the first pair (row-major, i < j) of p = (0, x, u) closer
    than ``threshold`` max |p|; return the table D of :func:`_differences`."""
    D = _differences(x, u)
    dist = np.abs(D)
    scale = float(np.maximum.reduce(dist[:, 0]))
    close = dist < threshold * scale
    if np.count_nonzero(close) > len(D):            # more than the diagonal
        i, j = np.argwhere(np.triu(close, 1))[0]
        raise SingularLocus(f"branch points {complex(D[i, 0])} and {complex(D[j, 0])} "
                            f"within {threshold * scale}")
    return D


def _coefficients(D: np.ndarray, du: np.ndarray):
    """The tables (R, S1, Mu, Mx) of :func:`rhs_genus_g` from du and the table
    D of :func:`_differences`.

    R = 1 / D with 0 on the diagonal, S1[m] = sum_j du[m, j] - 1, and the
    inhomogeneous parts of the u-rows and the x-rows of the system,

        Mu[m] = S1[m] G[m] / lag[m] + H[m],
        Mx[m, k] = S1[m] Px[m, k] Gx[k] + line6[m, k] + line7[m, k],

    in the notation of :func:`rhs_genus_g`.  :func:`verify_identities` checks
    the Omega-weighted row sums of W against Mu and Mx.
    """
    g = len(du)
    n = 2 * g + 1
    X, U = slice(1, g + 1), slice(g + 1, n)
    D1 = D.copy()
    D1.flat[::n + 1] = 1.0                              # safe diagonal
    R = 1.0 / D1
    R.flat[::n + 1] = 0.0                               # reciprocals, 0 on the diagonal
    # q[0] = prod_s (-u_s), px[k] = prod_s (x_k - u_s), den[i] = prod_{s != i} (u_i - u_s)
    q = np.multiply.reduce(D1[:, U], axis=1)
    q0, px, den = q[0], q[X], q[U]
    # lag[j] = -q0 / (u_j den[j]), so with M = (R[1:, U] / den) @ R[U, :g+1] the
    # sums over lag are M[:, 0] = sum_j R[a, u_j] / (u_j den[j]), and M[:, 1:]
    # holds sum_i R[a, u_i] / (den[i] (u_i - x_k)) for line7 (rows x) and H (rows u)
    M = (R[1:, U] / den) @ R[U, :g + 1]
    Gx_G = R[1:, 0] + q0 * M[:, 0]                      # rows x: Gx, then rows u: G
    S1 = np.add.reduce(du, axis=1) - 1.0
    s = S1 * D[U, 0] / -q0                              # S1[m] / (lag[m] den[m])
    e = du * D[U, X]                                    # du[m, j] (u_m - x_j)
    ipx = 1.0 / px
    Mu = den * (s * Gx_G[g:] + np.add.reduce(du * ipx + e * M[g:, 1:], axis=1))
    Mx = R[U, X] * px * (e @ (R[X, X] * ipx[:, None] - M[:g, 1:]) - s[:, None] * Gx_G[:g])
    return R, S1, Mu, Mx


def rhs_genus_g(x, u, du) -> np.ndarray:
    """Full second-derivative tensor T[m, k, n] = d^2 u_{m+1} / dx_{k+1} dx_{n+1}.

    Rational in (x, u, du), valid for every genus >= 1 and computed in the dtype
    np.result_type(x, u, du, float): float64 on real inputs.  Entry by entry,
    with S[m] = sum_j du[m, j],

        T[m, k, k] = (du[m, k] (line1 + C[m, k, k]) + du[m, k]^2 (UX[m, k, k] + 1/(x_k - u_m))
                      - (S[m] - 1) Px[m, k] Gx[k] - line6[m, k] - line7[m, k]) / 2,
        T[m, k, n] = (Q[m, k, n] + Q[m, n, k] + du[m, k] du[m, n] UX[m, k, n]) / 2,  k != n,

    where Q[m, k, n] = du[m, k] (1/(x_k - x_n) + 1/(x_n - u_m) + C[m, k, n] / 2) and

    * line1[m, k] = -1/x_k - sum_{n != k} 1/(x_k - x_n) + 2 sum_{j != m} 1/(x_k - u_j)
      + 1/(x_k - u_m);
    * UX[m, k, n] = 1/u_m + sum_{i not in (k, n)} 1/(u_m - x_i) - 2 sum_{j != m} 1/(u_m - u_j)
      - (S[m] - 1) P[m] G[m] - H[m];
    * C[m, k, n] = sum_{j != m} (1/(u_m - u_j) - 1/(x_k - u_j)) du[j, n];
    * lag[j] = prod_{s != j} u_s / (u_s - u_j), P[m] = 1 / lag[m],
      G[m] = 1/u_m - sum_{j != m} lag[j] / (u_m - u_j), Gx[k] = 1/x_k - sum_j lag[j] / (x_k - u_j);
    * Px[m, k] = prod_{s != m} (u_s - x_k) / u_s, den[i] = prod_{s != i} (u_i - u_s);
    * H[m] = sum_j du[m, j] (1/(x_j - u_m) prod_{s != m} (u_m - u_s)/(x_j - u_s)
      + sum_{i != m} (x_j - u_m) den[m] / (den[i] (x_j - u_i)(u_m - u_i)));
    * line6[m, k] = sum_{j != k} du[m, j] / (x_j - x_k) prod_{s != m} (x_k - u_s) / (x_j - u_s),
      line7[m, k] = sum_{i, j} du[m, j] pref[k, i] (x_j - u_m) / ((x_j - u_i)(x_k - u_m))
      with pref[k, i] = prod_{s != i} (x_k - u_s) / (u_i - u_s).

    Array form: the singular-locus check returns the pairwise table
    D[a, b] = p_a - p_b over p = (0, x, u), and :func:`_coefficients` takes
    from it the reciprocals R (0 on the diagonal), S1 = S - 1 and the
    inhomogeneous tables Mu = S1 P G + H and Mx = S1 Px Gx + line6 + line7.
    As R is 0 on its diagonal, a sum over j != m or i not in (k, n) is the
    full sum less the excluded terms.  With the block row sums of R,

        a[k] = -1/x_k - sum_n 1/(x_k - x_n) + 2 sum_j 1/(x_k - u_j),
        b[m] = 1/u_m + sum_i 1/(u_m - x_i) - 2 sum_j 1/(u_m - u_j) - Mu[m],

    line1[m, k] = a[k] - 1/(x_k - u_m) and, for k != n,
    UX[m, k, n] = b[m] + 1/(x_k - u_m) + 1/(x_n - u_m), which at k = n is the
    du[m, k]^2 coefficient UX[m, k, k] + 1/(x_k - u_m) of the diagonal.  C is
    two g x g products, C[m, k, n] = (R_uu du)[m, n] - (R_xu du)[k, n]
    + du[m, n] / (x_k - u_m).  Collecting the terms of an entry by the factor
    du[m, k] or du[m, n] gives T[m, k, n] = P[m, k, n] + P[m, n, k] with

        P[m, k, n] = du[m, k] (F[k, n] + V[m, n]) / 2,
        F[k, n] = 1/(x_k - x_n) - (R_xu du)[k, n] / 2,
        V[m, n] = 1/(x_n - u_m) + (R_uu du)[m, n] / 2 + du[m, n] (b[m] + 3/(x_n - u_m)) / 2,

    and the diagonal adds (du[m, k] (a[k] - 3/(x_k - u_m)) - Mx[m, k]) / 2.
    T is that sum of P and its transpose, so it is exactly symmetric in
    (k, n).  The terms are grouped and summed in another order than in the
    entry-by-entry loop form of the system, so the two agree to rounding
    (about 1e-13 relative for g <= 8), not bit for bit.
    """
    dt = np.result_type(np.asarray(x), np.asarray(u), np.asarray(du), float)
    du = np.asarray(du, dtype=dt)
    g = len(du)
    D = _check_regular(np.asarray(x, dtype=dt), u, 1e-8)
    R, S1, Mu, Mx = _coefficients(D, du)
    X, U = slice(1, g + 1), slice(g + 1, 2 * g + 1)
    r_ux = R[U, X]                                      # 1/(u_m - x_k) = -1/(x_k - u_m)
    # block row sums: rows x give sum_n 1/(x_k - x_n) and sum_j 1/(x_k - u_j), rows u
    # sum_i 1/(u_m - x_i) and sum_j 1/(u_m - u_j); z is -a on rows x, b + Mu on rows u
    rs = np.add.reduce(R[1:, 1:].reshape(2 * g, 2, g), axis=2)
    z = R[1:, 0] + rs[:, 0] - 2.0 * rs[:, 1]
    hd = 0.5 * du
    E = R[1:, U] @ hd                                   # half of R_xu du (rows x), R_uu du (rows u)
    r3 = 3.0 * r_ux
    V = E[g:] - r_ux + hd * ((z[g:] - Mu)[:, None] - r3)
    P = hd[:, :, None] * (R[X, X] - E[:g] + V[:, None, :])
    T = P + np.swapaxes(P, 1, 2)
    T.reshape(g, g * g)[:, ::g + 1] += hd * (r3 - z[:g]) - 0.5 * Mx
    return T


# ---------------------------------------------------------------------------
# Newton projection onto the constant-period manifold
# ---------------------------------------------------------------------------

def period_jacobian(cfg: BranchConfig, pd: PeriodData, om: OmegaDifferential) -> np.ndarray:
    """J[j-1, k-1] = d beta_k / d u_j = pi i Omega(P_{u_j}) omega_k(P_{u_j})."""
    U = slice(1, cfg.genus + 1)
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
        # the quadrature floor, and so did a prediction that no update polished;
        # one more reaches it at quadratic convergence
        floor = (res_prev is not None and 1e3 * res >= res_prev) or res <= rounding
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
    drift_tol: float | None = None      # raise DriftExceeded beyond this

    def __post_init__(self):
        drift = {} if self.drift_tol is None else {"drift_tol": self.drift_tol}
        require_positive(quad_tol=self.quad_tol, macro_step=self.macro_step, **drift)


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
        if not np.isfinite(self.alpha).all():
            raise ValueError(f"alpha must be finite, not {self.alpha}")


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


def sample_periods(cfg: BranchConfig, samples, tol: float, basis=None):
    """Period data of ``samples`` on ``cfg``'s curve to ``tol`` in ``basis`` (else the
    default gap marking): one iterator of PeriodData per run of ``CHECK_BLOCK``
    samples, in path order.  A sample's own ``pd`` serves when it was computed for
    cfg.replace(x=s.x, u=s.u), to ``tol`` and in that marking; the rest of the run is
    one :func:`normalized_bases` stack, bit for bit the same.  If the stack raises,
    each of those samples gets a :func:`normalized_basis` call as the iterator reaches
    it, so the first failing sample raises after the ones before it are read.
    """
    samples = list(samples)
    for i in range(0, len(samples), CHECK_BLOCK):
        yield _run_periods([(cfg.replace(x=s.x, u=s.u), s.pd)
                            for s in samples[i:i + CHECK_BLOCK]], tol, basis)


def _run_periods(run, tol, basis):
    own = [pd if pd is not None and pd.cfg == c and pd.tol == tol
           and pd.basis == (basis or default_marking(pd.table)) else None for c, pd in run]
    need = [c for (c, _), pd in zip(run, own) if pd is None]
    try:
        stack = iter(normalized_bases(need, basis, tol) if need else ())
    except IsoperiodError:      # one by one, in turn
        stack = None
    for (c, _), pd in zip(run, own):
        yield pd or (next(stack) if stack else normalized_basis(c, basis=basis, tol=tol))


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


def _continuation_step(state, control, beta_target, p, d, s, t, u, du):
    """One implicit-mode step along x = p + tau d from tau = s, where (u, du)
    holds, to tau = t: the third-order predictor
    u + du dx + (2 T0(dx, dx) + T1(dx, dx)) / 6 with dx = x1 - x0, T = rhs_genus_g,
    T0 at (x0, u, du) and T1 at x1 on the second-order Taylor values
    (u + du dx + T0(dx, dx) / 2, du + T0 dx), then at most 3 Newton updates.  Its
    local error is O(|dx|^4); at a macro step of 0.025 it leaves a residual of
    order 1e-8, which one update takes to the rounding floor.  Returns (u, du, pd,
    updates) at x1, with the final Newton iterate's period data pd: usually two
    period evaluations a step.
    """
    x0, x1 = p + s * d, p + t * d
    dx = x1 - x0
    dxx = np.outer(dx, dx)
    u1 = u + du @ dx
    T0 = rhs_genus_g(x0, u, du)
    t0 = np.einsum("mkn,kn->m", T0, dxx)
    T1 = rhs_genus_g(x1, u1 + 0.5 * t0, du + T0 @ dx)
    u_pred = u1 + (2.0 * t0 + np.einsum("mkn,kn->m", T1, dxx)) / 6.0
    _check_regular(x1, u_pred, 1e-8)
    cfg, _, iters, pd, om = newton_correct(state.cfg.replace(x=x1, u=u_pred), state.alpha,
                                           beta_target, state.basis, NEWTON_TOL,
                                           control.quad_tol, 3)
    # a real step that reorders the branch points has jumped through a collision
    if cfg.real and np.any(np.argsort(cfg.points.real) != np.argsort(state.cfg.points.real)):
        raise SingularLocus(f"branch points changed order between x = {x0} and {x1}")
    return np.asarray(cfg.u, dtype=complex), first_derivatives(cfg, pd, om), pd, iters


def _rational_step(state, control, beta_target, p, d, s, t, u, du):
    """One rational-mode step along x = p + tau d from tau = s, where (u, du)
    holds, to tau = t: y = (u, du) evolves through the second-order rational
    system, u' = du d and du' = T d with T = rhs_genus_g, as one DOP853 step
    (:func:`solve_ivp`): in float64 when y, p and d have no imaginary part, else
    in complex128.  A step whose embedded error estimate is too large raises
    SingularLocus, so the caller halves it.  The step reads no periods: returns
    (u, du, None, 0) as complex128, and the caller checks the sample's drift later.
    """
    g = len(u)
    y0 = np.concatenate((u, du.reshape(-1)))
    if not (y0.imag.any() or p.imag.any() or d.imag.any()):     # a real curve stays real
        y0, p, d = y0.real, p.real, d.real

    def rhs(tau, y):
        du, f = y[g:].reshape(g, g), np.empty_like(y)
        np.matmul(du, d, out=f[:g])
        np.matmul(rhs_genus_g(p + tau * d, y[:g], du), d, out=f[g:].reshape(g, g))
        return f

    step = solve_ivp(rhs, (s, t), y0)
    if not step.error_norm < 1.0:                       # NaN fails too
        raise SingularLocus(f"step [{s}, {t}] rejected: error norm {step.error_norm:.3g}")
    return np.asarray(step.y[:g], complex), np.asarray(step.y[g:], complex).reshape(g, g), None, 0


def integrate_flow(state: DeformationState, path, control: FlowControl | None = None) -> Trajectory:
    """Integrate an isoperiodic deformation along a polyline in x-space.

    Each leg from path point p to the next distinct point q is the segment
    x = p + tau (q - p), tau in [0, 1], cut into ceil(|q - p| / ``control.macro_step``)
    equal macro steps (the quotient read with a relative slack of 1e-12, so rounding
    in q - p adds none), with a sample at each end.  A macro step is one call of the
    mode's step function (:func:`_continuation_step`, :func:`_rational_step`), halved on
    failure at most ``MAX_HALVINGS`` times (``info["halvings"]``).  One check records
    every sample, the start included, in path order (its drift, the ``drift_tol`` test):
    after a step that returned period data, when ``CHECK_BLOCK`` samples without any
    wait for :func:`sample_periods` (and ``info["du_consistency"]``), before a flow
    stopped by its halvings raises, and at the end.  Each sample keeps its ``pd``, about
    5 KB at genus 2.  More than ``MAX_MACRO_STEPS`` macro steps, an empty path, or a path
    point not finite or without one coordinate per x_j raise ValueError before any
    quadrature; on a real curve alpha . C must be real, or DegenerateConfig is raised.
    """
    control = control or FlowControl()
    cfg0 = state.cfg
    g = cfg0.genus
    raw, path = path, [np.atleast_1d(np.asarray(p, dtype=complex)) for p in path]
    if not path:
        raise ValueError("a path needs at least one point")
    for i, p in enumerate(path):
        if p.shape != (g,):
            raise ValueError(f"path point {i} ({raw[i]!r}) has {p.size} coordinates, "
                             f"not the {g} of genus {g}")
        if not np.isfinite(p).all():
            raise ValueError(f"path point {i} ({raw[i]!r}) is not finite")
    if np.max(np.abs(path[0] - np.asarray(cfg0.x))) > 1e-12 * max(1.0, cfg0.scale()):
        raise ValueError("path must start at the configuration's x")
    legs = [(p, q - p) for p, q in zip(path, path[1:]) if np.any(q != p)]
    # the slack keeps 0.02 / 0.01, which reads 2.0000000000000018, at 2 macro steps
    ratios = [float(np.linalg.norm(d)) / control.macro_step * (1.0 - 1e-12) for _, d in legs]
    nmacro = [max(1, math.ceil(r)) if r < math.inf else r for r in ratios]  # ceil(inf) raises
    if not (total := sum(nmacro)) <= MAX_MACRO_STEPS:
        raise ValueError(f"the path needs {total:.4g} macro steps, more than {MAX_MACRO_STEPS}")

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
    u = np.asarray(cfg0.u, dtype=complex)
    # the samples check() has not recorded, in path order, with their step's period data
    samples, pending = [], [FlowSample(np.asarray(cfg0.x).copy(), np.asarray(cfg0.u).copy(),
                                       du.copy(), None, pd=pd0)]

    def check():
        looked_up = chain.from_iterable(sample_periods(
            state.cfg, [s for s in pending if s.pd is None], control.quad_tol, state.basis))
        for new in pending:
            if new.pd is None:
                new.pd = pd = next(looked_up)
                du_pd = first_derivatives(pd.cfg, pd, build_omega(pd.cfg, pd, state.alpha))
                new.info["du_consistency"] = float(np.max(np.abs(du_pd - new.du)))
            new.beta_drift = np.abs(beta_from_evaluations(new.pd, state.alpha) - beta_target)
            if control.drift_tol is not None and np.max(new.beta_drift) > control.drift_tol:
                raise DriftExceeded(f"period drift {np.max(new.beta_drift):.3e} at x = {new.x}")
            samples.append(new)
        pending.clear()

    check()
    step = _continuation_step if state.mode == IMPLICIT else _rational_step
    for (p, d), count in zip(legs, nmacro):
        sgrid = [i / count for i in range(count + 1)]
        for a, b in zip(sgrid, sgrid[1:]):
            s, t = a, b
            halvings = iters = 0
            while s != b:
                try:
                    u, du, pd, n = step(state, control, beta_target, p, d, s, t, u, du)
                except (SingularLocus, NoProgress, SingularJacobian, VanishingOmegaAtU,
                        DegenerateConfig) as exc:
                    # any failed step is halved, as a collision is
                    halvings += 1
                    if halvings > MAX_HALVINGS:
                        check()     # the samples stepped before it are checked first
                        raise SingularLocus(f"flow stopped near x = {p + s * d}: "
                                            "singular locus") from exc
                    t = s + 0.5 * (t - s)
                    continue
                iters += n
                s, t = t, b
            info = {"halvings": halvings} | ({} if pd is None else {"newton_iters": iters})
            pending.append(FlowSample(p + b * d, u.copy(), du.copy(), None, info, pd))
            if pd is not None or len(pending) == CHECK_BLOCK:
                check()
    check()
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
    residuals in (tol, 0.25).  A period T that is zero or not finite raises
    ValueError.
    """
    if not (cmath.isfinite(T) and T):
        raise ValueError(f"the period T must be finite and nonzero, not {T!r}")
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
    v = pd.v_at                             # v[m-1, q] = v_m(P_q)

    if g == 1:
        report["omega_squares_sum"] = float(abs(np.sum(w_at[0, :-1] ** 2)))
        report["second_kind_residue_sum"] = float(abs(np.sum(w_at[0, :-1] * om_at)))

    du = first_derivatives(cfg, pd, om)
    R, S1, Mu, Mx = _coefficients(_differences(x, u), du)
    # vanishing residue sum of the dual-basis-weighted second-kind values
    v0 = om_at[0] * v[:, 0]
    report["dual_weighted_residue_sum"] = float(np.max(np.abs(
        v0 + v[:, X] @ om_at[X] + om_at[U])))
    report["derivative_sum_rule"] = float(np.max(np.abs(v0 / om_at[U] - S1)))

    I = w_constants(cfg, pd, tol)
    W = w_value(cfg, pd, I)                 # NaN on the diagonal
    report["W_symmetry"] = float(np.nanmax(np.abs(W - W.T)))
    report["beta_consistency"] = float(om.beta_residual)

    if g == 1:
        # genus-one normalization constants relative to omega
        w0, wu, wx = w_at[0, :3]             # at 0, u_1 and x_1
        I0, Iu, Ix = I[:3, 0] / wu
        x1, u1 = x[0], u[0]
        rel0 = I0 - (-1.0 / (w0 * x1) + (Ix - 1.0 / (x1 * wx)) * w0 / wx)
        relu = Iu - ((1.0 / ((u1 - x1) * wx) + Ix) * wu / wx - 1.0 / ((x1 - u1) * wu))
        report["normalization_constant_relation"] = float(max(abs(rel0), abs(relu)))
        # both coordinate expressions for W(P_x, P_u)
        e1 = (1.0 / ((x1 - u1) * wu) + Iu) * wx
        e2 = (1.0 / ((u1 - x1) * wx) + Ix) * wu
        report["W_xu_two_forms"] = float(abs(e1 - e2))

    Iv_x = (I[X] * v[:, X].T).sum(axis=1)
    if g >= 2:
        # R is in the order (0, x, u): r_xx[k, n] = 1/(x_k - x_n), r_xu[n, m] = 1/(x_n - u_m)
        r_xx, r_xu, r_uu = R[1:g + 1, 1:g + 1], R[1:g + 1, g + 1:], R[g + 1:, g + 1:]
        vx = v[:, X]                        # vx[j, n] = v_j(P_{x_n})
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
        W_sum[U] + Mu + I[U].diagonal())))
    report["w_residue_sum_at_x"] = float(np.max(np.abs(
        du * W_sum[X] - Mx + du * Iv_x)))
    return report
