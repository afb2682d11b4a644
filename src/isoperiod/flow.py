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
  integrated directly; no period computations happen inside the stepper.
  Each sample's drift is read from evaluations, 2 pi i omega(P_inf) + alpha B,
  so the b-cycles are integrated (for B) only when alpha is nonzero.

Multi-dimensional paths are integrated coordinate-by-coordinate along
axis-aligned legs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .curves import BranchConfig, idx_u, idx_x, idx_zero
from .errors import (DegenerateConfig, DriftExceeded, NoProgress, SingularJacobian,
                     SingularLocus, VanishingOmegaAtU)
from .periods import (OmegaDifferential, PeriodData, beta_from_evaluations,
                      build_omega, normalized_basis, w_constants, w_value)

IMPLICIT = "implicit"
RATIONAL = "rational"


# ---------------------------------------------------------------------------
# first-order system
# ---------------------------------------------------------------------------

def first_derivatives(cfg: BranchConfig, pd: PeriodData, om: OmegaDifferential,
                      zero_tol: float = 1e-11) -> np.ndarray:
    """du[m-1, j-1] = du_m/dx_j for the isoperiodic family through cfg.

    Requires Omega(P_{u_m}) != 0 for every m; a vanishing value means the
    constant-period manifold is not a graph over x there.
    """
    g = cfg.genus
    scale = float(np.max(np.abs(om.values_at))) or 1.0
    for m in range(1, g + 1):
        if abs(om.values_at[idx_u(m)]) < zero_tol * scale:
            raise VanishingOmegaAtU(m, om.values_at[idx_u(m)])
    pv = pd.v_poly_at
    du = np.empty((g, g), dtype=complex)
    for m in range(1, g + 1):
        for j in range(1, g + 1):
            xj = idx_x(g, j)
            v_at_xj = pv[m - 1, xj] * pd.phi_at[xj]
            du[m - 1, j - 1] = -v_at_xj * om.values_at[xj] / om.values_at[idx_u(m)]
    return du


# ---------------------------------------------------------------------------
# rational second-order system
# ---------------------------------------------------------------------------

def _check_regular(x: np.ndarray, u: np.ndarray, threshold: float) -> np.ndarray:
    """Raise SingularLocus at the first pair (row-major, i < j) of p = (0, x, u)
    closer than ``threshold`` relative; return the table D[a, b] = p_a - p_b."""
    pts = np.concatenate(([0.0], np.asarray(x, dtype=complex), np.asarray(u, dtype=complex)))
    scale = max(1.0, float(np.max(np.abs(pts))))
    D = pts[:, None] - pts[None, :]
    close = np.abs(D) < threshold * scale
    if np.count_nonzero(close) > len(pts):         # more than the diagonal
        i, j = np.argwhere(np.triu(close, 1))[0]
        raise SingularLocus(f"branch points {pts[i]} and {pts[j]} within {threshold * scale}")
    return D


def rhs_genus1(x: complex, u: complex, du: complex) -> complex:
    """Second derivative u'' of the genus-one isoperiodic deformation."""
    _check_regular(np.array([x]), np.array([u]), 1e-8)
    return (0.5 * (1.0 / x + 1.0 / (u - x))
            - 0.5 * du * (2.0 / x + 1.0 / (u - x))
            + 0.5 * du ** 2 * (2.0 / u + 1.0 / (x - u))
            - 0.5 * du ** 3 * (1.0 / u + 1.0 / (x - u)))


def rhs_genus_g(x, u, du) -> np.ndarray:
    """Full second-derivative tensor T[m, k, n] = d^2 u_{m+1} / dx_{k+1} dx_{n+1}.

    Rational in (x, u, du) and valid for every genus >= 1 (the genus-one
    diagonal entry reduces to :func:`rhs_genus1`).

    Array form: the singular-locus check returns the pairwise table
    D[a, b] = p_a - p_b over p = (0, x, u), whose blocks are x_a - x_b,
    x_a - u_b and u_a - u_b, and one division gives all their reciprocals
    (0 on the diagonal).  Every factor is built from them once per call:

    * lag[j] = prod_{s != j} u_s / (u_s - u_j), P[m] = prod_{s != m} (u_s - u_m) / u_s
      = 1 / lag[m], den[i] = prod_{s != i} (u_i - u_s) and R[m, i] = den[m] / den[i];
    * G[m] = 1/u_m - sum_{j != m} lag[j] / (u_m - u_j), Gx[k] = 1/x_k - sum_j lag[j] / (x_k - u_j);
    * Px[m, k] = prod_{s != m} (u_s - x_k) / u_s,
      pref[k, i] = prod_{s != i} (x_k - u_s) / (u_i - u_s);
    * C[m, k, n] = sum_{j != m} (1/(u_m - u_j) - 1/(x_k - u_j)) du[j, n] (line 3 at n = k);
    * H[m] = sum_j du[m, j] (1/(x_j - u_m) prod_{s != m} (u_m - u_s)/(x_j - u_s)
      + sum_{i != m} (x_j - u_m) R[m, i] / ((x_j - u_i)(u_m - u_i))).

    The s != m and j != m products and sums are masked with the identity.
    Mixed values are evaluated over all (k, n) and the k < n value is written
    to both T[m, k, n] and T[m, n, k], so T is exactly symmetric in (k, n).
    The terms are grouped and summed in another order than in the
    entry-by-entry loop form of the system, so the two agree to rounding
    (about 1e-14 relative for g <= 6), not bit for bit.
    """
    x = np.asarray(x, dtype=complex)
    u = np.asarray(u, dtype=complex)
    du = np.asarray(du, dtype=complex)
    g = len(x)
    D = _check_regular(x, u, 1e-8)                      # p_a - p_b over p = (0, x, u)
    E = np.eye(2 * g + 1, dtype=bool)
    D1 = np.where(E, 1.0, D)                            # safe diagonal
    R = np.where(E, 0.0, 1.0 / D1)                      # reciprocals, 0 on the diagonal
    X, U = slice(1, g + 1), slice(g + 1, 2 * g + 1)
    xu, ux, uu, uu1 = D[X, U], D[U, X], D[U, U], D1[U, U]
    r_x, r_u = R[X, 0], R[U, 0]
    r_xx, r_xu, r_ux, r_uu = R[X, X], R[X, U], R[U, X], R[U, U]
    ar = np.arange(g)
    eye = ar[:, None] == ar
    e_m = eye[:, None, :]                               # s == m over (m, ., s)

    lag = np.where(eye, 1.0, u[:, None] / uu1).prod(axis=0)
    den = uu1.prod(axis=1)
    G = r_u - r_uu @ lag
    Gx = r_x - r_xu @ lag
    Px = np.where(e_m, 1.0, (ux.T / u)[None]).prod(axis=-1)
    pref = np.where(eye[None], 1.0, xu[:, None, :] / uu1[None]).prod(axis=-1)
    C = np.where(e_m, 0.0, r_uu[:, None, :] - r_xu[None]) @ du

    term = r_xu.T * np.where(e_m, 1.0, uu[:, None, :] / xu[None]).prod(axis=-1)
    inner = xu.T * ((r_uu * den[:, None] / den[None, :]) @ r_xu.T)
    H = (du * (term + inner)).sum(axis=1)
    S1 = du.sum(axis=1) - 1.0
    # P_m = 1 / lag[m]; base collects the m-only part of the du^2 coefficients
    base = r_u - 2.0 * r_uu.sum(axis=1) - S1 * G / lag - H
    kn = ~eye[:, None, :] & ~eye[None]                  # i not in (k, n)
    UX = np.where(kn, r_ux[:, None, None, :], 0.0).sum(axis=-1)

    # diagonal entries T[m, k, k]
    line1 = ((-r_x - r_xx.sum(axis=1))[None]
             + 2.0 * np.where(e_m, 0.0, r_xu[None]).sum(axis=-1) + r_xu.T)
    line2 = base[:, None] + UX[:, ar, ar] + r_xu.T
    ratio = np.where(eye[:, None, None, :], 1.0, (xu[:, None, :] / xu[None])[None]).prod(axis=-1)
    line6 = (ratio * r_xx.T[None] * du[:, None, :]).sum(axis=-1)
    line7 = r_xu.T * ((du * xu.T) @ (r_xu @ pref.T))
    diag = 0.5 * (du * (line1 + C[:, ar, ar]) + du ** 2 * line2
                  - S1[:, None] * Px * Gx - line6 - line7)

    # mixed entries, Q[m, k, n] = du[m, k] (1/(x_k - x_n) + 1/(x_n - u_m) + C[m, k, n] / 2)
    Q = du[:, :, None] * (r_xx + r_xu.T[:, None, :] + 0.5 * C)
    val = 0.5 * (Q + np.swapaxes(Q, 1, 2)
                 + du[:, :, None] * du[:, None, :] * (base[:, None, None] + UX))
    T = np.where(ar[:, None] < ar, val, np.swapaxes(val, 1, 2))
    T[:, ar, ar] = diag
    return T


# ---------------------------------------------------------------------------
# Newton projection onto the constant-period manifold
# ---------------------------------------------------------------------------

def period_jacobian(cfg: BranchConfig, pd: PeriodData, om: OmegaDifferential) -> np.ndarray:
    """J[j-1, k-1] = d beta_k / d u_j = pi i Omega(P_{u_j}) omega_k(P_{u_j})."""
    g = cfg.genus
    J = np.empty((g, g), dtype=complex)
    for j in range(1, g + 1):
        J[j - 1, :] = 1j * math.pi * om.values_at[idx_u(j)] * pd.omega_at[:, idx_u(j)]
    return J


def newton_correct(cfg: BranchConfig, alpha, beta_target, basis=None,
                   tol: float = 1e-11, quad_tol: float = 1e-11,
                   max_iter: int = 5):
    """Newton-project u onto beta(x, u) = beta_target at fixed x.

    Returns (corrected cfg, final residual, updates applied), at most
    ``max_iter`` updates.  Raises SingularJacobian / NoProgress on failure.
    """
    return _project(cfg, alpha, beta_target, basis, tol, quad_tol, max_iter)[:3]


def _project(cfg, alpha, beta_target, basis, tol, quad_tol, max_iter):
    """newton_correct, also returning the final iterate's PeriodData and
    OmegaDifferential: (cfg, residual, updates, pd, om)."""
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
    rk_rtol: float = 1e-9               # RK45 tolerances, rational mode only
    rk_atol: float = 1e-12
    macro_step: float = 0.01
    correct: bool = True                # implicit mode: Newton after the Taylor predictor
    newton_tol: float = 1e-11
    drift_tol: float | None = None      # raise DriftExceeded beyond this
    max_halvings: int = 40              # per macro step, on a failed step


@dataclass
class DeformationState:
    cfg: BranchConfig
    alpha: np.ndarray
    beta_target: np.ndarray | None = None
    mode: str = IMPLICIT
    du: np.ndarray | None = None
    basis: object = None

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=complex)
        if self.mode not in (IMPLICIT, RATIONAL):
            raise ValueError(f"mode must be {IMPLICIT!r} or {RATIONAL!r}, not {self.mode!r}")
        g = self.cfg.genus
        if self.du is not None and np.shape(self.du) != (g, g):
            raise ValueError(f"du must be {g}x{g}, not of shape {np.shape(self.du)}")


@dataclass
class FlowSample:
    x: np.ndarray
    u: np.ndarray
    du: np.ndarray
    beta_drift: np.ndarray
    info: dict = field(default_factory=dict)


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


def _axis_legs(path):
    """Split a polyline in x-space into (coordinate, start, stop) legs."""
    path = [np.atleast_1d(np.asarray(p, dtype=complex)) for p in path]
    legs = []
    for p, q in zip(path, path[1:]):
        moved = np.nonzero(np.abs(q - p) > 0)[0]
        if len(moved) == 0:
            continue
        if len(moved) != 1:
            raise ValueError("flow paths must consist of axis-aligned legs; "
                             "split diagonal moves into per-coordinate legs")
        legs.append((int(moved[0]), p.copy(), q.copy()))
    return path, legs


def _continuation_step(state, control, beta_target, x0, x1, u, du, coord):
    """One implicit-mode step from (x0, u, du) to x1: the Taylor predictor
    u + h du + h^2 T / 2 with T = rhs_genus_g, then at most 3 Newton updates
    (none without ``control.correct``).  Returns (cfg, pd, om, du, updates) at x1.
    """
    h = x1[coord] - x0[coord]
    T = rhs_genus_g(x0, u, du)
    u_pred = u + h * du[:, coord] + 0.5 * h * h * T[:, coord, coord]
    _check_regular(x1, u_pred, 1e-8)
    tol, max_iter = (control.newton_tol, 3) if control.correct else (math.inf, 0)
    cfg, _, iters, pd, om = _project(state.cfg.replace(x=x1, u=u_pred), state.alpha,
                                     beta_target, state.basis, tol, control.quad_tol,
                                     max_iter)
    # a real step that reorders the branch points has jumped through a collision
    if cfg.real and np.any(np.argsort(cfg.points.real) != np.argsort(state.cfg.points.real)):
        raise SingularLocus(f"branch points changed order between x = {x0} and {x1}")
    return cfg, pd, om, first_derivatives(cfg, pd, om), iters


def integrate_flow(state: DeformationState, path, control: FlowControl | None = None) -> Trajectory:
    """Integrate an isoperiodic deformation along an axis-aligned x-path.

    Samples are recorded at macro-step boundaries (spacing ``control.macro_step``
    along each leg).  In implicit mode each macro step is one predictor-corrector
    step whose final Newton iterate gives the sample's du and drift; in rational
    mode the state (u, du) evolves through the second-order rational system and
    periods are only recomputed for drift reporting.  Failed steps are halved.
    On a real curve the prescribed a-periods must keep the differential real
    (alpha . C real); other alpha raise DegenerateConfig before the first step.
    """
    control = control or FlowControl()
    cfg0 = state.cfg
    g = cfg0.genus
    path, legs = _axis_legs(path)
    if np.max(np.abs(path[0] - np.asarray(cfg0.x))) > 1e-12 * max(1.0, cfg0.scale()):
        raise ValueError("path must start at the configuration's x")

    pd0 = normalized_basis(cfg0, basis=state.basis, tol=control.quad_tol)
    # alpha sets alpha . C in Omega's polynomial; unless that is real, a real
    # curve leaves the real locus at the first step
    alpha_c = state.alpha @ pd0.C
    if cfg0.real and np.max(np.abs(alpha_c.imag)) > 1e-9 * np.max(np.abs(alpha_c)):
        raise DegenerateConfig(f"alpha violates the reality condition of a real curve: "
                               f"alpha . C = {alpha_c} is not real")
    om0 = build_omega(cfg0, pd0, state.alpha)
    beta0 = beta_from_evaluations(pd0, state.alpha)
    beta_target = beta0 if state.beta_target is None else np.asarray(state.beta_target, dtype=complex)
    du0 = first_derivatives(cfg0, pd0, om0)
    if state.mode == RATIONAL and state.du is not None:
        du0 = np.asarray(state.du, dtype=complex)

    samples = [FlowSample(x=np.asarray(cfg0.x).copy(), u=np.asarray(cfg0.u).copy(),
                          du=du0.copy(), beta_drift=np.abs(beta0 - beta_target),
                          info={"leg": -1})]
    u = np.asarray(cfg0.u, dtype=complex)
    du = du0.copy()

    for leg_no, (coord, p, q) in enumerate(legs):
        s0, s1 = complex(p[coord]), complex(q[coord])
        step = s1 - s0
        nmacro = max(1, int(math.ceil(abs(step) / control.macro_step)))
        # real leg parameter tau in [0, 1]; s = s0 + tau * (s1 - s0)
        sgrid = [i / nmacro for i in range(nmacro + 1)]
        x_template = p.astype(complex).copy()

        def x_at(tau):
            x = x_template.copy()
            x[coord] = s0 + tau * step
            return x

        def rhs(tau, y):        # rational mode: y = (u, du) against tau
            du = y[g:].reshape(g, g)
            T = rhs_genus_g(x_at(tau), y[:g], du)
            return step * np.concatenate((du[:, coord], T[:, :, coord].reshape(-1)))

        for a, b in zip(sgrid, sgrid[1:]):
            sub_from, target = a, b
            halvings = iters = 0
            while True:
                try:
                    if state.mode == IMPLICIT:
                        cfg_now, pd, om, du, n = _continuation_step(
                            state, control, beta_target, x_at(sub_from), x_at(target),
                            u, du, coord)
                        u = np.asarray(cfg_now.u, dtype=complex)
                        iters += n
                    else:
                        y = np.concatenate((u, du.reshape(-1)))
                        sol = solve_ivp(rhs, (sub_from, target), y, method="RK45",
                                        rtol=control.rk_rtol, atol=control.rk_atol)
                        if not sol.success:
                            raise SingularLocus(f"integrator failed on leg [{sub_from}, {target}]: "
                                                f"{sol.message}")
                        u, du = sol.y[:g, -1], sol.y[g:, -1].reshape(g, g)
                except (SingularLocus, NoProgress, SingularJacobian, VanishingOmegaAtU,
                        DegenerateConfig) as exc:
                    # any failed step is halved, as a collision is
                    halvings += 1
                    if halvings > control.max_halvings:
                        raise SingularLocus(
                            f"flow stopped near x[{coord}] = {s0 + sub_from * step}: "
                            "singular locus") from exc
                    target = sub_from + 0.5 * (target - sub_from)
                    continue
                if target == b:
                    break
                sub_from, target = target, b

            x_now = x_at(b)
            info = {"leg": leg_no}
            if state.mode == IMPLICIT:
                info.update(newton_iters=iters, halvings=halvings)
            else:
                cfg_now = state.cfg.replace(x=x_now, u=u)
                pd = normalized_basis(cfg_now, basis=state.basis, tol=control.quad_tol)
                om = build_omega(cfg_now, pd, state.alpha)
                du_fresh = first_derivatives(cfg_now, pd, om)
                info["du_consistency"] = float(np.max(np.abs(du_fresh - du)))
            drift = np.abs(beta_from_evaluations(pd, state.alpha) - beta_target)
            if control.drift_tol is not None and np.max(drift) > control.drift_tol:
                raise DriftExceeded(f"period drift {np.max(drift):.3e} at x = {x_now}")
            samples.append(FlowSample(x=x_now.copy(), u=u.copy(), du=du.copy(),
                                      beta_drift=drift, info=info))
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

    Covers the vanishing-residue sums, the coordinate expressions for the
    bidifferential at ramification-point pairs, and the genus-one relations
    between the bidifferential normalization constants.
    """
    g = cfg.genus
    x = np.asarray(cfg.x)
    u = np.asarray(cfg.u)
    report = {}
    om_at = om.values_at
    w_at = pd.omega_at

    v_at_tab = pd.v_poly_at * pd.phi_at

    if g == 1:
        report["omega_squares_sum"] = float(abs(np.sum(w_at[0, :-1] ** 2)))
        report["second_kind_residue_sum"] = float(abs(np.sum(w_at[0, :-1] * om_at)))

    # vanishing residue sum of the dual-basis-weighted second-kind values
    dual_residue = []
    slope_sum = []
    du = first_derivatives(cfg, pd, om)
    for m in range(1, g + 1):
        s = (om_at[idx_zero()] * v_at_tab[m - 1, idx_zero()]
             + sum(om_at[idx_x(g, i)] * v_at_tab[m - 1, idx_x(g, i)] for i in range(1, g + 1))
             + om_at[idx_u(m)])
        dual_residue.append(abs(s))
        lhs = om_at[idx_zero()] * v_at_tab[m - 1, idx_zero()] / om_at[idx_u(m)]
        slope_sum.append(abs(lhs - (np.sum(du[m - 1]) - 1.0)))
    report["dual_weighted_residue_sum"] = float(max(dual_residue))
    report["derivative_sum_rule"] = float(max(slope_sum))

    n_pts = 2 * g + 1
    I_tab = [w_constants(cfg, pd, k, tol) for k in range(n_pts)]
    # W[a, b] = W(P_a, P_b); the diagonal is a double pole and is never read
    W = np.array([[w_value(cfg, pd, a, b, I_tab[b]) if a != b else np.nan
                   for b in range(n_pts)] for a in range(n_pts)])

    sym = max(abs(W[a, b] - W[b, a]) for a in range(n_pts) for b in range(a + 1, n_pts))
    report["W_symmetry"] = float(sym)
    report["beta_consistency"] = float(om.beta_residual)

    if g == 1:
        # genus-one normalization constants relative to omega
        w0, wu, wx = w_at[0, idx_zero()], w_at[0, idx_u(1)], w_at[0, idx_x(1, 1)]
        Iw = {k: I_tab[k][0] / wu for k in range(3)}
        I0, Iu, Ix = Iw[idx_zero()], Iw[idx_u(1)], Iw[idx_x(1, 1)]
        x1, u1 = x[0], u[0]
        rel0 = I0 - (-1.0 / (w0 * x1) + (Ix - 1.0 / (x1 * wx)) * w0 / wx)
        relu = Iu - ((1.0 / ((u1 - x1) * wx) + Ix) * wu / wx - 1.0 / ((x1 - u1) * wu))
        report["normalization_constant_relation"] = float(max(abs(rel0), abs(relu)))
        # both coordinate expressions for W(P_x, P_u)
        e1 = (1.0 / ((x1 - u1) * wu) + Iu) * wx
        e2 = (1.0 / ((u1 - x1) * wx) + Ix) * wu
        report["W_xu_two_forms"] = float(abs(e1 - e2))

    if g >= 2:
        t1 = []
        for k in range(1, g + 1):
            for n in range(1, g + 1):
                if n == k:
                    continue
                lhs = sum(W[idx_u(j), idx_x(g, k)] * v_at_tab[j - 1, idx_x(g, n)]
                          for j in range(1, g + 1))
                rational = (pd.phi_at[idx_x(g, n)] / pd.phi_at[idx_x(g, k)]
                            / (x[k - 1] - x[n - 1])
                            * np.prod(x[n - 1] - u) / np.prod(x[k - 1] - u))
                t1.append(abs(lhs - W[idx_x(g, n), idx_x(g, k)] - rational))
        report["w_dual_expansion_xx"] = float(max(t1))

        t2 = []
        for m in range(1, g + 1):
            for n in range(1, g + 1):
                lhs = sum(W[idx_u(j), idx_u(m)] * v_at_tab[j - 1, idx_x(g, n)]
                          for j in range(1, g + 1) if j != m)
                vmx = v_at_tab[m - 1, idx_x(g, n)]
                rhs = (W[idx_x(g, n), idx_u(m)] - vmx / (x[n - 1] - u[m - 1])
                       + vmx * sum(1.0 / (u[m - 1] - u[i - 1]) for i in range(1, g + 1) if i != m)
                       - vmx * I_tab[idx_u(m)][m - 1])
                t2.append(abs(lhs - rhs))
        report["w_dual_expansion_xu"] = float(max(t2))

        t3 = []
        for k in range(1, g + 1):
            xk = idx_x(g, k)
            lhs = sum(W[idx_u(j), xk] * v_at_tab[j - 1, xk] for j in range(1, g + 1))
            rhs = (sum(I_tab[xk][j - 1] * v_at_tab[j - 1, xk] for j in range(1, g + 1))
                   - np.sum(1.0 / (x[k - 1] - u)))
            t3.append(abs(lhs - rhs))
        report["w_dual_expansion_diag"] = float(max(t3))

    report["w_residue_sum_at_u"] = float(max(_w_residue_u_defect(cfg, pd, om, du, I_tab, W, m)
                                           for m in range(1, g + 1)))
    report["w_residue_sum_at_x"] = float(max(
        _w_residue_x_defect(cfg, pd, om, du, I_tab, W, v_at_tab, m, k)
        for m in range(1, g + 1) for k in range(1, g + 1)))
    return report


def _w_residue_u_defect(cfg, pd, om, du, I_tab, W, m):
    g = cfg.genus
    x = np.asarray(cfg.x)
    u = np.asarray(cfg.u)
    um = u[m - 1]
    u_others = np.delete(u, m - 1)
    O_um = om.values_at[idx_u(m)]
    lhs = (W[idx_u(m), idx_zero()] * om.values_at[idx_zero()] / O_um
           + sum(W[idx_u(m), idx_x(g, i)] * om.values_at[idx_x(g, i)] / O_um
                 for i in range(1, g + 1))
           + sum(W[idx_u(m), idx_u(j)] * om.values_at[idx_u(j)] / O_um
                 for j in range(1, g + 1) if j != m))
    S = np.sum(du[m - 1])
    prod_m = np.prod(um - u_others) if g > 1 else 1.0 + 0.0j
    term1 = prod_m / np.prod(-u)
    term2 = 0.0 + 0.0j
    for j in range(1, g + 1):
        if j == m:
            continue
        oth = np.delete(u, sorted({m - 1, j - 1}))
        num = um * (np.prod(um - oth) if len(oth) else 1.0)
        term2 += num / (u[j - 1] * np.prod(u[j - 1] - np.delete(u, j - 1)))
    rhs = (S - 1.0) * (term1 + term2)
    rhs -= sum(prod_m / np.prod(x[j - 1] - u) * du[m - 1, j - 1] for j in range(1, g + 1))
    for j in range(1, g + 1):
        if j == m:
            continue
        oth = np.delete(u, sorted({m - 1, j - 1}))
        for i in range(1, g + 1):
            num = (x[i - 1] - um) * (np.prod(um - oth) if len(oth) else 1.0)
            den = (x[i - 1] - u[j - 1]) * np.prod(u[j - 1] - np.delete(u, j - 1))
            rhs -= num / den * du[m - 1, i - 1]
    rhs -= I_tab[idx_u(m)][m - 1]
    return abs(lhs - rhs)


def _w_residue_x_defect(cfg, pd, om, du, I_tab, W, v_at_tab, m, k):
    g = cfg.genus
    x = np.asarray(cfg.x)
    u = np.asarray(cfg.u)
    um = u[m - 1]
    xk = x[k - 1]
    Oxk = om.values_at[idx_x(g, k)]
    T = (W[idx_x(g, k), idx_zero()] * om.values_at[idx_zero()] / Oxk
         + sum(W[idx_x(g, k), idx_x(g, j)] * om.values_at[idx_x(g, j)] / Oxk
               for j in range(1, g + 1) if j != k)
         + sum(W[idx_x(g, k), idx_u(j)] * om.values_at[idx_u(j)] / Oxk
               for j in range(1, g + 1)))
    lhs = du[m - 1, k - 1] * T
    S = np.sum(du[m - 1])
    u_others = np.delete(u, m - 1)
    term1 = np.prod(xk - u_others) / (xk * np.prod(-u_others))
    # uniform second group, valid including j = m (where the factored form
    # would otherwise drop its 1/(x_k - u_m))
    term2 = 0.0 + 0.0j
    for j in range(1, g + 1):
        term2 += ((um / u[j - 1]) * np.prod(xk - u_others)
                  / ((u[j - 1] - xk) * np.prod(u[j - 1] - np.delete(u, j - 1))))
    rhs = (S - 1.0) * (term1 + term2)
    rhs -= du[m - 1, k - 1] * sum(I_tab[idx_x(g, k)][j - 1] * v_at_tab[j - 1, idx_x(g, k)]
                                  for j in range(1, g + 1))
    for j in range(1, g + 1):
        if j == k:
            continue
        ratio = np.prod(xk - u_others) / np.prod(x[j - 1] - u_others)
        rhs += ratio / (x[j - 1] - xk) * du[m - 1, j - 1]
    for i in range(1, g + 1):
        for j in range(1, g + 1):
            num = (x[i - 1] - um) * np.prod(xk - u_others)
            den = (u[j - 1] - xk) * (x[i - 1] - u[j - 1]) * np.prod(u[j - 1] - np.delete(u, j - 1))
            rhs -= du[m - 1, i - 1] * num / den
    return abs(lhs - rhs)
