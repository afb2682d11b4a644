"""Independent numerical oracles used by the tests.

These implement textbook methods with no code shared with the package, so
they can referee the package's own quadrature, branch tracking and flow
machinery:

* the arithmetic-geometric mean and Gauss-Chebyshev segment quadrature
  (elliptic a-periods);
* finite differences (derivatives of flows and periods);
* ``theta_constants``: the theta constants of a Riemann matrix with
  half-integer characteristics, by direct lattice sums, for Thomae's formula
  (B from the branch points alone, no quadrature);
* ``BranchOfMu``/``mu_along_path``: pathwise continuation of mu by unwrapped
  factor arguments, against the contour branch tracking of ``cycles``;
* ``eval_at_infinity``: an FFT Laurent fit at the branch point at infinity,
  against the closed-form evaluations of ``periods``;
* ``PointCurve``: a curve over an arbitrary odd point set, for variational
  checks that move the branch point at the origin, which the package's
  fixed-zero ``BranchConfig`` cannot;
* ``v_at``: the dual-basis differential v_m at one ramification point from
  its closed form, against the table ``PeriodData.v_at``;
* ``rhs_genus1`` and ``rhs_genus2_example``: hand-derived genus-one and
  genus-two closed forms of the second derivatives, against the general
  ``rhs_genus_g`` and finite differences of the flows;
* ``rhs_genus_g_loops``: the second-order system entry by entry in scalar
  loops, against the array form of ``rhs_genus_g``;
* ``w_identity_loops``: the symmetry and dual-basis expansion checks of the
  W table in scalar loops, against the array form of ``verify_identities``;
* ``real_ellipse`` and ``hint_circle``: lifted ellipses and circles around
  the cycles of a real marking, which the engine integrates on segments
  only; the package's contour quadrature on them referees the segment
  periods (``poly_rows`` and ``omega_coefficients`` give it Omega's
  polynomial), and ``ellipse_w_constants`` integrates the pole differentials
  of ``w_constants`` themselves on the circles, against their reduced pole
  polynomials on the segments or circles, and solves with the a-periods of
  the dual basis from its monomial coefficients (``curves.v_polynomial``),
  against the product with Omega at the u_m;
* ``wp_laurent``: the Weierstrass function from its Laurent series at the
  nearest lattice point, against the theta-quotient series of
  ``wp_function``;
* ``tanh_sinh_levels``: the segment kernel one refinement level per pass,
  against the one-pass first levels of ``tanh_sinh``;
* ``first_derivatives_loops`` and ``period_jacobian_loops``: du/dx and the
  period Jacobian entry by entry, against their array forms in ``flow``;
* ``omega_zeros_fixed_steps``: the zeros of the comb polynomial after a
  fixed number of Newton steps, against ``comb._polished_roots``, the comb's
  batched root solve, which stops at a fixed point.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np


def agm(a: float, b: float) -> float:
    for _ in range(80):
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        if abs(a - b) <= 1e-17 * abs(a):
            break
    return 0.5 * (a + b)


def ellipk_agm(k: float) -> float:
    """Complete elliptic integral K(k), modulus convention."""
    return math.pi / (2.0 * agm(1.0, math.sqrt(1.0 - k * k)))


def chebyshev_segment(f, a: float, b: float, n: int = 4000) -> float:
    """int_a^b f(t) / sqrt((t - a)(b - t)) dt by Gauss-Chebyshev nodes."""
    theta = (2.0 * np.arange(1, n + 1) - 1.0) * math.pi / (2.0 * n)
    t = 0.5 * (a + b) + 0.5 * (b - a) * np.cos(theta)
    return float((math.pi / n) * np.sum(f(t)))


def gap_period_integral(u: float, x: float, n: int = 4000) -> float:
    """int_u^x dt / sqrt(t (t - u)(x - t)) for 0 < u < x."""
    return chebyshev_segment(lambda t: 1.0 / np.sqrt(t), u, x, n)


def second_difference(vals, h: float):
    """Centered second differences of a 1-D sample array on a uniform grid."""
    vals = np.asarray(vals)
    return (vals[2:] - 2.0 * vals[1:-1] + vals[:-2]) / h ** 2


class BranchOfMu:
    """Analytic continuation state for mu along a path in the lambda plane.

    mu^2 = prod(lambda - p_i).  Tracks the unwrapped argument of every linear
    factor (lambda - p_i), so a closed loop around an even number of branch
    points returns the starting value exactly, and a loop around a single
    branch point flips the sign.  A fresh state starts on the principal
    branch: every factor carries its principal argument.
    """

    def __init__(self, points, lam, args=None):
        self.points = np.asarray(points, dtype=complex)
        self.lam = complex(lam)
        if args is None:
            args = np.angle(self.lam - self.points)
        self.args = np.asarray(args, dtype=float)

    @property
    def mu(self) -> complex:
        d = self.lam - self.points
        return math.exp(0.5 * float(np.sum(np.log(np.abs(d))))) * cmath.exp(
            0.5j * float(np.sum(self.args)))

    def advance(self, lam_new: complex) -> "BranchOfMu":
        """Continue to ``lam_new`` along the straight segment from the current point.

        The segment must not pass through (or on the far side of) a branch
        point; callers are responsible for subdividing paths finely enough.
        """
        self.args = self.args + np.angle((lam_new - self.points) / (self.lam - self.points))
        self.lam = complex(lam_new)
        return self


def _seg_point_dist(a: complex, b: complex, p: complex) -> float:
    """Distance from point p to segment [a, b]."""
    ab = b - a
    denom = abs(ab) ** 2
    if denom == 0.0:
        return abs(p - a)
    t = min(1.0, max(0.0, ((p - a) * ab.conjugate()).real / denom))
    return abs(p - (a + t * ab))


def mu_along_path(points, path, start=None) -> complex:
    """Continue mu along a polyline of lambda values and return the end value.

    Continuation starts from ``start`` (principal branch at path[0] when
    omitted).  Each leg is subdivided so that every factor's argument turns by
    at most about one radian per sub-step; the path must avoid the branch points.
    """
    pts = np.asarray(points, dtype=complex)
    path = [complex(z) for z in path]
    state = BranchOfMu(pts, path[0]) if start is None else start
    for a, b in zip(path, path[1:]):
        max_turn = max(abs(b - a) / _seg_point_dist(a, b, p) for p in pts)
        nsub = max(1, int(math.ceil(max_turn)))
        for k in range(1, nsub + 1):
            state.advance(a + (b - a) * k / nsub)
    return state.mu


def eval_at_infinity(points, rational_part, radius_factor: float = 10.0, n: int = 256):
    """Laurent data at the branch point at infinity of rational_part(lambda) dlambda / mu.

    Expands eta / d(zeta) in the local parameter zeta = 1 / sqrt(lambda) on
    the sheet where mu ~ +lambda^(g + 1/2), by sampling on |lambda| = R with
    R = radius_factor * max|branch point| and Fourier transforming.  Returns
    (coefficients dict for zeta powers -4..4, value at infinity, double-pole
    coefficient, residual estimate from a Richardson check at 2R).
    """
    pts = np.asarray(points, dtype=complex)

    def fit(R):
        rho = 1.0 / math.sqrt(R)
        zeta = rho * np.exp(2j * math.pi * np.arange(n) / n)
        lam = zeta ** -2
        # principal sqrt of the product of (1 - p * zeta^2): analytic near zeta = 0
        prod = np.prod(1.0 - pts[None, :] * zeta[:, None] ** 2, axis=1)
        mu = zeta ** -(len(pts)) * np.sqrt(prod)
        h = -2.0 * zeta ** -3 * rational_part(lam) / mu
        coef = np.fft.fft(h) / n
        return {k: complex(coef[k % n] / rho ** k) for k in range(-4, 5)}

    R = radius_factor * max(1.0, float(np.max(np.abs(pts))))
    c1 = fit(R)
    c2 = fit(2.0 * R)
    resid = max(abs(c1[k] - c2[k]) for k in (-2, -1, 0))
    return c2, c2[0], c2[-2], resid


@dataclass(frozen=True)
class PointCurve:
    """A curve mu^2 = prod(lambda - p_i) over an arbitrary distinct point set.

    Exposes the surface the period engine reads from a ``BranchConfig``
    (``points``, ``genus``, ``real``, ``scale``), so ``normalized_basis``
    takes it; an even point count raises DegenerateConfig.
    """

    pts: tuple
    real: bool = False

    def __post_init__(self):
        from isoperiod.errors import DegenerateConfig

        object.__setattr__(self, "pts", tuple(complex(v) for v in self.pts))
        if len(self.pts) % 2 == 0:
            raise DegenerateConfig("need an odd number of finite branch points")

    @property
    def genus(self) -> int:
        return (len(self.pts) - 1) // 2

    @property
    def points(self) -> np.ndarray:
        return np.asarray(self.pts)

    def scale(self) -> float:
        return float(np.max(np.abs(self.points)))


def v_at(cfg, m: int, q: int) -> complex:
    """v_m(P_q) for the finite ramification point q of (0, u_1..u_g, x_1..x_g).

    v_m = phi prod_{i != m}(lambda - u_i) / (phi(P_{u_m}) prod_{i != m}(u_m - u_i)),
    phi(P_j) = 2 / sqrt(prod_{i != j}(p_j - p_i)) with the principal root of
    the full product; v_m(P_{u_i}) = delta_{mi} holds exactly by construction.
    """
    pts = [complex(p) for p in cfg.points]
    if q == m:
        return 1.0 + 0.0j
    if 1 <= q <= cfg.genus:
        return 0.0 + 0.0j

    def phi(j):
        prod = 1.0 + 0.0j
        for i, p in enumerate(pts):
            if i != j:
                prod *= pts[j] - p
        return 2.0 / cmath.sqrt(prod)

    others = [complex(v) for i, v in enumerate(cfg.u, start=1) if i != m]
    num, den = phi(q), phi(m)
    for r in others:
        num *= pts[q] - r
        den *= pts[m] - r
    return num / den


def rhs_genus1(x: complex, u: complex, du: complex) -> complex:
    """Second derivative u'' of the genus-one isoperiodic deformation."""
    return (0.5 * (1.0 / x + 1.0 / (u - x))
            - 0.5 * du * (2.0 / x + 1.0 / (u - x))
            + 0.5 * du ** 2 * (2.0 / u + 1.0 / (x - u))
            - 0.5 * du ** 3 * (1.0 / u + 1.0 / (x - u)))


def rhs_genus2_example(x, u, du) -> np.ndarray:
    """Hand-derived genus-two closed forms of T[m, k, n] = d^2 u_{m+1} / dx_{k+1} dx_{n+1}."""
    du = np.asarray(du, dtype=complex)

    def mixed(x1, x2, u1, u2, d11, d12, d21, d22):
        # d^2 u_1 / dx_1 dx_2 in terms of du_a/dx_b = d_ab.
        # Third-line coefficient must be (2/u1 + 1/(u2 - u1)): anything else
        # breaks agreement with the general system and with finite
        # differences of the period-preserving flow.
        return (0.5 * d11 * (1.0 / (x1 - x2) + 1.0 / (x2 - u1))
                + 0.5 * d12 * (1.0 / (x2 - x1) + 1.0 / (x1 - u1))
                + 0.5 * d11 * d12 * (2.0 / u1 + 1.0 / (u2 - u1))
                + 0.25 * d11 * d22 * (1.0 / (u1 - u2) - 1.0 / (x1 - u2))
                + 0.25 * d12 * d21 * (1.0 / (u1 - u2) - 1.0 / (x2 - u2))
                - 0.5 * d11 ** 2 * d12 * (1.0 / u1 + 1.0 / (x1 - u1))
                - 0.5 * d11 * d12 ** 2 * (1.0 / u1 + 1.0 / (x2 - u1)))

    def diag(x1, x2, u1, u2, d11, d12, d21, d22):
        # d^2 u_1 / dx_1^2
        return (0.5 * (1.0 / x1 - 1.0 / (x1 - u1))
                + 0.5 * d11 * (-2.0 / x1 - 1.0 / (x1 - x2) + 1.0 / (x1 - u2) + 1.0 / (x1 - u1))
                - 0.5 * d12 * (1.0 / x1 + 1.0 / (x2 - x1))
                + 0.5 * d11 ** 2 * (2.0 / u1 + 1.0 / (u1 - x2) - 1.0 / (u1 - u2) + 1.0 / (x1 - u1))
                + 0.5 * d11 * d21 * (1.0 / (u1 - u2) - 1.0 / (x1 - u2))
                - 0.5 * d11 ** 3 * (1.0 / u1 + 1.0 / (x1 - u1))
                - 0.5 * d11 ** 2 * d12 * (1.0 / u1 + 1.0 / (x2 - u1)))

    x1, x2 = np.asarray(x, dtype=complex)
    u1, u2 = np.asarray(u, dtype=complex)
    T = np.empty((2, 2, 2), dtype=complex)
    # m = 1: as displayed; m = 2: swap u1 <-> u2 (rows of du)
    T[0, 0, 1] = T[0, 1, 0] = mixed(x1, x2, u1, u2, du[0, 0], du[0, 1], du[1, 0], du[1, 1])
    T[1, 0, 1] = T[1, 1, 0] = mixed(x1, x2, u2, u1, du[1, 0], du[1, 1], du[0, 0], du[0, 1])
    T[0, 0, 0] = diag(x1, x2, u1, u2, du[0, 0], du[0, 1], du[1, 0], du[1, 1])
    T[1, 0, 0] = diag(x1, x2, u2, u1, du[1, 0], du[1, 1], du[0, 0], du[0, 1])
    # swap x1 <-> x2 (columns of du) for the second diagonal
    T[0, 1, 1] = diag(x2, x1, u1, u2, du[0, 1], du[0, 0], du[1, 1], du[1, 0])
    T[1, 1, 1] = diag(x2, x1, u2, u1, du[1, 1], du[1, 0], du[0, 1], du[0, 0])
    return T


def rhs_genus_g_loops(x, u, du) -> np.ndarray:
    """Loop form of ``rhs_genus_g``: T[m, k, n] = d^2 u_{m+1} / dx_{k+1} dx_{n+1}.

    Written term by term as the second-order system reads, one entry at a
    time; it does not check for the singular locus.
    """
    x = np.asarray(x, dtype=complex)
    u = np.asarray(u, dtype=complex)
    du = np.asarray(du, dtype=complex)
    g = len(x)
    T = np.empty((g, g, g), dtype=complex)

    # per-m invariants
    S = du.sum(axis=1)                                   # sum_i du_m/dx_i
    lag = np.empty(g, dtype=complex)                     # prod_{s != j} u_s / (u_s - u_j)
    for j in range(g):
        others = np.delete(u, j)
        lag[j] = np.prod(others / (others - u[j]))

    for m in range(g):
        u_others = np.delete(u, m)
        um = u[m]
        P_m = np.prod((u_others - um) / u_others)
        G_m = 1.0 / um - sum(lag[j] / (um - u[j]) for j in range(g) if j != m)
        # H_m = sum_j du[m,j] * ( 1/(x_j - u_m) * prod_{i != m} (u_m - u_i)/(x_j - u_i)
        #       + sum_{i != m} (x_j - u_m) / ((x_j - u_i)(u_m - u_i)) * R_i )
        # with R_i = prod_{s != m}(u_m - u_s) / prod_{s != i}(u_i - u_s)
        prod_m = np.prod(um - u_others)
        H_m = 0.0 + 0.0j
        for j in range(g):
            term = (1.0 / (x[j] - um)) * np.prod((um - u_others) / (x[j] - u_others))
            inner = 0.0 + 0.0j
            for i in range(g):
                if i == m:
                    continue
                R_i = prod_m / np.prod(u[i] - np.delete(u, i))
                inner += (x[j] - um) / ((x[j] - u[i]) * (um - u[i])) * R_i
            H_m += du[m, j] * (term + inner)

        for k in range(g):
            # diagonal entry
            xk = x[k]
            x_others_k = np.delete(x, k)
            line1 = (-1.0 / xk - np.sum(1.0 / (xk - x_others_k))
                     + 2.0 * sum(1.0 / (xk - u[j]) for j in range(g) if j != m)
                     + 1.0 / (xk - um))
            line2 = (1.0 / um + np.sum(1.0 / (um - x_others_k))
                     - 2.0 * sum(1.0 / (um - u[j]) for j in range(g) if j != m)
                     + 1.0 / (xk - um))
            line3 = sum((1.0 / (um - u[j]) - 1.0 / (xk - u[j])) * du[j, k]
                        for j in range(g) if j != m)
            Px_mk = np.prod((u_others - xk) / u_others)
            Gx_k = 1.0 / xk - sum(lag[j] / (xk - u[j]) for j in range(g))
            line6 = sum((1.0 / (x[j] - xk)) * np.prod((xk - u_others) / (x[j] - u_others))
                        * du[m, j]
                        for j in range(g) if j != k)
            line7 = 0.0 + 0.0j
            for i in range(g):
                pref = np.prod((xk - np.delete(u, i)) / (u[i] - np.delete(u, i)))
                for j in range(g):
                    line7 += ((x[j] - um) / ((x[j] - u[i]) * (xk - um))) * pref * du[m, j]
            T[m, k, k] = (0.5 * du[m, k] * line1
                          + 0.5 * du[m, k] ** 2 * line2
                          + 0.5 * du[m, k] * line3
                          - 0.5 * (S[m] - 1.0) * Px_mk * Gx_k
                          - 0.5 * du[m, k] ** 2 * (S[m] - 1.0) * P_m * G_m
                          - 0.5 * line6
                          - 0.5 * line7
                          - 0.5 * du[m, k] ** 2 * H_m)
            # mixed entries
            for n in range(k + 1, g):
                xn = x[n]
                cross = (1.0 / um
                         + sum(1.0 / (um - x[i]) for i in range(g) if i not in (k, n))
                         - 2.0 * sum(1.0 / (um - u[i]) for i in range(g) if i != m))
                sym_k = sum((1.0 / (um - u[j]) - 1.0 / (xk - u[j])) * du[j, n]
                            for j in range(g) if j != m)
                sym_n = sum((1.0 / (um - u[j]) - 1.0 / (xn - u[j])) * du[j, k]
                            for j in range(g) if j != m)
                val = (0.5 * du[m, k] * (1.0 / (xk - xn) + 1.0 / (xn - um))
                       + 0.5 * du[m, n] * (1.0 / (xn - xk) + 1.0 / (xk - um))
                       + 0.5 * du[m, k] * du[m, n] * cross
                       + 0.25 * du[m, k] * sym_k
                       + 0.25 * du[m, n] * sym_n
                       - 0.5 * du[m, k] * du[m, n] * (S[m] - 1.0) * P_m * G_m
                       - 0.5 * du[m, k] * du[m, n] * H_m)
                T[m, k, n] = val
                T[m, n, k] = val
    return T


def w_identity_loops(cfg, pd, W, I) -> dict:
    """Loop form of the W checks of ``verify_identities`` on a given table.

    ``W[a, b]`` = W(P_a, P_b) and ``I`` (row k: the constants of W(., P_k))
    over the points (0, u_1..u_g, x_1..x_g); returns ``W_symmetry`` and, from
    genus two, the ``w_dual_expansion_*`` residuals, entry by entry.
    """
    g = cfg.genus
    x, u = np.asarray(cfg.x), np.asarray(cfg.u)
    n_pts = 2 * g + 1                      # u_j is point j and x_k is point g + k
    phi = pd.phi_at
    v = pd.v_at                            # v[j - 1, q] = v_j(P_q)
    out = {"W_symmetry": max(abs(W[a, b] - W[b, a])
                             for a in range(n_pts) for b in range(a + 1, n_pts))}
    if g < 2:
        return out

    t1 = []
    for k in range(1, g + 1):
        for n in range(1, g + 1):
            if n == k:
                continue
            lhs = sum(W[j, g + k] * v[j - 1, g + n] for j in range(1, g + 1))
            rational = (phi[g + n] / phi[g + k] / (x[k - 1] - x[n - 1])
                        * np.prod(x[n - 1] - u) / np.prod(x[k - 1] - u))
            t1.append(abs(lhs - W[g + n, g + k] - rational))
    out["w_dual_expansion_xx"] = max(t1)

    t2 = []
    for m in range(1, g + 1):
        for n in range(1, g + 1):
            lhs = sum(W[j, m] * v[j - 1, g + n] for j in range(1, g + 1) if j != m)
            vmx = v[m - 1, g + n]
            rhs = (W[g + n, m] - vmx / (x[n - 1] - u[m - 1])
                   + vmx * sum(1.0 / (u[m - 1] - u[i - 1]) for i in range(1, g + 1) if i != m)
                   - vmx * I[m][m - 1])
            t2.append(abs(lhs - rhs))
    out["w_dual_expansion_xu"] = max(t2)

    t3 = []
    for k in range(1, g + 1):
        xk = g + k
        lhs = sum(W[j, xk] * v[j - 1, xk] for j in range(1, g + 1))
        rhs = (sum(I[xk][j - 1] * v[j - 1, xk] for j in range(1, g + 1))
               - np.sum(1.0 / (x[k - 1] - u)))
        t3.append(abs(lhs - rhs))
    out["w_dual_expansion_diag"] = max(t3)
    return out


def _run_bounds(spec, points):
    """(real points, lo, hi, excluded points) of a cycle around a run of a real configuration."""
    pts = np.real(np.asarray(points)) + 0.0j
    inside = sorted(spec.encircled)
    return pts, pts[inside].real.min(), pts[inside].real.max(), np.delete(pts.real, inside)


def real_ellipse(spec, points):
    """The ellipse around a contiguous run of a real configuration: semi-axes
    a = half-width + margin and b = max(margin / 2, 0.45 a), the margin a
    quarter of the larger of the run's width and the narrowest spacing of
    the points, and at most half the distance to the nearest excluded point."""
    from isoperiod.cycles import EllipseContour

    pts, lo, hi, others = _run_bounds(spec, points)
    margin = 0.25 * max(hi - lo, float(np.min(np.diff(np.sort(pts.real)))))
    margin = min(margin, float(np.min(0.5 * np.where(others > hi, others - hi, lo - others))))
    a_semi = 0.5 * (hi - lo) + margin
    return EllipseContour(complex(0.5 * (lo + hi)), a_semi, max(0.5 * margin, 0.45 * a_semi),
                          spec.orientation, pts)


def hint_circle(spec, points):
    """The circle around a contiguous run of a real configuration reaching
    halfway to the nearest excluded point."""
    from isoperiod.cycles import EllipseContour

    pts, lo, hi, others = _run_bounds(spec, points)
    margin = 0.5 * np.min(np.where(others > hi, others - hi, lo - others))
    radius = float(0.5 * (hi - lo) + margin)
    return EllipseContour(complex(0.5 * (lo + hi)), radius, radius, spec.orientation, pts)


def ellipse_w_constants(cfg, pd, contours, tol):
    """The constants I of ``w_constants`` from quadrature on the lifted
    a-contours ``contours``: the pole differentials phi / (phi_k (lambda - lambda_k))
    themselves (rows 1 / (phi_k D_k), not the exact-form reduction of the
    package) and the monomial a-periods A_raw on the same contours, then
    I = solve(A_raw v_coeffs^T, -w)^T, with row m-1 of v_coeffs the monomial
    coefficients of v_m over phi."""
    from isoperiod.curves import v_polynomial
    from isoperiod.periods import integrate_contour, power_rows

    g = cfg.genus
    A = np.array([integrate_contour(c, power_rows(g + 1), tol)[0] for c in contours])[:, :g]
    poles = lambda t, D, sel: 1.0 / (pd.phi_at * D)
    w = np.array([integrate_contour(c, poles, tol)[0] for c in contours])
    v_coeffs = np.array([v_polynomial(cfg, m, pd.phi_at) for m in range(1, g + 1)])
    return np.linalg.solve(A @ v_coeffs.T, -w).T


def poly_rows(coeffs):
    """The row function (of ``integrate_contour``) of the one polynomial with
    ascending coefficients ``coeffs``."""
    return lambda t, D, sel: np.polynomial.polynomial.polyval(t, coeffs)[..., None]


def omega_coefficients(om):
    """Ascending coefficients of the polynomial of Omega over dlambda / mu:
    -(lambda^g + c_{g-1} lambda^{g-1} + ... + c_0) / 2 plus alpha . C."""
    coeffs = -0.5 * om.poly
    coeffs[:len(om.c)] += om.alpha @ om.pd.C
    return coeffs


def wp_laurent(wd, z):
    """Weierstrass wp and wp' at each z, point by point, from the Laurent series.

    wp(z) = z^-2 + sum_{k>=1} c_k z^2k with c_1 = g2/20, c_2 = g3/28 and the
    classical recursion for the rest, summed around the lattice point nearest
    to z (found among the 3 x 3 neighbours of the least-squares lattice
    coordinates in a Lagrange-reduced basis).  Valid while the Voronoi cell
    lies inside the disc of convergence, of radius the shortest lattice vector.
    """
    terms = 120
    c = np.zeros(terms + 1, dtype=complex)
    c[1] = wd.g2 / 20.0
    c[2] = wd.g3 / 28.0
    for k in range(3, terms + 1):
        c[k] = (3.0 / ((2.0 * k + 3.0) * (k - 2.0))) * sum(
            c[m] * c[k - 1 - m] for m in range(1, k - 1))
    a, b = 2.0 * complex(wd.w1), 2.0 * complex(wd.w2)
    for _ in range(64):                  # Lagrange reduction
        if abs(a) < abs(b):
            a, b = b, a
        n = round((a * b.conjugate()).real / abs(b) ** 2)
        if n == 0:
            break
        a = a - n * b
    M = np.array([[a.real, b.real], [a.imag, b.imag]])
    k = np.arange(1, terms + 1)
    out = []
    for zi in np.ravel(z):
        zi = complex(zi)
        mn = np.linalg.solve(M, np.array([zi.real, zi.imag]))
        zr = min((zi - (round(mn[0]) + dm) * a - (round(mn[1]) + dn) * b
                  for dm in (-1, 0, 1) for dn in (-1, 0, 1)), key=abs)
        zk = zr ** (2 * k)
        out.append((1.0 / zr ** 2 + np.sum(c[1:] * zk),
                    -2.0 / zr ** 3 + np.sum(c[1:] * 2 * k * zk / zr)))
    wp, wp_prime = np.array(out).T
    return wp.reshape(np.shape(z)), wp_prime.reshape(np.shape(z))


def _tanh_sinh_level(level: int):
    """The nodes first used at tanh-sinh refinement ``level``: (step, weights,
    distances to -1 and to 1, x), the step 1/4 halved per level, |tau| <= 4.5."""
    h = 0.25 / (1 << level)
    m = int(4.5 / h)
    j = np.arange(-m, m + 1)
    if level:
        j = j[j % 2 == 1]
    tau = j * h
    psi = 0.5 * math.pi * np.sinh(tau)
    e = np.exp(-2.0 * np.abs(psi))
    near, far = 2.0 * e / (1.0 + e), 2.0 / (1.0 + e)
    lower = tau < 0
    return (h, math.pi * np.cosh(tau) * np.sqrt(e) / (1.0 + e),
            np.where(lower, near, far), np.where(lower, far, near), np.tanh(psi))


def tanh_sinh_levels(lo, hi, q, tol, rows, diffs=False):
    """Loop form of ``periods.tanh_sinh``: the same quadrature and the same
    acceptance test, evaluating one refinement level per pass over the
    intervals not yet converged, and each level's nodes on their own.

    Returns (values, nodes, err) as the kernel does; raises RuntimeError
    beyond 2^17 nodes.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    below = q <= lo[:, None]
    gap = np.where(below, lo[:, None] - q, q - hi[:, None])
    half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)

    def level_sum(live, level):
        h, w, e_lo, e_hi, x = _tanh_sinh_level(level)
        c = half[live, None]
        d_lo, d_hi = c * e_lo, c * e_hi
        t = mid[live, None] + c * x
        dist = np.where(below[live, None, :], d_lo[..., None], d_hi[..., None])
        dist += gap[live, None, :]
        f = w * np.sqrt(d_lo * d_hi / dist.prod(axis=-1))
        D = np.where(below[live, None, :], dist, -dist) if diffs else None
        return h * np.einsum("rn,rnk->rk", f, rows(t, D, live))

    live = np.arange(len(lo))
    values = level_sum(live, 0)
    nodes = np.zeros(len(lo), dtype=int)
    err = np.zeros(len(lo))
    n, level = len(_tanh_sinh_level(0)[1]), 0
    while live.size:
        level += 1
        n = 2 * n - 1
        if n > 1 << 17:
            raise RuntimeError("segment quadrature did not converge within 2^17 nodes")
        new = 0.5 * values[live] + level_sum(live, level)
        delta = np.abs(new - values[live]).max(axis=1)
        done = delta <= tol * np.maximum(1.0, np.abs(new).max(axis=1))
        values[live] = new
        nodes[live[done]] = n
        err[live[done]] = delta[done]
        live = live[~done]
    return values, nodes, err


def first_derivatives_loops(cfg, pd, om) -> np.ndarray:
    """du[m-1, j-1] = -v_m(P_{x_j}) Omega(P_{x_j}) / Omega(P_{u_m}), entry by entry."""
    g = cfg.genus
    du = np.empty((g, g), dtype=complex)
    for m in range(1, g + 1):
        for j in range(1, g + 1):
            xj = g + j
            du[m - 1, j - 1] = -pd.v_at[m - 1, xj] * om.values_at[xj] / om.values_at[m]
    return du


def period_jacobian_loops(cfg, pd, om) -> np.ndarray:
    """J[j-1, k-1] = pi i Omega(P_{u_j}) omega_k(P_{u_j}), row by row."""
    g = cfg.genus
    J = np.empty((g, g), dtype=complex)
    for j in range(1, g + 1):
        J[j - 1, :] = 1j * math.pi * om.values_at[j] * pd.omega_at[:, j]
    return J


def omega_zeros_fixed_steps(om, newton_steps: int = 8) -> np.ndarray:
    """Companion-matrix roots of the monic ``om.poly`` after exactly
    ``newton_steps`` Newton steps, sorted by real part on a real configuration."""
    poly = np.asarray(om.poly)[::-1]        # descending, for np.polyval
    dpoly = np.polyder(poly)
    roots = np.roots(poly)
    for _ in range(newton_steps):
        roots = roots - np.polyval(poly, roots) / np.polyval(dpoly, roots)
    cfg = om.cfg
    if cfg.real:
        roots = roots[np.argsort(roots.real)]
    return roots


def theta_constants(B, radius: int):
    """theta[e1, e2](0 | B) = sum_n exp(pi i (n + e1/2)^T B (n + e1/2) + pi i (n + e1/2)^T e2)
    over the lattice cube |n_j| <= radius, for all 4^g characteristics.

    Returns ``(chars, values)``: ``chars[k]`` is the 0/1 array (e1, e2) of shape
    (2, g), and the characteristic is even when e1 . e2 is.  The truncation error
    is of order exp(-pi radius^2 lambda_min(Im B)).
    """
    B = np.asarray(B, dtype=complex)
    g = B.shape[0]
    halves = np.array(np.meshgrid(*[[0, 1]] * g, indexing="ij")).reshape(g, -1).T
    n = np.array(np.meshgrid(*[np.arange(-radius, radius + 1)] * g,
                             indexing="ij")).reshape(g, -1).T
    chars, values = [], []
    for e1 in halves:
        m = n + 0.5 * e1
        q = np.exp(1j * math.pi * np.einsum("ij,jk,ik->i", m, B, m))
        sums = q @ np.exp(1j * math.pi * (m @ halves.T))
        chars += [np.array([e1, e2]) for e2 in halves]
        values.append(sums)
    return np.array(chars), np.concatenate(values)
