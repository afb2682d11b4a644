"""Independent numerical oracles used by the tests.

These implement textbook methods with no code shared with the package, so
they can referee the package's own quadrature, branch tracking and flow
machinery:

* the arithmetic-geometric mean and Gauss-Chebyshev segment quadrature
  (elliptic a-periods);
* finite differences (derivatives of flows and periods);
* ``BranchOfMu``/``mu_along_path``: pathwise continuation of mu by unwrapped
  factor arguments, against the contour branch tracking of ``cycles``;
* ``eval_at_infinity``: an FFT Laurent fit at the branch point at infinity,
  against the closed-form evaluations of ``periods``;
* ``rhs_genus2_example``: hand-derived genus-two closed forms of the second
  derivatives, against the general ``rhs_genus_g``;
* ``rhs_genus_g_loops``: the second-order system entry by entry in scalar
  loops, against the array form of ``rhs_genus_g``;
* ``hinted_basis``: a real marking with circle hints on every cycle, which
  keeps its periods on lifted ellipses, against the segment quadrature.
"""

import cmath
import math

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


def central_difference(f, x0: float, h: float):
    return (f(x0 + h) - f(x0 - h)) / (2.0 * h)


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


def hinted_basis(basis, points):
    """The same cycles with center/radius hints: circles around each encircled
    run reaching halfway to the nearest excluded point."""
    from isoperiod.cycles import CanonicalBasis, CycleSpec

    pts = np.real(np.asarray(points))

    def hint(spec):
        inside = sorted(spec.encircled)
        lo, hi = pts[inside].min(), pts[inside].max()
        others = np.delete(pts, inside)
        margin = 0.5 * np.min(np.where(others > hi, others - hi, lo - others))
        return CycleSpec(spec.encircled, spec.orientation, center=complex(0.5 * (lo + hi)),
                         radius=0.5 * (hi - lo) + margin)

    return CanonicalBasis(tuple(map(hint, basis.a)), tuple(map(hint, basis.b)))
