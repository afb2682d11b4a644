"""Hyperelliptic curves mu^2 = lambda * prod(lambda - u_j) * prod(lambda - x_j).

The finite branch points are 0, u_1..u_g, x_1..x_g; the point at infinity is
also a branch point of the two-sheeted covering.  This module owns the
configuration types, their validation, and closed-form evaluations of
differentials at ramification points with respect to the standard local
parameters sqrt(lambda - lambda_j) and 1/sqrt(lambda).  Branch tracking of mu
along contours lives with the contours, in :mod:`isoperiod.cycles`.

Point indexing convention used across the package: the finite branch points of
a configuration are stored as

    points[0] = 0,  points[m] = u_m (1 <= m <= g),  points[g+j] = x_j (1 <= j <= g)

and the point at infinity is referred to by the index ``2g + 1``.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConfig


@dataclass(frozen=True)
class BranchConfig:
    """The 2g finite nonzero branch points of a curve in the family.

    ``x`` are the independently varying branch points, ``u`` the dependent
    ones.  ``real`` marks configurations with all branch points real, for
    which the interleaving 0 < u_1 < x_1 < ... < u_g < x_g may additionally
    be requested.
    """

    x: tuple
    u: tuple
    real: bool = False

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(complex(v) for v in self.x))
        object.__setattr__(self, "u", tuple(complex(v) for v in self.u))
        if len(self.x) != len(self.u) or not self.x:
            raise DegenerateConfig("need equally many x and u branch points, at least one each")

    @property
    def genus(self) -> int:
        return len(self.x)

    @property
    def points(self) -> np.ndarray:
        """Finite branch points in index order (0, u_1..u_g, x_1..x_g)."""
        return np.array((0j,) + self.u + self.x)

    def replace(self, x=None, u=None) -> "BranchConfig":
        return BranchConfig(
            x=tuple(x) if x is not None else self.x,
            u=tuple(u) if u is not None else self.u,
            real=self.real,
        )

    def scale(self) -> float:
        """Characteristic magnitude of the configuration."""
        return float(np.max(np.abs(self.points[1:])))


def validate_config(cfg, ordered: bool = False) -> list:
    """Report invariant violations of a configuration.

    Returns an empty list iff the 2g+1 finite branch points are finite and
    pairwise distinct (and, when ``ordered`` is requested for a real
    configuration, interleaved as 0 < u_1 < x_1 < ... < u_g < x_g).  Each
    violation is a human-readable string naming the offending points.  A
    non-finite point is reported alone: every other check would misread it.
    """
    pts = cfg.points
    g = cfg.genus

    def name(i):
        return "0" if i == 0 else f"u_{i}" if i <= g else f"x_{i - g}"

    finite = np.isfinite(pts)
    if not finite.all():
        return [f"non-finite branch point {name(i)} = {pts[i]}" for i in np.flatnonzero(~finite)]
    violations = []
    mag = np.abs(pts)
    close = np.abs(pts[:, None] - pts) <= max(1.0, float(mag.max())) * 1e-14
    if np.count_nonzero(close) > len(pts):          # more than the diagonal
        violations += [f"duplicate branch point {name(i)} = {name(j)} = {pts[j]}"
                       for i, j in np.argwhere(np.triu(close, 1))]
    if cfg.real:
        # matches the snapping threshold of effective_points
        off = np.abs(pts.imag) > 1e-9 * np.maximum(1.0, mag)
        if off.any():
            violations += [f"real flag set but {name(i)} = {pts[i]} is not real"
                           for i in np.flatnonzero(off[1:]) + 1]
    if ordered:
        if not cfg.real:
            violations.append("ordering requested for a non-real x/u configuration")
        else:
            seq = np.zeros(2 * g + 1)             # 0, u_1, x_1, ..., u_g, x_g
            seq[1::2], seq[2::2] = pts[1:g + 1].real, pts[g + 1:].real
            bad = np.flatnonzero(~(seq[:-1] < seq[1:]))
            if bad.size:
                a, b = seq[bad[0]:bad[0] + 2].tolist()
                violations.append(f"ordering violated: {a} !< {b} in 0 < u_1 < x_1 < ...")
    return violations


def require_valid(cfg: BranchConfig):
    bad = validate_config(cfg)
    if bad:
        raise DegenerateConfig("; ".join(bad))


def effective_points(points) -> np.ndarray:
    """Snap a nearly-real point set onto the real axis.

    Principal-branch square roots are discontinuous across the negative real
    axis, so imaginary noise of order 1e-15 on real configurations would flip
    evaluation signs erratically (for example inside Newton iterations).
    Points whose imaginary parts are below 1e-9 of the configuration scale
    are treated as exactly real; genuinely complex configurations pass
    through unchanged.
    """
    pts = np.asarray(points, dtype=complex)
    scale = max(1.0, float(np.abs(pts).max()))
    if float(np.abs(pts.imag).max()) <= 1e-9 * scale:
        return pts.real + 0.0j
    return pts


def phi_values(points: np.ndarray) -> np.ndarray:
    """Evaluate phi = d(lambda)/mu at every finite ramification point.

    Entry j is 2 / sqrt(prod_{i != j} (p_j - p_i)) with the principal square
    root of the full product.  All other evaluation tables in the package are
    derived from these values, so sign conventions stay mutually consistent.
    ``points`` are snapped as :func:`effective_points` returns them.
    """
    pts = np.asarray(points)
    diff = pts[:, None] - pts[None, :]
    diff.flat[::len(pts) + 1] = 1.0
    prods = diff.prod(axis=1)
    if not prods.all():
        j = np.flatnonzero(prods == 0)[0]
        raise DegenerateConfig(f"coinciding branch points at {pts[j]}")
    return np.array([2.0 / cmath.sqrt(p) for p in prods.tolist()])


def v_polynomial(cfg: BranchConfig, m: int, phis: np.ndarray) -> np.ndarray:
    """Ascending coefficients of the polynomial part of v_m over phi.

    v_m = phi * prod_{i != m}(lambda - u_i) / (phi(P_{u_m}) * prod_{i != m}(u_m - u_i)),
    normalized so that v_m(P_{u_i}) = delta_{mi}.  ``phis`` is the table
    ``phi_values(cfg.points)`` (for instance ``PeriodData.phi_at``); only its
    entry at u_m is read.
    """
    u = np.asarray(cfg.u)
    others = np.delete(u, m - 1)
    denom = complex(phis[m]) * complex(np.prod(u[m - 1] - others))
    poly = np.array([1.0 + 0.0j])
    for r in others:
        poly = np.convolve(poly, np.array([-r, 1.0 + 0.0j]))
    return poly / denom
