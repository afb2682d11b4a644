"""Homology cycles: combinatorial specs, canonical bases, and realized contours.

A cycle is described by the set of finite branch points it encircles (an even
count, so the lift to the two-sheeted covering closes) plus an orientation.
On a real configuration a cycle around a contiguous run of the sorted points,
given without center/radius hints, needs no contour: its periods are signed
sums of integrals between consecutive branch points
(:class:`isoperiod.periods.SegmentTable`).  The other cycles (complex
configurations, hinted or non-contiguous specs) and the pole differentials of
``periods.w_constants`` are realized as ellipses in the lambda plane;
integration lifts them to the covering by continuous branch tracking started
from the principal branch at the contour's rightmost point.

Default basis for real interleaved configurations 0 < u_1 < x_1 < ... < x_g
(sorted points q_0 < q_1 < ... < q_2g):

    a_j encircles {q_{2j-1}, q_{2j}}          (the j-th gap, {u_j, x_j})
    b_j encircles {q_0, ..., q_{2j-1}}        (everything up to u_j)

with a_j counterclockwise and b_j clockwise, which yields the canonical
pairing a_k . b_j = delta_kj and a positive-definite imaginary part of the
Riemann matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateConfig


@dataclass(frozen=True)
class CycleSpec:
    """A cycle given by the encircled finite branch points.

    ``encircled`` holds point indices (into the configuration's point order);
    the realized contour separates them from all other branch points.
    Optional ``center``/``radius`` hints force a circular realization.
    """

    encircled: frozenset
    orientation: int = +1
    center: complex | None = None
    radius: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "encircled", frozenset(self.encircled))
        if not self.encircled:
            raise ValueError("a cycle must encircle at least one branch point")
        if len(self.encircled) % 2 != 0:
            raise ValueError("a lifted closed cycle must encircle an even number of branch points")
        if self.orientation not in (+1, -1):
            raise ValueError("orientation must be +1 or -1")


@dataclass(frozen=True)
class CanonicalBasis:
    a: tuple
    b: tuple

    @property
    def genus(self) -> int:
        return len(self.a)


def _sorted_real_order(points: np.ndarray) -> np.ndarray:
    from .curves import effective_points

    pts = effective_points(points)
    if np.max(np.abs(pts.imag)) > 0.0:
        raise DegenerateConfig("default cycle bases require real branch points")
    return np.argsort(pts.real)


def gap_basis(points: np.ndarray) -> CanonicalBasis:
    """Default marking: a_j around the j-th gap, b_j around the prefix up to it."""
    order = _sorted_real_order(points)
    g = (len(order) - 1) // 2
    a = []
    b = []
    for j in range(1, g + 1):
        a.append(CycleSpec(frozenset(order[2 * j - 1: 2 * j + 1].tolist()), +1))
        b.append(CycleSpec(frozenset(order[: 2 * j].tolist()), -1))
    return CanonicalBasis(tuple(a), tuple(b))


def band_basis(points: np.ndarray) -> CanonicalBasis:
    """Involution-invariant a-cycles: a_j around the j-th finite band.

    On this marking the raw a-periods of polynomial-over-mu differentials are
    real for real configurations, so the normalized differentials have real
    coefficients (and real evaluation at infinity).
    """
    order = _sorted_real_order(points)
    g = (len(order) - 1) // 2
    a = []
    b = []
    for j in range(1, g + 1):
        a.append(CycleSpec(frozenset(order[2 * j - 2: 2 * j].tolist()), +1))
        b.append(CycleSpec(frozenset(order[2 * j - 1:].tolist()), +1))
    return CanonicalBasis(tuple(a), tuple(b))


def _pair_sign(run_i, run_j) -> int:
    """Intersection number of two counterclockwise lifted cycles.

    ``run_i``/``run_j`` are contiguous rank sets of the sorted branch points.
    Overlap of even size means the lifted cycles are disjoint or cancel; an
    overlap of exactly one point contributes a single transversal crossing
    (the matched-sheet one above the shared point), positive for the cycle
    whose run ends at the shared point.
    """
    shared = run_i & run_j
    if len(shared) % 2 == 0:
        return 0
    if len(shared) != 1:
        raise ValueError("cycles overlap in more than one endpoint; pairing not canonical")
    q = next(iter(shared))
    if max(run_i) == q == min(run_j):
        return +1
    if max(run_j) == q == min(run_i):
        return -1
    raise ValueError("odd overlap away from run endpoints; pairing not canonical")


def intersection_matrix(basis: CanonicalBasis, points: np.ndarray) -> np.ndarray:
    """Pairing of all basis cycles, rows/cols ordered a_1..a_g, b_1..b_g.

    Computed combinatorially from the encircled sets (contiguous runs of the
    sorted real branch points).  A canonical basis yields the standard
    symplectic block form with a_k . b_j = delta_kj.
    """
    order = list(_sorted_real_order(points))
    rank = {idx: r for r, idx in enumerate(order)}

    def run(spec: CycleSpec):
        rs = sorted(rank[i] for i in spec.encircled)
        if rs != list(range(rs[0], rs[-1] + 1)):
            raise ValueError("intersection pairing implemented for contiguous encircled runs only")
        return set(rs)

    cycles = list(basis.a) + list(basis.b)
    runs = [run(c) for c in cycles]
    n = len(cycles)
    out = np.zeros((n, n), dtype=int)
    for i in range(n):
        for j in range(i + 1, n):
            s = _pair_sign(runs[i], runs[j]) * cycles[i].orientation * cycles[j].orientation
            out[i, j] = s
            out[j, i] = -s
    return out


@dataclass
class EllipseContour:
    """Closed analytic contour lambda(t) = c + A cos t + i * B sin t (t in [0, 2pi)).

    ``orientation`` +1 traverses counterclockwise.  Node tables (lambda,
    weighted derivative, tracked mu) are cached per resolution, and the
    clearance from the branch points once computed.
    """

    center: complex
    semi_major: float
    semi_minor: float
    orientation: int
    points: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False)
    _clearance: float | None = field(default=None, repr=False)

    def _lam(self, n: int):
        """(s t, lambda) at the n equispaced parameters t, s the orientation."""
        st = self.orientation * (2.0 * math.pi * np.arange(n) / n)
        return st, self.center + self.semi_major * np.cos(st) + 1j * self.semi_minor * np.sin(st)

    def nodes(self, n: int):
        tab = self._cache.get(n)
        if tab is None:
            st, lam = self._lam(n)
            dlam = self.orientation * (-self.semi_major * np.sin(st)
                                       + 1j * self.semi_minor * np.cos(st))
            w = dlam * (2.0 * math.pi / n)
            mu = self._track_mu(lam)
            tab = (lam, w, mu)
            self._cache[n] = tab
        return tab

    def _track_mu(self, lam: np.ndarray) -> np.ndarray:
        """mu at the node sequence, continued from the principal branch at node 0.

        Factors sitting exactly on the negative real axis at the start node
        take the upper-edge argument +pi, so the convention is independent of
        the sign of a zero imaginary part.
        """
        d = lam[:, None] - self.points[None, :]
        start = np.angle(d[0])
        edge = (d[0].real < 0) & (np.abs(d[0].imag) == 0.0)
        start[edge] = math.pi
        steps = np.angle(d[1:] / d[:-1])
        args_total = np.sum(start) + np.concatenate(([0.0], np.cumsum(np.sum(steps, axis=1))))
        log_abs = np.sum(np.log(np.abs(d)), axis=1)
        return np.exp(0.5 * (log_abs + 1j * args_total))

    def min_clearance(self) -> float:
        """Least distance from the 512 equispaced contour points to a branch point."""
        if self._clearance is None:
            lam = self._lam(512)[1]
            self._clearance = float(np.min(np.abs(lam[:, None] - self.points[None, :])))
        return self._clearance


def realize(spec: CycleSpec, points: np.ndarray) -> EllipseContour:
    """Build an ellipse separating the encircled from the excluded branch points."""
    from .curves import effective_points

    pts = effective_points(points)
    inside = sorted(spec.encircled)
    if spec.center is not None and spec.radius is not None:
        contour = EllipseContour(complex(spec.center), float(spec.radius), float(spec.radius),
                                 spec.orientation, pts)
    else:
        sel = pts[inside]
        if np.max(np.abs(pts.imag)) > 1e-12 * max(1.0, np.max(np.abs(pts))):
            # complex configuration without hints: enclosing circle with margin
            c = complex(np.mean(sel))
            r_in = float(np.max(np.abs(sel - c)))
            others = np.delete(pts, inside)
            r_out = float(np.min(np.abs(others - c))) if len(others) else 2.0 * r_in + 1.0
            if r_out <= r_in:
                raise DegenerateConfig("cannot separate encircled branch points by a circle; pass hints")
            r = 0.5 * (r_in + r_out)
            contour = EllipseContour(c, r, r, spec.orientation, pts)
        else:
            lo = float(np.min(sel.real))
            hi = float(np.max(sel.real))
            others = np.delete(pts, inside)
            margin = 0.25 * max(hi - lo, _min_gap(pts))
            for o in others:
                if o.real > hi:
                    margin = min(margin, 0.5 * (o.real - hi))
                elif o.real < lo:
                    margin = min(margin, 0.5 * (lo - o.real))
                else:
                    raise DegenerateConfig("encircled set is not contiguous on the real axis")
            c = 0.5 * (lo + hi)
            a_semi = 0.5 * (hi - lo) + margin
            b_semi = max(0.5 * margin, 0.45 * a_semi)
            contour = EllipseContour(complex(c), a_semi, b_semi, spec.orientation, pts)
    if contour.min_clearance() <= 0.0:
        raise DegenerateConfig("realized contour touches a branch point")
    return contour


def _min_gap(pts: np.ndarray) -> float:
    re = np.sort(pts.real)
    return float(np.min(np.diff(re))) if len(re) > 1 else 1.0
