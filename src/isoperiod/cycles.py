"""Homology cycles: combinatorial specs, canonical bases, and realized contours.

A cycle is described by the set of finite branch points it encircles (an even
count, so the lift to the two-sheeted covering closes) plus an orientation.
On a real configuration every cycle must encircle a contiguous run of the
sorted points, and needs no contour: its periods are signed sums of integrals
between consecutive branch points (:class:`isoperiod.periods.SegmentTable`).
Only the cycles of complex configurations are realized, as circles in the
lambda plane; integration lifts them to the covering by continuous branch
tracking started at the contour's rightmost point, where a branch point to
its right has the upper-edge argument (the sheet of the nearby real
configuration).

Default basis for real interleaved configurations 0 < u_1 < x_1 < ... < x_g
(sorted points q_0 < q_1 < ... < q_2g):

    a_j encircles {q_{2j-1}, q_{2j}}          (the j-th gap, {u_j, x_j})
    b_j encircles {q_0, ..., q_{2j-1}}        (everything up to u_j)

with a_j counterclockwise and b_j clockwise, which yields the canonical
pairing a_k . b_j = delta_kj and a positive-definite imaginary part of the
Riemann matrix.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateConfig


@dataclass(frozen=True)
class CycleSpec:
    """A cycle given by the encircled finite branch points.

    ``encircled`` holds point indices (into the configuration's point order);
    the realized contour separates them from all other branch points.
    """

    encircled: frozenset
    orientation: int = +1

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
    if np.abs(pts.imag).max() > 0.0:
        raise DegenerateConfig("default cycle bases require real branch points")
    return np.argsort(pts.real)


def gap_basis(points: np.ndarray) -> CanonicalBasis:
    """Default marking: a_j around the j-th gap, b_j around the prefix up to it."""
    return gap_marking(tuple(_sorted_real_order(points).tolist()))


@functools.lru_cache(maxsize=64)
def gap_marking(order: tuple) -> CanonicalBasis:
    """The default marking of real points whose ascending order is ``order``;
    the marking is immutable, so all callers with one order share it."""
    g = (len(order) - 1) // 2
    a = []
    b = []
    for j in range(1, g + 1):
        a.append(CycleSpec(frozenset(order[2 * j - 1: 2 * j + 1]), +1))
        b.append(CycleSpec(frozenset(order[: 2 * j]), -1))
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
        """mu at the node sequence, continued from node 0, where each factor
        lambda - p takes its argument in (-pi/2, 3pi/2].

        A branch point right of node 0 gives the upper-edge argument +pi
        whether it lies on the real axis (either sign of zero) or slightly
        off it, so a complex configuration near a real one gets the sheets
        of the real one.
        """
        d = lam[:, None] - self.points[None, :]
        start = np.angle(d[0])
        start[start <= -0.5 * math.pi] += 2.0 * math.pi
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
    """The circle around the encircled branch points of a complex configuration:
    centred at their mean, its radius halfway between the farthest encircled
    and the nearest excluded point."""
    from .curves import effective_points

    pts = effective_points(points)
    inside = sorted(spec.encircled)
    sel = pts[inside]
    c = complex(np.mean(sel))
    r_in = float(np.max(np.abs(sel - c)))
    others = np.delete(pts, inside)
    r_out = float(np.min(np.abs(others - c)))
    if r_out <= r_in:
        raise DegenerateConfig("cannot separate encircled branch points by a circle")
    r = 0.5 * (r_in + r_out)
    contour = EllipseContour(c, r, r, spec.orientation, pts)
    if contour.min_clearance() <= 0.0:
        raise DegenerateConfig("realized contour touches a branch point")
    return contour
