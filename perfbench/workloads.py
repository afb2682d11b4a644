"""Seeded workloads of the isoperiod benchmark.

Each workload turns a seed into a list of inputs and runs one operation
("op") per input through the public API of ``isoperiod``.  An op returns an
``OpResult``: a digest of its outputs (used to check that traced and
untraced runs agree bit for bit), the residuals it checked against their
tolerances, and any boolean conditions it checked.  An op that raises
``IsoperiodError`` or fails a check is a failed op; the benchmark counts it
and never retries, skips or re-seeds it.

Inputs are generated in blocks.  Within a block every stratum (a genus, or
a genus, gap index and gap width) appears once, in seeded order, and a
pool is made of whole blocks, so each run sees the same mix of cheap and
costly ops.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

import isoperiod as iso

QUAD_TOL = 1e-11
# Leg lengths are whole numbers of macro steps, shortened by a relative 1e-9
# so that rounding in x + length never adds an extra macro step.
_LEG_SHRINK = 1.0 - 1e-9


@dataclass
class OpResult:
    digest: str
    residuals: dict = field(default_factory=dict)     # name -> (residual, tolerance)
    conditions: dict = field(default_factory=dict)    # name -> bool

    def failed_checks(self) -> list:
        bad = [k for k, (r, tol) in self.residuals.items() if not r < tol]
        bad += [k for k, ok in self.conditions.items() if not ok]
        return bad

    def accuracy_digits(self) -> float:
        """min over checked residuals of log10(tolerance / residual)."""
        digits = [math.log10(tol / r) for r, tol in self.residuals.values() if r > 0.0]
        return min(digits) if digits else math.inf


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a, dtype=complex)).tobytes())
    return h.hexdigest()


def interleaved(rng, g, band=(0.5, 1.5), gap=(0.5, 1.5)) -> iso.BranchConfig:
    """Real configuration 0 < u_1 < x_1 < ... < u_g < x_g with seeded widths."""
    u, x, p = [], [], 0.0
    for _ in range(g):
        p += rng.uniform(*band)
        u.append(p)
        p += rng.uniform(*gap)
        x.append(p)
    return iso.BranchConfig(x=tuple(x), u=tuple(u), real=True)


def axis_path(x0, legs, length):
    """Polyline from x0 moving coordinate ``legs[0]``, then ``legs[1]``, ... by ``length``."""
    path = [np.asarray(x0, dtype=float)]
    for k in legs:
        q = path[-1].copy()
        q[k] += length
        path.append(q)
    return path


# ---------------------------------------------------------------------------
# implicit-flow: many small a-only period evaluations
# ---------------------------------------------------------------------------

IMPLICIT_STEP = 0.025


def gen_implicit(rng):
    cfg = interleaved(rng, 2)
    return cfg, axis_path(np.real(cfg.x), (0, 1), IMPLICIT_STEP * _LEG_SHRINK)


def op_implicit(inp) -> OpResult:
    cfg, path = inp
    state = iso.DeformationState(cfg, np.zeros(cfg.genus), mode="implicit")
    traj = iso.integrate_flow(state, path, iso.FlowControl(quad_tol=QUAD_TOL,
                                                           macro_step=IMPLICIT_STEP))
    kdv = iso.kdv_wavevector_report(cfg, traj, quad_tol=QUAD_TOL)
    comb = iso.comb_invariance_check(cfg, traj, tol=1e-6, quad_tol=QUAD_TOL)
    xs, us = traj.grid()
    return OpResult(
        digest=_digest(xs, us, kdv["U"], comb["q"], comb["h"]),
        residuals={"drift": (traj.max_drift(), 1e-7),
                   "wavevector_drift": (kdv["max_drift"], 1e-7),
                   "comb_q_drift": (float(np.max(comb["q_drift"])), 1e-6),
                   "comb_ratio_spread": (comb["ratio_spread"], 1e-6)})


# ---------------------------------------------------------------------------
# rational-flow: the second-order rational system, periods only for drift
# ---------------------------------------------------------------------------

RATIONAL_STEP = 0.025


def gen_rational(rng):
    cfg = interleaved(rng, 3)
    return cfg, axis_path(np.real(cfg.x), (0, 1, 2), RATIONAL_STEP * _LEG_SHRINK)


def op_rational(inp) -> OpResult:
    cfg, path = inp
    state = iso.DeformationState(cfg, np.zeros(cfg.genus), mode="rational")
    traj = iso.integrate_flow(state, path, iso.FlowControl(quad_tol=QUAD_TOL,
                                                           macro_step=RATIONAL_STEP))
    xs, us = traj.grid()
    return OpResult(digest=_digest(xs, us), residuals={"drift": (traj.max_drift(), 1e-5)})


# ---------------------------------------------------------------------------
# cnoidal: Weierstrass function evaluation along a genus-one flow
# ---------------------------------------------------------------------------

CNOIDAL_STEP = 0.02
CNOIDAL_GRID = 8


def gen_cnoidal(rng):
    # e1 = -e2 - e3 < e2 < e3 holds for these ranges, and u = 2 e2 + e3 >= 0.4
    e2 = rng.uniform(-0.1, 0.3)
    e3 = e2 + rng.uniform(0.7, 1.3)
    x0 = e2 + 2.0 * e3
    return e2, e3, x0 + 2 * CNOIDAL_STEP * _LEG_SHRINK


def op_cnoidal(inp) -> OpResult:
    e2, e3, x_end = inp
    rep = iso.cnoidal_period_report(e2, e3, x_end, n_grid=CNOIDAL_GRID,
                                    quad_tol=QUAD_TOL, macro_step=CNOIDAL_STEP)
    rows = rep["samples"]
    return OpResult(
        digest=_digest([r["two_w1"] for r in rows], [r["u"] for r in rows],
                       rep["wave_X"], rep["wave_v"]),
        residuals={"two_w1_drift": (rep["max_two_w1_drift"], 1e-7),
                   "wave_defect": (rep["max_wave_defect"], 1e-6)})


# ---------------------------------------------------------------------------
# periods-sweep: one-shot periods with b-contours on a narrowing gap
# ---------------------------------------------------------------------------

SWEEP_GENERA = (1, 2, 3)
# log10 of the narrow gap's width; widths below about 2.5e-4 to 1e-3
# (depending on genus and on which gap is narrow) exceed the quadrature
# node budget and raise NoConvergence
SWEEP_LOG_WIDTH = (-4.0, -1.0)
# widths per genus and gap index in a block, at the midpoints of equal steps
# in log10 width.  The grid is fixed and every gap index is narrowed at
# every width: near the failure threshold an op's cost and its success turn
# on the width and on the gap index, and with both drawn at random the
# share of the pool's time those ops take moved ops_per_s by 12% between
# seeds.  The seed draws the configurations and the order.
SWEEP_WIDTHS = 8


def narrow_gap(cfg, j, width) -> iso.BranchConfig:
    """Shrink gap j (0-based) of an interleaved config to ``width``, shifting later points."""
    u, x = list(np.real(cfg.u)), list(np.real(cfg.x))
    shift = (x[j] - u[j]) - width
    x[j] = u[j] + width
    for k in range(j + 1, len(u)):
        u[k] -= shift
        x[k] -= shift
    return iso.BranchConfig(x=tuple(x), u=tuple(u), real=True)


def gen_sweep_block(rng):
    lo, hi = SWEEP_LOG_WIDTH
    step = (hi - lo) / SWEEP_WIDTHS
    cells = [(g, j, lo + (k + 0.5) * step)
             for g in SWEEP_GENERA for j in range(g) for k in range(SWEEP_WIDTHS)]
    out = []
    for i in rng.permutation(len(cells)):
        g, j, log_width = cells[i]
        out.append(narrow_gap(interleaved(rng, g), j, 10.0 ** log_width))
    return out


def op_sweep(cfg) -> OpResult:
    pd = iso.normalized_basis(cfg, tol=QUAD_TOL)
    om = iso.build_omega(cfg, pd, tol=QUAD_TOL)
    comb = iso.comb_map(cfg, pd, om, tol=QUAD_TOL)
    B = pd.B
    return OpResult(
        digest=_digest(B, om.beta, comb.q, comb.h),
        residuals={"B_asymmetry": (float(np.max(np.abs(B - B.T))), 1e-9),
                   "beta_residual": (om.beta_residual, 1e-9),
                   "base_residual": (comb.base_residual, 1e-9)},
        conditions={"ImB_positive_definite": bool(np.all(np.linalg.eigvalsh(B.imag) > 0))})


# ---------------------------------------------------------------------------
# identities: residue and bidifferential identity suite
# ---------------------------------------------------------------------------

IDENTITY_GENERA = (2, 3, 4)


def gen_identity_block(rng):
    return [interleaved(rng, IDENTITY_GENERA[i]) for i in rng.permutation(len(IDENTITY_GENERA))]


def op_identities(cfg) -> OpResult:
    pd = iso.normalized_basis(cfg, tol=QUAD_TOL)
    om = iso.build_omega(cfg, pd, tol=QUAD_TOL)
    rep = iso.verify_identities(cfg, pd, om, tol=QUAD_TOL)
    # the acceptance bounds of the identity suite (genus >= 2 entries)
    return OpResult(
        digest=_digest(list(rep.values())),
        residuals={"dual_weighted_residue_sum": (rep["dual_weighted_residue_sum"], 1e-9),
                   "w_dual_expansion_xx": (rep["w_dual_expansion_xx"], 1e-8),
                   "w_dual_expansion_diag": (rep["w_dual_expansion_diag"], 1e-8)})


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    block: object       # rng -> list of inputs (one block)
    op: object          # input -> OpResult
    pool_blocks: int    # blocks in the seeded pool; a run makes whole passes over it


def _single(gen):
    return lambda rng: [gen(rng)]


WORKLOADS = {w.name: w for w in (
    Workload("implicit-flow", _single(gen_implicit), op_implicit, 40),
    Workload("rational-flow", _single(gen_rational), op_rational, 56),
    Workload("cnoidal", _single(gen_cnoidal), op_cnoidal, 40),
    Workload("periods-sweep", gen_sweep_block, op_sweep, 6),
    Workload("identities", gen_identity_block, op_identities, 20),
)}


def make_inputs(name: str, seed: int) -> list:
    """The seeded input pool of a workload: same seed, same inputs."""
    w = WORKLOADS[name]
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(w.pool_blocks):
        out.extend(w.block(rng))
    return out
