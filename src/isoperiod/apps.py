"""Application layer: one- and two-gap elliptic potentials, cnoidal waves,
Neumann spectral curves, and wavevector reports for spatially periodic
finite-gap data.

The elliptic-curve applications live on the shifted family with branch points
{0, u, x, infinity}: for root ordering e1 < e2 < e3 of 4 t^3 - g2 t - g3 (with
e1 = -e2 - e3), shifting by -e1 sends the curve to u = 2 e2 + e3,
x = e2 + 2 e3.  The Weierstrass function is evaluated on whole arrays of
arguments from the q-series of its theta quotients on the reduced lattice.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from . import flow as _flow
from .curves import BranchConfig, require_valid
from .errors import LatticePoint, OrderingViolation
from .periods import (PeriodData, SegmentTable, in_markings, normalized_basis,
                      require_positive, wavevector_U)
from . import cycles as _cycles


# ---------------------------------------------------------------------------
# genus one / Weierstrass layer
# ---------------------------------------------------------------------------

def weierstrass_to_config(e2, e3) -> BranchConfig:
    """Branch points of the curve shifted so that e1 = -e2 - e3 moves to 0."""
    e2, e3 = complex(e2), complex(e3)
    u = 2.0 * e2 + e3
    x = e2 + 2.0 * e3
    cfg = BranchConfig(x=(x,), u=(u,), real=(abs(e2.imag) + abs(e3.imag) == 0.0))
    require_valid(cfg)
    return cfg


def config_to_weierstrass(cfg: BranchConfig):
    """Inverse of :func:`weierstrass_to_config` (exact linear algebra)."""
    x, u = cfg.x[0], cfg.u[0]
    return (2.0 * u - x) / 3.0, (2.0 * x - u) / 3.0


def lame_two_gap_config(e2, e3):
    """Genus-two configuration of the two-gap elliptic potential 6 wp(X).

    Returns (config, recovered (e2, e3)); the recovery is the exact linear
    inverse e3 = (2 x1 - x2) / 9, e2 = (2 x2 - x1) / 9.
    """
    e2, e3 = complex(e2), complex(e3)
    g2 = 4.0 * (e2 ** 2 + e3 ** 2 + e2 * e3)
    s = cmath.sqrt(3.0 * g2)
    x1 = 3.0 * e2 + 6.0 * e3
    x2 = 6.0 * e2 + 3.0 * e3
    u1 = s + 3.0 * (e2 + e3)
    u2 = -s + 3.0 * (e2 + e3)
    cfg = BranchConfig(x=(x1, x2), u=(u1, u2),
                       real=(abs(e2.imag) + abs(e3.imag) == 0.0 and abs(s.imag) < 1e-14))
    require_valid(cfg)
    recovered = ((2.0 * x2 - x1) / 9.0, (2.0 * x1 - x2) / 9.0)
    return cfg, recovered


@dataclass
class WeierstrassData:
    """Invariants and half-periods of the elliptic curve for (e2, e3).

    Half-periods come from the a- and b-periods of d(lambda)/w on the shifted
    curve; for real e1 < e2 < e3 the a-half-period w1 is purely imaginary and
    w2 is real in this marking.
    """

    e2: complex
    e3: complex
    e1: complex
    g2: complex
    g3: complex
    w1: complex
    w2: complex
    cfg: BranchConfig

    @classmethod
    def from_roots(cls, e2, e3, tol: float = 1e-11, pd: PeriodData | None = None):
        """Half-periods from ``pd``, the period data of a shifted curve with
        roots e2, e3 (a flow sample's), or else of weierstrass_to_config(e2, e3)."""
        e2, e3 = complex(e2), complex(e3)
        e1 = -e2 - e3
        if pd is None:
            pd = normalized_basis(weierstrass_to_config(e2, e3), tol=tol)
        # w^2 = 4 mu^2 on the shifted curve, so periods of dl/w are half ours
        two_w1 = complex(pd.A_raw[0, 0]) / 2.0
        two_w2 = complex(pd.B[0, 0] * pd.A_raw[0, 0]) / 2.0
        return cls(e2=e2, e3=e3, e1=e1,
                   g2=4.0 * (e2 ** 2 + e3 ** 2 + e2 * e3),
                   g3=-4.0 * e2 * e3 * (e2 + e3),
                   w1=two_w1 / 2.0, w2=two_w2 / 2.0, cfg=pd.cfg)

    def lattice(self):
        return 2.0 * self.w1, 2.0 * self.w2


def _gauss_reduce(w1: complex, w2: complex):
    """Lagrange-reduced generators of the lattice spanned by w1, w2."""
    a, b = w1, w2
    for _ in range(64):
        if abs(a) < abs(b):
            a, b = b, a
        n = round((a * b.conjugate()).real / abs(b) ** 2)
        if n == 0:
            break
        a = a - n * b
    return a, b


def wp_function(wd: WeierstrassData, z):
    """Weierstrass elliptic function and its derivative at z, a scalar or an array.

    The lattice is reduced once to a shortest vector b and a second vector a
    with tau = a / b, Im tau >= sqrt(3)/2, so |q| = |exp(i pi tau)| <= 0.066.
    Each z is moved by lattice vectors to b (s + t tau), |s|, |t| <= 1/2, and
    with v = pi (s + t tau), c_n = n q^2n / (1 - q^2n) the q-series of the
    theta quotients (DLMF 23.8) give
        wp  = (pi / b)^2 [csc^2 v - 1/3 + 8 sum_n c_n (1 - cos 2nv)],
        wp' = (pi / b)^3 [-2 csc^2 v cot v + 16 sum_n n c_n sin 2nv].
    The terms c_n cos 2nv and i c_n sin 2nv are formed as n (E+ +- E-) / (2 (1 - q^2n))
    from E+- = exp(2in (pi tau +- v)), whose moduli are at most |q|^n on the
    reduced cell (|Im v| <= pi Im tau / 2): no term overflows, however
    elongated the lattice.
    Returns (wp, wp') shaped like z; a scalar takes the same array code, so it
    equals the matching entry of an array call bit for bit.  Raises
    LatticePoint if some z lies within 1e-12 |b| of a pole.
    """
    zz = np.asarray(z, dtype=complex).ravel()
    a, b = _gauss_reduce(*wd.lattice())
    if (a / b).imag < 0.0:
        a = -a
    tau = a / b
    t = np.round((zz / b).imag / tau.imag)
    s = np.round((zz / b).real - t * tau.real)
    r = (zz - s * b - t * a) / b                 # s + t tau in the reduced cell
    if (near := np.abs(r) < 1e-12).any():
        raise LatticePoint(f"wp evaluated at a lattice point: {zz[np.argmax(near)]}")
    n = np.arange(1, 15)           # term n is O(n |q|^n) on the reduced cell; |q|^14 < 3e-17
    log_q2n = 2j * np.pi * tau * n
    q2n = np.exp(log_q2n)
    k = n / (1.0 - q2n)
    v = np.pi * r
    nv = 2j * n * v[:, None]
    e_plus, e_minus = np.exp(log_q2n + nv), np.exp(log_q2n - nv)
    csc2 = 1.0 / np.sin(v) ** 2
    wp = (np.pi / b) ** 2 * (csc2 - 1.0 / 3.0 + 8.0 * np.sum(k * q2n)
                             - 4.0 * np.sum(k * (e_plus + e_minus), axis=-1))
    wp_prime = (np.pi / b) ** 3 * (-2.0 * csc2 / np.tan(v)
                                   - 8j * np.sum(n * k * (e_plus - e_minus), axis=-1))
    return wp.reshape(np.shape(z))[()], wp_prime.reshape(np.shape(z))[()]


def cnoidal_period_report(e2, e3, x_end, n_grid: int = 512,
                          quad_tol: float = 1e-11, macro_step: float = 0.01) -> dict:
    """Deform the one-gap curve keeping the a-period of d(lambda)/w constant
    and verify the sampled wave stays periodic with the starting period.

    The wave v(X) = 2 wp(X) (phase and speed constants set to zero; the
    periodicity defect is independent of both) is sampled at every flow
    sample on X_i = (i + 1/2) 2L / n_grid over two real periods 2L, and on
    that grid shifted by the flow-start period 2 w1.  The half-periods come
    from each flow sample's own period data (:func:`isoperiod.flow.sample_periods`),
    whose b-rows are integrated first, a kernel call per ``CHECK_BLOCK`` samples.  A
    ``quad_tol`` that is not finite and positive raises ValueError (FlowControl's).
    ``n_grid`` must be positive and even: an odd grid puts its middle node
    on the pole X = L.
    """
    if not (n_grid > 0 and n_grid % 2 == 0):
        raise ValueError(f"n_grid must be a positive even integer, got {n_grid!r}")
    cfg0 = weierstrass_to_config(e2, e3)
    state = _flow.DeformationState(cfg=cfg0, alpha=np.zeros(1), mode=_flow.IMPLICIT)
    ctrl = _flow.FlowControl(quad_tol=quad_tol, macro_step=macro_step)
    traj = _flow.integrate_flow(state, [list(cfg0.x), [complex(x_end)]], ctrl)

    rows, samples = [], iter(traj.samples)
    for run in _flow.sample_periods(cfg0, traj.samples, quad_tol):
        pds = list(run)
        SegmentTable.fill([pd.table for pd in pds])     # the run's b-rows; the a-rows are there
        for pd, s in zip(pds, samples):
            wd = WeierstrassData.from_roots(*config_to_weierstrass(pd.cfg), pd=pd)
            two_w1 = 2.0 * wd.w1
            two_w1_0 = rows[0]["two_w1"] if rows else two_w1
            L = abs(2.0 * wd.w2)       # real period of the wave
            X = (np.arange(n_grid) + 0.5) * (2.0 * L / n_grid)
            v, v_shift = 2.0 * wp_function(wd, np.stack((X, X + two_w1_0)))[0]
            rows.append({
                "x": complex(s.x[0]), "u": complex(s.u[0]),
                "two_w1": two_w1,
                "two_w1_drift": abs(two_w1 - two_w1_0) / abs(two_w1_0),
                "wave_period_defect": float(np.max(np.abs(v_shift - v)) / np.max(np.abs(v))),
            })
    return {
        "samples": rows,
        "max_two_w1_drift": max(r["two_w1_drift"] for r in rows),
        "max_wave_defect": max(r["wave_period_defect"] for r in rows),
        "beta_drift": traj.max_drift(),
        "trajectory": traj,
        "wave_X": X,
        "wave_v": v,
    }


# ---------------------------------------------------------------------------
# spectra: the Neumann system
# ---------------------------------------------------------------------------

def neumann_config(A, z_even) -> BranchConfig:
    """Spectral-curve configuration of the Neumann system on the n-sphere.

    ``A`` holds the n distinct oscillator coefficients with x_j = -A_j
    (the final coefficient is normalized to zero and omitted); ``z_even``
    the interlaced gap edges u_j = z_{2j}.  Requires
    0 < u_n < x_n < ... < u_1 < x_1.
    """
    A = [float(v) for v in A]
    z_even = [float(v) for v in z_even]
    if len(A) != len(z_even):
        raise OrderingViolation("need as many gap edges as oscillator coefficients")
    x = [-a for a in A]
    u = list(z_even)
    seq = []
    for j in range(len(x) - 1, -1, -1):
        seq.extend([u[j], x[j]])
    if not all(0.0 < a for a in seq[:1]) or not all(a < b for a, b in zip(seq, seq[1:])):
        raise OrderingViolation(
            f"gap edges must interlace as 0 < u_n < x_n < ... < u_1 < x_1, got {seq}")
    return BranchConfig(x=tuple(x), u=tuple(u), real=True)


# ---------------------------------------------------------------------------
# wavevector preservation reports
# ---------------------------------------------------------------------------

def kdv_wavevector_report(cfg: BranchConfig, trajectory, quad_tol: float = 1e-11) -> dict:
    """Wavevector omega(P_infinity) at every trajectory sample.

    Each sample's periods are read in the default gap marking, whatever the
    marking the trajectory was integrated in, through
    :func:`isoperiod.flow.sample_periods` (the sample's own period data when
    they fit, else computed anew).  A complex curve has no default marking
    (:func:`isoperiod.periods.default_marking`), so a complex trajectory raises
    DegenerateConfig.  Reports the maximum componentwise drift there and, for
    samples flagged ``real``, the imaginary part of the wavevector in the
    involution-invariant band marking (where it is a real vector), one stack per
    ``CHECK_BLOCK`` samples on their own segment tables
    (:func:`isoperiod.periods.in_markings`): its band segments are the gap
    marking's b-segments, which the comb map integrates too, so each is
    integrated once.  A ``quad_tol`` that is not finite and positive raises
    ValueError before any quadrature.
    """
    require_positive(quad_tol=quad_tol)
    U_rows, U_band_rows = [], []
    for run in _flow.sample_periods(cfg, trajectory.samples, quad_tol):
        pds = list(run)
        U_rows += [wavevector_U(pd.cfg, pd) for pd in pds]
        real = [pd for pd in pds if pd.cfg.real]
        if real:
            bands = in_markings(real, [_cycles.band_marking(pd.table.key) for pd in real])
            U_band_rows += [b.omega_at[:, -1] for b in bands]
    U = np.array(U_rows)
    out = {"U": U, "max_drift": float(np.max(np.abs(U - U[0])))}
    if U_band_rows:
        U_band = np.array(U_band_rows)
        out["U_band"] = U_band
        out["max_im_U_band"] = float(np.max(np.abs(U_band.imag)))
    return out
