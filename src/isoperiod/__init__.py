"""Periods of hyperelliptic curves and isoperiodic deformations.

Curves mu^2 = lambda * prod(lambda - u_j) * prod(lambda - x_j) carry a unique
second-kind differential with a double pole at the branch point at infinity
and prescribed a-periods.  This package computes its periods, integrates the
deformations u(x) that keep all of them constant, and maps the resulting
families onto finite-gap potentials, cnoidal waves, Neumann spectral curves,
wavevector/periodicity reports, and comb regions.
"""

__version__ = "0.1.0"

from .curves import BranchConfig, validate_config
from .cycles import CanonicalBasis, CycleSpec, band_basis, gap_basis, intersection_matrix
from .periods import (OmegaDifferential, PeriodData, beta_from_evaluations,
                      build_omega, normalized_basis, wavevector_U)
from .flow import (DeformationState, FlowControl, Trajectory, first_derivatives,
                   hill_check, integrate_flow, newton_correct, rhs_genus_g,
                   verify_identities)
from .comb import CombRegion, comb_invariance_check, comb_map
from .apps import (WeierstrassData, cnoidal_period_report,
                   config_to_weierstrass, kdv_wavevector_report,
                   lame_two_gap_config, neumann_config, weierstrass_to_config,
                   wp_function)

__all__ = [
    "apps", "comb", "curves", "cycles", "errors", "flow", "periods",
    "BranchConfig", "validate_config",
    "CanonicalBasis", "CycleSpec", "band_basis", "gap_basis", "intersection_matrix",
    "OmegaDifferential", "PeriodData", "beta_from_evaluations",
    "build_omega", "normalized_basis", "wavevector_U",
    "DeformationState", "FlowControl", "Trajectory", "first_derivatives", "hill_check",
    "integrate_flow", "newton_correct", "rhs_genus_g", "verify_identities",
    "CombRegion", "comb_invariance_check", "comb_map",
    "WeierstrassData", "cnoidal_period_report", "config_to_weierstrass",
    "kdv_wavevector_report", "lame_two_gap_config", "neumann_config",
    "weierstrass_to_config", "wp_function",
]
