"""Exception hierarchy for the isoperiod engine."""


class IsoperiodError(Exception):
    """Base class for all engine errors."""


class DegenerateConfig(IsoperiodError):
    """Two branch points coincide (or a branch point sits at zero)."""


class OrderingViolation(IsoperiodError):
    """A real configuration does not satisfy the requested interleaving."""


class NoConvergence(IsoperiodError):
    """Adaptive quadrature hit its node budget before the tolerance was met."""


class SingularPeriodMatrix(IsoperiodError):
    """The matrix of raw a-periods is numerically singular (bad basis or contours)."""


class VanishingOmegaAtU(IsoperiodError):
    """The second-kind differential vanishes at a moving ramification point.

    The first-order deformation system is undefined there.
    """

    def __init__(self, m, value=None):
        self.m = m
        self.value = value
        super().__init__(f"differential vanishes at the u_{m} ramification point (value={value})")


class SingularLocus(IsoperiodError):
    """Two branch points collided (within threshold) during a deformation."""


class DriftExceeded(IsoperiodError):
    """Recomputed b-periods drifted beyond the flow tolerance."""


class SingularJacobian(IsoperiodError):
    """Newton correction Jacobian is numerically singular."""


class NoProgress(IsoperiodError):
    """Newton correction failed to reduce the period residual."""


class RootLocalizationFailed(IsoperiodError):
    """Polynomial roots do not localize one per gap interval as expected."""


class LatticePoint(IsoperiodError):
    """Weierstrass function evaluated at (or too close to) a lattice point."""
