"""Exception types shared across the package."""


class HartreeKitError(Exception):
    """Base class for all package errors."""


class ParameterError(HartreeKitError, ValueError):
    """Invalid argument (wrong range, wrong shape, incompatible grids)."""


class DomainError(ParameterError):
    """Parameters outside the admissible coupling regime (e.g. beta <= max(mu1, mu2))."""


class DivergenceError(HartreeKitError):
    """A requested integral does not converge under the declared tail model."""


class ProjectionError(HartreeKitError):
    """Ray projection onto the Nehari set is undefined (vanishing positive part)."""


class ConstructionError(HartreeKitError):
    """An iterative construction could not meet its certification window."""


class AdmissibilityError(HartreeKitError):
    """Potential-smallness condition violated where a construction requires it."""


class NumericalError(HartreeKitError):
    """A numerical procedure failed (bracketing, convergence, cross-check)."""
