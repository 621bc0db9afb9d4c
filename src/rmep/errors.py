"""Exception hierarchy shared across the package."""


class RmepError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(RmepError, ValueError):
    """Input data violates a documented precondition (shape, finiteness, ...)."""


class CapacityError(RmepError):
    """A requested dense operation would exceed a fixed size cap."""


class BackendError(RmepError):
    """The LAPACK backend failed (e.g. SVD/QZ did not converge)."""

    def __init__(self, message, shape=None):
        super().__init__(message)
        self.shape = shape


class InfiniteEigenvalueError(RmepError):
    """A finite eigenvalue was requested but gamma is at/below the threshold.

    Carries the homogeneous alpha coordinates so the caller can still reason
    about the relative magnitudes of the diverging eigenvalue components.
    """

    def __init__(self, message, alphas=None):
        super().__init__(message)
        self.alphas = alphas


class IrregularMepError(RmepError):
    """No random linear combination of the operator determinants was
    numerically invertible; the multiparameter problem is treated as
    irregular."""


class DomainError(RmepError, ValueError):
    """A function was evaluated outside its defining interval."""
