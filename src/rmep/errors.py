"""Exception hierarchy shared across the package, its integer check and its
memory budget."""

import numbers

# Bytes that one complete-set solve or one planted draw may ask for, judged
# from its shapes before anything is allocated: half of an 8 GiB machine.
MEMORY_BUDGET = 4 * 2**30


class RmepError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(RmepError, ValueError):
    """Input data violates a documented precondition (shape, finiteness, ...)."""


class CapacityError(RmepError):
    """A requested solve is too large, judged from its shapes alone: its
    estimated memory exceeds MEMORY_BUDGET, or it has more parameters than
    the determinant expansion supports (`mep.check_capacity`)."""


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
    """`linalg.gep` found the pencil singular: a QZ pair (alpha, beta) is
    zero to rounding against the pencil's norms.  For the lifted pencil of
    the operator determinants this marks the multiparameter problem as
    irregular."""


class DomainError(RmepError, ValueError):
    """A function was evaluated outside its defining interval.  A parameter
    outside its allowed range is a ValidationError."""


def check_integer(name, value, minimum):
    """`value`, or a ValidationError unless it is an integer (int or numpy
    integer, not a bool) of at least `minimum`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value!r}")
    return value


def check_memory(what, nbytes):
    """CapacityError if `what` would need more than MEMORY_BUDGET bytes."""
    if nbytes > MEMORY_BUDGET:
        raise CapacityError(f"{what} needs about {nbytes / 2**30:.3g} GiB, budget {MEMORY_BUDGET / 2**30:.3g} GiB")
