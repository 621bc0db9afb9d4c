"""Minimal-perturbation solvers for rectangular multiparameter eigenvalue problems.

The package solves systems of k coupled equations
A_i x_i = sum_s lambda_s B_is x_i with tall rectangular coefficient blocks,
which in general admit no exact solution: approximate eigen-tuples are
defined as exact ones of the nearest (Frobenius) perturbed problem.  Two
solvers are provided -- an alternating scheme for a single tuple and a
truncated-SVD reduction to a square multiparameter problem for the complete
set -- plus a Chebyshev least-squares front end that turns two-parameter ODE
eigenproblems into such systems, and a batch CLI for experiments.
"""

from .alternating import AlternatingConfig, AlternatingTrace, solve_one
from .errors import (
    BackendError,
    CapacityError,
    DomainError,
    InfiniteEigenvalueError,
    IrregularMepError,
    RmepError,
    ValidationError,
)
from .mep import CompleteSet, operator_determinants, solve_mep
from .model import (
    EigenTuple,
    EquationBlock,
    HomogeneousEigenvalue,
    MepProblem,
    PerturbationSet,
    RmepProblem,
    dehomogenize,
    homogeneous_residual,
    homogenize,
    normalized_residual,
    random_planted_problem,
)
from .spectral import (
    ChebyshevBasis,
    DiscretizedOde,
    OdeEquation,
    OdeSpec,
    build_basis,
    builtin_mathieu,
    builtin_sturm_liouville,
    continuous_residuals,
    discretize,
    reconstruct,
)
from .tsvd import reduced_mep, solve_complete, truncate_blocks, truncation_certificate

__version__ = "0.1.0"

__all__ = [
    "AlternatingConfig",
    "AlternatingTrace",
    "BackendError",
    "CapacityError",
    "ChebyshevBasis",
    "CompleteSet",
    "DiscretizedOde",
    "DomainError",
    "EigenTuple",
    "EquationBlock",
    "HomogeneousEigenvalue",
    "InfiniteEigenvalueError",
    "IrregularMepError",
    "MepProblem",
    "OdeEquation",
    "OdeSpec",
    "PerturbationSet",
    "RmepError",
    "RmepProblem",
    "ValidationError",
    "build_basis",
    "builtin_mathieu",
    "builtin_sturm_liouville",
    "continuous_residuals",
    "dehomogenize",
    "discretize",
    "homogeneous_residual",
    "homogenize",
    "normalized_residual",
    "operator_determinants",
    "random_planted_problem",
    "reconstruct",
    "reduced_mep",
    "solve_complete",
    "solve_mep",
    "solve_one",
    "truncate_blocks",
    "truncation_certificate",
]
