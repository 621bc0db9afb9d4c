"""Square multiparameter eigenproblems via Kronecker operator determinants.

A k-parameter square problem A_i x_i = sum_s lambda_s B_is x_i is lifted to
k+1 matrices of size N = n_1*...*n_k:

    D_0 = |B_is|_kron,    D_j = |B_is with column j replaced by (A_i)|_kron,

where the determinant expansion multiplies blocks with Kronecker products
(row order fixed as i = 1..k).  Every eigen-tuple satisfies
D_j z = lambda_j D_0 z with z = x_1 (x) ... (x) x_k, and when D_0 is
invertible the matrices D_0^{-1} D_j commute.

The solver works projectively so that singular D_0 (infinite eigenvalues)
is not fatal: it picks a numerically invertible mass matrix M (D_0 itself,
or the best of a few random combinations sum_j w_j D_j), solves one pencil
(sum_j c_j D_j, M) with random coefficients c to split tuples that collide
in any single coordinate, and recovers each homogeneous tuple from
two-sided Rayleigh quotients

    (gamma, alpha_1, ..., alpha_k)  ~  (w^H D_0 z, w^H D_1 z, ..., w^H D_k z)

with (z, w) the right/left eigenvectors.  This is quadratically accurate in
the eigenvector error and needs no pairing across the k pencils.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import permutations

import numpy as np

from .errors import CapacityError, IrregularMepError, ValidationError
from .linalg import EPS, gep, rcond_1norm, svd
from .model import HomogeneousEigenvalue, MepProblem

__all__ = [
    "OperatorDeterminants",
    "MepSolution",
    "operator_determinants",
    "extract_factors",
    "solve_mep",
]

MAX_PARAMETERS = 4  # the expansion has k! Kronecker terms per determinant
# Largest lifted size N; D_0..D_k are dense N x N, so memory grows as N^2.
KRON_CAP = 20_000
# Largest condition number of D_0 for which the plain pencil is solved
# directly; beyond it a random combination is used as the mass matrix.
COND_THRESHOLD = 1e12
# Random combinations drawn before the problem is declared irregular.
WEIGHT_TRIALS = 8
# Reciprocal condition number below which a combination counts as singular.
IRREGULAR_RCOND = EPS


@dataclass(frozen=True)
class OperatorDeterminants:
    """The k+1 lifted matrices D_0..D_k, the block sizes (n_1, ..., n_k) and
    the reciprocal 1-norm condition estimate `rcond` of D_0."""

    matrices: tuple[np.ndarray, ...]
    dims: tuple[int, ...]
    rcond: float

    @property
    def size(self) -> int:
        return self.matrices[0].shape[0]


@dataclass(frozen=True)
class MepSolution:
    """One recovered tuple: homogeneous value, unit vectors factored from its
    Kronecker eigenvector, and how decomposable that eigenvector was."""

    value: HomogeneousEigenvalue
    vectors: tuple[np.ndarray, ...]
    separability: float


def _operator_determinant(columns) -> np.ndarray:
    """Expansion sum_pi sign(pi) * kron(columns[pi(1)][1], ..., columns[pi(k)][k]).

    `columns[j][i]` is the block in row i, column j of the operator array.
    """
    total = None
    for perm in permutations(range(len(columns))):
        term = reduce(np.kron, [columns[j][i] for i, j in enumerate(perm)])
        if total is None:
            total = np.array(term)  # the identity permutation comes first
        elif _permutation_sign(perm) > 0:
            total += term
        else:
            total -= term
    return total


def _permutation_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def operator_determinants(problem: MepProblem) -> OperatorDeterminants:
    """Build D_0..D_k for a square problem (k <= 4, N capped)."""
    if not isinstance(problem, MepProblem):
        raise ValidationError("operator determinants require a square MepProblem")
    k = problem.k
    if k > MAX_PARAMETERS:
        raise CapacityError(f"determinant expansion supports k <= {MAX_PARAMETERS}, got k = {k}")
    n_total = problem.total_dim
    if n_total > KRON_CAP:
        raise CapacityError(f"operator determinants would be {n_total}x{n_total}, cap is {KRON_CAP}")
    b_columns = [[problem.blocks[i].b[j] for i in range(k)] for j in range(k)]
    mats = [_operator_determinant(b_columns)]
    a_column = [problem.blocks[i].a for i in range(k)]
    for j in range(k):
        cols = list(b_columns)
        cols[j] = a_column
        mats.append(_operator_determinant(cols))
    return OperatorDeterminants(matrices=tuple(mats), dims=problem.dims, rcond=rcond_1norm(mats[0]))


def extract_factors(z, dims):
    """Factor a unit N-vector into k unit vectors by successive rank-1 SVDs.

    Reshape to n_1 x (N/n_1), take the top left singular vector as the first
    factor and carry sigma_1 * conj(top right singular vector) forward.  The
    returned factors are phase-aligned so their Kronecker product matches z
    (not merely up to phase).  The separability score is the 2-norm distance
    of z from the nearest scaled Kronecker product of the factors; anything
    above ~1e-6 signals a defective or clustered eigenvalue whose invariant
    subspace is not decomposable.
    """
    z = np.array(z, dtype=np.complex128).reshape(-1)
    dims = tuple(int(d) for d in dims)
    if z.size != int(np.prod(dims)):
        raise ValidationError(f"vector of length {z.size} does not factor into dims {dims}")
    nrm = np.linalg.norm(z)
    if abs(nrm - 1.0) > 1e-12:
        raise ValidationError("extract_factors expects a unit vector")
    factors = []
    current = z
    for d in dims[:-1]:
        mat = current.reshape(d, -1)
        res = svd(mat)
        factors.append(res.u[:, 0].copy())
        current = res.singular_values[0] * res.v[:, 0].conj()
        cn = np.linalg.norm(current)
        if cn == 0:
            current = np.zeros_like(current)
            current[0] = 1.0
        else:
            current = current / cn
    factors.append(current)
    product = factors[0]
    for f in factors[1:]:
        product = np.kron(product, f)
    coeff = np.vdot(product, z)
    if abs(coeff) > 0:
        factors[0] = factors[0] * (coeff / abs(coeff))
        product = product * (coeff / abs(coeff))
        coeff = abs(coeff)
    score = float(np.linalg.norm(z - coeff * product))
    return factors, score


def _random_combination(matrices, rng):
    """sum_j w_j D_j for random unit complex weights w."""
    w = rng.standard_normal(len(matrices)) + 1j * rng.standard_normal(len(matrices))
    w /= np.linalg.norm(w)
    return sum(wj * dj for wj, dj in zip(w, matrices))


def _pick_mass(deltas: OperatorDeterminants, rng):
    """(mass, rcond): D_0 when well conditioned, else the best-conditioned of
    WEIGHT_TRIALS random combinations (the first draw is kept on ties)."""
    if deltas.rcond >= 1.0 / COND_THRESHOLD:
        return deltas.matrices[0], deltas.rcond
    mass, rc = None, 0.0
    for _ in range(WEIGHT_TRIALS):
        candidate = _random_combination(deltas.matrices, rng)
        candidate_rc = rcond_1norm(candidate)
        if mass is None or candidate_rc > rc:
            mass, rc = candidate, candidate_rc
    if rc < IRREGULAR_RCOND:
        raise IrregularMepError(
            f"no combination of the operator determinants was numerically invertible "
            f"(best rcond {rc:.2e} over {WEIGHT_TRIALS} draws)"
        )
    return mass, rc


def solve_mep(problem: MepProblem, seed: int = 0) -> list[MepSolution]:
    """All N = n_1*...*n_k tuples of a square problem, multiplicities kept.

    Deterministic for a fixed seed (which drives the random mass-matrix
    weights and the tuple-splitting combination).
    """
    deltas = operator_determinants(problem)
    return solve_from_determinants(deltas, seed=seed)


def _least_squares_quotients(matrices, mz, z) -> np.ndarray:
    """(M z)^H D_j z / ||M z||^2 for each j: the homogeneous tuple from least
    squares on the pairs (M z, D_j z), used when the left vector is unusable."""
    return np.array([np.vdot(mz, dj @ z) for dj in matrices]) / float(np.vdot(mz, mz).real)


def solve_from_determinants(deltas: OperatorDeterminants, seed: int = 0) -> list[MepSolution]:
    rng = np.random.default_rng(seed)
    mass, _ = _pick_mass(deltas, rng)
    pencil = gep(_random_combination(deltas.matrices, rng), mass)
    solutions = []
    for j in range(deltas.size):
        z = pencil.right[:, j]
        w = pencil.left[:, j]
        mz = mass @ z
        raw = np.array([np.vdot(w, dj @ z) for dj in deltas.matrices])
        left_unusable = (
            abs(np.vdot(w, mz)) <= 1e3 * EPS * np.linalg.norm(mz)
            or np.linalg.norm(raw) == 0.0
            or not np.all(np.isfinite(raw.view(np.float64)))
        )
        if left_unusable:
            raw = _least_squares_quotients(deltas.matrices, mz, z)
        value = HomogeneousEigenvalue.from_vector(raw)
        factors, score = extract_factors(z, deltas.dims)
        solutions.append(MepSolution(value=value, vectors=tuple(factors), separability=score))
    return solutions

