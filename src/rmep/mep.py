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

`linalg.gep` solves the pencil as the standard problem M^{-1} sum_j c_j D_j
(the commuting structure of the determinants makes it equivalent) and keeps
that solve only if every right and left pair has a backward error on the
pencil of at most `linalg.GEP_BACKWARD_RTOL`; otherwise it uses QZ.  The
quotients of all N tuples are formed together, one product D_j Z per j.

The lifted pencil supplies only the values: `solve_from_determinants`
returns the homogeneous tuples as the rows of an array.  Each tuple's
vectors come from its own pencils instead: `tuples_from_pencils` takes x_i
as the smallest right singular vector of sum_j c_j S_ij for the tuple's
coefficients c, one batched SVD per block over all tuples.  `solve_mep`
uses c = (gamma, -alpha_1, ..., -alpha_k), so a square problem gets the
null vectors of gamma A_i - sum_s alpha_s B_is, which need no factoring of
z and exist also where z is not a Kronecker product (multiple
eigenvalues); `tsvd.solve_complete` calls it on the rectangular blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import permutations

import numpy as np

from .errors import CapacityError, IrregularMepError, ValidationError
from .linalg import EPS, gep, rcond_1norm, svd
from .model import EigenTuple, HomogeneousEigenvalue, MepProblem, RmepProblem

__all__ = [
    "OperatorDeterminants",
    "operator_determinants",
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


def solve_mep(problem: MepProblem, seed: int = 0) -> list[EigenTuple]:
    """All N = n_1*...*n_k tuples of a square problem, multiplicities kept,
    each with the null vectors of its own pencils (residual None).

    Deterministic for a fixed seed (which drives the random mass-matrix
    weights and the tuple-splitting combination).
    """
    coords = solve_from_determinants(operator_determinants(problem), seed=seed)
    values = [HomogeneousEigenvalue.from_vector(v) for v in coords]
    return tuples_from_pencils(problem, values, [v.coefficients for v in values])


def tuples_from_pencils(problem: RmepProblem, values, c) -> list[EigenTuple]:
    """One EigenTuple per value (residual None) whose vector x_i is the
    smallest right singular vector of the pencil sum_j c_tj S_ij, with row t
    of the T x (k+1) coefficients `c` belonging to values[t].  One batched
    SVD per block serves all T tuples."""
    vectors = [svd(blk.pencil(c)).v[:, :, -1] for blk in problem.blocks]
    return [EigenTuple(value, tuple(x[t] for x in vectors)) for t, value in enumerate(values)]


def _least_squares_quotients(matrices, mz, z) -> np.ndarray:
    """(M z)^H D_j z / ||M z||^2 for each j: the homogeneous tuple from least
    squares on the pairs (M z, D_j z), used when the left vector is unusable."""
    return np.array([np.vdot(mz, dj @ z) for dj in matrices]) / float(np.vdot(mz, mz).real)


def _column_vdots(w, x, out):
    """vdot(w[:, j], x[:, j]) for every column j; `out` (x's shape, may be x
    itself) is overwritten as scratch."""
    np.conjugate(x, out=out)
    out *= w
    return out.sum(axis=0).conj()


def solve_from_determinants(deltas: OperatorDeterminants, seed: int = 0) -> np.ndarray:
    """The N tuples as the rows of an N x (k+1) array of homogeneous
    coordinates (gamma, alpha_1, ..., alpha_k), not normalized."""
    rng = np.random.default_rng(seed)
    mass, _ = _pick_mass(deltas, rng)
    pencil = gep(_random_combination(deltas.matrices, rng), mass)
    z_all, w_all = pencil.right, pencil.left
    # All tuples' quotients at once: one product per D_j, reusing one buffer.
    mz_all = mass @ z_all
    buf = np.empty_like(mz_all)
    wmz = _column_vdots(w_all, mz_all, buf)
    mz_norms = np.sqrt(_column_vdots(mz_all, mz_all, buf).real)
    values = np.empty((deltas.size, len(deltas.matrices)), dtype=np.complex128)
    for j, dj in enumerate(deltas.matrices):
        np.matmul(dj, z_all, out=buf)
        values[:, j] = _column_vdots(w_all, buf, buf)
    left_unusable = (
        (np.abs(wmz) <= 1e3 * EPS * mz_norms)
        | (np.linalg.norm(values, axis=1) == 0.0)
        | ~np.all(np.isfinite(values), axis=1)
    )
    for j in np.flatnonzero(left_unusable):
        values[j] = _least_squares_quotients(deltas.matrices, mz_all[:, j], z_all[:, j])
    return values
