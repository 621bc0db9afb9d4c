"""Square multiparameter eigenproblems via Kronecker operator determinants.

A k-parameter square problem A_i x_i = sum_s lambda_s B_is x_i is lifted to
k+1 matrices of size N = n_1*...*n_k:

    D_0 = |B_is|_kron,    D_j = |B_is with column j replaced by (A_i)|_kron,

where the determinant expansion multiplies blocks with Kronecker products
(row order fixed as i = 1..k).  Every eigen-tuple satisfies
D_j z = lambda_j D_0 z with z = x_1 (x) ... (x) x_k, and when D_0 is
invertible the matrices D_0^{-1} D_j commute.

The solver works projectively so that singular D_0 (infinite eigenvalues)
is not fatal: its mass matrix M is one random combination sum_j w_j D_j,
and it solves one pencil (sum_j c_j D_j, M) with random coefficients c to
split tuples that collide in any single coordinate, and recovers each
homogeneous tuple from two-sided Rayleigh quotients

    (gamma, alpha_1, ..., alpha_k)  ~  (w^H D_0 z, w^H D_1 z, ..., w^H D_k z)

with (z, w) the right/left eigenvectors.  This is quadratically accurate in
the eigenvector error and needs no pairing across the k pencils.

No condition estimate judges M.  `linalg.gep` solves the pencil as the
standard problem M^{-1} sum_j c_j D_j (the commuting structure of the
determinants makes it equivalent) and keeps that solve only if every right
and left pair passes its backward-error check; otherwise it uses QZ.  Only
a singular pencil, det(sum_j c_j D_j - lambda M) = 0 for every lambda, is
irregular, and `linalg.gep` raises IrregularMepError for it.  The quotients of
all N tuples are formed together, one product D_j Z per j, and each product
gives two numerators: the two-sided w^H D_j z and the least-squares
(M z)^H D_j z.  A tuple whose left vector is unusable (w^H M z negligible
against ||M z||, or a zero or non-finite row) takes the least-squares row.
The weights w and c are real when every D_j is real, so a real problem is
solved in real arithmetic, and complex otherwise.  `solve_mep` first scales
a copy of each block with `linalg.unit_scaled`, by the power of two that
brings its largest entry into [1/2, 1): that is exact, leaves the tuples
unchanged and keeps the k-fold products of the determinants clear of
underflow and overflow.

The lifted pencil supplies only the values: `solve_from_determinants`
returns the homogeneous tuples as the rows of an array, normalized by
`model.normalize_homogeneous`.  Each tuple's vectors come from its own
pencils instead: `tuples_from_pencils`, the one vector route of the
package, returns for every row of coefficients c the smallest right
singular vector x_i of sum_j c_j S_ij, as arrays, one batched SVD per block
over all rows.  Its callers take c from `model.pencil_coefficients`:
(1, -lambda_1, ..., -lambda_k) for a finite tuple and (gamma, -alpha_1,
..., -alpha_k) for an infinite one.  `solve_mep` calls it on every tuple, so
a square problem gets the null vectors of its tuples' pencils, which need
no factoring of z and exist also where z is not a Kronecker product
(multiple eigenvalues).  `tsvd.CompleteSet` calls it on the pencils of the
rectangular blocks, for only the tuples that are read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations, permutations

import numpy as np

from .errors import CapacityError, ValidationError
from .linalg import EPS, gep, svd, unit_scaled
from .model import EigenTuple, EquationBlock, HomogeneousEigenvalue, MepProblem, RmepProblem, normalize_homogeneous, pencil_coefficients

__all__ = [
    "OperatorDeterminants",
    "operator_determinants",
    "solve_mep",
]

MAX_PARAMETERS = 4  # the expansion has k! Kronecker terms per determinant
# Largest lifted size N; D_0..D_k are dense N x N, so memory grows as N^2.
KRON_CAP = 20_000


@dataclass(frozen=True)
class OperatorDeterminants:
    """The k+1 lifted matrices D_0..D_k."""

    matrices: tuple[np.ndarray, ...]


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
    """+1 or -1 by the parity of the number of inversions."""
    return -1 if sum(p > q for p, q in combinations(perm, 2)) % 2 else 1


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
    return OperatorDeterminants(matrices=tuple(mats))


def _random_combination(matrices, rng):
    """sum_j w_j D_j for random unit weights w: real when every D_j is real,
    else complex."""
    w = rng.standard_normal(len(matrices))
    if any(np.iscomplexobj(dj) for dj in matrices):
        w = w + 1j * rng.standard_normal(len(matrices))
    w /= np.linalg.norm(w)
    return sum(wj * dj for wj, dj in zip(w, matrices))


def solve_mep(problem: MepProblem, seed: int = 0) -> list[EigenTuple]:
    """All N = n_1*...*n_k tuples of a square problem, multiplicities kept,
    each with the null vectors of its own pencils (residual None): the
    normalized rows of `solve_from_determinants`, with the pencils of
    `model.pencil_coefficients`.

    Deterministic for a fixed seed (which draws the mass matrix's weights,
    then the tuple-splitting combination).  A copy of each block is first
    scaled by `linalg.unit_scaled`, so tuples and vectors do not depend on
    the scale of the data.
    """
    scaled = (unit_scaled(blk.coeffs.copy()) for blk in problem.blocks)
    problem = MepProblem(blocks=tuple(EquationBlock(a=c[0], b=tuple(c[1:])) for c in scaled))
    rows = solve_from_determinants(operator_determinants(problem), seed=seed)
    vectors = tuples_from_pencils(problem, pencil_coefficients(rows)[1])
    return [
        EigenTuple(HomogeneousEigenvalue(gamma=row[0].real, alphas=row[1:]), tuple(x[t] for x in vectors))
        for t, row in enumerate(rows)
    ]


def tuples_from_pencils(problem: RmepProblem, c) -> list[np.ndarray]:
    """The smallest right singular vectors of the pencils sum_j c_tj S_ij,
    one pencil per row t of the T x (k+1) coefficients `c`: per block i, a
    (T, n_i) array.  One batched SVD per block serves all T rows, in real
    arithmetic when the blocks and `c` are real."""
    return [svd(blk.pencil(c)).v[:, :, -1] for blk in problem.blocks]


def _column_vdots(w, x, out):
    """vdot(w[:, j], x[:, j]) for every column j; `out` (x's shape, may be x
    itself) is overwritten as scratch."""
    np.conjugate(x, out=out)
    out *= w
    return out.sum(axis=0).conj()


def solve_from_determinants(deltas: OperatorDeterminants, seed: int = 0) -> np.ndarray:
    """The N tuples as the rows of an N x (k+1) array of homogeneous
    coordinates (gamma, alpha_1, ..., alpha_k), each normalized by
    `model.normalize_homogeneous`.  IrregularMepError (from `linalg.gep`)
    when the pencil is singular."""
    rng = np.random.default_rng(seed)
    mass = _random_combination(deltas.matrices, rng)
    a = _random_combination(deltas.matrices, rng)
    pencil = gep(a, mass)
    z_all, w_all = pencil.right, pencil.left
    # One product D_j Z per j, in one reused buffer, gives both numerators of
    # every tuple: the two-sided w^H D_j z and the least-squares (M z)^H D_j z.
    mz_all = mass @ z_all
    buf = np.empty_like(mz_all)
    wmz = _column_vdots(w_all, mz_all, buf)
    mz_norms = np.sqrt(_column_vdots(mz_all, mz_all, buf).real)
    values = np.empty((z_all.shape[1], len(deltas.matrices)), dtype=np.complex128)
    least_squares = np.empty_like(values)
    for j, dj in enumerate(deltas.matrices):
        np.matmul(dj, z_all, out=buf)
        np.conjugate(buf, out=buf)
        least_squares[:, j] = np.einsum("ij,ij->j", buf, mz_all).conj()
        buf *= w_all
        values[:, j] = buf.sum(axis=0).conj()
    left_unusable = (
        (np.abs(wmz) <= 1e3 * EPS * mz_norms)
        | (np.linalg.norm(values, axis=1) == 0.0)
        | ~np.all(np.isfinite(values), axis=1)
    )
    values[left_unusable] = least_squares[left_unusable]
    return normalize_homogeneous(values)
