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
`model.normalize_homogeneous`.  `CompleteSet` is the one place that turns
such rows into results: it holds them with the problem whose pencils they
belong to, derives each row's pencil coefficients from
`model.pencil_coefficients` ((1, -lambda_1, ..., -lambda_k) for a finite
tuple and (gamma, -alpha_1, ..., -alpha_k) for an infinite one), gives the
finite values as `lambdas`, and builds EigenTuples on demand.  Each tuple's
vectors come from its own pencils: `tuples_from_pencils`, the one vector
route of the package, returns for every row of coefficients c the smallest
right singular vector x_i of sum_j c_j S_ij, as arrays, one batched SVD per
block over all rows that are read.  `solve_mep` returns every tuple of its
`CompleteSet`, so a square problem gets the null vectors of its tuples'
pencils, which need no factoring of z and exist also where z is not a
Kronecker product (multiple eigenvalues).  `tsvd.solve_complete` returns a
ranked `CompleteSet` over the rectangular blocks, and bench-random reads
only its `lambdas`.

`check_capacity` is the one capacity rule: from the block shapes alone it
refuses k > MAX_PARAMETERS, or a complete-set solve whose estimated peak
memory exceeds `errors.MEMORY_BUDGET`.  `operator_determinants`,
`tsvd.complete_rows` (the values stage of every complete-set solve) and the
CLI (before it makes `--out`) all call it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import reduce
from itertools import combinations, permutations

import numpy as np

from .errors import CapacityError, ValidationError, check_integer, check_memory
from .linalg import EPS, gemm, gep, svd, unit_scaled
from .model import (EigenTuple, EquationBlock, HomogeneousEigenvalue, MepProblem, RmepProblem, _complex_normal,
                    normalize_homogeneous, pencil_coefficients)

__all__ = [
    "CompleteSet",
    "OperatorDeterminants",
    "check_capacity",
    "operator_determinants",
    "solve_mep",
]

MAX_PARAMETERS = 4  # the expansion has k! Kronecker terms per determinant


@dataclass(frozen=True, eq=False)
class OperatorDeterminants:
    """The k+1 lifted matrices D_0..D_k."""

    matrices: tuple[np.ndarray, ...]


def _kron(a, b) -> np.ndarray:
    """np.kron of two matrices, bitwise, as one broadcast product: np.kron's
    general-rank set-up costs more than the product itself at small blocks."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def _operator_determinant(columns) -> np.ndarray:
    """Expansion sum_pi sign(pi) * kron(columns[pi(1)][1], ..., columns[pi(k)][k]).

    `columns[j][i]` is the block in row i, column j of the operator array.
    """
    total = None
    for perm in permutations(range(len(columns))):
        term = reduce(_kron, [columns[j][i] for i, j in enumerate(perm)])
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


def check_capacity(shapes) -> None:
    """CapacityError unless the complete-set solve of k blocks of shapes
    (m_i, n_i) fits, judged from the shapes alone: k <= MAX_PARAMETERS, and
    the estimated peak memory above the problem itself is within
    `errors.MEMORY_BUDGET`.

    The estimate is the larger of the two stages' peaks, as the lifted
    matrices are freed before the ranking begins:

    - the lifted pencil: (2k + 19) * 8 N^2 bytes, the k+1 determinants and
      the eigensolve's temporaries.  Measured with tracemalloc, complex
      data peaks at 18.3 to 23.1 real N x N arrays on the standard form and
      22.1 to 26.4 on QZ (k = 2 to 4, N = 256 to 900); a real problem can
      have a complex spectrum, so one factor serves every dtype, and a real
      problem with a real spectrum (9.2) is over-estimated about 2.5x;
    - the ranking: 20 * N * max_i m_i n_i bytes, 1.25 times the stack of
      one complex pencil per tuple for one block (measured 1.07 to 1.08
      times it).
    """
    k = len(shapes)
    if k > MAX_PARAMETERS:
        raise CapacityError(f"determinant expansion supports k <= {MAX_PARAMETERS}, got k = {k}")
    n_total = math.prod(n for _, n in shapes)
    lifted = (2 * k + 19) * 8 * n_total**2
    ranking = 20 * n_total * max(m * n for m, n in shapes)
    check_memory(f"the complete-set solve of {n_total} tuples", max(lifted, ranking))


def operator_determinants(problem: MepProblem) -> OperatorDeterminants:
    """Build D_0..D_k for a square problem, within `check_capacity`."""
    if not isinstance(problem, MepProblem):
        raise ValidationError("operator determinants require a square MepProblem")
    check_capacity(problem.shapes)
    k = problem.k
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
    n = len(matrices)
    w = _complex_normal(rng, n) if any(np.iscomplexobj(dj) for dj in matrices) else rng.standard_normal(n)
    w /= np.linalg.norm(w)
    return sum(wj * dj for wj, dj in zip(w, matrices))


def solve_mep(problem: MepProblem, seed: int = 0) -> list[EigenTuple]:
    """All N = n_1*...*n_k tuples of a square problem, multiplicities kept,
    each with the null vectors of its own pencils (residual None): the
    normalized rows of `solve_from_determinants`, read through an unranked
    `CompleteSet`.

    Deterministic for a fixed seed, an integer >= 0 (which draws the mass
    matrix's weights, then the tuple-splitting combination).  A copy of each
    block is first scaled by `linalg.unit_scaled`, so tuples and vectors do
    not depend on the scale of the data.
    """
    check_integer("seed", seed, 0)
    scaled = [blk.coeffs.copy() for blk in problem.blocks]
    for c in scaled:
        unit_scaled(c)
    problem = MepProblem(blocks=tuple(EquationBlock(a=c[0], b=tuple(c[1:])) for c in scaled))
    return list(CompleteSet(problem, solve_from_determinants(operator_determinants(problem), seed=seed)))


def tuples_from_pencils(problem: RmepProblem, c) -> list[np.ndarray]:
    """The smallest right singular vectors of the pencils sum_j c_tj S_ij,
    one pencil per row t of the T x (k+1) coefficients `c`: per block i, a
    (T, n_i) array.  One batched SVD per block serves all T rows, in real
    arithmetic when the blocks and `c` are real."""
    return [svd(blk.pencil(c)).v[:, :, -1] for blk in problem.blocks]


class CompleteSet(Sequence):
    """The tuples of a lifted solve, held as arrays: `rows` (N, k+1), the
    normalized homogeneous values (gamma, alpha_1, ..., alpha_k) in the
    caller's order, and `rho` (N, k), their normalized residuals on
    `problem`'s blocks (inf in infinite rows), or None when unranked.

    The other arrays are derived from these: `finite` (N,) and
    `coefficients` (N, k+1) from `model.pencil_coefficients(rows)`, and
    `total` (N,) as rho.sum(axis=1) (None when unranked).  `lambdas` gives
    the finite values without building any tuple.  `len`, indexing, slicing
    and iteration build EigenTuples on demand, with residuals when ranked and
    the tuple finite, else None: the tuples of a slice, or of the whole set,
    take their vectors from one `tuples_from_pencils` call, so a tuple's
    vectors are bitwise the same however it is reached.
    """

    def __init__(self, problem: RmepProblem, rows, rho=None):
        self.problem, self.rows, self.rho = problem, rows, rho
        self.finite, self.coefficients = pencil_coefficients(rows)
        self.total = None if rho is None else rho.sum(axis=1)

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._tuples(range(len(self))[index])
        return self._tuples([range(len(self))[index]])[0]

    def __iter__(self):
        return iter(self[:])

    @property
    def lambdas(self) -> np.ndarray:
        """(lambda_1, ..., lambda_k) of each finite tuple, in order, as the
        rows of an array: bitwise `dehomogenize` of each tuple's value."""
        rows = self.rows[self.finite]
        return rows[:, 1:] / rows[:, :1].real

    def _tuples(self, positions) -> list[EigenTuple]:
        positions = list(positions)
        if not positions:
            return []
        vectors = tuples_from_pencils(self.problem, self.coefficients[positions])
        out = []
        for j, t in enumerate(positions):
            value = HomogeneousEigenvalue(gamma=self.rows[t, 0].real, alphas=self.rows[t, 1:])
            ranked = self.rho is not None and self.finite[t]
            residuals = (float(self.total[t]), tuple(self.rho[t].tolist())) if ranked else (None, None)
            out.append(EigenTuple(value, tuple(x[j] for x in vectors), *residuals))
        return out


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
    # One product D_j Z per j, in one reused F-ordered buffer, gives both
    # numerators of every tuple: the two-sided w^H D_j z and the
    # least-squares (M z)^H D_j z.  The products are scipy's gemm, in the
    # pool that ran the eigensolve.
    mz_all = gemm(mass, z_all)
    buf = np.empty_like(mz_all)
    wmz = _column_vdots(w_all, mz_all, buf)
    mz_norms = np.sqrt(_column_vdots(mz_all, mz_all, buf).real)
    values = np.empty((z_all.shape[1], len(deltas.matrices)), dtype=np.complex128)
    least_squares = np.empty_like(values)
    for j, dj in enumerate(deltas.matrices):
        np.conjugate(gemm(dj, z_all, out=buf), out=buf)
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
