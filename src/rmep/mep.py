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

The solve streams the D_j: `_LiftedPencil` forms them in row blocks that
hold at most one real N x N array (or MIN_BLOCK_BYTES, for small N), in two
passes.  The first sums the blocks into A = sum_j c_j D_j and M, bitwise
the sums of the dense D_j.  No
condition estimate judges M.  `linalg.gep` factors M in place, solves the
pencil as the standard problem M^{-1} A (the commuting structure of the
determinants makes it equivalent) in A's storage, and keeps that solve only
if every right and left pair passes its backward-error check; otherwise it
uses QZ on an A and M formed again.  Only a singular pencil,
det(A - lambda M) = 0 for every lambda, is irregular, and `linalg.gep`
raises IrregularMepError for it.  The second pass takes one product
D_j Z and one D_j^T W per block and j, for all N tuples together; they give
the residuals of the backward-error check and two quotient numerators per
tuple: the two-sided w^H D_j z and the least-squares (M z)^H D_j z.  A tuple
whose left vector is unusable (w^H M z negligible against ||M z||, or a
zero or non-finite row) takes the least-squares row.  `operator_determinants`
builds the dense D_j, the reference that the streamed blocks equal.
The weights w and c are real when every block is real, so a real problem is
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
memory exceeds `errors.MEMORY_BUDGET`.  `solve_from_determinants`,
`operator_determinants`, `tsvd.complete_rows` (the values stage of every
complete-set solve) and the CLI (before it makes `--out`) all call it.
`tsvd.solve_complete` ranks in chunks of `ranking_chunk` tuples, so that
the ranking never decides the estimate.
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
# Floor of the bytes that one row block of the lifted solve may hold; above
# it, a block holds at most one real N x N array (`_LiftedPencil`).
MIN_BLOCK_BYTES = 2**20
# Bytes of one chunk of the ranking's stack of complex pencils (`ranking_chunk`).
RANKING_CHUNK_BYTES = 2**26


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


def ranking_chunk(shapes) -> int:
    """Tuples per chunk of `tsvd.solve_complete`'s ranking: as many complex
    pencils of the largest block of shape (m_i, n_i) as RANKING_CHUNK_BYTES
    holds, at least one."""
    return max(1, RANKING_CHUNK_BYTES // (16 * max(m * n for m, n in shapes)))


def check_capacity(shapes) -> None:
    """CapacityError unless the complete-set solve of k blocks of shapes
    (m_i, n_i) fits, judged from the shapes alone: k <= MAX_PARAMETERS, and
    the estimated peak memory above the problem itself is within
    `errors.MEMORY_BUDGET`.

    The estimate is the largest of the three stages' peaks, as each stage
    frees its arrays before the next begins:

    - the truncation: 80 (m_i + w_i) w_i bytes for the SVD of the stacked
      block [A_i, B_i1, ..., B_ik] of width w_i = (k+1) n_i, with its copy,
      U, the full V and gesdd's workspace: 1.2 to 2.7 times the measured
      peak of complex blocks, up to 6 times that of real ones (shapes from
      60 x 8 at k = 3 to 1500 x 1000 at k = 1).  It decides only for
      near-square k = 1 blocks;

    - the lifted pencil: 14 * 8 N^2 bytes, the pencil pair, the
      eigenvectors and the eigensolve's temporaries; the determinants are
      streamed in row blocks of at most one such array.  Measured with
      tracemalloc (k = 1 to 4, N = 256 to 900), a random problem peaks at
      8.0 to 9.6 real N x N arrays on the standard form and 9.1 to 12.3 on
      QZ, real or complex (a real problem can have a complex spectrum), so
      one factor serves every k and dtype; a real problem with a real
      spectrum (4.7) is over-estimated about 3x;
    - the ranking: 20 * T * max_i m_i n_i bytes, 1.25 times the stack of
      one complex pencil per tuple for one block (measured 1.07 to 1.08
      times it), for the T = min(N, `ranking_chunk`) tuples of one chunk.
    """
    k = len(shapes)
    if k > MAX_PARAMETERS:
        raise CapacityError(f"determinant expansion supports k <= {MAX_PARAMETERS}, got k = {k}")
    n_total = math.prod(n for _, n in shapes)
    truncation = max(80 * (m + (k + 1) * n) * (k + 1) * n for m, n in shapes)
    lifted = 14 * 8 * n_total**2
    ranking = 20 * min(n_total, ranking_chunk(shapes)) * max(m * n for m, n in shapes)
    check_memory(f"the complete-set solve of {n_total} tuples", max(truncation, lifted, ranking))


def _operator_arrays(problem: MepProblem) -> list:
    """The k+1 operator arrays of a square problem, within `check_capacity`:
    entry j is the list of columns whose determinant is D_j, so that
    `_operator_determinant(arrays[j])` is D_j."""
    if not isinstance(problem, MepProblem):
        raise ValidationError("operator determinants require a square MepProblem")
    check_capacity(problem.shapes)
    k = problem.k
    b_columns = [[problem.blocks[i].b[j] for i in range(k)] for j in range(k)]
    a_column = [problem.blocks[i].a for i in range(k)]
    return [b_columns] + [b_columns[:j] + [a_column] + b_columns[j + 1:] for j in range(k)]


def operator_determinants(problem: MepProblem) -> OperatorDeterminants:
    """Build D_0..D_k for a square problem, within `check_capacity`: the
    dense reference of the determinants that `solve_from_determinants`
    streams in row blocks."""
    return OperatorDeterminants(matrices=tuple(_operator_determinant(cols) for cols in _operator_arrays(problem)))


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
    return list(CompleteSet(problem, solve_from_determinants(problem, seed=seed)))


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


def solve_from_determinants(problem: MepProblem, seed: int = 0) -> np.ndarray:
    """The N tuples of a square problem as the rows of an N x (k+1) array of
    homogeneous coordinates (gamma, alpha_1, ..., alpha_k), each normalized
    by `model.normalize_homogeneous`, from its lifted pencil, whose
    determinants it streams in row blocks (`_LiftedPencil`).  The seed, an
    integer >= 0, draws the mass matrix's weights, then the pencil's
    combination.  IrregularMepError (from `linalg.gep`) when the pencil is
    singular; `check_capacity` judges the shapes first."""
    lifted = _LiftedPencil(problem, np.random.default_rng(seed))
    gep(*lifted.pencil(), lifted)
    return lifted.rows


class _LiftedPencil:
    """The lifted pencil (A, M) = (sum_j c_j D_j, sum_j w_j D_j) of a square
    problem, as `linalg.gep` takes a pencil stream, with its D_j formed in
    row blocks.

    Rows r0:r1 of the first equation's matrices give rows r0 P to r1 P of
    every D_j (P = n_2 ... n_k), since kron(X[r0:r1], Y, ...) is exactly
    those rows of kron(X, Y, ...); where P rows are more than a block
    holds, the first equation is fixed to one row and the next one sliced
    (`_row_blocks`).  The same slices of the transposed matrices give the
    rows of D_j^T.  A block holds 2(k + 3) arrays of its rows, at most
    max(8 N^2, MIN_BLOCK_BYTES) bytes together: one real N x N array, or
    the floor for small N.  A problem whose block is all N rows keeps its
    D_j from the first pass and forms each D_j once.

    - `pencil()` (pass 1) sums each block's w_j D_j and c_j D_j into two
      F-ordered buffers, bitwise the sums of the dense D_j, and returns
      (A, M); gep overwrites them, and a QZ fallback forms them again.
    - `residuals(alpha, beta, right, left_conj)` (pass 2) takes one product
      D_j Z and one D_j^T W per block and j, for the right vectors Z and the
      conjugated left vectors W.  With d_j = beta c_j - alpha w_j per pair,
      sum_j d_j D_j z is the right residual beta A z - alpha M z and
      sum_j d_j D_j^T w the left one.  The same products give the two
      Rayleigh quotients of every pair, the two-sided w^H D_j z and the
      least-squares (M z)^H D_j z, and `rows` their normalized tuples: the
      least-squares row where the left vector is unusable (w^H M z
      negligible against ||M z||, or a zero or non-finite row).

    The weights w (drawn first) and c are unit random vectors, real when the
    problem is real: a real problem is summed in real arithmetic, and its
    residuals too while the vectors are real.  Every O(N^3) product is
    scipy's gemm, in the pool that ran the eigensolve.
    """

    def __init__(self, problem: MepProblem, rng):
        k = problem.k
        self.arrays = _operator_arrays(problem)
        complex_data = any(np.iscomplexobj(blk.coeffs) for blk in problem.blocks)
        draw = (lambda n: _complex_normal(rng, n)) if complex_data else rng.standard_normal
        self.mass_weights, self.weights = (w / np.linalg.norm(w) for w in (draw(k + 1), draw(k + 1)))
        self.dtype = np.complex128 if complex_data else np.float64
        self.n = problem.total_dim
        # A block's rows of the k+1 determinants (kept in a one-block solve),
        # of their k+1 products and of four scratch arrays.
        row_bytes = 2 * (k + 3) * self.n * np.dtype(self.dtype).itemsize
        self.blocks = _row_blocks(problem.dims, max(8 * self.n**2, MIN_BLOCK_BYTES) // row_bytes)
        self.kept = None
        self.buffers = None
        self.rows = None

    def _determinant(self, j, selections, transposed=False):
        """One block's rows of D_j, or of D_j^T."""
        if self.kept is not None:
            return self.kept[j].T if transposed else self.kept[j]
        columns = [[m.T for m in col] for col in self.arrays[j]] if transposed else self.arrays[j]
        return _operator_determinant([[m[rows] for m, rows in zip(col, selections)] for col in columns])

    def pencil(self):
        """(A, M) formed in this pencil's two F-ordered buffers."""
        if self.buffers is None:
            self.buffers = tuple(np.zeros((self.n, self.n), dtype=self.dtype, order="F") for _ in range(2))
        else:
            for buffer in self.buffers:
                buffer.fill(0)
        a, mass = self.buffers
        for selections, rows in self.blocks:
            dets = self.kept or [self._determinant(j, selections) for j in range(len(self.arrays))]
            for dj, w, c in zip(dets, self.mass_weights, self.weights):
                # Zero plus the terms w_j * D_j in order j = 0..k, the weight
                # the left operand: the dense sum, bitwise.
                part = np.multiply(w, dj)
                mass[rows] += part
                a[rows] += np.multiply(c, dj, out=part)
            if len(self.blocks) == 1:
                self.kept = dets
        return a, mass

    def residuals(self, alpha, beta, right, left_conj):
        """Pass 2: the right and left residual norms of the pairs, and `rows`."""
        if not np.iscomplexobj(right):
            alpha, beta = alpha.real, beta.real
        d = self.weights[:, None] * beta - self.mass_weights[:, None] * alpha  # row j: d_j of every pair
        n, k1 = right.shape[1], len(self.arrays)
        values = np.zeros((n, k1), dtype=np.complex128)
        least_squares = np.zeros_like(values)
        wmz = np.zeros(n, dtype=np.complex128)
        mz_squared, right_squared, left_squared = (np.zeros(n) for _ in range(3))
        for selections, rows in self.blocks:
            products = self._products(selections, rows, right)
            right_squared += _squared_row_norms(np.einsum("jt,jtr->tr", d, products))
            mz = np.einsum("j,jtr->tr", self.mass_weights, products)
            w_rows = left_conj[rows].T
            wmz += np.einsum("tr,tr->t", w_rows, mz)
            values += np.einsum("tr,jtr->tj", w_rows, products)
            mz_squared += _squared_row_norms(mz)
            least_squares += np.einsum("tr,jtr->tj", np.conjugate(mz, out=mz), products)
            del products, mz  # before the left products
            left = np.einsum("jt,jtr->tr", d, self._products(selections, rows, left_conj, transposed=True))
            left_squared += _squared_row_norms(left)
        left_unusable = (
            (np.abs(wmz) <= 1e3 * EPS * np.sqrt(mz_squared))
            | (np.linalg.norm(values, axis=1) == 0.0)
            | ~np.all(np.isfinite(values), axis=1)
        )
        values[left_unusable] = least_squares[left_unusable]
        self.rows = normalize_homogeneous(values)
        return np.sqrt(right_squared), np.sqrt(left_squared)

    def _products(self, selections, rows, vectors, transposed=False):
        """One block's rows of D_j V (of D_j^T V when transposed) for every j,
        as one array indexed (j, column of V, row): gemm writes each product
        F-ordered into its transposed slice."""
        dtype = np.result_type(self.dtype, vectors)
        out = np.empty((len(self.arrays), vectors.shape[1], rows.stop - rows.start), dtype=dtype)
        for j, product in enumerate(out):
            gemm(self._determinant(j, selections, transposed), vectors, out=product.T)
        return out


def _row_blocks(dims, most) -> list:
    """Contiguous row blocks of the lifted matrices of dimensions `dims`,
    each of at most max(1, most) rows, as (one row slice per equation, the
    block's rows): the leading equations fixed to one row each, one equation
    sliced and the rest whole, so that the Kronecker products of the sliced
    matrices are exactly the block's rows."""
    k, n_total, most = len(dims), math.prod(dims), max(1, most)
    if most >= n_total:
        return [([slice(None)] * k, slice(0, n_total))]
    # The first equation l whose trailing product fits the budget is sliced.
    level = next(l for l in range(k) if math.prod(dims[l + 1:]) <= most)
    inner = math.prod(dims[level + 1:])
    step = most // inner
    blocks, start = [], 0
    for lead in np.ndindex(*dims[:level]):
        for r in range(0, dims[level], step):
            rows = min(step, dims[level] - r) * inner
            selections = [slice(i, i + 1) for i in lead] + [slice(r, r + step)] + [slice(None)] * (k - level - 1)
            blocks.append((selections, slice(start, start + rows)))
            start += rows
    return blocks


def _squared_row_norms(x):
    """Squared 2-norms of the rows of a real or complex matrix, without BLAS."""
    parts = (x.real, x.imag) if np.iscomplexobj(x) else (x,)
    return sum(np.einsum("ij,ij->i", p, p) for p in parts)
