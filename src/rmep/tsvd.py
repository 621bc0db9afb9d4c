"""Complete-set solver via per-block truncated SVDs.

Stacking each block as [A_i, B_i1, ..., B_ik] (m_i x (k+1)n_i) and keeping
the n_i dominant singular triplets yields the nearest (Frobenius) problem
whose stacked blocks have rank <= n_i; the squared tail singular values sum
to that minimal cost.  Partitioning the leading right singular vectors into
k+1 row blocks V_11, V_21, ..., V_{k+1,1} (each n_i x n_i) turns the
perturbed problem into the square multiparameter problem

    V_11^H x = lambda_1 V_21^H x + ... + lambda_k V_{k+1,1}^H x,

whose N = n_1*...*n_k tuples are the complete set of approximate
eigen-tuples for the rectangular problem.  `solve_complete` takes their
values from it, ranks them on the original blocks by the smallest singular
values of their pencils alone and returns a `CompleteSet`, which builds
EigenTuples, vectors included, only for the tuples that are read.  When additionally
||V_11||_2 < 1, the minimal cost is attained and explicit coupling matrices
X_is with A^_i = sum_s B^_is X_is exist; they are built from a column-pivoted
QR of V_12.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from . import mep
from .linalg import singular_values, svd
from .model import (
    EigenTuple,
    EquationBlock,
    HomogeneousEigenvalue,
    MepProblem,
    PerturbationSet,
    RmepProblem,
    pencil_coefficients,
)

__all__ = [
    "BlockTruncation",
    "TruncationCertificate",
    "truncate_blocks",
    "truncation_certificate",
    "reduced_mep",
    "CompleteSet",
    "solve_complete",
]

# Margin under 1.0 required of every ||V_11||_2 before the truncation
# certificate is marked attained: at 1 the coupling solve is singular.
ATTAINMENT_MARGIN = 1e-10


@dataclass(frozen=True)
class BlockTruncation:
    """Dominant-subspace data of one stacked block [A_i, B_i1, ..., B_ik].

    u1 (m x n) and sigma1 (n,) are the leading singular pairs; vblocks are
    the k+1 row blocks of the leading right singular vectors (n x n each);
    tail holds singular values n+1..min(m, (k+1)n).
    """

    u1: np.ndarray
    sigma1: np.ndarray
    vblocks: tuple[np.ndarray, ...]
    v_trailing: np.ndarray
    tail: np.ndarray

    @property
    def n(self) -> int:
        return self.sigma1.size


def truncate_blocks(problem: RmepProblem) -> list[BlockTruncation]:
    """Per-block SVD partitions; deterministic descending order."""
    out = []
    for blk in problem.blocks:
        n = blk.shape[1]
        res = svd(blk.stacked())
        v, s = res.v, res.singular_values
        vblocks = tuple(v[j * n : (j + 1) * n, :n].copy() for j in range(problem.k + 1))
        out.append(
            BlockTruncation(
                u1=res.u[:, :n].copy(),
                sigma1=s[:n].copy(),
                vblocks=vblocks,
                v_trailing=v[:, n:].copy(),
                tail=s[n:].copy(),
            )
        )
    return out


@dataclass(frozen=True)
class TruncationCertificate:
    """Minimal rank-reduction cost and, when attained, its witnesses.

    cost = sum_i sum_{j>n_i} sigma_j^2 lower-bounds the cost of any feasible
    perturbation whose stacked blocks drop to rank n_i.  `perturbed` is the
    truncated problem itself; `couplings` (one k-tuple of n x n matrices per
    block) certify A^_i = sum_s B^_is X_is and are present only when every
    block has ||V_11||_2 strictly below 1.
    """

    cost: float
    per_block: np.ndarray
    attained: bool
    perturbed: PerturbationSet
    couplings: list[tuple[np.ndarray, ...]] | None


def truncation_certificate(problem: RmepProblem) -> TruncationCertificate:
    truncations = truncate_blocks(problem)
    per_block = np.array([float(np.sum(t.tail**2)) for t in truncations])
    blocks = []
    for t in truncations:
        core = t.u1 * t.sigma1
        a_hat = core @ t.vblocks[0].conj().T
        b_hat = tuple(core @ vb.conj().T for vb in t.vblocks[1:])
        blocks.append(EquationBlock(a=a_hat, b=b_hat))
    pset = PerturbationSet.from_blocks(problem, blocks)
    attained = all(np.linalg.norm(t.vblocks[0], 2) < 1.0 - ATTAINMENT_MARGIN for t in truncations)
    couplings = None
    if attained:
        couplings = []
        for t in truncations:
            n = t.n
            k = len(t.vblocks) - 1
            v12 = t.v_trailing[:n, :]
            _, _, perm = sla.qr(v12, mode="economic", pivoting=True)
            cols = perm[:n]
            v12_sel = v12[:, cols]
            stack = np.vstack([t.v_trailing[(s + 1) * n : (s + 2) * n, :][:, cols] for s in range(k)])
            x_stack = -np.linalg.solve(v12_sel.conj().T, stack.conj().T).conj().T
            couplings.append(tuple(x_stack[s * n : (s + 1) * n, :] for s in range(k)))
    return TruncationCertificate(
        cost=float(per_block.sum()),
        per_block=per_block,
        attained=attained,
        perturbed=pset,
        couplings=couplings,
    )


def reduced_mep(truncations: list[BlockTruncation]) -> MepProblem:
    """Square problem (V_11^H, V_21^H, ..., V_{k+1,1}^H) per block."""
    blocks = []
    for t in truncations:
        a, *b = (vb.conj().T for vb in t.vblocks)
        blocks.append(EquationBlock(a=a, b=tuple(b)))
    return MepProblem(blocks=tuple(blocks))


class CompleteSet(Sequence):
    """The complete set of `solve_complete`, ranked, held as arrays.

    Row j of each array belongs to the j-th tuple in ascending total
    residual, the finite tuples first and the infinite ones after them in
    the lifted pencil's order: `rows` (N, k+1) holds the normalized
    homogeneous values (gamma, alpha_1, ..., alpha_k), `finite` (N,) marks
    gamma > GAMMA_THRESHOLD, `rho` (N, k) and `total` (N,) hold the
    normalized residuals (inf in infinite rows), and `coefficients` (N, k+1)
    the pencil coefficients of `model.pencil_coefficients`.  `lambdas` gives
    the finite values without building any tuple.  `len`, indexing, slicing
    and iteration build EigenTuples on demand: the tuples of a slice, or of
    the whole set, take their vectors from one `mep.tuples_from_pencils`
    call, so a tuple's vectors are bitwise the same however it is reached.
    """

    def __init__(self, problem: RmepProblem, rows, finite, rho, total, coefficients):
        self.problem = problem
        self.rows, self.finite, self.rho, self.total, self.coefficients = rows, finite, rho, total, coefficients

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
        vectors = mep.tuples_from_pencils(self.problem, self.coefficients[positions])
        out = []
        for j, t in enumerate(positions):
            value = HomogeneousEigenvalue(gamma=self.rows[t, 0].real, alphas=self.rows[t, 1:])
            residuals = (float(self.total[t]), tuple(self.rho[t].tolist())) if self.finite[t] else (None, None)
            out.append(EigenTuple(value, tuple(x[j] for x in vectors), *residuals))
        return out


def solve_complete(problem: RmepProblem, seed: int = 0) -> CompleteSet:
    """All N approximate eigen-tuples, ranked by ascending total residual.

    The reduced square problem supplies the eigenvalues, as the rows that
    `model.normalize_homogeneous` normalizes.  A finite tuple is ranked on
    the original blocks through its pencils A_i - sum_s lambda_s B_is (from
    `model.pencil_coefficients`), whose smallest singular value sigma_i is
    the least ||A_i x_i - sum_s lambda_s B_is x_i|| over unit x_i:

        rho_i = sigma_i / (||A_i||_2 + sum_s |lambda_s| ||B_is||_2),

    `normalized_residual`'s metric to a few eps, from one values-only batched
    SVD per block (`linalg.singular_values`).  Tuples with gamma at/below the
    infinite-eigenvalue threshold sort last with rho = inf.  The returned
    `CompleteSet` computes vectors only for the tuples that are read.
    """
    reduced = reduced_mep(truncate_blocks(problem))
    rows = mep.solve_from_determinants(mep.operator_determinants(reduced), seed=seed)
    finite, c = pencil_coefficients(rows)
    rho = np.full((len(rows), problem.k), np.inf)
    if finite.any():
        cf = c[finite]
        for i, (blk, (norm_a, norms_b)) in enumerate(zip(problem.blocks, problem.spectral_norms)):
            rho[finite, i] = singular_values(blk.pencil(cf))[:, -1] / (norm_a + np.abs(cf[:, 1:]) @ norms_b)
    total = rho.sum(axis=1)
    # Stable, so the infinite tuples (total inf) keep the lifted pencil's order.
    order = np.argsort(total, kind="stable")
    return CompleteSet(problem, rows[order], finite[order], rho[order], total[order], c[order])
