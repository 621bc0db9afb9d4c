"""Complete-set solver via per-block truncated SVDs.

Stacking each block as [A_i, B_i1, ..., B_ik] (m_i x (k+1)n_i) and keeping
the n_i dominant singular triplets yields the nearest (Frobenius) problem
whose stacked blocks have rank <= n_i; the squared tail singular values sum
to that minimal cost.  Partitioning the leading right singular vectors into
k+1 row blocks V_11, V_21, ..., V_{k+1,1} (each n_i x n_i) turns the
perturbed problem into the square multiparameter problem

    V_11^H x = lambda_1 V_21^H x + ... + lambda_k V_{k+1,1}^H x,

whose N = n_1*...*n_k tuples are the complete set of approximate
eigen-tuples for the rectangular problem.  The solve has two stages.
`complete_rows` takes their values from it, as unranked rows, with
`mep.solve_from_determinants`, which streams the lifted determinants in row
blocks; that is all that a caller comparing values needs.  `solve_complete`
then ranks them on the original blocks by the smallest singular values of
their pencils alone, formed and decomposed in chunks of `mep.ranking_chunk`
tuples, and returns them as a `mep.CompleteSet` (re-exported here), which builds
EigenTuples, vectors included, only for the tuples that are read.  When
additionally ||V_11||_2 < 1, the minimal cost is attained and explicit
coupling matrices X_is with A^_i = sum_s B^_is X_is exist; they are built
from a column-pivoted QR of V_12.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from . import mep
from .errors import check_integer
from .linalg import singular_values, svd
from .mep import CompleteSet
from .model import EquationBlock, MepProblem, PerturbationSet, RmepProblem, pencil_coefficients

__all__ = [
    "BlockTruncation",
    "TruncationCertificate",
    "truncate_blocks",
    "truncation_certificate",
    "reduced_mep",
    "CompleteSet",
    "complete_rows",
    "solve_complete",
]

# Margin under 1.0 required of every ||V_11||_2 before the truncation
# certificate is marked attained: at 1 the coupling solve is singular.
ATTAINMENT_MARGIN = 1e-10


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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
    attained = all(singular_values(t.vblocks[0])[0] < 1.0 - ATTAINMENT_MARGIN for t in truncations)
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


def complete_rows(problem: RmepProblem, seed: int = 0) -> np.ndarray:
    """The values of all N approximate eigen-tuples, unranked: the (N, k+1)
    homogeneous rows of the reduced square problem, normalized by
    `model.normalize_homogeneous`, in the lifted pencil's order.  The seed,
    an integer >= 0, draws the lifted pencil's random combinations.
    `mep.check_capacity` judges the rectangular shapes before any of it.
    """
    check_integer("seed", seed, 0)
    mep.check_capacity(problem.shapes)
    reduced = reduced_mep(truncate_blocks(problem))
    return mep.solve_from_determinants(reduced, seed=seed)


def solve_complete(problem: RmepProblem, seed: int = 0) -> CompleteSet:
    """All N approximate eigen-tuples, ranked by ascending total residual.

    `complete_rows` supplies the eigenvalues.  A finite tuple is ranked on
    the original blocks through its pencils A_i - sum_s lambda_s B_is (from
    `model.pencil_coefficients`), whose smallest singular value sigma_i is
    the least ||A_i x_i - sum_s lambda_s B_is x_i|| over unit x_i:

        rho_i = sigma_i / (||A_i||_2 + sum_s |lambda_s| ||B_is||_2),

    `normalized_residual`'s metric to a few eps, from values-only batched
    SVDs (`linalg.singular_values`) per block, one per chunk of
    `mep.ranking_chunk` tuples: the SVD is per matrix, so the chunks change
    no bit of rho, and the stack of pencils stays within
    `mep.RANKING_CHUNK_BYTES`.  Tuples with gamma at/below the
    infinite-eigenvalue threshold sort last with rho = inf.  The returned
    `mep.CompleteSet` holds the rows and rho in that order and computes
    vectors only for the tuples that are read.
    """
    rows = complete_rows(problem, seed)
    finite, c = pencil_coefficients(rows)
    rho = np.full((len(rows), problem.k), np.inf)
    if finite.any():
        cf = c[finite]
        chunk = mep.ranking_chunk(problem.shapes)
        for i, (blk, (norm_a, norms_b)) in enumerate(zip(problem.blocks, problem.spectral_norms)):
            smallest = [singular_values(blk.pencil(cf[s : s + chunk]))[:, -1] for s in range(0, len(cf), chunk)]
            rho[finite, i] = np.concatenate(smallest) / (norm_a + np.abs(cf[:, 1:]) @ norms_b)
    # Stable, so the infinite tuples (total inf) keep the lifted pencil's order.
    order = np.argsort(rho.sum(axis=1), kind="stable")
    return CompleteSet(problem, rows[order], rho[order])
