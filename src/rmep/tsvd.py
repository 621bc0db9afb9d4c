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
values from it and each tuple's vectors from its own pencils on the
original blocks, one batched SVD per block.  When additionally
||V_11||_2 < 1, the minimal cost is attained and explicit coupling matrices
X_is with A^_i = sum_s B^_is X_is exist; they are built from a column-pivoted
QR of V_12.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import mep
from .linalg import rank_revealing_qr, svd
from .model import (
    EigenTuple,
    EquationBlock,
    HomogeneousEigenvalue,
    MepProblem,
    PerturbationSet,
    RmepProblem,
    dehomogenize,
    normalized_residual,
)

__all__ = [
    "BlockTruncation",
    "TruncationCertificate",
    "truncate_blocks",
    "truncation_certificate",
    "reduced_mep",
    "solve_complete",
    "write_complete_csv",
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
    v11_norm: float

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
                v11_norm=float(np.linalg.norm(vblocks[0], 2)),
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


def truncation_certificate(
    problem: RmepProblem, truncations: list[BlockTruncation] | None = None
) -> TruncationCertificate:
    truncations = truncations if truncations is not None else truncate_blocks(problem)
    per_block = np.array([float(np.sum(t.tail**2)) for t in truncations])
    blocks = []
    for t in truncations:
        core = t.u1 * t.sigma1
        a_hat = core @ t.vblocks[0].conj().T
        b_hat = tuple(core @ vb.conj().T for vb in t.vblocks[1:])
        blocks.append(EquationBlock(a=a_hat, b=b_hat))
    pset = PerturbationSet.from_blocks(problem, blocks)
    attained = all(t.v11_norm < 1.0 - ATTAINMENT_MARGIN for t in truncations)
    couplings = None
    if attained:
        couplings = []
        for t in truncations:
            n = t.n
            k = len(t.vblocks) - 1
            v12 = t.v_trailing[:n, :]
            _, _, perm = rank_revealing_qr(v12)
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


def solve_complete(problem: RmepProblem, seed: int = 0) -> list[EigenTuple]:
    """All N approximate eigen-tuples, ordered by ascending total residual.

    The reduced square problem supplies the eigenvalues.  Each tuple's
    vectors are then derived against the original rectangular blocks as the
    smallest right singular vectors of its pencils, one batched SVD per block
    over all tuples (`mep.tuples_from_pencils`): for a finite tuple the
    pencils are A_i - sum_s lambda_s B_is, whose singular vectors are the
    unit vectors minimizing the residual being reported, and they stay
    accurate when the lifted pencil is so ill conditioned that its
    eigenvectors lose most digits.  Tuples with gamma at/below the
    infinite-eigenvalue threshold use gamma A_i - sum_s alpha_s B_is and sort
    last with residual None.
    """
    reduced = reduced_mep(truncate_blocks(problem))
    coords = mep.solve_from_determinants(mep.operator_determinants(reduced), seed=seed)
    values = [HomogeneousEigenvalue.from_vector(v) for v in coords]
    c = [np.concatenate(([1.0], -dehomogenize(v))) if v.is_finite() else v.coefficients for v in values]
    tuples = mep.tuples_from_pencils(problem, values, c)
    finite = [EigenTuple(t.value, t.vectors, normalized_residual(problem, t)[1]) for t in tuples if t.value.is_finite()]
    return sorted(finite, key=lambda t: t.residual) + [t for t in tuples if not t.value.is_finite()]


def write_complete_csv(problem: RmepProblem, tuples, fileobj) -> None:
    """Columns: j, re/im of each lambda_s, gamma, rho, rho_1..rho_k."""
    k = problem.k
    writer = csv.writer(fileobj)
    header = ["j"]
    for s in range(1, k + 1):
        header += [f"re_lambda{s}", f"im_lambda{s}"]
    header += ["gamma", "rho"] + [f"rho_{i}" for i in range(1, k + 1)]
    writer.writerow(header)
    for j, tup in enumerate(tuples, start=1):
        row = [j]
        if tup.value.is_finite():
            lambdas = dehomogenize(tup.value)
            for l in lambdas:
                row += [f"{l.real:.17g}", f"{l.imag:.17g}"]
            per_block, rho = normalized_residual(problem, tup)
            row += [f"{tup.value.gamma:.17g}", f"{rho:.17g}"]
            row += [f"{r:.17g}" for r in per_block]
        else:
            for a in tup.value.alphas:
                row += [f"{a.real:.17g}", f"{a.imag:.17g}"]
            row += [f"{tup.value.gamma:.17g}", "inf"] + ["inf"] * k
        writer.writerow(row)
