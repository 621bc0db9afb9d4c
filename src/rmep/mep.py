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
from itertools import permutations

import numpy as np

from .config import DEFAULT, NumericsConfig
from .errors import CapacityError, IrregularMepError, ValidationError
from .linalg import gep, kron, rcond_1norm, svd
from .model import HomogeneousEigenvalue, MepProblem

__all__ = [
    "OperatorDeterminants",
    "MepSolution",
    "RegularityReport",
    "operator_determinants",
    "extract_factors",
    "solve_mep",
    "check_regularity",
]

MAX_PARAMETERS = 4  # the expansion has k! Kronecker terms per determinant


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


@dataclass(frozen=True)
class RegularityReport:
    trials: int
    best_rcond: float
    best_weights: np.ndarray
    regular_likely: bool
    threshold: float


def _operator_determinant(columns, config: NumericsConfig) -> np.ndarray:
    """Expansion sum_pi sign(pi) * kron(columns[pi(1)][1], ..., columns[pi(k)][k]).

    `columns[j][i]` is the block in row i, column j of the operator array.
    """
    k = len(columns)
    if k == 1:
        return columns[0][0].copy()
    if k == 2:
        # Two-term formula, by far the common case.
        return kron(columns[0][0], columns[1][1], config) - kron(columns[1][0], columns[0][1], config)
    total = None
    for perm in permutations(range(k)):
        sign = _permutation_sign(perm)
        term = columns[perm[0]][0]
        for i in range(1, k):
            term = kron(term, columns[perm[i]][i], config)
        total = sign * term if total is None else total + sign * term
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


def operator_determinants(problem: MepProblem, config: NumericsConfig = DEFAULT) -> OperatorDeterminants:
    """Build D_0..D_k for a square problem (k <= 4, N capped)."""
    if not isinstance(problem, MepProblem):
        raise ValidationError("operator determinants require a square MepProblem")
    k = problem.k
    if k > MAX_PARAMETERS:
        raise CapacityError(f"determinant expansion supports k <= {MAX_PARAMETERS}, got k = {k}")
    n_total = problem.total_dim
    if n_total > config.kron_cap:
        raise CapacityError(f"operator determinants would be {n_total}x{n_total}, cap is {config.kron_cap}")
    b_columns = [[problem.blocks[i].b[j] for i in range(k)] for j in range(k)]
    mats = [_operator_determinant(b_columns, config)]
    a_column = [problem.blocks[i].a for i in range(k)]
    for j in range(k):
        cols = list(b_columns)
        cols[j] = a_column
        mats.append(_operator_determinant(cols, config))
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
    """Random unit complex weights w and the combination sum_j w_j D_j."""
    w = rng.standard_normal(len(matrices)) + 1j * rng.standard_normal(len(matrices))
    w /= np.linalg.norm(w)
    return w, sum(wj * dj for wj, dj in zip(w, matrices))


def _best_combination(matrices, rng, trials: int, stop: float = np.inf):
    """Best-conditioned of `trials` random unit-weight combinations of
    `matrices`, drawn until one's rcond exceeds `stop`.

    Returns (combination, weights, rcond); the first draw is kept on ties.
    """
    best = None
    for _ in range(trials):
        w, candidate = _random_combination(matrices, rng)
        rc = rcond_1norm(candidate)
        if best is None or rc > best[2]:
            best = (candidate, w, rc)
        if best[2] > stop:
            break
    return best


def _pick_mass(deltas: OperatorDeterminants, rng, config: NumericsConfig):
    """(mass, rcond): D_0 when well conditioned, else the best random combination."""
    if deltas.rcond >= 1.0 / config.cond_threshold:
        return deltas.matrices[0], deltas.rcond
    mass, _, rc = _best_combination(deltas.matrices, rng, config.weight_trials)
    if rc < config.irregular_rcond:
        raise IrregularMepError(
            f"no combination of the operator determinants was numerically invertible "
            f"(best rcond {rc:.2e} over {config.weight_trials} draws)"
        )
    return mass, rc


def solve_mep(problem: MepProblem, seed: int = 0, config: NumericsConfig = DEFAULT) -> list[MepSolution]:
    """All N = n_1*...*n_k tuples of a square problem, multiplicities kept.

    Deterministic for a fixed seed (which drives the random mass-matrix
    weights and the tuple-splitting combination).
    """
    deltas = operator_determinants(problem, config)
    return solve_from_determinants(deltas, seed=seed, config=config)


def _least_squares_quotients(matrices, mz, z) -> np.ndarray:
    """(M z)^H D_j z / ||M z||^2 for each j: the homogeneous tuple from least
    squares on the pairs (M z, D_j z), used when the left vector is unusable."""
    return np.array([np.vdot(mz, dj @ z) for dj in matrices]) / float(np.vdot(mz, mz).real)


def solve_from_determinants(
    deltas: OperatorDeterminants, seed: int = 0, config: NumericsConfig = DEFAULT
) -> list[MepSolution]:
    rng = np.random.default_rng(seed)
    mass, _ = _pick_mass(deltas, rng, config)
    _, lhs = _random_combination(deltas.matrices, rng)
    pencil = gep(lhs, mass, config=config)
    solutions = []
    for j in range(deltas.size):
        z = pencil.right[:, j]
        w = pencil.left[:, j]
        mz = mass @ z
        raw = np.array([np.vdot(w, dj @ z) for dj in deltas.matrices])
        left_unusable = (
            abs(np.vdot(w, mz)) <= 1e3 * config.eps * np.linalg.norm(mz)
            or np.linalg.norm(raw) == 0.0
            or not np.all(np.isfinite(raw.view(np.float64)))
        )
        if left_unusable:
            raw = _least_squares_quotients(deltas.matrices, mz, z)
        value = HomogeneousEigenvalue.from_vector(raw)
        factors, score = extract_factors(z, deltas.dims)
        solutions.append(MepSolution(value=value, vectors=tuple(factors), separability=score))
    return solutions



def check_regularity(
    deltas: OperatorDeterminants,
    trials: int = 8,
    seed: int = 0,
    threshold: float = 1e-12,
) -> RegularityReport:
    """Probe det(sum_j w_j D_j) != 0 with random unit weights.

    Reports the best reciprocal condition estimate found; `regular_likely`
    is set as soon as any trial beats the threshold.  A conservative
    threshold is used by default -- problems can be solvable (regular) with
    a much smaller best rcond, so a negative verdict is a hint, not proof.
    """
    rng = np.random.default_rng(seed)
    _, best_w, best_rc = _best_combination(deltas.matrices, rng, max(1, trials), stop=threshold)
    return RegularityReport(
        trials=trials,
        best_rcond=best_rc,
        best_weights=best_w,
        regular_likely=best_rc > threshold,
        threshold=threshold,
    )
