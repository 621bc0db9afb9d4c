"""Problem and solution data model.

A rectangular multiparameter eigenvalue problem couples k equations

    A_i x_i = lambda_1 B_i1 x_i + ... + lambda_k B_ik x_i,   i = 1..k,

with tall blocks A_i, B_is of shape m_i x n_i (m_i >= n_i).  Because such a
system generally has no exact solution, eigenvalues are carried in the
homogeneous form lambda_s = alpha_s / gamma with

    gamma >= 0,   gamma^2 + sum_s |alpha_s|^2 = 1,

which keeps infinite eigenvalues (gamma = 0) representable.  This module
holds the value types, the residual metrics, the perturbation bookkeeping
and the seeded random generator used by the benchmark harness.  It also
holds the two rules every solver shares: `normalize_homogeneous` picks the
representative above (phase and pivot included), and `pencil_coefficients`
splits finite from infinite values at GAMMA_THRESHOLD and maps each row to
its pencil coefficients.  The types that hold arrays compare and hash by
identity (`eq=False`): a field-wise == would ask for the truth value of an
array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InfiniteEigenvalueError, ValidationError, check_memory
from .linalg import as_matrix, singular_values, unit_scaled

__all__ = [
    "EquationBlock",
    "RmepProblem",
    "MepProblem",
    "HomogeneousEigenvalue",
    "EigenTuple",
    "PerturbationSet",
    "homogenize",
    "dehomogenize",
    "normalize_homogeneous",
    "pencil_coefficients",
    "normalized_residual",
    "homogeneous_residual",
    "PlantedParts",
    "planted_parts",
    "random_planted_problem",
]

# Below this gamma a homogeneous eigenvalue is treated as infinite instead of
# dividing alpha by gamma.
GAMMA_THRESHOLD = 1e-12


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class EquationBlock:
    """One equation's coefficients: `a` plus the k parameter matrices `b`.

    The block holds them as one read-only (k+1, m, n) array
    `coeffs` = S = (A, B_1, ..., B_k), float64 when every matrix is real and
    complex128 otherwise; `a` and `b` are views of it, and every pencil
    sum_j c_j S_j is formed by `pencil`.
    """

    a: np.ndarray
    b: tuple[np.ndarray, ...]
    coeffs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mats = [as_matrix(self.a, "A")] + [as_matrix(bi, f"B[{s}]") for s, bi in enumerate(self.b)]
        for bi in mats[1:]:
            if bi.shape != mats[0].shape:
                raise ValidationError(f"all matrices in a block must share shape {mats[0].shape}, got {bi.shape}")
        coeffs = _freeze(np.stack(mats))
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "a", coeffs[0])
        object.__setattr__(self, "b", tuple(coeffs[1:]))

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    def stacked(self) -> np.ndarray:
        """[A, B_1, ..., B_k] of shape m x (k+1)n."""
        return self.coeffs.transpose(1, 0, 2).reshape(self.shape[0], -1)

    def pencil(self, c, x=None) -> np.ndarray:
        """The pencil sum_j c_j S_j, or its product with `x` when given.

        With c = (gamma, -alpha_1, ..., -alpha_k) this is gamma A - sum_s
        alpha_s B_s, and with c = (1, -lambda_1, ..., -lambda_k) the finite
        form A - sum_s lambda_s B_s.  A 2-D `c` gives one pencil per row,
        bitwise the pencil of that row alone.  The result is real when `c`
        and the block are real, else complex.
        """
        c = np.asarray(c)
        c = c.astype(np.result_type(c, self.coeffs), copy=False)
        if x is not None:
            return c @ (self.coeffs @ x)
        k1 = self.coeffs.shape[0]
        return (c[..., None, :] @ self.coeffs.reshape(k1, -1)).reshape(c.shape[:-1] + self.shape)


@dataclass(frozen=True, eq=False)
class RmepProblem:
    """k coupled equation blocks with m_i >= n_i."""

    blocks: tuple[EquationBlock, ...]

    def __post_init__(self):
        blocks = tuple(self.blocks)
        if not blocks:
            raise ValidationError("problem needs at least one equation block")
        k = len(blocks)
        for i, blk in enumerate(blocks):
            if len(blk.b) != k:
                raise ValidationError(f"block {i} has {len(blk.b)} parameter matrices, expected {k}")
            m, n = blk.shape
            if m < n:
                raise ValidationError(f"block {i} is wide ({m}x{n}); m_i >= n_i is required")
        object.__setattr__(self, "blocks", blocks)

    @property
    def k(self) -> int:
        return len(self.blocks)

    @property
    def shapes(self) -> tuple[tuple[int, int], ...]:
        return tuple(blk.shape for blk in self.blocks)

    @property
    def dims(self) -> tuple[int, ...]:
        """Column counts (n_1, ..., n_k)."""
        return tuple(blk.shape[1] for blk in self.blocks)

    @property
    def total_dim(self) -> int:
        """N = n_1 * ... * n_k, the generic number of eigen-tuples."""
        return math.prod(self.dims)

    @cached_property
    def spectral_norms(self) -> tuple[tuple[float, tuple[float, ...]], ...]:
        # Residual denominators are evaluated once per tuple; cache the 2-norms,
        # the largest singular values of one batched SVD per block, taken at
        # unit scale and scaled back: LAPACK rescales input far from unit scale
        # by factors that are not powers of two.
        out = []
        for blk in self.blocks:
            coeffs = blk.coeffs.copy()
            e = unit_scaled(coeffs)
            norm_a, *norms_b = (math.ldexp(v, e) for v in singular_values(coeffs)[:, 0].tolist())
            out.append((norm_a, tuple(norms_b)))
        return tuple(out)


@dataclass(frozen=True, eq=False)
class MepProblem(RmepProblem):
    """The square case m_i = n_i; input to the operator-determinant solver."""

    def __post_init__(self):
        super().__post_init__()
        for i, blk in enumerate(self.blocks):
            m, n = blk.shape
            if m != n:
                raise ValidationError(f"block {i} must be square, got {m}x{n}")


@dataclass(frozen=True, eq=False)
class HomogeneousEigenvalue:
    """Normalized homogeneous eigenvalue (gamma, alpha_1..alpha_k)."""

    gamma: float
    alphas: np.ndarray

    def __post_init__(self):
        alphas = _freeze(np.array(self.alphas, dtype=np.complex128).reshape(-1))
        gamma = float(self.gamma)
        if gamma < 0:
            raise ValidationError("gamma must be nonnegative")
        nrm = gamma * gamma + float(np.sum(np.abs(alphas) ** 2))
        if not abs(nrm - 1.0) <= 1e-12:  # nan fails too
            raise ValidationError(f"(gamma, alphas) must be unit-normalized, |v|^2 = {nrm}")
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "alphas", alphas)

    @property
    def coefficients(self) -> np.ndarray:
        """(gamma, -alpha_1, ..., -alpha_k), the pencil coefficients of this value."""
        return np.concatenate(([self.gamma], -self.alphas))

    @classmethod
    def from_vector(cls, v) -> "HomogeneousEigenvalue":
        """The value of one nonzero (k+1)-vector, normalized by
        `normalize_homogeneous`."""
        row = normalize_homogeneous(np.reshape(v, (1, -1)))[0]
        return cls(gamma=row[0].real, alphas=row[1:])

    def is_finite(self) -> bool:
        return self.gamma > GAMMA_THRESHOLD


@dataclass(frozen=True, eq=False)
class EigenTuple:
    """Candidate solution: homogeneous value, unit vectors and, when known,
    the total normalized residual and its per-block terms."""

    value: HomogeneousEigenvalue
    vectors: tuple[np.ndarray, ...]
    residual: float | None = None
    block_residuals: tuple[float, ...] | None = None

    def __post_init__(self):
        vecs = []
        for i, x in enumerate(self.vectors):
            x = np.array(x, dtype=np.complex128).reshape(-1)
            nrm = np.linalg.norm(x)
            if abs(nrm - 1.0) > 1e-12:
                raise ValidationError(f"vector {i} must be unit 2-norm, got {nrm}")
            vecs.append(_freeze(x))
        object.__setattr__(self, "vectors", tuple(vecs))


@dataclass(frozen=True, eq=False)
class PerturbationSet:
    """A perturbed problem together with its squared Frobenius distance
    from the problem it perturbs."""

    blocks: tuple[EquationBlock, ...]
    cost: float

    @classmethod
    def from_blocks(cls, origin: RmepProblem, blocks) -> "PerturbationSet":
        blocks = tuple(blocks)
        if len(blocks) != origin.k:
            raise ValidationError("perturbation block count does not match the problem")
        cost = 0.0
        for blk, pblk in zip(origin.blocks, blocks):
            if pblk.coeffs.shape != blk.coeffs.shape:
                raise ValidationError("perturbation shapes do not match the problem")
            cost += float(np.linalg.norm(pblk.coeffs - blk.coeffs) ** 2)
        return cls(blocks=blocks, cost=cost)


def homogenize(lambdas) -> HomogeneousEigenvalue:
    """Map finite eigenvalues to the unit homogeneous representative of
    (1, lambda_1, ..., lambda_k)."""
    lam = np.array(lambdas, dtype=np.complex128).reshape(-1)
    if not np.all(np.isfinite(lam.view(np.float64))):
        raise ValidationError("homogenize requires finite eigenvalues")
    return HomogeneousEigenvalue.from_vector(np.concatenate(([1.0], lam)))


def dehomogenize(value: HomogeneousEigenvalue) -> np.ndarray:
    """Recover (lambda_1, ..., lambda_k); raises when gamma is negligible."""
    if value.gamma <= GAMMA_THRESHOLD:
        raise InfiniteEigenvalueError(
            f"gamma = {value.gamma:.3e} is at/below the threshold {GAMMA_THRESHOLD:.0e}; "
            "the eigenvalue is infinite in at least one component",
            alphas=value.alphas.copy(),
        )
    return value.alphas / value.gamma


def normalize_homogeneous(v) -> np.ndarray:
    """The unit homogeneous representative of every row of an (N, k+1)
    array: the one normalization rule of the package.

    Each row is scaled to unit norm, its phase is taken from v_0 unless
    |v_0| <= 1e-14 (then from the largest-modulus alpha), gamma is made real
    and nonnegative and the row is normalized again.  Returns the complex
    (N, k+1) array of rows (gamma, alpha_1, ..., alpha_k).
    `HomogeneousEigenvalue.from_vector` and `homogenize` apply it to one row,
    and `mep.solve_from_determinants` to every tuple of the lifted pencil.
    """
    v = np.array(v, dtype=np.complex128)
    nrm = np.linalg.norm(v, axis=1)
    if not np.all((nrm > 0) & (nrm < np.inf)):  # also catches nan rows and an overflowing norm
        raise ValidationError("cannot normalize a zero or non-finite row")
    v /= nrm[:, None]
    # A unit row whose v_0 is negligible has a nonzero largest alpha.
    pivot = np.where(np.abs(v[:, 0]) > 1e-14, 0, np.argmax(np.abs(v[:, 1:]), axis=1) + 1)
    p = v[np.arange(v.shape[0]), pivot]
    v *= (p.conj() / np.abs(p))[:, None]
    v[:, 0] = np.abs(v[:, 0].real)
    v /= np.linalg.norm(v, axis=1)[:, None]
    return v


def pencil_coefficients(rows: np.ndarray):
    """(finite, c) for normalized rows (gamma, alpha_1, ..., alpha_k): the one
    rule that turns a homogeneous value into pencil coefficients.

    `finite` marks the rows with gamma > GAMMA_THRESHOLD; row t of the
    (N, k+1) array c is (1, -lambda_1, ..., -lambda_k) with lambda = alpha /
    gamma there, and (gamma, -alpha_1, ..., -alpha_k) elsewhere.  This is the
    batched form of `is_finite` with `dehomogenize` or `coefficients`.  c is
    float64 when every row is real, so that a real problem's pencils are
    formed in real arithmetic; the choice is made once, for all rows.
    """
    gamma = rows[:, 0].real
    finite = gamma > GAMMA_THRESHOLD
    c = np.column_stack((np.where(finite, 1.0, gamma), -rows[:, 1:] / np.where(finite, gamma, 1.0)[:, None]))
    return finite, (c if np.any(c.imag) else c.real)


def normalized_residual(problem: RmepProblem, t: EigenTuple):
    """Per-block and total backward-error style residuals.

        rho_i = ||A_i x_i - sum_s lambda_s B_is x_i||_2
                / (||A_i||_2 + sum_s |lambda_s| ||B_is||_2)

    This is the metric for any tuple.  `tsvd.solve_complete` stores the same
    quantity, to a few eps, taking each numerator from its refit SVD as the
    pencil's smallest singular value.

    Only defined for finite eigenvalues; use `homogeneous_residual` otherwise.
    """
    lam = dehomogenize(t.value)
    if len(t.vectors) != problem.k:
        raise ValidationError("eigen-tuple vector count does not match the problem")
    c = np.concatenate(([1.0], -lam))
    rho = np.empty(problem.k)
    for i, blk in enumerate(problem.blocks):
        r = blk.pencil(c, t.vectors[i])
        norm_a, norms_b = problem.spectral_norms[i]
        den = norm_a + sum(abs(l) * nb for l, nb in zip(lam, norms_b))
        rho[i] = np.linalg.norm(r) / den
    return rho, float(rho.sum())


def homogeneous_residual(problem: RmepProblem, t: EigenTuple) -> float:
    """sum_i ||gamma A_i x_i - sum_s alpha_s B_is x_i||_2^2 (finite for any gamma)."""
    c = t.value.coefficients
    return sum(float(np.linalg.norm(blk.pencil(c, x)) ** 2) for blk, x in zip(problem.blocks, t.vectors))


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@dataclass(frozen=True, eq=False)
class PlantedParts:
    """What `planted_parts` draws for one seed, before any noise level is
    chosen: the square reference (A*_i, B*_is) and, per block i, the lifted
    cores Q_i S*_ij and their unscaled noise draws, each one (k+1, m_i, n_i)
    array.  `at(sigma)` assembles the rectangular problem at one noise level."""

    reference: MepProblem
    lifted: tuple[np.ndarray, ...]
    noise: tuple[np.ndarray, ...]

    def at(self, sigma: float) -> RmepProblem:
        """A_i = Q_i A*_i + (sigma/m_i) E_i and B_is = Q_i B*_is + (sigma/m_i) F_is."""
        if not (np.isfinite(sigma) and sigma >= 0):
            raise ValidationError(f"sigma must be finite and nonnegative, got {sigma}")
        noisy = (lifted + sigma / lifted.shape[1] * noise for lifted, noise in zip(self.lifted, self.noise))
        return RmepProblem(blocks=tuple(EquationBlock(a=s[0], b=tuple(s[1:])) for s in noisy))


def _planted_shapes(m, n) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(m, n) as tuples of ints; ValidationError unless they are equal-length
    nonempty sequences with m_i > n_i >= 1, and CapacityError unless the
    draw fits `errors.MEMORY_BUDGET`.  A draw and its `at(sigma)` peak, by
    tracemalloc, at 3.6 to 5.0 times the (k+1) sum_i m_i n_i complex
    entries of one problem; the estimate takes 6."""
    m = tuple(int(v) for v in np.atleast_1d(m))
    n = tuple(int(v) for v in np.atleast_1d(n))
    if len(m) != len(n) or not m:
        raise ValidationError("m and n must be equal-length nonempty sequences")
    for mi, ni in zip(m, n):
        if not mi > ni >= 1:
            raise ValidationError(f"planted problems need m_i > n_i >= 1, got m_i = {mi}, n_i = {ni}")
    check_memory("the planted draw", 6 * 16 * (len(m) + 1) * sum(mi * ni for mi, ni in zip(m, n)))
    return m, n


def planted_parts(m, n, seed) -> PlantedParts:
    """The draw of `random_planted_problem` for one seed; it does not
    depend on the noise level."""
    m, n = _planted_shapes(m, n)
    k = len(m)
    rng = np.random.default_rng(seed)
    ref_blocks, lifted, noise = [], [], []
    for mi, ni in zip(m, n):
        core = [_complex_normal(rng, (ni, ni)) for _ in range(k + 1)]
        q = np.linalg.qr(_complex_normal(rng, (mi, ni)))[0]
        ref_blocks.append(EquationBlock(a=core[0], b=tuple(core[1:])))
        lifted.append(np.stack([q @ c for c in core]))
        noise.append(np.stack([_complex_normal(rng, (mi, ni)) for _ in core]))
    return PlantedParts(MepProblem(blocks=tuple(ref_blocks)), tuple(lifted), tuple(noise))


def random_planted_problem(m, n, sigma: float, seed):
    """Benchmark generator: a rectangular problem with a planted square core.

    For each block, a random square reference (A*_i, B*_is) with standard
    complex normal entries is lifted by the thin-QR factor Q_i of a random
    m_i x n_i matrix, then perturbed:

        A_i = Q_i A*_i + E_i,   B_is = Q_i B*_is + F_is,

    where the noise entries have independent real/imaginary parts drawn from
    N(0, (sigma/m_i)^2).  The 1/m_i scaling makes sigma the approximate
    spectral-norm size of each noise block, independent of the row count.
    At sigma = 0 every eigen-tuple of the returned reference MepProblem
    solves the rectangular problem exactly.

    Returns (problem, reference): `planted_parts(m, n, seed).at(sigma)` and
    that draw's reference.  Deterministic per seed.  Sigma only scales noise
    that is drawn without it, so for one seed the reference is bitwise the
    same at every sigma, and so are Q_i and the noise directions.
    """
    parts = planted_parts(m, n, seed)
    return parts.at(sigma), parts.reference
