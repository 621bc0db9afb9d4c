"""Dense real and complex linear-algebra primitives.

Thin, validated wrappers around LAPACK (via numpy/scipy) that fix the
conventions the solvers rely on: descending singular values with a thin U
and a full V factor (or the values alone, `singular_values`), and
homogeneous (alpha, beta) pencil eigenvalues with right and left
eigenvectors.  Real input stays float64 and runs the
d-prefixed LAPACK routines; complex input runs the z-prefixed ones.
`smallest_singular_vector` finds one singular vector by warm-started
inverse iteration on A^H A, shifted to just below its smallest eigenvalue,
instead of a full SVD; the Cholesky factor of the shifted matrix proves
that the result is the minimizer.  A warm start takes the shift from two
Rayleigh-quotient-iteration steps, a cold one (or a failed warm one) from
`eigvalsh`, and the SVD answers when that fails too.  `unit_scaled`, an
exact power-of-two scaling, is the one scaling rule of both solvers.

`gep` first solves the pencil (A, B) as the standard problem B^{-1} A: one
LU of B, `scipy.linalg.eig` (`dgeev` or `zgeev`) on B^{-1} A for right and
left vectors, and left pencil vectors B^{-H} y, all in place: B holds its
LU and A holds B^{-1} A.  That result is kept only when every pair, right
and left, has a normwise backward error on the original pencil of at most
GEP_BACKWARD_RTOL (`_backward_stable`, the one rule); otherwise (or when B
is exactly singular) the pencil goes through QZ.  The residuals come from
the pencil's stream: for two arrays (`_DensePencil`, on copies) they are
A Z and B Z for all right vectors in one pass, and A^T and B^T times the
left ones in another, and `mep` streams its lifted pencil's residuals from
row blocks of its determinants.  All of the pencil's O(N^3) work runs in
scipy's OpenBLAS (`gemm`); its Frobenius norms take no BLAS call, so a
numpy that bundles its own OpenBLAS never wakes that second pool to spin
against scipy's.  The standard path returns beta = 1.  The path is chosen
by the backward error, not by a condition estimate of B: a mass matrix with
rcond 6e-14 can still give backward errors at the QZ level.  `gep` also
decides whether the pencil is singular (det(A - lambda B) = 0 for every
lambda) and raises IrregularMepError then; only QZ's pairs are judged,
since the standard path is kept only for an invertible B.
The functions are pure, apart from `gep` on a stream's arrays and
`unit_scaled`, and returned arrays are freshly allocated (`gemm` writes
into an `out` it is given).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import BackendError, IrregularMepError, ValidationError

__all__ = [
    "SvdResult",
    "GepResult",
    "as_matrix",
    "svd",
    "singular_values",
    "smallest_singular_vector",
    "unit_scaled",
    "gep",
]

EPS = float(np.finfo(np.float64).eps)
# Largest normwise backward error ||A z - mu B z|| / ((||A|| + |mu| ||B||) ||z||)
# at which a standard-form pair is accepted; QZ's own pairs stay within a few eps.
# It is also the relative size below which a QZ pair (alpha, beta) counts as zero.
GEP_BACKWARD_RTOL = 1e3 * EPS
# Step cap of the shifted inverse iteration in `smallest_singular_vector`.
INVERSE_ITERATION_STEPS = 200
# slack = MINIMIZER_SLACK * eps * ||A||_F^2: an iterate x is accepted once
# ||A x||^2 <= s + slack, where a Cholesky factor of A^H A - s I proves that
# sigma_min^2 >= s, so ||A x||^2 <= sigma_min^2 + slack.
MINIMIZER_SLACK = 4.0


def as_matrix(a, name="matrix") -> np.ndarray:
    """Validate and return a 2-D finite copy of `a`: complex128 when `a` is
    complex, float64 otherwise."""
    return _checked(np.array(a, dtype=_working_dtype(a), order="C"), name)


def _working_dtype(*arrays):
    """complex128 when any input is complex, else float64."""
    return np.complex128 if any(np.iscomplexobj(a) for a in arrays) else np.float64


def _lapack(name, a):
    """The LAPACK routine `name` for a's dtype: d-prefixed for float64,
    z-prefixed for complex128."""
    return getattr(sla.lapack, ("z" if np.iscomplexobj(a) else "d") + name)


def gemm(a, z, out=None):
    """a @ z by scipy's BLAS gemm, as an F-ordered array, in `out` when it is
    given (F-ordered, of the product's dtype).  A C-ordered operand goes in
    as its transposed view with gemm's transpose flag, so f2py copies
    neither; a real operand of a complex product is cast, as matmul casts it."""
    routine = sla.blas.get_blas_funcs("gemm", (a, z))
    (a, trans_a), (z, trans_z) = ((x.T, 1) if x.flags.c_contiguous and not x.flags.f_contiguous else (x, 0)
                                  for x in (a, z))
    extra = {} if out is None else {"c": out, "overwrite_c": True}
    return routine(1.0, a, z, trans_a=trans_a, trans_b=trans_z, **extra)


def _checked(arr, name, ndim=2):
    if arr.ndim != ndim or 0 in arr.shape:
        raise ValidationError(f"{name} must be {ndim}-D with positive shape, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True, eq=False)
class SvdResult:
    """SVD ``A = U @ diag(s) @ V[:, :len(s)].conj().T``.

    U is thin (m x min(m, n)) and V is full (n x n), so V[:, -1] is a right
    singular vector for the smallest singular value even when m < n.
    Singular values are nonincreasing.  The SVD of a (T, m, n) stack holds
    the T factorizations along a leading axis of each field.
    """

    u: np.ndarray
    singular_values: np.ndarray
    v: np.ndarray


@dataclass(frozen=True, eq=False)
class GepResult:
    """Homogeneous eigenvalues of the pencil (A, B): lambda_j = alpha[j]/beta[j].

    beta[j] == 0 encodes an infinite eigenvalue.  A pencil solved in standard
    form has beta = 1 everywhere.  Right and left eigenvectors are unit
    2-norm columns.
    """

    alpha: np.ndarray
    beta: np.ndarray
    right: np.ndarray
    left: np.ndarray


def svd(a) -> SvdResult:
    """Singular value decomposition with descending singular values, of one
    matrix or of each matrix in a (T, m, n) stack; real input gives real
    factors."""
    u, s, vh = _lapack_svd(a, compute_uv=True)
    return SvdResult(u=u, singular_values=s, v=vh.conj().swapaxes(-1, -2))


def singular_values(a) -> np.ndarray:
    """`svd`'s singular values alone, computed without U or V."""
    return _lapack_svd(a, compute_uv=False)


def _lapack_svd(a, compute_uv):
    """np.linalg.svd of validated float64 or complex128 input."""
    a = np.asarray(a, dtype=_working_dtype(a))
    _checked(a, "matrix", ndim=3 if a.ndim == 3 else 2)
    try:
        # Only a wide matrix needs full_matrices for V to be square.
        return np.linalg.svd(a, full_matrices=a.shape[-2] < a.shape[-1], compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise BackendError(f"SVD did not converge for shape {a.shape}", shape=a.shape) from exc


def smallest_singular_vector(a, start=None) -> np.ndarray:
    """Unit right singular vector of a tall matrix for its smallest singular value.

    Shifted inverse iteration on the Gram matrix G = A^H A, started from
    `start` (default n^-1/2 (1, ..., 1)).  The shift is s = lambda - slack/2,
    with slack = MINIMIZER_SLACK * eps * ||A||_F^2 and lambda an estimate of
    G's smallest eigenvalue; when s < 0, the shift s = -eps * slack is tried
    first.  A Cholesky factor of G - s I proves that no squared singular
    value lies below s.  With a `start`, two Rayleigh-quotient-iteration
    steps (`np.linalg.solve` with G - ||A y||^2 I) give y, or y = start if
    ||A y|| is larger, and lambda = ||A y||^2.  Without one, or when a solve
    fails, a step is zero or not finite, or G - s I has no Cholesky factor
    (the steps found a larger singular value), lambda is G's smallest
    eigenvalue as `eigvalsh` computes it and y = start: from the uniform
    start the steps find a larger singular value on almost every call.
    Each step from y is one `zpotrs` with the factor (both triangular
    solves), a normalization and a phase alignment to the previous iterate.
    The first iterate x with ||A x||^2 <= s + slack is accepted; one more
    step is returned if it still meets that bound, else x.  From almost any
    start that takes two steps, since the shift lies within the slack of
    sigma_min^2.  No step-size test stops it: where several singular values
    lie within the slack (graded or rank-deficient A), the iterate keeps
    turning inside that cluster.

    A failed Cholesky at the `eigvalsh` shift (lambda computed above
    sigma_min^2 by more than slack/2), or INVERSE_ITERATION_STEPS steps
    without acceptance, gives x from `svd` (BackendError if it fails).  So
    ||A x||^2 exceeds sigma_min^2 by at most MINIMIZER_SLACK * eps *
    ||A||_F^2, and x is the SVD's vector to rounding, up to a unit phase,
    unless the two smallest squared singular values tie within that slack.
    For a unit `start`, ||A x|| never exceeds ||A start|| beyond rounding.
    It works in complex arithmetic, also on real A.  A copy of A is scaled
    by `unit_scaled` first, so G neither underflows nor overflows and a
    subnormal A keeps its full precision.
    """
    a = as_matrix(a).astype(np.complex128, copy=False)
    unit_scaled(a)
    n = a.shape[1]
    if a.shape[0] < n:
        raise ValidationError(f"expected a tall matrix, got {a.shape}")
    x = np.full(n, n**-0.5, dtype=np.complex128) if start is None else np.array(start, dtype=np.complex128)
    norm = np.linalg.norm(x) if x.shape == (n,) else 0.0
    if not 0.0 < norm < np.inf:
        raise ValidationError(f"start must be a nonzero finite vector of length {n}")
    x /= norm
    # One column, or A = 0 (an exact solution), makes every unit vector optimal.
    if n == 1 or not a.any():
        return x
    x = _shifted_inverse_iteration(a, x, start is not None)
    return svd(a).v[:, -1].copy() if x is None else x


def unit_scaled(*arrays: np.ndarray) -> int:
    """Scale `arrays`, C- or Fortran-ordered arrays that the caller owns, in
    place by one power of two 2^-e, the one that brings their largest entry
    modulus into [1/2, 1), and return e.  np.ldexp on the real and imaginary
    parts makes the scaling exact (an entry that drops below the normal
    range rounds), also for subnormal input, and zero arrays stay zero with
    e = 0.  A finite complex entry whose modulus overflows gives e from the
    largest part, plus one, so the largest modulus lands in [1/4, 1)."""
    # One pass over a float64 view of both parts: separate passes over the
    # strided .real and .imag views took twice as long.
    parts = [(a.T if a.flags.f_contiguous else a).view(np.float64) for a in arrays]
    peak = max(np.abs(a).max() for a in arrays)
    exponent = math.frexp(peak)[1] if math.isfinite(peak) else math.frexp(max(np.abs(p).max() for p in parts))[1] + 1
    for p in parts:
        np.ldexp(p, -exponent, out=p)
    return exponent


def _shifted_inverse_iteration(a, x, warm):
    """`smallest_singular_vector`'s iteration from the unit vector x, the
    caller's start when `warm`; None when no Cholesky factor is found or
    the step cap is reached."""
    # The product, solves, eigvalsh and Cholesky are numpy's, and only the
    # BLAS-2 triangular solves of zpotrs scipy's: BLAS-3 calls alternating
    # between the two OpenBLAS pools make them compete for the cores (a
    # 90x80 solve_one took 3.9 s with scipy's QR against 0.42 s, 2 threads
    # on 2 vCPUs).  So this kernel's BLAS-3 work stays in numpy's pool.
    g = a.conj().T @ a
    unshifted = np.diagonal(g).copy()
    slack = MINIMIZER_SLACK * EPS * unshifted.real.sum()
    start = _rayleigh_quotient_start(a, g, unshifted, x) if warm else None
    found = start and _shifted_factor(g, unshifted, start[0] - slack / 2, slack)
    if found:
        x = start[1]
    else:
        lowest = np.linalg.eigvalsh(_shifted(g, unshifted, 0.0))[0]
        found = _shifted_factor(g, unshifted, lowest - slack / 2, slack)
        if found is None:
            return None
    shift, factor = found
    bound = shift + slack
    for _ in range(INVERSE_ITERATION_STEPS):
        x = _inverse_step(factor, x)
        if _squared_norm(a @ x) <= bound:
            y = _inverse_step(factor, x)
            return y if _squared_norm(a @ y) <= bound else x
    return None


def _shifted(g, unshifted, shift):
    """G - shift I, written over G, whose diagonal is `unshifted`."""
    np.subtract(unshifted, shift, out=np.einsum("ii->i", g))
    return g


def _rayleigh_quotient_start(a, g, unshifted, x):
    """(||A y||^2, y) after two Rayleigh-quotient-iteration steps y from the
    unit vector x, each a solve with G - ||A y||^2 I, or (||A x||^2, x) if
    that is lower; None when a solve fails or its step is zero or not finite."""
    quotient = first = _squared_norm(a @ x)
    y = x
    for _ in range(2):
        try:
            step = np.linalg.solve(_shifted(g, unshifted, quotient), y)
        except np.linalg.LinAlgError:
            return None
        y = _aligned(step, y)
        if y is None:
            return None
        quotient = _squared_norm(a @ y)
    return (quotient, y) if quotient <= first else (first, x)


def _shifted_factor(g, unshifted, lowest, slack):
    """(s, lower Cholesky factor of G - s I) at s = `lowest`, or first at
    s = -eps * slack when `lowest` < 0; None when neither has one."""
    # G keeps a column-graded A's singular values far below sqrt(eps) ||A||,
    # which a negative shift of rounding size would swamp; -eps * slack
    # swamps only those below about eps ||A||_F and bounds the solves'
    # growth by 1 / (eps * slack), so they cannot overflow.
    for shift in (lowest,) if lowest >= 0 else (-EPS * slack, lowest):
        try:
            return shift, np.asfortranarray(np.linalg.cholesky(_shifted(g, unshifted, shift)))
        except np.linalg.LinAlgError:
            pass
    return None


def _inverse_step(factor, x):
    """Solve with the lower Cholesky factor of a positive definite matrix,
    then normalize and turn to the phase of x."""
    return _aligned(sla.lapack.zpotrs(factor, x, lower=1)[0], x)


def _aligned(y, x):
    """y scaled in place to unit norm and the phase of x; None when y is
    zero or its squared norm is not finite."""
    squared = _squared_norm(y)
    if not 0.0 < squared < math.inf:
        return None
    overlap = np.vdot(x, y)
    y *= (overlap.conjugate() / abs(overlap) if overlap != 0 else 1.0) / math.sqrt(squared)
    return y


def _squared_norm(y):
    """||y||^2 of a complex vector."""
    return np.vdot(y, y).real


def gep(a, b, stream=None) -> GepResult:
    """Eigenpairs of the pencil A z = lambda B z, with right and left
    eigenvectors: standard form B^{-1} A when every pair passes the
    backward-error check, else QZ.  A real pencil (both A and B real) is
    solved in real arithmetic: its eigenvalues come as a complex array, and
    its eigenvectors are real when every eigenvalue is real, else complex
    with conjugate pairs of columns.  IrregularMepError when the pencil is
    singular: QZ found a pair that is zero to rounding.

    Without a `stream`, A and B are read, never written: gep works on
    copies.  With one, A and B are what `stream.pencil()` returned,
    F-ordered arrays of one dtype that gep overwrites (B with its LU, A with
    B^{-1} A and then eig's workspace), and the stream stands in for the
    pencil wherever gep needs it again:

    - `stream.residuals(alpha, beta, right, left_conj)` returns the 2-norms
      of beta A z - alpha B z for the unit columns z of `right`, and of
      (beta A - alpha B)^T w for the unit columns w of `left_conj` (the
      conjugated left vectors), one per pair;
    - `stream.pencil()` forms A and B again, for QZ.

    gep passes the pairs that it returns through `stream.residuals` last, so
    a stream can read more off the same products (the lifted pencil of
    `mep` reads its Rayleigh quotients there).
    """
    if stream is None:
        dtype = _working_dtype(a, b)
        stream = _DensePencil(np.asarray(a, dtype=dtype), np.asarray(b, dtype=dtype))
        a, b = stream.pencil()
    a, b = _checked(a, "A"), _checked(b, "B")
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ValidationError(f"pencil matrices must be square and equal-shaped, got {a.shape}, {b.shape}")
    # Frobenius norms without np.linalg.norm, whose threaded dot in numpy's
    # pool would spin on through scipy's LU and eig below.
    scale_a, scale_b = (math.hypot(*_column_norms(x)) for x in (a, b))
    with np.errstate(all="ignore"):  # overflow from a near-singular B fails the check below
        pairs = _standard(a, b)
        if pairs is not None:
            mu, right, left_conj = pairs
            beta = np.ones_like(mu)
            if _backward_stable(stream.residuals(mu, beta, right, left_conj), mu, beta, scale_a, scale_b):
                return GepResult(alpha=mu, beta=beta, right=right, left=np.conjugate(left_conj, out=left_conj))
            del pairs, mu, right, left_conj
        result = _qz(*stream.pencil(), scale_a, scale_b)
        # In place and back: the stream takes the left vectors conjugated.
        left_conj = np.conjugate(result.left, out=result.left)
        stream.residuals(result.alpha, result.beta, result.right, left_conj)
        np.conjugate(left_conj, out=left_conj)
    return result


class _DensePencil:
    """`gep`'s stream for a pencil given as two arrays of one dtype."""

    def __init__(self, a, b):
        self.a, self.b = a, b

    def pencil(self):
        return np.array(self.a, order="F"), np.array(self.b, order="F")

    def residuals(self, alpha, beta, right, left_conj):
        # The left residual (beta A - alpha B)^T w is the right residual of
        # the transposed pencil.
        return tuple(_residual_norms(pa, pb, alpha, beta, vectors)
                     for pa, pb, vectors in ((self.a, self.b, right), (self.a.T, self.b.T, left_conj)))


def _residual_norms(a, b, alpha, beta, z):
    """||beta_j A z_j - alpha_j B z_j|| for the columns z_j of z."""
    res = gemm(a, z)
    bz = gemm(b, z)
    if not np.iscomplexobj(z):  # real vectors come only with real eigenvalues
        alpha, beta = alpha.real, beta.real
    res *= beta
    bz *= alpha
    res -= bz
    return _column_norms(res)


def _backward_stable(residuals, alpha, beta, scale_a, scale_b) -> bool:
    """The one backward-error rule: every right and left pair's residual
    norm (unit vectors) is at most GEP_BACKWARD_RTOL (|beta| ||A|| +
    |alpha| ||B||); a NaN fails it."""
    scale = np.maximum(np.abs(beta) * scale_a + np.abs(alpha) * scale_b, np.finfo(np.float64).tiny)
    return all(np.all(norms / scale <= GEP_BACKWARD_RTOL) for norms in residuals)


def _standard(a, b):
    """(mu, right, left_conj) of eig on B^{-1} A: the eigenvalues and the
    unit right and conjugated left pencil vectors; None when B is singular,
    B^{-1} A is not finite or eig fails.  Overwrites B with its LU and A
    with B^{-1} A, then eig's workspace; they must be F-ordered to be
    overwritten rather than copied."""
    lu, piv, info = _lapack("getrf", b)(b, overwrite_a=True)
    if info != 0:
        return None
    getrs = _lapack("getrs", b)
    c, info = getrs(lu, piv, a, overwrite_b=True)
    if info != 0 or not np.all(np.isfinite(c)):
        return None
    try:
        mu, u, right = sla.eig(c, left=True, right=True, overwrite_a=True, check_finite=False)
    except sla.LinAlgError:
        return None
    del c
    # The left pencil vectors B^{-H} u, held conjugated as B^{-T} conj(u): the
    # left residual y^H (A - mu B) is then the right residual of the
    # transposed pencil, up to conjugation.
    np.conjugate(u, out=u)
    if u.dtype == lu.dtype:
        left_conj, _ = getrs(lu, piv, u, trans=1, overwrite_b=True)
    else:
        # Complex vectors of a real pencil: their real and imaginary parts
        # are independent right-hand sides for the real LU, the columns 2j
        # and 2j + 1 of one real array.
        parts = np.empty((u.shape[0], 2 * u.shape[1]), order="F")
        parts[:, 0::2], parts[:, 1::2] = u.real, u.imag
        del u
        parts, _ = getrs(lu, piv, parts, trans=1, overwrite_b=True)
        left_conj = np.empty((parts.shape[0], parts.shape[1] // 2), dtype=np.complex128, order="F")
        left_conj.real, left_conj.imag = parts[:, 0::2], parts[:, 1::2]
    right /= _column_norms(right)
    left_conj /= _column_norms(left_conj)
    return mu, right, left_conj


def _column_norms(x):
    """2-norms of the columns of a real or complex matrix, with no full-size
    temporary."""
    parts = (x.real, x.imag) if np.iscomplexobj(x) else (x,)
    return np.sqrt(sum(np.einsum("ij,ij->j", p, p) for p in parts))


def _qz(a, b, scale_a, scale_b):
    """QZ solve of the pencil, for when the standard form is not accurate.  A
    pair with |alpha| <= GEP_BACKWARD_RTOL ||A||_F and |beta| <= GEP_BACKWARD_RTOL
    ||B||_F marks a singular pencil (the zero pencil is one): IrregularMepError."""
    try:
        ab, vl, vr = sla.eig(a, b, left=True, right=True, homogeneous_eigvals=True, overwrite_a=True, overwrite_b=True)
    except (np.linalg.LinAlgError, sla.LinAlgError) as exc:
        raise BackendError(f"QZ iteration failed for shape {a.shape}", shape=a.shape) from exc
    alpha, beta = np.asarray(ab[0]), np.asarray(ab[1])
    if np.any((np.abs(alpha) <= GEP_BACKWARD_RTOL * scale_a) & (np.abs(beta) <= GEP_BACKWARD_RTOL * scale_b)):
        raise IrregularMepError("the pencil is singular: QZ found an eigenvalue pair (alpha, beta) "
                                "that is zero to rounding")
    vr /= _column_norms(vr)
    vl /= _column_norms(vl)
    return GepResult(alpha=alpha, beta=beta, right=vr, left=vl)

