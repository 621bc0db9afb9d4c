"""Dense real and complex linear-algebra primitives.

Thin, validated wrappers around LAPACK (via numpy/scipy) that fix the
conventions the solvers rely on: descending singular values with a thin U
and a full V factor (or the values alone, `singular_values`), and
homogeneous (alpha, beta) pencil eigenvalues with right and left
eigenvectors.  Real input stays float64 and runs the
d-prefixed LAPACK routines; complex input runs the z-prefixed ones.
`smallest_singular_vector` finds one singular vector by warm-started
inverse iteration instead of a full SVD, and checks by a Cholesky that the
result is the minimizer.  `unit_scaled`, an exact power-of-two scaling, is
the one scaling rule of both solvers.

`gep` first solves the pencil (A, B) as the standard problem B^{-1} A: one
LU of B, `scipy.linalg.eig` (`dgeev` or `zgeev`) on B^{-1} A for right and
left vectors, and left pencil vectors B^{-H} y.  That result is kept only
when every pair, right and left, has a normwise backward error on the
original pencil of at most GEP_BACKWARD_RTOL; otherwise (or when B is
exactly singular) the pencil goes through QZ.  The check forms A Z and B Z
for all right vectors in one pass, and A^T and B^T times the left ones in
another.  The standard path returns beta = 1.  The path is chosen by the
backward error, not by a condition estimate of B: a mass matrix with rcond
6e-14 can still give backward errors at the QZ level.  `gep` also decides
whether the pencil is singular (det(A - lambda B) = 0 for every lambda) and
raises IrregularMepError then; only QZ's pairs are judged, since the
standard path is kept only for an invertible B.
All functions are pure; returned arrays are freshly allocated.
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
# Inverse iteration for a smallest singular vector stops once successive unit
# iterates differ by at most the tolerance, or after the step cap.  x is then
# off by about the tolerance and ||R x||^2 by about its square, within the
# slack below; the last, shifted step does the rest.
INVERSE_ITERATION_TOL = 1e-8
INVERSE_ITERATION_STEPS = 200
# x is kept only if R^H R - s I, s = ||R x||^2 - slack with slack =
# MINIMIZER_SLACK * eps * ||R||_F^2, has a Cholesky factor: then no squared
# singular value of R lies below s.  Exact minimizers of random, graded and
# rank-deficient R up to n = 200 pass with a slack of 0.25.
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


def _checked(arr, name, ndim=2):
    if arr.ndim != ndim or 0 in arr.shape:
        raise ValidationError(f"{name} must be {ndim}-D with positive shape, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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

    Inverse iteration on R^H R, with R the triangular factor of A = QR,
    started from `start` (default n^-1/2 (1, ..., 1)).  Each step is one
    `zpotrs` (both triangular solves), a normalization and a phase alignment
    to the previous iterate; it stops when successive iterates differ by at
    most INVERSE_ITERATION_TOL or after INVERSE_ITERATION_STEPS steps.  A
    start near the answer takes few steps.

    That iterate need not be the minimizer: a start with no component along
    the smallest singular vector (the default start on a reflection-
    symmetric A, say) stops at once at another singular vector.  So x is
    kept only if R^H R - s I has a Cholesky factor, with s a rounding slack
    below ||R x||^2; then no singular value lies below sqrt(s), and one
    inverse-iteration step with that factor, its shift within the slack of
    sigma_min^2, brings x to rounding.  Otherwise, or when the solves
    overflow, the SVD of R gives x.  So ||A x||^2 exceeds sigma_min^2 by at
    most MINIMIZER_SLACK * eps * ||A||_F^2, and x is the SVD's vector to
    rounding, up to a unit phase, unless the two smallest singular values
    tie within that slack.  For a unit `start`, ||A x|| never exceeds
    ||A start|| beyond rounding.  It works in complex arithmetic, also on
    real A.  A copy of A is scaled by `unit_scaled` before the QR, so a
    subnormal A enters it at full precision, and R after it.
    """
    a = unit_scaled(as_matrix(a).astype(np.complex128, copy=False))
    n = a.shape[1]
    if a.shape[0] < n:
        raise ValidationError(f"expected a tall matrix, got {a.shape}")
    x = np.full(n, n**-0.5, dtype=np.complex128) if start is None else np.array(start, dtype=np.complex128)
    norm = np.linalg.norm(x) if x.shape == (n,) else 0.0
    if not 0.0 < norm < np.inf:
        raise ValidationError(f"start must be a nonzero finite vector of length {n}")
    x /= norm
    # The QR is numpy's, not scipy's: the two load separate OpenBLAS builds,
    # each with its own thread pool, and BLAS-3 calls alternating between
    # them at millisecond intervals make the pools compete for the cores (a
    # 90x80 solve_one took 3.9 s with scipy's QR against 0.42 s, 2 threads on
    # 2 vCPUs).  Only the BLAS-2 triangular solves of zpotrs go through scipy;
    # the product and Cholesky of the minimality check stay in numpy too.
    # Scaling R keeps R^H R and the solves clear of underflow and overflow.
    r = unit_scaled(np.asfortranarray(np.linalg.qr(a, mode="r")))
    # R = 0 (an exact solution) makes every unit vector optimal.
    if not r.any():
        return x
    # Tiny pivots are raised to a floor so that a singular R does not divide by zero.
    diag = np.einsum("ii->i", r)
    diag[np.abs(diag) < EPS] = EPS
    for _ in range(INVERSE_ITERATION_STEPS):
        y = _inverse_step(r, x)
        if y is None:
            # The solves overflow when several pivots sit at the floor and
            # couple through R's off-diagonal entries.
            break
        step = y - x
        x = y
        if np.vdot(step, step).real <= INVERSE_ITERATION_TOL**2:
            break
    factor = None if y is None else _shifted_factor(r, x)
    x = None if factor is None else _inverse_step(factor, x, lower=1)
    return np.linalg.svd(r)[2][-1].conj() if x is None else x


def unit_scaled(a: np.ndarray) -> np.ndarray:
    """Scale `a`, a C- or Fortran-ordered array that the caller owns, in
    place by the power of two that brings its largest entry modulus into
    [1/2, 1), and return it.  np.ldexp on the real and imaginary parts makes
    the scaling exact (an entry that drops below the normal range rounds),
    also for subnormal input, and a zero array stays zero."""
    exponent = math.frexp(np.abs(a).max())[1]
    # One pass over a float64 view of both parts: separate passes over the
    # strided .real and .imag views took twice as long.
    parts = (a.T if a.flags.f_contiguous else a).view(np.float64)
    np.ldexp(parts, -exponent, out=parts)
    return a


def _inverse_step(factor, x, lower=0):
    """Solve with the Cholesky factor of a positive definite matrix, then
    normalize and turn to the phase of x; None on overflow or underflow."""
    y, _ = sla.lapack.zpotrs(factor, x, lower=lower)
    norm = math.sqrt(np.vdot(y, y).real)
    if not 0.0 < norm < math.inf:
        return None
    overlap = np.vdot(x, y)
    y *= (overlap.conjugate() / abs(overlap) if overlap != 0 else 1.0) / norm
    return y


def _shifted_factor(r, x):
    """Lower Cholesky factor of R^H R - s I, s = ||R x||^2 - slack, or None
    when that matrix is not positive definite."""
    g = r.conj().T @ r
    diag = np.einsum("ii->i", g)
    rx = r @ x
    slack = MINIMIZER_SLACK * EPS * diag.real.sum()
    diag -= np.vdot(rx, rx).real - slack
    try:
        return np.asfortranarray(np.linalg.cholesky(g))
    except np.linalg.LinAlgError:
        return None


def gep(a, b) -> GepResult:
    """Eigenpairs of the pencil A z = lambda B z, with right and left
    eigenvectors: standard form B^{-1} A when its backward error passes,
    else QZ.  A real pencil (both A and B real) is solved in real arithmetic:
    its eigenvalues come as a complex array, and its eigenvectors are real
    when every eigenvalue is real, else complex with conjugate pairs of
    columns.  A and B are read, never written.  IrregularMepError when the
    pencil is singular: QZ found a pair that is zero to rounding."""
    dtype = _working_dtype(a, b)
    a = _checked(np.asarray(a, dtype=dtype), "A")
    b = _checked(np.asarray(b, dtype=dtype), "B")
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ValidationError(f"pencil matrices must be square and equal-shaped, got {a.shape}, {b.shape}")
    scale_a, scale_b = np.linalg.norm(a, "fro"), np.linalg.norm(b, "fro")
    with np.errstate(all="ignore"):  # overflow from a near-singular B fails the check below
        result = _standard(a, b, scale_a, scale_b)
    return result if result is not None else _qz(a, b, scale_a, scale_b)


def _standard(a, b, scale_a, scale_b):
    """eig on B^{-1} A; None when B is singular or a pair fails the
    backward-error check.  Temporaries are overwritten in place."""
    lu, piv, info = _lapack("getrf", b)(b)
    if info != 0:
        return None
    getrs = _lapack("getrs", b)
    c, info = getrs(lu, piv, a)
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
        # Complex vectors of a real pencil: in the float64 view of u the real
        # and imaginary parts are independent columns for the real LU.
        parts, _ = getrs(lu, piv, np.ascontiguousarray(u).view(np.float64), trans=1, overwrite_b=True)
        left_conj = np.ascontiguousarray(parts).view(np.complex128)
    del lu, u
    right /= _column_norms(right)
    left_conj /= _column_norms(left_conj)
    for pa, pb, vectors in ((a, b, right), (a.T, b.T, left_conj)):
        if not np.all(_backward_errors(pa, pb, mu, vectors, scale_a, scale_b) <= GEP_BACKWARD_RTOL):
            return None
    left = np.conjugate(left_conj, out=left_conj)
    return GepResult(alpha=mu, beta=np.ones_like(mu), right=right, left=left)


def _column_norms(x):
    """2-norms of the columns of a real or complex matrix, with no full-size
    temporary."""
    parts = (x.real, x.imag) if np.iscomplexobj(x) else (x,)
    return np.sqrt(sum(np.einsum("ij,ij->j", p, p) for p in parts))


def _backward_errors(a, b, mu, z, scale_a, scale_b):
    """||A z_j - mu_j B z_j|| / (||A|| + |mu_j| ||B||) for unit columns z_j."""
    res = a @ z
    bz = b @ z
    # Real vectors come only with real eigenvalues.
    bz *= mu if np.iscomplexobj(z) else mu.real
    res -= bz
    return _column_norms(res) / np.maximum(scale_a + np.abs(mu) * scale_b, np.finfo(np.float64).tiny)


def _qz(a, b, scale_a, scale_b):
    """QZ solve of the pencil, for when the standard form is not accurate.  A
    pair with |alpha| <= GEP_BACKWARD_RTOL ||A||_F and |beta| <= GEP_BACKWARD_RTOL
    ||B||_F marks a singular pencil (the zero pencil is one): IrregularMepError."""
    try:
        ab, vl, vr = sla.eig(a, b, left=True, right=True, homogeneous_eigvals=True)
    except (np.linalg.LinAlgError, sla.LinAlgError) as exc:
        raise BackendError(f"QZ iteration failed for shape {a.shape}", shape=a.shape) from exc
    alpha, beta = np.asarray(ab[0]), np.asarray(ab[1])
    if np.any((np.abs(alpha) <= GEP_BACKWARD_RTOL * scale_a) & (np.abs(beta) <= GEP_BACKWARD_RTOL * scale_b)):
        raise IrregularMepError("the pencil is singular: QZ found an eigenvalue pair (alpha, beta) "
                                "that is zero to rounding")
    vr = vr / np.linalg.norm(vr, axis=0, keepdims=True)
    vl = vl / np.linalg.norm(vl, axis=0, keepdims=True)
    return GepResult(alpha=alpha, beta=beta, right=vr, left=vl)

