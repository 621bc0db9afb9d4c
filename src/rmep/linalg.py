"""Dense complex linear-algebra primitives.

Thin, validated wrappers around LAPACK (via numpy/scipy) that fix the
conventions the solvers rely on: descending singular values with a thin U
and a full V factor, ascending Hermitian eigenvalues, homogeneous (alpha,
beta) pencil eigenvalues with right and left eigenvectors, and
column-pivoted QR.  `smallest_singular_vector` finds one singular vector by
warm-started inverse iteration instead of a full SVD, and checks by a
Cholesky that the result is the minimizer.

`gep` first solves the pencil (A, B) as the standard problem B^{-1} A: one
LU of B, `zgeev` on B^{-1} A for right and left vectors, and left pencil
vectors B^{-H} y.  That result is kept only when every pair, right and
left, has a normwise backward error on the original pencil of at most
GEP_BACKWARD_RTOL; otherwise (or when B is exactly singular) the pencil
goes through QZ.  The standard path returns beta = 1 and never sets
`singular`.  The path is chosen by the backward error, not by a condition
estimate of B: a mass matrix with rcond 6e-14 can still give backward
errors at the QZ level.
All functions are pure; returned arrays are freshly allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import BackendError, ValidationError

__all__ = [
    "SvdResult",
    "GepResult",
    "as_matrix",
    "svd",
    "smallest_singular_vector",
    "eig_hermitian",
    "gep",
    "rank_revealing_qr",
]

EPS = float(np.finfo(np.float64).eps)
# Allowed relative asymmetry before a matrix is rejected as non-Hermitian.
HERMITIAN_RTOL = 1e-10
# Multiple of the data norm under which both homogeneous coordinates of a
# pencil eigenvalue are flagged as a singular-pencil artifact.
SINGULAR_PAIR_RTOL = 1e3 * EPS
# Largest normwise backward error ||A z - mu B z|| / ((||A|| + |mu| ||B||) ||z||)
# at which a standard-form pair is accepted; QZ's own pairs stay within a few eps.
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
    """Validate and return a 2-D finite complex128 copy of `a`."""
    return _checked(np.array(a, dtype=np.complex128, order="C"), name)


def _checked(arr, name):
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValidationError(f"{name} must be 2-D with positive shape, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class SvdResult:
    """SVD ``A = U @ diag(s) @ V[:, :len(s)].conj().T``.

    U is thin (m x min(m, n)) and V is full (n x n), so V[:, -1] is a right
    singular vector for the smallest singular value even when m < n.
    Singular values are nonincreasing.
    """

    u: np.ndarray
    singular_values: np.ndarray
    v: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.singular_values) @ self.v[:, : self.singular_values.size].conj().T


@dataclass(frozen=True)
class GepResult:
    """Homogeneous eigenvalues of the pencil (A, B): lambda_j = alpha[j]/beta[j].

    beta[j] == 0 encodes an infinite eigenvalue.  `singular[j]` is set when
    both coordinates are negligible relative to the data norms, which signals
    a (numerically) singular pencil rather than a meaningful eigenvalue.
    A pencil solved in standard form has beta = 1 everywhere and no
    `singular` flag set.  Right and left eigenvectors are unit 2-norm columns.
    """

    alpha: np.ndarray
    beta: np.ndarray
    right: np.ndarray
    left: np.ndarray
    singular: np.ndarray


def svd(a) -> SvdResult:
    """Singular value decomposition with descending singular values."""
    a = as_matrix(a)
    try:
        # Only a wide matrix needs full_matrices for V to be square.
        u, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    except np.linalg.LinAlgError as exc:
        raise BackendError(f"SVD did not converge for shape {a.shape}", shape=a.shape) from exc
    return SvdResult(u=u, singular_values=s, v=vh.conj().T)


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
    ||A start|| beyond rounding.
    """
    a = as_matrix(a)
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
    r = np.asfortranarray(np.linalg.qr(a, mode="r"))
    # R = 0 (an exact solution) makes every unit vector optimal.
    rmax = np.abs(r).max()
    if rmax == 0.0:
        return x
    # An exact power-of-two scaling to max |R_ij| in [1/2, 1) keeps R^H R and
    # the solves clear of underflow and overflow.  Tiny pivots are raised to
    # a floor so that a singular R does not divide by zero.
    r *= 2.0 ** -math.frexp(rmax)[1]
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


def eig_hermitian(h):
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    The input is checked for Hermitian symmetry relative to its Frobenius
    norm and symmetrized as (H + H^H)/2 before factorization.
    """
    h = as_matrix(h, "hermitian matrix")
    if h.shape[0] != h.shape[1]:
        raise ValidationError(f"expected square matrix, got {h.shape}")
    scale = np.linalg.norm(h, "fro")
    if scale > 0 and np.linalg.norm(h - h.conj().T, "fro") > HERMITIAN_RTOL * scale:
        raise ValidationError("matrix is not Hermitian within tolerance")
    h = (h + h.conj().T) / 2.0
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise BackendError(f"Hermitian eigensolve failed for shape {h.shape}", shape=h.shape) from exc
    return w, v


def gep(a, b) -> GepResult:
    """Eigenpairs of the pencil A z = lambda B z, with right and left
    eigenvectors: standard form B^{-1} A when its backward error passes,
    else QZ.  A and B are read, never written."""
    a = _checked(np.asarray(a, dtype=np.complex128), "A")
    b = _checked(np.asarray(b, dtype=np.complex128), "B")
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ValidationError(f"pencil matrices must be square and equal-shaped, got {a.shape}, {b.shape}")
    scale_a, scale_b = np.linalg.norm(a, "fro"), np.linalg.norm(b, "fro")
    with np.errstate(all="ignore"):  # overflow from a near-singular B fails the check below
        result = _standard(a, b, scale_a, scale_b)
    return result if result is not None else _qz(a, b, scale_a, scale_b)


def _standard(a, b, scale_a, scale_b):
    """zgeev on B^{-1} A; None when B is singular or a pair fails the
    backward-error check.  Temporaries are overwritten in place."""
    lapack = sla.lapack
    lu, piv, info = lapack.zgetrf(b)
    if info != 0:
        return None
    c, info = lapack.zgetrs(lu, piv, a)
    if info != 0 or not np.all(np.isfinite(c)):
        return None
    work, _ = lapack.zgeev_lwork(a.shape[0])
    mu, u, right, info = lapack.zgeev(c, lwork=int(work.real), overwrite_a=True)
    del c
    if info != 0:
        return None
    # The left pencil vectors B^{-H} u, held conjugated as B^{-T} conj(u): the
    # left residual y^H (A - mu B) is then the right residual of the
    # transposed pencil, up to conjugation.
    np.conjugate(u, out=u)
    left_conj, _ = lapack.zgetrs(lu, piv, u, trans=1, overwrite_b=True)
    del lu, u
    right /= _column_norms(right)
    left_conj /= _column_norms(left_conj)
    for pa, pb, vectors in ((a, b, right), (a.T, b.T, left_conj)):
        if not np.all(_backward_errors(pa, pb, mu, vectors, scale_a, scale_b) <= GEP_BACKWARD_RTOL):
            return None
    left = np.conjugate(left_conj, out=left_conj)
    return GepResult(alpha=mu, beta=np.ones_like(mu), right=right, left=left, singular=np.zeros(mu.shape, bool))


def _column_norms(x):
    """2-norms of the columns of a complex matrix, with no full-size temporary."""
    return np.sqrt(np.einsum("ij,ij->j", x.real, x.real) + np.einsum("ij,ij->j", x.imag, x.imag))


def _backward_errors(a, b, mu, z, scale_a, scale_b):
    """||A z_j - mu_j B z_j|| / (||A|| + |mu_j| ||B||) for unit columns z_j."""
    res = a @ z
    bz = b @ z
    bz *= mu
    res -= bz
    return _column_norms(res) / np.maximum(scale_a + np.abs(mu) * scale_b, np.finfo(np.float64).tiny)


def _qz(a, b, scale_a, scale_b):
    """QZ solve of the pencil, for when the standard form is not accurate."""
    try:
        ab, vl, vr = sla.eig(a, b, left=True, right=True, homogeneous_eigvals=True)
    except (np.linalg.LinAlgError, sla.LinAlgError) as exc:
        raise BackendError(f"QZ iteration failed for shape {a.shape}", shape=a.shape) from exc
    alpha, beta = np.asarray(ab[0]), np.asarray(ab[1])
    vr = vr / np.linalg.norm(vr, axis=0, keepdims=True)
    vl = vl / np.linalg.norm(vl, axis=0, keepdims=True)
    tol = SINGULAR_PAIR_RTOL * max(scale_a, scale_b)
    singular = (np.abs(alpha) <= tol) & (np.abs(beta) <= tol)
    return GepResult(alpha=alpha, beta=beta, right=vr, left=vl, singular=singular)


def rank_revealing_qr(a):
    """Column-pivoted QR: A[:, perm] = Q @ R with |R[0,0]| >= |R[1,1]| >= ...

    Returns (Q, R, perm) with Q economic (m x min(m, n)).
    """
    a = as_matrix(a)
    q, r, perm = sla.qr(a, mode="economic", pivoting=True)
    return q, r, perm


def rcond_1norm(a) -> float:
    """Cheap reciprocal 1-norm condition estimate via LU (0.0 if singular)."""
    a = np.ascontiguousarray(a, dtype=np.complex128)
    if a.shape[0] != a.shape[1]:
        raise ValidationError("rcond estimate requires a square matrix")
    anorm = np.linalg.norm(a, 1)
    if anorm == 0.0:
        return 0.0
    lu, _, info = sla.lapack.zgetrf(a)
    if info != 0:
        return 0.0
    rc, info = sla.lapack.zgecon(lu, anorm, norm="1")
    return float(rc) if info == 0 else 0.0
