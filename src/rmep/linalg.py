"""Dense complex linear-algebra primitives.

Thin, validated wrappers around LAPACK (via numpy/scipy) that fix the
conventions the solvers rely on: descending singular values with a thin U
and a full V factor, ascending Hermitian eigenvalues, homogeneous (alpha,
beta) pencil eigenvalues with right and left eigenvectors, column-pivoted
QR, and a size-capped Kronecker product.
All functions are pure; returned arrays are freshly allocated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .config import DEFAULT, NumericsConfig
from .errors import BackendError, CapacityError, ValidationError

__all__ = [
    "SvdResult",
    "GepResult",
    "as_matrix",
    "svd",
    "eig_hermitian",
    "gep",
    "rank_revealing_qr",
    "kron",
]


def as_matrix(a, name="matrix") -> np.ndarray:
    """Validate and return a 2-D finite complex128 copy of `a`."""
    arr = np.array(a, dtype=np.complex128, order="C")
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValidationError(f"{name} must be 2-D with positive shape, got {arr.shape}")
    if not np.all(np.isfinite(arr.view(np.float64))):
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
    Right and left eigenvectors are unit 2-norm columns.
    """

    alpha: np.ndarray
    beta: np.ndarray
    right: np.ndarray
    left: np.ndarray
    singular: np.ndarray

    @property
    def eigenvalues(self) -> np.ndarray:
        """alpha/beta with inf where beta vanishes (use with care)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(self.beta == 0, np.inf, self.alpha / self.beta)


def svd(a) -> SvdResult:
    """Singular value decomposition with descending singular values."""
    a = as_matrix(a)
    try:
        # Only a wide matrix needs full_matrices for V to be square.
        u, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    except np.linalg.LinAlgError as exc:
        raise BackendError(f"SVD did not converge for shape {a.shape}", shape=a.shape) from exc
    return SvdResult(u=u, singular_values=s, v=vh.conj().T)


def eig_hermitian(h, config: NumericsConfig = DEFAULT):
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    The input is checked for Hermitian symmetry relative to its Frobenius
    norm and symmetrized as (H + H^H)/2 before factorization.
    """
    h = as_matrix(h, "hermitian matrix")
    if h.shape[0] != h.shape[1]:
        raise ValidationError(f"expected square matrix, got {h.shape}")
    scale = np.linalg.norm(h, "fro")
    if scale > 0 and np.linalg.norm(h - h.conj().T, "fro") > config.hermitian_rtol * scale:
        raise ValidationError("matrix is not Hermitian within tolerance")
    h = (h + h.conj().T) / 2.0
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise BackendError(f"Hermitian eigensolve failed for shape {h.shape}", shape=h.shape) from exc
    return w, v


def gep(a, b, config: NumericsConfig = DEFAULT) -> GepResult:
    """QZ solve of the generalized eigenproblem A z = lambda B z, with right
    and left eigenvectors."""
    a = as_matrix(a, "A")
    b = as_matrix(b, "B")
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ValidationError(f"pencil matrices must be square and equal-shaped, got {a.shape}, {b.shape}")
    try:
        ab, vl, vr = sla.eig(a, b, left=True, right=True, homogeneous_eigvals=True)
    except (np.linalg.LinAlgError, sla.LinAlgError) as exc:
        raise BackendError(f"QZ iteration failed for shape {a.shape}", shape=a.shape) from exc
    alpha, beta = np.asarray(ab[0]), np.asarray(ab[1])
    vr = vr / np.linalg.norm(vr, axis=0, keepdims=True)
    vl = vl / np.linalg.norm(vl, axis=0, keepdims=True)
    scale = max(np.linalg.norm(a, "fro"), np.linalg.norm(b, "fro"))
    tol = config.singular_pair_rtol * scale
    singular = (np.abs(alpha) <= tol) & (np.abs(beta) <= tol)
    return GepResult(alpha=alpha, beta=beta, right=vr, left=vl, singular=singular)


def rank_revealing_qr(a):
    """Column-pivoted QR: A[:, perm] = Q @ R with |R[0,0]| >= |R[1,1]| >= ...

    Returns (Q, R, perm) with Q economic (m x min(m, n)).
    """
    a = as_matrix(a)
    q, r, perm = sla.qr(a, mode="economic", pivoting=True)
    return q, r, perm


def kron(a, b, config: NumericsConfig = DEFAULT) -> np.ndarray:
    """Kronecker product with a guard on the dense result size."""
    a = as_matrix(a, "A")
    b = as_matrix(b, "B")
    rows = a.shape[0] * b.shape[0]
    cols = a.shape[1] * b.shape[1]
    if rows > config.kron_cap or cols > config.kron_cap:
        raise CapacityError(
            f"Kronecker product of {a.shape} and {b.shape} would be {rows}x{cols}, "
            f"exceeding the cap of {config.kron_cap}"
        )
    return np.kron(a, b)


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
