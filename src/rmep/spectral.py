"""Chebyshev least-squares discretization of two-parameter ODE eigenproblems.

The continuous problem is a pair of coupled second-order equations

    u_r''(t) + (lambda p_r(t) + mu q_r(t) + f_r(t)) u_r(t) = 0,
    u_r(a_r) = u_r(b_r) = 0,                     r = 1, 2,

whose eigenfunctions are expanded in Chebyshev polynomials,
u_r ~ sum_j tau_j c_rj with tau_j = T_{j-1} mapped to [a_r, b_r].  The
function-space least-squares geometry is realized discretely: every
"function column" is tabulated at M = oversampling * n Chebyshev-Lobatto
nodes and scaled by the square roots of the Clenshaw-Curtis weights, so
Euclidean inner products of columns approximate L2 inner products to
spectral accuracy.  A thin QR of the weighted operator table [tau_j'' +
f tau_j] and of the (unweighted) boundary-value rows then assembles the
rectangular blocks

    A_r = [R_r; Rb_r],   B_r1 = [-G_r; 0],   B_r2 = [-K_r; 0],

of shape (n_r + 2) x n_r, with G_r, K_r the projections of the p- and
q-weighted basis tables onto the operator column space.  Eigenvalue tuples
of the resulting rectangular problem approximate (lambda, mu) of the ODE
system; the quality of a computed tuple *as a solution of the continuous
problem* is measured separately by the L1 defects of `continuous_residuals`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, ValidationError, check_integer
from .linalg import singular_values
from .model import EigenTuple, EquationBlock, RmepProblem, dehomogenize

__all__ = [
    "OdeEquation",
    "OdeSpec",
    "ChebyshevBasis",
    "DiscretizedOde",
    "build_basis",
    "discretize",
    "reconstruct",
    "continuous_residuals",
    "builtin_sturm_liouville",
    "builtin_mathieu",
    "sample_eigenfunction",
    "elliptic_mode_grid",
]

# Points of `elliptic_mode_grid`'s mesh along s (angular) and t (radial).
MODE_GRID_ANGULAR = 80
MODE_GRID_RADIAL = 40


@dataclass(frozen=True)
class OdeEquation:
    """Coefficients p, q, f on [a, b] with n basis functions."""

    p: Callable[[float], float]
    q: Callable[[float], float]
    f: Callable[[float], float]
    interval: tuple[float, float]
    n: int

    def __post_init__(self):
        _basis_interval(self.interval, self.n)


@dataclass(frozen=True)
class OdeSpec:
    """A two-equation spectral problem plus the quadrature oversampling factor."""

    equations: tuple[OdeEquation, OdeEquation]
    oversampling: int = 4

    def __post_init__(self):
        if len(self.equations) != 2:
            raise ValidationError("exactly two equations are supported")
        check_integer("oversampling", self.oversampling, 1)

    @property
    def shapes(self) -> tuple[tuple[int, int], ...]:
        """The (n + 2) x n shape of each block that `discretize` assembles:
        n rows of the operator's R factor and two boundary rows."""
        return tuple((eq.n + 2, eq.n) for eq in self.equations)


def _basis_interval(interval, n, oversampling=1):
    """(a, b) as floats, after the one check of every basis: a finite
    interval a < b, and integers n >= 4 and oversampling >= 1."""
    a, b = float(interval[0]), float(interval[1])
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise ValidationError(f"invalid interval {(a, b)}")
    check_integer("n", n, 4)
    check_integer("oversampling", oversampling, 1)
    return a, b


def _clenshaw_curtis(num_nodes: int):
    """Nodes (descending on [-1, 1]) and weights of the Clenshaw-Curtis rule."""
    n = num_nodes - 1
    theta = np.pi * np.arange(n + 1) / n
    x = np.cos(theta)
    w = np.zeros(n + 1)
    inner = np.arange(1, n)
    v = np.ones(n - 1)
    if n % 2 == 0:
        w[0] = w[n] = 1.0 / (n * n - 1)
        for j in range(1, n // 2):
            v -= 2.0 * np.cos(2 * j * theta[inner]) / (4 * j * j - 1)
        v -= np.cos(n * theta[inner]) / (n * n - 1)
    else:
        w[0] = w[n] = 1.0 / (n * n)
        for j in range(1, (n - 1) // 2 + 1):
            v -= 2.0 * np.cos(2 * j * theta[inner]) / (4 * j * j - 1)
    w[inner] = 2.0 * v / n
    return x, w


def _chebyshev_tables(t: np.ndarray, n: int):
    """T_j(t) and T_j''(t), j = 0..n-1, via the three-term recurrences."""
    t = np.asarray(t, dtype=np.float64)
    values = np.zeros((t.size, n))
    first = np.zeros((t.size, n))
    second = np.zeros((t.size, n))
    values[:, 0] = 1.0
    if n > 1:
        values[:, 1] = t
        first[:, 1] = 1.0
    for j in range(2, n):
        values[:, j] = 2.0 * t * values[:, j - 1] - values[:, j - 2]
        first[:, j] = 2.0 * values[:, j - 1] + 2.0 * t * first[:, j - 1] - first[:, j - 2]
        second[:, j] = 4.0 * first[:, j - 1] + 2.0 * t * second[:, j - 1] - second[:, j - 2]
    return values, second


@dataclass(frozen=True, eq=False)
class ChebyshevBasis:
    """Tabulated basis tau_1..tau_n (tau_j = T_{j-1}) on mapped Lobatto nodes.

    `second_derivs` carries the chain-rule factor (2/(b-a))^2, and the
    quadrature weights sum to b - a.
    """

    interval: tuple[float, float]
    n: int
    oversampling: int
    nodes: np.ndarray
    weights: np.ndarray
    values: np.ndarray
    second_derivs: np.ndarray


def build_basis(interval, n: int, oversampling: int = 4) -> ChebyshevBasis:
    a, b = _basis_interval(interval, n, oversampling)
    num_nodes = oversampling * n
    t, w = _clenshaw_curtis(num_nodes)
    nodes = a + (b - a) * (t + 1.0) / 2.0
    weights = w * (b - a) / 2.0
    values, second = _chebyshev_tables(t, n)
    second = second * (2.0 / (b - a)) ** 2
    return ChebyshevBasis(
        interval=(a, b),
        n=n,
        oversampling=oversampling,
        nodes=nodes,
        weights=weights,
        values=values,
        second_derivs=second,
    )


@dataclass(frozen=True, eq=False)
class DiscretizedOde:
    """Assembled rectangular problem plus the bases used to build it."""

    problem: RmepProblem
    bases: tuple[ChebyshevBasis, ChebyshevBasis]


def _sample(fn, nodes) -> np.ndarray:
    vals = np.asarray([fn(float(t)) for t in nodes], dtype=np.float64)
    if not np.all(np.isfinite(vals)):
        raise ValidationError("coefficient function produced non-finite values on the interval")
    return vals


def _qr_positive_diagonal(a):
    """Thin QR with nonnegative real diagonal of R.

    LAPACK's Householder sign choices depend on the tabulation grid; phase
    normalizing makes R the unique Cholesky-style factor, so the assembled
    blocks converge entrywise as the quadrature is refined.
    """
    q, r = np.linalg.qr(a)
    d = np.diag(r).copy()
    phase = np.where(np.abs(d) > 0, d / np.abs(np.where(d == 0, 1.0, d)), 1.0)
    return q * phase.conj(), r * phase.conj()[:, None]


def discretize(spec: OdeSpec) -> DiscretizedOde:
    """Weighted-collocation least-squares assembly of both equations."""
    bases = []
    blocks = []
    for eq in spec.equations:
        basis = build_basis(eq.interval, eq.n, spec.oversampling)
        bases.append(basis)
        sqrt_w = np.sqrt(basis.weights)[:, None]
        pv = _sample(eq.p, basis.nodes)
        qv = _sample(eq.q, basis.nodes)
        fv = _sample(eq.f, basis.nodes)
        operator = (basis.second_derivs + fv[:, None] * basis.values) * sqrt_w
        q_factor, r_factor = _qr_positive_diagonal(operator)
        g = q_factor.conj().T @ (pv[:, None] * basis.values * sqrt_w)
        k_mat = q_factor.conj().T @ (qv[:, None] * basis.values * sqrt_w)
        boundary_vals, _ = _chebyshev_tables(np.array([-1.0, 1.0]), eq.n)
        _, boundary_r = _qr_positive_diagonal(boundary_vals)
        a_block = np.vstack([r_factor, boundary_r])
        # Only the assembled block matters: when f = 0 the operator table alone
        # is rank-deficient (d^2/dt^2 kills degree < 2) but the boundary rows
        # restore full column rank.
        sigma = singular_values(a_block)
        if sigma[-1] < 1e-10 * sigma[0]:
            warnings.warn(
                f"assembled block A on {eq.interval} is numerically rank-deficient "
                f"(sigma_min/sigma_max = {sigma[-1] / sigma[0]:.2e}): a function in the "
                "basis nearly satisfies u'' + f u = 0 and both boundary conditions",
                stacklevel=2,
            )
        zeros = np.zeros((2, eq.n))
        blocks.append(
            EquationBlock(
                a=a_block,
                b=(np.vstack([-g, zeros]), np.vstack([-k_mat, zeros])),
            )
        )
    return DiscretizedOde(problem=RmepProblem(blocks=tuple(blocks)), bases=tuple(bases))


def reconstruct(basis: ChebyshevBasis, coeffs):
    """The callable u(t) for a coefficient vector on the basis.

    Evaluation outside [a, b] (beyond a relative slack of 1e-12) raises
    DomainError.  u accepts scalars or arrays.
    """
    c = np.asarray(coeffs, dtype=np.complex128).reshape(-1)
    if c.size != basis.n:
        raise ValidationError(f"coefficient vector has length {c.size}, basis expects {basis.n}")
    a, b = basis.interval
    slack = 1e-12 * (b - a)

    def u(t):
        t = np.asarray(t, dtype=np.float64)
        if np.any(t < a - slack) or np.any(t > b + slack):
            raise DomainError(f"evaluation point outside [{a}, {b}]")
        ref = 2.0 * (t - a) / (b - a) - 1.0
        vals, _ = _chebyshev_tables(np.atleast_1d(np.clip(ref, -1.0, 1.0)), basis.n)
        out = np.einsum("ij,j->i", vals, c)  # not @: numpy's threaded zgemv spins on into the next solve
        return complex(out[0]) if t.ndim == 0 else out

    return u


def continuous_residuals(spec: OdeSpec, bases, tuples):
    """L1 defects of each tuple's reconstructed eigenfunctions in the
    continuous ODEs, as a list of (s_1, s_2, s_1 + s_2) with

        s_r = int_a^b |u_r'' + (lambda p_r + mu q_r + f_r) u_r| dt,

    integrated by Clenshaw-Curtis on a node set refined to twice the basis
    oversampling.  Each equation's refined grid and its samples of p, q and
    f are built once for all the tuples.  Each vector is read on its own
    basis in `bases` (size and interval), and a vector whose length differs
    from its basis size raises ValidationError; the spec supplies p, q and
    f.  Requires finite eigenvalues.  A zero coefficient vector gives a zero
    defect; that degenerate case is flagged with a warning since the zero
    function is not an eigenfunction.

    The defect is absolute: it is taken for the tuple's own coefficient
    vectors, which `solve_complete` returns with unit 2-norm, and is not
    divided by any scale.  It therefore grows with |lambda| and |mu| and with
    the Chebyshev tail that the n-term basis truncates, so a bound on it is
    a bound on resolution as much as on eigenvalue accuracy.
    """
    grids = []
    for eq, basis in zip(spec.equations, bases):
        fine = build_basis(basis.interval, basis.n, 2 * basis.oversampling)
        grids.append((fine, _sample(eq.p, fine.nodes), _sample(eq.q, fine.nodes), _sample(eq.f, fine.nodes)))
    results = []
    for t in tuples:
        lam, mu = dehomogenize(t.value)
        out = []
        for (fine, pv, qv, fv), coeffs in zip(grids, t.vectors):
            coeffs = np.asarray(coeffs)
            if coeffs.size != fine.n:
                raise ValidationError(f"coefficient vector has length {coeffs.size}, basis expects {fine.n}")
            if np.linalg.norm(coeffs) == 0:
                warnings.warn("zero coefficient vector; the zero function is not an eigenfunction", stacklevel=2)
                out.append(0.0)
                continue
            # Not @, a zgemv that numpy's OpenBLAS threads from 4,096 entries:
            # its pool would spin on into the next solve.
            u = np.einsum("ij,j->i", fine.values, coeffs)
            upp = np.einsum("ij,j->i", fine.second_derivs, coeffs)
            defect = upp + (lam * pv + mu * qv + fv) * u
            out.append(float(fine.weights @ np.abs(defect)))
        results.append((out[0], out[1], out[0] + out[1]))
    return results


def builtin_sturm_liouville(n1: int = 30, n2: int = 30, oversampling: int = 4) -> OdeSpec:
    """Coupled constant-coefficient system on [0, 1]^2 with known solutions.

    p1 = p2 = q2 = 1, q1 = -1, f = 0.  The eigenvalue tuples are

        lambda(i, j) = (i^2 + j^2) pi^2 / 2,   mu(i, j) = (j^2 - i^2) pi^2 / 2,

    with eigenfunctions sin(i pi s), sin(j pi t); handy as an end-to-end
    accuracy yardstick.
    """
    one = lambda t: 1.0
    zero = lambda t: 0.0
    return OdeSpec(
        equations=(
            OdeEquation(p=one, q=lambda t: -1.0, f=zero, interval=(0.0, 1.0), n=n1),
            OdeEquation(p=one, q=one, f=zero, interval=(0.0, 1.0), n=n2),
        ),
        oversampling=oversampling,
    )


def mathieu_geometry(alpha: float, beta: float):
    """Focal distance h and radial extent xi0 of the ellipse
    x^2/alpha^2 + y^2/beta^2 = 1 in elliptic coordinates; ValidationError
    unless alpha > beta > 0 and alpha is finite."""
    if not (alpha > beta > 0 and math.isfinite(alpha)):
        raise ValidationError(f"need alpha > beta > 0, got alpha={alpha}, beta={beta}")
    h = math.sqrt(alpha * alpha - beta * beta)
    xi0 = math.acosh(alpha / h)
    return h, xi0


def builtin_mathieu(alpha: float, beta: float, n1: int = 30, n2: int = 30, oversampling: int = 4) -> OdeSpec:
    """Angular/radial Mathieu system for the Dirichlet ellipse x^2/alpha^2 +
    y^2/beta^2 < 1 (odd symmetry class).

    Separating the membrane equation in elliptic coordinates gives

        u1''(s) + (lambda - 2 mu cos 2s) u1 = 0   on (0, pi/2),
        u2''(t) - (lambda - 2 mu cosh 2t) u2 = 0  on (0, xi0),

    with homogeneous Dirichlet ends; mu = h^2 omega^2 / 4 links mu to the
    membrane eigenfrequency omega.  Mapped onto the generic coefficient
    slots: p1 = 1, q1 = -2 cos 2s and p2 = -1, q2 = +2 cosh 2t.
    ValidationError unless alpha > beta > 0 and alpha is finite (`mathieu_geometry`).
    """
    h, xi0 = mathieu_geometry(alpha, beta)
    zero = lambda t: 0.0
    return OdeSpec(
        equations=(
            OdeEquation(p=lambda s: 1.0, q=lambda s: -2.0 * math.cos(2.0 * s), f=zero, interval=(0.0, math.pi / 2.0), n=n1),
            OdeEquation(p=lambda t: -1.0, q=lambda t: 2.0 * math.cosh(2.0 * t), f=zero, interval=(0.0, xi0), n=n2),
        ),
        oversampling=oversampling,
    )


def sample_eigenfunction(basis: ChebyshevBasis, coeffs, num: int = 201):
    """(t, u(t)) on a uniform grid over the basis interval."""
    a, b = basis.interval
    t = np.linspace(a, b, num)
    u = reconstruct(basis, coeffs)
    return t, u(t)


def elliptic_mode_grid(alpha: float, beta: float, bases, tup: EigenTuple):
    """Membrane mode psi(x, y) = u1(s) u2(t) on the elliptic-coordinate mesh.

    Returns flat arrays (x, y, psi) over MODE_GRID_ANGULAR points s in
    [0, pi/2] times MODE_GRID_RADIAL points t in [0, xi0], s-major (one
    quadrant; the remaining quadrants follow from the symmetry class).
    """
    h, xi0 = mathieu_geometry(alpha, beta)
    s = np.linspace(0.0, math.pi / 2.0, MODE_GRID_ANGULAR)
    t = np.linspace(0.0, xi0, MODE_GRID_RADIAL)
    u1 = reconstruct(bases[0], tup.vectors[0])
    u2 = reconstruct(bases[1], tup.vectors[1])
    u1v = u1(s)
    u2v = u2(t)
    ss, tt = np.meshgrid(s, t, indexing="ij")
    x = h * np.cosh(tt) * np.cos(ss)
    y = h * np.sinh(tt) * np.sin(ss)
    psi = np.outer(u1v, u2v)
    return x.ravel(), y.ravel(), psi.ravel()
