"""Alternating minimization for one approximate eigen-tuple.

The objective is the homogeneous least-squares defect

    theta(v, x) = sum_i ||gamma A_i x_i - sum_s alpha_s B_is x_i||_2^2,

minimized over unit vectors x_i and a unit homogeneous value
v = (gamma, alpha_1, ..., alpha_k) with gamma >= 0.  Both half-steps are
exact block minimizers:

  * for fixed v, the optimal x_i is the right singular vector of the pencil
    R_i(v) = gamma A_i - sum_s alpha_s B_is for its smallest singular value.
    It is computed by inverse iteration on R^H R, with R the triangular
    factor of the pencil's QR, warm-started from the previous sweep's x_i.
    A Cholesky of R^H R shifted to just below ||R x_i||^2 confirms that no
    singular value lies lower, and one inverse-iteration step with that
    factor finishes x_i; the SVD of R answers when the check fails.  So
    x_i is the minimizer to rounding (`linalg.smallest_singular_vector`);
  * for fixed x, theta is the Rayleigh quotient of the (k+1) x (k+1)
    positive semidefinite Gram matrix H = sum_i S_i^H S_i with
    S_i = [A_i x_i, -B_i1 x_i, ..., -B_ik x_i], so the optimal v is the
    eigenvector of its smallest eigenvalue.

Consequently the objective is non-increasing across sweeps, which the trace
records and the tests check.  The minimizing state also yields the smallest
perturbation of the problem data that makes the tuple an exact solution; its
squared Frobenius cost equals the objective value.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .linalg import eig_hermitian, smallest_singular_vector
from .model import (
    EigenTuple,
    EquationBlock,
    HomogeneousEigenvalue,
    PerturbationSet,
    RmepProblem,
    homogenize,
    normalized_residual,
)

__all__ = [
    "AlternatingConfig",
    "AlternatingTrace",
    "build_gram",
    "best_value",
    "kkt_residual",
    "reconstruct_perturbation",
    "solve_one",
    "write_trace_csv",
]

STATUS_TOL = "tol-met"
STATUS_BUDGET = "budget-exhausted"
STATUS_STAGNATED = "stagnated"
# Normalized KKT residual above which a run that met the objective-change
# rule is reported as stagnated rather than converged.
STAGNATION_KKT = 1e-4


@dataclass(frozen=True)
class AlternatingConfig:
    """Options for `solve_one`.

    initial_lambdas -- starting eigenvalue guess (defaults to all zeros);
    restarts        -- number of extra runs from random complex guesses, the
                       best final objective wins;
    seed            -- drives the restart guesses only.
    """

    initial_lambdas: tuple[complex, ...] | None = None
    max_iters: int = 1000
    rel_tol: float = 1e-6
    restarts: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValidationError("max_iters must be >= 1")
        if self.rel_tol <= 0:
            raise ValidationError("rel_tol must be positive")
        if self.restarts < 0:
            raise ValidationError("restarts must be >= 0")


@dataclass
class AlternatingTrace:
    """Per-sweep objective values and KKT residuals, and convergence diagnostics."""

    objectives: list[float] = field(default_factory=list)
    kkt: list[float] = field(default_factory=list)
    final_kkt: float | None = None
    iterations: int = 0
    status: str = STATUS_BUDGET
    likely_infimum: bool = False


def _vector_step(problem: RmepProblem, value: HomogeneousEigenvalue, xs=None):
    """Optimal unit vectors for fixed value.

    Each x_i is the right singular vector of R_i(v) = gamma A_i - sum_s
    alpha_s B_is for its smallest singular value, found by inverse iteration
    from xs[i] (the previous sweep's vector), or from n^-1/2 (1, ..., 1) when
    `xs` is None.  An iterate that fails the kernel's minimality check (a
    start with no component along the minimizer, or one the step cap left
    unconverged) is replaced by the SVD's vector.  So ||R_i x_i||^2 is the
    minimum to rounding, and x_i is the SVD's vector up to a unit phase
    unless the two smallest singular values tie to rounding; the objective
    never rises.  The result depends only on the pencil and the start, so
    runs repeat bitwise.
    """
    starts = [None] * problem.k if xs is None else xs
    return [smallest_singular_vector(blk.pencil(value.coefficients), x) for blk, x in zip(problem.blocks, starts)]


def build_gram(problem: RmepProblem, xs) -> np.ndarray:
    """H(x) = sum_i S_i(x_i)^H S_i(x_i), Hermitian PSD of size (k+1)."""
    if len(xs) != problem.k:
        raise ValidationError("need one vector per equation block")
    # Row j of signs @ (S_i x_i) is column j of S_i(x_i).
    signs = np.diag([1.0] + [-1.0] * problem.k)
    h = np.zeros((problem.k + 1, problem.k + 1), dtype=np.complex128)
    for blk, x in zip(problem.blocks, xs):
        s = blk.pencil(signs, x).T
        h += s.conj().T @ s
    return (h + h.conj().T) / 2.0


def best_value(h: np.ndarray):
    """Smallest eigenpair of the Gram matrix as (theta, homogeneous value)."""
    w, v = eig_hermitian(h)
    theta = float(max(w[0], 0.0))
    return theta, HomogeneousEigenvalue.from_vector(v[:, 0])


def kkt_residual(problem: RmepProblem, t: EigenTuple) -> float:
    """Normalized first-order optimality residual at the state (value, vectors).

        sum_i ||R_i^H R_i x_i - x_i w_i|| / xi_i  +  ||H v - v w|| / sum_i xi_i

    with w_i = ||R_i x_i||^2, w = v^H H v and xi_i = ||A_i||_2^2 + sum_s ||B_is||_2^2.
    """
    return _kkt_residual(problem, t.value, t.vectors, build_gram(problem, t.vectors))


def _kkt_residual(problem, v, xs, h) -> float:
    """`kkt_residual` with the Gram matrix H(xs) already built."""
    total = 0.0
    xis = []
    for i in range(problem.k):
        norm_a, norms_b = problem.spectral_norms[i]
        xi = norm_a**2 + sum(nb**2 for nb in norms_b)
        xis.append(xi)
        r = problem.blocks[i].pencil(v.coefficients)
        rx = r @ xs[i]
        omega = float(np.linalg.norm(rx) ** 2)
        total += np.linalg.norm(r.conj().T @ rx - xs[i] * omega) / xi
    vv = np.concatenate(([v.gamma], v.alphas))
    omega = float((vv.conj() @ (h @ vv)).real)
    total += np.linalg.norm(h @ vv - vv * omega) / sum(xis)
    return float(total)


def reconstruct_perturbation(problem: RmepProblem, value: HomogeneousEigenvalue, xs) -> PerturbationSet:
    """Smallest data perturbation making (value, xs) an exact solution.

    With the block defects f_i = gamma A_i x_i - sum_s alpha_s B_is x_i the
    rank-one updates

        A^_i  = A_i  - gamma      * f_i x_i^H,
        B^_is = B_is + conj(a_s)  * f_i x_i^H,

    (one update of the block array, S^_i = S_i - conj(c) (x) f_i x_i^H with
    c = (gamma, -alpha_1, ..., -alpha_k)) satisfy
    A^_i x_i = sum_s lambda_s B^_is x_i (for gamma > 0), and the squared
    Frobenius cost of the update collapses to sum_i ||f_i||^2, the
    homogeneous objective at the state.
    """
    if len(xs) != problem.k:
        raise ValidationError("need one vector per equation block")
    c = value.coefficients
    blocks = []
    for blk, x in zip(problem.blocks, xs):
        s_hat = blk.coeffs - c.conj()[:, None, None] * np.outer(blk.pencil(c, x), x.conj())
        blocks.append(EquationBlock(a=s_hat[0], b=tuple(s_hat[1:])))
    return PerturbationSet.from_blocks(problem, blocks)


def _run(problem, value, cfg):
    trace = AlternatingTrace()
    xs = None
    for _ in range(cfg.max_iters):
        xs = _vector_step(problem, value, xs)
        h = build_gram(problem, xs)
        theta, value = best_value(h)
        trace.objectives.append(theta)
        trace.iterations += 1
        trace.kkt.append(_kkt_residual(problem, value, xs, h))
        n = len(trace.objectives)
        if n >= 2 and abs(trace.objectives[-1] - trace.objectives[-2]) <= (trace.objectives[-1] + 1.0) * cfg.rel_tol:
            trace.status = STATUS_TOL
            break
    else:
        trace.status = STATUS_BUDGET
    trace.final_kkt = trace.kkt[-1]
    if trace.status == STATUS_TOL and trace.final_kkt > STAGNATION_KKT:
        # The cheap objective-change rule can fire long before first-order
        # optimality holds; report that instead of claiming convergence.
        trace.status = STATUS_STAGNATED
    return value, xs, trace


def solve_one(problem: RmepProblem, cfg: AlternatingConfig | None = None):
    """Alternate both half-steps until the relative objective change rule

        |theta_{j+1} - theta_j| <= (theta_{j+1} + 1) * rel_tol

    fires or the sweep budget runs out.  Returns (tuple, perturbation, trace);
    the returned EigenTuple carries the finite residual when gamma clears the
    infinite-eigenvalue threshold, and `trace.likely_infimum` is set when it
    does not (the optimum is then approached but not attained by any finite
    eigenvalue tuple).
    """
    cfg = cfg or AlternatingConfig()
    if cfg.initial_lambdas is None:
        init = np.zeros(problem.k, dtype=np.complex128)
    else:
        init = np.array(cfg.initial_lambdas, dtype=np.complex128).reshape(-1)
        if init.size != problem.k:
            raise ValidationError(f"initial_lambdas must have length {problem.k}")
    guesses = [init]
    if cfg.restarts:
        rng = np.random.default_rng(cfg.seed)
        for _ in range(cfg.restarts):
            guesses.append(rng.standard_normal(problem.k) + 1j * rng.standard_normal(problem.k))
    best = None
    for guess in guesses:
        value, xs, trace = _run(problem, homogenize(guess), cfg)
        if best is None or trace.objectives[-1] < best[2].objectives[-1]:
            best = (value, xs, trace)
    value, xs, trace = best
    pset = reconstruct_perturbation(problem, value, xs)
    tup = EigenTuple(value=value, vectors=tuple(xs))
    if value.is_finite():
        _, rho = normalized_residual(problem, tup)
        tup = EigenTuple(value=value, vectors=tuple(xs), residual=rho)
    else:
        trace.likely_infimum = True
    return tup, pset, trace


def write_trace_csv(trace: AlternatingTrace, fileobj) -> None:
    """Columns: iter, theta1, eps_kkt."""
    writer = csv.writer(fileobj)
    writer.writerow(["iter", "theta1", "eps_kkt"])
    for j, (theta, kkt) in enumerate(zip(trace.objectives, trace.kkt), start=1):
        writer.writerow([j, f"{theta:.17g}", f"{kkt:.17g}"])
