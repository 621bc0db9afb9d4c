"""Alternating minimization for one approximate eigen-tuple.

The objective is the homogeneous least-squares defect

    theta(v, x) = sum_i ||gamma A_i x_i - sum_s alpha_s B_is x_i||_2^2,

minimized over unit vectors x_i and a unit homogeneous value
v = (gamma, alpha_1, ..., alpha_k) with gamma >= 0.  Both half-steps are
exact block minimizers:

  * for fixed v, the optimal x_i is the right singular vector of the pencil
    R_i(v) = gamma A_i - sum_s alpha_s B_is for its smallest singular value;
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

from .config import DEFAULT, NumericsConfig
from .errors import ValidationError
from .linalg import eig_hermitian, svd
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
    "build_pencil",
    "best_vectors",
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
    degenerate_blocks: tuple[int, ...] = ()


def build_pencil(problem: RmepProblem, value: HomogeneousEigenvalue, i: int) -> np.ndarray:
    """R_i(v) = gamma A_i - sum_s alpha_s B_is for block i."""
    return problem.blocks[i].pencil(value.coefficients)


def _vector_step(problem: RmepProblem, value: HomogeneousEigenvalue):
    """Optimal unit vectors for fixed value, plus the smallest-sigma gaps."""
    xs = []
    gaps = []
    for i in range(problem.k):
        r = build_pencil(problem, value, i)
        res = svd(r)
        s = res.singular_values
        xs.append(res.v[:, -1].copy())
        scale = s[0] if s[0] > 0 else 1.0
        gaps.append((s[-2] - s[-1]) / scale if s.size >= 2 else np.inf)
    return xs, gaps


def best_vectors(problem: RmepProblem, value: HomogeneousEigenvalue) -> list[np.ndarray]:
    """Right singular vectors of each R_i for its smallest singular value.

    Ties are broken deterministically by the fixed last-column convention of
    the descending-order SVD.
    """
    return _vector_step(problem, value)[0]


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


def best_value(h: np.ndarray, config: NumericsConfig = DEFAULT):
    """Smallest eigenpair of the Gram matrix as (theta, homogeneous value)."""
    w, v = eig_hermitian(h, config)
    theta = float(max(w[0], 0.0))
    return theta, HomogeneousEigenvalue.from_vector(v[:, 0])


def kkt_residual(problem: RmepProblem, t: EigenTuple) -> float:
    """Normalized first-order optimality residual at the state (value, vectors).

        sum_i ||R_i^H R_i x_i - x_i w_i|| / xi_i  +  ||H v - v w|| / sum_i xi_i

    with w_i = ||R_i x_i||^2, w = v^H H v and xi_i = ||A_i||_2^2 + sum_s ||B_is||_2^2.
    """
    v = t.value
    xs = t.vectors
    total = 0.0
    xis = []
    for i in range(problem.k):
        norm_a, norms_b = problem.spectral_norms[i]
        xi = norm_a**2 + sum(nb**2 for nb in norms_b)
        xis.append(xi)
        r = build_pencil(problem, v, i)
        rx = r @ xs[i]
        omega = float(np.linalg.norm(rx) ** 2)
        total += np.linalg.norm(r.conj().T @ rx - xs[i] * omega) / xi
    h = build_gram(problem, xs)
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


def _run(problem, value, cfg, config):
    trace = AlternatingTrace()
    xs = None
    for _ in range(cfg.max_iters):
        xs, gaps = _vector_step(problem, value)
        h = build_gram(problem, xs)
        theta, value = best_value(h, config)
        trace.objectives.append(theta)
        trace.iterations += 1
        trace.kkt.append(kkt_residual(problem, EigenTuple(value=value, vectors=tuple(xs))))
        n = len(trace.objectives)
        if n >= 2 and abs(trace.objectives[-1] - trace.objectives[-2]) <= (trace.objectives[-1] + 1.0) * cfg.rel_tol:
            trace.status = STATUS_TOL
            break
    else:
        trace.status = STATUS_BUDGET
    trace.final_kkt = trace.kkt[-1]
    if trace.status == STATUS_TOL and trace.final_kkt > config.stagnation_kkt:
        # The cheap objective-change rule can fire long before first-order
        # optimality holds; report that instead of claiming convergence.
        trace.status = STATUS_STAGNATED
    _, gaps = _vector_step(problem, value)
    trace.degenerate_blocks = tuple(i for i, g in enumerate(gaps) if g < 1e-8)
    return value, xs, trace


def solve_one(problem: RmepProblem, cfg: AlternatingConfig | None = None, config: NumericsConfig = DEFAULT):
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
        value, xs, trace = _run(problem, homogenize(guess), cfg, config)
        if best is None or trace.objectives[-1] < best[2].objectives[-1]:
            best = (value, xs, trace)
    value, xs, trace = best
    pset = reconstruct_perturbation(problem, value, xs)
    tup = EigenTuple(value=value, vectors=tuple(xs))
    if value.is_finite(config):
        _, rho = normalized_residual(problem, tup, config)
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
