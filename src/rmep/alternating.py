"""Alternating minimization for one approximate eigen-tuple.

The objective is the homogeneous least-squares defect

    theta(v, x) = sum_i ||gamma A_i x_i - sum_s alpha_s B_is x_i||_2^2,

minimized over unit vectors x_i and a unit homogeneous value
v = (gamma, alpha_1, ..., alpha_k) with gamma >= 0.  Both half-steps are
exact block minimizers:

  * for fixed v, the optimal x_i is the right singular vector of the pencil
    R_i(v) = gamma A_i - sum_s alpha_s B_is for its smallest singular value.
    It is computed by inverse iteration on R^H R, shifted to just below
    its smallest eigenvalue and warm-started from the previous sweep's x_i;
    the Cholesky factor of the shifted matrix proves that no singular value
    lies lower.  The shift comes from two Rayleigh-quotient-iteration steps
    from x_i, or from `eigvalsh` in the first sweep and when those steps
    fail or give a shift with no Cholesky factor; the SVD of R answers
    when that Cholesky fails too or the step cap is reached.  So
    ||R_i x_i||^2 is the minimum to within a rounding-sized slack
    (`linalg.smallest_singular_vector`);
  * for fixed x, theta is the Rayleigh quotient of the (k+1) x (k+1)
    positive semidefinite Gram matrix H = sum_i S_i^H S_i with
    S_i = [A_i x_i, -B_i1 x_i, ..., -B_ik x_i], so the optimal v is the
    eigenvector of its smallest eigenvalue.

Every sweep after the first then searches an extrapolation of the vectors,
x_e,i = normalize(x_i + beta (x_i - phi_i x'_i)), with x' the state the
previous sweep kept and phi_i the unit phase of <x'_i, x_i>, and takes the
optimal v for x_e from H(x_e) (Rajih, Comon & Harshman, SIMAX 2008); beta
doubles while the trials lower theta, and the best trial is kept (Bro,
1998).  Each sweep starts from the state the previous one kept, whose theta
is its objective, and neither exact half-step can raise it.  Consequently
the objective is non-increasing across sweeps, which the trace records and
the tests check.  The minimizing state also yields the smallest
perturbation of the problem data that makes the tuple an exact solution;
its squared Frobenius cost equals the objective value.

A run stops at the first sweep whose scale-free first-order (KKT) residual
is at most `AlternatingConfig.kkt_tol`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ValidationError, check_integer
from .linalg import smallest_singular_vector, unit_scaled
from .model import (
    EigenTuple,
    EquationBlock,
    HomogeneousEigenvalue,
    PerturbationSet,
    RmepProblem,
    _complex_normal,
    normalize_homogeneous,
    normalized_residual,
)

__all__ = [
    "AlternatingConfig",
    "AlternatingTrace",
    "build_gram",
    "reconstruct_perturbation",
    "solve_one",
]

STATUS_TOL = "tol-met"
STATUS_BUDGET = "budget-exhausted"
# Extrapolation step: a sweep's search doubles it up to BETA_MAX (8 trials at most)
# and the next search starts from the kept one; a failed first trial halves it down to BETA_MIN.
BETA_START, BETA_MAX, BETA_MIN = 1.0, 64.0, 0.5


@dataclass(frozen=True)
class AlternatingConfig:
    """Options for `solve_one`.

    initial_lambdas -- starting eigenvalue guess, finite real or complex
                       numbers (defaults to all zeros);
    max_iters       -- sweep budget of each run;
    kkt_tol         -- a run stops at the first sweep with `_kkt_residual` <= kkt_tol,
                       a positive finite real number;
    restarts        -- number of extra runs from random complex guesses, the
                       best final objective wins;
    seed            -- drives the restart guesses only.
    """

    initial_lambdas: tuple[complex, ...] | None = None
    max_iters: int = 1000
    kkt_tol: float = 1e-5
    restarts: int = 0
    seed: int = 0

    def __post_init__(self):
        check_integer("max_iters", self.max_iters, 1)
        tol = self.kkt_tol
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0 < tol < math.inf:
            raise ValidationError(f"kkt_tol must be positive and finite, got {tol!r}")
        if self.initial_lambdas is not None:
            try:
                guess = np.asarray(self.initial_lambdas)
                numeric = guess.dtype.kind in "iufc" and np.isfinite(guess).all()
            except ValueError:  # a ragged sequence
                numeric = False
            if not numeric:
                raise ValidationError(f"initial_lambdas must be finite numbers, got {self.initial_lambdas!r}")
        check_integer("restarts", self.restarts, 0)
        check_integer("seed", self.seed, 0)


@dataclass
class AlternatingTrace:
    """Per-sweep objective values and KKT residuals, convergence diagnostics
    and the number of sweeps that kept their extrapolated state."""

    objectives: list[float] = field(default_factory=list)
    kkt: list[float] = field(default_factory=list)
    extrapolations: int = 0
    status: str = STATUS_BUDGET

    @property
    def iterations(self) -> int:
        return len(self.objectives)

    @property
    def final_kkt(self) -> float | None:
        """The last sweep's KKT residual; None before the first sweep."""
        return self.kkt[-1] if self.kkt else None


def _pencils(problem: RmepProblem, v) -> list[np.ndarray]:
    """The block pencils R_i(v) = gamma A_i - sum_s alpha_s B_is at the unit
    row v = (gamma, alpha_1, ..., alpha_k)."""
    c = np.concatenate((v[:1], -v[1:]))
    return [blk.pencil(c) for blk in problem.blocks]


def _vector_step(pencils, xs=None):
    """Optimal unit vectors for fixed value v, from its `_pencils`.

    Each x_i is the right singular vector of R_i(v) for its smallest
    singular value, found by shifted inverse iteration on R_i^H R_i.  xs[i]
    (the previous sweep's vector) starts two Rayleigh-quotient steps that
    give the shift, with `eigvalsh` as the fallback; when `xs` is None,
    `eigvalsh` gives the shift and n^-1/2 (1, ..., 1) the start.  The shift
    makes two inverse steps enough from almost any start.  So ||R_i x_i||^2
    is the minimum to within a rounding-sized slack, and x_i is the SVD's
    vector up to a unit phase unless the two smallest squared singular
    values tie within that slack; the objective never rises.  The result depends only on the pencil and
    the start, so runs repeat bitwise.
    """
    starts = [None] * len(pencils) if xs is None else xs
    return [smallest_singular_vector(r, x) for r, x in zip(pencils, starts)]


def build_gram(problem: RmepProblem, xs) -> np.ndarray:
    """H(x) = sum_i S_i(x_i)^H S_i(x_i), Hermitian PSD of size (k+1)."""
    if len(xs) != problem.k:
        raise ValidationError("need one vector per equation block")
    h = np.zeros((problem.k + 1, problem.k + 1), dtype=np.complex128)
    for blk, x in zip(problem.blocks, xs):
        s = blk.coeffs @ x  # row j is column j of S_i(x_i) once the B rows change sign
        s[1:] *= -1
        h += s.conj() @ s.T
    return (h + h.conj().T) / 2.0


def _smallest_eigenpair(h):
    """Smallest eigenpair of the Gram matrix as (theta, eigenvector), the
    optimal value v up to its normalization."""
    w, v = np.linalg.eigh(h)
    return float(max(w[0], 0.0)), v[:, 0]


def _xis(problem):
    """xi_i = ||A_i||_2^2 + sum_s ||B_is||_2^2 of every block."""
    return [norm_a**2 + sum(nb**2 for nb in norms_b) for norm_a, norms_b in problem.spectral_norms]


def _kkt_residual(pencils, vv, xs, h, xis) -> float:
    """Normalized first-order optimality residual at the state (v, xs), from
    the unit row vv of v, its `_pencils`, h = build_gram(problem, xs) and the
    `_xis`:

        sum_i ||R_i^H R_i x_i - x_i w_i|| / xi_i  +  ||H v - v w|| / sum_i xi_i

    with w_i = ||R_i x_i||^2, w = v^H H v and xi_i = ||A_i||_2^2 + sum_s ||B_is||_2^2.
    """
    total = 0.0
    for r, x, xi in zip(pencils, xs, xis):
        rx = r @ x
        omega = float(np.linalg.norm(rx) ** 2)
        total += np.linalg.norm(r.conj().T @ rx - x * omega) / xi
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


def _run(problem, row, cfg):
    """One run from the unit homogeneous row of a guess; returns (value, xs, trace)."""
    trace = AlternatingTrace()
    xs = kept = None
    beta = BETA_START
    xis = _xis(problem)
    # A sweep's KKT check and the next sweep's vector step share the pencils.
    pencils = _pencils(problem, row)
    for _ in range(cfg.max_iters):
        xs = _vector_step(pencils, xs)
        h = build_gram(problem, xs)
        theta, vec = _smallest_eigenpair(h)
        if kept is not None:
            # ||x + step d|| >= 1 for unit x and x_old, since step > 0.
            ds = [x - x_old * np.exp(1j * np.angle(np.vdot(x_old, x))) for x, x_old in zip(xs, kept)]
            base, step, best = xs, beta, None
            while step <= BETA_MAX:
                xe = [y / np.linalg.norm(y) for y in (x + step * d for x, d in zip(base, ds))]
                he = build_gram(problem, xe)
                theta_e, vec_e = _smallest_eigenpair(he)
                if not theta_e < theta:
                    break
                xs, h, theta, vec, best = xe, he, theta_e, vec_e, step
                step *= 2
            beta = max(beta / 2.0, BETA_MIN) if best is None else best
            trace.extrapolations += best is not None
        kept = xs
        trace.objectives.append(theta)
        row = normalize_homogeneous(vec[None])[0]
        pencils = _pencils(problem, row)
        trace.kkt.append(_kkt_residual(pencils, row, xs, h, xis))
        if trace.kkt[-1] <= cfg.kkt_tol:
            trace.status = STATUS_TOL
            break
    return HomogeneousEigenvalue(gamma=row[0].real, alphas=row[1:]), xs, trace


def solve_one(problem: RmepProblem, cfg: AlternatingConfig | None = None):
    """Alternate both half-steps until the first sweep whose KKT residual
    (`_kkt_residual`) is at most `cfg.kkt_tol` (status tol-met), or for
    `cfg.max_iters` sweeps (budget-exhausted).  From the second sweep on,
    each sweep also searches an extrapolation of the vectors past the
    previous sweep's state and keeps one only when it lowers theta, so the
    objective still never rises (see the module docstring).  The runs see a
    copy of the problem scaled by one power of two, so the tuple, KKT trace
    and status do not depend on the scale of the data; theta and the
    perturbation are in the problem's units (theta overflows once the
    entries pass about 2^511).  Returns (tuple, perturbation, trace); the
    tuple carries the finite residual and its per-block terms
    (`normalized_residual`) when gamma clears the infinite-eigenvalue
    threshold, and None when it does not (the optimum is then likely an
    infimum, approached but not attained by any finite tuple).
    """
    cfg = cfg or AlternatingConfig()
    if cfg.initial_lambdas is None:
        init = np.zeros(problem.k, dtype=np.complex128)
    else:
        init = np.array(cfg.initial_lambdas, dtype=np.complex128).reshape(-1)
        if init.size != problem.k:
            raise ValidationError(f"initial_lambdas must have length {problem.k}")
    rng = np.random.default_rng(cfg.seed)
    guesses = [init] + [_complex_normal(rng, problem.k) for _ in range(cfg.restarts)]
    # One power of two for all blocks: per-block powers would reweight them in theta.
    # `coeffs` is freed once the blocks copy it; the cached 2-norms scale exactly.
    coeffs = [blk.coeffs.copy() for blk in problem.blocks]
    e = unit_scaled(*coeffs)
    scaled = RmepProblem(blocks=tuple(EquationBlock(a=c[0], b=tuple(c[1:])) for c in coeffs))
    del coeffs
    object.__setattr__(scaled, "spectral_norms", tuple((math.ldexp(na, -e), tuple(math.ldexp(nb, -e) for nb in nbs))
                                                       for na, nbs in problem.spectral_norms))
    rows = normalize_homogeneous(np.column_stack((np.ones(len(guesses)), guesses)))
    value, xs, trace = min((_run(scaled, row, cfg) for row in rows), key=lambda run: run[2].objectives[-1])
    trace.objectives = np.ldexp(trace.objectives, 2 * e).tolist()
    pset = reconstruct_perturbation(problem, value, xs)
    tup = EigenTuple(value=value, vectors=tuple(xs))
    if value.is_finite():
        rho, total = normalized_residual(scaled, tup)
        tup = replace(tup, residual=total, block_residuals=tuple(rho.tolist()))
    return tup, pset, trace
