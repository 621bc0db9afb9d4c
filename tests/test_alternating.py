import io

import numpy as np
import pytest

from rmep.alternating import (
    AlternatingConfig,
    _vector_step,
    best_value,
    build_gram,
    kkt_residual,
    reconstruct_perturbation,
    solve_one,
    write_trace_csv,
)
from rmep.linalg import svd
from rmep.mep import solve_mep
from rmep.model import (
    EigenTuple,
    EquationBlock,
    HomogeneousEigenvalue,
    RmepProblem,
    dehomogenize,
    homogeneous_residual,
    homogenize,
    perturbation_cost,
)

from conftest import EPS, crandn, random_problem


def scalar_problem():
    return RmepProblem(blocks=(EquationBlock(a=[[2.0], [0.0]], b=([[1.0], [0.0]],)),))


class TestBuildPencil:
    def test_gamma_one(self):
        rng = np.random.default_rng(0)
        p = random_problem(rng, 5, 3, 2)
        v = HomogeneousEigenvalue(gamma=1.0, alphas=[0.0, 0.0])
        assert np.allclose(p.blocks[0].pencil(v.coefficients), p.blocks[0].a)

    def test_k1_equal_weights(self):
        rng = np.random.default_rng(1)
        p = random_problem(rng, 4, 2, 1)
        s = 1 / np.sqrt(2)
        v = HomogeneousEigenvalue(gamma=s, alphas=[s])
        expected = (p.blocks[0].a - p.blocks[0].b[0]) * s
        assert np.allclose(p.blocks[0].pencil(v.coefficients), expected)

    def test_scalar_vanishes_at_solution(self):
        p = scalar_problem()
        v = homogenize([2.0])
        assert np.allclose(p.blocks[0].pencil(v.coefficients), 0.0)


class TestBestVectors:
    def test_zero_column_selects_null_direction(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        p = RmepProblem(blocks=(EquationBlock(a=a, b=(np.zeros((3, 2)),)),))
        v = HomogeneousEigenvalue(gamma=1.0, alphas=[0.0])
        (x,) = _vector_step(p, v)
        assert abs(abs(x[1]) - 1.0) < 1e-13

    def test_symmetric_pencil_first_sweep(self):
        # The first sweep's start n^-1/2 (1, 1) is the sigma = 3 singular
        # vector of this pencil; the step must still find sigma_min = 1.
        a = np.array([[2.0, 1.0], [1.0, 2.0], [0.0, 0.0]])
        p = RmepProblem(blocks=(EquationBlock(a=a, b=(np.zeros((3, 2)),)),))
        v = HomogeneousEigenvalue(gamma=1.0, alphas=[0.0])
        (x,) = _vector_step(p, v)
        assert abs(np.linalg.norm(a @ x) - 1.0) < 1e-14

    def test_achieves_smallest_singular_value(self):
        rng = np.random.default_rng(2)
        p = random_problem(rng, 5, 3, 2)
        v = homogenize(crandn(rng, 2))
        xs = _vector_step(p, v)
        for i, x in enumerate(xs):
            r = p.blocks[i].pencil(v.coefficients)
            smin = svd(r).singular_values[-1]
            assert abs(np.linalg.norm(r @ x) - smin) <= 1e-12 * max(1.0, smin)

    def test_identity_pencil_tie_break(self):
        # R = I makes every unit vector optimal; the fixed start vector of the
        # first sweep must return the same choice every time
        p = RmepProblem(blocks=(EquationBlock(a=np.eye(3), b=(np.zeros((3, 3)),)),))
        v = HomogeneousEigenvalue(gamma=1.0, alphas=[0.0])
        (x1,) = _vector_step(p, v)
        (x2,) = _vector_step(p, v)
        assert np.array_equal(x1, x2)
        assert abs(np.linalg.norm(np.eye(3) @ x1) - 1.0) < 1e-14

    def test_half_step_exactness(self):
        # no competitor set of unit vectors beats the half-step's choice
        rng = np.random.default_rng(3)
        p = random_problem(rng, 6, 3, 2)
        v = homogenize(crandn(rng, 2))
        xs = _vector_step(p, v)
        base = sum(np.linalg.norm(p.blocks[i].pencil(v.coefficients) @ x) ** 2 for i, x in enumerate(xs))
        for _ in range(200):
            ys = [crandn(rng, 3) for _ in range(2)]
            ys = [y / np.linalg.norm(y) for y in ys]
            competitor = sum(np.linalg.norm(p.blocks[i].pencil(v.coefficients) @ y) ** 2 for i, y in enumerate(ys))
            assert competitor >= base - 1e-10


class TestBuildGram:
    def test_k1_matches_explicit_form(self):
        rng = np.random.default_rng(4)
        p = random_problem(rng, 5, 3, 1)
        x = crandn(rng, 3)
        x /= np.linalg.norm(x)
        s = np.column_stack([p.blocks[0].a @ x, -(p.blocks[0].b[0] @ x)])
        expected = s.conj().T @ s
        assert np.allclose(build_gram(p, [x]), expected)

    def test_annihilated_vectors_give_zero(self):
        a = np.zeros((3, 2))
        p = RmepProblem(blocks=(EquationBlock(a=a, b=(a, a)), EquationBlock(a=a, b=(a, a))))
        xs = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        assert np.allclose(build_gram(p, xs), 0.0)

    def test_scalar_hand_value(self):
        p = scalar_problem()
        h = build_gram(p, [np.array([1.0])])
        assert np.allclose(h, [[4.0, -2.0], [-2.0, 1.0]])

    def test_hermitian_psd(self):
        rng = np.random.default_rng(5)
        p = random_problem(rng, 6, 4, 2)
        xs = [crandn(rng, 4) for _ in range(2)]
        xs = [x / np.linalg.norm(x) for x in xs]
        h = build_gram(p, xs)
        assert np.linalg.norm(h - h.conj().T) < 1e-12 * np.linalg.norm(h)
        assert np.linalg.eigvalsh(h).min() >= -1e-12 * np.linalg.norm(h)


class TestBestValue:
    def test_diagonal(self):
        theta, v = best_value(np.diag([0.0, 1.0, 2.0]))
        assert theta == 0.0
        assert v.gamma == pytest.approx(1.0)
        assert np.allclose(v.alphas, 0.0)

    def test_degenerate_identity_is_deterministic(self):
        t1, v1 = best_value(np.eye(3))
        t2, v2 = best_value(np.eye(3))
        assert t1 == t2 == pytest.approx(1.0)
        assert v1.gamma == v2.gamma
        assert np.array_equal(v1.alphas, v2.alphas)

    def test_scalar_hand_eigenpair(self):
        theta, v = best_value(np.array([[4.0, -2.0], [-2.0, 1.0]]))
        assert theta <= 1e3 * EPS
        assert abs(v.gamma - 1 / np.sqrt(5)) < 1e-12
        assert abs(v.alphas[0] - 2 / np.sqrt(5)) < 1e-12


class TestSolveOne:
    def test_scalar_problem_recovers_exact_solution(self):
        p = scalar_problem()
        tup, pset, trace = solve_one(p)
        lam = dehomogenize(tup.value)
        assert abs(lam[0] - 2.0) < 1e-8
        assert trace.objectives[-1] <= 1e-20
        assert trace.status == "tol-met"

    def test_consistent_square_mep_converges_in_one_sweep(self):
        rng = np.random.default_rng(6)
        p = random_problem(rng, 3, 3, 2, square=True)
        sol = solve_mep(p, seed=0)[0]
        lam = dehomogenize(sol.value)
        cfg = AlternatingConfig(initial_lambdas=tuple(lam), max_iters=3, rel_tol=1e-12)
        tup, _, trace = solve_one(p, cfg)
        # theta is the smallest eigenvalue of the Gram matrix; even at an exact
        # fixed point eigh cannot report it below the eps * ||H|| roundoff floor
        scale = sum(np.linalg.norm(b.a) ** 2 for b in p.blocks)
        assert trace.objectives[0] <= 1e3 * EPS * scale
        assert abs(dehomogenize(tup.value)[0] - lam[0]) < 1e-6

    def test_monotone_descent_seeded(self):
        rng = np.random.default_rng(7)
        sizes = [(8, 5), (12, 9), (20, 16)]
        for trial in range(12):
            m, n = sizes[trial % len(sizes)]
            p = random_problem(np.random.default_rng(100 + trial), m, n, 2)
            _, _, trace = solve_one(p, AlternatingConfig(max_iters=300))
            th = trace.objectives
            for a, b in zip(th, th[1:]):
                assert b <= a + 1e2 * EPS * (1.0 + a)

    def test_loose_tolerance_reports_stagnation(self):
        # rel_tol = 0.5 stops after two sweeps, far from first-order optimality
        p = random_problem(np.random.default_rng(0), 20, 15, 2)
        _, _, trace = solve_one(p, AlternatingConfig(rel_tol=0.5))
        assert trace.status == "stagnated"
        assert trace.final_kkt > 1e-4
        th = trace.objectives
        for a, b in zip(th, th[1:]):
            assert b <= a + 1e2 * EPS * (1.0 + a)

    def test_infimum_at_infinite_eigenvalue(self):
        # B's zero second column lets gamma -> 0 drive the defect to zero, so
        # the optimum is approached only by an infinite eigenvalue
        rng = np.random.default_rng(0)
        a = crandn(rng, 4, 2)
        b = crandn(rng, 4, 2)
        b[:, 1] = 0.0
        p = RmepProblem(blocks=(EquationBlock(a=a, b=(b,)),))
        tup, pset, trace = solve_one(p, AlternatingConfig(initial_lambdas=(1e13,)))
        assert trace.likely_infimum
        assert tup.residual is None
        assert tup.value.gamma <= 1e-12
        assert pset.cost == pytest.approx(trace.objectives[-1], rel=1e-12)

    def test_restarts_deterministic(self):
        p = random_problem(np.random.default_rng(8), 10, 7, 2)
        cfg = AlternatingConfig(restarts=2, seed=5, max_iters=200)
        t1, _, tr1 = solve_one(p, cfg)
        t2, _, tr2 = solve_one(p, cfg)
        assert tr1.objectives == tr2.objectives
        assert np.array_equal(t1.vectors[0], t2.vectors[0])

    def test_repeat_runs_bitwise_equal(self):
        p = random_problem(np.random.default_rng(13), 40, 32, 2)
        (t1, pset1, tr1), (t2, pset2, tr2) = solve_one(p), solve_one(p)
        assert tr1.objectives == tr2.objectives and tr1.kkt == tr2.kkt
        assert tr1.status == tr2.status and tr1.iterations == tr2.iterations
        assert all(np.array_equal(x1, x2) for x1, x2 in zip(t1.vectors, t2.vectors))
        assert np.array_equal(t1.value.alphas, t2.value.alphas) and t1.value.gamma == t2.value.gamma
        assert pset1.cost == pset2.cost

    def test_trace_csv(self):
        p = scalar_problem()
        _, _, trace = solve_one(p)
        buf = io.StringIO()
        write_trace_csv(trace, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "iter,theta1,eps_kkt"
        assert len(lines) == 1 + trace.iterations


class TestKktResidual:
    def test_zero_at_exact_solution(self):
        p = scalar_problem()
        t = EigenTuple(value=homogenize([2.0]), vectors=(np.array([1.0]),))
        assert kkt_residual(p, t) <= 1e3 * EPS

    def test_grows_with_vector_perturbation(self):
        rng = np.random.default_rng(9)
        p = random_problem(rng, 8, 4, 1)
        tup, _, _ = solve_one(p, AlternatingConfig(max_iters=500, rel_tol=1e-14))
        x = tup.vectors[0]
        d = crandn(rng, 4)
        d -= (x.conj() @ d) * x
        d /= np.linalg.norm(d)
        values = []
        for eps_size in (1e-6, 1e-4, 1e-2):
            y = x + eps_size * d
            y /= np.linalg.norm(y)
            values.append(kkt_residual(p, EigenTuple(value=tup.value, vectors=(y,))))
        assert values[0] < values[1] < values[2]


class TestReconstructPerturbation:
    def test_zero_at_consistent_solution(self):
        p = scalar_problem()
        pset = reconstruct_perturbation(p, homogenize([2.0]), [np.array([1.0])])
        assert pset.cost <= 1e-28

    def test_scalar_suboptimal_cost(self):
        p = scalar_problem()
        pset = reconstruct_perturbation(p, homogenize([1.0]), [np.array([1.0])])
        assert abs(pset.cost - 0.5) < 1e-14

    def test_perturbed_problem_is_consistent(self):
        rng = np.random.default_rng(10)
        p = random_problem(rng, 6, 4, 2)
        lam = crandn(rng, 2)
        value = homogenize(lam)
        xs = _vector_step(p, value)
        pset = reconstruct_perturbation(p, value, xs)
        for blk, x in zip(pset.blocks, xs):
            r = blk.a @ x - sum(l * (bi @ x) for l, bi in zip(lam, blk.b))
            scale = np.linalg.norm(blk.a) + sum(np.linalg.norm(bi) for bi in blk.b)
            assert np.linalg.norm(r) <= 1e-12 * scale

    def test_cost_equals_homogeneous_objective(self):
        rng = np.random.default_rng(11)
        for trial in range(100):
            p = random_problem(np.random.default_rng(trial), 6, 3, 2)
            lam = crandn(rng, 2)
            value = homogenize(lam)
            xs = [crandn(rng, 3) for _ in range(2)]
            xs = [x / np.linalg.norm(x) for x in xs]
            pset = reconstruct_perturbation(p, value, xs)
            objective = homogeneous_residual(p, EigenTuple(value=value, vectors=tuple(xs)))
            assert abs(pset.cost - objective) <= 1e-12 * max(objective, 1e-300)
            assert abs(perturbation_cost(p, pset) - pset.cost) <= 1e-12 * max(pset.cost, 1e-300)


class TestRgepSpecialization:
    def test_matches_independent_rgep_loop(self):
        """For k = 1 the sweep must match a separately coded rectangular-pencil
        alternation, iterate for iterate."""
        rng = np.random.default_rng(12)
        a, b = crandn(rng, 7, 4), crandn(rng, 7, 4)
        p = RmepProblem(blocks=(EquationBlock(a=a, b=(b,)),))

        gamma, alpha = 1.0, 0.0 + 0.0j
        thetas = []
        for _ in range(25):
            pencil = gamma * a - alpha * b
            _, _, vh = np.linalg.svd(pencil)
            x = vh[-1, :].conj()
            s = np.column_stack([a @ x, -(b @ x)])
            h = s.conj().T @ s
            h = (h + h.conj().T) / 2
            w, v = np.linalg.eigh(h)
            vec = v[:, 0]
            phase = vec[0] / abs(vec[0]) if abs(vec[0]) > 1e-14 else 1.0
            vec = vec * np.conj(phase)
            gamma, alpha = abs(vec[0].real), vec[1]
            thetas.append(float(w[0]))

        cfg = AlternatingConfig(max_iters=25, rel_tol=1e-300)
        _, _, trace = solve_one(p, cfg)
        assert len(trace.objectives) == 25
        for ours, ref in zip(trace.objectives, thetas):
            assert abs(ours - ref) <= 1e-12 * (1.0 + abs(ref))

    def test_k2_matches_independent_svd_loop(self):
        """For k = 2 the sweep must match a separately coded alternation that
        takes each x_i from a full SVD, iterate for iterate."""
        p = random_problem(np.random.default_rng(14), 40, 32, 2)

        coeffs = np.array([1.0, 0.0, 0.0], dtype=np.complex128)  # (gamma, alpha_1, alpha_2)
        thetas = []
        for _ in range(25):
            h = np.zeros((3, 3), dtype=np.complex128)
            for blk in p.blocks:
                a, (b1, b2) = blk.a, blk.b
                pencil = coeffs[0] * a - coeffs[1] * b1 - coeffs[2] * b2
                _, _, vh = np.linalg.svd(pencil)
                x = vh[-1, :].conj()
                s = np.column_stack([a @ x, -(b1 @ x), -(b2 @ x)])
                h += s.conj().T @ s
            h = (h + h.conj().T) / 2
            w, v = np.linalg.eigh(h)
            vec = v[:, 0]
            phase = vec[0] / abs(vec[0]) if abs(vec[0]) > 1e-14 else 1.0
            vec = vec * np.conj(phase)
            coeffs = np.array([abs(vec[0].real), vec[1], vec[2]])
            thetas.append(float(w[0]))

        cfg = AlternatingConfig(max_iters=25, rel_tol=1e-300)
        _, _, trace = solve_one(p, cfg)
        assert len(trace.objectives) == 25
        for ours, ref in zip(trace.objectives, thetas):
            assert abs(ours - ref) <= 1e-12 * (1.0 + abs(ref))
