import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rmep import alternating
from rmep.alternating import (
    AlternatingConfig,
    AlternatingTrace,
    _kkt_residual,
    _pencils,
    _smallest_eigenpair,
    _vector_step,
    _xis,
    build_gram,
    reconstruct_perturbation,
    solve_one,
)
from rmep.errors import ValidationError
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
    normalized_residual,
    random_planted_problem,
)
from rmep.tsvd import solve_complete

from conftest import EPS, cpu_per_wall, crandn, frobenius_distance, openblas_pools, random_problem


def scalar_problem():
    return RmepProblem(blocks=(EquationBlock(a=[[2.0], [0.0]], b=([[1.0], [0.0]],)),))


def scaled_problem(problem, e):
    """The problem with every block multiplied by 2^e, exactly."""
    scaled = (np.ldexp(blk.coeffs.real, e) + 1j * np.ldexp(blk.coeffs.imag, e) for blk in problem.blocks)
    return RmepProblem(blocks=tuple(EquationBlock(a=c[0], b=tuple(c[1:])) for c in scaled))


def row(value):
    """The unit homogeneous row (gamma, alpha_1, ..., alpha_k) of a value."""
    return np.concatenate(([value.gamma], value.alphas))


def best_value(h):
    """theta and the value of the Gram matrix's smallest eigenpair, normalized."""
    theta, vec = _smallest_eigenpair(h)
    return theta, HomogeneousEigenvalue.from_vector(vec)


def kkt_residual(problem, value, xs):
    """`_kkt_residual` at the state (value, xs)."""
    v = row(value)
    return _kkt_residual(_pencils(problem, v), v, xs, build_gram(problem, xs), _xis(problem))


def assert_same_run(run, ref):
    """Two solve_one results have bitwise the same value, vectors, KKT
    trace, sweep count and status."""
    (tup, _, trace), (tup_ref, _, trace_ref) = run, ref
    assert tup.value.gamma == tup_ref.value.gamma
    assert tup.value.alphas.tobytes() == tup_ref.value.alphas.tobytes()
    assert all(x.tobytes() == y.tobytes() for x, y in zip(tup.vectors, tup_ref.vectors))
    assert np.array(trace.kkt).tobytes() == np.array(trace_ref.kkt).tobytes()
    assert (trace.iterations, trace.status) == (trace_ref.iterations, trace_ref.status)


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
        (x,) = _vector_step(_pencils(p, row(v)))
        assert abs(abs(x[1]) - 1.0) < 1e-13

    def test_symmetric_pencil_first_sweep(self):
        # The first sweep's start n^-1/2 (1, 1) is the sigma = 3 singular
        # vector of this pencil; the step must still find sigma_min = 1.
        a = np.array([[2.0, 1.0], [1.0, 2.0], [0.0, 0.0]])
        p = RmepProblem(blocks=(EquationBlock(a=a, b=(np.zeros((3, 2)),)),))
        v = HomogeneousEigenvalue(gamma=1.0, alphas=[0.0])
        (x,) = _vector_step(_pencils(p, row(v)))
        assert abs(np.linalg.norm(a @ x) - 1.0) < 1e-14

    def test_achieves_smallest_singular_value(self):
        rng = np.random.default_rng(2)
        p = random_problem(rng, 5, 3, 2)
        v = homogenize(crandn(rng, 2))
        xs = _vector_step(_pencils(p, row(v)))
        for i, x in enumerate(xs):
            r = p.blocks[i].pencil(v.coefficients)
            smin = svd(r).singular_values[-1]
            assert abs(np.linalg.norm(r @ x) - smin) <= 1e-12 * max(1.0, smin)

    def test_identity_pencil_tie_break(self):
        # R = I makes every unit vector optimal; the fixed start vector of the
        # first sweep must return the same choice every time
        p = RmepProblem(blocks=(EquationBlock(a=np.eye(3), b=(np.zeros((3, 3)),)),))
        v = HomogeneousEigenvalue(gamma=1.0, alphas=[0.0])
        (x1,) = _vector_step(_pencils(p, row(v)))
        (x2,) = _vector_step(_pencils(p, row(v)))
        assert np.array_equal(x1, x2)
        assert abs(np.linalg.norm(np.eye(3) @ x1) - 1.0) < 1e-14

    def test_half_step_exactness(self):
        # no competitor set of unit vectors beats the half-step's choice
        rng = np.random.default_rng(3)
        p = random_problem(rng, 6, 3, 2)
        v = homogenize(crandn(rng, 2))
        xs = _vector_step(_pencils(p, row(v)))
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

    def test_needs_one_vector_per_block(self):
        with pytest.raises(ValidationError, match="one vector per equation block"):
            build_gram(scalar_problem(), [np.array([1.0])] * 2)

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
    def test_trace_iterations_and_final_kkt_read_its_lists(self):
        empty = AlternatingTrace()
        assert empty.iterations == 0 and empty.final_kkt is None
        _, _, trace = solve_one(scalar_problem())
        assert trace.iterations == len(trace.objectives) == len(trace.kkt) >= 1
        assert trace.final_kkt == trace.kkt[-1]
        with pytest.raises(AttributeError):
            trace.iterations = 5

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
        cfg = AlternatingConfig(initial_lambdas=tuple(lam), max_iters=3)
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

    def test_short_budget_reports_budget_exhausted(self):
        # Two sweeps end far from first-order optimality, and the run says so.
        p = random_problem(np.random.default_rng(0), 20, 15, 2)
        cfg = AlternatingConfig(max_iters=2)
        _, _, trace = solve_one(p, cfg)
        assert trace.status == "budget-exhausted" and trace.iterations == 2
        assert trace.final_kkt > cfg.kkt_tol
        th = trace.objectives
        for a, b in zip(th, th[1:]):
            assert b <= a + 1e2 * EPS * (1.0 + a)

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(2, 6),
        extra=st.integers(0, 4),
        max_iters=st.integers(1, 60),
        kkt_tol=st.sampled_from([1e-3, 1e-5, 1e-8]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_tol_met_exactly_when_final_kkt_meets_kkt_tol(self, n, extra, max_iters, kkt_tol, seed):
        p = random_problem(np.random.default_rng(seed), n + extra, n, 2)
        _, _, trace = solve_one(p, AlternatingConfig(max_iters=max_iters, kkt_tol=kkt_tol))
        assert (trace.status == "tol-met") == (trace.final_kkt <= kkt_tol)
        assert trace.status == "tol-met" or trace.status == "budget-exhausted" and trace.iterations == max_iters
        # The run stops at the first sweep that meets the tolerance.
        assert all(kkt > kkt_tol for kkt in trace.kkt[:-1])

    @settings(max_examples=12, deadline=None)
    @given(shape=st.sampled_from([(6, 4), (9, 5), (12, 8)]), seed=st.integers(0, 2**32 - 1))
    @example(shape=(12, 8), seed=0)
    def test_start_from_a_complete_set_tuple_never_loses_its_objective(self, shape, seed):
        # The paper's two scenarios: a tuple of the complete set is a start
        # for solve_one.  Its vectors are optimal for its value, so the first
        # sweep's exact half-steps can only lower theta(t), and so on.
        p = random_problem(np.random.default_rng(seed), *shape, 2)
        scale = sum(np.sum(np.abs(blk.coeffs) ** 2) for blk in p.blocks)
        for t in solve_complete(p)[:6]:
            if not t.value.is_finite():
                continue
            _, _, trace = solve_one(p, AlternatingConfig(initial_lambdas=tuple(dehomogenize(t.value))))
            assert trace.objectives[0] <= homogeneous_residual(p, t) + 1e-12 * scale
            assert trace.objectives[-1] <= trace.objectives[0]

    @pytest.mark.parametrize("kkt_tol", [float("nan"), float("inf"), 0.0, -1e-6, True, "1e-3", 1j])
    def test_kkt_tol_must_be_positive_and_finite(self, kkt_tol):
        # NaN would never meet the stop rule and inf would meet it at once; before
        # the type check, True passed as 1.0 and a string or complex raised a bare TypeError
        with pytest.raises(ValidationError, match="kkt_tol"):
            AlternatingConfig(kkt_tol=kkt_tol)

    @pytest.mark.parametrize("initial_lambdas",
                             [("a", "b"), (np.inf, 0.0), (complex(0, np.nan),), (True,), (1.0, (2.0, 3.0))])
    def test_initial_lambdas_must_be_finite_numbers(self, initial_lambdas):
        # before the check, numpy's ValueError for strings or a ragged guess, a
        # RuntimeWarning and an unnamed normalization error for inf, and True passed as 1
        with pytest.raises(ValidationError, match="initial_lambdas must be finite numbers"):
            AlternatingConfig(initial_lambdas=initial_lambdas)

    @pytest.mark.parametrize("option", ["max_iters", "restarts"])
    @pytest.mark.parametrize("value", [2.5, "2", True])
    def test_counts_must_be_integers(self, option, value):
        # before the check, range's TypeError inside solve_one; True passed as 1
        with pytest.raises(ValidationError, match=f"{option} must be an integer"):
            AlternatingConfig(**{option: value})

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        # before the check, numpy's ValueError (-1) or SeedSequence's TypeError (1.5); True passed as 1
        with pytest.raises(ValidationError, match="seed"):
            AlternatingConfig(seed=seed, restarts=1)

    def test_initial_lambdas_need_one_value_per_block(self):
        with pytest.raises(ValidationError, match="initial_lambdas must have length 1"):
            solve_one(scalar_problem(), AlternatingConfig(initial_lambdas=(1.0, 2.0)))

    def test_infimum_at_infinite_eigenvalue(self):
        # B's zero second column lets gamma -> 0 drive the defect to zero, so
        # the optimum is approached only by an infinite eigenvalue
        rng = np.random.default_rng(0)
        a = crandn(rng, 4, 2)
        b = crandn(rng, 4, 2)
        b[:, 1] = 0.0
        p = RmepProblem(blocks=(EquationBlock(a=a, b=(b,)),))
        tup, pset, trace = solve_one(p, AlternatingConfig(initial_lambdas=(1e13,)))
        assert not tup.value.is_finite()
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

    def test_returned_tuple_carries_block_residuals(self):
        p = random_problem(np.random.default_rng(21), 20, 15, 2)
        tup, _, _ = solve_one(p)
        assert tup.value.is_finite()
        per_block, total = normalized_residual(p, tup)
        assert tup.block_residuals == tuple(per_block.tolist())
        assert tup.residual == total == sum(tup.block_residuals)

    def test_repeat_runs_bitwise_equal(self):
        p = random_problem(np.random.default_rng(13), 40, 32, 2)
        (t1, pset1, tr1), (t2, pset2, tr2) = solve_one(p), solve_one(p)
        assert tr1.objectives == tr2.objectives and tr1.kkt == tr2.kkt
        assert tr1.status == tr2.status and tr1.iterations == tr2.iterations
        assert all(np.array_equal(x1, x2) for x1, x2 in zip(t1.vectors, t2.vectors))
        assert np.array_equal(t1.value.alphas, t2.value.alphas) and t1.value.gamma == t2.value.gamma
        assert pset1.cost == pset2.cost

    @settings(max_examples=25, deadline=None)
    @given(
        k=st.integers(1, 2),
        n=st.integers(1, 6),
        extra=st.integers(0, 3),
        e=st.integers(-300, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(k=2, n=15, extra=5, e=-10, seed=1)
    def test_runs_are_bitwise_scale_free(self, k, n, extra, e, seed):
        # solve_one works on one power-of-two-scaled copy, so a problem
        # scaled by 2^e runs the same sweeps and stops at the same one.
        p = random_problem(np.random.default_rng(seed), n + extra, n, k)
        ref = solve_one(p)
        run = solve_one(scaled_problem(p, e))
        assert_same_run(run, ref)
        assert run[0].residual == ref[0].residual and run[0].block_residuals == ref[0].block_residuals
        assert run[2].objectives == np.ldexp(ref[2].objectives, 2 * e).tolist()

    def test_run_at_2_to_the_minus_565_is_bitwise_scale_ones(self):
        # The Gram matrices of the problem itself would underflow here: theta
        # ~ 4^-565 is below float64's range, so the objectives read 0.
        p = random_problem(np.random.default_rng(1), 6, 4, 2)
        ref = solve_one(p)
        run = solve_one(scaled_problem(p, -565))
        assert_same_run(run, ref)
        assert run[2].objectives == np.ldexp(ref[2].objectives, -1130).tolist()
        # rho takes the problem's own 2-norms, which numpy's SVD computes here
        # after a rescale of its own that is not a power of two; one of them is
        # 1 ulp off, which the KKT residual's sums of squares absorb here.
        assert abs(run[0].residual - ref[0].residual) <= 4 * EPS * ref[0].residual

    @settings(max_examples=100, deadline=None)
    @given(
        k=st.integers(1, 2),
        n=st.integers(1, 8),
        extra=st.integers(1, 4),
        max_iters=st.integers(1, 200),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_descent_and_certificate_property(self, k, n, extra, max_iters, seed):
        # Blocks are strictly tall (m > n), so theta stays clear of the
        # rounding floor of eigh and a relative comparison is meaningful.
        p = random_problem(np.random.default_rng(seed), n + extra, n, k)
        tup, pset, trace = solve_one(p, AlternatingConfig(max_iters=max_iters))
        th = trace.objectives
        for a, b in zip(th, th[1:]):
            assert b <= a + 1e2 * EPS * (1.0 + a)
        objective = homogeneous_residual(p, tup)
        for other in (th[-1], objective):
            assert abs(pset.cost - other) <= 1e-10 * other
        if tup.value.is_finite():
            lam = dehomogenize(tup.value)
            for blk, x in zip(pset.blocks, tup.vectors):
                r = blk.a @ x - sum(l * (bi @ x) for l, bi in zip(lam, blk.b))
                scale = np.linalg.norm(blk.a) + sum(abs(l) * np.linalg.norm(bi) for l, bi in zip(lam, blk.b))
                assert np.linalg.norm(r) <= 1e-12 * scale

    @settings(max_examples=20, deadline=None)
    @given(k=st.integers(1, 2), block=st.integers(0, 1), sigma=st.floats(0.0, 0.2), seed=st.integers(0, 2**32 - 1))
    def test_unitary_row_rotation_of_a_block_keeps_theta(self, k, block, sigma, seed):
        # ||Q R x|| = ||R x|| for every pencil R of the rotated block, so the
        # objective is the same function and the run ends at the same theta.
        p, _ = random_planted_problem([8] * k, [3] * k, sigma, seed=seed)
        q = np.linalg.qr(crandn(np.random.default_rng(seed), 8, 8))[0]
        blocks = list(p.blocks)
        blk = blocks[block % k]
        blocks[block % k] = EquationBlock(a=q @ blk.a, b=tuple(q @ b for b in blk.b))
        theta = solve_one(p)[2].objectives[-1]
        rotated = solve_one(RmepProblem(blocks=tuple(blocks)))[2].objectives[-1]
        scale = sum(np.linalg.norm(b.coeffs) ** 2 for b in p.blocks)
        assert abs(rotated - theta) <= 1e-7 * theta + 4 * EPS * scale


def _record_search(monkeypatch):
    """Spy on `solve_one`'s sweeps.  Returns a list that gets one entry per
    sweep: the state the sweep starts from (None in the first), the vector
    step's state, and every `build_gram` call of the sweep as (state, theta),
    the vector step's first."""
    sweeps = []
    vector_step, gram = alternating._vector_step, alternating.build_gram

    def spy_vector_step(pencils, xs=None):
        sweeps.append((xs, vector_step(pencils, xs), []))
        return sweeps[-1][1]

    def spy_gram(problem, xs):
        h = gram(problem, xs)
        sweeps[-1][2].append((xs, _smallest_eigenpair(h)[0]))
        return h

    monkeypatch.setattr(alternating, "_vector_step", spy_vector_step)
    monkeypatch.setattr(alternating, "build_gram", spy_gram)
    return sweeps


def _trial_steps(kept, base, calls):
    """The step beta of each trial state of a sweep, matched against
    normalize(x + beta (x - phi x_old)) at beta = 2^j."""
    steps = []
    for xe, _ in calls[1:]:
        for beta in 2.0 ** np.arange(-4, 10):
            ys = [x + beta * (x - x_old * np.exp(1j * np.angle(np.vdot(x_old, x)))) for x, x_old in zip(base, kept)]
            if all(np.allclose(y / np.linalg.norm(y), e, rtol=0, atol=1e-12) for y, e in zip(ys, xe)):
                steps.append(float(beta))
                break
        else:
            raise AssertionError("a trial state is no extrapolation x + beta (x - phi x_old) at beta = 2^j")
    return steps


def _searches(sweeps):
    """(steps, kept) of every sweep after the first, checked against the
    doubling rule: the steps double from the first, the kept trials are the
    leading ones that each lower theta below the best state so far, the
    search stops at the first failed trial or past BETA_MAX, and the next
    sweep starts from the last kept step, or from half the step (down to
    BETA_MIN) when no trial was kept."""
    out, first = [], alternating.BETA_START
    for kept, base, calls in sweeps[1:]:
        assert calls[0][0] is base and all(xe is not base for xe, _ in calls[1:])
        steps = _trial_steps(kept, base, calls)
        assert steps[0] == first and steps == [first * 2**j for j in range(len(steps))]
        best, n_kept = calls[0][1], 0
        while n_kept < len(steps) and calls[1 + n_kept][1] < best:
            best, n_kept = calls[1 + n_kept][1], n_kept + 1
        assert n_kept == len(steps) - 1 or (n_kept == len(steps) and 2 * steps[-1] > alternating.BETA_MAX)
        out.append((steps, n_kept))
        first = steps[n_kept - 1] if n_kept else max(first / 2, alternating.BETA_MIN)
    return out


def _infimum_problem():
    """k = 1 with B's second column zero, whose sweeps extrapolate far (see
    `test_infimum_at_infinite_eigenvalue`): one search reaches 64."""
    rng = np.random.default_rng(3)
    a, b = crandn(rng, 4, 2), crandn(rng, 4, 2)
    b[:, 1] = 0.0
    return RmepProblem(blocks=(EquationBlock(a=a, b=(b,)),))


class TestExtrapolationSearch:
    def test_a_sweep_doubles_its_step_at_least_twice(self, monkeypatch):
        sweeps = _record_search(monkeypatch)
        _, _, trace = solve_one(random_problem(np.random.default_rng(1), 20, 15, 2))
        searches = _searches(sweeps)
        assert any(len(steps) >= 3 for steps, _ in searches)  # two kept trials, each followed by 2 beta
        assert trace.extrapolations == sum(n_kept > 0 for _, n_kept in searches)

    @pytest.mark.parametrize("beta_max", [64.0, 4.0])
    def test_search_stops_at_beta_max(self, monkeypatch, beta_max):
        monkeypatch.setattr(alternating, "BETA_MAX", beta_max)
        sweeps = _record_search(monkeypatch)
        solve_one(_infimum_problem())
        searches = _searches(sweeps)
        assert max(max(steps) for steps, _ in searches) == beta_max
        # a search whose every trial lowered theta, stopped only by the cap
        assert any(n_kept == len(steps) and steps[-1] == beta_max for steps, n_kept in searches)

    def test_first_trial_rejection_halves_the_step_down_to_beta_min(self, monkeypatch):
        sweeps = _record_search(monkeypatch)
        _, _, trace = solve_one(random_problem(np.random.default_rng(5), 5, 3, 1))
        searches = _searches(sweeps)
        # BETA_START's trial fails, so the next search starts at BETA_MIN; its trial fails too and the step stays there
        assert [(steps[0], n_kept) for steps, n_kept in searches[:3]] == [
            (alternating.BETA_START, 0), (alternating.BETA_MIN, 0), (alternating.BETA_MIN, 0)]
        assert trace.extrapolations == sum(n_kept > 0 for _, n_kept in searches)

    @pytest.mark.parametrize("problem, at_cap", [(_infimum_problem(), True), (random_problem(np.random.default_rng(1), 20, 15, 2), False)],
                             ids=["infimum", "20x15"])
    def test_no_sweep_builds_more_than_nine_grams(self, monkeypatch, problem, at_cap):
        sweeps = _record_search(monkeypatch)
        _, _, trace = solve_one(problem)
        calls = [len(grams) for _, _, grams in sweeps]
        assert len(calls) == trace.iterations and min(calls) >= 1
        # the vector step's Gram plus at most log2(BETA_MAX / BETA_MIN) + 1 = 8 trials
        assert max(calls) <= 1 + 8
        assert (max(calls) == 1 + 8) == at_cap


class TestKktResidual:
    def test_zero_at_exact_solution(self):
        p = scalar_problem()
        xs = (np.array([1.0]),)
        assert kkt_residual(p, homogenize([2.0]), xs) <= 1e3 * EPS

    def test_grows_with_vector_perturbation(self):
        rng = np.random.default_rng(9)
        p = random_problem(rng, 8, 4, 1)
        tup, _, _ = solve_one(p, AlternatingConfig(max_iters=500, kkt_tol=1e-12))
        x = tup.vectors[0]
        d = crandn(rng, 4)
        d -= (x.conj() @ d) * x
        d /= np.linalg.norm(d)
        values = []
        for eps_size in (1e-6, 1e-4, 1e-2):
            y = x + eps_size * d
            y /= np.linalg.norm(y)
            values.append(kkt_residual(p, tup.value, (y,)))
        assert values[0] < values[1] < values[2]


class TestReconstructPerturbation:
    def test_zero_at_consistent_solution(self):
        p = scalar_problem()
        pset = reconstruct_perturbation(p, homogenize([2.0]), [np.array([1.0])])
        assert pset.cost <= 1e-28

    def test_needs_one_vector_per_block(self):
        with pytest.raises(ValidationError, match="one vector per equation block"):
            reconstruct_perturbation(scalar_problem(), homogenize([2.0]), [])

    def test_scalar_suboptimal_cost(self):
        p = scalar_problem()
        pset = reconstruct_perturbation(p, homogenize([1.0]), [np.array([1.0])])
        assert abs(pset.cost - 0.5) < 1e-14

    def test_perturbed_problem_is_consistent(self):
        rng = np.random.default_rng(10)
        p = random_problem(rng, 6, 4, 2)
        lam = crandn(rng, 2)
        value = homogenize(lam)
        xs = _vector_step(_pencils(p, row(value)))
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
            assert abs(frobenius_distance(p, pset.blocks) - pset.cost) <= 1e-12 * max(pset.cost, 1e-300)


def _reference_value(columns):
    """theta and (gamma, alpha_1, ..., alpha_k) from the stacked columns
    S_i = [A_i x_i, -B_i1 x_i, ...] of every block, with eigh."""
    h = sum(s.conj().T @ s for s in columns)
    h = (h + h.conj().T) / 2
    w, v = np.linalg.eigh(h)
    vec = v[:, 0]
    phase = vec[0] / abs(vec[0]) if abs(vec[0]) > 1e-14 else 1.0
    vec = vec * np.conj(phase)
    return float(w[0]), np.concatenate(([abs(vec[0].real)], vec[1:]))


def _reference_loop(blocks, sweeps):
    """Plain alternation over (A_i, (B_i1, ..., B_ik)) blocks plus the
    extrapolation rule of `solve_one`, coded apart from rmep: each x_i is
    numpy's full-SVD smallest right singular vector and the value comes from
    eigh.  Every sweep after the first searches the extrapolation step by
    doubling: it tries beta, then 2 beta, ... up to 64 while each trial
    lowers theta below the best state so far, and keeps the best trial.  The
    next sweep starts from that trial's step, or from half the step (down to
    0.5) when the first trial failed.  Returns the per-sweep thetas and the
    counts of sweeps that kept a trial and of sweeps that kept none."""
    k = len(blocks)
    coeffs = np.zeros(k + 1, dtype=np.complex128)
    coeffs[0] = 1.0

    def columns(xs):
        return [np.column_stack([a @ x] + [-(b @ x) for b in bs]) for (a, bs), x in zip(blocks, xs)]

    thetas, kept, beta, accepted, rejected = [], None, 1.0, 0, 0
    for _ in range(sweeps):
        xs = []
        for a, bs in blocks:
            pencil = coeffs[0] * a - sum(c * b for c, b in zip(coeffs[1:], bs))
            xs.append(np.linalg.svd(pencil)[2][-1, :].conj())
        theta, coeffs = _reference_value(columns(xs))
        if kept is not None:
            directions = []
            for x, x_old in zip(xs, kept):
                overlap = np.vdot(x_old, x)
                directions.append(x - x_old * overlap / abs(overlap))
            base, step, best = xs, beta, None
            while step <= 64.0:
                xe = [(x + step * d) / np.linalg.norm(x + step * d) for x, d in zip(base, directions)]
                theta_e, coeffs_e = _reference_value(columns(xe))
                if theta_e >= theta:
                    break
                xs, theta, coeffs, best = xe, theta_e, coeffs_e, step
                step *= 2
            if best is None:
                beta, rejected = max(beta / 2, 0.5), rejected + 1
            else:
                beta, accepted = best, accepted + 1
        kept = xs
        thetas.append(theta)
    return thetas, accepted, rejected


class TestRgepSpecialization:
    def test_matches_independent_rgep_loop(self):
        """For k = 1 the sweep must match a separately coded rectangular-pencil
        alternation with the same extrapolation rule, iterate for iterate."""
        rng = np.random.default_rng(12)
        a, b = crandn(rng, 7, 4), crandn(rng, 7, 4)
        p = RmepProblem(blocks=(EquationBlock(a=a, b=(b,)),))
        thetas, accepted, rejected = _reference_loop([(a, (b,))], 25)
        assert accepted >= 1 and rejected >= 1

        cfg = AlternatingConfig(max_iters=25, kkt_tol=1e-300)
        _, _, trace = solve_one(p, cfg)
        assert len(trace.objectives) == 25
        assert trace.extrapolations == accepted
        for ours, ref in zip(trace.objectives, thetas):
            assert abs(ours - ref) <= 1e-12 * (1.0 + abs(ref))

    def test_k2_matches_independent_svd_loop(self):
        """For k = 2 the sweep must match a separately coded alternation that
        takes each x_i from a full SVD, with the same extrapolation rule,
        iterate for iterate."""
        p = random_problem(np.random.default_rng(14), 40, 32, 2)
        thetas, accepted, rejected = _reference_loop([(blk.a, blk.b) for blk in p.blocks], 25)
        assert accepted >= 1 and rejected >= 1

        cfg = AlternatingConfig(max_iters=25, kkt_tol=1e-300)
        _, _, trace = solve_one(p, cfg)
        assert len(trace.objectives) == 25
        assert trace.extrapolations == accepted
        for ours, ref in zip(trace.objectives, thetas):
            assert abs(ours - ref) <= 1e-12 * (1.0 + abs(ref))


def test_solve_one_leaves_scipy_pool_idle():
    # The mirror of test_linalg's complete-set test: numpy's pool at 1 thread
    # and scipy's at 2.  CPU over wall time above 1 means scipy's workers were
    # busy during the alternating path, whose BLAS-3 work runs in numpy.
    rng = np.random.default_rng(25)
    small, big = rng.standard_normal((200, 200)), rng.standard_normal((600, 600))
    with openblas_pools(1, 2, lambda: (sla.lu_factor(small), np.linalg.solve(big, big))) as canary:
        # gate 4's stream positions 73 (90x80) and 88 (130x120)
        stream = np.random.default_rng(20240601)
        seeds = [stream.integers(2**63) for _ in range(89)]
        problems = [random_problem(np.random.default_rng(seeds[i]), m, n, 2) for i, m, n in ((73, 90, 80), (88, 130, 120))]
        solve = cpu_per_wall(lambda: [solve_one(p) for p in problems])
    assert solve <= 1.2, f"solve_one CPU/wall {solve:.2f} (canary {canary:.2f})"
