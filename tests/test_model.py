import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmep import errors, model
from rmep.errors import BackendError, CapacityError, InfiniteEigenvalueError, ValidationError
from rmep.linalg import GepResult, SvdResult, svd
from rmep.mep import OperatorDeterminants
from rmep.model import (
    EigenTuple,
    EquationBlock,
    HomogeneousEigenvalue,
    MepProblem,
    PerturbationSet,
    PlantedParts,
    RmepProblem,
    dehomogenize,
    homogeneous_residual,
    homogenize,
    normalize_homogeneous,
    normalized_residual,
    planted_parts,
    random_planted_problem,
)
from rmep.spectral import ChebyshevBasis, DiscretizedOde, builtin_sturm_liouville, discretize
from rmep.tsvd import BlockTruncation, TruncationCertificate

from conftest import EPS, crandn, frobenius_distance, random_problem


def scalar_problem():
    """k = 1, A = [2; 0], B = [1; 0]; exact solution lambda = 2, x = 1."""
    return RmepProblem(blocks=(EquationBlock(a=[[2.0], [0.0]], b=([[1.0], [0.0]],)),))


def tuple_for(lambdas, xs):
    return EigenTuple(value=homogenize(lambdas), vectors=tuple(xs))


class TestProblemTypes:
    def test_wide_block_rejected(self):
        with pytest.raises(ValidationError):
            RmepProblem(blocks=(EquationBlock(a=np.ones((2, 3)), b=(np.ones((2, 3)),)),))

    def test_wrong_parameter_count_rejected(self):
        blk = EquationBlock(a=np.ones((3, 2)), b=(np.ones((3, 2)),))
        with pytest.raises(ValidationError):
            RmepProblem(blocks=(blk, blk))  # k = 2 but one B per block

    def test_mep_requires_square(self):
        with pytest.raises(ValidationError):
            MepProblem(blocks=(EquationBlock(a=np.ones((3, 2)), b=(np.ones((3, 2)),)),))

    def test_spectral_norms_bitwise_per_matrix_norms(self):
        # The batched norm must give the same bits as one norm per matrix, so
        # the KKT check of the alternating solver does not move.
        problems = [random_planted_problem([20, 20], [5, 5], 0.1, seed=4)[0],
                    discretize(builtin_sturm_liouville(n1=12, n2=12)).problem]
        for p in problems:
            for blk, (norm_a, norms_b) in zip(p.blocks, p.spectral_norms):
                assert norm_a == float(np.linalg.norm(blk.a, 2))
                assert norms_b == tuple(float(np.linalg.norm(b, 2)) for b in blk.b)

    def test_spectral_norms_svd_failure_is_backend_error(self, monkeypatch):
        def failing_svd(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        p = random_problem(np.random.default_rng(1), 6, 4, 2)
        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        with pytest.raises(BackendError, match=r"SVD did not converge for shape \(3, 6, 4\)"):
            p.spectral_norms

    @settings(max_examples=60, deadline=None)
    @given(e=st.integers(-600, 600))
    def test_spectral_norms_exact_under_power_of_two_scaling(self, e):
        # numpy's 2-norm alone was 1 ulp off at 2^-565, 2^-500 and 2^565
        p = random_problem(np.random.default_rng(1), 6, 4, 2)
        scale = math.ldexp(1.0, e)  # exact on these normal entries
        scaled = RmepProblem(blocks=tuple(EquationBlock(a=blk.a * scale, b=tuple(b * scale for b in blk.b))
                                          for blk in p.blocks))
        expected = tuple((math.ldexp(na, e), tuple(math.ldexp(nb, e) for nb in nbs)) for na, nbs in p.spectral_norms)
        assert scaled.spectral_norms == expected

    def test_total_dim(self):
        rng = np.random.default_rng(0)
        p = random_problem(rng, 6, 3, 2)
        assert p.total_dim == 9
        assert p.dims == (3, 3)

    def test_blocks_immutable(self):
        rng = np.random.default_rng(1)
        p = random_problem(rng, 4, 2, 1)
        with pytest.raises(ValueError):
            p.blocks[0].a[0, 0] = 0.0
        with pytest.raises(ValueError):
            p.blocks[0].coeffs[1, 0, 0] = 0.0


class TestPencil:
    def test_matches_loop_reference(self):
        # reference: the explicit loop gamma A - sum_s alpha_s B_s; only the
        # summation order differs
        rng = np.random.default_rng(14)
        for m, n, k in [(5, 3, 1), (20, 15, 2), (7, 4, 3)]:
            blk = random_problem(rng, m, n, k).blocks[0]
            value = HomogeneousEigenvalue.from_vector(crandn(rng, k + 1))
            x = crandn(rng, n)
            loop = value.gamma * blk.a - sum(a * bi for a, bi in zip(value.alphas, blk.b))
            scale = np.abs(blk.coeffs).max()
            assert np.abs(blk.pencil(value.coefficients) - loop).max() <= 10 * (k + 1) * EPS * scale
            assert np.abs(blk.pencil(value.coefficients, x) - loop @ x).max() <= 10 * (k + 1) * n * EPS * scale * np.abs(x).max()

    def test_views_and_stacked(self):
        rng = np.random.default_rng(15)
        blk = random_problem(rng, 5, 3, 2).blocks[0]
        assert blk.coeffs.shape == (3, 5, 3)
        assert np.array_equal(blk.a, blk.coeffs[0]) and np.array_equal(blk.b[1], blk.coeffs[2])
        assert np.array_equal(blk.stacked(), np.hstack((blk.a,) + blk.b))
        # a 2-D c gives one pencil per row
        assert np.array_equal(blk.pencil(np.eye(3)), blk.coeffs)


class TestHomogenize:
    def test_zero_lambdas(self):
        h = homogenize([0.0, 0.0])
        assert h.gamma == 1.0
        assert np.allclose(h.alphas, 0.0)

    def test_k1_unit_lambda(self):
        h = homogenize([1.0])
        assert abs(h.gamma - 1 / np.sqrt(2)) < 1e-15
        assert abs(h.alphas[0] - 1 / np.sqrt(2)) < 1e-15

    def test_k2_formula(self):
        h = homogenize([3.0, 4.0])
        tau = np.sqrt(26.0)
        assert abs(h.gamma - 1 / tau) < 1e-14
        assert np.allclose(h.alphas, [3 / tau, 4 / tau])

    def test_roundtrip_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            lam = crandn(rng, 3)
            back = dehomogenize(homogenize(lam))
            assert np.max(np.abs(back - lam)) <= 1e-14 * max(1.0, np.max(np.abs(lam)))

    def test_dehomogenize_infinite(self):
        h = HomogeneousEigenvalue(gamma=0.0, alphas=[1.0])
        with pytest.raises(InfiniteEigenvalueError) as info:
            dehomogenize(h)
        assert np.allclose(info.value.alphas, [1.0])

    def test_from_vector_phase(self):
        v = np.array([1.0j, 1.0 + 1.0j])
        h = HomogeneousEigenvalue.from_vector(v)
        assert h.gamma > 0
        # gamma-aligned phase rotation preserves the ratio alpha/gamma
        assert abs(h.alphas[0] / h.gamma - (1.0 + 1.0j) / 1.0j) < 1e-14

    def test_from_vector_zero_gamma(self):
        h = HomogeneousEigenvalue.from_vector([0.0, 1.0j])
        assert h.gamma == 0.0
        assert abs(h.alphas[0] - 1.0) < 1e-14  # largest alpha made real positive


def _reference_normalization(v):
    """The normalization rule one vector at a time, in scalar steps: unit
    norm, phase from v_0 unless |v_0| <= 1e-14 (then from the largest
    alpha), gamma real and nonnegative, unit norm again."""
    v = np.array(v, dtype=np.complex128)
    v = v / np.linalg.norm(v)
    if abs(v[0]) > 1e-14:
        phase = v[0] / abs(v[0])
    else:
        j = int(np.argmax(np.abs(v[1:]))) + 1
        phase = v[j] / abs(v[j])
    v = v * np.conj(phase)
    w = np.concatenate(([abs(float(v[0].real))], v[1:]))
    return w / np.linalg.norm(w)


class TestNormalizeHomogeneous:
    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(7)
        for k in (1, 2, 3):
            v = crandn(rng, 400, k + 1)
            v[:40, 0] = 0.0  # gamma = 0: the phase comes from the largest alpha
            v[40:80, 0] *= 1e-15  # |v_0| <= 1e-14 after normalization
            v[80:120] *= 1e-100
            v[120:160] *= 1e100
            rows = normalize_homogeneous(v)
            for vi, row in zip(v, rows):
                assert np.max(np.abs(row - _reference_normalization(vi))) <= 2 * EPS
            assert np.all(rows[:, 0].imag == 0) and np.all(rows[:, 0].real >= 0)
            assert np.all(rows[:40, 0] == 0.0)

    def test_rejects_zero_and_non_finite_rows(self):
        for bad in ([[1.0, 2.0], [0.0, 0.0]], [[np.nan, 1.0]]):
            with pytest.raises(ValidationError):
                normalize_homogeneous(bad)

    def test_overflowing_values_are_rejected_not_nan(self):
        # |lambda|^2 overflows, so there is no finite unit row to return
        with np.errstate(over="ignore"):
            with pytest.raises(ValidationError):
                homogenize([1e200])
            with pytest.raises(ValidationError):
                HomogeneousEigenvalue.from_vector([1e-300, 1e200])
        with pytest.raises(ValidationError):
            HomogeneousEigenvalue(gamma=np.nan, alphas=[np.nan])


class TestNormalizedResidual:
    def test_exact_scalar_solution(self):
        p = scalar_problem()
        per, total = normalized_residual(p, tuple_for([2.0], [[1.0]]))
        assert total <= 1e2 * EPS

    def test_suboptimal_scalar_value(self):
        p = scalar_problem()
        per, total = normalized_residual(p, tuple_for([1.0], [[1.0]]))
        assert abs(per[0] - 1.0 / 3.0) < 1e-14  # |2-1| / (2 + 1*1)

    def test_identity_blocks(self):
        eye = np.eye(3)
        p = RmepProblem(blocks=(EquationBlock(a=eye, b=(eye, eye)),
                                EquationBlock(a=eye, b=(eye, eye))))
        e1 = np.array([1.0, 0, 0])
        per, total = normalized_residual(p, tuple_for([1.0, 0.0], [e1, e1]))
        assert total <= 1e2 * EPS

    def test_infinite_value_routed_to_error(self):
        p = scalar_problem()
        t = EigenTuple(value=HomogeneousEigenvalue(gamma=0.0, alphas=[1.0]), vectors=([1.0],))
        with pytest.raises(InfiniteEigenvalueError):
            normalized_residual(p, t)

    def test_phase_invariance(self):
        rng = np.random.default_rng(3)
        p = random_problem(rng, 5, 3, 2)
        lam = crandn(rng, 2)
        xs = [crandn(rng, 3) for _ in range(2)]
        xs = [x / np.linalg.norm(x) for x in xs]
        _, base = normalized_residual(p, tuple_for(lam, xs))
        for _ in range(5):
            phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
            rotated = [ph * x for ph, x in zip(phases, xs)]
            _, rot = normalized_residual(p, tuple_for(lam, rotated))
            assert abs(rot - base) <= 1e-13 * max(1.0, base)


class TestHomogeneousResidual:
    def test_consistent_scalar(self):
        p = scalar_problem()
        assert homogeneous_residual(p, tuple_for([2.0], [[1.0]])) <= 1e3 * EPS**2 * 10

    def test_gamma_one_alpha_zero(self):
        rng = np.random.default_rng(4)
        p = random_problem(rng, 5, 3, 2)
        xs = [crandn(rng, 3) for _ in range(2)]
        xs = [x / np.linalg.norm(x) for x in xs]
        t = EigenTuple(value=HomogeneousEigenvalue(gamma=1.0, alphas=[0.0, 0.0]), vectors=tuple(xs))
        expected = sum(np.linalg.norm(blk.a @ x) ** 2 for blk, x in zip(p.blocks, xs))
        assert abs(homogeneous_residual(p, t) - expected) < 1e-12 * expected

    def test_scalar_hand_value(self):
        p = scalar_problem()
        t = tuple_for([2.0], [[1.0]])  # (gamma, alpha) = (1, 2)/sqrt(5)
        assert homogeneous_residual(p, t) < 1e-30

    def test_finite_at_gamma_zero(self):
        p = scalar_problem()
        t = EigenTuple(value=HomogeneousEigenvalue(gamma=0.0, alphas=[1.0]), vectors=([1.0],))
        # gamma*A*x - alpha*B*x = -[1; 0]
        assert abs(homogeneous_residual(p, t) - 1.0) < 1e-14


class TestPerturbations:
    def test_zero_perturbation(self):
        rng = np.random.default_rng(5)
        p = random_problem(rng, 4, 2, 2)
        pset = PerturbationSet.from_blocks(p, p.blocks)
        assert pset.cost == 0.0
        assert frobenius_distance(p, pset.blocks) == 0.0

    def test_single_entry(self):
        p = scalar_problem()
        a = np.array(p.blocks[0].a, copy=True)
        a[1, 0] += 3.0
        pset = PerturbationSet.from_blocks(p, (EquationBlock(a=a, b=p.blocks[0].b),))
        assert abs(pset.cost - 9.0) < 1e-14

    def test_naive_double_loop_oracle(self):
        rng = np.random.default_rng(6)
        p = random_problem(rng, 4, 3, 2)
        blocks = []
        expected = 0.0
        for blk in p.blocks:
            da = crandn(rng, 4, 3)
            dbs = [crandn(rng, 4, 3) for _ in blk.b]
            for mat in [da] + dbs:
                for r in range(4):
                    for c in range(3):
                        expected += abs(mat[r, c]) ** 2
            blocks.append(EquationBlock(a=blk.a + da, b=tuple(bi + d for bi, d in zip(blk.b, dbs))))
        pset = PerturbationSet.from_blocks(p, blocks)
        assert abs(pset.cost - expected) <= 1e-12 * expected

    def test_shape_mismatch(self):
        rng = np.random.default_rng(8)
        p = random_problem(rng, 4, 2, 1)
        other = random_problem(rng, 5, 2, 1)
        with pytest.raises(ValidationError):
            PerturbationSet.from_blocks(p, other.blocks)


class TestRandomPlantedProblem:
    def test_draw_over_the_memory_budget_is_refused_before_it_is_made(self, monkeypatch):
        # The estimate of a 200 x 5 draw with k = 1 is 6 * 16 * 2 * 1000 = 192 kB.
        monkeypatch.setattr(errors, "MEMORY_BUDGET", 10**5)
        drawn = []
        monkeypatch.setattr(model, "_complex_normal", lambda *args: drawn.append(args))
        with pytest.raises(CapacityError, match="the planted draw needs about"):
            planted_parts([200], [5], seed=0)
        assert drawn == []

    def test_exact_rank_at_zero_noise(self):
        p, ref = random_planted_problem([10, 12], [4, 3], 0.0, seed=42)
        for blk in p.blocks:
            s = svd(blk.stacked()).singular_values
            n = blk.shape[1]
            assert s[n] <= 1e3 * EPS * s[0]

    def test_determinism(self):
        p1, r1 = random_planted_problem([8, 8], [3, 3], 0.1, seed=7)
        p2, r2 = random_planted_problem([8, 8], [3, 3], 0.1, seed=7)
        for b1, b2 in zip(p1.blocks, p2.blocks):
            assert np.array_equal(b1.a, b2.a)
            for x, y in zip(b1.b, b2.b):
                assert np.array_equal(x, y)
        for b1, b2 in zip(r1.blocks, r2.blocks):
            assert np.array_equal(b1.a, b2.a)

    def test_reference_is_square(self):
        p, ref = random_planted_problem([6], [3], 0.05, seed=1)
        assert isinstance(ref, MepProblem)
        assert ref.shapes == ((3, 3),)
        assert p.shapes == ((6, 3),)

    def test_reference_solves_noiseless_problem(self):
        from rmep.mep import solve_mep

        p, ref = random_planted_problem([9, 8], [3, 2], 0.0, seed=3)
        for sol in solve_mep(ref, seed=0):
            lam = dehomogenize(sol.value)
            t = tuple_for(lam, sol.vectors)
            _, rho = normalized_residual(p, t)
            assert rho <= 1e-10

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValidationError):
            random_planted_problem([5], [5], 0.0, seed=0)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, -0.1])
    def test_rejects_bad_sigma(self, sigma):
        with pytest.raises(ValidationError, match="sigma"):
            random_planted_problem([6], [3], sigma, seed=0)

    def test_exact_rank_condition_of_reduction(self):
        # sigma_{n+1} of each stacked block is at the roundoff floor
        p, _ = random_planted_problem([20, 20], [5, 5], 0.0, seed=11)
        for blk in p.blocks:
            s = svd(blk.stacked()).singular_values
            assert s[5] <= 1e3 * EPS * np.linalg.norm(blk.stacked(), 2)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), k=st.integers(1, 2), sigma=st.floats(0.0, 10.0), other=st.floats(0.0, 10.0),
           seed=st.integers(0, 2**32 - 1))
    def test_noise_level_scales_a_draw_made_without_it(self, data, k, sigma, other, seed):
        # bench-random draws each trial once and assembles it at every sigma.
        n = data.draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
        m = [ni + data.draw(st.integers(1, 3)) for ni in n]
        problem, reference = random_planted_problem(m, n, sigma, seed)
        _, other_reference = random_planted_problem(m, n, other, seed)
        parts = planted_parts(m, n, seed)
        raw = lambda p: [blk.coeffs.tobytes() for blk in p.blocks]
        assert raw(reference) == raw(other_reference) == raw(parts.reference)
        assert raw(parts.at(sigma)) == raw(problem)
        # The generator's documented draw, block by block, in one expression.
        rng = np.random.default_rng(seed)
        for blk, ref_blk, mi, ni in zip(problem.blocks, reference.blocks, m, n):
            core = [crandn(rng, ni, ni) for _ in range(k + 1)]
            q = np.linalg.qr(crandn(rng, mi, ni))[0]
            noisy = [q @ c + sigma / mi * crandn(rng, mi, ni) for c in core]
            assert ref_blk.coeffs.tobytes() == np.stack(core).tobytes()
            assert blk.coeffs.tobytes() == np.stack(noisy).tobytes()


@pytest.mark.parametrize(
    "make, match",
    [
        (lambda: EquationBlock(a=np.ones((3, 2)), b=(np.ones((3, 3)),)), "must share shape"),
        (lambda: RmepProblem(blocks=()), "at least one equation block"),
        (lambda: HomogeneousEigenvalue(gamma=-0.6, alphas=[0.8]), "nonnegative"),
        (lambda: EigenTuple(value=homogenize([1.0]), vectors=([2.0],)), "unit 2-norm"),
        (lambda: PerturbationSet.from_blocks(scalar_problem(), ()), "block count"),
        (lambda: homogenize([1.0, np.inf]), "finite eigenvalues"),
        (lambda: normalized_residual(scalar_problem(), tuple_for([1.0], [[1.0], [1.0]])), "vector count"),
        (lambda: planted_parts([6, 6], [3], seed=0), "equal-length"),
    ],
    ids=["block-shapes", "no-blocks", "negative-gamma", "non-unit-vector", "perturbation-count", "non-finite-lambda",
         "residual-vector-count", "planted-lengths"],
)
def test_rejects_invalid_input(make, match):
    with pytest.raises(ValidationError, match=match):
        make()


class TestIdentitySemantics:
    """The types that hold arrays compare and hash by identity: a generated
    field-wise == would ask numpy for the truth value of an array."""

    def test_problems_compare_by_identity(self):
        p = random_problem(np.random.default_rng(0), 4, 2, 2)
        q = RmepProblem(blocks=tuple(EquationBlock(a=blk.a, b=blk.b) for blk in p.blocks))
        assert p == p and p != q

    def test_k2_values_compare_by_identity(self):
        v, w = homogenize([1.0, 2.0]), homogenize([1.0, 2.0])
        assert v == v and v != w

    def test_blocks_hash_by_identity(self):
        blk = EquationBlock(a=np.ones((2, 1)), b=(np.ones((2, 1)),))
        twin = EquationBlock(a=blk.a, b=blk.b)
        assert hash(blk) == object.__hash__(blk)
        assert {blk, blk} == {blk} and len({blk, twin}) == 2

    @pytest.mark.parametrize("cls", [EquationBlock, RmepProblem, MepProblem, HomogeneousEigenvalue, EigenTuple,
                                     PerturbationSet, PlantedParts, SvdResult, GepResult, OperatorDeterminants,
                                     BlockTruncation, TruncationCertificate, ChebyshevBasis, DiscretizedOde],
                             ids=lambda cls: cls.__name__)
    def test_every_array_holder(self, cls):
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__
