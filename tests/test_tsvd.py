import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmep import linalg, mep, tsvd
from rmep.errors import ValidationError
from rmep.linalg import gep, svd
from rmep.model import (
    EquationBlock,
    MepProblem,
    RmepProblem,
    dehomogenize,
    normalized_residual,
    pencil_coefficients,
    random_planted_problem,
)
from rmep.mep import solve_mep
from rmep.spectral import builtin_mathieu, builtin_sturm_liouville, discretize
from rmep.tsvd import (
    reduced_mep,
    solve_complete,
    truncate_blocks,
    truncation_certificate,
)

from conftest import EPS, crandn, frobenius_distance, match_multisets, pencil_vector_error, random_problem, shared_b_problem


class TestTruncateBlocks:
    def test_identity_zero_block(self):
        p = RmepProblem(blocks=(EquationBlock(a=np.eye(3), b=(np.zeros((3, 3)),)),))
        (t,) = truncate_blocks(p)
        assert np.allclose(t.sigma1, 1.0)
        assert np.allclose(np.abs(t.vblocks[0]), np.eye(3))
        assert np.allclose(t.vblocks[1], 0.0)
        assert t.tail.size == 0  # m = n: empty tail accepted

    def test_zero_noise_planting_has_tiny_tails(self):
        p, _ = random_planted_problem([12, 10], [4, 3], 0.0, seed=0)
        for t, blk in zip(truncate_blocks(p), p.blocks):
            assert np.all(t.tail <= 1e3 * EPS * np.linalg.norm(blk.stacked(), 2))

    def test_stacked_v_columns_orthonormal(self):
        rng = np.random.default_rng(1)
        p = random_problem(rng, 20, 5, 2)
        (t, _) = truncate_blocks(p)
        stacked = np.vstack(t.vblocks)
        gram = stacked.conj().T @ stacked
        assert np.linalg.norm(gram - np.eye(5)) <= 1e-12

    def test_shapes(self):
        rng = np.random.default_rng(2)
        p = random_problem(rng, 20, 5, 2)
        (t, _) = truncate_blocks(p)
        assert t.u1.shape == (20, 5)
        assert t.sigma1.shape == (5,)
        assert all(vb.shape == (5, 5) for vb in t.vblocks)
        assert t.tail.size == min(20, 15) - 5


class TestTruncationCertificate:
    def test_full_rank_case_recovers_problem(self):
        p, _ = random_planted_problem([10, 10], [3, 3], 0.0, seed=3)
        cert = truncation_certificate(p)
        assert cert.cost <= (1e3 * EPS) ** 2 * 10
        for blk, pblk in zip(p.blocks, cert.perturbed.blocks):
            assert np.linalg.norm(pblk.a - blk.a) <= 1e3 * EPS * np.linalg.norm(blk.stacked(), 2)

    def test_cost_matches_perturbation(self):
        rng = np.random.default_rng(4)
        p = random_problem(rng, 12, 4, 2)
        cert = truncation_certificate(p)
        achieved = frobenius_distance(p, cert.perturbed.blocks)
        assert abs(achieved - cert.cost) <= 1e-10 * cert.cost

    def test_matches_eckart_young_brute_force(self):
        # k = 1, m = 6, n = 2: the minimum over rank-2 stacked approximations
        rng = np.random.default_rng(5)
        a, b = crandn(rng, 6, 2), crandn(rng, 6, 2)
        p = RmepProblem(blocks=(EquationBlock(a=a, b=(b,)),))
        cert = truncation_certificate(p)
        stacked = np.hstack([a, b])
        res = svd(stacked)
        s = res.singular_values
        trunc = (res.u[:, :2] * s[:2]) @ res.v[:, :2].conj().T
        brute = float(np.linalg.norm(stacked - trunc, "fro") ** 2)
        assert abs(cert.cost - brute) <= 1e-10 * max(brute, 1.0)

    def test_lower_bounds_feasible_perturbations(self):
        rng = np.random.default_rng(6)
        p = random_problem(rng, 10, 3, 2)
        cert = truncation_certificate(p)
        k = p.k
        for _ in range(50):
            blocks = []
            for blk in p.blocks:
                m, n = blk.shape
                low = crandn(rng, m, n) @ crandn(rng, n, (k + 1) * n)  # rank <= n stacked
                blocks.append(EquationBlock(a=low[:, :n], b=tuple(low[:, (s + 1) * n : (s + 2) * n] for s in range(k))))
            cost = frobenius_distance(p, blocks)
            assert cost >= cert.cost - 1e-10

    def test_coupling_identity(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            p = random_problem(np.random.default_rng(300 + trial), 12, 3, 2)
            cert = truncation_certificate(p)
            assert cert.attained
            scale = max(np.linalg.norm(blk.stacked(), 2) for blk in p.blocks)
            for pblk, xs in zip(cert.perturbed.blocks, cert.couplings):
                combo = sum(bi @ x for bi, x in zip(pblk.b, xs))
                assert np.linalg.norm(pblk.a - combo, "fro") <= 1e3 * EPS * scale

    def test_attainment_flag_off_when_v11_saturates(self):
        # B blocks zero: the stacked range is spanned by A alone, so V11 is
        # an isometry and the coupling construction must be skipped
        rng = np.random.default_rng(8)
        a = crandn(rng, 6, 2)
        p = RmepProblem(blocks=(EquationBlock(a=a, b=(np.zeros((6, 2)),)),))
        cert = truncation_certificate(p)
        assert not cert.attained
        assert cert.couplings is None


class TestReducedMep:
    def test_square_embedding_preserves_gep(self):
        # zero-padding rows keeps the stacked rank at n, so the reduced pencil
        # is spectrally equivalent to the original square one
        rng = np.random.default_rng(9)
        a, b = crandn(rng, 4, 4), crandn(rng, 4, 4)
        pad = np.zeros((2, 4))
        p = RmepProblem(blocks=(EquationBlock(a=np.vstack([a, pad]), b=(np.vstack([b, pad]),)),))
        reduced = reduced_mep(truncate_blocks(p))
        ours = gep(reduced.blocks[0].a, reduced.blocks[0].b[0])
        ref = gep(a, b)
        assert match_multisets(ours.alpha / ours.beta, ref.alpha / ref.beta) < 1e-8

    def test_identity_zero_gives_all_infinite(self):
        p = RmepProblem(blocks=(EquationBlock(a=np.eye(3), b=(np.zeros((3, 3)),)),))
        reduced = reduced_mep(truncate_blocks(p))
        res = gep(reduced.blocks[0].a, reduced.blocks[0].b[0])
        assert np.all(np.abs(res.beta) <= 1e-12)

    def test_zero_noise_matches_reference_multiset(self):
        p, ref = random_planted_problem([20, 20], [5, 5], 0.0, seed=10)
        reduced = reduced_mep(truncate_blocks(p))
        ours = [dehomogenize(s.value) for s in solve_mep(reduced, seed=0)]
        expected = [dehomogenize(s.value) for s in solve_mep(ref, seed=0)]
        assert match_multisets(ours, expected) < 1e-10

    def test_is_square(self):
        rng = np.random.default_rng(11)
        p = random_problem(rng, 20, 5, 2)
        reduced = reduced_mep(truncate_blocks(p))
        assert isinstance(reduced, MepProblem)
        assert reduced.shapes == ((5, 5), (5, 5))


class TestSolveComplete:
    def test_returns_all_tuples_sorted(self):
        p, _ = random_planted_problem([16, 16], [4, 4], 0.01, seed=12)
        tuples = solve_complete(p, seed=0)
        assert len(tuples) == 16
        rhos = [t.residual if t.residual is not None else np.inf for t in tuples]
        assert rhos == sorted(rhos)

    def test_zero_noise_residuals_tiny(self):
        p, _ = random_planted_problem([18, 15], [4, 3], 0.0, seed=13)
        tuples = solve_complete(p, seed=0)
        assert all(t.residual is not None for t in tuples)
        assert max(t.residual for t in tuples) <= 1e-10

    def test_k1_matches_direct_pencil(self):
        rng = np.random.default_rng(14)
        a, b = crandn(rng, 9, 3), crandn(rng, 9, 3)
        p = RmepProblem(blocks=(EquationBlock(a=a, b=(b,)),))
        tuples = solve_complete(p, seed=0)
        ours = [dehomogenize(t.value)[0] for t in tuples if t.residual is not None]
        t = truncate_blocks(p)[0]
        ref = gep(t.vblocks[0].conj().T, t.vblocks[1].conj().T)
        finite = [a / b for a, b in zip(ref.alpha, ref.beta) if abs(b) > 1e-12]
        assert len(ours) == len(finite)
        assert match_multisets(ours, finite) < 1e-8

    def test_infinite_tuples_last_with_own_pencil_vectors(self):
        p = shared_b_problem()
        tuples = solve_complete(p, seed=0)
        assert [t.residual is None for t in tuples] == [False, False, True, True]
        assert all(not t.value.is_finite() for t in tuples[2:])
        for t in tuples:
            assert pencil_vector_error(p, t) <= 1e-12

    def test_finite_vectors_are_smallest_singular_vectors(self):
        p, _ = random_planted_problem([14, 12], [4, 3], 0.05, seed=17)
        for t in solve_complete(p, seed=0):
            lam = dehomogenize(t.value)
            for blk, x in zip(p.blocks, t.vectors):
                v = np.linalg.svd(blk.a - sum(l * b for l, b in zip(lam, blk.b)))[2][-1].conj()
                assert np.linalg.norm(x - v * np.vdot(v, x) / abs(np.vdot(v, x))) <= 1e-12
            # rho comes from the refit's smallest singular value, not from
            # ||R x||, so it matches normalized_residual to rounding only.
            per_block, rho = normalized_residual(p, t)
            assert abs(t.residual - rho) <= 4 * EPS
            assert np.max(np.abs(np.array(t.block_residuals) - per_block)) <= 4 * EPS

    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(1, 2), n=st.integers(1, 4), extra=st.integers(1, 4),
           sigma=st.one_of(st.just(0.0), st.floats(0.0, 0.2)), seed=st.integers(0, 2**32 - 1))
    def test_stored_residuals_match_normalized_residual(self, k, n, extra, sigma, seed):
        # Absolute, not relative: at sigma = 0 both are rounding noise near
        # 1e-16 and differ by a large fraction of themselves.
        p, _ = random_planted_problem([n + extra] * k, [n] * k, sigma, seed=seed)
        for t in solve_complete(p, seed=0):
            if t.residual is None:
                continue
            per_block, _ = normalized_residual(p, t)
            assert np.max(np.abs(np.array(t.block_residuals) - per_block)) <= 8 * EPS
            assert t.residual == sum(t.block_residuals)

    @pytest.mark.parametrize("solve", [solve_complete, solve_mep])
    @pytest.mark.parametrize("seed", [-1, 1.5, True, False])
    def test_seed_must_be_a_nonnegative_integer(self, solve, seed):
        # before the check, numpy's ValueError (-1) or SeedSequence's TypeError (1.5); a bool passed as 0 or 1
        p, _ = random_planted_problem([4, 4], [2, 2], 0.0, seed=0)
        with pytest.raises(ValidationError, match="seed"):
            solve(p if solve is solve_complete else reduced_mep(truncate_blocks(p)), seed=seed)


def tuple_bits(t):
    """Every number a tuple carries, as exact bytes."""
    return (t.value.gamma, t.value.alphas.tobytes(), t.residual, t.block_residuals,
            tuple(x.tobytes() for x in t.vectors))


COMPLETE_SET_PROBLEMS = {
    "planted-complex": lambda: random_planted_problem([9, 8], [4, 3], 0.05, seed=21)[0],
    "infinite-rows": shared_b_problem,
    "sl-real": lambda: discretize(builtin_sturm_liouville(n1=6, n2=6)).problem,
    # 63 finite tuples, one infinite, and complex rows beside real ones.
    "mathieu-mixed": lambda: discretize(builtin_mathieu(4.0, 1.0, n1=8, n2=8)).problem,
}


class TestCompleteSet:
    @pytest.mark.parametrize("name", COMPLETE_SET_PROBLEMS)
    def test_indexing_slicing_and_iteration_agree_bitwise(self, name):
        p = COMPLETE_SET_PROBLEMS[name]()
        complete = solve_complete(p, seed=0)
        n = len(complete)
        assert n == p.total_dim
        full = [tuple_bits(t) for t in complete]
        assert len(full) == n
        for window in (slice(0, n), slice(1, 3), slice(n - 2, None), slice(None, None, -2), slice(2, 2)):
            assert [tuple_bits(t) for t in complete[window]] == full[window]
        for i in (0, 1, n - 1, -1, -n):
            assert tuple_bits(complete[i]) == full[i]
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                complete[i]

    @pytest.mark.parametrize("name", COMPLETE_SET_PROBLEMS)
    def test_arrays_match_the_tuples(self, name):
        complete = solve_complete(COMPLETE_SET_PROBLEMS[name](), seed=0)
        tuples = list(complete)
        finite = [t for t in tuples if t.value.is_finite()]
        assert complete.finite.tolist() == [t.residual is not None for t in tuples]
        assert complete.lambdas.tobytes() == np.array([dehomogenize(t.value) for t in finite]).tobytes()
        assert complete.total[: len(finite)].tolist() == [t.residual for t in finite]
        assert np.all(np.isinf(complete.total[len(finite):])) and np.all(np.isinf(complete.rho[len(finite):]))

    @pytest.mark.parametrize("name", COMPLETE_SET_PROBLEMS)
    def test_ranking_permutes_the_values_stage_bitwise(self, name):
        p = COMPLETE_SET_PROBLEMS[name]()
        rows = tsvd.complete_rows(p, seed=0)
        complete = solve_complete(p, seed=0)
        assert sorted(row.tobytes() for row in complete.rows) == sorted(row.tobytes() for row in rows)
        # bench-random's values: the lambdas of the unranked set over the same rows.
        unranked = mep.CompleteSet(p, rows).lambdas
        assert sorted(lam.tobytes() for lam in complete.lambdas) == sorted(lam.tobytes() for lam in unranked)

    @pytest.mark.parametrize("name", COMPLETE_SET_PROBLEMS)
    def test_derived_arrays_are_those_of_rows_and_rho(self, name):
        complete = solve_complete(COMPLETE_SET_PROBLEMS[name](), seed=0)
        finite, c = pencil_coefficients(complete.rows)
        total = complete.rho.sum(axis=1)
        for derived, expected in ((complete.finite, finite), (complete.coefficients, c), (complete.total, total)):
            assert derived.dtype == expected.dtype and derived.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", COMPLETE_SET_PROBLEMS)
    def test_unranked_set_gives_the_tuples_of_solve_mep(self, name):
        # solve_mep's own scaling, so that its rows and vectors are those of `scaled`.
        coeffs = [blk.coeffs.copy() for blk in reduced_mep(truncate_blocks(COMPLETE_SET_PROBLEMS[name]())).blocks]
        for c in coeffs:
            linalg.unit_scaled(c)
        scaled = MepProblem(blocks=tuple(EquationBlock(a=c[0], b=tuple(c[1:])) for c in coeffs))
        unranked = mep.CompleteSet(scaled, mep.solve_from_determinants(scaled, seed=3))
        assert unranked.rho is None and unranked.total is None
        tuples = list(unranked)
        assert all(t.residual is None and t.block_residuals is None for t in tuples)
        assert [tuple_bits(t) for t in tuples] == [tuple_bits(t) for t in solve_mep(scaled, seed=3)]

    @pytest.mark.parametrize("name", COMPLETE_SET_PROBLEMS)
    def test_one_tuple_chunks_rank_bitwise(self, monkeypatch, name):
        # The batched SVD is per matrix, so the chunks of the ranking change no bit.
        p = COMPLETE_SET_PROBLEMS[name]()
        assert mep.ranking_chunk(p.shapes) >= p.total_dim
        whole = solve_complete(p, seed=0)
        monkeypatch.setattr(mep, "RANKING_CHUNK_BYTES", 1)
        assert mep.ranking_chunk(p.shapes) == 1
        chunked = solve_complete(p, seed=0)
        assert chunked.rho.tobytes() == whole.rho.tobytes() and chunked.rows.tobytes() == whole.rows.tobytes()

    def test_tsvd_re_exports_the_one_complete_set(self):
        assert tsvd.CompleteSet is mep.CompleteSet
        assert isinstance(solve_complete(shared_b_problem(), seed=0), mep.CompleteSet)


def complex_cast(problem):
    """The same problem with every block stored as complex128."""
    blocks = (EquationBlock(a=blk.a.astype(np.complex128), b=tuple(b.astype(np.complex128) for b in blk.b))
              for blk in problem.blocks)
    return RmepProblem(blocks=tuple(blocks))


def homogeneous_rows(tuples):
    return np.array([np.concatenate(([t.value.gamma], t.value.alphas)) for t in tuples])


class TestRealArithmetic:
    def test_real_problem_stays_real(self, monkeypatch):
        p = discretize(builtin_sturm_liouville(n1=6, n2=6)).problem
        assert all(blk.coeffs.dtype == np.float64 for blk in p.blocks)
        truncations = truncate_blocks(p)
        assert all(m.dtype == np.float64 for t in truncations for m in (t.u1, t.v_trailing, *t.vblocks))
        deltas = mep.operator_determinants(reduced_mep(truncations))
        assert all(d.dtype == np.float64 for d in deltas.matrices)
        dtypes, products = [], []
        for module, name, seen in ((mep, "gep", dtypes), (tsvd, "singular_values", dtypes), (mep, "svd", dtypes),
                                   (mep, "gemm", products)):
            original = getattr(module, name)

            def spy(*args, original=original, seen=seen, **kwargs):
                seen.extend(a.dtype for a in args if isinstance(a, np.ndarray))
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, spy)
        lapack = linalg._lapack
        monkeypatch.setattr(linalg, "_lapack", lambda name, x: dtypes.append((name, x.dtype)) or lapack(name, x))
        tuples = list(solve_complete(p, seed=0))
        # The combination, the mass matrix, its LU, the refit pencils of the
        # values-only pass and those of the vector pass are all real, and so
        # are the streamed determinants and vectors of every residual product.
        assert dtypes == [np.float64, np.float64, ("getrf", np.float64), ("getrs", np.float64), np.float64, np.float64,
                          np.float64, np.float64]
        # One block: D_j Z and D_j^T W for j = 0, 1, 2, two operands each.
        assert len(products) == 2 * 6 and set(products) == {np.dtype(np.float64)}
        assert len(tuples) == 36 and not np.any(homogeneous_rows(tuples).imag)
        assert all(not np.any(x.imag) for t in tuples for x in t.vectors)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 3), extra=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_real_and_complex_cast_give_the_same_set(self, n, extra, seed):
        rng = np.random.default_rng(seed)
        shape = (n + extra, n)
        p = RmepProblem(blocks=tuple(
            EquationBlock(a=rng.standard_normal(shape), b=(rng.standard_normal(shape), rng.standard_normal(shape)))
            for _ in range(2)
        ))
        real = solve_complete(p, seed=0)
        cast = solve_complete(complex_cast(p), seed=0)
        assert match_multisets(homogeneous_rows(real), homogeneous_rows(cast)) <= 1e-10


def value_residual_rows(tuples, k, params=None, blocks=None):
    """One row (gamma, alpha_s..., rho_i...) per tuple, with the alphas and
    residuals reordered by `params` and `blocks` when given; -1 stands for
    the residuals of an infinite tuple."""
    params = list(range(k)) if params is None else list(params)
    blocks = list(range(k)) if blocks is None else list(blocks)
    return np.array([
        np.concatenate((
            [t.value.gamma],
            t.value.alphas[params],
            np.array(t.block_residuals if t.residual is not None else [-1.0] * k)[blocks],
        ))
        for t in tuples
    ])


planted = dict(k=st.integers(1, 2), n=st.integers(1, 3), extra=st.integers(1, 3),
               sigma=st.floats(0.0, 0.2), seed=st.integers(0, 2**32 - 1))


class TestCompleteSetProperties:
    @settings(max_examples=20, deadline=None)
    @given(block=st.integers(0, 1), **planted)
    def test_unitary_row_rotation_of_a_block(self, block, k, n, extra, sigma, seed):
        p, _ = random_planted_problem([n + extra] * k, [n] * k, sigma, seed=seed)
        rng = np.random.default_rng(seed)
        q = np.linalg.qr(crandn(rng, n + extra, n + extra))[0]
        blocks = list(p.blocks)
        blk = blocks[block % k]
        blocks[block % k] = EquationBlock(a=q @ blk.a, b=tuple(q @ b for b in blk.b))
        rotated = solve_complete(RmepProblem(blocks=tuple(blocks)), seed=0)
        assert match_multisets(value_residual_rows(solve_complete(p, seed=0), k),
                               value_residual_rows(rotated, k)) <= 1e-10

    @settings(max_examples=20, deadline=None)
    @given(data=st.data(), **planted)
    def test_permuting_blocks_and_parameters_permutes_the_tuples(self, data, k, n, extra, sigma, seed):
        p, _ = random_planted_problem([n + extra] * k, [n] * k, sigma, seed=seed)
        blocks = data.draw(st.permutations(range(k)))
        params = data.draw(st.permutations(range(k)))
        permuted = RmepProblem(blocks=tuple(
            EquationBlock(a=p.blocks[i].a, b=tuple(p.blocks[i].b[s] for s in params)) for i in blocks
        ))
        expected = value_residual_rows(solve_complete(p, seed=0), k, params=params, blocks=blocks)
        assert match_multisets(expected, value_residual_rows(solve_complete(permuted, seed=0), k)) <= 1e-10

    @settings(max_examples=20, deadline=None)
    @given(other=st.integers(1, 2**32 - 1), **planted)
    def test_complete_set_does_not_depend_on_the_seed(self, other, k, n, extra, sigma, seed):
        p, _ = random_planted_problem([n + extra] * k, [n] * k, sigma, seed=seed)
        assert match_multisets(value_residual_rows(solve_complete(p, seed=0), k),
                               value_residual_rows(solve_complete(p, seed=other), k)) <= 1e-10
