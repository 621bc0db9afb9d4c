import csv
import io

import numpy as np

from rmep.linalg import gep, svd
from rmep.model import (
    EquationBlock,
    MepProblem,
    PerturbationSet,
    RmepProblem,
    dehomogenize,
    normalized_residual,
    perturbation_cost,
    random_planted_problem,
)
from rmep.mep import solve_mep
from rmep.tsvd import (
    reduced_mep,
    solve_complete,
    truncate_blocks,
    truncation_certificate,
    write_complete_csv,
)

from conftest import EPS, crandn, match_multisets, pencil_vector_error, random_problem, shared_b_problem


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
        achieved = perturbation_cost(p, cert.perturbed)
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
            cost = perturbation_cost(p, PerturbationSet.from_blocks(p, blocks))
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
            assert t.residual == normalized_residual(p, t)[1]

    def test_csv_export(self):
        p, _ = random_planted_problem([10, 10], [2, 2], 0.0, seed=15)
        tuples = solve_complete(p, seed=0)
        buf = io.StringIO()
        write_complete_csv(p, tuples, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "j,re_lambda1,im_lambda1,re_lambda2,im_lambda2,gamma,rho,rho_1,rho_2"
        assert len(lines) == 1 + 4

    def test_csv_infinite_rows_carry_raw_alphas(self):
        p = shared_b_problem()
        tuples = solve_complete(p, seed=0)
        buf = io.StringIO()
        write_complete_csv(p, tuples, buf)
        rows = list(csv.reader(io.StringIO(buf.getvalue())))[1:]
        assert [r[0] for r in rows] == ["1", "2", "3", "4"]
        for row, t in zip(rows[2:], tuples[2:]):
            alphas = [complex(float(row[1 + 2 * s]), float(row[2 + 2 * s])) for s in range(2)]
            assert alphas == list(t.value.alphas)
            assert float(row[5]) == t.value.gamma
            assert row[6:] == ["inf", "inf", "inf"]
        for row in rows[:2]:
            assert all(np.isfinite(float(v)) for v in row[5:])
