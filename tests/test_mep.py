import dataclasses
import tracemalloc

import numpy as np
import pytest

from rmep.errors import CapacityError, IrregularMepError, ValidationError
from rmep import errors, linalg, mep, tsvd
from rmep.mep import operator_determinants, solve_mep
from rmep.model import EquationBlock, MepProblem, RmepProblem, dehomogenize, random_planted_problem

from conftest import crandn, match_multisets, pencil_vector_error, random_problem, shared_b_problem


def mep_from(blocks):
    return MepProblem(blocks=tuple(EquationBlock(a=a, b=tuple(bs)) for a, *bs in blocks))


def problems_real_and_complex(seed, n, k):
    """A random square complex problem and the problem of its real parts."""
    p = random_problem(np.random.default_rng(seed), n, n, k, square=True)
    return p, mep_from([(blk.a.real, *(b.real for b in blk.b)) for blk in p.blocks])


def annihilating_problem():
    """Every matrix of the first block annihilates e_1, so every D_j
    annihilates e_1 (x) y: det(A - lambda M) = 0 for every lambda."""
    rng = np.random.default_rng(13)
    first = [rng.standard_normal((3, 3)) for _ in range(3)]
    for mat in first:
        mat[:, 0] = 0.0
    return mep_from([first, [rng.standard_normal((3, 3)) for _ in range(3)]])


def poly2_mul(p, q):
    """Product of two bivariate polynomials given as coefficient arrays c[i, j] <-> x^i y^j."""
    out = np.zeros((p.shape[0] + q.shape[0] - 1, p.shape[1] + q.shape[1] - 1), dtype=complex)
    for i in range(p.shape[0]):
        for j in range(p.shape[1]):
            if p[i, j] != 0:
                out[i : i + q.shape[0], j : j + q.shape[1]] += p[i, j] * q
    return out


def det2_poly(a, b1, b2):
    """det(a - x*b1 - y*b2) for 2x2 blocks as a bivariate coefficient array."""

    def entry(i, j):
        c = np.zeros((2, 2), dtype=complex)
        c[0, 0] = a[i, j]
        c[1, 0] = -b1[i, j]
        c[0, 1] = -b2[i, j]
        return c

    return poly2_mul(entry(0, 0), entry(1, 1)) - poly2_mul(entry(0, 1), entry(1, 0))


def poly1_mul(p, q):
    return np.convolve(p, q)


def _poly_sum(total, term):
    size = max(total.size, term.size)
    return np.pad(total, (0, size - total.size)) + np.pad(term, (0, size - term.size))


def _det_poly_matrix(rows):
    """Determinant of a small matrix whose entries are 1-D polynomials."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = np.zeros(1, dtype=complex)
    for j in range(n):
        minor = [[rows[i][c] for c in range(n) if c != j] for i in range(1, n)]
        term = poly1_mul(rows[0][j], _det_poly_matrix(minor))
        total = _poly_sum(total, (-1) ** j * term)
    return total


def resultant_oracle(problem, tol=1e-8):
    """Independent solve of a k = 2, 2x2 square problem via the resultant.

    Writes p(x, y) = det(A1 - x B11 - y B12), q likewise for block 2, builds
    the Sylvester resultant in y, and intersects the root sets.
    """
    (a1, (b11, b12)), (a2, (b21, b22)) = ((blk.a, blk.b) for blk in problem.blocks)
    p = det2_poly(a1, b11, b12)
    q = det2_poly(a2, b21, b22)
    # coefficients of y^d as 1-D polynomials in x
    pc = [p[:, d] for d in range(3)]
    qc = [q[:, d] for d in range(3)]
    sylvester = [
        [pc[2], pc[1], pc[0], np.zeros(3, complex)],
        [np.zeros(3, complex), pc[2], pc[1], pc[0]],
        [qc[2], qc[1], qc[0], np.zeros(3, complex)],
        [np.zeros(3, complex), qc[2], qc[1], qc[0]],
    ]
    res = _det_poly_matrix(sylvester)
    coeffs = res[::-1]  # descending for np.roots
    coeffs = np.trim_zeros(coeffs, "f")
    lambdas = np.roots(coeffs)
    solutions = []
    for lam in lambdas:
        # y-roots of p(lam, y); keep those annihilating q as well
        py = np.array([p[:, d] @ lam ** np.arange(3) for d in range(3)])[::-1]
        py = np.trim_zeros(py, "f")
        if py.size <= 1:
            continue
        for mu in np.roots(py):
            qv = sum(q[i, j] * lam**i * mu**j for i in range(3) for j in range(3))
            scale = max(1.0, abs(lam), abs(mu)) ** 2
            if abs(qv) <= tol * scale * np.abs(q).max():
                solutions.append((lam, mu))
    return solutions


class TestOperatorDeterminants:
    def test_identity_b_blocks(self):
        eye = np.eye(3)
        zero = np.zeros((3, 3))
        rng = np.random.default_rng(0)
        a1, a2 = crandn(rng, 3, 3), crandn(rng, 3, 3)
        p = mep_from([(a1, eye, zero), (a2, zero, eye)])
        d = operator_determinants(p)
        assert np.allclose(d.matrices[0], np.eye(9))

    def test_scalar_blocks_reduce_to_2x2_determinant(self):
        rng = np.random.default_rng(1)
        vals = crandn(rng, 6)
        a1, b11, b12, a2, b21, b22 = (v.reshape(1, 1) for v in vals)
        p = mep_from([(a1, b11, b12), (a2, b21, b22)])
        d = operator_determinants(p)
        assert np.allclose(d.matrices[0], vals[1] * vals[5] - vals[2] * vals[4])

    def test_k2_formula(self):
        # the expansion's products are np.kron's, bitwise, real and complex
        for p in problems_real_and_complex(2, 2, 2):
            (a1, (b11, b12)), (a2, (b21, b22)) = ((blk.a, blk.b) for blk in p.blocks)
            d = operator_determinants(p)
            assert np.array_equal(d.matrices[0], np.kron(b11, b22) - np.kron(b12, b21))
            assert np.array_equal(d.matrices[1], np.kron(a1, b22) - np.kron(b12, a2))
            assert np.array_equal(d.matrices[2], np.kron(b11, a2) - np.kron(a1, b21))
            assert np.iscomplexobj(d.matrices[0]) == np.iscomplexobj(b11)

    def test_k3_matches_permutation_expansion(self):
        for p in problems_real_and_complex(3, 2, 3):
            d = operator_determinants(p)
            b = [blk.b for blk in p.blocks]
            kron3 = lambda x, y, z: np.kron(np.kron(x, y), z)  # left to right, as the expansion multiplies
            # explicit 3x3 operator determinant of the B-array, terms in permutation order
            expected = (
                kron3(b[0][0], b[1][1], b[2][2])
                - kron3(b[0][0], b[1][2], b[2][1])
                - kron3(b[0][1], b[1][0], b[2][2])
                + kron3(b[0][1], b[1][2], b[2][0])
                + kron3(b[0][2], b[1][0], b[2][1])
                - kron3(b[0][2], b[1][1], b[2][0])
            )
            assert np.array_equal(d.matrices[0], expected)

    def test_diagonal_blocks_oracle(self):
        # with all-diagonal blocks the tuples decouple into 2x2 linear systems
        rng = np.random.default_rng(4)
        diag = lambda: np.diag(crandn(rng, 2))
        p = mep_from([(diag(), diag(), diag()), (diag(), diag(), diag())])
        d = operator_determinants(p)
        expected = []
        for i in range(2):
            for j in range(2):
                m = np.array(
                    [
                        [p.blocks[0].b[0][i, i], p.blocks[0].b[1][i, i]],
                        [p.blocks[1].b[0][j, j], p.blocks[1].b[1][j, j]],
                    ]
                )
                rhs = np.array([p.blocks[0].a[i, i], p.blocks[1].a[j, j]])
                expected.append(np.linalg.solve(m, rhs))
        sols = solve_mep(p, seed=0)
        ours = [dehomogenize(s.value) for s in sols]
        assert match_multisets(ours, expected) < 1e-12

    def test_capacity_guard(self):
        # N = 150^2 = 22,500 exceeds the cap; the guard fires before building
        rng = np.random.default_rng(5)
        p = random_problem(rng, 150, 150, 2, square=True)
        with pytest.raises(CapacityError):
            operator_determinants(p)

    def test_requires_a_square_problem(self):
        p = random_problem(np.random.default_rng(8), 3, 2, 1)
        with pytest.raises(ValidationError, match="square MepProblem"):
            operator_determinants(p)

    def test_k_cap(self):
        rng = np.random.default_rng(6)
        p = random_problem(rng, 1, 1, 5, square=True)
        with pytest.raises(CapacityError):
            operator_determinants(p)

    def test_commutation_invariant(self):
        rng = np.random.default_rng(7)
        for trial in range(5):
            p = random_problem(np.random.default_rng(trial), 3, 3, 2, square=True)
            d = operator_determinants(p)
            d0 = d.matrices[0]
            g = [np.linalg.solve(d0, di) for di in d.matrices[1:]]
            comm = g[0] @ g[1] - g[1] @ g[0]
            bound = 1e-8 * np.linalg.norm(g[0], "fro") * np.linalg.norm(g[1], "fro")
            assert np.linalg.norm(comm, "fro") <= bound


def traced_peak(work):
    """Peak bytes that tracemalloc sees work() allocate above what is already
    allocated, and work()'s exception if it raised one."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        try:
            work()
            raised = None
        except CapacityError as exc:
            raised = exc
        return tracemalloc.get_traced_memory()[1] - base, raised
    finally:
        tracemalloc.stop()


def tall_problem(seed, m, n, k, complex_data):
    """k blocks of shape m x n with standard normal entries, real or complex."""
    p = random_problem(np.random.default_rng(seed), m, n, k)
    if complex_data:
        return p
    return RmepProblem(blocks=tuple(EquationBlock(a=blk.a.real, b=tuple(b.real for b in blk.b)) for blk in p.blocks))


class TestCheckCapacity:
    def test_solve_complete_refuses_before_the_lifted_matrices(self, monkeypatch):
        # N = 144: the lifted pencil needs about 3.8 MB by the estimate, and
        # one real N x N matrix is 166 kB.
        p, _ = random_planted_problem([15, 15], [12, 12], 0.01, seed=2)
        monkeypatch.setattr(errors, "MEMORY_BUDGET", 10**6)
        peak, raised = traced_peak(lambda: tsvd.solve_complete(p))
        assert isinstance(raised, CapacityError) and "the complete-set solve of 144 tuples" in str(raised)
        assert peak < 8 * p.total_dim**2

    def test_tall_one_parameter_problem_is_judged_by_its_ranking(self, monkeypatch):
        # One real 200 x 200 lifted matrix is 0.32 MB, but the ranking stacks 200
        # complex 203 x 200 pencils (130 MB): the budget lies between the two.
        p = tall_problem(3, 203, 200, 1, complex_data=True)
        monkeypatch.setattr(errors, "MEMORY_BUDGET", 50 * 2**20)
        with pytest.raises(CapacityError, match="the complete-set solve of 200 tuples"):
            tsvd.solve_complete(p)

    @pytest.mark.parametrize("complex_data", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("m, n, k", [(103, 100, 1), (28, 25, 2), (11, 8, 3)])
    def test_estimate_bounds_the_measured_peak(self, monkeypatch, m, n, k, complex_data):
        # Either the ranking stack (k = 1, 16.5 MB) or one N x N matrix (k = 2
        # and 3, 3.1 and 2.1 MB) is several MB, so fixed overheads do not count.
        p = tall_problem(4, m, n, k, complex_data)
        peak, raised = traced_peak(lambda: tsvd.solve_complete(p))
        assert raised is None
        # The estimate is at least the peak, and within 3 times it.
        monkeypatch.setattr(errors, "MEMORY_BUDGET", peak - 1)
        with pytest.raises(CapacityError):
            mep.check_capacity(p.shapes)
        monkeypatch.setattr(errors, "MEMORY_BUDGET", 3 * peak)
        mep.check_capacity(p.shapes)


class TestSolveMep:
    def test_identity_mass_reduces_to_standard_eig(self):
        rng = np.random.default_rng(8)
        a1, a2 = crandn(rng, 2, 2), crandn(rng, 2, 2)
        eye, zero = np.eye(2), np.zeros((2, 2))
        p = mep_from([(a1, eye, zero), (a2, zero, eye)])
        sols = solve_mep(p, seed=0)
        lam1 = [dehomogenize(s.value)[0] for s in sols]
        ref = np.repeat(np.linalg.eigvals(a1), 2)
        assert match_multisets(lam1, ref) < 1e-10

    def test_consistency_invariant(self):
        rng = np.random.default_rng(9)
        for trial in range(5):
            p = random_problem(np.random.default_rng(50 + trial), 3, 3, 2, square=True)
            scale = max(np.linalg.norm(b.a, 2) for b in p.blocks)
            for sol in solve_mep(p, seed=0):
                lam = dehomogenize(sol.value)
                for blk, x in zip(p.blocks, sol.vectors):
                    r = blk.a @ x - sum(l * (bi @ x) for l, bi in zip(lam, blk.b))
                    assert np.linalg.norm(r) <= 1e-8 * scale

    def test_resultant_oracle_small(self):
        for seed in range(5):
            p = random_problem(np.random.default_rng(200 + seed), 2, 2, 2, square=True)
            expected = resultant_oracle(p)
            assert len(expected) == 4
            ours = [dehomogenize(s.value) for s in solve_mep(p, seed=1)]
            assert match_multisets(ours, expected) < 1e-8

    def test_multiplicities_preserved(self):
        # block-diagonal construction with a repeated tuple
        eye = np.eye(2)
        zero = np.zeros((2, 2))
        a = np.diag([3.0, 3.0])
        p = mep_from([(a, eye, zero), (np.diag([5.0, 5.0]), zero, eye)])
        sols = solve_mep(p, seed=0)
        assert len(sols) == 4
        for s in sols:
            lam = dehomogenize(s.value)
            assert abs(lam[0] - 3.0) < 1e-10
            assert abs(lam[1] - 5.0) < 1e-10

    def test_least_squares_quotient_fallback(self):
        # A_1 is defective, so every two-sided quotient w^H M z is ~1e-15
        eye, zero = np.eye(2), np.zeros((2, 2))
        p = mep_from([(np.array([[3.0, 1.0], [0.0, 3.0]]), eye, zero), (5.0 * eye, zero, eye)])
        sols = solve_mep(p, seed=0)
        assert len(sols) == 4
        for s in sols:
            lam = dehomogenize(s.value)
            assert abs(lam[0] - 3.0) < 1e-10
            assert abs(lam[1] - 5.0) < 1e-10

    @pytest.mark.parametrize("columns", [[0, 4, 7], list(range(9))], ids=["some", "all"])
    def test_zero_left_vectors_take_the_least_squares_row(self, monkeypatch, columns):
        # A zero left vector makes w^H M z = 0 exactly and its two-sided row
        # zero, so those tuples can only come from the least-squares quotient.
        deltas = operator_determinants(random_problem(np.random.default_rng(15), 3, 3, 2, square=True))
        unforced = mep.solve_from_determinants(deltas, seed=0)
        gep = mep.gep
        def zero_left(*args):
            result = gep(*args)
            left = result.left.copy()
            left[:, columns] = 0.0
            return dataclasses.replace(result, left=left)
        monkeypatch.setattr(mep, "gep", zero_left)
        forced = mep.solve_from_determinants(deltas, seed=0)
        assert np.abs(forced - unforced).max() <= 1e-14

    @pytest.mark.parametrize("scale", [2.0**-400, 2.0**400, 1e-170, 1e170], ids=["2^-400", "2^400", "1e-170", "1e170"])
    def test_rows_do_not_depend_on_the_scale_of_the_data(self, scale):
        # Scaling an equation leaves its tuples alone; the k-fold products of
        # the determinants would underflow or overflow at 1e-170 and 1e170.
        p = random_problem(np.random.default_rng(16), 3, 3, 2, square=True)
        scaled = mep_from([(scale * blk.a, *(scale * b for b in blk.b)) for blk in p.blocks])
        ref, sols = solve_mep(p, seed=0), solve_mep(scaled, seed=0)
        rows = np.array([np.concatenate(([t.value.gamma], t.value.alphas)) for t in ref])
        got = np.array([np.concatenate(([t.value.gamma], t.value.alphas)) for t in sols])
        if np.log2(scale).is_integer():
            assert np.array_equal(got, rows)
            assert all(np.array_equal(x, y) for s, t in zip(sols, ref) for x, y in zip(s.vectors, t.vectors))
        else:
            assert np.abs(got - rows).max() <= 1e-14

    def test_overflowing_complex_modulus_is_scaled(self):
        # 7 * 2^1021 (1 + i) has finite parts but a modulus beyond the float
        # range; the scaled copy is the same as that of the problem at 2^-1021.
        blocks = [[m.copy() for m in (blk.a, *blk.b)]
                  for blk in random_problem(np.random.default_rng(16), 3, 3, 2, square=True).blocks]
        blocks[0][0][0, 0] = 7 * (1 + 1j)
        big = mep_from([[2.0**1021 * m for m in blk] for blk in blocks])
        assert np.isinf(np.abs(big.blocks[0].a[0, 0]))
        ref, sols = solve_mep(mep_from(blocks), seed=0), solve_mep(big, seed=0)
        assert all(np.array_equal(s.value.alphas, t.value.alphas) and s.value.gamma == t.value.gamma
                   for s, t in zip(sols, ref))
        assert all(np.array_equal(x, y) for s, t in zip(sols, ref) for x, y in zip(s.vectors, t.vectors))

    def test_shifted_mass_fallback(self):
        # blocks sharing (B_1, B_2) make D_0 = B_1 (x) B_2 - B_2 (x) B_1 singular
        rng = np.random.default_rng(0)
        b1, b2 = crandn(rng, 2, 2), crandn(rng, 2, 2)
        p = mep_from([(crandn(rng, 2, 2), b1, b2), (crandn(rng, 2, 2), b1, b2)])
        sols = solve_mep(p, seed=0)
        finite = [dehomogenize(s.value) for s in sols if s.value.is_finite()]
        assert len(finite) == 2 and len(sols) == 4
        for lam, mu in finite:
            for blk in p.blocks:
                sv = np.linalg.svd(blk.a - lam * blk.b[0] - mu * blk.b[1], compute_uv=False)
                assert sv[-1] <= 1e-12 * sv[0]
        bounded = [r for r in resultant_oracle(p) if max(abs(r[0]), abs(r[1])) < 1e3]
        assert match_multisets(finite, bounded) < 1e-8

    def test_vectors_are_smallest_singular_vectors_of_own_pencils(self):
        # includes the infinite tuples of the shared-(B_1, B_2) problem and k = 3
        problems = [shared_b_problem(), random_problem(np.random.default_rng(70), 2, 2, 3, square=True)]
        problems += [random_problem(np.random.default_rng(60 + trial), 3, 3, 2, square=True) for trial in range(3)]
        for p in problems:
            sols = solve_mep(p, seed=0)
            assert len(sols) == p.total_dim
            for sol in sols:
                assert sol.residual is None
                assert pencil_vector_error(p, sol) <= 1e-12

    @pytest.mark.parametrize("kind", ["shared-b", "random"])
    def test_qz_path_matches_standard_path(self, monkeypatch, kind):
        # The shared-(B_1, B_2) problem has 2 finite and 2 infinite tuples.
        p = shared_b_problem() if kind == "shared-b" else random_problem(np.random.default_rng(12), 3, 3, 2, square=True)
        qz_calls = []
        qz = linalg._qz
        monkeypatch.setattr(linalg, "_qz", lambda *args: qz_calls.append(1) or qz(*args))
        standard = mep.solve_from_determinants(operator_determinants(p), seed=0)
        assert qz_calls == []
        monkeypatch.setattr(linalg, "_standard", lambda *args: None)
        sols = solve_mep(p, seed=0)
        assert len(qz_calls) == 1 and len(sols) == p.total_dim
        rows = [np.concatenate(([s.value.gamma], s.value.alphas)) for s in sols]
        assert match_multisets(rows, standard) <= 1e-10
        for sol in sols:
            assert pencil_vector_error(p, sol) <= 1e-10

    def test_singular_pencil_raises(self):
        with pytest.raises(IrregularMepError, match="singular"):
            solve_mep(annihilating_problem(), seed=0)

    def test_gep_rejects_the_singular_lifted_pencil(self):
        # gep alone decides: the lifted pencil of the annihilating problem,
        # and the zero pencil of the all-zero problem.
        zero = np.zeros((2, 2))
        for p in (annihilating_problem(), mep_from([(zero, zero, zero), (zero, zero, zero)])):
            d = operator_determinants(p).matrices
            rng = np.random.default_rng(0)
            mass, a = (mep._random_combination(d, rng) for _ in range(2))
            with pytest.raises(IrregularMepError, match="singular"):
                mep.gep(a, mass)

    def test_large_entries_are_not_irregular(self):
        # Scaling every block by 1e6 leaves the tuples alone but puts ||M||_F
        # near 2e13, where the standard form's beta = 1 is below
        # GEP_BACKWARD_RTOL ||M||_F: only a QZ pair may count as zero.
        p = random_problem(np.random.default_rng(14), 3, 3, 2, square=True)
        scaled = mep_from([(1e6 * blk.a, *(1e6 * b for b in blk.b)) for blk in p.blocks])
        rows = mep.solve_from_determinants(operator_determinants(scaled), seed=0)
        assert match_multisets(rows, mep.solve_from_determinants(operator_determinants(p), seed=0)) <= 1e-10

    def test_irregular_raises(self):
        zero = np.zeros((2, 2))
        p = mep_from([(zero, zero, zero), (zero, zero, zero)])
        with pytest.raises(IrregularMepError):
            solve_mep(p, seed=0)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(10)
        p = random_problem(rng, 3, 3, 2, square=True)
        a = [dehomogenize(s.value) for s in solve_mep(p, seed=3)]
        b = [dehomogenize(s.value) for s in solve_mep(p, seed=3)]
        assert np.array_equal(np.array(a), np.array(b))
