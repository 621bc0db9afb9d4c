import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmep import linalg
from rmep.errors import ValidationError
from rmep.linalg import (
    GEP_BACKWARD_RTOL,
    INVERSE_ITERATION_STEPS,
    MINIMIZER_SLACK,
    as_matrix,
    eig_hermitian,
    gep,
    rank_revealing_qr,
    rcond_1norm,
    smallest_singular_vector,
    svd,
)

from conftest import EPS, crandn, match_multisets


class TestSvd:
    def test_identity(self):
        res = svd(np.eye(3))
        assert np.allclose(res.singular_values, [1, 1, 1])
        assert np.allclose(np.abs(res.u), np.eye(3))
        assert np.allclose(np.abs(res.v), np.eye(3))

    def test_diagonal(self):
        res = svd(np.diag([3.0, 0.0]))
        assert np.allclose(res.singular_values, [3.0, 0.0])

    def test_reconstruction_random(self):
        rng = np.random.default_rng(0)
        a = crandn(rng, 6, 4)
        res = svd(a)
        assert np.linalg.norm(res.reconstruct() - a) <= 1e-12 * np.linalg.norm(a)

    def test_descending_and_full_v(self):
        rng = np.random.default_rng(1)
        a = crandn(rng, 4, 9)
        res = svd(a)
        s = res.singular_values
        assert np.all(s[:-1] >= s[1:])
        assert res.v.shape == (9, 9)
        assert res.u.shape == (4, 4)
        # unitary factors to backend tolerance
        assert np.linalg.norm(res.v.conj().T @ res.v - np.eye(9)) < 1e-13

    def test_eckart_young_tail_identity(self):
        # min over rank-r of ||A - X||_F^2 equals the squared tail; truncation attains it
        rng = np.random.default_rng(2)
        a = crandn(rng, 6, 9)
        res = svd(a)
        s = res.singular_values
        for r in (1, 3, 5):
            trunc = (res.u[:, :r] * s[:r]) @ res.v[:, :r].conj().T
            tail = float(np.sum(s[r:] ** 2))
            cost = float(np.linalg.norm(a - trunc, "fro") ** 2)
            assert abs(cost - tail) <= 1e-10 * max(tail, 1.0)
            for _ in range(10):
                x = crandn(rng, 6, r) @ crandn(rng, r, 9)
                assert np.linalg.norm(a - x, "fro") ** 2 >= tail - 1e-10

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            svd(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_smallest_right_singular_vector_is_last_v_column(self):
        rng = np.random.default_rng(3)
        a = crandn(rng, 5, 3)
        x = svd(a).v[:, -1]
        assert abs(np.linalg.norm(x) - 1) < 1e-13
        assert abs(np.linalg.norm(a @ x) - svd(a).singular_values[-1]) < 1e-12


def with_singular_values(rng, m, s):
    """Random complex m x len(s) matrix with singular values s."""
    n = len(s)
    u, _ = np.linalg.qr(crandn(rng, m, n))
    v, _ = np.linalg.qr(crandn(rng, n, n))
    return (u * s) @ v.conj().T


@pytest.fixture
def svd_calls(monkeypatch):
    """Record each np.linalg.svd call made through the linalg module."""
    calls = []
    np_svd = np.linalg.svd

    def spy(*args, **kwargs):
        calls.append(1)
        return np_svd(*args, **kwargs)

    monkeypatch.setattr(linalg.np.linalg, "svd", spy)
    return calls


class TestSmallestSingularVector:
    def test_matches_svd(self, svd_calls):
        rng = np.random.default_rng(13)
        a = crandn(rng, 9, 6)
        x = smallest_singular_vector(a)
        assert not svd_calls  # the iterate passed the minimizer check
        res = svd(a)
        assert abs(np.linalg.norm(x) - 1) < 1e-14
        assert abs(np.linalg.norm(a @ x) - res.singular_values[-1]) <= 1e-12 * res.singular_values[0]
        assert abs(abs(np.vdot(res.v[:, -1], x)) - 1) < 1e-12

    def test_step_cap_fires_on_close_singular_values(self, monkeypatch, svd_calls):
        # sigma_{n-1} / sigma_n = 1 + 1e-5: each step turns x by about 1e-5
        # within the pair's span, so the step tolerance is never met.  The
        # capped iterate is still a mixture of the pair, about 1e-5 above
        # sigma_n^2, so it fails the minimizer check and the SVD answers.
        rng = np.random.default_rng(14)
        s = np.concatenate((np.geomspace(10.0, 2.0, 6), [1.0 + 1e-5, 1.0]))
        a = with_singular_values(rng, 12, s)
        x_prev = crandn(rng, 8)
        x_prev /= np.linalg.norm(x_prev)
        calls = []
        zpotrs = linalg.sla.lapack.zpotrs

        def spy(*args, **kwargs):
            calls.append(1)
            return zpotrs(*args, **kwargs)

        monkeypatch.setattr(linalg.sla.lapack, "zpotrs", spy)
        x = smallest_singular_vector(a, x_prev)
        assert len(calls) == INVERSE_ITERATION_STEPS
        assert abs(np.linalg.norm(x) - 1) < 1e-14
        assert np.linalg.norm(a @ x) <= np.linalg.norm(a @ x_prev)
        assert abs(np.linalg.norm(a @ x) - s[-1]) <= s[-2] - s[-1]
        assert len(svd_calls) == 1
        assert abs(np.linalg.norm(a @ x) - s[-1]) <= 1e-12 * s[0]

    def test_symmetric_block_default_start(self, svd_calls):
        # The default start is the sigma = 3 vector of this reflection-
        # symmetric block, so inverse iteration stops on it at once.
        a = np.array([[2.0, 1.0], [1.0, 2.0], [0.0, 0.0]])
        x = smallest_singular_vector(a)
        assert len(svd_calls) == 1
        assert abs(np.linalg.norm(a @ x) - 1.0) < 1e-14

    @pytest.mark.parametrize("j", [0, -2])
    def test_warm_start_at_another_singular_vector(self, j):
        # A start that is another singular vector has (to rounding) no
        # component along the smallest one, as when two modes cross between
        # sweeps.
        rng = np.random.default_rng(15)
        a = crandn(rng, 9, 6)
        res = svd(a)
        x = smallest_singular_vector(a, res.v[:, j])
        assert abs(np.linalg.norm(a @ x) - res.singular_values[-1]) <= 1e-12 * res.singular_values[0]

    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    def test_extreme_scales(self, scale, svd_calls):
        # R^H R of the unscaled factor would underflow or overflow, and the
        # minimality check would fail for want of range, not of accuracy.
        rng = np.random.default_rng(16)
        a = crandn(rng, 9, 6)
        s = svd(a).singular_values
        svd_calls.clear()
        x = smallest_singular_vector(scale * a)
        assert not svd_calls
        assert abs(np.linalg.norm(a @ x) - s[-1]) <= 1e-12 * s[0]

    def test_zero_matrix_returns_start(self):
        start = np.array([3.0, 4.0j])
        x = smallest_singular_vector(np.zeros((3, 2)), start)
        assert np.array_equal(x, start / 5.0)

    def test_overflowing_solves_fall_back_to_svd(self, svd_calls):
        # R = N, the nilpotent shift: every pivot sits at the floor and the
        # coupled triangular solves grow like eps^-30 and overflow.
        n = 30
        a = np.triu(np.ones((n, n)), 1)
        x = smallest_singular_vector(a)
        assert len(svd_calls) == 1
        assert abs(abs(x[0]) - 1) < 1e-12
        assert np.linalg.norm(a @ x) <= 1e-12 * np.linalg.norm(a, 2)

    @pytest.mark.parametrize("a, start", [(np.ones((2, 3)), None), (np.eye(2), np.zeros(2)), (np.eye(2), np.ones(3))])
    def test_rejects_bad_input(self, a, start):
        with pytest.raises(ValidationError):
            smallest_singular_vector(a, start)

    @settings(max_examples=60, deadline=None)
    @given(m_extra=st.integers(0, 6), n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_warm_start_property(self, m_extra, n, seed):
        rng = np.random.default_rng(seed)
        a = crandn(rng, n + m_extra, n)
        x0 = crandn(rng, n)
        x0 /= np.linalg.norm(x0)
        s = svd(a).singular_values
        x = smallest_singular_vector(a, x0)
        assert abs(np.linalg.norm(x) - 1) < 1e-14
        # Inverse iteration never raises the Rayleigh quotient (up to rounding).
        assert np.linalg.norm(a @ x) <= np.linalg.norm(a @ x0) + 10 * n * EPS * s[0]
        if n >= 2 and s[-1] <= 0.9 * s[-2]:
            assert abs(np.linalg.norm(a @ x) - s[-1]) <= 1e-12 * s[0]
        # Whatever the gap, x minimizes ||A x||^2 within the check's slack.
        assert np.linalg.norm(a @ x) ** 2 <= s[-1] ** 2 + 2 * MINIMIZER_SLACK * EPS * np.sum(s**2)


def _cubic_roots(c2, c1, c0):
    """Roots of x^3 + c2 x^2 + c1 x + c0 by the trigonometric/Cardano formula."""
    p = c1 - c2**2 / 3.0
    q = 2.0 * c2**3 / 27.0 - c2 * c1 / 3.0 + c0
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    if disc <= 0:  # Hermitian input: three real roots, trigonometric branch
        r = np.sqrt(-(p**3) / 27.0)
        phi = np.arccos(np.clip(-q / (2.0 * r), -1.0, 1.0))
        m = 2.0 * np.sqrt(-p / 3.0)
        roots = [m * np.cos((phi + 2.0 * np.pi * j) / 3.0) for j in range(3)]
    else:
        u = np.cbrt(-q / 2.0 + np.sqrt(disc))
        v = np.cbrt(-q / 2.0 - np.sqrt(disc))
        roots = [u + v]
    return sorted(t - c2 / 3.0 for t in roots)


class TestEigHermitian:
    def test_diagonal(self):
        w, v = eig_hermitian(np.diag([2.0, 1.0]))
        assert np.allclose(w, [1.0, 2.0])

    def test_zero(self):
        w, _ = eig_hermitian(np.zeros((4, 4)))
        assert np.allclose(w, 0.0)

    def test_cubic_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            h = crandn(rng, 3, 3)
            h = h + h.conj().T
            w, v = eig_hermitian(h)
            # characteristic polynomial x^3 + c2 x^2 + c1 x + c0 of the 3x3 Hermitian
            tr = float(np.trace(h).real)
            tr2 = float(np.trace(h @ h).real)
            det = float(np.linalg.det(h).real)
            c2 = -tr
            c1 = 0.5 * (tr**2 - tr2)
            c0 = -det
            roots = _cubic_roots(c2, c1, c0)
            scale = max(1.0, np.abs(w).max())
            assert np.allclose(sorted(w), roots, atol=1e-10 * scale)
            # eigen-identity and orthonormality
            assert np.linalg.norm(h @ v - v * w) < 1e-12 * max(1.0, np.linalg.norm(h))
            assert np.linalg.norm(v.conj().T @ v - np.eye(3)) < 1e-13

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            eig_hermitian(np.array([[1.0, 2.0], [0.0, 1.0]]))


@pytest.fixture
def qz_calls(monkeypatch):
    """Records every pencil that `gep` hands to QZ."""
    calls = []
    qz = linalg._qz

    def spy(a, b, *rest):
        calls.append((a, b))
        return qz(a, b, *rest)

    monkeypatch.setattr(linalg, "_qz", spy)
    return calls


def pencil_backward_errors(a, b, res):
    """Largest normwise backward errors of the right and left pairs of `res`."""
    scale_a, scale_b = np.linalg.norm(a), np.linalg.norm(b)
    errors = []
    for j in range(a.shape[0]):
        alpha, beta = res.alpha[j], res.beta[j]
        z, w = res.right[:, j], res.left[:, j]
        denom = abs(beta) * scale_a + abs(alpha) * scale_b
        errors.append((
            np.linalg.norm(beta * (a @ z) - alpha * (b @ z)) / denom,
            np.linalg.norm(beta * (w.conj() @ a) - alpha * (w.conj() @ b)) / denom,
        ))
    return np.max(errors, axis=0)


class TestGep:
    def test_diagonal_pencil(self):
        res = gep(np.diag([1.0, 2.0]), np.eye(2))
        lam = sorted((res.alpha / res.beta).real)
        assert np.allclose(lam, [1.0, 2.0], atol=1e-13)

    def test_infinite_eigenvalue(self, qz_calls, monkeypatch):
        lu_infos = []
        zgetrf = linalg.sla.lapack.zgetrf

        def spy(*args, **kwargs):
            out = zgetrf(*args, **kwargs)
            lu_infos.append(out[-1])
            return out

        monkeypatch.setattr(linalg.sla.lapack, "zgetrf", spy)
        res = gep(np.eye(2), np.diag([1.0, 0.0]))
        finite = [a / b for a, b in zip(res.alpha, res.beta) if abs(b) > 1e-10]
        infinite = [1 for b in res.beta if abs(b) <= 1e-10]
        assert len(finite) == 1 and abs(finite[0] - 1.0) < 1e-12
        assert len(infinite) == 1
        # B is exactly singular: the LU reports it and QZ takes the pencil.
        assert lu_infos == [2] and len(qz_calls) == 1

    def test_well_conditioned_b_takes_standard_path(self, qz_calls):
        rng = np.random.default_rng(11)
        a, b = crandn(rng, 6, 6), crandn(rng, 6, 6)
        res = gep(a, b)
        assert qz_calls == []
        assert np.all(res.beta == 1.0) and not res.singular.any()
        assert max(pencil_backward_errors(a, b, res)) <= GEP_BACKWARD_RTOL

    def test_ill_conditioned_b_takes_qz(self, qz_calls):
        # Three singular values at 1e-8: B^{-1} A loses about eight digits,
        # which the backward-error check sees although B is invertible.
        rng = np.random.default_rng(12)
        u, _ = np.linalg.qr(crandn(rng, 40, 40))
        v, _ = np.linalg.qr(crandn(rng, 40, 40))
        s = np.ones(40)
        s[-3:] = 1e-8
        a, b = crandn(rng, 40, 40), (u * s) @ v.conj().T
        assert 1e-10 < rcond_1norm(b) < 1e-8
        res = gep(a, b)
        assert len(qz_calls) == 1
        assert max(pencil_backward_errors(a, b, res)) <= GEP_BACKWARD_RTOL

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_standard_path_matches_qz(self, n, seed):
        rng = np.random.default_rng(seed)
        a = crandn(rng, n, n)
        b = np.eye(n) + 0.25 * crandn(rng, n, n) / np.sqrt(2 * n)  # cond(B) <= ~3
        scale_a, scale_b = np.linalg.norm(a), np.linalg.norm(b)
        std = linalg._standard(a, b, scale_a, scale_b)
        qz = linalg._qz(a, b, scale_a, scale_b)
        assert std is not None
        assert match_multisets(std.alpha, qz.alpha / qz.beta) <= 1e-10 * scale_a
        assert max(pencil_backward_errors(a, b, std)) <= 20 * n * EPS
        assert max(pencil_backward_errors(a, b, qz)) <= 20 * n * EPS

    def test_residual_random_pair(self):
        rng = np.random.default_rng(5)
        a, b = crandn(rng, 4, 4), crandn(rng, 4, 4)
        res = gep(a, b)
        tol = 1e3 * EPS * 4
        for j in range(4):
            if abs(res.beta[j]) < 1e-10:
                continue
            lam = res.alpha[j] / res.beta[j]
            z = res.right[:, j]
            bound = tol * (np.linalg.norm(a, 2) + abs(lam) * np.linalg.norm(b, 2))
            assert np.linalg.norm(a @ z - lam * (b @ z)) <= bound

    def test_matches_standard_eig_on_identity_b(self):
        rng = np.random.default_rng(6)
        a = crandn(rng, 5, 5)
        res = gep(a, np.eye(5))
        ours = res.alpha / res.beta
        ref = np.linalg.eigvals(a)
        assert match_multisets(ours, ref) < 1e-10

    def test_left_vectors(self):
        rng = np.random.default_rng(7)
        a, b = crandn(rng, 4, 4), crandn(rng, 4, 4)
        res = gep(a, b)
        for j in range(4):
            lam = res.alpha[j] / res.beta[j]
            w = res.left[:, j]
            assert np.linalg.norm(w.conj() @ a - lam * (w.conj() @ b)) < 1e-10 * np.linalg.norm(a)


class TestRankRevealingQr:
    def test_identity(self):
        q, r, perm = rank_revealing_qr(np.eye(3))
        assert np.allclose(np.abs(r), np.eye(3))
        assert sorted(perm.tolist()) == [0, 1, 2]

    def test_duplicated_column(self):
        rng = np.random.default_rng(8)
        c = crandn(rng, 5, 1)
        a = np.hstack([c, c])
        _, r, _ = rank_revealing_qr(a)
        assert abs(r[1, 1]) <= EPS * np.linalg.norm(c) * 10

    def test_condition_vs_exhaustive(self):
        rng = np.random.default_rng(9)
        a = crandn(rng, 4, 8)
        _, _, perm = rank_revealing_qr(a)
        chosen = np.linalg.cond(a[:, perm[:4]])
        best = min(np.linalg.cond(a[:, list(cols)]) for cols in itertools.combinations(range(8), 4))
        assert chosen <= 10.0 * best

    def test_factorization_identity(self):
        rng = np.random.default_rng(10)
        a = crandn(rng, 6, 4)
        q, r, perm = rank_revealing_qr(a)
        assert np.linalg.norm(a[:, perm] - q @ r) < 1e-12 * np.linalg.norm(a)
        d = np.abs(np.diag(r))
        assert np.all(d[:-1] >= d[1:] - 1e-12)


def test_as_matrix_rejects_vectors():
    with pytest.raises(ValidationError):
        as_matrix(np.ones(3))
