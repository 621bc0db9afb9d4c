import itertools

import numpy as np
import pytest

from rmep.config import EPS, NumericsConfig
from rmep.errors import CapacityError, ValidationError
from rmep.linalg import (
    as_matrix,
    eig_hermitian,
    gep,
    kron,
    rank_revealing_qr,
    svd,
)

from conftest import crandn, match_multisets


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


class TestGep:
    def test_diagonal_pencil(self):
        res = gep(np.diag([1.0, 2.0]), np.eye(2))
        lam = sorted((res.alpha / res.beta).real)
        assert np.allclose(lam, [1.0, 2.0], atol=1e-13)

    def test_infinite_eigenvalue(self):
        res = gep(np.eye(2), np.diag([1.0, 0.0]))
        finite = [a / b for a, b in zip(res.alpha, res.beta) if abs(b) > 1e-10]
        infinite = [1 for b in res.beta if abs(b) <= 1e-10]
        assert len(finite) == 1 and abs(finite[0] - 1.0) < 1e-12
        assert len(infinite) == 1

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


class TestKron:
    def test_identity_blockdiag(self):
        rng = np.random.default_rng(11)
        m = crandn(rng, 2, 3)
        out = kron(np.eye(2), m)
        assert np.allclose(out[:2, :3], m)
        assert np.allclose(out[2:, 3:], m)
        assert np.allclose(out[:2, 3:], 0)

    def test_scalar_case(self):
        rng = np.random.default_rng(12)
        m = crandn(rng, 3, 2)
        out = kron(np.array([[2.0 + 1.0j]]), m)
        assert np.allclose(out, (2.0 + 1.0j) * m)

    def test_mixed_product_property(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            a, b = crandn(rng, 3, 3), crandn(rng, 2, 2)
            x, y = crandn(rng, 3), crandn(rng, 2)
            lhs = kron(a, b) @ np.kron(x, y)
            rhs = np.kron(a @ x, b @ y)
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(rhs))

    def test_capacity_guard(self):
        cfg = NumericsConfig(kron_cap=10)
        with pytest.raises(CapacityError):
            kron(np.eye(4), np.eye(4), cfg)

    def test_layout_convention(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        out = kron(a, b)
        # (A kron B)[(i-1)p+r, (j-1)q+s] = A[i,j] * B[r,s]
        assert out[0, 2] == a[0, 1] * b[0, 0]
        assert out[3, 1] == a[1, 0] * b[1, 1]


def test_as_matrix_rejects_vectors():
    with pytest.raises(ValidationError):
        as_matrix(np.ones(3))
