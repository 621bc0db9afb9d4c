import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from rmep import linalg, spectral, tsvd
from rmep.errors import BackendError, ValidationError
from rmep.linalg import (
    GEP_BACKWARD_RTOL,
    INVERSE_ITERATION_STEPS,
    MINIMIZER_SLACK,
    as_matrix,
    gep,
    smallest_singular_vector,
    svd,
)

from conftest import EPS, cpu_per_wall, crandn, match_multisets, openblas_pools, random_problem


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
        assert np.linalg.norm((res.u * res.singular_values) @ res.v.conj().T - a) <= 1e-12 * np.linalg.norm(a)

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

    @pytest.mark.parametrize("shape", [(4, 7, 3), (2, 3, 5)])
    def test_stack_is_each_matrix_svd(self, shape):
        rng = np.random.default_rng(4)
        a = crandn(rng, *shape)
        res = svd(a)
        r = res.singular_values.shape[-1]
        product = (res.u * res.singular_values[:, None, :]) @ res.v[..., :r].conj().swapaxes(-1, -2)
        assert np.linalg.norm(product - a) <= 1e-12 * np.linalg.norm(a)
        for t in range(shape[0]):
            single = svd(a[t])
            assert np.array_equal(res.singular_values[t], single.singular_values)
            assert np.array_equal(res.v[t], single.v) and np.array_equal(res.u[t], single.u)

    @pytest.mark.parametrize("a", [np.ones((0, 2, 2)), np.ones((1, 2, 2, 2)), np.full((2, 2, 2), np.inf)])
    def test_rejects_bad_stacks(self, a):
        with pytest.raises(ValidationError):
            svd(a)


def with_singular_values(rng, m, s):
    """Random complex m x len(s) matrix with singular values s."""
    n = len(s)
    u, _ = np.linalg.qr(crandn(rng, m, n))
    v, _ = np.linalg.qr(crandn(rng, n, n))
    return (u * s) @ v.conj().T


def counted(monkeypatch, name):
    """Record each np.linalg.<name> call made through the linalg module."""
    calls = []
    original = getattr(np.linalg, name)

    def spy(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(linalg.np.linalg, name, spy)
    return calls


@pytest.fixture
def svd_calls(monkeypatch):
    return counted(monkeypatch, "svd")


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    return counted(monkeypatch, "eigvalsh")


@pytest.fixture
def solve_calls(monkeypatch):
    return counted(monkeypatch, "solve")


def property_matrix(rng, m_extra, n, kind):
    """A random complex (n + m_extra) x n matrix of one of the property
    tests' kinds: graded columns and rank-deficient products put several
    singular values within the slack of sigma_min."""
    if kind == "rank-deficient":
        rank = int(rng.integers(1, n)) if n > 1 else 1
        return crandn(rng, n + m_extra, rank) @ crandn(rng, rank, n)
    a = crandn(rng, n + m_extra, n)
    if kind == "graded":
        a *= np.geomspace(1.0, 1e-12, n)
    return a


def assert_minimizer(a, x0, x, s):
    """x is a unit vector no worse than the unit start x0 that minimizes
    ||A x||^2 within the kernel's slack; s are A's singular values."""
    n = len(x)
    assert abs(np.linalg.norm(x) - 1) < 1e-14
    # Inverse iteration never raises the Rayleigh quotient (up to rounding).
    assert np.linalg.norm(a @ x) <= np.linalg.norm(a @ x0) + 10 * n * EPS * s[0]
    if n >= 2 and s[-1] <= 0.9 * s[-2]:
        assert abs(np.linalg.norm(a @ x) - s[-1]) <= 1e-12 * s[0]
    # Whatever the gap, x minimizes ||A x||^2 within the check's slack.
    assert np.linalg.norm(a @ x) ** 2 <= s[-1] ** 2 + 2 * MINIMIZER_SLACK * EPS * np.sum(s**2)


def near(rng, v, size):
    """The unit vector along v plus a random perturbation of norm `size`."""
    d = crandn(rng, len(v))
    x = v + size * d / np.linalg.norm(d)
    return x / np.linalg.norm(x)


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

    def test_close_singular_values_need_no_svd(self, monkeypatch, svd_calls):
        # sigma_{n-1} / sigma_n = 1 + 1e-5, a pair that unshifted inverse
        # iteration barely separates.  The shift lies within the slack of
        # sigma_n^2, so the first step is accepted and one more is taken.
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
        assert len(calls) == 2
        assert abs(np.linalg.norm(x) - 1) < 1e-14
        assert np.linalg.norm(a @ x) <= np.linalg.norm(a @ x_prev)
        assert abs(np.linalg.norm(a @ x) - s[-1]) <= s[-2] - s[-1]
        assert not svd_calls
        assert abs(np.linalg.norm(a @ x) - s[-1]) <= 1e-12 * s[0]

    def test_symmetric_block_default_start(self, svd_calls):
        # The default start is the sigma = 3 vector of this reflection-
        # symmetric block.  The shifted solve amplifies the rounding-sized
        # component along the sigma = 1 vector by about 1e15 per step.
        a = np.array([[2.0, 1.0], [1.0, 2.0], [0.0, 0.0]])
        x = smallest_singular_vector(a)
        assert not svd_calls
        assert abs(np.linalg.norm(a @ x) - 1.0) < 1e-14

    def test_cholesky_failure_falls_back_to_svd(self, monkeypatch, svd_calls):
        # eigvalsh reports the largest eigenvalue of G first, so the shift
        # lies above sigma_min^2 and G - s I has no Cholesky factor.
        rng = np.random.default_rng(17)
        a = crandn(rng, 9, 6)
        s = svd(a).singular_values
        svd_calls.clear()
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(linalg.np.linalg, "eigvalsh", lambda g: eigvalsh(g)[::-1])
        x = smallest_singular_vector(a)
        assert len(svd_calls) == 1
        assert abs(np.linalg.norm(x) - 1) < 1e-14
        assert abs(np.linalg.norm(a @ x) - s[-1]) <= 1e-12 * s[0]

    def test_step_cap_falls_back_to_svd(self, monkeypatch, svd_calls):
        # A solve that returns its right-hand side leaves x at the start, the
        # largest singular vector, which never meets the acceptance bound.
        rng = np.random.default_rng(18)
        a = crandn(rng, 9, 6)
        res = svd(a)
        svd_calls.clear()
        calls = []

        def identity_solve(factor, b, lower=0):
            calls.append(1)
            return b.copy(), 0

        monkeypatch.setattr(linalg.sla.lapack, "zpotrs", identity_solve)
        x = smallest_singular_vector(a, res.v[:, 0])
        assert len(calls) == INVERSE_ITERATION_STEPS
        assert len(svd_calls) == 1
        assert abs(np.linalg.norm(a @ x) - res.singular_values[-1]) <= 1e-12 * res.singular_values[0]

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

    @pytest.mark.parametrize("exponent", [-1060, -1070])
    def test_subnormal_input_is_scaled_up_exactly(self, exponent):
        # Every entry is subnormal; the kernel scales A up by an exact power
        # of two before its QR, so it answers for that upscaled matrix.
        rng = np.random.default_rng(19)
        a = crandn(rng, 6, 4)
        tiny = np.ldexp(a.real, exponent) + 1j * np.ldexp(a.imag, exponent)
        assert np.abs(tiny).max() < np.finfo(np.float64).tiny
        x = smallest_singular_vector(tiny)
        up = tiny.copy()
        linalg.unit_scaled(up)
        s = svd(up).singular_values
        assert abs(np.linalg.norm(up @ x) - s[-1]) <= 1e-12 * s[0]

    def test_overflowing_complex_modulus_is_scaled(self):
        # |1.5e308 (1 + i)| overflows although both parts are finite, so the
        # scale comes from the largest part: the modulus lands in [1/4, 1).
        a = np.array([[1.5e308 + 1.5e308j, 1], [0.5, 2], [1, 1]])
        up = a.copy()
        linalg.unit_scaled(up)
        assert 0.25 <= np.abs(up).max() < 1.0
        assert np.log2(up[1, 1].real / a[1, 1].real).is_integer()
        x = smallest_singular_vector(a)
        s = svd(up).singular_values
        assert abs(np.linalg.norm(x) - 1.0) <= 1e-15 and abs(abs(x[1]) - 1.0) <= 1e-15
        assert np.linalg.norm(up @ x) ** 2 <= s[-1] ** 2 + 2 * MINIMIZER_SLACK * EPS * np.sum(s**2)

    def test_zero_matrix_returns_start(self):
        start = np.array([3.0, 4.0j])
        x = smallest_singular_vector(np.zeros((3, 2)), start)
        assert np.array_equal(x, start / 5.0)

    def test_nilpotent_block_needs_no_svd(self, svd_calls):
        # A = N, the nilpotent shift: its first column is zero, so G is
        # singular and sigma_min = 0.
        n = 30
        a = np.triu(np.ones((n, n)), 1)
        x = smallest_singular_vector(a)
        assert not svd_calls
        assert abs(abs(x[0]) - 1) < 1e-12
        assert np.linalg.norm(a @ x) <= 1e-12 * np.linalg.norm(a, 2)

    @pytest.mark.parametrize("scale", [1e-120, 1e-160])
    def test_tiny_column_keeps_the_solves_finite(self, scale, svd_calls):
        # G's last diagonal entry is about scale^2, below the slack: with
        # G factored unshifted, the solves would grow past overflow.
        rng = np.random.default_rng(21)
        a = crandn(rng, 7, 5)
        a[:, -1] *= scale
        x = smallest_singular_vector(a)
        assert not svd_calls
        assert abs(np.linalg.norm(x) - 1) < 1e-14
        assert np.linalg.norm(a @ x) <= 1e-12 * np.linalg.norm(a, 2)

    def test_failed_svd_fallback_is_a_backend_error(self, monkeypatch):
        # The fallback is `svd`, so LAPACK's failure there is a BackendError, not numpy's LinAlgError.
        def failing_svd(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(linalg, "_shifted_inverse_iteration", lambda *args: None)
        monkeypatch.setattr(linalg.np.linalg, "svd", failing_svd)
        with pytest.raises(BackendError, match=r"SVD did not converge for shape \(9, 6\)"):
            smallest_singular_vector(crandn(np.random.default_rng(19), 9, 6))

    @pytest.mark.parametrize("a, start", [(np.ones((2, 3)), None), (np.eye(2), np.zeros(2)), (np.eye(2), np.ones(3))])
    def test_rejects_bad_input(self, a, start):
        with pytest.raises(ValidationError):
            smallest_singular_vector(a, start)

    # The fixture's call list is cleared in each example.
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(m_extra=st.integers(0, 6), n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["random", "graded", "rank-deficient"]))
    @example(m_extra=0, n=6, seed=0, kind="graded")
    def test_warm_start_property(self, svd_calls, m_extra, n, seed, kind):
        rng = np.random.default_rng(seed)
        a = property_matrix(rng, m_extra, n, kind)
        x0 = crandn(rng, n)
        x0 /= np.linalg.norm(x0)
        s = svd(a).singular_values
        svd_calls.clear()
        x = smallest_singular_vector(a, x0)
        assert not svd_calls
        assert_minimizer(a, x0, x, s)

    # The fixture's call list is cleared in each example.
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(m_extra=st.integers(0, 6), n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["random", "graded", "rank-deficient"]), size=st.floats(-8.0, -1.0).map(lambda e: 10**e))
    @example(m_extra=0, n=6, seed=0, kind="graded", size=1e-8)
    def test_near_converged_warm_start_property(self, svd_calls, m_extra, n, seed, kind, size):
        # The starts that sweeps pass: the minimizer of the previous sweep's
        # pencil, which the Rayleigh-quotient steps take from.
        rng = np.random.default_rng(seed)
        a = property_matrix(rng, m_extra, n, kind)
        res = svd(a)
        x0 = near(rng, res.v[:, -1], size)
        svd_calls.clear()
        x = smallest_singular_vector(a, x0)
        assert not svd_calls
        assert_minimizer(a, x0, x, res.singular_values)

    def test_warm_start_near_the_minimizer_needs_no_eigvalsh(self, svd_calls, eigvalsh_calls, solve_calls):
        # Two Rayleigh-quotient steps converge to sigma_min^2, and the
        # Cholesky at their quotient certifies it.
        rng = np.random.default_rng(22)
        a = crandn(rng, 9, 6)
        res = svd(a)
        svd_calls.clear()
        x0 = near(rng, res.v[:, -1], 1e-3)
        x = smallest_singular_vector(a, x0)
        assert (len(solve_calls), len(eigvalsh_calls), len(svd_calls)) == (2, 0, 0)
        assert_minimizer(a, x0, x, res.singular_values)

    def test_warm_start_at_the_largest_vector_falls_back_to_eigvalsh(self, svd_calls, eigvalsh_calls, solve_calls):
        # The Rayleigh-quotient steps stay at sigma_max^2, where G - s I has
        # no Cholesky factor, so the shift comes from eigvalsh.
        rng = np.random.default_rng(23)
        a = crandn(rng, 9, 6)
        res = svd(a)
        svd_calls.clear()
        x0 = res.v[:, 0]
        x = smallest_singular_vector(a, x0)
        assert (len(solve_calls), len(eigvalsh_calls), len(svd_calls)) == (2, 1, 0)
        assert_minimizer(a, x0, x, res.singular_values)

    @pytest.mark.parametrize("step", ["raises", "zero", "inf", "nan"])
    def test_failed_rayleigh_step_falls_back_to_eigvalsh(self, monkeypatch, svd_calls, eigvalsh_calls, step):
        rng = np.random.default_rng(24)
        a = crandn(rng, 9, 6)
        res = svd(a)
        svd_calls.clear()

        def failed_solve(g, y):
            if step == "raises":
                raise np.linalg.LinAlgError("Singular matrix")
            return np.full_like(y, {"zero": 0.0, "inf": np.inf, "nan": np.nan}[step])

        monkeypatch.setattr(linalg.np.linalg, "solve", failed_solve)
        x0 = near(rng, res.v[:, -1], 1e-3)
        x = smallest_singular_vector(a, x0)
        assert (len(eigvalsh_calls), len(svd_calls)) == (1, 0)
        assert_minimizer(a, x0, x, res.singular_values)

    def test_rayleigh_step_that_raises_the_quotient_keeps_the_start(self, monkeypatch, svd_calls, eigvalsh_calls):
        # Solves that return the largest singular vector leave the start, the
        # minimizer, as the lower quotient; its shift is certified.
        rng = np.random.default_rng(25)
        a = crandn(rng, 9, 6)
        res = svd(a)
        svd_calls.clear()
        monkeypatch.setattr(linalg.np.linalg, "solve", lambda g, y: res.v[:, 0].copy())
        x0 = res.v[:, -1]
        x = smallest_singular_vector(a, x0)
        assert (len(eigvalsh_calls), len(svd_calls)) == (0, 0)
        assert_minimizer(a, x0, x, res.singular_values)

    def test_cold_start_takes_eigvalsh_and_no_solve(self, svd_calls, eigvalsh_calls, solve_calls):
        rng = np.random.default_rng(26)
        a = crandn(rng, 9, 6)
        res = svd(a)
        svd_calls.clear()
        x = smallest_singular_vector(a)
        assert (len(solve_calls), len(eigvalsh_calls), len(svd_calls)) == (0, 1, 0)
        assert_minimizer(a, np.full(6, 6**-0.5), x, res.singular_values)


@pytest.mark.parametrize("complex_input, order", [(False, "C"), (True, "C"), (True, "F")],
                         ids=["real", "complex", "complex-fortran"])
def test_unit_scaled_is_exact_and_in_place(complex_input, order):
    rng = np.random.default_rng(20)
    a = 3.0e-200 * (crandn(rng, 5, 3) if complex_input else rng.standard_normal((5, 3)))
    a = np.asarray(a, order=order)
    before = a.copy()
    e = linalg.unit_scaled(a)
    assert 0.5 <= np.abs(a).max() < 1.0
    assert np.array_equal(np.ldexp(before.real, -e) + 1j * np.ldexp(before.imag, -e), a)
    zeros = np.zeros((2, 2), dtype=a.dtype)
    assert linalg.unit_scaled(zeros) == 0 and not zeros.any()


def test_unit_scaled_takes_one_exponent_for_several_arrays():
    # The largest entry over all arrays sets the one exponent, also when it
    # comes from an overflowing complex modulus.
    rng = np.random.default_rng(21)
    small, large = 1e-30 * crandn(rng, 4, 3), 1e30 * crandn(rng, 2, 5, 3)
    for arrays in ((small, large), (small, np.array([[1.5e308 + 1.5e308j]]))):
        before = [a.copy() for a in arrays]
        e = linalg.unit_scaled(*arrays)
        assert 0.25 <= max(np.abs(a).max() for a in arrays) < 1.0
        assert e == max(linalg.unit_scaled(b.copy()) for b in before)
        for a, b in zip(arrays, before):
            assert np.array_equal(np.ldexp(b.real, -e) + 1j * np.ldexp(b.imag, -e), a)


@pytest.fixture
def qz_calls(monkeypatch):
    """Records every pencil that `gep` hands to QZ."""
    calls = []
    qz = linalg._qz

    def spy(a, b, scale_a, scale_b):
        calls.append((a, b))
        return qz(a, b, scale_a, scale_b)

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
        # The real pencil and its complex cast each factor B with the LU of
        # their own dtype.
        for dtype, getrf_name in ((np.float64, "dgetrf"), (np.complex128, "zgetrf")):
            lu_infos = []
            qz_calls.clear()
            getrf = getattr(linalg.sla.lapack, getrf_name)

            def spy(*args, getrf=getrf, lu_infos=lu_infos, **kwargs):
                out = getrf(*args, **kwargs)
                lu_infos.append(out[-1])
                return out

            monkeypatch.setattr(linalg.sla.lapack, getrf_name, spy)
            res = gep(np.eye(2, dtype=dtype), np.diag([1.0, 0.0]).astype(dtype))
            finite = [a / b for a, b in zip(res.alpha, res.beta) if abs(b) > 1e-10]
            infinite = [1 for b in res.beta if abs(b) <= 1e-10]
            assert len(finite) == 1 and abs(finite[0] - 1.0) < 1e-12
            assert len(infinite) == 1
            # B is exactly singular: the LU reports it and QZ takes the pencil.
            assert lu_infos == [2] and len(qz_calls) == 1
            assert qz_calls[0][1].dtype == dtype

    @pytest.mark.parametrize("scale_a", [1.0, 1e-200])
    def test_regular_pencil_with_singular_b_keeps_its_infinite_pair(self, qz_calls, scale_a):
        # B has a zero column, so the LU fails and QZ runs.  The pencil is
        # regular: its infinite pair has beta = 0 but an alpha that is small
        # only in absolute terms when A is tiny, so it is no singular pair.
        rng = np.random.default_rng(23)
        a, b = scale_a * crandn(rng, 5, 5), crandn(rng, 5, 5)
        b[:, 2] = 0.0
        res = gep(a, b)
        assert len(qz_calls) == 1
        infinite = np.abs(res.beta) <= GEP_BACKWARD_RTOL * np.linalg.norm(b)
        assert np.count_nonzero(infinite) == 1
        assert np.abs(res.alpha[infinite])[0] > 1e-3 * np.linalg.norm(a)
        assert np.linalg.norm(b @ res.right[:, infinite]) <= 1e3 * EPS * np.linalg.norm(b)

    def test_well_conditioned_b_takes_standard_path(self, qz_calls):
        rng = np.random.default_rng(11)
        a, b = crandn(rng, 6, 6), crandn(rng, 6, 6)
        res = gep(a, b)
        assert qz_calls == []
        assert np.all(res.beta == 1.0)
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
        assert 1e-10 < 1 / np.linalg.cond(b, 1) < 1e-8
        res = gep(a, b)
        assert len(qz_calls) == 1
        assert max(pencil_backward_errors(a, b, res)) <= GEP_BACKWARD_RTOL

    def test_overflowing_standard_form_takes_qz(self, qz_calls, monkeypatch):
        # B is invertible, but B^{-1} A holds 1e10 / 1e-300 = inf, which goes
        # to QZ without a standard eig call.
        eig, eig_calls = linalg.sla.eig, []
        monkeypatch.setattr(linalg.sla, "eig", lambda *args, **kwargs: eig_calls.append(args) or eig(*args, **kwargs))
        res = gep(np.diag([1.0, 1e10]), np.diag([1.0, 1e-300]))
        assert len(qz_calls) == 1 and [len(args) for args in eig_calls] == [2]
        assert np.array_equal(res.alpha, [1.0, 1e10]) and np.array_equal(res.beta, [1.0, 1e-300])

    def test_failed_standard_eig_takes_qz(self, qz_calls, monkeypatch):
        eig, failures = linalg.sla.eig, []

        def failing_once(*args, **kwargs):
            if not failures:
                failures.append(args)
                raise linalg.sla.LinAlgError("eig did not converge")
            return eig(*args, **kwargs)

        monkeypatch.setattr(linalg.sla, "eig", failing_once)
        res = gep(np.diag([1.0, 2.0]), np.diag([1.0, 4.0]))
        assert len(failures) == 1 and len(qz_calls) == 1
        assert np.allclose(res.alpha / res.beta, [1.0, 0.5], rtol=0, atol=1e-15)

    def test_failed_qz_is_a_backend_error(self, monkeypatch):
        def failing_eig(*args, **kwargs):
            raise linalg.sla.LinAlgError("eig did not converge")

        monkeypatch.setattr(linalg.sla, "eig", failing_eig)
        with pytest.raises(BackendError, match=r"QZ iteration failed for shape \(2, 2\)"):
            gep(np.diag([1.0, 2.0]), np.diag([1.0, 4.0]))

    @pytest.mark.parametrize("a, b", [(np.eye(3), np.eye(2)), (np.ones((3, 2)), np.ones((3, 2)))],
                             ids=["unequal", "non-square"])
    def test_rejects_unequal_or_non_square_matrices(self, a, b):
        with pytest.raises(ValidationError, match="square and equal-shaped"):
            gep(a, b)

    def test_real_pencil_with_conjugate_pairs_takes_standard_path(self, qz_calls):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((12, 12))
        b = np.eye(12) + 0.1 * rng.standard_normal((12, 12))
        res = gep(a, b)
        assert qz_calls == []
        assert np.count_nonzero(res.alpha.imag) >= 2 and res.right.dtype == res.left.dtype == np.complex128
        # Pairs come out exactly conjugate, vectors too.
        assert np.array_equal(np.sort_complex(res.alpha), np.sort_complex(res.alpha.conj()))
        assert max(pencil_backward_errors(a, b, res)) <= GEP_BACKWARD_RTOL
        cast = gep(a.astype(np.complex128), b.astype(np.complex128))
        assert match_multisets(res.alpha, cast.alpha) <= 1e-12

    def test_real_pencil_with_real_spectrum_has_real_vectors(self, qz_calls):
        rng = np.random.default_rng(18)
        s = rng.standard_normal((10, 10))
        a, b = s + s.T, np.eye(10) + 0.01 * rng.standard_normal((10, 10))
        res = gep(a, b)
        assert qz_calls == []
        assert not np.any(res.alpha.imag)
        assert res.right.dtype == res.left.dtype == np.float64
        assert max(pencil_backward_errors(a, b, res)) <= GEP_BACKWARD_RTOL

    def test_ill_conditioned_real_b_takes_qz(self, qz_calls):
        rng = np.random.default_rng(12)
        u, _ = np.linalg.qr(rng.standard_normal((40, 40)))
        v, _ = np.linalg.qr(rng.standard_normal((40, 40)))
        s = np.ones(40)
        s[-3:] = 1e-8
        a, b = rng.standard_normal((40, 40)), (u * s) @ v.T
        assert 1e-10 < 1 / np.linalg.cond(b, 1) < 1e-8
        res = gep(a, b)
        assert len(qz_calls) == 1 and qz_calls[0][1].dtype == np.float64
        assert max(pencil_backward_errors(a, b, res)) <= GEP_BACKWARD_RTOL

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_standard_path_matches_qz(self, n, seed):
        rng = np.random.default_rng(seed)
        a = crandn(rng, n, n)
        b = np.eye(n) + 0.25 * crandn(rng, n, n) / np.sqrt(2 * n)  # cond(B) <= ~3
        scale_a, scale_b = np.linalg.norm(a), np.linalg.norm(b)
        std = gep(a, b)
        qz = linalg._qz(*linalg._DensePencil(a, b).pencil(), scale_a, scale_b)
        assert np.all(std.beta == 1.0)  # the standard form passed its check
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


def test_as_matrix_rejects_vectors():
    with pytest.raises(ValidationError):
        as_matrix(np.ones(3))


@pytest.mark.parametrize("a_order", ["C", "F"])
@pytest.mark.parametrize("z_order", ["C", "F"])
@pytest.mark.parametrize("dtypes", [(np.float64, np.float64), (np.float64, np.complex128), (np.complex128, np.complex128)])
def test_gemm_matches_matmul_in_any_layout(a_order, z_order, dtypes):
    rng = np.random.default_rng(21)
    a, z = (np.asarray(crandn(rng, 7, 7) if dt is np.complex128 else rng.standard_normal((7, 7)), order=order)
            for dt, order in zip(dtypes, (a_order, z_order)))
    expected = a @ z
    assert np.allclose(linalg.gemm(a, z), expected, rtol=0, atol=1e2 * EPS * np.abs(expected).max())
    out = np.empty((7, 7), dtype=expected.dtype, order="F")
    assert linalg.gemm(a, z, out=out) is out  # written in place, no copy
    assert np.array_equal(out, linalg.gemm(a, z))


def test_complete_set_path_leaves_numpy_pool_idle():
    # Numpy's pool at 2 threads and scipy's at 1: CPU over wall time above 1
    # means numpy's workers were busy during work that scipy's thread does.
    rng = np.random.default_rng(25)
    big, factored = rng.standard_normal((600, 600)), rng.standard_normal((600, 600))
    with openblas_pools(2, 1, lambda: (np.linalg.norm(big), sla.lu_factor(factored))) as canary:
        problem = spectral.discretize(spectral.builtin_sturm_liouville(n1=20, n2=20)).problem
        solve = cpu_per_wall(lambda: tsvd.solve_complete(problem))
        spec = spectral.builtin_sturm_liouville(n1=24, n2=24)
        disc = spectral.discretize(spec)
        top = tsvd.solve_complete(disc.problem)[:3]

        def evaluate():
            for _ in range(20):
                spectral.continuous_residuals(spec, disc.bases, top)
                for t in top:
                    for basis, x in zip(disc.bases, t.vectors):
                        spectral.sample_eigenfunction(basis, x)
        evaluations = cpu_per_wall(evaluate)
    assert solve <= 1.2, f"solve_complete CPU/wall {solve:.2f} (canary {canary:.2f})"
    assert evaluations <= 1.2, f"evaluations CPU/wall {evaluations:.2f} (canary {canary:.2f})"
