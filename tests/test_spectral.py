import warnings

import numpy as np
import pytest

from rmep import spectral
from rmep.errors import DomainError, ValidationError
from rmep.model import EigenTuple, dehomogenize, homogenize
from rmep.spectral import (
    ChebyshevBasis,
    OdeEquation,
    OdeSpec,
    build_basis,
    builtin_mathieu,
    builtin_sturm_liouville,
    continuous_residuals,
    discretize,
    elliptic_mode_grid,
    mathieu_geometry,
    reconstruct,
    sample_eigenfunction,
)
from rmep.tsvd import solve_complete

from conftest import EPS


def project_onto_basis(basis: ChebyshevBasis, fn):
    """Weighted least-squares coefficients of a function on the basis."""
    sw = np.sqrt(basis.weights)[:, None]
    samples = np.array([fn(t) for t in basis.nodes])
    c, *_ = np.linalg.lstsq(basis.values * sw, samples * sw[:, 0], rcond=None)
    return c


class TestBuildBasis:
    def test_constant_basis_function(self):
        basis = build_basis((0.0, 2.0), 8)
        assert np.allclose(basis.values[:, 0], 1.0)
        assert np.allclose(basis.second_derivs[:, 0], 0.0)

    def test_degree_one_and_chain_rule(self):
        basis = build_basis((0.0, 1.0), 8)
        # tau_2 = T_1 of the mapped variable: linear, zero second derivative
        assert np.allclose(basis.values[:, 1], 2.0 * basis.nodes - 1.0)
        assert np.allclose(basis.second_derivs[:, 1], 0.0)
        # tau_3 = T_2 = 2x^2 - 1: second derivative 4 * (2/(b-a))^2
        assert np.allclose(basis.second_derivs[:, 2], 16.0)

    def test_weights_sum_to_length(self):
        for interval in [(-1.0, 1.0), (0.0, 1.0), (2.0, 7.5)]:
            basis = build_basis(interval, 10)
            assert abs(basis.weights.sum() - (interval[1] - interval[0])) <= 1e-12 * (interval[1] - interval[0])

    def test_odd_function_integrates_to_zero(self):
        basis = build_basis((0.0, 1.0), 10)
        assert abs(basis.weights @ basis.values[:, 1]) <= 1e-14

    def test_t2_squared_analytic_integral(self):
        # int_{-1}^{1} T_2(x)^2 dx = 14/15 via the cos(2 theta) substitution
        basis = build_basis((-1.0, 1.0), 12)
        val = basis.weights @ (basis.values[:, 2] ** 2)
        assert abs(val - 14.0 / 15.0) <= 1e-12

    def test_all_basis_norms_match_analytic(self):
        # int_{-1}^{1} T_j^2 = 1 - 1/(4 j^2 - 1), scaled by (b-a)/2 on mapping
        basis = build_basis((0.0, 3.0), 12)
        for j in range(basis.n):
            val = basis.weights @ (basis.values[:, j] ** 2)
            expected = (3.0 / 2.0) * (1.0 - 1.0 / (4.0 * j * j - 1.0))
            assert abs(val - expected) <= 1e-10 * abs(expected)

    def test_odd_node_count_rule_is_exact(self):
        # oversampling 3 at n = 5 gives 15 nodes, the even-degree branch of
        # the Clenshaw-Curtis weights; 15 nodes integrate t^j exactly to j = 14
        a, b = 0.5, 2.0
        basis = build_basis((a, b), 5, oversampling=3)
        assert basis.nodes.size == 15
        assert abs(basis.weights.sum() - (b - a)) <= 1e-14
        for j in range(15):
            exact = (b ** (j + 1) - a ** (j + 1)) / (j + 1)
            assert abs(basis.weights @ basis.nodes**j - exact) <= 1e-13 * exact

    def test_rejects_tiny_n(self):
        with pytest.raises(ValidationError):
            build_basis((0.0, 1.0), 3)


def _equation(interval=(0.0, 1.0), n=6, f=lambda t: 0.0):
    return OdeEquation(p=lambda t: 1.0, q=lambda t: 1.0, f=f, interval=interval, n=n)


@pytest.mark.parametrize(
    "make, match",
    [
        (lambda: build_basis((0, 1), 4, 0), "oversampling must be >= 1"),
        (lambda: build_basis((0, 1), 4.5), "n must be an integer"),
        (lambda: build_basis((1.0, 0.0), 6), "invalid interval"),
        (lambda: _equation(interval=(0.0, np.inf)), "invalid interval"),
        (lambda: _equation(n=3), "n must be >= 4"),
        (lambda: OdeSpec(equations=(_equation(),)), "exactly two equations"),
        (lambda: OdeSpec(equations=(_equation(), _equation()), oversampling=1.5), "oversampling must be an integer"),
        (lambda: OdeSpec(equations=(_equation(), _equation()), oversampling=0), "oversampling must be >= 1"),
        (lambda: discretize(OdeSpec(equations=(_equation(), _equation(f=lambda t: np.nan)))), "non-finite values"),
        (lambda: reconstruct(build_basis((0.0, 1.0), 6), np.ones(5)), "length 5, basis expects 6"),
    ],
    ids=["zero-oversampling", "fractional-n", "reversed-interval", "infinite-interval", "tiny-n", "one-equation",
         "fractional-oversampling", "spec-zero-oversampling", "non-finite-coefficient", "reconstruct-length"],
)
def test_rejects_invalid_input(make, match):
    with pytest.raises(ValidationError, match=match):
        make()


class TestDiscretize:
    def test_shapes_and_boundary_rows(self):
        spec = builtin_sturm_liouville(n1=8, n2=10)
        disc = discretize(spec)
        assert disc.problem.shapes == ((10, 8), (12, 10))
        for blk in disc.problem.blocks:
            for bi in blk.b:
                assert np.all(bi[-2:, :] == 0.0)

    @pytest.mark.parametrize("make", [lambda: builtin_sturm_liouville(n1=8, n2=10),
                                      lambda: builtin_mathieu(4.0, 1.0, n1=9, n2=6)], ids=["sl", "mathieu"])
    def test_spec_states_the_block_shapes(self, make):
        # The CLI judges capacity from spec.shapes before it discretizes.
        spec = make()
        assert discretize(spec).problem.shapes == spec.shapes

    def test_gram_consistency(self):
        # R^H R must reproduce the weighted Gram matrix of the operator table
        spec = builtin_sturm_liouville(n1=8, n2=8)
        disc = discretize(spec)
        basis = disc.bases[0]
        sw = np.sqrt(basis.weights)[:, None]
        table = basis.second_derivs * sw  # f = 0 for this system
        gram = table.conj().T @ table
        r = disc.problem.blocks[0].a[:8, :]
        assert np.linalg.norm(r.conj().T @ r - gram) <= 1e-11 * max(1.0, np.linalg.norm(gram))

    def test_g_block_is_projected_mass(self):
        # for p = 1 the G block is Q^H (weighted basis table), with the same
        # positive-diagonal phase convention as the assembly
        spec = builtin_sturm_liouville(n1=8, n2=8)
        disc = discretize(spec)
        basis = disc.bases[0]
        sw = np.sqrt(basis.weights)[:, None]
        table = basis.second_derivs * sw
        q, r = np.linalg.qr(table)
        d = np.diag(r)
        phase = np.where(np.abs(d) > 0, d / np.abs(np.where(d == 0, 1.0, d)), 1.0)
        q = q * phase.conj()
        expected = q.conj().T @ (basis.values * sw)
        assert np.linalg.norm(disc.problem.blocks[0].b[0][:8, :] + expected) <= 1e-11

    def test_oversampling_convergence(self):
        # doubling the quadrature should leave assembled entries unchanged to
        # spectral accuracy for smooth coefficients; needs a full-rank operator
        # table (nonzero f), otherwise the QR direction matching the structural
        # kernel of d^2/dt^2 is arbitrary and not comparable entrywise.  The
        # basis is kept moderate: growing n lets polynomials approximate the
        # smooth near-kernel of the operator ever better, and the resulting
        # grading amplifies the (tiny) quadrature differences in the trailing
        # factor directions.
        def make(ov):
            eq1 = OdeEquation(p=lambda s: 1.0, q=lambda s: -1.0, f=lambda s: 1.0 + s, interval=(0.0, 1.0), n=8)
            eq2 = OdeEquation(p=lambda t: np.cos(t), q=lambda t: 1.0, f=lambda t: np.exp(-t), interval=(0.0, 1.0), n=8)
            return OdeSpec(equations=(eq1, eq2), oversampling=ov)

        d1 = discretize(make(4))
        d2 = discretize(make(8))
        for b1, b2 in zip(d1.problem.blocks, d2.problem.blocks):
            for m1, m2 in zip((b1.a,) + b1.b, (b2.a,) + b2.b):
                scale = np.abs(m1).max()
                assert np.abs(m1 - m2).max() <= 1e-10 * scale

    def test_oversampling_invariant_eigenvalues_for_zero_f(self):
        # with the structural kernel present only converged quantities are
        # comparable: the best eigenvalues must agree across oversampling
        pi2 = np.pi**2
        for ov in (4, 8):
            disc = discretize(builtin_sturm_liouville(n1=12, n2=12, oversampling=ov))
            tuples = solve_complete(disc.problem, seed=0)
            best = min(abs(dehomogenize(t.value)[0] - pi2) for t in tuples if t.residual is not None)
            assert best <= 1e-8

    def test_rank_warning_only_for_rank_deficient_block(self):
        # f = 0 leaves degree < 2 in the kernel of the operator table, but the
        # boundary rows restore the assembled block's rank: no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            discretize(builtin_sturm_liouville(n1=8, n2=8))
            discretize(builtin_mathieu(4.0, 1.0, n1=12, n2=12))
        # u'' + u = 0 on (0, pi): sin t meets both boundary conditions
        eq = OdeEquation(p=lambda t: 1.0, q=lambda t: 0.0, f=lambda t: 1.0, interval=(0.0, np.pi), n=20)
        with pytest.warns(UserWarning, match="rank-deficient"):
            discretize(OdeSpec(equations=(eq, eq)))


class TestReconstruct:
    def test_unit_coefficient(self):
        basis = build_basis((0.0, 1.0), 6)
        c = np.zeros(6)
        c[0] = 1.0
        u = reconstruct(basis, c)
        assert abs(u(0.3) - 1.0) < 1e-14

    def test_degree_one(self):
        basis = build_basis((-1.0, 1.0), 6)
        c = np.zeros(6)
        c[1] = 1.0
        u = reconstruct(basis, c)
        for x in (-0.5, 0.0, 0.9):
            assert abs(u(x) - x) < 1e-14

    def test_matches_value_table(self):
        rng = np.random.default_rng(0)
        basis = build_basis((0.0, 2.0), 9)
        c = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        u = reconstruct(basis, c)
        assert np.max(np.abs(u(basis.nodes) - basis.values @ c)) <= 1e-13 * np.abs(basis.values @ c).max()

    def test_domain_error(self):
        basis = build_basis((0.0, 1.0), 6)
        u = reconstruct(basis, np.ones(6))
        with pytest.raises(DomainError):
            u(1.5)

    def test_sampling_helper(self):
        basis = build_basis((0.0, 1.0), 6)
        t, u = sample_eigenfunction(basis, np.eye(6)[0], num=11)
        assert t.shape == (11,) and u.shape == (11,)
        assert np.allclose(u, 1.0)


class TestContinuousResidual:
    def test_projected_exact_eigenfunction(self):
        # project sin(i pi s), sin(j pi t) on a generous basis and evaluate the
        # defect at the exact eigenvalue tuple
        spec = builtin_sturm_liouville(n1=40, n2=40)
        disc_bases = (build_basis((0.0, 1.0), 40), build_basis((0.0, 1.0), 40))
        i, j = 1, 2
        lam = 0.5 * (i * i + j * j) * np.pi**2
        mu = 0.5 * (j * j - i * i) * np.pi**2
        c1 = project_onto_basis(disc_bases[0], lambda s: np.sin(i * np.pi * s))
        c2 = project_onto_basis(disc_bases[1], lambda t: np.sin(j * np.pi * t))
        c1 = c1 / np.linalg.norm(c1)
        c2 = c2 / np.linalg.norm(c2)
        tup = EigenTuple(value=homogenize([lam, mu]), vectors=(c1, c2))
        s1, s2, total = continuous_residuals(spec, disc_bases, [tup])[0]
        assert total <= 1e-8

    def test_zero_vector_flagged(self):
        spec = builtin_sturm_liouville(n1=6, n2=6)
        bases = (build_basis((0.0, 1.0), 6), build_basis((0.0, 1.0), 6))
        val = homogenize([1.0, 0.0])
        z = np.zeros(6)
        e = np.eye(6)[0]
        # zero vectors are not unit, so bypass EigenTuple validation
        tup = EigenTuple(value=val, vectors=(e, e))
        object.__setattr__(tup, "vectors", (z, z))
        with pytest.warns(UserWarning, match="zero coefficient"):
            s1, s2, total = continuous_residuals(spec, bases, [tup])[0]
        assert s1 == 0.0

    def test_vectors_read_on_their_own_bases(self):
        # 36-term vectors on 36-term bases work with a 30-term spec; on the
        # spec's own 30-term bases they are rejected
        spec30 = builtin_sturm_liouville(n1=30, n2=30)
        spec36 = builtin_sturm_liouville(n1=36, n2=36)
        bases36 = (build_basis((0.0, 1.0), 36), build_basis((0.0, 1.0), 36))
        c = [project_onto_basis(b, lambda t: np.sin(np.pi * t)) for b in bases36]
        tup = EigenTuple(value=homogenize([np.pi**2, 0.0]), vectors=tuple(x / np.linalg.norm(x) for x in c))
        assert continuous_residuals(spec30, bases36, [tup])[0] == continuous_residuals(spec36, bases36, [tup])[0]
        with pytest.raises(ValidationError, match="length 36"):
            continuous_residuals(spec30, discretize(spec30).bases, [tup])[0]

    def test_additivity(self):
        spec = builtin_sturm_liouville(n1=8, n2=8)
        disc = discretize(spec)
        tuples = solve_complete(disc.problem, seed=0)
        best = tuples[0]
        s1, s2, total = continuous_residuals(spec, disc.bases, [best])[0]
        assert total == pytest.approx(s1 + s2)

    @pytest.mark.parametrize("mathieu", [False, True], ids=["sl", "mathieu"])
    def test_batch_equals_per_tuple_defects(self, monkeypatch, mathieu):
        # The per-tuple reference rebuilds the refined grid for every vector;
        # it evaluates the series as continuous_residuals does, by einsum.
        spec = builtin_mathieu(4.0, 1.0, n1=12, n2=12) if mathieu else builtin_sturm_liouville(n1=12, n2=12)
        disc = discretize(spec)
        finite = [t for t in solve_complete(disc.problem, seed=0) if t.residual is not None][:10]
        expected = []
        for t in finite:
            lam, mu = dehomogenize(t.value)
            s = []
            for eq, basis, x in zip(spec.equations, disc.bases, t.vectors):
                fine = build_basis(basis.interval, basis.n, 2 * basis.oversampling)
                pv, qv, fv = (np.array([g(float(v)) for v in fine.nodes]) for g in (eq.p, eq.q, eq.f))
                u, upp = (np.einsum("ij,j->i", table, x) for table in (fine.values, fine.second_derivs))
                defect = upp + (lam * pv + mu * qv + fv) * u
                s.append(float(fine.weights @ np.abs(defect)))
            expected.append((s[0], s[1], s[0] + s[1]))
        builds = []
        original = spectral.build_basis
        monkeypatch.setattr(spectral, "build_basis", lambda *args: builds.append(args) or original(*args))
        assert continuous_residuals(spec, disc.bases, finite) == expected
        assert len(builds) == 2


def test_elliptic_mode_grid_on_mathieu_12():
    """psi is u1(s) u2(t) on the s-major mesh, and the mesh's outer edge,
    t = xi0, lies on the ellipse x^2/alpha^2 + y^2/beta^2 = 1."""
    alpha, beta = 4.0, 1.0
    disc = discretize(builtin_mathieu(alpha, beta, n1=12, n2=12))
    tup = next(t for t in solve_complete(disc.problem, seed=0) if t.value.is_finite())
    x, y, psi = elliptic_mode_grid(alpha, beta, disc.bases, tup)
    shape = (spectral.MODE_GRID_ANGULAR, spectral.MODE_GRID_RADIAL)
    assert x.shape == y.shape == psi.shape == (shape[0] * shape[1],)
    _, xi0 = mathieu_geometry(alpha, beta)
    s = np.linspace(0.0, np.pi / 2.0, shape[0])
    t = np.linspace(0.0, xi0, shape[1])
    u1, u2 = (reconstruct(basis, v) for basis, v in zip(disc.bases, tup.vectors))
    assert np.array_equal(psi.reshape(shape), np.outer(u1(s), u2(t)))
    edge = (x.reshape(shape)[:, -1] / alpha) ** 2 + (y.reshape(shape)[:, -1] / beta) ** 2
    assert np.max(np.abs(edge - 1.0)) <= 1e-14


class TestBuiltins:
    def test_sl_spec_shape(self):
        spec = builtin_sturm_liouville(n1=12, n2=14)
        assert spec.equations[0].n == 12
        assert spec.equations[1].n == 14
        assert spec.equations[0].q(0.3) == -1.0
        assert spec.equations[1].q(0.3) == 1.0
        assert spec.equations[0].p(0.9) == 1.0

    def test_sl_closed_forms_small_basis(self, ):
        # end-to-end at n = 16: the best tuples already match the closed forms
        disc = discretize(builtin_sturm_liouville(n1=16, n2=16))
        tuples = solve_complete(disc.problem, seed=0)
        pi2 = np.pi**2
        closed = [
            (0.5 * (i * i + j * j) * pi2, 0.5 * (j * j - i * i) * pi2)
            for i in range(1, 10)
            for j in range(1, 10)
        ]
        for tup in tuples[:6]:
            lam, mu = dehomogenize(tup.value)
            err = min(max(abs(lam - l), abs(mu - m)) for l, m in closed)
            assert err <= 1e-6

    def test_boundary_exactness_of_accepted_tuples(self):
        disc = discretize(builtin_sturm_liouville(n1=16, n2=16))
        tuples = solve_complete(disc.problem, seed=0)
        accepted = [t for t in tuples if t.residual is not None and t.residual <= 1e-12]
        assert accepted
        for tup in accepted:
            for r in range(2):
                u = reconstruct(disc.bases[r], tup.vectors[r])
                a, b = disc.bases[r].interval
                bound = 1e3 * EPS * np.linalg.norm(tup.vectors[r])
                assert abs(u(a)) <= bound
                assert abs(u(b)) <= bound

    def test_mathieu_geometry(self):
        h, xi0 = mathieu_geometry(4.0, 1.0)
        assert abs(h - np.sqrt(15.0)) < 1e-15
        assert abs(xi0 - np.arccosh(4.0 / np.sqrt(15.0))) < 1e-15

    def test_mathieu_signs(self):
        spec = builtin_mathieu(4.0, 1.0, n1=8, n2=8)
        eq1, eq2 = spec.equations
        assert eq1.p(0.3) == 1.0
        assert eq1.q(0.0) == -2.0  # -2 cos(0)
        assert eq2.p(0.1) == -1.0
        assert abs(eq2.q(0.0) - 2.0) < 1e-15  # +2 cosh(0)
        assert abs(eq1.interval[1] - np.pi / 2) < 1e-15
        assert abs(eq2.interval[1] - np.arccosh(4.0 / np.sqrt(15.0))) < 1e-15

    def test_mathieu_rejects_bad_axes(self):
        with pytest.raises(ValidationError, match="need alpha > beta > 0"):
            builtin_mathieu(1.0, 4.0)


@pytest.mark.slow
def test_continuous_defect_levels_at_n30(sl_solution_n30):
    """The ten best tuples of the n = 30 solve have L1 defects below 1e-6."""
    spec, disc, tuples = sl_solution_n30
    for tup in tuples[:10]:
        _, _, total = continuous_residuals(spec, disc.bases, [tup])[0]
        assert total <= 1e-6


@pytest.mark.slow
def test_basis_size_monotonicity(sl_solution_n30):
    """|computed lambda(1,1) - pi^2| is non-increasing over n in {10, 20, 30}."""
    pi2 = np.pi**2
    errors = []
    for n in (10, 20):
        disc = discretize(builtin_sturm_liouville(n1=n, n2=n))
        tuples = solve_complete(disc.problem, seed=0)
        best = min(
            abs(dehomogenize(t.value)[0] - pi2)
            for t in tuples
            if t.residual is not None
        )
        errors.append(best)
    _, _, tuples30 = sl_solution_n30
    errors.append(min(abs(dehomogenize(t.value)[0] - pi2) for t in tuples30 if t.residual is not None))
    assert errors[0] >= errors[1] >= errors[2]


@pytest.mark.slow
def test_mathieu_gate8_basis_with_seed_6004():
    """Gate 8's basis at seed 6004, whose pencil the mass matrix once failed
    to solve: the 8 smallest-rho finite tuples meet every clause of gate 8."""
    spec = builtin_mathieu(4.0, 1.0, n1=40, n2=24)
    disc = discretize(spec)
    h, _ = mathieu_geometry(4.0, 1.0)
    tuples = [t for t in solve_complete(disc.problem, seed=6004) if t.residual is not None][:8]
    assert len(tuples) == 8
    for t in tuples:
        mu = complex(dehomogenize(t.value)[1])
        omega = 2.0 * np.sqrt(mu) / h
        assert t.residual <= 1e-8
        assert continuous_residuals(spec, disc.bases, [t])[0][2] <= 1e-5
        for z in (mu, omega):
            assert abs(z.imag) <= 1e-8 * max(1.0, abs(z.real)) and z.real > 0
