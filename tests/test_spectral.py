import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chdarcy import spectral as sp

import oracles
from conftest import same_bits


def dense_edge_quadrature_boundary_matrix(basis, n=4000):
    """Oracle: assemble the boundary mass matrix by sampling the edges."""
    if basis.dim == 1:
        L = basis.domain.lengths[0]
        W = np.empty((2, basis.n_modes))
        for j in range(basis.n_modes):
            e = np.zeros(basis.n_modes)
            e[j] = 1.0
            m = j
            w = np.sqrt(2.0 / L) if m else 1.0 / np.sqrt(L)
            W[0, j] = w * np.cos(0.0)
            W[1, j] = w * np.cos(m * np.pi)
        return W.T @ W

    (Lx, Ly), (kx, ky) = basis.domain.lengths, basis.modes

    def w1(L, m, x):
        if m == 0:
            return np.full_like(x, 1.0 / np.sqrt(L))
        return np.sqrt(2.0 / L) * np.cos(m * np.pi * x / L)

    M = np.zeros((basis.n_modes, basis.n_modes))
    xs = (np.arange(n) + 0.5) * (Lx / n)
    ys = (np.arange(n) + 0.5) * (Ly / n)
    for j in range(basis.n_modes):
        mjx, mjy = divmod(j, ky)
        for i in range(j, basis.n_modes):
            mix, miy = divmod(i, ky)
            # edges y = 0 and y = Ly
            val = 0.0
            for y in (0.0, Ly):
                prod = (w1(Lx, mjx, xs) * w1(Lx, mix, xs)
                        * w1(Ly, mjy, np.array(y)) * w1(Ly, miy, np.array(y)))
                val += np.sum(prod) * (Lx / n)
            for x in (0.0, Lx):
                prod = (w1(Ly, mjy, ys) * w1(Ly, miy, ys)
                        * w1(Lx, mjx, np.array(x)) * w1(Lx, mix, np.array(x)))
                val += np.sum(prod) * (Ly / n)
            M[j, i] = M[i, j] = val
    return M


class TestDomain:
    def test_volume_and_boundary(self):
        d = sp.Domain("rectangle", (2.0, 3.0))
        assert d.volume == 6.0
        assert d.boundary_measure == 10.0
        assert sp.Domain("interval", (2.0,)).boundary_measure == 2.0

    def test_rejects_bad_domains(self):
        with pytest.raises(sp.InvalidDomainError):
            sp.Domain("interval", (0.0,))
        with pytest.raises(sp.InvalidDomainError):
            sp.Domain("rectangle", (1.0,))
        with pytest.raises(sp.InvalidDomainError):
            sp.Domain("disk", (1.0,))


class TestEigenstructure:
    def test_eigenvalues_1d(self):
        L = 2.5
        basis = sp.build_basis(sp.Domain("interval", (L,)), 16)
        m = np.arange(16)
        assert np.allclose(basis.eigenvalues, (m * np.pi / L) ** 2,
                           rtol=0, atol=1e-12)

    def test_eigenvalues_2d_tensor_sum(self, rect_basis):
        Lx, Ly = rect_basis.domain.lengths
        kx, ky = rect_basis.modes
        expect = [(mx * np.pi / Lx) ** 2 + (my * np.pi / Ly) ** 2
                  for mx in range(kx) for my in range(ky)]
        assert np.allclose(rect_basis.eigenvalues, expect, rtol=0, atol=1e-12)

    def test_orthonormality(self, rect_basis):
        grid = rect_basis.default_grid
        k = rect_basis.n_modes
        G = np.empty((k, k))
        fields = []
        for j in range(k):
            e = np.zeros(k)
            e[j] = 1.0
            fields.append(sp.to_grid(sp.FieldCoeffs(rect_basis, e), grid))
        W = grid.W
        for j in range(k):
            for i in range(k):
                G[j, i] = np.sum(W * fields[j] * fields[i])
        assert np.max(np.abs(G - np.eye(k))) < 1e-13

    def test_laplacian_eigenrelation(self, interval_basis):
        # -w_m'' = lambda_m w_m, checked through the derivative matrices
        grid = interval_basis.default_grid
        L = interval_basis.domain.lengths[0]
        x = grid.nodes[0]
        for m in (1, 3, 7):
            e = np.zeros(interval_basis.n_modes)
            e[m] = 1.0
            c = sp.FieldCoeffs(interval_basis, e)
            lap = sp.divergence_to_coeffs(grid, sp.gradient_on_grid(c, grid))
            # weak Laplacian of an eigenfunction is -lambda_m e_m
            assert np.allclose(lap.data, -interval_basis.eigenvalues * e,
                               atol=1e-12)


    @pytest.mark.parametrize("kind,lengths,modes", [
        ("interval", (1.0,), 8), ("interval", (2.5,), 128),
        ("rectangle", (1.0, 1.5), (5, 4)), ("rectangle", (2.0, 1.0), (7, 6)),
        ("rectangle", (1.0, 1.5), (16, 16))])
    def test_quadrature_stiffness_is_the_eigenvalue_diagonal(
            self, kind, lengths, modes):
        # the premise of the diagonal diffusive rates of dynamics.rhs and
        # the spectral dissipation of diagnostics.energy: on the default
        # grid the midpoint rule integrates grad(w_i).grad(w_j) exactly
        basis = sp.build_basis(sp.Domain(kind, lengths), modes)
        grid = basis.default_grid
        lam = basis.eigenvalues
        tol = 1e-12 * lam.max()
        stiffness = oracles.quadrature_stiffness(grid)
        assert np.max(np.abs(stiffness - np.diag(lam))) <= tol
        # so a constant-mobility flux projects to -m lam mu
        m = 0.7
        mu = sp.FieldCoeffs(basis, np.random.default_rng(7).uniform(
            -1.0, 1.0, basis.n_modes))
        flux = tuple(m * g for g in sp.gradient_on_grid(mu, grid))
        projected = sp.weak_form(grid, None, flux).data
        assert np.max(np.abs(projected + m * lam * mu.data)) <= tol


class TestTransforms:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_round_trip(self, seed):
        basis = sp.build_basis(sp.Domain("interval", (1.0,)), 12)
        rng = np.random.default_rng(seed)
        c = sp.FieldCoeffs(basis, rng.standard_normal(basis.n_modes))
        grid = basis.default_grid
        back = sp.to_coeffs(grid, sp.to_grid(c, grid))
        assert np.max(np.abs(back.data - c.data)) < 1e-13

    def test_round_trip_2d(self, rect_basis):
        rng = np.random.default_rng(5)
        c = sp.FieldCoeffs(rect_basis, rng.standard_normal(rect_basis.n_modes))
        grid = rect_basis.default_grid
        back = sp.to_coeffs(grid, sp.to_grid(c, grid))
        assert np.max(np.abs(back.data - c.data)) < 1e-13

    def test_gradient_matches_analytic(self, interval_basis):
        grid = interval_basis.default_grid
        x = grid.nodes[0]
        c = sp.to_coeffs(grid, np.cos(2 * np.pi * x))
        (g,) = sp.gradient_on_grid(c, grid)
        assert np.allclose(g, -2 * np.pi * np.sin(2 * np.pi * x),
                           atol=1e-12)

    def test_weak_divergence_is_gradient_adjoint(self, rect_basis):
        rng = np.random.default_rng(11)
        grid = rect_basis.default_grid
        c = sp.FieldCoeffs(rect_basis, rng.standard_normal(rect_basis.n_modes))
        gx = sp.to_grid(sp.FieldCoeffs(
            rect_basis, rng.standard_normal(rect_basis.n_modes)), grid)
        gy = sp.to_grid(sp.FieldCoeffs(
            rect_basis, rng.standard_normal(rect_basis.n_modes)), grid)
        div = sp.divergence_to_coeffs(grid, (gx, gy))
        lhs = float(div.data @ c.data)
        grad_c = sp.gradient_on_grid(c, grid)
        W = grid.W
        rhs = -float(np.sum(W * (gx * grad_c[0] + gy * grad_c[1])))
        assert abs(lhs - rhs) < 1e-12

    @pytest.mark.parametrize("basis", [
        sp.build_basis(sp.Domain("interval", (1.3,)), 9),
        sp.build_basis(sp.Domain("rectangle", (1.0, 1.5)), (6, 5)),
    ], ids=["interval", "rectangle"])
    def test_weak_form_tests_source_and_flux_together(self, basis):
        rng = np.random.default_rng(12)
        grid = basis.default_grid

        def field():
            return rng.standard_normal(grid.npoints)

        s, flux = field(), tuple(field() for _ in range(basis.dim))
        both = sp.weak_form(grid, s, flux).data
        # int s w_j - int F . grad(w_j), each w_j taken on the grid
        W = grid.W
        for j in range(basis.n_modes):
            e = np.zeros(basis.n_modes)
            e[j] = 1.0
            w = sp.FieldCoeffs(basis, e)
            expect = np.sum(W * s * sp.to_grid(w, grid)) - sum(
                np.sum(W * F * dw)
                for F, dw in zip(flux, sp.gradient_on_grid(w, grid)))
            assert abs(both[j] - expect) < 1e-12
        assert np.array_equal(sp.to_coeffs(grid, s).data,
                              sp.weak_form(grid, s).data)
        assert np.array_equal(sp.divergence_to_coeffs(grid, flux).data,
                              sp.weak_form(grid, None, flux).data)

    def test_weak_form_rejects_mismatched_fluxes(self, rect_basis):
        grid = rect_basis.default_grid
        s = np.ones(grid.npoints)
        with pytest.raises(sp.BasisMismatchError):
            sp.weak_form(grid, s, (s,))

    def test_mean_and_constant_field(self, rect_basis):
        c = sp.constant_field(rect_basis, 0.5)
        assert abs(oracles.mean(c) - 0.5) < 1e-15
        grid = rect_basis.default_grid
        assert np.allclose(sp.to_grid(c, grid), 0.5, atol=1e-14)

    def test_dealias_minimum_enforced(self, interval_basis):
        with pytest.raises(sp.BasisMismatchError):
            interval_basis.grid_with_points((8,))

    def test_grid_takes_one_point_count_per_axis(self, interval_basis,
                                                 rect_basis):
        # each count is at its axis's dealiasing minimum
        for basis, npoints in ((interval_basis, (16, 16)),
                               (rect_basis, (10,))):
            with pytest.raises(sp.BasisMismatchError):
                basis.grid_with_points(npoints)

    def test_basis_mismatch_rejected(self, interval_basis, rect_basis):
        c = sp.constant_field(interval_basis, 1.0)
        with pytest.raises(sp.BasisMismatchError):
            sp.to_grid(c, rect_basis.default_grid)

    def test_nonfinite_coefficients_rejected(self, interval_basis):
        data = np.zeros(interval_basis.n_modes)
        data[2] = np.nan
        with pytest.raises(sp.SpectralError):
            sp.FieldCoeffs(interval_basis, data)


class TestInverseLaplacian:
    def test_two_sided_inverse(self, rect_basis):
        rng = np.random.default_rng(2)
        data = rng.standard_normal(rect_basis.n_modes)
        data[0] = 0.0
        c = sp.FieldCoeffs(rect_basis, data)
        forward = sp.FieldCoeffs(rect_basis, rect_basis.eigenvalues * c.data)
        back = oracles.inverse_neumann_laplacian(forward)
        assert np.max(np.abs(back.data - c.data)) < 1e-12
        fwd2 = sp.FieldCoeffs(
            rect_basis,
            rect_basis.eigenvalues * oracles.inverse_neumann_laplacian(c).data)
        assert np.max(np.abs(fwd2.data - c.data)) < 1e-12

    def test_mean_zero_precondition(self, interval_basis):
        c = sp.constant_field(interval_basis, 1.0)
        with pytest.raises(sp.ZeroMeanViolationError):
            oracles.inverse_neumann_laplacian(c)


class TestBoundary:
    def test_1d_closed_form_entries(self):
        basis = sp.build_basis(sp.Domain("interval", (1.0,)), 4)
        M = oracles.boundary_mass_matrix(basis)
        assert abs(M[0, 0] - 2.0) < 1e-14
        assert abs(M[1, 1] - 4.0) < 1e-14
        assert abs(M[0, 1]) < 1e-14          # odd mode cancels across ends
        assert abs(M[0, 2] - 2.0 * np.sqrt(2.0)) < 1e-14

    def test_matches_dense_edge_oracle_1d(self):
        basis = sp.build_basis(sp.Domain("interval", (1.3,)), 7)
        M = oracles.boundary_mass_matrix(basis)
        assert np.max(np.abs(M - dense_edge_quadrature_boundary_matrix(basis))) < 1e-10

    def test_matches_dense_edge_oracle_2d(self, rect_basis):
        M = oracles.boundary_mass_matrix(rect_basis)
        oracle = dense_edge_quadrature_boundary_matrix(rect_basis)
        assert np.max(np.abs(M - oracle)) < 1e-10

    def test_symmetric_psd(self, rect_basis):
        M = oracles.boundary_mass_matrix(rect_basis)
        assert np.max(np.abs(M - M.T)) < 1e-13
        assert np.min(np.linalg.eigvalsh(M)) > -1e-12

    @pytest.mark.parametrize("kind, lengths, modes", [
        ("interval", (1.3,), 9),
        ("rectangle", (1.0, 1.0), 7),
        ("rectangle", (1.0, 2.5), (6, 4)),
    ])
    def test_matrix_free_apply_matches_dense(self, kind, lengths, modes):
        basis = sp.build_basis(sp.Domain(kind, lengths), modes)
        M = oracles.boundary_mass_matrix(basis)
        rng = np.random.default_rng(12)
        for _ in range(3):
            c = rng.standard_normal(basis.n_modes)
            expect = M @ c
            got = sp.boundary_mass_apply(basis, c)
            assert got.shape == expect.shape
            assert (np.linalg.norm(got - expect)
                    <= 1e-12 * np.linalg.norm(expect))

    def test_integral_vector_is_constant_column(self, rect_basis):
        bvec = rect_basis.boundary_vector
        # applied to the constant field it returns the boundary measure
        one = sp.constant_field(rect_basis, 1.0)
        assert abs(float(bvec @ one.data)
                   - rect_basis.domain.boundary_measure) < 1e-12


class TestNorms:
    def test_h1_combines_l2_and_seminorm(self, interval_basis):
        rng = np.random.default_rng(9)
        c = sp.FieldCoeffs(interval_basis, rng.standard_normal(interval_basis.n_modes))
        h1 = sp.norm(c, "H1")
        expect = np.sqrt(sp.norm(c) ** 2 + sp.norm(c, "H1-seminorm") ** 2)
        assert abs(h1 - expect) < 1e-12

    def test_l2_norm_matches_quadrature(self, rect_basis):
        rng = np.random.default_rng(10)
        c = sp.FieldCoeffs(rect_basis, rng.standard_normal(rect_basis.n_modes))
        grid = rect_basis.default_grid
        vals = sp.to_grid(c, grid)
        assert abs(sp.norm(c) ** 2 - grid.integrate(vals ** 2)) < 1e-12


class TestGridOwnership:
    def test_default_grid_is_kept_for_the_life_of_its_basis(self):
        domain = sp.Domain("interval", (1.0,))
        b0 = sp.build_basis(domain, 8)
        first = b0.default_grid
        others = [sp.build_basis(domain, 8) for _ in range(128)]
        for b in others:
            b.default_grid
        assert b0.default_grid is first

    def test_dropped_basis_is_freed(self):
        basis = sp.build_basis(sp.Domain("rectangle", (1.0, 2.0)), (4, 3))
        basis.default_grid
        ref = weakref.ref(basis)
        del basis
        gc.collect()
        assert ref() is None


class TestCrossDimension:
    """A rectangle with one mode along an axis of length Ly is the
    interval times that axis's constant mode 1/sqrt(Ly), whichever axis
    carries the interval's modes."""

    L, Ly, k = 1.3, 0.7, 9

    @pytest.fixture(params=[0, 1], ids=["modes-along-x", "modes-along-y"])
    def pair(self, request):
        axis = request.param
        interval = sp.build_basis(sp.Domain("interval", (self.L,)), self.k)
        g1 = interval.default_grid
        lengths, modes, npoints = [self.Ly] * 2, [1] * 2, [3] * 2
        lengths[axis], modes[axis], npoints[axis] = self.L, self.k, g1.npoints[0]
        rect = sp.build_basis(sp.Domain("rectangle", tuple(lengths)),
                              tuple(modes))
        return interval, g1, rect, rect.grid_with_points(tuple(npoints)), axis

    def test_rectangle_reproduces_the_interval(self, pair):
        interval, g1, rect, g2, axis = pair

        def close(a, b):
            return np.max(np.abs(a - b)) < 1e-13

        def spread(values):
            """Interval values, constant along the rectangle's other axis."""
            return np.broadcast_to(np.expand_dims(values, 1 - axis),
                                   g2.npoints)

        root = np.sqrt(self.Ly)
        rng = np.random.default_rng(5)
        data = rng.standard_normal(self.k)
        c1, c2 = sp.FieldCoeffs(interval, data), sp.FieldCoeffs(rect, data)
        assert close(root * sp.to_grid(c2, g2), spread(sp.to_grid(c1, g1)))
        grad = sp.gradient_on_grid(c2, g2)
        assert close(root * grad[axis],
                     spread(sp.gradient_on_grid(c1, g1)[0]))
        assert np.all(grad[1 - axis] == 0.0)

        s, F = rng.standard_normal((2,) + g1.npoints)
        flux = [np.zeros(g2.npoints)] * 2
        flux[axis] = spread(F)
        assert close(sp.weak_form(g2, spread(s)).data / root,
                     sp.weak_form(g1, s).data)
        assert close(sp.weak_form(g2, spread(s), tuple(flux)).data / root,
                     sp.weak_form(g1, s, (F,)).data)

        assert np.array_equal(rect.eigenvalues, interval.eigenvalues)
        assert close(sp.boundary_mass_apply(rect, data),
                     sp.boundary_mass_apply(interval, data)
                     + 2.0 / self.Ly * data)


class TestMemberAxis:
    """Leading member axes: each member of a batch is computed as it
    would be alone, bit for bit, for batches of one and of three."""

    @pytest.fixture(params=["interval", "rectangle", (6, 1), (1, 5)],
                    ids=["interval", "rectangle", "rectangle-6x1",
                         "rectangle-1x5"])
    def basis(self, request, interval_basis, rect_basis):
        if request.param == "interval":
            return interval_basis
        if request.param == "rectangle":
            return rect_basis
        return sp.build_basis(rect_basis.domain, request.param)

    @pytest.fixture(params=[1, 3], ids=["1-member", "3-members"])
    def data(self, request, basis):
        rng = np.random.default_rng(20 + request.param)
        return rng.standard_normal((request.param, basis.n_modes))

    def grid_batch(self, basis, seed, members):
        g = basis.default_grid
        rng = np.random.default_rng(seed)
        return g, rng.standard_normal((members,) + g.npoints)

    def test_to_grid(self, basis, data):
        g = basis.default_grid
        batch = sp.to_grid(sp.FieldCoeffs(basis, data), g)
        for row, member in zip(data, batch):
            assert same_bits(member, sp.to_grid(sp.FieldCoeffs(basis, row), g))

    def test_gradient_on_grid(self, basis, data):
        g = basis.default_grid
        batch = sp.gradient_on_grid(sp.FieldCoeffs(basis, data), g)
        for i, row in enumerate(data):
            alone = sp.gradient_on_grid(sp.FieldCoeffs(basis, row), g)
            assert all(same_bits(b[i], a)
                       for b, a in zip(batch, alone))

    def test_weak_form(self, basis, data):
        g, source = self.grid_batch(basis, 21, len(data))
        fluxes = [self.grid_batch(basis, 22 + d, len(data))[1]
                  for d in range(basis.dim)]
        batch = sp.weak_form(g, source, tuple(fluxes)).data
        for i in range(len(data)):
            alone = sp.weak_form(g, source[i], tuple(F[i] for F in fluxes))
            assert same_bits(batch[i], alone.data)

    def test_boundary_mass_apply(self, basis, data):
        batch = sp.boundary_mass_apply(basis, data)
        for row, member in zip(data, batch):
            assert same_bits(member, sp.boundary_mass_apply(basis, row))

    def test_inverse_neumann_laplacian(self, basis, data):
        data = data.copy()
        data[:, 0] = 0.0
        batch = oracles.inverse_neumann_laplacian(sp.FieldCoeffs(basis, data)).data
        for row, member in zip(data, batch):
            alone = oracles.inverse_neumann_laplacian(sp.FieldCoeffs(basis, row))
            assert same_bits(member, alone.data)

    def test_inverse_laplacian_checks_every_member(self, basis, data):
        data = data.copy()
        data[:, 0] = 0.0
        data[-1, 0] = 1e-3
        with pytest.raises(sp.ZeroMeanViolationError):
            oracles.inverse_neumann_laplacian(sp.FieldCoeffs(basis, data))

    def test_norms_per_member(self, basis, data):
        c = sp.FieldCoeffs(basis, data)
        for kind in ("L2", "H1", "H1-seminorm"):
            batch = sp.norm(c, kind)
            for row, member in zip(data, batch):
                assert member == sp.norm(sp.FieldCoeffs(basis, row), kind)

    def test_integrate_refuses_a_batch(self, basis, data):
        g, values = self.grid_batch(basis, 23, len(data))
        with pytest.raises(sp.BasisMismatchError):
            g.integrate(values)
        for member, total in zip(values, g.integrate_members(values)):
            assert total == g.integrate(member)

    def test_shape_and_finite_checks_per_member(self, basis, data):
        with pytest.raises(sp.BasisMismatchError):
            sp.FieldCoeffs(basis, data[:, 1:])
        bad = data.copy()
        bad[-1, -1] = np.nan
        with pytest.raises(sp.SpectralError):
            sp.FieldCoeffs(basis, bad)
        g, values = self.grid_batch(basis, 24, len(data))
        with pytest.raises(sp.BasisMismatchError):
            sp.to_coeffs(g, values[..., 1:])
