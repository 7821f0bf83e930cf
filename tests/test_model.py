import numpy as np
import pytest

from chdarcy import model as md
from chdarcy import spectral as sp

from conftest import make_model, make_params, same_bits


class TestParams:
    def test_rejects_nonpositive_core_constants(self):
        for name in ("A", "B", "D"):
            with pytest.raises(ValueError):
                make_params(**{name: 0.0})

    def test_rejects_negative_degenerate_constants(self):
        for name in ("K", "chi", "b"):
            with pytest.raises(ValueError):
                make_params(**{name: -1.0})
            make_params(**{name: 0.0})  # zero is a valid limit value

    def test_with_returns_modified_copy(self):
        p = make_params()
        q = p.with_(K=0.25)
        assert q.K == 0.25 and p.K == 1.0


class TestPotential:
    def test_quartic_values(self):
        pot = md.Potential.quartic_double_well()
        assert pot.psi(0.0) == 0.25
        assert pot.psi(1.0) == 0.0 and pot.psi(-1.0) == 0.0
        assert pot.dpsi(0.0) == 0.0
        assert pot.d2psi(1.0) == 2.0

    def test_quartic_lower_bound(self):
        pot = md.Potential.quartic_double_well()
        t = np.linspace(-5, 5, 2001)
        assert np.all(pot.psi(t) >= pot.R1 * t ** 2 - pot.R2 - 1e-12)

    def test_quadratic_growth_metadata(self):
        pot = md.Potential.quadratic()
        t = np.linspace(-5, 5, 2001)
        assert np.all(pot.psi(t) <= pot.R3 * (1 + t ** 2) + 1e-12)
        assert np.all(np.abs(pot.dpsi(t)) <= pot.R4 * (1 + np.abs(t)) + 1e-12)


class TestSources:
    def test_hawkins_constant_rate(self):
        params = make_params()
        s = md.SourceModel.hawkins(0.1, params)
        phi, mu, sigma = 0.3, 0.2, 0.7
        expect = 0.1 * (params.D * sigma + params.chi * (1 - phi) - mu)
        assert abs(s.gamma_phi(phi, mu, sigma) - expect) < 1e-15
        assert abs(s.S(phi, mu, sigma) - expect) < 1e-15
        assert s.R5 == 0.1

    def test_hawkins_interpolated_switches_off_in_healthy_phase(self):
        params = make_params()
        s = md.SourceModel.hawkins(0.1, params, interpolated=True)
        assert s.gamma_phi(-1.0, 0.0, 1.0) == 0.0
        assert abs(s.gamma_phi(1.0, 0.0, 1.0)
                   - 0.1 * params.D * 1.0) < 1e-15

    def test_proliferation_values(self):
        s = md.SourceModel.proliferation(2.0, 0.5, 2.0)
        # h(1) = 1: Gamma_phi = 2*sigma - 0.5, S = 2*sigma
        assert abs(s.gamma_phi(1.0, 0.0, 1.0) - 1.5) < 1e-15
        assert abs(s.S(1.0, 0.0, 1.0) - 2.0) < 1e-15
        assert s.gamma_phi(-1.0, 0.0, 1.0) == 0.0

    def _grid_fields(self, basis):
        grid = sp.default_grid(basis)
        x = grid.meshgrid()[0]
        return (sp.GridField(grid, np.cos(np.pi * x)),
                sp.GridField(grid, 0.3 * x - 0.1),
                sp.GridField(grid, 0.5 + 0.2 * x ** 2))

    def test_hawkins_sources_are_one_field(self, interval_basis):
        phi_g, mu_g, sigma_g = self._grid_fields(interval_basis)
        for interpolated in (False, True):
            s = md.SourceModel.hawkins(0.1, make_params(),
                                       interpolated=interpolated)
            gamma_phi, S = md.evaluate_sources(phi_g, mu_g, sigma_g, s)
            assert S is gamma_phi
            assert same_bits(S.values, s.S(phi_g.values, mu_g.values,
                                           sigma_g.values))

    def test_proliferation_sources_are_two_fields(self, interval_basis):
        phi_g, mu_g, sigma_g = self._grid_fields(interval_basis)
        s = md.SourceModel.proliferation(2.0, 0.5, 2.0)
        gamma_phi, S = md.evaluate_sources(phi_g, mu_g, sigma_g, s)
        assert S is not gamma_phi
        args = (phi_g.values, mu_g.values, sigma_g.values)
        assert same_bits(gamma_phi.values, s.gamma_phi(*args))
        assert same_bits(S.values, s.S(*args))

    def test_growth_bound_enforced_in_debug(self, interval_basis):
        grid = sp.default_grid(interval_basis)
        shape = grid.npoints
        f = lambda v: sp.GridField(grid, np.full(shape, v))
        bad = md.SourceModel(
            "bad", lambda p, s: np.exp(10 * np.abs(p)),
            lambda p, s: np.zeros_like(p),
            lambda p, s: np.zeros_like(p), lambda p, s: np.zeros_like(p),
            R0=1.0)
        with pytest.raises(ValueError):
            md.evaluate_sources(f(5.0), f(0.0), f(0.0), bad, debug=True)


class TestInterpolation:
    def test_h_clamps(self):
        assert md.interpolation_h(-2.0) == 0.0
        assert md.interpolation_h(2.0) == 1.0
        assert md.interpolation_h(0.0) == 0.5


class TestChemicalPotential:
    def test_zero_at_well_minima(self, interval_basis):
        params = make_params(chi=0.0)
        pot = md.Potential.quartic_double_well()
        phi = sp.constant_field(interval_basis, 1.0)
        sigma = sp.constant_field(interval_basis, 0.0)
        mu = md.chemical_potential(phi, sigma, params, pot)
        assert np.max(np.abs(mu.data)) < 1e-13

    def test_linearization_about_zero(self, interval_basis):
        # psi'(eps cos) ~ -eps cos, so mu ~ (-A + B pi^2) eps cos
        params = make_params(chi=0.0)
        pot = md.Potential.quartic_double_well()
        eps = 1e-6
        data = np.zeros(interval_basis.n_modes)
        data[1] = eps
        phi = sp.FieldCoeffs(interval_basis, data)
        sigma = sp.constant_field(interval_basis, 0.0)
        mu = md.chemical_potential(phi, sigma, params, pot)
        expect = (-params.A + params.B * np.pi ** 2) * eps
        assert abs(mu.data[1] - expect) < 1e-12

    def test_chemotaxis_shift(self, interval_basis):
        params = make_params()
        pot = md.Potential.quartic_double_well()
        phi = sp.constant_field(interval_basis, 1.0)
        sigma = sp.constant_field(interval_basis, 1.0)
        mu = md.chemical_potential(phi, sigma, params, pot)
        assert abs(mu.mean() + params.chi) < 1e-13


class TestDarcy:
    def test_analytic_poisson_example(self):
        # forcing cos(pi x) -> p = cos(pi x)/pi^2, v = K sin(pi x)/pi ... with
        # the forcing entering through gamma_v (mean-zero volume source)
        basis = sp.build_basis(sp.Domain("interval", (1.0,)), 8)
        params = make_params()
        grid = sp.default_grid(basis)
        data = np.zeros(basis.n_modes)
        data[1] = 1.0 / np.sqrt(2.0)   # cos(pi x)
        gamma_v = sp.FieldCoeffs(basis, data * params.K)
        zero = sp.constant_field(basis, 0.0)
        p, v = md.solve_darcy(zero, zero, zero, gamma_v, params, grid)
        x = grid.nodes[0]
        assert np.allclose(sp.to_grid(p, grid).values,
                           np.cos(np.pi * x) / np.pi ** 2, atol=1e-12)
        assert np.allclose(v[0].values,
                           params.K * np.sin(np.pi * x) / np.pi, atol=1e-12)

    def test_pressure_mean_zero(self, rect_basis):
        from conftest import random_state
        params = make_params()
        pot = md.Potential.quartic_double_well()
        state = random_state(rect_basis, 21)
        mu = md.chemical_potential(state.alpha, state.gamma, params, pot)
        p, _ = md.solve_darcy(state.alpha, mu, state.gamma, None, params)
        assert abs(p.mean()) < 1e-13

    def test_gamma_v_mean_zero_enforced(self, interval_basis):
        params = make_params()
        zero = sp.constant_field(interval_basis, 0.0)
        bad = sp.constant_field(interval_basis, 1.0)
        with pytest.raises(sp.ZeroMeanViolationError):
            md.solve_darcy(zero, zero, zero, bad, params)


class TestGridKeywords:
    """Grid fields handed in replace the transforms, with the same result."""

    def test_chemical_potential_takes_phi_on_the_grid(self, rect_basis):
        from conftest import random_state
        params = make_params()
        pot = md.Potential.quartic_double_well()
        state = random_state(rect_basis, 22)
        grid = sp.default_grid(rect_basis)
        mu = md.chemical_potential(state.alpha, state.gamma, params, pot)
        given = md.chemical_potential(state.alpha, state.gamma, params, pot,
                                      grid, phi_g=sp.to_grid(state.alpha, grid))
        assert np.array_equal(mu.data, given.data)

    def test_solve_darcy_takes_fields_on_the_grid(self, rect_basis):
        from conftest import random_state
        params = make_params()
        state = random_state(rect_basis, 23)
        mu = random_state(rect_basis, 24).alpha
        grid = sp.default_grid(rect_basis)
        p, v = md.solve_darcy(state.alpha, mu, state.gamma, None, params)
        p2, v2 = md.solve_darcy(
            state.alpha, mu, state.gamma, None, params, grid,
            grad_phi=sp.gradient_on_grid(state.alpha, grid),
            mu_g=sp.to_grid(mu, grid), sigma_g=sp.to_grid(state.gamma, grid))
        assert np.array_equal(p.data, p2.data)
        assert all(np.array_equal(a.values, b.values) for a, b in zip(v, v2))

    def test_fields_on_another_grid_rejected(self, rect_basis):
        params = make_params()
        pot = md.Potential.quartic_double_well()
        zero = sp.constant_field(rect_basis, 0.0)
        other = rect_basis.quadrature_grid(oversample=3.0)
        with pytest.raises(sp.BasisMismatchError):
            md.chemical_potential(zero, zero, params, pot,
                                  phi_g=sp.to_grid(zero, other))
        with pytest.raises(sp.BasisMismatchError):
            md.solve_darcy(zero, zero, zero, None, params,
                           mu_g=sp.to_grid(zero, other))


class TestNutrientFreeEnergy:
    def test_density_and_derivatives(self, interval_basis):
        params = make_params(D=2.0, chi=0.5)
        grid = sp.default_grid(interval_basis)
        shape = grid.npoints
        phi = sp.GridField(grid, np.full(shape, 0.0))
        sigma = sp.GridField(grid, np.full(shape, 1.0))
        N, N_sigma, N_phi = md.nutrient_free_energy_density(phi, sigma, params)
        assert np.allclose(N.values, 1.0 + 0.5)
        assert np.allclose(N_sigma.values, 2.0 + 0.5)
        assert np.allclose(N_phi.values, -0.5)


class TestValidation:
    def test_hawkins_quartic_is_case2(self):
        params = make_params()
        m = make_model(params)
        rep = md.validate_assumptions(params, m.potential, m.mobility_m,
                                      m.mobility_n, m.sources,
                                      check_sign_condition=True)
        assert rep.passed
        assert rep.regime == "case2"

    def test_proliferation_quadratic_is_case1(self):
        params = make_params()
        sources = md.SourceModel.proliferation(0.5, 0.2, 0.5)
        pot = md.Potential.quadratic()
        rep = md.validate_assumptions(params, pot, md.Mobility.constant(1.0),
                                      md.Mobility.constant(1.0), sources)
        assert rep.regime == "case1"
        assert rep.passed

    def test_large_chemotaxis_fails_smallness(self):
        params = make_params(chi=10.0)
        m = make_model(params)
        rep = md.validate_assumptions(params, m.potential, m.mobility_m,
                                      m.mobility_n, m.sources)
        names = [c.name for c in rep.failures()]
        assert any("smallness" in n for n in names)

    def test_limit_modes_relax_positivity(self):
        params = make_params(K=0.0, b=0.0)
        m = make_model(params, sources="zero")
        strict = md.validate_assumptions(params, m.potential, m.mobility_m,
                                         m.mobility_n, m.sources)
        assert not strict.passed
        relaxed = md.validate_assumptions(params, m.potential, m.mobility_m,
                                          m.mobility_n, m.sources,
                                          allow_limit_modes=True)
        hard = [c for c in relaxed.failures() if c.name != "A5 growth regime"]
        assert not hard

    def test_report_lines_format(self):
        params = make_params()
        m = make_model(params)
        rep = md.validate_assumptions(params, m.potential, m.mobility_m,
                                      m.mobility_n, m.sources)
        lines = rep.lines()
        assert lines[0].startswith("regime:")
        assert all(line.startswith(("[PASS]", "[FAIL]")) for line in lines[1:])


class TestModelRebuild:
    def test_with_params_rebuilds_hawkins(self):
        model = make_model()
        changed = model.with_params(model.params.with_(chi=0.0, D=2.0))
        # sources must see the new constants
        val = changed.sources.gamma_phi(0.0, 0.0, 1.0)
        assert abs(val - 0.1 * 2.0) < 1e-15

    def test_effective_drops_chemotaxis(self):
        model = make_model()
        eff = model.effective(no_chemotaxis=True)
        assert eff.params.chi == 0.0
        assert model.params.chi == 0.05
        assert model.effective(no_chemotaxis=False) is model
