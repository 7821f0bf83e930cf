from dataclasses import replace

import numpy as np
import pytest

from chdarcy import model as md
from chdarcy import spectral as sp

import oracles
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


def rates(s, phi, mu, sigma, params=None):
    """(Gamma_phi, S) from the coefficients of s, under params."""
    lam_phi, theta_phi, lam_S, theta_S = s.coefficients(
        phi, sigma, params or make_params())
    return lam_phi - theta_phi * mu, lam_S - theta_S * mu


class TestSources:
    def test_hawkins_constant_rate(self):
        params = make_params()
        s = md.SourceModel.hawkins(0.1)
        phi, mu, sigma = 0.3, 0.2, 0.7
        expect = 0.1 * (params.D * sigma + params.chi * (1 - phi) - mu)
        gamma_phi, S = rates(s, phi, mu, sigma, params)
        assert abs(gamma_phi - expect) < 1e-15
        assert abs(S - expect) < 1e-15
        assert s.R5 == 0.1

    def test_hawkins_interpolated_switches_off_in_healthy_phase(self):
        params = make_params()
        s = md.SourceModel.hawkins(0.1, interpolated=True)
        assert rates(s, -1.0, 0.0, 1.0, params)[0] == 0.0
        assert abs(rates(s, 1.0, 0.0, 1.0, params)[0]
                   - 0.1 * params.D * 1.0) < 1e-15

    def test_proliferation_values(self):
        s = md.SourceModel.proliferation(2.0, 0.5, 2.0)
        # h(1) = 1: Gamma_phi = 2*sigma - 0.5, S = 2*sigma
        gamma_phi, S = rates(s, 1.0, 0.0, 1.0)
        assert abs(gamma_phi - 1.5) < 1e-15
        assert abs(S - 2.0) < 1e-15
        assert rates(s, -1.0, 0.0, 1.0)[0] == 0.0

    def _grid_fields(self, basis):
        grid = basis.default_grid
        x = grid.meshgrid()[0]
        return np.cos(np.pi * x), 0.3 * x - 0.1, 0.5 + 0.2 * x ** 2

    def test_hawkins_sources_are_one_field(self, interval_basis):
        phi_g, mu_g, sigma_g = self._grid_fields(interval_basis)
        for interpolated in (False, True):
            s = md.SourceModel.hawkins(0.1, interpolated=interpolated)
            gamma_phi, S = md.evaluate_sources(phi_g, mu_g, sigma_g, s,
                                               make_params())
            assert S is gamma_phi
            assert same_bits(S, rates(s, phi_g, mu_g, sigma_g)[1])

    def test_proliferation_sources_are_two_fields(self, interval_basis):
        phi_g, mu_g, sigma_g = self._grid_fields(interval_basis)
        s = md.SourceModel.proliferation(2.0, 0.5, 2.0)
        gamma_phi, S = md.evaluate_sources(phi_g, mu_g, sigma_g, s,
                                           make_params())
        assert S is not gamma_phi
        expect = rates(s, phi_g, mu_g, sigma_g)
        assert same_bits(gamma_phi, expect[0])
        assert same_bits(S, expect[1])


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
        mu = md.chemical_potential(
            phi, sigma, sp.to_grid(phi, interval_basis.default_grid),
            interval_basis.default_grid, params, pot)
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
        mu = md.chemical_potential(
            phi, sigma, sp.to_grid(phi, interval_basis.default_grid),
            interval_basis.default_grid, params, pot)
        expect = (-params.A + params.B * np.pi ** 2) * eps
        assert abs(mu.data[1] - expect) < 1e-12

    def test_chemotaxis_shift(self, interval_basis):
        params = make_params()
        pot = md.Potential.quartic_double_well()
        phi = sp.constant_field(interval_basis, 1.0)
        sigma = sp.constant_field(interval_basis, 1.0)
        mu = md.chemical_potential(
            phi, sigma, sp.to_grid(phi, interval_basis.default_grid),
            interval_basis.default_grid, params, pot)
        assert abs(oracles.mean(mu) + params.chi) < 1e-13


class TestDarcy:
    def test_analytic_poisson_example(self):
        # forcing cos(pi x) -> p = cos(pi x)/pi^2, v = K sin(pi x)/pi ... with
        # the forcing entering through gamma_v (mean-zero volume source)
        basis = sp.build_basis(sp.Domain("interval", (1.0,)), 8)
        params = make_params()
        grid = basis.default_grid
        data = np.zeros(basis.n_modes)
        data[1] = 1.0 / np.sqrt(2.0)   # cos(pi x)
        gamma_v = sp.FieldCoeffs(basis, data * params.K)
        zero = sp.constant_field(basis, 0.0)
        p, v = md.solve_darcy(grid, sp.gradient_on_grid(zero, grid),
                              sp.to_grid(zero, grid), sp.to_grid(zero, grid),
                              gamma_v, params)
        x = grid.nodes[0]
        assert np.allclose(sp.to_grid(p, grid),
                           np.cos(np.pi * x) / np.pi ** 2, atol=1e-12)
        assert np.allclose(v[0],
                           params.K * np.sin(np.pi * x) / np.pi, atol=1e-12)

    def test_pressure_mean_zero(self, rect_basis):
        from conftest import random_state
        params = make_params()
        pot = md.Potential.quartic_double_well()
        state = random_state(rect_basis, 21)
        grid = rect_basis.default_grid
        mu = md.chemical_potential(state.alpha, state.gamma,
                                   sp.to_grid(state.alpha, grid), grid,
                                   params, pot)
        p, _ = md.solve_darcy(grid, sp.gradient_on_grid(state.alpha, grid),
                              sp.to_grid(mu, grid),
                              sp.to_grid(state.gamma, grid), None, params)
        assert abs(oracles.mean(p)) < 1e-13

    def test_gamma_v_mean_zero_enforced(self, interval_basis):
        params = make_params()
        zero = sp.constant_field(interval_basis, 0.0)
        bad = sp.constant_field(interval_basis, 1.0)
        grid = interval_basis.default_grid
        zero_g = sp.to_grid(zero, grid)
        with pytest.raises(sp.ZeroMeanViolationError):
            md.solve_darcy(grid, sp.gradient_on_grid(zero, grid), zero_g,
                           zero_g, bad, params)


class TestGridKeywords:
    """Grid fields must live on a grid of the fields' basis."""

    def test_fields_on_another_grid_rejected(self, rect_basis):
        params = make_params()
        pot = md.Potential.quartic_double_well()
        zero = sp.constant_field(rect_basis, 0.0)
        another = sp.build_basis(rect_basis.domain, rect_basis.modes)
        with pytest.raises(sp.BasisMismatchError):
            md.chemical_potential(
                zero, zero, sp.to_grid(sp.constant_field(another, 0.0),
                                       another.default_grid),
                another.default_grid, params, pot)


class TestNutrientFreeEnergy:
    def test_density_and_derivatives(self, interval_basis):
        params = make_params(D=2.0, chi=0.5)
        grid = interval_basis.default_grid
        shape = grid.npoints
        phi = np.full(shape, 0.0)
        sigma = np.full(shape, 1.0)
        N, N_sigma, N_phi = oracles.nutrient_free_energy_density(phi, sigma, params)
        assert np.allclose(N, 1.0 + 0.5)
        assert np.allclose(N_sigma, 2.0 + 0.5)
        assert np.allclose(N_phi, -0.5)


class TestValidation:
    def test_hawkins_quartic_is_case2(self):
        model = make_model()
        rep = md.validate_assumptions(model)
        assert rep.passed
        assert rep.regime == "case2"
        assert oracles.sign_condition_witness(model) is None

    def test_proliferation_quadratic_is_case1(self):
        sources = md.SourceModel.proliferation(0.5, 0.2, 0.5)
        pot = md.Potential.quadratic()
        rep = md.validate_assumptions(make_model(sources=sources,
                                                 potential=pot))
        assert rep.regime == "case1"
        assert rep.passed

    def test_constant_rate_failure_has_a_witness(self):
        # the constant Hawkins rate is a float, not a grid array; the check
        # broadcasts it to the sample grid to locate the failing sample
        sources = md.SourceModel.hawkins(-0.1)
        theta_phi = sources.coefficients(np.zeros(3), np.zeros(3),
                                         make_params())[1]
        assert isinstance(theta_phi, float)
        rep = md.validate_assumptions(make_model(sources=sources))
        sign = next(c for c in rep.checks
                    if c.name == "A3 theta_phi nonnegative")
        assert not sign.passed
        assert len(sign.witness) == 3 and sign.witness[2] == -0.1

    def test_constant_closures_store_no_grid_array(self):
        phi = np.zeros((3, 40, 30))
        zero = md.SourceModel.zero()
        assert zero.coefficients(phi, phi, make_params()) == (0.0,) * 4
        assert same_bits(rates(zero, phi, -phi - 1.0, phi)[0],
                         np.zeros_like(phi))

    def test_large_chemotaxis_fails_smallness(self):
        rep = md.validate_assumptions(make_model(make_params(chi=10.0)))
        names = [c.name for c in rep.failures()]
        assert any("smallness" in n for n in names)

    def test_limit_modes_relax_positivity(self):
        m = make_model(make_params(K=0.0, b=0.0), sources="zero")
        assert not md.validate_assumptions(m).passed
        relaxed = md.validate_assumptions(m, allow_limit_modes=True)
        hard = [c for c in relaxed.failures() if c.name != "A5 growth regime"]
        assert not hard

    def test_report_lines_format(self):
        lines = md.validate_assumptions(make_model()).lines()
        assert lines[0].startswith("regime:")
        assert all(line.startswith(("[PASS]", "[FAIL]")) for line in lines[1:])


class TestModelRebuild:
    def test_replaced_params_reach_the_sources(self):
        # the sources are data and keep no constant of the model
        model = make_model()
        assert not any(callable(v) for v in vars(model.sources).values())
        changed = replace(model, params=replace(model.params, chi=0.0, D=2.0))
        # sources must see the new constants
        val = md.evaluate_sources(0.0, 0.0, 1.0, changed.sources,
                                  changed.params)[0]
        assert abs(val - 0.1 * 2.0) < 1e-15

    def test_effective_drops_chemotaxis(self):
        model = make_model()
        eff = model.effective("no-chemotaxis")
        assert eff.params.chi == 0.0
        assert model.params.chi == 0.05
        assert model.effective("none") is model
        no_flow = model.effective("no-flow")
        assert no_flow.params.K == 0.0 and no_flow.params.chi == 0.05
        assert model.params.K == 1.0
