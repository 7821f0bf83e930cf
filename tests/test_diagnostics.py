from pathlib import Path

import numpy as np
import pytest

from chdarcy import config as cf
from chdarcy import diagnostics as dg
from chdarcy import dynamics as dyn
from chdarcy import model as md
from chdarcy import spectral as sp

from conftest import make_model, make_params, random_state


def constant_state(basis, phi_val, sigma_val, t=0.0):
    return dyn.SimState(t, sp.constant_field(basis, phi_val),
                        sp.constant_field(basis, sigma_val))


class TestEnergyValues:
    def test_double_well_midpoint(self, interval_basis):
        model = make_model(make_params(b=0.0), sources="zero")
        bd = dg.energy(constant_state(interval_basis, 0.0, 0.0), model)
        assert abs(bd.total - 0.25) < 1e-13   # A psi(0) |Omega| = 1 * 1/4 * 1
        assert abs(bd.gradient_part) < 1e-14
        assert abs(bd.nutrient_part) < 1e-14

    def test_well_minimum_has_zero_energy(self, interval_basis):
        model = make_model(make_params(b=0.0), sources="zero")
        bd = dg.energy(constant_state(interval_basis, 1.0, 0.0), model)
        assert abs(bd.total) < 1e-13
        assert abs(bd.dissipation) < 1e-13
        assert abs(bd.work) < 1e-13

    def test_nutrient_and_chemotaxis_parts(self, interval_basis):
        model = make_model(make_params(D=2.0, chi=0.5, b=0.0), sources="zero")
        bd = dg.energy(constant_state(interval_basis, 0.0, 1.0), model)
        assert abs(bd.psi_part - 0.25) < 1e-13
        assert abs(bd.nutrient_part - 1.0) < 1e-13
        assert abs(bd.chemotaxis_part - 0.5) < 1e-13
        assert abs(bd.total - 1.75) < 1e-13

    def test_parts_sum_to_total(self, rect_basis):
        model = make_model()
        bd = dg.energy(random_state(rect_basis, 14), model)
        parts = (bd.psi_part + bd.gradient_part + bd.nutrient_part
                 + bd.chemotaxis_part)
        assert abs(bd.total - parts) < 1e-12 * max(1.0, abs(bd.total))

    def test_dissipation_nonnegative(self, rect_basis):
        model = make_model()
        for seed in range(5):
            bd = dg.energy(random_state(rect_basis, seed), model)
            assert bd.diss_mu >= -1e-12
            assert bd.diss_nutrient >= -1e-12
            assert bd.diss_darcy >= -1e-12
            assert bd.diss_boundary >= -1e-12

    def test_boundary_dissipation_closed_form(self, interval_basis):
        # sigma = 1 on [0,1]: D b int_bdry sigma^2 = D b * 2
        params = make_params(D=2.0, b=0.3)
        model = make_model(params, sources="zero")
        bd = dg.energy(constant_state(interval_basis, 1.0, 1.0), model)
        assert abs(bd.diss_boundary - 2.0 * 0.3 * 2.0) < 1e-13

    def test_hawkins_source_work_sign(self, rect_basis):
        # Gamma_phi = S = f (N_sigma - mu) makes the two source work terms
        # combine to -f int (N_sigma - mu)^2 <= 0
        model = make_model(make_params(b=0.0))
        for seed in range(5):
            bd = dg.energy(random_state(rect_basis, seed), model)
            assert bd.work_phi_source + bd.work_nutrient_source <= 1e-12


class TestSingleModeOracle:
    def setup_linear(self, kappa=2.0):
        pot = md.Potential(
            kind="linear-test",
            psi=lambda t: 0.5 * kappa * t * t,
            dpsi=lambda t: kappa * t,
            d2psi=lambda t: np.full_like(np.asarray(t, float), kappa),
            R1=0.125, R2=1.0)
        params = make_params(chi=0.0, b=0.0)
        model = make_model(params, sources="zero", potential=pot)
        return params, model, kappa

    def test_energy_and_dissipation_closed_form(self):
        # one mode alpha_m: E = (A kappa + B lam)/2 alpha^2 and the only
        # dissipation channel is |grad mu|^2 = lam (A kappa + B lam)^2 alpha^2
        params, model, kappa = self.setup_linear()
        basis = sp.build_basis(sp.Domain("interval", (1.0,)), 6)
        config = dyn.StepperConfig(dt=1e-3, no_flow=True)
        data = np.zeros(basis.n_modes)
        data[2] = 0.4
        state = dyn.SimState(0.0, sp.FieldCoeffs(basis, data),
                             sp.constant_field(basis, 0.0))
        lam = basis.eigenvalues[2]
        coef = params.A * kappa + params.B * lam
        bd = dg.energy(state, model, config)
        assert abs(bd.total - 0.5 * coef * 0.4 ** 2) < 1e-12
        assert abs(bd.diss_mu - lam * coef ** 2 * 0.4 ** 2) < 1e-10
        assert abs(bd.power + bd.dissipation) < 1e-12  # no work terms


class TestEnergyIdentity:
    def test_zero_at_equilibrium(self, interval_basis):
        model = make_model(make_params(b=0.0), sources="zero")
        config = dyn.StepperConfig(dt=1e-3)
        traj = dyn.run(constant_state(interval_basis, 1.0, 0.0),
                       config, model, 0.01)
        res = dg.energy_identity_residual(traj, model, config)
        assert res.max_abs < 1e-13

    def test_first_order_in_dt(self, interval_basis):
        model = make_model()
        state = random_state(interval_basis, 40, scale=0.2)
        T = 0.02

        def integral(dt):
            config = dyn.StepperConfig(dt=dt)
            traj = dyn.run(state.copy(), config, model, T)
            return dg.energy_identity_residual(traj, model, config).integral_abs

        ratio = integral(1e-3) / integral(5e-4)
        assert 1.5 < ratio < 2.7

    def test_needs_two_snapshots(self, interval_basis):
        model = make_model()
        traj = dyn.Trajectory()
        traj.append(random_state(interval_basis, 1))
        with pytest.raises(ValueError):
            dg.energy_identity_residual(traj, model)


class TestMassBalance:
    def test_sigma_relaxes_toward_boundary_supply(self, interval_basis):
        # phi pinned at a well minimum, no volume sources: the nutrient
        # mass obeys d/dt mass = b (sigma_inf |bdry| - int_bdry sigma)
        model = make_model(make_params(b=0.5), sources="zero", sigma_inf=1.0)
        config = dyn.StepperConfig(dt=1e-3)
        traj = dyn.run(constant_state(interval_basis, 1.0, 0.2),
                       config, model, 0.05)
        mb = dg.mass_balance_residuals(traj, model, config)
        assert mb.max_rel_phi < 1e-13
        assert mb.max_rel_sigma < 1e-13
        masses = [s.gamma.data[0] for s in traj.states]
        assert masses[-1] > masses[0]

    def test_residual_detects_tampering(self, interval_basis):
        model = make_model()
        config = dyn.StepperConfig(dt=1e-3)
        traj = dyn.run(random_state(interval_basis, 3), config, model, 0.01)
        bad = traj.states[-1].alpha.data.copy()
        bad[0] += 1e-3
        traj.states[-1] = dyn.SimState(traj.states[-1].t,
                                       sp.FieldCoeffs(interval_basis, bad),
                                       traj.states[-1].gamma)
        mb = dg.mass_balance_residuals(traj, model, config)
        assert mb.max_rel_phi > 1e-4


@pytest.fixture(scope="module")
def traj_pair():
    basis = sp.build_basis(sp.Domain("interval", (1.0,)), 8)
    model = make_model()
    state = random_state(basis, 50, scale=0.2)
    out = {}
    for dt in (1e-3, 5e-4):
        config = dyn.StepperConfig(dt=dt)
        out[dt] = (dyn.run(state.copy(), config, model, 0.02), config)
    return model, out


class TestWeakResiduals:
    @pytest.mark.parametrize("equation", ["mu", "pressure", "velocity"])
    def test_algebraic_relations_hold_to_roundoff(self, traj_pair, equation):
        model, out = traj_pair
        traj, config = out[1e-3]
        for j in (0, 3):
            r = dg.weak_residual(traj, j, equation, model, config)
            assert r.max_abs < 1e-9

    @pytest.mark.parametrize("equation", ["phi", "sigma"])
    def test_evolution_residual_first_order(self, traj_pair, equation):
        model, out = traj_pair
        vals = {}
        for dt, (traj, config) in out.items():
            vals[dt] = dg.weak_residual(traj, 3, equation, model,
                                        config).integrated
        ratio = vals[1e-3] / vals[5e-4]
        assert 1.5 < ratio < 2.7

    def test_rejects_bad_inputs(self, interval_basis):
        model = make_model()
        config = dyn.StepperConfig(dt=1e-3)
        traj = dyn.run(random_state(interval_basis, 1), config, model, 0.002)
        with pytest.raises(IndexError):
            dg.weak_residual(traj, 99, "phi", model, config)
        with pytest.raises(ValueError):
            dg.weak_residual(traj, 0, "vorticity", model, config)


class TestPressureReformulations:
    def test_routes_agree_on_random_states(self, rect_basis):
        model = make_model()
        for seed in range(5):
            ref = dg.pressure_reformulations(random_state(rect_basis, seed),
                                             model)
            assert ref.max_spread < 1e-9

    def test_lambda_v_equals_rescaled_pressure(self, interval_basis):
        # the third route is the rescaled pressure itself
        model = make_model()
        ref = dg.pressure_reformulations(random_state(interval_basis, 9), model)
        assert np.array_equal(ref.lambda_v[2].values, ref.p_tilde.values)

    def test_trivial_state(self, interval_basis):
        model = make_model(make_params(b=0.0), sources="zero")
        ref = dg.pressure_reformulations(
            dyn.SimState(0.0, sp.constant_field(interval_basis, 1.0),
                         sp.constant_field(interval_basis, 0.0)), model)
        assert ref.max_spread < 1e-13
        assert np.max(np.abs(ref.p_tilde.values)) < 1e-13


class TestGronwall:
    def test_exponential_solution_saturates_bound(self):
        t = np.linspace(0.0, 2.0, 4001)
        alpha0, beta0 = 1.5, 0.8
        g = dg.GronwallInput(t=t, alpha=np.full_like(t, alpha0),
                             beta=np.full_like(t, beta0),
                             u=alpha0 * np.exp(beta0 * t),
                             v=np.zeros_like(t))
        env = dg.gronwall_envelope(g)
        assert env.satisfied
        assert np.max(np.abs(env.bound - env.monitored)) < 1e-9

    def test_zero_rate_reduces_to_additive_bound(self):
        t = np.linspace(0.0, 1.0, 101)
        g = dg.GronwallInput(t=t, alpha=2.0 + t, beta=np.zeros_like(t),
                             u=np.ones_like(t), v=np.zeros_like(t))
        env = dg.gronwall_envelope(g)
        assert np.allclose(env.bound, 2.0 + t, atol=1e-13)

    def test_violation_reported(self):
        t = np.linspace(0.0, 1.0, 101)
        g = dg.GronwallInput(t=t, alpha=np.ones_like(t), beta=np.zeros_like(t),
                             u=np.full_like(t, 3.0), v=np.zeros_like(t))
        env = dg.gronwall_envelope(g)
        assert not env.satisfied
        assert env.margin < -1.0

    def test_rejects_negative_rate_or_dissipation(self):
        t = np.linspace(0.0, 1.0, 11)
        ones = np.ones_like(t)
        with pytest.raises(ValueError):
            dg.GronwallInput(t=t, alpha=ones, beta=-ones, u=ones, v=0 * ones)
        with pytest.raises(ValueError):
            dg.GronwallInput(t=t, alpha=ones, beta=0 * ones, u=ones, v=-ones)


class TestTrapezoid:
    @pytest.mark.parametrize("n", [1, 2, 3, 401])
    def test_matches_scipy_bit_for_bit(self, n):
        from scipy.integrate import trapezoid
        rng = np.random.default_rng(n)
        x = np.cumsum(rng.random(n)) * 1e-3
        y = rng.random(n) ** 3
        assert dg.trapezoid(y, x) == trapezoid(y, x)
        assert dg.trapezoid(list(y), list(x)) == trapezoid(y, x)


class TestCumulative:
    def test_matches_scipy_bit_for_bit(self):
        from scipy.integrate import cumulative_simpson
        rng = np.random.default_rng(5)
        sizes = list(range(2, 130)) + [255, 256, 1001, 4096, 9999, 10000]
        for n in sizes:
            y = rng.standard_normal(n)
            for x in (np.linspace(0.0, 2.0, n),
                      np.cumsum(rng.random(n) + 1e-3)):
                ours = dg._cumulative(y, x)
                ref = cumulative_simpson(y, x=x, initial=0.0)
                assert ours.shape == ref.shape, n
                assert ours.tobytes() == ref.tobytes(), n

    def test_runtime_dependencies_are_numpy_only(self):
        text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
        runtime = text.split("dependencies = [", 1)[1].split("]", 1)[0]
        assert "scipy" not in runtime and "numpy" in runtime


class TestNormSuite:
    def test_equilibrium_velocity_free(self, interval_basis):
        model = make_model(make_params(b=0.0), sources="zero")
        config = dyn.StepperConfig(dt=1e-3)
        traj = dyn.run(constant_state(interval_basis, 1.0, 0.0),
                       config, model, 0.01)
        ns = dg.norm_suite(traj, model, config)
        assert ns.v_l2l2 < 1e-13
        assert abs(ns.phi.linf_l2 - 1.0) < 1e-13

    def test_scaled_velocity_norm(self, rect_basis):
        params = make_params(K=0.25)
        model = make_model(params)
        config = dyn.StepperConfig(dt=1e-3)
        traj = dyn.run(random_state(rect_basis, 33), config, model, 0.005)
        ns = dg.norm_suite(traj, model, config)
        assert abs(ns.v_l2l2_scaled - ns.v_l2l2 / np.sqrt(0.25)) < 1e-13

    def test_velocity_gradient_optional(self, interval_basis):
        model = make_model()
        config = dyn.StepperConfig(dt=1e-3)
        traj = dyn.run(random_state(interval_basis, 34), config, model, 0.005)
        assert dg.norm_suite(traj, model, config).dv_l2 is None
        ns = dg.norm_suite(traj, model, config, velocity_gradient=True)
        assert ns.dv_l2 is not None and len(ns.dv_l2) == len(traj)


class TestCollector:
    def test_accumulators_nondecreasing_and_rows_consistent(self, interval_basis):
        model = make_model()
        config = dyn.StepperConfig(dt=1e-3)
        collector = dg.DiagnosticsCollector(model, config)
        seen = []

        def observer(step, t, state):
            collector.observe(step, t, state)
            seen.append(collector.accumulators())

        dyn.run(random_state(interval_basis, 12, scale=0.1),
                config, model, 0.01, observer=observer)
        acc = np.array(seen)
        assert np.all(np.diff(acc, axis=0) >= -1e-15)
        rows = [r.row() for r in collector.records]
        assert all(len(row) == len(dg.CSV_COLUMNS) for row in rows)
        # per-interval mass residuals recorded by the collector stay tiny
        idx = dg.CSV_COLUMNS.index("res_mass_phi")
        assert max(abs(row[idx]) for row in rows) < 1e-12

    def test_restore_matches_uninterrupted_run(self, interval_basis):
        model = make_model()
        config = dyn.StepperConfig(dt=1e-3)
        initial = random_state(interval_basis, 12, scale=0.1)

        full = dg.DiagnosticsCollector(model, config)
        dyn.run(initial.copy(), config, model, 0.01,
                observer=full.observe)

        first = dg.DiagnosticsCollector(model, config)
        traj = dyn.run(initial.copy(), config, model, 0.005,
                       observer=first.observe)
        second = dg.DiagnosticsCollector(model, config)
        second.restore(first.accumulators(), traj.states[-1])
        dyn.run(traj.states[-1], config, model, 0.005,
                observer=second.observe, observe_initial=False)

        merged = first.records + second.records
        assert len(merged) == len(full.records)
        for a, b in zip(merged, full.records):
            assert a.row() == b.row()


class TestPureEvaluation:
    def test_energy_follows_the_model_it_is_given(self):
        # a state evaluated under one permeability must not carry that
        # velocity into an evaluation under another
        reference = Path(__file__).resolve().parents[1] / "configs" / "reference.json"
        config = cf.parse_config(reference.read_text())
        basis = config.build_basis()
        model_K1 = config.build_model(basis)
        model_K001 = model_K1.with_params(model_K1.params.with_(K=0.01))
        state = config.build_initial_state(basis)
        fresh = state.copy()
        dg.energy(state, model_K1)
        second = dg.energy(state, model_K001)
        assert second == dg.energy(fresh, model_K001)
        assert second.diss_darcy != dg.energy(fresh, model_K1).diss_darcy
