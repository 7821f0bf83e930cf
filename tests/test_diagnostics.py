from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from chdarcy import config as cf
from chdarcy import diagnostics as dg
from chdarcy import dynamics as dyn
from chdarcy import model as md
from chdarcy import spectral as sp

import oracles
from conftest import (collected, make_model, make_params, random_state,
                      trajectory)


def constant_state(basis, phi_val, sigma_val, t=0.0):
    return dyn.SimState(t, sp.constant_field(basis, phi_val),
                        sp.constant_field(basis, sigma_val))


class TestEnergyValues:
    def test_double_well_midpoint(self, interval_basis):
        model = make_model(make_params(b=0.0), sources="zero")
        bd = dg.energy(dyn.derive(constant_state(interval_basis, 0.0, 0.0), model))
        assert abs(bd.total - 0.25) < 1e-13   # A psi(0) |Omega| = 1 * 1/4 * 1
        assert abs(bd.gradient_part) < 1e-14
        assert abs(bd.nutrient_part) < 1e-14

    def test_well_minimum_has_zero_energy(self, interval_basis):
        model = make_model(make_params(b=0.0), sources="zero")
        bd = dg.energy(dyn.derive(constant_state(interval_basis, 1.0, 0.0), model))
        assert abs(bd.total) < 1e-13
        assert abs(bd.dissipation) < 1e-13
        assert abs(bd.work) < 1e-13

    def test_nutrient_and_chemotaxis_parts(self, interval_basis):
        model = make_model(make_params(D=2.0, chi=0.5, b=0.0), sources="zero")
        bd = dg.energy(dyn.derive(constant_state(interval_basis, 0.0, 1.0), model))
        assert abs(bd.psi_part - 0.25) < 1e-13
        assert abs(bd.nutrient_part - 1.0) < 1e-13
        assert abs(bd.chemotaxis_part - 0.5) < 1e-13
        assert abs(bd.total - 1.75) < 1e-13

    def test_parts_sum_to_total(self, rect_basis):
        model = make_model()
        bd = dg.energy(dyn.derive(random_state(rect_basis, 14), model))
        parts = (bd.psi_part + bd.gradient_part + bd.nutrient_part
                 + bd.chemotaxis_part)
        assert abs(bd.total - parts) < 1e-12 * max(1.0, abs(bd.total))

    def test_dissipation_nonnegative(self, rect_basis):
        model = make_model()
        for seed in range(5):
            bd = dg.energy(dyn.derive(random_state(rect_basis, seed), model))
            assert bd.diss_mu >= -1e-12
            assert bd.diss_nutrient >= -1e-12
            assert bd.diss_darcy >= -1e-12
            assert bd.diss_boundary >= -1e-12

    def test_boundary_dissipation_closed_form(self, interval_basis):
        # sigma = 1 on [0,1]: D b int_bdry sigma^2 = D b * 2
        params = make_params(D=2.0, b=0.3)
        model = make_model(params, sources="zero")
        bd = dg.energy(dyn.derive(constant_state(interval_basis, 1.0, 1.0), model))
        assert abs(bd.diss_boundary - 2.0 * 0.3 * 2.0) < 1e-13

    def test_hawkins_source_work_sign(self, rect_basis):
        # Gamma_phi = S = f (N_sigma - mu) makes the two source work terms
        # combine to -f int (N_sigma - mu)^2 <= 0
        model = make_model(make_params(b=0.0))
        for seed in range(5):
            bd = dg.energy(dyn.derive(random_state(rect_basis, seed), model))
            assert bd.work_phi_source + bd.work_nutrient_source <= 1e-12


class TestSingleModeOracle:
    def setup_linear(self, kappa=2.0, m=1.0, n=1.0):
        pot = md.Potential(
            kind="linear-test",
            psi=lambda t: 0.5 * kappa * t * t,
            dpsi=lambda t: kappa * t,
            d2psi=lambda t: np.full_like(np.asarray(t, float), kappa),
            R1=0.125, R2=1.0)
        params = make_params(K=0.0, chi=0.0, b=0.0)
        model = make_model(params, sources="zero", potential=pot, m=m, n=n)
        return params, model, kappa

    def test_energy_and_dissipation_closed_form(self):
        # one mode alpha_m: E = (A kappa + B lam)/2 alpha^2 and the
        # dissipation is m |grad mu|^2 = m lam (A kappa + B lam)^2 alpha^2;
        # with one nutrient mode gamma_1 too, E gains D/2 gamma^2 and the
        # nutrient channel n |D grad sigma|^2 = n D^2 lam_1 gamma^2, at
        # unequal mobilities so that each must weight its own channel
        for m, n, g in ((1.0, 1.0, 0.0), (0.7, 1.3, 0.3)):
            params, model, kappa = self.setup_linear(m=m, n=n)
            basis = sp.build_basis(sp.Domain("interval", (1.0,)), 6)
            data = np.zeros(basis.n_modes)
            data[2] = 0.4
            gdata = np.zeros(basis.n_modes)
            gdata[1] = g
            state = dyn.SimState(0.0, sp.FieldCoeffs(basis, data),
                                 sp.FieldCoeffs(basis, gdata))
            lam, lam1 = basis.eigenvalues[2], basis.eigenvalues[1]
            coef = params.A * kappa + params.B * lam
            bd = dg.energy(dyn.derive(state, model))
            assert abs(bd.total - 0.5 * coef * 0.4 ** 2
                       - 0.5 * params.D * g ** 2) < 1e-12
            assert abs(bd.diss_mu - m * lam * coef ** 2 * 0.4 ** 2) < 1e-10
            assert abs(bd.diss_nutrient
                       - n * params.D ** 2 * lam1 * g ** 2) < 1e-10
            assert abs(bd.power + bd.dissipation) < 1e-12  # no work terms


class TestEnergyIdentity:
    def test_zero_at_equilibrium(self, interval_basis):
        model = make_model(make_params(b=0.0), sources="zero")
        config = dyn.StepperConfig(dt=1e-3)
        traj = trajectory(constant_state(interval_basis, 1.0, 0.0),
                          config, model, 0.01)
        records = collected(traj, model)[1:]
        assert max(abs(r.res_energy_identity) for r in records) < 1e-13

    def test_first_order_in_dt(self, interval_basis):
        model = make_model()
        state = random_state(interval_basis, 40, scale=0.2)
        T = 0.02

        def integral(dt):
            config = dyn.StepperConfig(dt=dt)
            traj = trajectory(state.copy(), config, model, T)
            records = collected(traj, model)[1:]
            return np.sum(np.abs([r.res_energy_identity for r in records]))

        ratio = integral(1e-3) / integral(5e-4)
        assert 1.5 < ratio < 2.7


class TestMassBalance:
    def test_sigma_relaxes_toward_boundary_supply(self, interval_basis):
        # phi pinned at a well minimum, no volume sources: the nutrient
        # mass obeys d/dt mass = b (sigma_inf |bdry| - int_bdry sigma)
        model = make_model(make_params(b=0.5), sources="zero", sigma_inf=1.0)
        config = dyn.StepperConfig(dt=1e-3)
        traj = trajectory(constant_state(interval_basis, 1.0, 0.2),
                          config, model, 0.05)
        records = collected(traj, model)
        scale_phi = max(1.0, max(abs(r.mass_phi) for r in records))
        scale_sigma = max(1.0, max(abs(r.mass_sigma) for r in records))
        assert max(abs(r.res_mass_phi) for r in records[1:]) / scale_phi \
            < 1e-13
        assert max(abs(r.res_mass_sigma) for r in records[1:]) / scale_sigma \
            < 1e-13
        masses = [s.gamma.data[0] for s in traj]
        assert masses[-1] > masses[0]

    def test_residual_detects_tampering(self, interval_basis):
        model = make_model()
        config = dyn.StepperConfig(dt=1e-3)
        traj = trajectory(random_state(interval_basis, 3), config, model,
                          0.01)
        bad = traj[-1].alpha.data.copy()
        bad[0] += 1e-3
        traj[-1] = dyn.SimState(traj[-1].t,
                                sp.FieldCoeffs(interval_basis, bad),
                                traj[-1].gamma)
        records = collected(traj, model)
        scale_phi = max(1.0, max(abs(r.mass_phi) for r in records))
        assert max(abs(r.res_mass_phi) for r in records[1:]) / scale_phi \
            > 1e-4


@pytest.fixture(scope="module")
def traj_pair():
    basis = sp.build_basis(sp.Domain("interval", (1.0,)), 8)
    model = make_model()
    state = random_state(basis, 50, scale=0.2)
    out = {}
    for dt in (1e-3, 5e-4):
        config = dyn.StepperConfig(dt=dt)
        out[dt] = (trajectory(state.copy(), config, model, 0.02), config)
    return model, out


class TestWeakResiduals:
    @pytest.mark.parametrize("equation", ["mu", "pressure", "velocity"])
    def test_algebraic_relations_hold_to_roundoff(self, traj_pair, equation):
        model, out = traj_pair
        traj, _ = out[1e-3]
        for j in (0, 3):
            r = oracles.weak_residual(traj, j, equation, model)
            assert r.max_abs < 1e-9

    @pytest.mark.parametrize("equation", ["phi", "sigma"])
    def test_evolution_residual_first_order(self, traj_pair, equation):
        model, out = traj_pair
        vals = {}
        for dt, (traj, _) in out.items():
            vals[dt] = oracles.weak_residual(traj, 3, equation,
                                             model).integrated
        ratio = vals[1e-3] / vals[5e-4]
        assert 1.5 < ratio < 2.7

    def test_rejects_bad_inputs(self, interval_basis):
        model = make_model()
        config = dyn.StepperConfig(dt=1e-3)
        traj = trajectory(random_state(interval_basis, 1), config, model,
                          0.002)
        with pytest.raises(IndexError):
            oracles.weak_residual(traj, 99, "phi", model)
        with pytest.raises(ValueError):
            oracles.weak_residual(traj, 0, "vorticity", model)


class TestPressureReformulations:
    def test_routes_agree_on_random_states(self, rect_basis):
        model = make_model()
        for seed in range(5):
            ref = oracles.pressure_reformulations(
                random_state(rect_basis, seed), model)
            assert ref.max_spread < 1e-9

    def test_lambda_v_equals_rescaled_pressure(self, interval_basis):
        # the third route is the rescaled pressure itself
        model = make_model()
        ref = oracles.pressure_reformulations(
            random_state(interval_basis, 9), model)
        assert np.array_equal(ref.lambda_v[2], ref.p_tilde)

    def test_trivial_state(self, interval_basis):
        model = make_model(make_params(b=0.0), sources="zero")
        ref = oracles.pressure_reformulations(
            dyn.SimState(0.0, sp.constant_field(interval_basis, 1.0),
                         sp.constant_field(interval_basis, 0.0)), model)
        assert ref.max_spread < 1e-13
        assert np.max(np.abs(ref.p_tilde)) < 1e-13


class TestGronwall:
    def test_exponential_solution_saturates_bound(self):
        t = np.linspace(0.0, 2.0, 4001)
        alpha0, beta0 = 1.5, 0.8
        g = oracles.GronwallInput(t=t, alpha=np.full_like(t, alpha0),
                                  beta=np.full_like(t, beta0),
                                  u=alpha0 * np.exp(beta0 * t),
                                  v=np.zeros_like(t))
        env = oracles.gronwall_envelope(g)
        assert env.satisfied
        assert np.max(np.abs(env.bound - env.monitored)) < 1e-9

    def test_zero_rate_reduces_to_additive_bound(self):
        t = np.linspace(0.0, 1.0, 101)
        g = oracles.GronwallInput(t=t, alpha=2.0 + t, beta=np.zeros_like(t),
                                  u=np.ones_like(t), v=np.zeros_like(t))
        env = oracles.gronwall_envelope(g)
        assert np.allclose(env.bound, 2.0 + t, atol=1e-13)

    def test_violation_reported(self):
        t = np.linspace(0.0, 1.0, 101)
        g = oracles.GronwallInput(t=t, alpha=np.ones_like(t),
                                  beta=np.zeros_like(t),
                                  u=np.full_like(t, 3.0), v=np.zeros_like(t))
        env = oracles.gronwall_envelope(g)
        assert not env.satisfied
        assert env.margin < -1.0

    def test_rejects_negative_rate_or_dissipation(self):
        t = np.linspace(0.0, 1.0, 11)
        ones = np.ones_like(t)
        with pytest.raises(ValueError):
            oracles.GronwallInput(t=t, alpha=ones, beta=-ones, u=ones,
                                  v=0 * ones)
        with pytest.raises(ValueError):
            oracles.GronwallInput(t=t, alpha=ones, beta=0 * ones, u=ones,
                                  v=-ones)


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
    def test_runtime_dependencies_are_numpy_only(self):
        text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
        runtime = text.split("dependencies = [", 1)[1].split("]", 1)[0]
        assert "scipy" not in runtime and "numpy" in runtime


class TestNormSuite:
    def test_equilibrium_velocity_free(self, interval_basis):
        model = make_model(make_params(b=0.0), sources="zero")
        config = dyn.StepperConfig(dt=1e-3)
        traj = trajectory(constant_state(interval_basis, 1.0, 0.0),
                          config, model, 0.01)
        ns = oracles.norm_suite(traj, model)
        assert ns.v_l2l2 < 1e-13
        assert abs(ns.phi.linf_l2 - 1.0) < 1e-13

    def test_scaled_velocity_norm(self, rect_basis):
        params = make_params(K=0.25)
        model = make_model(params)
        config = dyn.StepperConfig(dt=1e-3)
        traj = trajectory(random_state(rect_basis, 33), config, model, 0.005)
        ns = oracles.norm_suite(traj, model)
        assert abs(ns.v_l2l2_scaled - ns.v_l2l2 / np.sqrt(0.25)) < 1e-13

    def test_velocity_gradient_optional(self, interval_basis):
        model = make_model()
        config = dyn.StepperConfig(dt=1e-3)
        traj = trajectory(random_state(interval_basis, 34), config, model,
                          0.005)
        assert oracles.norm_suite(traj, model).dv_l2 is None
        ns = oracles.norm_suite(traj, model, velocity_gradient=True)
        assert ns.dv_l2 is not None and len(ns.dv_l2) == len(traj)


class TestCollector:
    def test_each_column_holds_the_quantity_it_names(self):
        basis = sp.build_basis(sp.Domain("rectangle", (1.0, 0.7)), (6, 5))
        model = make_model(make_params(K=0.5))
        f = dyn.derive(random_state(basis, 21, scale=0.3, t=0.25), model)
        collector = dg.DiagnosticsCollector()
        collector.observe(f)
        (row,) = collector.records
        # no two of the columns below coincide, so a swap would show
        assert len(set(row[:20])) == 20

        state, bd = f.state, dg.energy(f)
        assert row.time == 0.25
        assert (row.E_total, row.E_psi, row.E_gradient, row.E_nutrient,
                row.E_chemotaxis) == (bd.total, bd.psi_part, bd.gradient_part,
                                      bd.nutrient_part, bd.chemotaxis_part)
        assert (row.diss_mu, row.diss_nutrient, row.diss_darcy,
                row.diss_boundary) == (bd.diss_mu, bd.diss_nutrient,
                                       bd.diss_darcy, bd.diss_boundary)
        vol_root = np.sqrt(0.7)
        assert row.mass_phi == state.alpha.data[0] * vol_root
        assert row.mass_sigma == state.gamma.data[0] * vol_root
        assert row.mass_phi == pytest.approx(f.grid.integrate(f.phi_g),
                                             rel=1e-12)
        assert (row.norm_phi_H1, row.norm_sigma_L2, row.norm_mu_H1,
                row.norm_grad_sigma, row.norm_p_H1) == (
            sp.norm(state.alpha, "H1"), sp.norm(state.gamma, "L2"),
            sp.norm(f.mu, "H1"), sp.norm(state.gamma, "H1-seminorm"),
            sp.norm(f.p, "H1"))
        v_L2 = np.sqrt(f.grid.integrate(sum(vi ** 2 for vi in f.v)))
        assert row.norm_v_L2 == pytest.approx(v_L2, rel=1e-12)
        assert row.norm_v_scaled == pytest.approx(v_L2 / np.sqrt(0.5),
                                                  rel=1e-12)
        boundary = state.gamma.data @ sp.boundary_mass_apply(
            basis, state.gamma.data)
        assert row.norm_sigma_boundary == pytest.approx(np.sqrt(boundary),
                                                        rel=1e-12)
        # a first snapshot closes no interval
        assert (row.acc_diss_mu, row.acc_diss_nutrient, row.acc_diss_darcy,
                row.acc_diss_boundary, row.res_mass_phi, row.res_mass_sigma,
                row.res_energy_identity) == (0.0,) * 7

    def test_accumulators_nondecreasing_and_rows_consistent(self, interval_basis):
        model = make_model()
        config = dyn.StepperConfig(dt=1e-3)
        collector = dg.DiagnosticsCollector()
        seen = []

        def observer(fields):
            collector.observe(fields)
            seen.append(collector.accumulators())

        dyn.run(random_state(interval_basis, 12, scale=0.1),
                config, model, 0.01, observer=observer)
        acc = np.array(seen)
        assert np.all(np.diff(acc, axis=0) >= -1e-15)
        rows = collector.records
        assert all(len(row) == len(dg.CSV_COLUMNS) for row in rows)
        # per-interval mass residuals recorded by the collector stay tiny
        idx = dg.CSV_COLUMNS.index("res_mass_phi")
        assert max(abs(row[idx]) for row in rows) < 1e-12

    def test_restore_matches_uninterrupted_run(self, interval_basis):
        model = make_model()
        config = dyn.StepperConfig(dt=1e-3)
        initial = random_state(interval_basis, 12, scale=0.1)

        full = dg.DiagnosticsCollector()
        dyn.run(initial.copy(), config, model, 0.01,
                observer=full.observe)

        first = dg.DiagnosticsCollector()
        mid = dyn.run(initial.copy(), config, model, 0.005,
                      observer=first.observe)
        second = dg.DiagnosticsCollector()
        second.restore(first.accumulators())
        dyn.run(mid, config, model, 0.005, observer=second.observe)

        # the resumed run's first record is the checkpoint's row again
        merged = first.records + second.records[1:]
        assert len(merged) == len(full.records)
        for a, b in zip(merged, full.records):
            assert a == b

    def test_resumed_first_record_is_the_checkpoint_row(self):
        basis = sp.build_basis(sp.Domain("rectangle", (1.0, 1.0)), (8, 8))
        model = make_model()
        config = dyn.StepperConfig(dt=1e-3)
        first = dg.DiagnosticsCollector()
        mid = dyn.run(random_state(basis, 13, scale=0.1), config, model,
                      5 * config.dt, observer=first.observe)
        second = dg.DiagnosticsCollector()
        second.restore(first.accumulators())
        dyn.run(mid, config, model, 5 * config.dt, observer=second.observe)

        assert len(second.records) == 6
        k = dg.CSV_COLUMNS.index("res_mass_phi")
        last, again = first.records[-1], second.records[0]
        assert np.array(again[:k]).tobytes() == np.array(last[:k]).tobytes()
        assert again[k:] == (0.0, 0.0, 0.0)


class TestPureEvaluation:
    def test_energy_follows_the_model_it_is_given(self):
        # a state evaluated under one permeability must not carry that
        # velocity into an evaluation under another
        reference = Path(__file__).resolve().parents[1] / "configs" / "reference.json"
        config = cf.parse_config(reference.read_text())
        basis = config.build_basis()
        model_K1 = config.build_model(basis)
        model_K001 = replace(model_K1, params=replace(model_K1.params,
                                                      K=0.01))
        state = config.build_initial_state(basis)
        fresh = state.copy()
        dg.energy(dyn.derive(state, model_K1))
        second = dg.energy(dyn.derive(state, model_K001))
        assert second == dg.energy(dyn.derive(fresh, model_K001))
        assert second.diss_darcy != dg.energy(
            dyn.derive(fresh, model_K1)).diss_darcy


class TestOneLedger:
    """Each shared quantity is built once per evaluated state, and each
    balance identity is written once."""

    def test_diagnosed_run_makes_one_boundary_product_per_state(
            self, monkeypatch):
        calls = []
        real = sp.boundary_mass_apply

        def counted(basis, c):
            calls.append(np.shape(c))
            return real(basis, c)

        monkeypatch.setattr(sp, "boundary_mass_apply", counted)
        # a fresh basis, whose boundary vector is not built yet
        basis = sp.build_basis(sp.Domain("rectangle", (1.0, 1.0)), (8, 8))
        model = make_model()  # b = 0.1, Hawkins sources
        config = dyn.StepperConfig(dt=1e-3)
        collector = dg.DiagnosticsCollector()
        n = 20
        dyn.run(random_state(basis, 7, scale=0.1), config, model,
                n * config.dt, observer=collector.observe)
        assert len(collector.records) == n + 1
        # one per evaluated state, plus the basis's boundary vector
        assert len(calls) == (n + 1) + 1
