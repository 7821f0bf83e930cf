import json
from dataclasses import replace

import numpy as np
import pytest

from chdarcy import config as cf
from chdarcy import diagnostics as dg
from chdarcy import dynamics as dyn
from chdarcy import model as md
from chdarcy import spectral as sp

from conftest import make_model, make_params, random_state, same_bits


def linear_test_potential(kappa):
    """psi'(t) = kappa t: turns the IMEX update into exact backward Euler."""
    return md.Potential(
        kind="linear-test",
        psi=lambda t: 0.5 * kappa * t * t,
        dpsi=lambda t: kappa * t,
        d2psi=lambda t: np.full_like(np.asarray(t, float), kappa),
        R1=0.125, R2=1.0,
    )


class TestProjection:
    def test_constant_data(self, rect_basis):
        alpha, gamma = dyn.project_initial_data(
            lambda x, y: np.full_like(x, 0.5),
            lambda x, y: np.zeros_like(x), rect_basis)
        assert abs(alpha.data[0] - 0.5 * np.sqrt(rect_basis.domain.volume)) < 1e-14
        assert np.max(np.abs(alpha.data[1:])) < 1e-14

    def test_in_span_data_is_exact(self, interval_basis):
        grid = sp.default_grid(interval_basis)
        alpha, _ = dyn.project_initial_data(
            lambda x: np.cos(np.pi * x), lambda x: np.zeros_like(x),
            interval_basis)
        x = grid.nodes[0]
        err = np.max(np.abs(sp.to_grid(alpha, grid).values - np.cos(np.pi * x)))
        assert err < 1e-13

    def test_tanh_front_error_decreases_with_modes(self):
        domain = sp.Domain("interval", (1.0,))
        phi0 = lambda x: np.tanh((x - 0.5) / 0.1)
        errors = []
        for k in (8, 16, 32):
            basis = sp.build_basis(domain, k)
            alpha, _ = dyn.project_initial_data(
                phi0, lambda x: np.zeros_like(x), basis)
            dense = basis.quadrature_grid(oversample=6.0)
            x = dense.nodes[0]
            diff = sp.to_grid(alpha, dense).values - phi0(x)
            errors.append(np.sqrt(dense.integrate(diff ** 2)))
        assert errors[0] > errors[1] > errors[2]

    def test_h1_stability_of_projection(self):
        # |P_k phi0|_{H1} <= |phi0|_{H1}: orthogonal projection in both inner
        # products for this basis
        domain = sp.Domain("interval", (1.0,))
        phi0 = lambda x: np.tanh((x - 0.5) / 0.1)
        big = sp.build_basis(domain, 64)
        ref, _ = dyn.project_initial_data(phi0, lambda x: np.zeros_like(x), big)
        h1_ref = sp.norm(ref, "H1")
        for k in (8, 16, 32):
            basis = sp.build_basis(domain, k)
            alpha, _ = dyn.project_initial_data(
                phi0, lambda x: np.zeros_like(x), basis)
            assert sp.norm(alpha, "H1") <= h1_ref * (1 + 1e-12)

    def test_nonfinite_rejected(self, interval_basis):
        with pytest.raises(ValueError):
            dyn.project_initial_data(
                lambda x: np.full_like(x, np.nan),
                lambda x: np.zeros_like(x), interval_basis)

    def test_basis_mismatch_rejected(self, interval_basis, rect_basis):
        c = sp.constant_field(interval_basis, 1.0)
        with pytest.raises(sp.BasisMismatchError):
            dyn.project_initial_data(c, c, rect_basis)


class TestRhs:
    def test_double_well_equilibrium(self, interval_basis):
        model = make_model(make_params(b=0.1), sources="zero", sigma_inf=0.0)
        config = dyn.StepperConfig(dt=1e-3)
        state = dyn.SimState(0.0, sp.constant_field(interval_basis, 1.0),
                             sp.constant_field(interval_basis, 0.0))
        da, dgm = dyn.rhs(state, model, config)
        assert np.max(np.abs(da)) < 1e-13
        assert np.max(np.abs(dgm)) < 1e-13

    def test_constant_mode_conserved_without_sources(self, rect_basis):
        model = make_model(make_params(b=0.0), sources="zero")
        config = dyn.StepperConfig(dt=1e-3)
        state = random_state(rect_basis, 17)
        da, dgm = dyn.rhs(state, model, config)
        assert abs(da[0]) < 1e-13
        assert abs(dgm[0]) < 1e-13

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense_oracle_1d(self, seed):
        basis = sp.build_basis(sp.Domain("interval", (1.0,)), 8)
        model = make_model()
        config = dyn.StepperConfig(dt=1e-3)
        state = random_state(basis, seed, scale=0.3)
        da, dgm = dyn.rhs(state, model, config)
        da2, dg2 = dyn.dense_rhs(state, model, config)
        scale = max(1.0, np.max(np.abs(da2)), np.max(np.abs(dg2)))
        assert np.max(np.abs(da - da2)) / scale < 1e-8
        assert np.max(np.abs(dgm - dg2)) / scale < 1e-8

    def test_robin_term_tracks_length_across_recycled_bases(self):
        # Bases are built and dropped in turn, so their ids get reused;
        # each one's boundary term must still follow its own length L.
        model = make_model(make_params(b=0.5))
        config = dyn.StepperConfig(dt=1e-3)
        for i in range(300):
            basis = sp.build_basis(sp.Domain("interval", (0.5 + i / 200,)), 8)
            state = random_state(basis, i, scale=0.3)
            da, dgm = dyn.rhs(state, model, config)
            da2, dg2 = dyn.dense_rhs(state, model, config)
            scale = max(1.0, np.max(np.abs(da2)), np.max(np.abs(dg2)))
            assert np.max(np.abs(da - da2)) / scale < 1e-8, f"basis {i}"
            assert np.max(np.abs(dgm - dg2)) / scale < 1e-8, f"basis {i}"

    def test_dense_boundary_matrix_stays_out_of_the_solver(self, rect_basis,
                                                           monkeypatch):
        def refuse(basis):
            raise AssertionError("dense boundary matrix built")

        monkeypatch.setattr(sp, "boundary_mass_matrix", refuse)
        model = make_model()
        config = dyn.StepperConfig(dt=1e-3)
        collector = dg.DiagnosticsCollector(model, config)
        dyn.run(random_state(rect_basis, 23), config, model, 3e-3,
                observer=collector.observe)
        assert len(collector.records) == 4
        assert collector.records[-1].norm_sigma_boundary > 0.0

        free = make_model(make_params(b=0.0), sources="zero")
        guarded = dyn.StepperConfig(dt=1e-3, energy_guard=True)
        dyn.step_imex(random_state(rect_basis, 24), guarded, free)

    def test_darcy_weak_divergence_matches_volume_source(self, rect_basis):
        # weak divergence of the Darcy velocity reproduces Gamma_v / nothing
        model = make_model()
        config = dyn.StepperConfig(dt=1e-3)
        state = random_state(rect_basis, 23)
        der = dyn.derive(state, model, config)
        div_v = sp.divergence_to_coeffs(der.v)
        assert np.max(np.abs(div_v.data)) < 1e-11

        data = np.zeros(rect_basis.n_modes)
        data[rect_basis.modes[1]] = 0.7  # mode (1, 0)
        gv = sp.FieldCoeffs(rect_basis, data)
        model_gv = make_model(gamma_v=lambda t: gv)
        state2 = random_state(rect_basis, 24)
        der2 = dyn.derive(state2, model_gv, config)
        div_v2 = sp.divergence_to_coeffs(der2.v)
        assert np.max(np.abs(div_v2.data - gv.data)) < 1e-11

    def test_no_flow_skips_darcy(self, interval_basis):
        model = make_model(make_params(K=0.0))
        config = dyn.StepperConfig(dt=1e-3, no_flow=True)
        state = random_state(interval_basis, 3)
        der = dyn.derive(state, model, config)
        assert all(np.all(vi.values == 0.0) for vi in der.v)

    def test_k_zero_with_darcy_active_is_an_error(self, interval_basis):
        model = make_model(make_params(K=0.0))
        config = dyn.StepperConfig(dt=1e-3)
        state = random_state(interval_basis, 3)
        with pytest.raises(ValueError):
            dyn.derive(state, model, config)

    def test_no_chemotaxis_equals_chi_zero_model(self, interval_basis):
        spec = {
            "domain": {"kind": "interval", "lengths": [1.0]},
            "modes": [interval_basis.n_modes], "dt": 1e-3, "T": 0.01,
            "params": {"A": 1.0, "B": 0.01, "K": 1.0, "D": 1.0,
                       "chi": 0.2, "b": 0.1},
            "potential": "quartic-double-well",
            "sources": {"kind": "hawkins", "f0": 0.1},
            "sigma_inf": {"kind": "constant", "value": 1.0},
            "initial": {"phi": {"kind": "constant", "value": 0.0},
                        "sigma": {"kind": "constant", "value": 0.5}},
        }
        model = cf.parse_config(json.dumps(spec)).build_model(interval_basis)
        chi0 = model.with_params(model.params.with_(chi=0.0))
        spec["limit_mode"] = "no-chemotaxis"
        limit = cf.parse_config(json.dumps(spec)).build_model(interval_basis)
        state = random_state(interval_basis, 8)
        config = dyn.StepperConfig(dt=1e-3)
        da1, dg1 = dyn.rhs(state, limit, config)
        da2, dg2 = dyn.rhs(state.copy(), chi0, config)
        assert same_bits(da1, da2) and same_bits(dg1, dg2)


class TestDenseOperators:
    def test_constant_mobility_stiffness_is_diagonal(self, interval_basis):
        model = make_model(m=0.7)
        config = dyn.StepperConfig(dt=1e-3)
        state = random_state(interval_basis, 4)
        ops = dyn.dense_galerkin_operators(state, model, config)
        assert np.max(np.abs(ops.S_m - 0.7 * np.diag(interval_basis.eigenvalues))) < 1e-10

    def test_stiffness_symmetric_psd(self, rect_basis):
        model = make_model()
        config = dyn.StepperConfig(dt=1e-3)
        state = random_state(rect_basis, 6)
        ops = dyn.dense_galerkin_operators(state, model, config)
        for M in (ops.S_m, ops.S_n, ops.M_bdry):
            assert np.max(np.abs(M - M.T)) < 1e-10
            assert np.min(np.linalg.eigvalsh(M)) > -1e-10

    def test_psi_vector_vanishes_at_zero(self, interval_basis):
        model = make_model()
        config = dyn.StepperConfig(dt=1e-3)
        state = dyn.SimState(0.0, sp.constant_field(interval_basis, 0.0),
                             sp.constant_field(interval_basis, 0.0))
        ops = dyn.dense_galerkin_operators(state, model, config)
        assert np.max(np.abs(ops.psi_vec)) < 1e-14

    def test_convection_zero_in_no_flow(self, interval_basis):
        model = make_model()
        config = dyn.StepperConfig(dt=1e-3, no_flow=True)
        state = random_state(interval_basis, 5)
        ops = dyn.dense_galerkin_operators(state, model, config)
        assert np.all(ops.C == 0.0)


class TestImex:
    def test_equilibrium_fixed_point(self, interval_basis):
        model = make_model(make_params(b=0.0), sources="zero")
        config = dyn.StepperConfig(dt=1e-2)
        state = dyn.SimState(0.0, sp.constant_field(interval_basis, 1.0),
                             sp.constant_field(interval_basis, 0.0))
        new = dyn.step_imex(state, config, model)
        assert np.max(np.abs(new.alpha.data - state.alpha.data)) < 1e-14
        assert np.max(np.abs(new.gamma.data - state.gamma.data)) < 1e-14

    def test_linear_mode_is_backward_euler(self):
        kappa = 2.0
        basis = sp.build_basis(sp.Domain("interval", (1.0,)), 6)
        params = make_params(chi=0.0, b=0.0)
        model = make_model(params, sources="zero",
                           potential=linear_test_potential(kappa))
        config = dyn.StepperConfig(dt=1e-2, kappa=kappa, no_flow=True)
        data = np.zeros(basis.n_modes)
        data[2] = 1.0
        state = dyn.SimState(0.0, sp.FieldCoeffs(basis, data),
                             sp.constant_field(basis, 0.0))
        new = dyn.step_imex(state, config, model)
        lam = basis.eigenvalues[2]
        L = params.B * lam ** 2 + params.A * kappa * lam
        expect = 1.0 / (1.0 + config.dt * L)
        assert abs(new.alpha.data[2] - expect) < 1e-13

    def test_first_order_richardson(self, interval_basis):
        model = make_model()
        state = random_state(interval_basis, 12, scale=0.3)
        T = 0.02

        def final(dt):
            traj = dyn.run(state.copy(), dyn.StepperConfig(dt=dt), model, T)
            return traj.states[-1]

        ref = final(1.25e-4)
        e1 = np.max(np.abs(final(1e-3).alpha.data - ref.alpha.data))
        e2 = np.max(np.abs(final(5e-4).alpha.data - ref.alpha.data))
        assert 1.5 < e1 / e2 < 2.7

    def test_energy_guard_halves_and_eventually_fails(self, interval_basis):
        model = make_model(make_params(b=0.0), sources="zero")
        state = random_state(interval_basis, 30, scale=0.5)
        config = dyn.StepperConfig(dt=5.0, energy_guard=True, tol_E=0.0,
                                   max_halvings=0)
        with pytest.raises(dyn.StepFailureError):
            dyn.step_imex(state, config, model)

    def test_energy_guard_accepts_decaying_step(self, interval_basis):
        model = make_model(make_params(b=0.0), sources="zero")
        state = random_state(interval_basis, 30, scale=0.2)
        config = dyn.StepperConfig(dt=1e-3, energy_guard=True, tol_E=0.0,
                                   max_halvings=6)
        e0 = dg.energy(state, model, config).total
        new = dyn.step_imex(state, config, model)
        assert dg.energy(new, model, config).total <= e0 + 1e-12


    def test_nonfinite_step_is_blowup(self, interval_basis):
        model = make_model()
        state = random_state(interval_basis, 3)
        state.alpha.data *= 1e120
        with pytest.raises(dyn.BlowUpError) as info, np.errstate(all="ignore"):
            dyn.step_imex(state, dyn.StepperConfig(dt=1e-3), model)
        assert info.value.t == state.t and info.value.state is state


class TestRk4:
    def test_linear_mode_matches_exponential(self):
        kappa = 2.0
        basis = sp.build_basis(sp.Domain("interval", (1.0,)), 6)
        params = make_params(chi=0.0, b=0.0)
        model = make_model(params, sources="zero",
                           potential=linear_test_potential(kappa))
        dt = 1e-3
        config = dyn.StepperConfig(dt=dt, scheme="rk4-explicit", no_flow=True)
        data = np.zeros(basis.n_modes)
        data[1] = 1.0
        state = dyn.SimState(0.0, sp.FieldCoeffs(basis, data),
                             sp.constant_field(basis, 0.0))
        new = dyn.step_rk4_explicit(state, config, model)
        lam = basis.eigenvalues[1]
        L = params.B * lam ** 2 + params.A * kappa * lam
        assert abs(new.alpha.data[1] - np.exp(-L * dt)) < (L * dt) ** 5

    def test_blowup_detected(self, interval_basis):
        model = make_model()
        state = random_state(interval_basis, 1, scale=1.0)
        config = dyn.StepperConfig(dt=50.0, scheme="rk4-explicit")
        with pytest.raises(dyn.BlowUpError), np.errstate(all="ignore"):
            for _ in range(40):
                state = dyn.step_rk4_explicit(state, config, model)

    def test_consistent_with_imex_at_small_dt(self, rect_basis):
        model = make_model()
        state = random_state(rect_basis, 7)
        dt = 1e-6
        s1 = dyn.step_imex(state, dyn.StepperConfig(dt=dt), model)
        s2 = dyn.step_rk4_explicit(
            state.copy(), dyn.StepperConfig(dt=dt, scheme="rk4-explicit"), model)
        assert np.max(np.abs(s1.alpha.data - s2.alpha.data)) < 1e-5 * dt ** 0.0 * 1e-1


class TestRun:
    def test_t_zero_returns_initial_only(self, interval_basis):
        model = make_model()
        state = random_state(interval_basis, 2)
        traj = dyn.run(state, dyn.StepperConfig(dt=1e-3), model, 0.0)
        assert len(traj) == 1 and traj.states[0] is state

    def test_cadence_and_final_snapshot(self, interval_basis):
        model = make_model()
        state = random_state(interval_basis, 2)
        seen = []
        traj = dyn.run(state, dyn.StepperConfig(dt=1e-3), model, 0.01,
                       observer=lambda i, t, s: seen.append(i), cadence=3)
        assert seen == [0, 3, 6, 9, 10]
        assert len(traj) == len(seen)

    def test_determinism(self, interval_basis):
        model = make_model()
        state = random_state(interval_basis, 2)
        t1 = dyn.run(state.copy(), dyn.StepperConfig(dt=1e-3), model, 0.01)
        t2 = dyn.run(state.copy(), dyn.StepperConfig(dt=1e-3), model, 0.01)
        assert np.array_equal(t1.states[-1].alpha.data, t2.states[-1].alpha.data)
        assert np.array_equal(t1.states[-1].gamma.data, t2.states[-1].gamma.data)

    def test_mass_laws_per_step(self, rect_basis):
        model = make_model()
        config = dyn.StepperConfig(dt=1e-3)
        state = random_state(rect_basis, 19)
        traj = dyn.run(state, config, model, 0.01)
        mb = dg.mass_balance_residuals(traj, model, config)
        norm = 1.0 + state.norm()
        assert np.max(np.abs(mb.phi_residuals)) < 1e-12 * norm
        assert np.max(np.abs(mb.sigma_residuals)) < 1e-12 * norm


class TestPureEvaluation:
    def test_rhs_follows_the_config_it_is_given(self, interval_basis):
        model = make_model(make_params(chi=0.3))
        state = random_state(interval_basis, 8)
        fresh = state.copy()
        plain = dyn.StepperConfig(dt=1e-3)
        limit = dyn.StepperConfig(dt=1e-3, no_flow=True)
        dyn.rhs(state, model, plain)
        da, dgm = dyn.rhs(state, model, limit)
        da_fresh, dg_fresh = dyn.rhs(fresh, model, limit)
        assert np.array_equal(da, da_fresh)
        assert np.array_equal(dgm, dg_fresh)

    def test_derive_stores_nothing_on_the_state(self, interval_basis):
        state = random_state(interval_basis, 8)
        before = dict(vars(state))
        dyn.derive(state, make_model(), dyn.StepperConfig(dt=1e-3))
        assert vars(state) == before


class TestEvaluationBudget:
    n = 10

    @pytest.fixture
    def source_calls(self, monkeypatch):
        calls = []
        real = md.evaluate_sources

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(md, "evaluate_sources", counted)
        return calls

    def test_unguarded_run_evaluates_each_state_once(self, rect_basis,
                                                     source_calls):
        config = dyn.StepperConfig(dt=1e-3)
        dyn.run(random_state(rect_basis, 40), config, make_model(),
                self.n * config.dt)
        assert len(source_calls) <= self.n + 1

    def test_guarded_run_evaluates_each_state_once(self, rect_basis,
                                                   source_calls):
        model = make_model(make_params(b=0.0), sources="zero")
        config = dyn.StepperConfig(dt=1e-3, energy_guard=True, tol_E=1e-12)
        traj = dyn.run(random_state(rect_basis, 41, scale=0.1), config, model,
                       self.n * config.dt)
        assert len(traj) == self.n + 1
        assert len(source_calls) <= self.n + 1

    def test_observed_run_evaluates_each_state_at_most_twice(
            self, rect_basis, source_calls):
        model = make_model()
        config = dyn.StepperConfig(dt=1e-3)
        collector = dg.DiagnosticsCollector(model, config)
        dyn.run(random_state(rect_basis, 42), config, model,
                self.n * config.dt, observer=collector.observe)
        assert len(collector.records) == self.n + 1
        assert len(source_calls) <= 2 * (self.n + 1)

    def test_observed_run_evaluates_each_state_once(self, rect_basis,
                                                    source_calls):
        model = make_model()
        config = dyn.StepperConfig(dt=1e-3)
        collector = dg.DiagnosticsCollector(model, config)
        dyn.run(random_state(rect_basis, 42), config, model,
                self.n * config.dt, observer=collector.observe)
        assert len(collector.records) == self.n + 1
        assert len(source_calls) <= self.n + 1

    def test_observer_receives_the_evaluation_of_each_snapshot(
            self, rect_basis):
        model = make_model()
        config = dyn.StepperConfig(dt=1e-3)
        seen = []
        traj = dyn.run(random_state(rect_basis, 45), config, model, 6e-3,
                       observer=lambda i, t, f: seen.append((t, f)),
                       cadence=2)
        snaps = list(dyn.snapshots(random_state(rect_basis, 45), config,
                                   model, 6e-3, cadence=2))
        assert len(seen) == len(traj) == len(snaps) == 4
        for (t, f), state, g in zip(seen, traj.states, snaps):
            assert isinstance(f, dyn.StateFields)
            assert f.state is state and t == state.t
            assert all(same_bits(a.values, b.values)
                       for a, b in zip(f.v, g.v))

    def test_run_resolves_kappa_once(self, interval_basis):
        calls = []
        model = make_model()
        d2psi = model.potential.d2psi

        def counted(t):
            calls.append(1)
            return d2psi(t)

        model.potential = replace(model.potential, d2psi=counted)
        config = dyn.StepperConfig(dt=1e-3)
        dyn.run(random_state(interval_basis, 44), config, model,
                self.n * config.dt)
        assert len(calls) == 1

    def test_one_evaluation_transforms_each_field_once(self, rect_basis,
                                                       monkeypatch):
        # Counts the outermost spectral transform calls only: to_coeffs
        # and divergence_to_coeffs delegate to weak_form.
        calls, depth = [], [0]

        def counting(name, real):
            def counted(*args, **kwargs):
                if depth[0] == 0:
                    calls.append(name)
                depth[0] += 1
                try:
                    return real(*args, **kwargs)
                finally:
                    depth[0] -= 1
            return counted

        for name in ("to_grid", "gradient_on_grid", "to_coeffs",
                     "divergence_to_coeffs", "weak_form"):
            if hasattr(sp, name):
                monkeypatch.setattr(sp, name, counting(name, getattr(sp, name)))
        model = make_model()
        config = dyn.StepperConfig(dt=1e-3)
        state = random_state(rect_basis, 46)
        dyn.rhs(state, model, config, fields=dyn.derive(state, model, config))
        # phi, sigma and mu synthesized and differentiated once each, the
        # psi' projection, the Darcy divergence and grad p, then one
        # projection per equation
        assert sorted(calls) == sorted(
            ["to_grid"] * 3 + ["gradient_on_grid"] * 4 + ["to_coeffs"]
            + ["divergence_to_coeffs"] + ["weak_form"] * 2)

    def test_snapshots_carry_the_velocity_of_their_state(self, rect_basis):
        model = make_model()
        config = dyn.StepperConfig(dt=1e-3)
        snaps = list(dyn.snapshots(random_state(rect_basis, 43), config,
                                   model, 5e-3, cadence=2))
        assert len(snaps) == 4
        for f in snaps:
            expect = dyn.derive(f.state.copy(), model, config).v
            assert all(np.array_equal(a.values, b.values)
                       for a, b in zip(f.v, expect))


class TestRunFailures:
    @pytest.mark.parametrize("guarded", [False, True])
    def test_overflowing_state_is_blowup(self, interval_basis, guarded):
        model = make_model(make_params(b=0.0), sources="zero")
        config = dyn.StepperConfig(dt=1e-3, energy_guard=guarded)
        collector = dg.DiagnosticsCollector(model, config)
        state = random_state(interval_basis, 3)
        state.alpha.data *= 1e120
        with pytest.raises(dyn.BlowUpError) as info, np.errstate(all="ignore"):
            dyn.run(state, config, model, 5e-3, observer=collector.observe)
        assert info.value.t == state.t and info.value.state is state


class TestMemberAxis:
    """Members stacked on a leading axis, with K, chi and b per member,
    advance exactly as each advances alone."""

    K = np.array([1.0, 0.25, 0.0625])
    chi = np.array([0.05, 0.02, 0.01])
    b = np.array([0.1, 0.5, 0.02])

    @pytest.fixture(params=["interval", "rectangle"])
    def basis(self, request, interval_basis, rect_basis):
        return interval_basis if request.param == "interval" else rect_basis

    @pytest.fixture(params=[1, 3], ids=["1-member", "3-members"])
    def members(self, request, basis):
        n = request.param
        states = [random_state(basis, 80 + i) for i in range(n)]
        batch = dyn.SimState(0.0, *(
            sp.FieldCoeffs(basis, np.stack([getattr(s, f).data
                                            for s in states]))
            for f in ("alpha", "gamma")))
        model = make_model(make_params(K=self.K[:n], chi=self.chi[:n],
                                       b=self.b[:n]))
        alone = [make_model(make_params(K=self.K[i], chi=self.chi[i],
                                        b=self.b[i])) for i in range(n)]
        return batch, model, states, alone

    def test_derive_rhs_and_step(self, members):
        batch, model, states, alone = members
        config = dyn.StepperConfig(dt=1e-3)
        fb = dyn.derive(batch, model, config)
        rb = dyn.rhs(batch, model, config, fields=fb)
        sb = dyn.step_imex(batch, config, model, fields=fb)
        for i, (state, member) in enumerate(zip(states, alone)):
            f = dyn.derive(state, member, config)
            for name in ("phi_g", "sigma_g", "mu_g", "gamma_phi", "S",
                         "m_g", "n_g"):
                assert same_bits(getattr(fb, name).values[i],
                                 getattr(f, name).values), name
            for name in ("grad_phi", "grad_N_sigma", "grad_mu", "v"):
                assert all(same_bits(x.values[i], y.values) for x, y in
                           zip(getattr(fb, name), getattr(f, name))), name
            assert same_bits(fb.M_gamma[i], f.M_gamma)
            assert same_bits(fb.mu.data[i], f.mu.data)
            assert same_bits(fb.p.data[i], f.p.data)
            r = dyn.rhs(state, member, config, fields=f)
            assert same_bits(rb[0][i], r[0]) and same_bits(rb[1][i], r[1])
            s = dyn.step_imex(state, config, member, fields=f)
            assert same_bits(sb.alpha.data[i], s.alpha.data)
            assert same_bits(sb.gamma.data[i], s.gamma.data)
            assert sb.norm()[i] == s.norm()

    def test_snapshots_of_a_batch(self, members):
        batch, model, states, alone = members
        config = dyn.StepperConfig(dt=1e-3)
        snaps = list(dyn.snapshots(batch, config, model, 4e-3, cadence=2))
        assert [f.state.t for f in snaps] == pytest.approx([0, 2e-3, 4e-3])
        for i, (state, member) in enumerate(zip(states, alone)):
            alone_snaps = list(dyn.snapshots(state, config, member, 4e-3,
                                             cadence=2))
            assert len(alone_snaps) == len(snaps)
            for f, g in zip(snaps, alone_snaps):
                assert same_bits(f.state.alpha.data[i], g.state.alpha.data)
                assert same_bits(f.state.gamma.data[i], g.state.gamma.data)
                assert all(same_bits(x.values[i], y.values)
                           for x, y in zip(f.v, g.v))

    def test_no_flow_batch(self, members):
        batch, model, states, alone = members
        config = dyn.StepperConfig(dt=1e-3, no_flow=True)
        fb = dyn.derive(batch, model, config)
        assert fb.p.data.shape == batch.alpha.data.shape
        step = dyn.step_imex(batch, config, model, fields=fb)
        for i, (state, member) in enumerate(zip(states, alone)):
            s = dyn.step_imex(state, config, member)
            assert same_bits(step.alpha.data[i], s.alpha.data)
            assert same_bits(step.gamma.data[i], s.gamma.data)

    def test_single_member_consumers_refuse_a_batch(self, members):
        batch, model, _, _ = members
        config = dyn.StepperConfig(dt=1e-3)
        fields = dyn.derive(batch, model, config)
        with pytest.raises(sp.BasisMismatchError):
            dg.energy(batch, model, config, fields=fields)
        collector = dg.DiagnosticsCollector(model, config)
        with pytest.raises(sp.BasisMismatchError):
            collector.observe(0, batch.t, fields)
        assert collector.records == []

    def test_parameters_checked_for_every_member(self):
        with pytest.raises(ValueError):
            make_params(K=np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            make_params(b=np.array([0.1, 0.0, -0.1]))


class TestSnapshots:
    def test_run_is_a_loop_over_snapshots(self, rect_basis):
        model = make_model()
        config = dyn.StepperConfig(dt=1e-3)
        seen = []
        traj = dyn.run(random_state(rect_basis, 47), config, model, 5e-3,
                       observer=lambda i, t, f: seen.append(i), cadence=2)
        snaps = list(dyn.snapshots(random_state(rect_basis, 47), config,
                                   model, 5e-3, cadence=2))
        assert seen == [0, 2, 4, 5]
        assert len(snaps) == len(traj)
        for f, state in zip(snaps, traj.states):
            assert f.state.t == state.t
            assert same_bits(f.state.alpha.data, state.alpha.data)

    def test_resumed_run_at_its_horizon_yields_nothing(self, interval_basis):
        snaps = dyn.snapshots(random_state(interval_basis, 48),
                              dyn.StepperConfig(dt=1e-3), make_model(), 0.0,
                              observe_initial=False)
        assert list(snaps) == []

    def test_implicit_factors_built_once_per_step_length(self, interval_basis,
                                                         monkeypatch):
        lengths = []
        real = dyn._implicit_factors

        def counted(basis, model, config, dt):
            lengths.append(dt)
            return real(basis, model, config, dt)

        monkeypatch.setattr(dyn, "_implicit_factors", counted)
        dyn.run(random_state(interval_basis, 49), dyn.StepperConfig(dt=1e-3),
                make_model(), 10e-3)
        assert lengths == [1e-3]
