import dataclasses
import json
import weakref
from dataclasses import replace

import numpy as np
import pytest

from chdarcy import config as cf
from chdarcy import diagnostics as dg
from chdarcy import dynamics as dyn
from chdarcy import model as md
from chdarcy import spectral as sp

import oracles
from conftest import (collected, make_model, make_params, random_state,
                      same_bits, traced_peak, trajectory)


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
        grid = interval_basis.default_grid
        alpha, _ = dyn.project_initial_data(
            lambda x: np.cos(np.pi * x), lambda x: np.zeros_like(x),
            interval_basis)
        x = grid.nodes[0]
        err = np.max(np.abs(sp.to_grid(alpha, grid) - np.cos(np.pi * x)))
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
            diff = sp.to_grid(alpha, dense) - phi0(x)
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


class TestRhs:
    def test_double_well_equilibrium(self, interval_basis):
        model = make_model(make_params(b=0.1), sources="zero", sigma_inf=0.0)
        state = dyn.SimState(0.0, sp.constant_field(interval_basis, 1.0),
                             sp.constant_field(interval_basis, 0.0))
        da, dgm = dyn.rhs(dyn.derive(state, model))
        assert np.max(np.abs(da)) < 1e-13
        assert np.max(np.abs(dgm)) < 1e-13

    def test_forcing_is_added_at_the_state_time(self, interval_basis):
        model = make_model()
        state = random_state(interval_basis, 3, scale=0.3)
        state.t = 0.25
        times = []

        def forcing(t):
            times.append(t)
            return np.full(interval_basis.n_modes, t), np.arange(
                interval_basis.n_modes, dtype=float)

        da, dgm = dyn.rhs(dyn.derive(state, model))
        fa, fg = dyn.rhs(dyn.derive(state, replace(model, forcing=forcing)))
        assert times == [0.25]
        assert same_bits(fa, da + 0.25)
        assert same_bits(fg, dgm + np.arange(interval_basis.n_modes))

    def test_constant_mode_conserved_without_sources(self, rect_basis):
        model = make_model(make_params(b=0.0), sources="zero")
        state = random_state(rect_basis, 17)
        da, dgm = dyn.rhs(dyn.derive(state, model))
        assert abs(da[0]) < 1e-13
        assert abs(dgm[0]) < 1e-13

    @pytest.mark.parametrize("seed, K, m, n", [
        *(pytest.param(seed, 1.0, 1.0, 1.0, id=f"{seed}")
          for seed in range(5)),
        *(pytest.param(seed, 0.0, 1.0, 1.0, id=f"{seed}-K0")
          for seed in range(5)),
        # unequal mobilities: each must weight its own equation's flux
        pytest.param(0, 1.0, 0.7, 1.3, id="0-m0.7-n1.3"),
    ])
    def test_matches_dense_oracle_1d(self, seed, K, m, n):
        basis = sp.build_basis(sp.Domain("interval", (1.0,)), 8)
        if K == 0.0:
            # a zero-mean volume source, which K = 0 must never divide by K
            data = np.zeros(basis.n_modes)
            data[2] = 0.7
            gv = sp.FieldCoeffs(basis, data)
            model = make_model(make_params(K=0.0), gamma_v=gv)
        else:
            model = make_model(m=m, n=n)
        state = random_state(basis, seed, scale=0.3)
        da, dgm = dyn.rhs(dyn.derive(state, model))
        ops = oracles.dense_galerkin_operators(state, model)
        da2, dg2 = oracles.dense_rhs(state, model, ops)
        scale = max(1.0, np.max(np.abs(da2)), np.max(np.abs(dg2)))
        assert np.max(np.abs(da - da2)) / scale < 1e-8
        assert np.max(np.abs(dgm - dg2)) / scale < 1e-8
        if K == 0.0:
            f = dyn.derive(state, model)
            for p, v in ((f.p, f.v), (ops.p, ops.v)):
                assert np.all(p.data == 0.0)
                assert all(np.all(vi == 0.0) for vi in v)

    def test_robin_term_tracks_length_across_recycled_bases(self):
        # Bases are built and dropped in turn, so their ids get reused;
        # each one's boundary term must still follow its own length L.
        model = make_model(make_params(b=0.5))
        for i in range(300):
            basis = sp.build_basis(sp.Domain("interval", (0.5 + i / 200,)), 8)
            state = random_state(basis, i, scale=0.3)
            da, dgm = dyn.rhs(dyn.derive(state, model))
            da2, dg2 = oracles.dense_rhs(state, model)
            scale = max(1.0, np.max(np.abs(da2)), np.max(np.abs(dg2)))
            assert np.max(np.abs(da - da2)) / scale < 1e-8, f"basis {i}"
            assert np.max(np.abs(dgm - dg2)) / scale < 1e-8, f"basis {i}"

    def test_dense_boundary_matrix_stays_out_of_the_solver(self, rect_basis,
                                                           monkeypatch):
        def refuse(basis):
            raise AssertionError("dense boundary matrix built")

        monkeypatch.setattr(oracles, "boundary_mass_matrix", refuse)
        model = make_model()
        config = dyn.StepperConfig(dt=1e-3)
        collector = dg.DiagnosticsCollector()
        dyn.run(random_state(rect_basis, 23), config, model, 3e-3,
                observer=collector.observe)
        assert len(collector.records) == 4
        assert collector.records[-1].norm_sigma_boundary > 0.0

        free = make_model(make_params(b=0.0), sources="zero")
        guarded = dyn.StepperConfig(dt=1e-3, energy_guard=True)
        dyn.step_imex(dyn.derive(random_state(rect_basis, 24), free), guarded)

    def test_darcy_weak_divergence_matches_volume_source(self, rect_basis):
        # weak divergence of the Darcy velocity reproduces Gamma_v / nothing
        model = make_model()
        state = random_state(rect_basis, 23)
        der = dyn.derive(state, model)
        div_v = sp.divergence_to_coeffs(der.grid, der.v)
        assert np.max(np.abs(div_v.data)) < 1e-11

        data = np.zeros(rect_basis.n_modes)
        data[rect_basis.modes[1]] = 0.7  # mode (1, 0)
        gv = sp.FieldCoeffs(rect_basis, data)
        model_gv = make_model(gamma_v=gv)
        state2 = random_state(rect_basis, 24)
        der2 = dyn.derive(state2, model_gv)
        div_v2 = sp.divergence_to_coeffs(der2.grid, der2.v)
        assert np.max(np.abs(div_v2.data - gv.data)) < 1e-11

    def test_no_flow_skips_darcy(self, interval_basis):
        model = make_model(make_params(K=0.0))
        state = random_state(interval_basis, 3)
        der = dyn.derive(state, model)
        assert der.v == () and der.v_sq == 0.0

    def test_no_flow_evaluation_holds_no_velocity(self, rect_basis):
        # phi, sigma, mu and Gamma_phi, which S shares under Hawkins
        # sources; a flow state adds the two components of v
        grid = rect_basis.default_grid
        for K, expected in ((0.0, 4), (1.0, 6)):
            der = dyn.derive(random_state(rect_basis, 3),
                             make_model(make_params(K=K)))
            held = [getattr(der, f.name) for f in dataclasses.fields(der)]
            held = [x for v in held
                    for x in (v if isinstance(v, tuple) else (v,))]
            assert len({id(x) for x in held if isinstance(x, np.ndarray)
                        and x.shape == grid.npoints}) == expected

    def test_batch_mixing_k_zero_and_k_positive_is_an_error(
            self, interval_basis):
        model = make_model(make_params(K=np.array([1.0, 0.0])))
        states = [random_state(interval_basis, i) for i in (3, 4)]
        batch = dyn.SimState(0.0, *(
            sp.FieldCoeffs(interval_basis,
                           np.stack([getattr(s, f).data for s in states]))
            for f in ("alpha", "gamma")))
        with pytest.raises(ValueError):
            dyn.derive(batch, model)

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
        chi0 = replace(model, params=replace(model.params, chi=0.0))
        spec["limit_mode"] = "no-chemotaxis"
        limit = cf.parse_config(json.dumps(spec)).build_model(interval_basis)
        state = random_state(interval_basis, 8)
        da1, dg1 = dyn.rhs(dyn.derive(state, limit))
        da2, dg2 = dyn.rhs(dyn.derive(state.copy(), chi0))
        assert same_bits(da1, da2) and same_bits(dg1, dg2)


class TestDenseOperators:
    def test_constant_mobility_stiffness_is_diagonal(self, interval_basis):
        model = make_model(m=0.7)
        state = random_state(interval_basis, 4)
        ops = oracles.dense_galerkin_operators(state, model)
        assert np.max(np.abs(ops.S_m - 0.7 * np.diag(interval_basis.eigenvalues))) < 1e-10

    def test_stiffness_symmetric_psd(self, rect_basis):
        model = make_model()
        state = random_state(rect_basis, 6)
        ops = oracles.dense_galerkin_operators(state, model)
        for M in (ops.S_m, ops.S_n, ops.M_bdry):
            assert np.max(np.abs(M - M.T)) < 1e-10
            assert np.min(np.linalg.eigvalsh(M)) > -1e-10

    def test_psi_vector_vanishes_at_zero(self, interval_basis):
        model = make_model()
        state = dyn.SimState(0.0, sp.constant_field(interval_basis, 0.0),
                             sp.constant_field(interval_basis, 0.0))
        ops = oracles.dense_galerkin_operators(state, model)
        assert np.max(np.abs(ops.psi_vec)) < 1e-14

    def test_convection_zero_in_no_flow(self, interval_basis):
        model = make_model(make_params(K=0.0))
        state = random_state(interval_basis, 5)
        ops = oracles.dense_galerkin_operators(state, model)
        assert np.all(ops.C == 0.0)


class TestImex:
    def test_equilibrium_fixed_point(self, interval_basis):
        model = make_model(make_params(b=0.0), sources="zero")
        config = dyn.StepperConfig(dt=1e-2)
        state = dyn.SimState(0.0, sp.constant_field(interval_basis, 1.0),
                             sp.constant_field(interval_basis, 0.0))
        new, _ = dyn.step_imex(dyn.derive(state, model), config)
        assert np.max(np.abs(new.alpha.data - state.alpha.data)) < 1e-14
        assert np.max(np.abs(new.gamma.data - state.gamma.data)) < 1e-14

    def test_linear_mode_is_backward_euler(self):
        kappa = 2.0
        basis = sp.build_basis(sp.Domain("interval", (1.0,)), 6)
        params = make_params(K=0.0, chi=0.0, b=0.0)
        model = make_model(params, sources="zero",
                           potential=linear_test_potential(kappa))
        config = dyn.StepperConfig(dt=1e-2, kappa=kappa)
        data = np.zeros(basis.n_modes)
        data[2] = 1.0
        state = dyn.SimState(0.0, sp.FieldCoeffs(basis, data),
                             sp.constant_field(basis, 0.0))
        new, _ = dyn.step_imex(dyn.derive(state, model), config)
        lam = basis.eigenvalues[2]
        L = params.B * lam ** 2 + params.A * kappa * lam
        expect = 1.0 / (1.0 + config.dt * L)
        assert abs(new.alpha.data[2] - expect) < 1e-13

    def test_first_order_richardson(self, interval_basis):
        model = make_model()
        state = random_state(interval_basis, 12, scale=0.3)
        T = 0.02

        def final(dt):
            return dyn.run(state.copy(), dyn.StepperConfig(dt=dt), model, T)

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
            dyn.step_imex(dyn.derive(state, model), config)

    def test_energy_guard_halves_and_then_accepts(self):
        # the whole step and its first halving raise E; four substeps
        # of dt/4 do not
        basis = sp.build_basis(sp.Domain("interval", (1.0,)), 16)
        model = make_model(make_params(b=0.0), sources="zero")
        state = random_state(basis, 30, scale=0.25)
        config = dyn.StepperConfig(dt=0.01, energy_guard=True, tol_E=0.0,
                                   max_halvings=8)
        new, report = dyn.step_imex(dyn.derive(state, model), config)
        assert (report.substeps, report.rejected_energy,
                report.rejected_nonfinite) == (4, 2, 0)
        assert sum(report.energy_parts) <= sum(
            dyn.derive(state, model).energy_parts)

        handed = dyn.derive(new, model, report)
        fresh = dyn.derive(new, model)
        assert handed.phi_g is report.phi_g
        assert handed.sigma_g is report.sigma_g
        assert handed.report is report and fresh.report is None
        for name in ("phi_g", "sigma_g", "mu_g", "gamma_phi", "S", "M_gamma"):
            assert same_bits(getattr(handed, name), getattr(fresh, name)), name
        assert len(handed.v) == len(fresh.v) == 1
        assert all(same_bits(x, y) for x, y in zip(handed.v, fresh.v))
        for name in ("mu", "p"):
            assert same_bits(getattr(handed, name).data,
                             getattr(fresh, name).data), name
        assert same_bits(handed.energy_parts, fresh.energy_parts)

    def test_unguarded_step_reports_one_substep(self, interval_basis):
        state = random_state(interval_basis, 31)
        _, report = dyn.step_imex(dyn.derive(state, make_model()),
                                  dyn.StepperConfig(dt=1e-3))
        assert (report.substeps, report.rejected_energy,
                report.rejected_nonfinite) == (1, 0, 0)
        assert report.phi_g is None and report.energy_parts is None

    def test_energy_guard_accepts_decaying_step(self, interval_basis):
        model = make_model(make_params(b=0.0), sources="zero")
        state = random_state(interval_basis, 30, scale=0.2)
        config = dyn.StepperConfig(dt=1e-3, energy_guard=True, tol_E=0.0,
                                   max_halvings=6)
        e0 = dg.energy(dyn.derive(state, model)).total
        new, _ = dyn.step_imex(dyn.derive(state, model), config)
        assert dg.energy(dyn.derive(new, model)).total <= e0 + 1e-12


    def test_nonfinite_step_is_blowup(self, interval_basis):
        model = make_model()
        state = random_state(interval_basis, 3)
        state.alpha.data *= 1e120
        with pytest.raises(dyn.BlowUpError) as info, np.errstate(all="ignore"):
            dyn.run(state, dyn.StepperConfig(dt=1e-3), model, 1e-3)
        assert info.value.t == state.t and info.value.state is state


class TestRk4:
    def test_linear_mode_matches_exponential(self):
        kappa = 2.0
        basis = sp.build_basis(sp.Domain("interval", (1.0,)), 6)
        params = make_params(K=0.0, chi=0.0, b=0.0)
        model = make_model(params, sources="zero",
                           potential=linear_test_potential(kappa))
        dt = 1e-3
        config = dyn.StepperConfig(dt=dt, scheme="rk4-explicit")
        data = np.zeros(basis.n_modes)
        data[1] = 1.0
        state = dyn.SimState(0.0, sp.FieldCoeffs(basis, data),
                             sp.constant_field(basis, 0.0))
        new, report = dyn.step_rk4_explicit(dyn.derive(state, model), config)
        assert report.substeps == 1 and report.phi_g is None
        lam = basis.eigenvalues[1]
        L = params.B * lam ** 2 + params.A * kappa * lam
        assert abs(new.alpha.data[1] - np.exp(-L * dt)) < (L * dt) ** 5

    def test_blowup_detected(self, interval_basis):
        model = make_model()
        state = random_state(interval_basis, 1, scale=1.0)
        config = dyn.StepperConfig(dt=50.0, scheme="rk4-explicit")
        with pytest.raises(dyn.BlowUpError), np.errstate(all="ignore"):
            for _ in range(40):
                state, _ = dyn.step_rk4_explicit(dyn.derive(state, model),
                                                 config)

    def test_consistent_with_imex_at_small_dt(self, rect_basis):
        model = make_model()
        state = random_state(rect_basis, 7)
        dt = 1e-6
        s1, _ = dyn.step_imex(dyn.derive(state, model),
                              dyn.StepperConfig(dt=dt))
        s2, _ = dyn.step_rk4_explicit(
            dyn.derive(state.copy(), model),
            dyn.StepperConfig(dt=dt, scheme="rk4-explicit"))
        assert np.max(np.abs(s1.alpha.data - s2.alpha.data)) < 1e-5 * dt ** 0.0 * 1e-1


class TestRun:
    def test_t_zero_returns_initial_only(self, interval_basis):
        model = make_model()
        state = random_state(interval_basis, 2)
        seen = []
        final = dyn.run(state, dyn.StepperConfig(dt=1e-3), model, 0.0,
                        observer=lambda f: seen.append(f.state))
        assert final is state
        assert len(seen) == 1 and seen[0] is state

    def test_cadence_and_final_snapshot(self, interval_basis):
        model = make_model()
        state = random_state(interval_basis, 2)
        config = dyn.StepperConfig(dt=1e-3)
        seen = []
        final = dyn.run(state, config, model, 0.01, cadence=3,
                        observer=lambda f: seen.append(
                            round(f.state.t / config.dt)))
        assert seen == [0, 3, 6, 9, 10]
        assert round(final.t / config.dt) == 10

    def test_determinism(self, interval_basis):
        model = make_model()
        state = random_state(interval_basis, 2)
        t1 = dyn.run(state.copy(), dyn.StepperConfig(dt=1e-3), model, 0.01)
        t2 = dyn.run(state.copy(), dyn.StepperConfig(dt=1e-3), model, 0.01)
        assert np.array_equal(t1.alpha.data, t2.alpha.data)
        assert np.array_equal(t1.gamma.data, t2.gamma.data)

    def test_mass_laws_per_step(self, rect_basis):
        model = make_model()
        config = dyn.StepperConfig(dt=1e-3)
        state = random_state(rect_basis, 19)
        traj = trajectory(state, config, model, 0.01)
        records = collected(traj, model)[1:]
        norm = 1.0 + state.norm()
        assert max(abs(r.res_mass_phi) for r in records) < 1e-12 * norm
        assert max(abs(r.res_mass_sigma) for r in records) < 1e-12 * norm


class TestPureEvaluation:
    def test_rhs_follows_the_model_it_is_given(self, interval_basis):
        model = make_model(make_params(chi=0.3))
        limit = make_model(make_params(K=0.0, chi=0.3))
        state = random_state(interval_basis, 8)
        fresh = state.copy()
        dyn.rhs(dyn.derive(state, model))
        da, dgm = dyn.rhs(dyn.derive(state, limit))
        da_fresh, dg_fresh = dyn.rhs(dyn.derive(fresh, limit))
        assert np.array_equal(da, da_fresh)
        assert np.array_equal(dgm, dg_fresh)

    def test_derive_stores_nothing_on_the_state(self, interval_basis):
        state = random_state(interval_basis, 8)
        before = dict(vars(state))
        dyn.derive(state, make_model())
        assert vars(state) == before


class TestEvaluationBudget:
    n = 10

    @pytest.fixture
    def source_calls(self, count_calls):
        return count_calls(md, "evaluate_sources")

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
        seen = []
        dyn.run(random_state(rect_basis, 41, scale=0.1), config, model,
                self.n * config.dt, observer=lambda f: seen.append(f.state.t))
        assert len(seen) == self.n + 1
        assert len(source_calls) <= self.n + 1

    def test_guarded_observed_run_makes_one_free_energy_per_state(
            self, rect_basis, count_calls):
        # the guard's E1 of each new state is handed on to its evaluation,
        # where the ledger and the next step's E0 read it; only the first
        # state computes its own
        calls = count_calls(md, "free_energy")
        model = make_model(make_params(b=0.0), sources="zero")
        config = dyn.StepperConfig(dt=1e-3, energy_guard=True, tol_E=1e-12)
        collector = dg.DiagnosticsCollector()
        dyn.run(random_state(rect_basis, 41, scale=0.1), config, model,
                self.n * config.dt, observer=collector.observe)
        assert len(collector.records) == self.n + 1
        assert len(calls) == self.n + 1

    def test_guarded_flow_step_makes_three_syntheses(self, rect_basis,
                                                     count_calls):
        # the guard synthesizes phi and sigma of the accepted state, and
        # that state's evaluation synthesizes only mu; the first state's
        # evaluation synthesizes all three
        calls = count_calls(sp, "to_grid")
        model = make_model(make_params(b=0.0), sources="zero")
        config = dyn.StepperConfig(dt=1e-3, energy_guard=True, tol_E=1e-12)
        collector = dg.DiagnosticsCollector()
        dyn.run(random_state(rect_basis, 41, scale=0.1), config, model,
                self.n * config.dt, observer=collector.observe)
        assert len(calls) == 3 + 3 * self.n

    def test_observed_run_evaluates_each_state_at_most_twice(
            self, rect_basis, source_calls):
        model = make_model()
        config = dyn.StepperConfig(dt=1e-3)
        collector = dg.DiagnosticsCollector()
        dyn.run(random_state(rect_basis, 42), config, model,
                self.n * config.dt, observer=collector.observe)
        assert len(collector.records) == self.n + 1
        assert len(source_calls) <= 2 * (self.n + 1)

    def test_observed_run_evaluates_each_state_once(self, rect_basis,
                                                    source_calls):
        model = make_model()
        config = dyn.StepperConfig(dt=1e-3)
        collector = dg.DiagnosticsCollector()
        dyn.run(random_state(rect_basis, 42), config, model,
                self.n * config.dt, observer=collector.observe)
        assert len(collector.records) == self.n + 1
        assert len(source_calls) <= self.n + 1

    def test_observer_receives_the_evaluation_of_each_snapshot(
            self, rect_basis):
        model = make_model()
        config = dyn.StepperConfig(dt=1e-3)
        seen = []
        final = dyn.run(random_state(rect_basis, 45), config, model, 6e-3,
                        observer=seen.append, cadence=2)
        snaps = list(dyn.snapshots(random_state(rect_basis, 45), config,
                                   model, 6e-3, cadence=2))
        assert len(seen) == len(snaps) == 4
        assert seen[-1].state is final
        for f, g in zip(seen, snaps):
            assert isinstance(f, dyn.StateFields)
            assert f.state.t == g.state.t
            assert all(same_bits(a, b) for a, b in zip(f.v, g.v))

    def test_run_resolves_kappa_once(self, interval_basis):
        calls = []
        model = make_model()
        d2psi = model.potential.d2psi

        def counted(t):
            calls.append(1)
            return d2psi(t)

        model = replace(model, potential=replace(model.potential,
                                                 d2psi=counted))
        config = dyn.StepperConfig(dt=1e-3)
        dyn.run(random_state(interval_basis, 44), config, model,
                self.n * config.dt)
        assert len(calls) == 1

    @pytest.fixture
    def transforms(self, monkeypatch):
        """The outermost spectral transform calls, by name, in order:
        to_coeffs and divergence_to_coeffs delegate to weak_form, which
        is not counted again inside them."""
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
            monkeypatch.setattr(sp, name, counting(name, getattr(sp, name)))
        return calls

    def test_one_evaluation_transforms_each_field_once(self, rect_basis,
                                                       transforms):
        dyn.rhs(dyn.derive(random_state(rect_basis, 46), make_model()))
        # phi, sigma and mu synthesized once each, the psi' projection,
        # grad(phi) for the Darcy forcing, its divergence and grad(p),
        # then one projection per equation: the diffusive terms are
        # taken on the coefficients, with no gradient
        assert sorted(transforms) == sorted(
            ["to_grid"] * 3 + ["gradient_on_grid"] * 2 + ["to_coeffs"]
            + ["divergence_to_coeffs"] + ["weak_form"] * 2)

    def test_no_flow_evaluation_takes_no_gradient(self, rect_basis,
                                                  transforms):
        model = make_model(make_params(K=0.0))
        dyn.rhs(dyn.derive(random_state(rect_basis, 46), model))
        # at K = 0 no Darcy system is solved and no flux is projected
        assert sorted(transforms) == sorted(
            ["to_grid"] * 3 + ["to_coeffs"] + ["weak_form"] * 2)

    def test_snapshots_carry_the_velocity_of_their_state(self, rect_basis):
        model = make_model()
        config = dyn.StepperConfig(dt=1e-3)
        snaps = list(dyn.snapshots(random_state(rect_basis, 43), config,
                                   model, 5e-3, cadence=2))
        assert len(snaps) == 4
        for f in snaps:
            expect = dyn.derive(f.state.copy(), model).v
            assert all(np.array_equal(a, b) for a, b in zip(f.v, expect))


class TestRunFailures:
    @pytest.mark.parametrize(
        "basis,guarded", [("interval_basis", False), ("interval_basis", True),
                          ("rect_basis", False), ("rect_basis", True)],
        ids=["False", "True", "rectangle-False", "rectangle-True"])
    def test_overflowing_state_is_blowup(self, request, basis, guarded):
        model = make_model(make_params(b=0.0), sources="zero")
        config = dyn.StepperConfig(dt=1e-3, energy_guard=guarded)
        collector = dg.DiagnosticsCollector()
        state = random_state(request.getfixturevalue(basis), 3)
        state.alpha.data *= 1e120
        with pytest.raises(dyn.BlowUpError) as info, np.errstate(all="ignore"):
            dyn.run(state, config, model, 5e-3, observer=collector.observe)
        assert info.value.t == state.t and info.value.state is state

    @pytest.mark.parametrize("basis", ["interval_basis", "rect_basis"])
    @pytest.mark.parametrize("guarded", [False, True])
    def test_overflowing_darcy_forcing_is_blowup(self, request, basis,
                                                 guarded):
        # mu is finite at this scale, but (mu + chi sigma) grad(phi) is not
        model = make_model(make_params(b=0.0), sources="zero")
        config = dyn.StepperConfig(dt=1e-3, energy_guard=guarded)
        state = random_state(request.getfixturevalue(basis), 3)
        state.alpha.data *= 1e100
        with pytest.raises(dyn.BlowUpError) as info, np.errstate(all="ignore"):
            dyn.run(state, config, model, 5e-3)
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
        fb = dyn.derive(batch, model)
        rb = dyn.rhs(fb)
        sb, _ = dyn.step_imex(fb, config)
        for i, (state, member) in enumerate(zip(states, alone)):
            f = dyn.derive(state, member)
            for name in ("phi_g", "sigma_g", "mu_g", "gamma_phi", "S"):
                assert same_bits(getattr(fb, name)[i], getattr(f, name)), name
            assert all(same_bits(x[i], y) for x, y in zip(fb.v, f.v))
            assert same_bits(fb.M_gamma[i], f.M_gamma)
            assert same_bits(fb.mu.data[i], f.mu.data)
            assert same_bits(fb.p.data[i], f.p.data)
            r = dyn.rhs(f)
            assert same_bits(rb[0][i], r[0]) and same_bits(rb[1][i], r[1])
            s, _ = dyn.step_imex(f, config)
            assert same_bits(sb.alpha.data[i], s.alpha.data)
            assert same_bits(sb.gamma.data[i], s.gamma.data)
            assert sb.norm()[i] == s.norm()

    def test_grid_values_are_arrays(self, members):
        batch, model, states, alone = members
        for f, shape in ((dyn.derive(batch, model), (len(states),)),
                         (dyn.derive(states[0], alone[0]), ())):
            shape += f.grid.npoints
            values = [f.phi_g, f.sigma_g, f.mu_g, f.gamma_phi, f.S, *f.v]
            assert len(values) == 5 + f.grid.dim
            for x in values:
                assert type(x) is np.ndarray and x.shape == shape

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
                assert all(same_bits(x[i], y) for x, y in zip(f.v, g.v))

    def test_no_flow_batch(self, members):
        batch, _, states, _ = members
        n = len(states)
        model = make_model(make_params(K=np.zeros(n), chi=self.chi[:n],
                                       b=self.b[:n]))
        alone = [make_model(make_params(K=0.0, chi=self.chi[i], b=self.b[i]))
                 for i in range(n)]
        config = dyn.StepperConfig(dt=1e-3)
        fb = dyn.derive(batch, model)
        assert fb.p.data.shape == batch.alpha.data.shape
        step, _ = dyn.step_imex(fb, config)
        for i, (state, member) in enumerate(zip(states, alone)):
            s, _ = dyn.step_imex(dyn.derive(state, member), config)
            assert same_bits(step.alpha.data[i], s.alpha.data)
            assert same_bits(step.gamma.data[i], s.gamma.data)

    def test_single_member_consumers_refuse_a_batch(self, members):
        batch, model, _, _ = members
        fields = dyn.derive(batch, model)
        with pytest.raises(sp.BasisMismatchError):
            dg.energy(fields)
        collector = dg.DiagnosticsCollector()
        with pytest.raises(sp.BasisMismatchError):
            collector.observe(fields)
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
        final = dyn.run(random_state(rect_basis, 47), config, model, 5e-3,
                        observer=lambda f: seen.append(f.state), cadence=2)
        snaps = list(dyn.snapshots(random_state(rect_basis, 47), config,
                                   model, 5e-3, cadence=2))
        assert [round(s.t / config.dt) for s in seen] == [0, 2, 4, 5]
        assert len(snaps) == len(seen) and seen[-1] is final
        for f, state in zip(snaps, seen):
            assert f.state.t == state.t
            assert same_bits(f.state.alpha.data, state.alpha.data)

    def test_each_snapshot_holds_its_step_report(self, interval_basis):
        model = make_model(make_params(b=0.0), sources="zero")
        config = dyn.StepperConfig(dt=1e-3, energy_guard=True)
        reports = [f.report for f in dyn.snapshots(
            random_state(interval_basis, 46, scale=0.1), config, model,
            4e-3, cadence=2)]
        assert len(reports) == 3 and reports[0] is None
        for report in reports[1:]:
            assert report.substeps == 1 and report.energy_parts is not None

    @pytest.mark.parametrize("cadence", [0, -1])
    def test_refuses_a_cadence_below_one(self, interval_basis, cadence):
        snaps = dyn.snapshots(random_state(interval_basis, 48),
                              dyn.StepperConfig(dt=1e-3), make_model(), 0.01,
                              cadence=cadence)
        with pytest.raises(ValueError, match="cadence"):
            next(snaps)

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


class TestWorkingSet:
    """A step holds one evaluation: a state's StateFields is dropped
    before the next state's is built."""

    @pytest.fixture
    def alive_at_each_new_state(self, monkeypatch):
        """Wrap derive and the steppers; for each derive of a state that a
        stepper returned, record how many earlier evaluations are alive."""
        evaluations, stepped, alive = [], [], []
        real_derive = dyn.derive

        def tracked_derive(state, model, report=None):
            if any(state is s for s in stepped):
                alive.append(sum(ref() is not None for ref in evaluations))
            fields = real_derive(state, model, report)
            evaluations.append(weakref.ref(fields))
            return fields

        def tracked(step):
            def stepper(*args, **kwargs):
                new, report = step(*args, **kwargs)
                stepped.append(new)
                return new, report
            return stepper

        monkeypatch.setattr(dyn, "derive", tracked_derive)
        for name in ("step_imex", "step_rk4_explicit"):
            monkeypatch.setattr(dyn, name, tracked(getattr(dyn, name)))
        return alive

    @pytest.mark.parametrize("case", ["imex", "guarded-imex", "rk4",
                                      "run-observed"])
    def test_one_evaluation_alive_at_a_time(self, rect_basis, case,
                                            alive_at_each_new_state):
        n = 4
        model = make_model()
        config = dyn.StepperConfig(dt=1e-4)
        if case == "guarded-imex":
            model = make_model(make_params(b=0.0), sources="zero")
            config = replace(config, energy_guard=True, tol_E=1e-12)
        elif case == "rk4":
            config = replace(config, scheme="rk4-explicit")
        state = random_state(rect_basis, 50, scale=0.1)
        if case == "run-observed":
            collector = dg.DiagnosticsCollector()
            dyn.run(state, config, model, n * config.dt,
                    observer=collector.observe)
            assert len(collector.records) == n + 1
        else:
            for fields in dyn.snapshots(state, config, model, n * config.dt):
                del fields
        assert alive_at_each_new_state == [0] * n

    def test_run_memory_does_not_grow_with_its_length(self):
        # run keeps no state: a 2000-step run peaks where a 100-step run
        # does.  A state on this basis is 1 KB, so keeping every state
        # would add about 3 MB
        basis = sp.build_basis(sp.Domain("rectangle", (1.0, 1.0)), (8, 8))
        model = make_model()
        config = dyn.StepperConfig(dt=1e-4)
        state = random_state(basis, 51, scale=0.1)
        dyn.run(state, config, model, 10 * config.dt)  # first-use caches
        short, long = (traced_peak(dyn.run, state, config, model,
                                   n * config.dt) for n in (100, 2000))
        assert long <= short + 256 * 2 ** 10, (short, long)

    def test_run_working_set_in_grid_arrays(self):
        # the reference physics at 32^2, a 4-step run snapshotted at its
        # start and end, observed as the CLI observes it.  It peaks at 15.0
        # grid arrays; the bound sits below the 20.0 it reached while each
        # evaluation also held grad(phi), grad(mu) and grad(N_sigma)
        basis = sp.build_basis(sp.Domain("rectangle", (1.0, 1.0)), (32, 32))
        model = make_model()
        state = dyn.SimState(0.0, *dyn.project_initial_data(
            lambda x, y: 0.3 * np.cos(np.pi * x) * np.cos(np.pi * y),
            lambda x, y: 0.5 + 0.1 * np.cos(np.pi * x), basis))
        config = dyn.StepperConfig(dt=1e-3)
        dg.energy(dyn.derive(state, model))  # the basis builds its grid and constants
        collector = dg.DiagnosticsCollector()
        peak = traced_peak(dyn.run, state, config, model, 4 * config.dt,
                           observer=collector.observe, cadence=4)
        assert len(collector.records) == 2
        grid_array = 8 * np.prod(basis.default_grid.npoints)
        assert peak <= 18 * grid_array, peak / grid_array
