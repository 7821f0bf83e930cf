from dataclasses import replace

import numpy as np
import pytest

from chdarcy import diagnostics as dg
from chdarcy import dynamics as dyn
from chdarcy import experiments as ex
from chdarcy import spectral as sp

import oracles
from conftest import (make_model, make_params, random_state, traced_peak,
                      trajectory)


class TestFitRate:
    def test_exact_power_laws(self):
        x = np.array([1.0, 0.5, 0.25, 0.125])
        for p in (1.0, 0.5, 2.0):
            fit = ex.fit_rate(x, 3.0 * x ** p)
            assert abs(fit.slope - p) < 1e-12
            assert abs(fit.intercept - np.log(3.0)) < 1e-12

    def test_noisy_half_order(self):
        rng = np.random.default_rng(0)
        x = np.array([1.0, 0.5, 0.25, 0.125, 0.0625])
        y = np.sqrt(x) * np.exp(0.01 * rng.standard_normal(5))
        fit = ex.fit_rate(x, y)
        assert 0.45 < fit.slope < 0.55

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            ex.fit_rate([1.0, 0.5], [1.0, 0.5])
        with pytest.raises(ValueError):
            ex.fit_rate([1.0, 0.5, -0.25], [1.0, 0.5, 0.25])
        with pytest.raises(ValueError):
            ex.fit_rate([1.0, 0.5, 0.25], [1.0, 0.5, 0.25, 0.1])


IMEX = dyn.StepperConfig(dt=1e-3)


class TestSweepSpec:
    def test_valid(self):
        spec = ex.SweepSpec("K", (1.0, 0.5, 0.25), IMEX, T=0.01)
        assert spec.values == (1.0, 0.5, 0.25)

    def test_rejects_unordered_or_nonpositive(self):
        with pytest.raises(ValueError):
            ex.SweepSpec("K", (0.5, 1.0), IMEX, T=0.01)
        with pytest.raises(ValueError):
            ex.SweepSpec("K", (1.0, 0.0), IMEX, T=0.01)
        with pytest.raises(ValueError):
            ex.SweepSpec("xi", (1.0, 0.5), IMEX, T=0.01)

    def test_rejects_no_values(self):
        with pytest.raises(ValueError, match="at least one value"):
            ex.SweepSpec("K", (), IMEX, T=0.01)


@pytest.fixture(scope="module")
def setup():
    basis = sp.build_basis(sp.Domain("interval", (1.0,)), 8)
    model = make_model()
    initial = random_state(basis, 60, scale=0.15)
    return basis, model, initial


class TestSweeps:
    def test_permeability_differences_decrease(self, setup):
        _, model, initial = setup
        spec = ex.SweepSpec("K", (1.0, 0.25, 0.0625), IMEX, T=0.02)
        rows = ex.sweep(spec, model, initial)
        assert all(r.failed is None for r in rows)
        diffs = [r.diff_phi for r in rows]
        assert diffs[0] > diffs[1] > diffs[2] > 0
        vels = [r.v_l2l2 for r in rows]
        assert vels[0] > vels[1] > vels[2] > 0
        for r in rows:
            assert type(r.v_l2l2) is float and type(r.v_scaled) is float

    def test_chemotaxis_differences_decrease(self, setup):
        _, model, initial = setup
        spec = ex.SweepSpec("chi", (0.5, 0.25, 0.125), IMEX, T=0.02)
        rows = ex.sweep(spec, model, initial)
        assert all(r.failed is None for r in rows)
        diffs = [max(r.diff_phi, r.diff_sigma) for r in rows]
        assert diffs[0] > diffs[1] > diffs[2] > 0

    def test_memory_does_not_grow_by_a_state_per_snapshot(self):
        # the limit run advances in lockstep with the members, so 350
        # more snapshots add only their per-member scalars (about 150
        # KiB); keeping each limit state (2.25 KiB on this basis) would
        # add about 1.1 MiB.  The bound is half a state per snapshot.
        # The differences are running maxima, so a snapshot keeps only
        # its time and |v|^2 integrals, about 165 bytes: the second
        # bound, 300 bytes per snapshot, is crossed by a new array per
        # difference per snapshot (about 440 bytes).  The warm-up runs
        # at the long length, so that the interpreter's freelists, which
        # tracemalloc counts as live, are full before either reading
        basis = sp.build_basis(sp.Domain("rectangle", (1.0, 1.5)), (12, 12))
        model = make_model()
        initial = random_state(basis, 62, scale=0.1)
        config = dyn.StepperConfig(dt=1e-4)

        def spec(n_steps):
            return ex.SweepSpec("K", (0.25, 0.0625), config,
                                T=n_steps * config.dt)

        rows = ex.sweep(spec(400), model, initial)  # first-use caches
        assert all(r.failed is None for r in rows)
        short, long = (traced_peak(ex.sweep, spec(n), model, initial)
                       for n in (50, 400))
        state = 2 * 8 * basis.n_modes
        assert long - short <= 350 * state / 2, (short, long)
        assert long - short <= 350 * 300, (short, long)

    def test_permeability_sweep_rejects_volume_source(self, setup):
        basis, model, initial = setup
        data = np.zeros(basis.n_modes)
        data[1] = 0.1
        gv = sp.FieldCoeffs(basis, data)
        spec = ex.SweepSpec("K", (1.0, 0.5), IMEX, T=0.01)
        with pytest.raises(ValueError):
            ex.sweep(spec, make_model(gamma_v=gv), initial)


def table(rows):
    """Rows as the sweep CSV writes them."""
    return [(f"{r.value:.17g}", f"{r.v_l2l2:.17g}", f"{r.v_scaled:.17g}",
             f"{r.diff_phi:.17g}", f"{r.diff_sigma:.17g}", r.failed or "")
            for r in rows]


def member_by_member(spec, model, initial):
    """The sweep table from one whole run per member, each trajectory
    compared with the limit run's afterwards."""
    parameter = spec.parameter
    limit_model = replace(model, params=replace(
        model.params, **{parameter: 0.0, "b": 0.0}))
    limit = trajectory(initial.copy(), spec.stepper, limit_model, spec.T,
                       cadence=spec.cadence)
    rows = []
    for value in spec.values:
        member = replace(model, params=replace(
            model.params, **{parameter: value, "b": value}))
        try:
            traj = trajectory(initial.copy(), spec.stepper, member, spec.T,
                              cadence=spec.cadence)
        except dyn.StepFailureError as exc:
            rows.append(ex.SweepRow(value, np.nan, np.nan, np.nan, np.nan,
                                    failed=str(exc)))
            continue
        assert len(traj) == len(limit)
        times = [s.t for s in traj]
        v_sq = [dyn.derive(s, member).v_sq for s in traj]
        v_l2l2, v_scaled = dg.velocity_time_norms(times, v_sq,
                                                  member.params.K)

        def difference(name):
            return float(max(ex._snapshot_difference(getattr(s, name),
                                                     getattr(ref, name))
                             for s, ref in zip(traj, limit)))

        rows.append(ex.SweepRow(value, v_l2l2, v_scaled, difference("alpha"),
                                difference("gamma")))
    return rows


K_VALUES = (1.0, 0.25, 0.0625, 0.015625)
CHI_VALUES = (0.5, 0.25, 0.125)
KAPPA50 = dyn.StepperConfig(dt=1e-3, kappa=50.0)
# RK4 is stable at this dt on the 8-mode interval
RK4 = dyn.StepperConfig(dt=2e-4, scheme="rk4-explicit")


class TestSweepTables:
    """The sweep table equals the one built member by member from whole
    trajectories, to the last digit the CSV writes."""

    # the ids name the norm the table compares in: the max in time of
    # the L2 distance
    @pytest.mark.parametrize("parameter,values,stepper", [
        pytest.param("K", K_VALUES, IMEX, id="K-values0-Linf-L2"),
        pytest.param("chi", CHI_VALUES, IMEX, id="chi-values1-Linf-L2"),
        pytest.param("K", K_VALUES, KAPPA50, id="K-kappa50-Linf-L2"),
        pytest.param("chi", CHI_VALUES, KAPPA50, id="chi-kappa50-Linf-L2"),
        pytest.param("K", K_VALUES, RK4, id="K-rk4-Linf-L2"),
        pytest.param("chi", CHI_VALUES, RK4, id="chi-rk4-Linf-L2"),
    ])
    def test_matches_member_by_member(self, setup, parameter, values,
                                      stepper):
        _, model, initial = setup
        spec = ex.SweepSpec(parameter, values, stepper, T=0.01, cadence=3)
        assert table(ex.sweep(spec, model, initial)) == table(
            member_by_member(spec, model, initial))

    @pytest.mark.parametrize("basis,stepper", [
        pytest.param(sp.build_basis(sp.Domain("interval", (1.0,)), 8), IMEX,
                     id="interval"),
        pytest.param(sp.build_basis(sp.Domain("rectangle", (1.0, 1.5)),
                                    (5, 4)), IMEX, id="rectangle"),
        pytest.param(sp.build_basis(sp.Domain("interval", (1.0,)), 8), RK4,
                     id="interval-rk4"),
    ])
    def test_member_that_blows_up(self, basis, stepper):
        model = make_model()
        initial = random_state(basis, 61, scale=0.15)
        spec = ex.SweepSpec("K", (1e6, 1.0, 0.25), stepper, T=0.02)
        with np.errstate(all="ignore"):
            rows = ex.sweep(spec, model, initial)
            expected = member_by_member(spec, model, initial)
        assert rows[0].failed and all(r.failed is None for r in rows[1:])
        assert table(rows) == table(expected)

    def test_limit_run_failing_after_every_member_still_raises(self):
        # RK4 beyond its stability bound: both members blow up before the
        # limit run does, and the limit run's failure is still raised,
        # as it is when the limit run fails first
        basis = sp.build_basis(sp.Domain("interval", (1.0,)), 8)
        initial = random_state(basis, 61, scale=0.15)
        stepper = dyn.StepperConfig(dt=2e-3, scheme="rk4-explicit")
        spec = ex.SweepSpec("K", (1e6, 1e5), stepper, T=0.2)
        with np.errstate(all="ignore"), pytest.raises(dyn.StepFailureError):
            ex.sweep(spec, make_model(), initial)


class TestManufacturedSolution:
    def test_coeffs_amplitude_scaling(self):
        basis = sp.build_basis(sp.Domain("interval", (1.0,)), 6)
        ms = ex.ManufacturedSolution(((0, 2.0), (1, 1.0)), ((2, 0.5),))
        cp, cs = ms.coeffs(basis, 0.0)
        assert abs(cp.data[0] - 2.0) < 1e-14              # sqrt(L) = 1
        assert abs(cp.data[1] - np.sqrt(0.5)) < 1e-14     # sqrt(L/2)
        assert abs(cs.data[2] - 0.5 * np.sqrt(0.5)) < 1e-14
        cp_t, _ = ms.coeffs(basis, 1.0)
        assert abs(cp_t.data[1] - np.sqrt(0.5) * np.exp(-1.0)) < 1e-14

    def test_from_callables_round_trip(self):
        basis = sp.build_basis(sp.Domain("interval", (1.0,)), 6)
        ms = oracles.from_callables(
            lambda x: 0.3 + np.cos(np.pi * x),
            lambda x: 0.5 * np.cos(2 * np.pi * x), basis)
        assert dict(ms.phi_amplitudes)[0] == pytest.approx(0.3, abs=1e-12)
        assert dict(ms.phi_amplitudes)[1] == pytest.approx(1.0, abs=1e-12)
        assert dict(ms.sigma_amplitudes)[2] == pytest.approx(0.5, abs=1e-12)

    def test_from_callables_rejects_sine(self):
        basis = sp.build_basis(sp.Domain("interval", (1.0,)), 12)
        with pytest.raises(ValueError):
            oracles.from_callables(
                lambda x: np.sin(np.pi * x), lambda x: np.zeros_like(x), basis)

    def test_max_wavenumber(self):
        ms = ex.ManufacturedSolution.default()
        assert ms.max_wavenumber() == 2


@pytest.fixture(scope="module")
def model():
    return make_model(make_params(b=0.0), sources="zero", sigma_inf=0.0)


class TestManufacturedStudy:
    def test_equilibrium_is_exact(self, model):
        basis = sp.build_basis(sp.Domain("interval", (1.0,)), 4)
        ms = oracles.equilibrium(1.0)
        err = ex.run_manufactured(ms, basis, model,
                                  dyn.StepperConfig(dt=1e-2), T=0.1)
        assert err < 1e-13

    def test_spatial_exactness_once_resolved(self, model):
        res = ex.manufactured_solution_study(
            orders=(1, 2, 3), dts=(1e-2, 5e-3, 2.5e-3), model=model, T=0.05)
        # the forcing is built in the same truncated span, so every order
        # integrates its projected target exactly; the resolved figure
        # covers the orders that span the full manufactured data
        assert np.max(res.spatial_errors) < 1e-10
        assert res.resolved_spatial_error < 1e-10
        assert res.spatial_orders == (1, 2, 3)

    def test_temporal_rate_first_order(self, model):
        res = ex.manufactured_solution_study(
            orders=(2,), dts=(1e-2, 5e-3, 2.5e-3, 1.25e-3), model=model)
        assert 0.8 < res.temporal_fit.slope < 1.2

    @pytest.mark.parametrize("scheme", ["rk4-explicit", "imex1"])
    def test_carried_forcing_matches_forcing_every_stage(self, model, scheme):
        # reference: every stage evaluates the forcing at its own time
        basis = sp.build_basis(sp.Domain("interval", (1.0,)), 4)
        ms = ex.ManufacturedSolution.default()
        config = dyn.StepperConfig(dt=1e-2, scheme=scheme)
        factors = dyn._implicit_factors(basis, model, config, 1e-2)

        def forced_rhs(s):
            da, dg_ = dyn.rhs(dyn.derive(s, model))
            fa, fg = ex._forcing(ms, basis, s.t, model)
            return da + fa, dg_ + fg

        cp, cs = ms.coeffs(basis, 0.0)
        state = dyn.SimState(0.0, cp, cs)
        for _ in range(10):
            if scheme == "imex1":
                state = dyn._imex_update(state, forced_rhs(state), factors,
                                         1e-2)
            else:
                state = dyn._rk4_update(state, 1e-2, forced_rhs,
                                        forced_rhs(state))
        ep, es = ms.coeffs(basis, state.t)
        expect = float(np.sqrt(np.sum((state.alpha.data - ep.data) ** 2)
                               + np.sum((state.gamma.data - es.data) ** 2)))
        assert expect > 0.0
        assert ex.run_manufactured(ms, basis, model, config, 0.1) == expect

    def test_energy_guard_leaves_a_forced_run_alone(self, model):
        # a growing manufactured solution raises the energy, but the
        # forcing is a source, so the guard must not act on its run
        basis = sp.build_basis(sp.Domain("interval", (1.0,)), 4)
        ms = ex.ManufacturedSolution(((1, 0.3),), ((2, 0.5),), decay=-2.0)
        errors = [ex.run_manufactured(
            ms, basis, model, dyn.StepperConfig(dt=1e-2, energy_guard=g),
            0.1) for g in (False, True)]
        assert errors[0] == errors[1]
        assert errors[0] == pytest.approx(0.017198187054758344, rel=1e-12)

    def test_forcing_vanishes_for_exact_ode_solution(self, model):
        # a pure decay carried by the rhs itself needs no forcing at the
        # equilibrium point
        basis = sp.build_basis(sp.Domain("interval", (1.0,)), 4)
        ms = oracles.equilibrium(1.0)
        fa, fg = ex._forcing(ms, basis, 0.0, model)
        assert np.max(np.abs(fa)) < 1e-13
        assert np.max(np.abs(fg)) < 1e-13
