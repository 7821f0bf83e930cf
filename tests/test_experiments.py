import numpy as np
import pytest

from chdarcy import diagnostics as dg
from chdarcy import dynamics as dyn
from chdarcy import experiments as ex
from chdarcy import spectral as sp

from conftest import make_model, make_params, random_state


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


class TestSweepSpec:
    def test_valid(self):
        spec = ex.SweepSpec("K", (1.0, 0.5, 0.25), dt=1e-3, T=0.01)
        assert spec.values == (1.0, 0.5, 0.25)

    def test_rejects_unordered_or_nonpositive(self):
        with pytest.raises(ValueError):
            ex.SweepSpec("K", (0.5, 1.0), dt=1e-3, T=0.01)
        with pytest.raises(ValueError):
            ex.SweepSpec("K", (1.0, 0.0), dt=1e-3, T=0.01)
        with pytest.raises(ValueError):
            ex.SweepSpec("xi", (1.0, 0.5), dt=1e-3, T=0.01)
        with pytest.raises(ValueError):
            ex.SweepSpec("K", (1.0, 0.5), dt=1e-3, T=0.01, comparison="L9")


@pytest.fixture(scope="module")
def setup():
    basis = sp.build_basis(sp.Domain("interval", (1.0,)), 8)
    model = make_model()
    initial = random_state(basis, 60, scale=0.15)
    return basis, model, initial


class TestSweeps:
    def test_permeability_differences_decrease(self, setup):
        _, model, initial = setup
        spec = ex.SweepSpec("K", (1.0, 0.25, 0.0625), dt=1e-3, T=0.02)
        rows = ex.sweep_vanishing_permeability(spec, model, initial)
        assert all(r.failed is None for r in rows)
        diffs = [r.diff_phi for r in rows]
        assert diffs[0] > diffs[1] > diffs[2] > 0
        vels = [r.v_l2l2 for r in rows]
        assert vels[0] > vels[1] > vels[2] > 0

    def test_chemotaxis_differences_decrease(self, setup):
        _, model, initial = setup
        spec = ex.SweepSpec("chi", (0.5, 0.25, 0.125), dt=1e-3, T=0.02)
        rows = ex.sweep_vanishing_chemotaxis(spec, model, initial)
        assert all(r.failed is None for r in rows)
        diffs = [max(r.diff_phi, r.diff_sigma) for r in rows]
        assert diffs[0] > diffs[1] > diffs[2] > 0

    def test_difference_norm_of_identical_trajectories(self, setup):
        basis, model, initial = setup
        config = dyn.StepperConfig(dt=1e-3)
        traj = dyn.run(initial.copy(), config, model, 0.01)
        for comparison in ("Linf-L2", "L2-H1"):
            assert ex._difference_norm(traj, traj, "phi", comparison) == 0.0
        short = dyn.run(initial.copy(), config, model, 0.005)
        with pytest.raises(ValueError):
            ex._difference_norm(traj, short, "phi", "Linf-L2")

    def test_permeability_sweep_rejects_volume_source(self, setup):
        basis, model, initial = setup
        data = np.zeros(basis.n_modes)
        data[1] = 0.1
        gv = sp.FieldCoeffs(basis, data)
        spec = ex.SweepSpec("K", (1.0, 0.5), dt=1e-3, T=0.01)
        with pytest.raises(ValueError):
            ex.sweep_vanishing_permeability(
                spec, make_model(gamma_v=lambda t: gv), initial)

    def test_wrong_parameter_rejected(self, setup):
        _, model, initial = setup
        spec = ex.SweepSpec("chi", (0.5,), dt=1e-3, T=0.01)
        with pytest.raises(ValueError):
            ex.sweep_vanishing_permeability(spec, model, initial)


def table(rows):
    """Rows as the sweep CSV writes them."""
    return [(f"{r.value:.17g}", f"{r.v_l2l2:.17g}", f"{r.v_scaled:.17g}",
             f"{r.diff_phi:.17g}", f"{r.diff_sigma:.17g}", r.failed or "")
            for r in rows]


def member_by_member(spec, model, initial):
    """The sweep table from one whole run per member, each trajectory
    compared with the limit run's afterwards."""
    parameter = spec.parameter
    if parameter == "K":
        limit_model = model.with_params(model.params.with_(b=0.0))
        limit_config = {"no_flow": True}
    else:
        limit_model = model.with_params(model.params.with_(chi=0.0, b=0.0))
        limit_config = {}
    limit = dyn.run(initial.copy(),
                    dyn.StepperConfig(dt=spec.dt, **limit_config),
                    limit_model, spec.T, cadence=spec.cadence)
    rows = []
    for value in spec.values:
        member = model.with_params(
            model.params.with_(**{parameter: value, "b": value}))
        config = dyn.StepperConfig(dt=spec.dt)
        try:
            traj = dyn.run(initial.copy(), config, member, spec.T,
                           cadence=spec.cadence)
        except dyn.StepFailureError as exc:
            rows.append(ex.SweepRow(value, np.nan, np.nan, np.nan, np.nan,
                                    failed=str(exc)))
            continue
        velocities = [dyn.derive(s, member, config).v for s in traj.states]
        v_l2l2, v_scaled = dg.velocity_norms(traj.times, velocities,
                                             member.params.K)
        rows.append(ex.SweepRow(
            value, v_l2l2, v_scaled,
            ex._difference_norm(traj, limit, "phi", spec.comparison),
            ex._difference_norm(traj, limit, "sigma", spec.comparison)))
    return rows


class TestSweepTables:
    """The sweep table equals the one built member by member from whole
    trajectories, to the last digit the CSV writes."""

    @pytest.mark.parametrize("comparison", ["Linf-L2", "L2-H1"])
    @pytest.mark.parametrize("parameter,values", [
        ("K", (1.0, 0.25, 0.0625, 0.015625)),
        ("chi", (0.5, 0.25, 0.125)),
    ])
    def test_matches_member_by_member(self, setup, parameter, values,
                                      comparison):
        _, model, initial = setup
        spec = ex.SweepSpec(parameter, values, dt=1e-3, T=0.01,
                            comparison=comparison, cadence=3)
        sweep = (ex.sweep_vanishing_permeability if parameter == "K"
                 else ex.sweep_vanishing_chemotaxis)
        assert table(sweep(spec, model, initial)) == table(
            member_by_member(spec, model, initial))

    @pytest.mark.parametrize("basis", [
        sp.build_basis(sp.Domain("interval", (1.0,)), 8),
        sp.build_basis(sp.Domain("rectangle", (1.0, 1.5)), (5, 4)),
    ], ids=["interval", "rectangle"])
    def test_member_that_blows_up(self, basis):
        model = make_model()
        initial = random_state(basis, 61, scale=0.15)
        spec = ex.SweepSpec("K", (1e6, 1.0, 0.25), dt=1e-3, T=0.02)
        with np.errstate(all="ignore"):
            rows = ex.sweep_vanishing_permeability(spec, model, initial)
            expected = member_by_member(spec, model, initial)
        assert rows[0].failed and all(r.failed is None for r in rows[1:])
        assert table(rows) == table(expected)


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
        ms = ex.ManufacturedSolution.from_callables(
            lambda x: 0.3 + np.cos(np.pi * x),
            lambda x: 0.5 * np.cos(2 * np.pi * x), basis)
        assert dict(ms.phi_amplitudes)[0] == pytest.approx(0.3, abs=1e-12)
        assert dict(ms.phi_amplitudes)[1] == pytest.approx(1.0, abs=1e-12)
        assert dict(ms.sigma_amplitudes)[2] == pytest.approx(0.5, abs=1e-12)

    def test_from_callables_rejects_sine(self):
        basis = sp.build_basis(sp.Domain("interval", (1.0,)), 12)
        with pytest.raises(ValueError):
            ex.ManufacturedSolution.from_callables(
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
        ms = ex.ManufacturedSolution.equilibrium(1.0)
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

    def test_forcing_vanishes_for_exact_ode_solution(self, model):
        # a pure decay carried by the rhs itself needs no forcing at the
        # equilibrium point
        basis = sp.build_basis(sp.Domain("interval", (1.0,)), 4)
        ms = ex.ManufacturedSolution.equilibrium(1.0)
        config = dyn.StepperConfig(dt=1e-3)
        fa, fg = ex._forcing(ms, basis, 0.0, model, config)
        assert np.max(np.abs(fa)) < 1e-13
        assert np.max(np.abs(fg)) < 1e-13
