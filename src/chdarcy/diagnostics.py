"""Runtime-checkable identities and bounds for simulator trajectories.

Everything here is a pure function of simulation snapshots: the energy
ledger and its balance identity, per-step mass laws, residuals of the
weak-form equations, pointwise consistency of the rescaled pressures,
the integral-form Gronwall envelope, and time-aggregated norm suites.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dynamics as dyn
from . import model as md
from . import spectral as sp
from .dynamics import SimState, StateFields, StepperConfig, Trajectory
from .model import TumourModel
from .spectral import FieldCoeffs, GridField


def _config(config: StepperConfig | None) -> StepperConfig:
    return config if config is not None else StepperConfig(dt=1.0)


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy parts, dissipation rates, and work rates at one instant.

    The four energy parts sum to total.  Dissipation entries are squared
    norms and stay nonnegative; the work entries carry the sign with
    which they enter the balance  dE/dt = -dissipation + work.
    """

    psi_part: float          # int A psi(phi)
    gradient_part: float     # (B/2) |grad phi|^2
    nutrient_part: float     # (D/2) |sigma|^2
    chemotaxis_part: float   # chi int sigma (1 - phi)
    total: float

    diss_mu: float           # int m(phi) |grad mu|^2
    diss_nutrient: float     # int n(phi) |grad N_sigma|^2
    diss_darcy: float        # (1/K) |v|^2
    diss_boundary: float     # D b |sigma|^2 on the boundary

    work_phi_source: float       # int Gamma_phi mu
    work_nutrient_source: float  # -int S N_sigma
    work_volume_source: float    # int Gamma_v (p - mu phi - (D/2) sigma^2)
    work_boundary: float         # b int_bdry (sigma_inf N_sigma - chi sigma (1-phi))

    @property
    def dissipation(self) -> float:
        return (self.diss_mu + self.diss_nutrient
                + self.diss_darcy + self.diss_boundary)

    @property
    def work(self) -> float:
        return (self.work_phi_source + self.work_nutrient_source
                + self.work_volume_source + self.work_boundary)

    @property
    def power(self) -> float:
        """Predicted dE/dt."""
        return -self.dissipation + self.work


def energy(state: SimState, model: TumourModel,
           config: StepperConfig | None = None,
           fields: StateFields | None = None) -> EnergyBreakdown:
    """Energy ledger at the state (fields: see dynamics.StateFields)."""
    sp._single_member(state.alpha, "energy")
    f = fields if fields is not None else dyn.derive(state, model,
                                                     _config(config))
    eff = f.model
    params = eff.params
    grid = f.grid
    W = grid.W
    alpha, gamma = state.alpha, state.gamma

    psi_part, gradient_part, nutrient_part, chemotaxis_part = md.free_energy(
        alpha, gamma, f.phi_g, f.sigma_g, params, eff.potential)
    total = psi_part + gradient_part + nutrient_part + chemotaxis_part

    diss_mu = float(np.sum(W * f.m_g.values
                           * sum(g.values ** 2 for g in f.grad_mu)))
    diss_nutrient = float(np.sum(W * f.n_g.values
                                 * sum(g.values ** 2 for g in f.grad_N_sigma)))
    diss_darcy = (0.0 if f.no_flow or params.K == 0.0 else
                  grid.integrate(sum(vi.values ** 2 for vi in f.v)) / params.K)
    diss_boundary = params.D * params.b * float(gamma.data @ f.M_gamma)

    _, N_sigma, _ = md.nutrient_free_energy_density(f.phi_g, f.sigma_g, params)
    work_phi_source = grid.integrate(f.gamma_phi.values * f.mu_g.values)
    work_nutrient_source = -grid.integrate(f.S.values * N_sigma.values)

    work_volume_source = 0.0
    if eff.gamma_v is not None and not f.no_flow:
        gv = sp.to_grid(eff.gamma_v(state.t), grid).values
        p_g = sp.to_grid(f.p, grid).values
        lam_v = (p_g - f.mu_g.values * f.phi_g.values
                 - 0.5 * params.D * f.sigma_g.values ** 2)
        work_volume_source = grid.integrate(gv * lam_v)

    # boundary work, exact in the truncated basis: traces of the series
    bvec = state.basis.boundary_vector
    bdry_measure = state.basis.domain.boundary_measure
    sigma_inf = eff.sigma_inf(state.t)
    int_N_sigma = (params.D * float(gamma.data @ bvec)
                   + params.chi * (bdry_measure - float(alpha.data @ bvec)))
    int_sigma_one_minus_phi = float(gamma.data @ bvec) \
        - float(f.M_gamma @ alpha.data)
    work_boundary = params.b * (sigma_inf * int_N_sigma
                                - params.chi * int_sigma_one_minus_phi)

    return EnergyBreakdown(
        psi_part=psi_part, gradient_part=gradient_part,
        nutrient_part=nutrient_part, chemotaxis_part=chemotaxis_part,
        total=total,
        diss_mu=diss_mu, diss_nutrient=diss_nutrient,
        diss_darcy=diss_darcy, diss_boundary=diss_boundary,
        work_phi_source=work_phi_source,
        work_nutrient_source=work_nutrient_source,
        work_volume_source=work_volume_source,
        work_boundary=work_boundary,
    )


@dataclass
class ResidualSeries:
    times: np.ndarray       # interval midpoints or snapshot times
    residuals: np.ndarray

    @property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self.residuals))) if len(self.residuals) else 0.0

    @property
    def integral_abs(self) -> float:
        return float(np.sum(np.abs(self.residuals)))


def _energy_defect(dt: float, e0: EnergyBreakdown,
                   e1: EnergyBreakdown) -> float:
    """Defect of the energy balance over an interval of length dt:
    E_1 - E_0 - dt * (power_1 + power_0) / 2, the power evaluated from
    the endpoint ledgers."""
    return (e1.total - e0.total) - dt * 0.5 * (e1.power + e0.power)


def _mass_defect(dt: float, c0: FieldCoeffs, c1: FieldCoeffs,
                 rate: float) -> float:
    """Defect of a mass law over an interval of length dt: the change of
    the total mass (the constant mode) minus dt times the rate at the
    interval's start."""
    vol_root = np.sqrt(c1.basis.domain.volume)
    return (c1.data[0] - c0.data[0]) * vol_root - dt * rate


def energy_identity_residual(traj: Trajectory, model: TumourModel,
                             config: StepperConfig | None = None
                             ) -> ResidualSeries:
    """Per-interval defect of the energy balance (_energy_defect).

    First order in dt for the IMEX scheme, zero at equilibria.
    """
    if len(traj) < 2:
        raise ValueError("need at least two snapshots")
    breakdowns = [energy(s, model, config) for s in traj.states]
    times = np.asarray(traj.times)
    res = np.empty(len(traj) - 1)
    for n in range(len(res)):
        res[n] = _energy_defect(times[n + 1] - times[n], breakdowns[n],
                                breakdowns[n + 1])
    mid = 0.5 * (times[:-1] + times[1:])
    return ResidualSeries(mid, res)


@dataclass
class MassBalance:
    times: np.ndarray
    phi_residuals: np.ndarray
    sigma_residuals: np.ndarray
    scale_phi: float
    scale_sigma: float

    @property
    def max_rel_phi(self) -> float:
        return float(np.max(np.abs(self.phi_residuals))) / self.scale_phi

    @property
    def max_rel_sigma(self) -> float:
        return float(np.max(np.abs(self.sigma_residuals))) / self.scale_sigma


def _mass_rates(f: StateFields) -> tuple[float, float]:
    """Exact rates of the total masses, by the constant test function."""
    state, params = f.state, f.model.params
    rate_phi = f.grid.integrate(f.gamma_phi.values)
    rate_sigma = -f.grid.integrate(f.S.values) + params.b * (
        f.model.sigma_inf(state.t) * state.basis.domain.boundary_measure
        - float(state.gamma.data @ state.basis.boundary_vector)
    )
    return rate_phi, rate_sigma


def mass_balance_residuals(traj: Trajectory, model: TumourModel,
                           config: StepperConfig | None = None) -> MassBalance:
    """Defects of the two mass laws over each recorded interval
    (_mass_defect).

    Exact (to roundoff) for the IMEX stepper when snapshots are taken
    every step, because the constant mode sees no implicit damping.
    """
    config = _config(config)
    if len(traj) < 2:
        raise ValueError("need at least two snapshots")
    states, times = traj.states, np.asarray(traj.times)
    r_phi, r_sigma = np.empty(len(traj) - 1), np.empty(len(traj) - 1)
    for i, (s0, s1) in enumerate(zip(states, states[1:])):
        dt = times[i + 1] - times[i]
        rate_phi, rate_sigma = _mass_rates(dyn.derive(s0, model, config))
        r_phi[i] = _mass_defect(dt, s0.alpha, s1.alpha, rate_phi)
        r_sigma[i] = _mass_defect(dt, s0.gamma, s1.gamma, rate_sigma)
    masses = np.array([(s.alpha.data[0], s.gamma.data[0]) for s in states]) \
        * np.sqrt(states[0].basis.domain.volume)
    scale_phi, scale_sigma = np.maximum(1.0, np.max(np.abs(masses), axis=0))
    return MassBalance(0.5 * (times[:-1] + times[1:]), r_phi, r_sigma,
                       float(scale_phi), float(scale_sigma))


@dataclass
class WeakResidual:
    equation: str
    mode: int
    integrated: float   # sum |r| dt over intervals (evolution equations)
    max_abs: float      # max |r| over snapshots (algebraic relations)


def weak_residual(traj: Trajectory, j: int, equation: str,
                  model: TumourModel,
                  config: StepperConfig | None = None) -> WeakResidual:
    """Residual of one weak-form equation against test function j.

    Evolution equations (phi, sigma) difference the stored coefficients
    in time and are O(dt); the algebraic relations (mu, pressure,
    velocity) are re-evaluated on a 4x oversampled grid and should hold
    to roundoff at every snapshot.
    """
    config = _config(config)
    basis = traj.states[0].basis
    if not (0 <= j < basis.n_modes):
        raise IndexError(f"test index {j} outside 0..{basis.n_modes - 1}")
    if equation not in ("phi", "mu", "sigma", "pressure", "velocity"):
        raise ValueError(f"unknown equation {equation!r}")
    times = np.asarray(traj.times)

    if equation in ("phi", "sigma"):
        res = np.empty(len(traj) - 1)
        for n in range(len(res)):
            dt = times[n + 1] - times[n]
            da, dg = dyn.rhs(traj.states[n], model, config)
            rate = da[j] if equation == "phi" else dg[j]
            left = traj.states[n].alpha if equation == "phi" else traj.states[n].gamma
            right = traj.states[n + 1].alpha if equation == "phi" else traj.states[n + 1].gamma
            res[n] = (right.data[j] - left.data[j]) / dt - rate
        dts = np.diff(times)
        return WeakResidual(equation, j, float(np.sum(np.abs(res) * dts)),
                            float(np.max(np.abs(res))))

    max_abs = 0.0
    grid4 = basis.quadrature_grid(oversample=4.0)
    for state in traj.states:
        der = dyn.derive(state, model, config)
        eff = der.model
        params = eff.params
        phi4 = sp.to_grid(state.alpha, grid4)
        if equation == "mu":
            psi4 = sp.to_coeffs(GridField(grid4, eff.potential.dpsi(phi4.values)))
            expect = (params.A * psi4.data[j]
                      + params.B * basis.eigenvalues[j] * state.alpha.data[j]
                      - params.chi * state.gamma.data[j])
            r = der.mu.data[j] - expect
        elif equation == "pressure":
            if config.no_flow:
                r = der.p.data[j]
            else:
                grad_phi4 = sp.gradient_on_grid(state.alpha, grid4)
                drive4 = (sp.to_grid(der.mu, grid4).values
                          + params.chi * sp.to_grid(state.gamma, grid4).values)
                F4 = tuple(GridField(grid4, drive4 * g.values) for g in grad_phi4)
                rhs_j = -sp.divergence_to_coeffs(F4).data[j]
                if eff.gamma_v is not None:
                    rhs_j += eff.gamma_v(state.t).data[j] / params.K
                if j == 0:
                    rhs_j = 0.0
                r = basis.eigenvalues[j] * der.p.data[j] - rhs_j
        else:  # velocity, pointwise on the grid where v lives
            if config.no_flow:
                r = max(float(np.max(np.abs(vi.values))) for vi in der.v)
            else:
                grad_p = sp.gradient_on_grid(der.p, der.grid)
                drive = der.mu_g.values + params.chi * der.sigma_g.values
                r = max(
                    float(np.max(np.abs(
                        vi.values + params.K * (gp.values - drive * gphi.values)
                    )))
                    for vi, gp, gphi in zip(der.v, grad_p, der.grad_phi)
                )
        max_abs = max(max_abs, abs(r))
    return WeakResidual(equation, j, max_abs, max_abs)


@dataclass
class PressureReformulations:
    q: GridField
    p_hat: GridField
    p_tilde: GridField
    lambda_v: tuple[GridField, GridField, GridField]
    max_spread: float


def pressure_reformulations(state: SimState, model: TumourModel,
                            config: StepperConfig | None = None
                            ) -> PressureReformulations:
    """The three rescaled pressures and the Darcy work density.

    lambda_v = p - mu phi - (D/2) sigma^2 is evaluated through each of
    the rescaled pressures; all three routes must agree pointwise.
    """
    f = dyn.derive(state, model, _config(config))
    eff, params, grid = f.model, f.model.params, f.grid
    phi = f.phi_g.values
    sigma = f.sigma_g.values
    mu = f.mu_g.values
    p = sp.to_grid(f.p, grid).values
    grad_sq = sum(g.values ** 2 for g in f.grad_phi)

    interface = params.A * eff.potential.psi(phi) + 0.5 * params.B * grad_sq
    q = p - interface
    p_hat = p + 0.5 * params.D * sigma ** 2 + params.chi * sigma * (1.0 - phi)
    p_tilde = p - 0.5 * params.D * sigma ** 2 - mu * phi

    lam0 = q + interface - 0.5 * params.D * sigma ** 2 - mu * phi
    lam1 = (p_hat - mu * phi - params.D * sigma ** 2
            - params.chi * sigma * (1.0 - phi))
    lam2 = p_tilde

    spread = max(
        float(np.max(np.abs(lam0 - lam1))),
        float(np.max(np.abs(lam0 - lam2))),
        float(np.max(np.abs(lam1 - lam2))),
    )
    g = grid
    return PressureReformulations(
        q=GridField(g, q), p_hat=GridField(g, p_hat), p_tilde=GridField(g, p_tilde),
        lambda_v=(GridField(g, lam0), GridField(g, lam1), GridField(g, lam2)),
        max_spread=spread,
    )


@dataclass
class GronwallInput:
    t: np.ndarray
    alpha: np.ndarray   # additive bound
    beta: np.ndarray    # exponential rate, nonnegative
    u: np.ndarray       # monitored quantity
    v: np.ndarray       # monitored dissipation density, nonnegative

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        for name in ("alpha", "beta", "u", "v"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != self.t.shape:
                raise ValueError(f"{name} must match the time grid")
            setattr(self, name, arr)
        if np.any(self.beta < 0):
            raise ValueError("beta must be nonnegative")
        if np.any(self.v < 0):
            raise ValueError("v must be nonnegative")


@dataclass
class GronwallEnvelope:
    t: np.ndarray
    bound: np.ndarray
    monitored: np.ndarray  # u(s) + int_0^s v
    satisfied: bool
    margin: float          # min over samples of bound - monitored


def trapezoid(y, x) -> float:
    """Trapezoid rule, term for term as scipy.integrate.trapezoid."""
    y, x = np.asarray(y), np.asarray(x)
    return np.sum((x[1:] - x[:-1]) * (y[1:] + y[:-1]) / 2.0)


def _simpson_first_halves(y: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Integral over [x_i, x_{i+1}] of the parabola through points i,
    i+1 and i+2, for irregular spacing (Cartwright, J. Math. Sci. Math.
    Educ. 12(2), eq. 8).  On reversed input it gives the second halves.
    """
    x21, x32 = dx[:-1], dx[1:]
    x31 = x21 + x32
    x21_x31 = x21 / x31
    x21x21_x31x32 = x21_x31 * (x21 / x32)
    coeff1 = 3 - x21_x31
    coeff2 = 3 + x21x21_x31x32 + x21_x31
    coeff3 = -x21x21_x31x32
    return x21 / 6 * (coeff1 * y[:-2] + coeff2 * y[1:-1] + coeff3 * y[2:])


def _cumulative(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cumulative integral from x[0], 0 at x[0]: composite Simpson for
    three or more points, trapezoid for two.  Term for term as
    scipy.integrate.cumulative_simpson(y, x=x, initial=0).
    """
    dx = np.diff(x)
    if len(y) < 3:
        parts = dx * (y[1:] + y[:-1]) / 2.0
    else:
        first = _simpson_first_halves(y, dx)
        second = _simpson_first_halves(y[::-1], dx[::-1])[::-1]
        parts = np.empty(len(dx))
        parts[:-1:2] = first[::2]
        parts[1::2] = second[::2]
        parts[-1] = second[-1]  # the last interval has no point after it
    # + 0.0 as scipy adds `initial`, which turns a -0.0 sum into 0.0
    return np.concatenate(([0.0], np.cumsum(parts) + 0.0))


def gronwall_envelope(g: GronwallInput, tol: float = 1e-9) -> GronwallEnvelope:
    """Integral-form Gronwall bound sampled on the input grid:

        u(s) + int_0^s v  <=  alpha(s) + int_0^s beta(tau) alpha(tau)
                                          exp(int_tau^s beta) dtau.

    The nested exponential integral is evaluated with an integrating
    factor, so only cumulative quadratures are needed.
    """
    B = _cumulative(g.beta, g.t)
    inner = g.beta * g.alpha * np.exp(-B)
    bound = g.alpha + np.exp(B) * _cumulative(inner, g.t)
    monitored = g.u + _cumulative(g.v, g.t)
    margin = float(np.min(bound - monitored))
    return GronwallEnvelope(g.t, bound, monitored, margin >= -tol, margin)


@dataclass
class FieldNorms:
    linf_l2: float
    l2_h1: float
    l85_h1: float


@dataclass
class NormSuite:
    phi: FieldNorms
    sigma: FieldNorms
    mu: FieldNorms
    p: FieldNorms
    v_l2l2: float
    v_l2l2_scaled: float      # K^{-1/2} |v|_{L2(L2)}
    dv_l2: np.ndarray | None  # per-snapshot |Dv|, optional


def _field_norms(times, l2s, h1s) -> FieldNorms:
    l2s = np.asarray(l2s)
    h1s = np.asarray(h1s)
    return FieldNorms(
        linf_l2=float(np.max(l2s)),
        l2_h1=float(np.sqrt(trapezoid(h1s ** 2, times))),
        l85_h1=float(trapezoid(h1s ** (8.0 / 5.0), times) ** (5.0 / 8.0)),
    )


def velocity_norms(times, velocities, K: float) -> tuple[float, float]:
    """|v|_{L2(L2)} over the snapshots (trapezoid in time) and its
    rescaling K^{-1/2} |v|_{L2(L2)}, which is 0 when K = 0."""
    v_sq = [v[0].grid.integrate(sum(vi.values ** 2 for vi in v))
            for v in velocities]
    return velocity_time_norms(times, v_sq, K)


def velocity_time_norms(times, v_sq, K: float) -> tuple[float, float]:
    """velocity_norms from the snapshots' |v|^2 integrals."""
    v_l2l2 = float(np.sqrt(trapezoid(v_sq, times)))
    return v_l2l2, (v_l2l2 / np.sqrt(K) if K > 0 else 0.0)


def norm_suite(traj: Trajectory, model: TumourModel,
               config: StepperConfig | None = None,
               velocity_gradient: bool = False) -> NormSuite:
    """Time-aggregated norms of the solution quintuple over a window."""
    config = _config(config)
    times = np.asarray(traj.times)
    acc = {name: ([], []) for name in ("phi", "sigma", "mu", "p")}
    velocities = []
    dv = [] if velocity_gradient else None
    for state in traj.states:
        der = dyn.derive(state, model, config)
        for name, coeffs in (("phi", state.alpha), ("sigma", state.gamma),
                             ("mu", der.mu), ("p", der.p)):
            acc[name][0].append(sp.norm(coeffs))
            acc[name][1].append(sp.norm(coeffs, "H1"))
        velocities.append(der.v)
        if velocity_gradient:
            total = 0.0
            for vi in der.v:
                ci = sp.to_coeffs(vi)
                total += sp.inner_product(ci, ci, "H1-seminorm")
            dv.append(np.sqrt(total))
    v_l2l2, scaled = velocity_norms(times, velocities, model.params.K)
    return NormSuite(
        phi=_field_norms(times, *acc["phi"]),
        sigma=_field_norms(times, *acc["sigma"]),
        mu=_field_norms(times, *acc["mu"]),
        p=_field_norms(times, *acc["p"]),
        v_l2l2=v_l2l2,
        v_l2l2_scaled=scaled,
        dv_l2=np.asarray(dv) if velocity_gradient else None,
    )


# ---------------------------------------------------------------------------
# per-snapshot records for CSV output

CSV_COLUMNS = (
    "time",
    "E_total", "E_psi", "E_gradient", "E_nutrient", "E_chemotaxis",
    "diss_mu", "diss_nutrient", "diss_darcy", "diss_boundary",
    "mass_phi", "mass_sigma",
    "norm_phi_H1", "norm_sigma_L2", "norm_mu_H1", "norm_grad_sigma",
    "norm_v_L2", "norm_v_scaled", "norm_p_H1", "norm_sigma_boundary",
    "acc_diss_mu", "acc_diss_nutrient", "acc_diss_darcy", "acc_diss_boundary",
    "res_mass_phi", "res_mass_sigma", "res_energy_identity",
)


@dataclass
class DiagnosticsRecord:
    time: float
    breakdown: EnergyBreakdown
    mass_phi: float
    mass_sigma: float
    norm_phi_H1: float
    norm_sigma_L2: float
    norm_mu_H1: float
    norm_grad_sigma: float
    norm_v_L2: float
    norm_v_scaled: float
    norm_p_H1: float
    norm_sigma_boundary: float
    acc_diss: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    res_mass_phi: float = 0.0
    res_mass_sigma: float = 0.0
    res_energy_identity: float = 0.0

    def row(self) -> tuple[float, ...]:
        b = self.breakdown
        return (
            self.time,
            b.total, b.psi_part, b.gradient_part, b.nutrient_part,
            b.chemotaxis_part,
            b.diss_mu, b.diss_nutrient, b.diss_darcy, b.diss_boundary,
            self.mass_phi, self.mass_sigma,
            self.norm_phi_H1, self.norm_sigma_L2, self.norm_mu_H1,
            self.norm_grad_sigma, self.norm_v_L2, self.norm_v_scaled,
            self.norm_p_H1, self.norm_sigma_boundary,
            *self.acc_diss,
            self.res_mass_phi, self.res_mass_sigma, self.res_energy_identity,
        )


class DiagnosticsCollector:
    """Observer that turns the run's evaluated snapshots into
    DiagnosticsRecords.

    Keeps running time-integrals of the dissipation terms (trapezoid
    between recorded snapshots) and per-interval residuals of the mass
    laws and the energy identity, so its state can be checkpointed.
    """

    def __init__(self, model: TumourModel, config: StepperConfig):
        self.model = model
        self.config = config
        self.records: list[DiagnosticsRecord] = []
        self._prev = None  # last snapshot: state, energy ledger, mass rates
        self._acc = np.zeros(4)

    def accumulators(self) -> np.ndarray:
        return self._acc.copy()

    def restore(self, acc: np.ndarray, last_state: SimState):
        self._acc = np.asarray(acc, dtype=float).copy()
        f = dyn.derive(last_state, self.model, self.config)
        self._prev = (last_state, energy(last_state, self.model, fields=f),
                      _mass_rates(f))

    def observe(self, step: int, t: float, fields: StateFields):
        """Record the snapshot at step from its evaluation."""
        state, basis = fields.state, fields.state.basis
        bd = energy(state, self.model, fields=fields)
        params = fields.model.params
        vol_root = np.sqrt(basis.domain.volume)
        v_L2 = float(np.sqrt(fields.grid.integrate(
            sum(vi.values ** 2 for vi in fields.v))))
        sigma_bdry_sq = float(state.gamma.data @ fields.M_gamma)

        res_phi = res_sigma = res_energy = 0.0
        if self._prev is not None:
            prev, prev_bd, (rate_phi, rate_sigma) = self._prev
            dt = t - prev.t
            diss = np.array([bd.diss_mu, bd.diss_nutrient,
                             bd.diss_darcy, bd.diss_boundary])
            prev_diss = np.array([prev_bd.diss_mu, prev_bd.diss_nutrient,
                                  prev_bd.diss_darcy, prev_bd.diss_boundary])
            self._acc += 0.5 * dt * (diss + prev_diss)
            res_phi = _mass_defect(dt, prev.alpha, state.alpha, rate_phi)
            res_sigma = _mass_defect(dt, prev.gamma, state.gamma, rate_sigma)
            res_energy = _energy_defect(dt, prev_bd, bd)

        record = DiagnosticsRecord(
            time=t,
            breakdown=bd,
            mass_phi=state.alpha.data[0] * vol_root,
            mass_sigma=state.gamma.data[0] * vol_root,
            norm_phi_H1=sp.norm(state.alpha, "H1"),
            norm_sigma_L2=sp.norm(state.gamma),
            norm_mu_H1=sp.norm(fields.mu, "H1"),
            norm_grad_sigma=sp.norm(state.gamma, "H1-seminorm"),
            norm_v_L2=v_L2,
            norm_v_scaled=(float(v_L2 / np.sqrt(params.K))
                           if params.K > 0 and not fields.no_flow else 0.0),
            norm_p_H1=sp.norm(fields.p, "H1"),
            norm_sigma_boundary=float(np.sqrt(max(0.0, sigma_bdry_sq))),
            acc_diss=tuple(self._acc),
            res_mass_phi=res_phi,
            res_mass_sigma=res_sigma,
            res_energy_identity=res_energy,
        )
        self.records.append(record)
        self._prev = (state, bd, _mass_rates(fields))
