"""The semi-discrete Galerkin system as a time integrator.

The unknowns are the coefficient vectors of the order parameter and the
nutrient; the chemical potential, pressure, and velocity are derived
algebraically each step.  Two steppers are provided: a stabilized
first-order IMEX scheme whose implicit operator is diagonal in the
eigenbasis, and an explicit RK4 oracle for cross-checks at small steps.
A dense-quadrature operator assembly serves as the brute-force oracle
for the matrix-free right-hand side.

A state may hold several members on one basis and time grid (leading
axes of the coefficient arrays, with K, chi and b given per member in
ModelParams): derive, rhs and the steppers then advance every member at
once, each exactly as it would advance alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from . import model as md
from . import spectral as sp
from .model import TumourModel
from .spectral import FieldCoeffs, GridField, QuadratureGrid, SpectralBasis


class StepFailureError(Exception):
    def __init__(self, message, t=None, state=None):
        super().__init__(message)
        self.t = t
        self.state = state


class BlowUpError(StepFailureError):
    pass


@dataclass
class SimState:
    t: float
    alpha: FieldCoeffs  # order parameter
    gamma: FieldCoeffs  # nutrient

    @property
    def basis(self) -> SpectralBasis:
        return self.alpha.basis

    def copy(self) -> "SimState":
        return SimState(self.t, self.alpha.copy(), self.gamma.copy())

    def norm(self):
        """Coefficient-space norm; one value per member for a batch."""
        out = np.sqrt(sp._dot(self.alpha.data, self.alpha.data)
                      + sp._dot(self.gamma.data, self.gamma.data))
        return float(out) if out.ndim == 0 else out


@dataclass
class StepperConfig:
    dt: float
    scheme: str = "imex1"  # "imex1" | "rk4-explicit"
    kappa: float | None = None  # None: sup |psi''| on [-1.2, 1.2]
    energy_guard: bool = False
    tol_E: float = 0.0          # absolute slack allowed per guarded step
    max_halvings: int = 8
    no_flow: bool = False

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.scheme not in ("imex1", "rk4-explicit"):
            raise ValueError(f"unknown scheme {self.scheme!r}")

    def resolved_kappa(self, model: TumourModel) -> float:
        if self.kappa is not None:
            return self.kappa
        t = np.linspace(-1.2, 1.2, 241)
        return float(np.max(np.abs(model.potential.d2psi(t))))


class NonFiniteInitialData(ValueError):
    """Initial data that is not finite on the grid or whose projection
    leaves the float range; `field` is "phi" or "sigma"."""

    def __init__(self, field: str):
        self.field = field
        super().__init__(f"non-finite initial data ({field})")


def project_initial_data(phi0, sigma0, basis: SpectralBasis
                         ) -> tuple[FieldCoeffs, FieldCoeffs]:
    """L2 projection of initial fields onto the truncated basis.

    phi0 / sigma0 may be callables of the grid coordinates, GridFields,
    or coefficient vectors already in the basis.
    """
    grid = sp.default_grid(basis)

    def project(f, name):
        if isinstance(f, FieldCoeffs):
            if f.basis is not basis:
                raise sp.BasisMismatchError("initial data on a different basis")
            return f.copy()
        if isinstance(f, GridField):
            vals = f.values
        else:
            vals = np.asarray(f(*grid.meshgrid()), dtype=float)
            vals = np.broadcast_to(vals, grid.npoints).copy()
        if not np.all(np.isfinite(vals)):
            raise NonFiniteInitialData(name)
        try:
            return sp.to_coeffs(GridField(grid, vals))
        except sp.SpectralError:  # finite values, overflowing coefficients
            raise NonFiniteInitialData(name) from None

    return project(phi0, "phi"), project(sigma0, "sigma")


@dataclass(frozen=True, eq=False)
class StateFields:
    """Everything a (model, config) pair fixes algebraically at one state.

    Only phi and sigma evolve; mu, p, v and the sources follow from them
    at each instant.  Built by derive and never stored on the state; a
    function taking `fields` uses it in place of derive(state, model,
    config), so one evaluation serves the step, the energy ledger, the
    mass rates and the observer, and none of them rebuilds what it holds.
    """

    state: SimState
    model: TumourModel
    no_flow: bool        # p and v are identically zero
    grid: QuadratureGrid
    phi_g: GridField
    sigma_g: GridField
    mu_g: GridField
    grad_phi: tuple[GridField, ...]
    grad_mu: tuple[GridField, ...]
    mu: FieldCoeffs
    p: FieldCoeffs
    v: tuple[GridField, ...]
    gamma_phi: GridField  # Gamma_phi on the grid
    S: GridField          # nutrient consumption; gamma_phi itself when equal
    m_g: GridField        # mobility m(phi) on the grid
    n_g: GridField        # mobility n(phi) on the grid
    grad_N_sigma: tuple[GridField, ...]  # D grad(sigma) - chi grad(phi)
    M_gamma: np.ndarray   # int_bdry sigma w_j, the boundary mass times gamma


def derive(state: SimState, model: TumourModel,
           config: StepperConfig) -> StateFields:
    """Evaluate the state: grid values, mu, p, v, the sources, the
    mobilities, the nutrient flux gradient and the boundary product.

    phi, sigma and mu are each synthesized and differentiated once; mu
    and the Darcy solve take those grid fields instead of redoing them.
    """
    basis = state.basis
    grid = sp.default_grid(basis)
    phi_g = sp.to_grid(state.alpha, grid)
    sigma_g = sp.to_grid(state.gamma, grid)
    grad_phi = sp.gradient_on_grid(state.alpha, grid)
    mu = md.chemical_potential(state.alpha, state.gamma, model.params,
                               model.potential, grid, phi_g=phi_g)
    mu_g = sp.to_grid(mu, grid)
    if config.no_flow:
        members = state.alpha.data.shape[:-1]
        p = FieldCoeffs(basis, np.zeros(members + (basis.n_modes,)))
        v = tuple(GridField(grid, np.zeros(members + grid.npoints))
                  for _ in range(basis.dim))
    else:
        if sp._any_member(model.params.K <= 0):
            raise ValueError("K = 0 requires no-flow mode")
        gv = model.gamma_v(state.t) if model.gamma_v is not None else None
        p, v = md.solve_darcy(state.alpha, mu, state.gamma, gv,
                              model.params, grid, grad_phi=grad_phi,
                              mu_g=mu_g, sigma_g=sigma_g)
    gamma_phi, S = md.evaluate_sources(phi_g, mu_g, sigma_g, model.sources)
    chi = sp._per_member(model.params.chi, phi_g.values)
    return StateFields(
        state=state, model=model, no_flow=config.no_flow, grid=grid,
        phi_g=phi_g, sigma_g=sigma_g, mu_g=mu_g,
        grad_phi=grad_phi,
        grad_mu=sp.gradient_on_grid(mu, grid),
        mu=mu, p=p, v=v, gamma_phi=gamma_phi, S=S,
        m_g=GridField(grid, model.mobility_m(phi_g.values)),
        n_g=GridField(grid, model.mobility_n(phi_g.values)),
        grad_N_sigma=tuple(
            GridField(grid, model.params.D * gs.values - chi * gp.values)
            for gs, gp in zip(sp.gradient_on_grid(state.gamma, grid),
                              grad_phi)),
        M_gamma=sp.boundary_mass_apply(basis, state.gamma.data),
    )


def rhs(state: SimState, model: TumourModel, config: StepperConfig,
        fields: StateFields | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Matrix-free right-hand side of the coefficient ODE system.

    Each equation is tested against every w_j once: its fluxes are added
    on the grid and projected together with its source by sp.weak_form.
    """
    f = fields if fields is not None else derive(state, model, config)
    params = f.model.params
    grid = f.grid

    # d/dt alpha_j = int Gamma_phi w_j - int (m grad(mu) - phi v).grad(w_j)
    flux_phi = [f.m_g.values * g.values for g in f.grad_mu]
    # d/dt gamma_j = -int S w_j
    #               - int (n (D grad(sigma) - chi grad(phi)) - sigma v).grad(w_j)
    #               + b int_bdry (sigma_inf - sigma) w_j
    flux_sigma = [f.n_g.values * g.values for g in f.grad_N_sigma]
    if not f.no_flow:
        for d, vi in enumerate(f.v):
            flux_phi[d] -= f.phi_g.values * vi.values
            flux_sigma[d] -= f.sigma_g.values * vi.values
    dalpha = sp.weak_form(
        f.gamma_phi, tuple(GridField(grid, F) for F in flux_phi)).data
    dgamma = sp.weak_form(
        GridField(grid, -f.S.values),
        tuple(GridField(grid, F) for F in flux_sigma)).data
    # in a batch, a member with b = 0 next to members with b != 0 gets
    # 0 * (...) added: its rates are unchanged up to the sign of a zero
    if sp._any_member(params.b != 0.0):
        sigma_inf = f.model.sigma_inf(state.t)
        dgamma += sp._per_member(params.b, f.M_gamma) * (
            sigma_inf * state.basis.boundary_vector - f.M_gamma)

    return dalpha, dgamma


@dataclass
class DenseGalerkinOperators:
    """All Galerkin matrices and vectors at a state, by dense quadrature."""

    S: np.ndarray        # stiffness, diagonal eigenvalues
    S_m: np.ndarray      # mobility-weighted stiffness for the order parameter
    S_n: np.ndarray      # mobility-weighted stiffness for the nutrient
    C: np.ndarray        # convection matrix at the state's velocity
    M_bdry: np.ndarray
    R_phi: np.ndarray
    R_S: np.ndarray
    psi_vec: np.ndarray  # projections of psi'(phi)
    Sigma_vec: np.ndarray
    beta: np.ndarray     # chemical potential coefficients
    p: FieldCoeffs
    v: tuple[GridField, ...]


def dense_galerkin_operators(state: SimState, model: TumourModel,
                             config: StepperConfig,
                             oversample: float = 4.0) -> DenseGalerkinOperators:
    """Assemble every operator on an oversampled grid; the rhs oracle."""
    params = model.params
    basis = state.basis
    grid = basis.quadrature_grid(oversample=oversample)
    W = grid.weight_array()

    phi_g = sp.to_grid(state.alpha, grid).values
    sigma_g = sp.to_grid(state.gamma, grid).values
    grad_phi = [g.values for g in sp.gradient_on_grid(state.alpha, grid)]
    m_vals = model.mobility_m(phi_g)
    n_vals = model.mobility_n(phi_g)

    k = basis.n_modes
    nflat = int(np.prod(grid.npoints))
    Wf = W.reshape(nflat)
    # nodal values and gradients of every basis function, spatially flattened
    basis_vals = np.empty((k, nflat))
    basis_grads = [np.empty((k, nflat)) for _ in range(basis.dim)]
    for j in range(k):
        e = np.zeros(k)
        e[j] = 1.0
        cj = FieldCoeffs(basis, e)
        basis_vals[j] = sp.to_grid(cj, grid).values.reshape(nflat)
        for d, comp in enumerate(sp.gradient_on_grid(cj, grid)):
            basis_grads[d][j] = comp.values.reshape(nflat)

    def stiffness(weight):
        wf = (Wf * weight.reshape(nflat))
        return sum((gb * wf) @ gb.T for gb in basis_grads)

    S = np.diag(basis.eigenvalues)
    S_m = stiffness(m_vals)
    S_n = stiffness(n_vals)

    psi_vec = basis_vals @ (Wf * model.potential.dpsi(phi_g).reshape(nflat))
    beta = params.A * psi_vec + params.B * basis.eigenvalues * state.alpha.data \
        - params.chi * state.gamma.data
    mu_g = (basis_vals.T @ beta).reshape(grid.npoints)

    # Darcy on the dense grid
    if config.no_flow:
        p = FieldCoeffs(basis, np.zeros(k))
        v_vals = [np.zeros(nflat) for _ in range(basis.dim)]
    else:
        drive = (mu_g + params.chi * sigma_g).reshape(nflat)
        forcing = [drive * g.reshape(nflat) for g in grad_phi]
        rhs_p = sum(gb @ (Wf * f) for gb, f in zip(basis_grads, forcing))
        if model.gamma_v is not None:
            rhs_p = rhs_p + model.gamma_v(state.t).data / params.K
        rhs_p[0] = 0.0
        p = sp.inverse_neumann_laplacian(FieldCoeffs(basis, rhs_p))
        grad_p = [gb.T @ p.data for gb in basis_grads]
        v_vals = [-params.K * (gp - f) for gp, f in zip(grad_p, forcing)]
    v = tuple(GridField(grid, vv.reshape(grid.npoints)) for vv in v_vals)

    C = sum(
        (gb * (Wf * vv)) @ basis_vals.T
        for gb, vv in zip(basis_grads, v_vals)
    ) if not config.no_flow else np.zeros((k, k))

    gamma_phi_g = model.sources.gamma_phi(phi_g, mu_g, sigma_g)
    S_vals = model.sources.S(phi_g, mu_g, sigma_g)
    R_phi = basis_vals @ (Wf * gamma_phi_g.reshape(nflat))
    R_S = basis_vals @ (Wf * S_vals.reshape(nflat))

    M_bdry = sp.boundary_mass_matrix(basis)
    Sigma_vec = model.sigma_inf(state.t) * sp.boundary_integral_vector(basis)

    return DenseGalerkinOperators(
        S=S, S_m=S_m, S_n=S_n, C=C, M_bdry=M_bdry, R_phi=R_phi, R_S=R_S,
        psi_vec=psi_vec, Sigma_vec=Sigma_vec, beta=beta, p=p, v=v,
    )


def dense_rhs(state: SimState, model: TumourModel, config: StepperConfig,
              ops: DenseGalerkinOperators | None = None
              ) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand side assembled from the dense operators."""
    if ops is None:
        ops = dense_galerkin_operators(state, model, config)
    params = model.params
    dalpha = -ops.S_m @ ops.beta + ops.R_phi + ops.C @ state.alpha.data
    dgamma = (-ops.S_n @ (params.D * state.gamma.data
                          - params.chi * state.alpha.data)
              - ops.R_S + ops.C @ state.gamma.data
              - params.b * ops.M_bdry @ state.gamma.data
              + params.b * ops.Sigma_vec)
    return dalpha, dgamma


def _implicit_factors(basis: SpectralBasis, model: TumourModel,
                      config: StepperConfig, dt: float
                      ) -> tuple[np.ndarray, np.ndarray]:
    """1 + dt L per mode for the two equations: the IMEX damping of a
    step of length dt, a constant of (basis, model, config, dt)."""
    params = model.params
    lam = basis.eigenvalues
    kappa = config.resolved_kappa(model)
    m1, n1 = model.mobility_m.upper, model.mobility_n.upper
    L_phi = m1 * (params.B * lam ** 2 + params.A * kappa * lam)
    L_sigma = n1 * params.D * lam
    return 1.0 + dt * L_phi, 1.0 + dt * L_sigma


def _imex_update(state: SimState, tendency: tuple[np.ndarray, np.ndarray],
                 factors: tuple[np.ndarray, np.ndarray],
                 dt: float) -> SimState:
    """state + dt * tendency, each mode damped by its implicit factor
    (_implicit_factors for the step length dt)."""
    dalpha, dgamma = tendency
    denom_phi, denom_sigma = factors
    alpha = state.alpha.data + dt * dalpha / denom_phi
    gamma = state.gamma.data + dt * dgamma / denom_sigma
    return SimState(state.t + dt,
                    FieldCoeffs(state.basis, alpha),
                    FieldCoeffs(state.basis, gamma))


def _rk4_update(state: SimState, dt: float,
                tendency: Callable[[SimState], tuple[np.ndarray, np.ndarray]],
                k1: tuple[np.ndarray, np.ndarray]) -> SimState:
    """Classical RK4 combination; k1 is tendency(state)."""
    basis = state.basis

    def f(t, a, g):
        return tendency(SimState(t, FieldCoeffs(basis, a), FieldCoeffs(basis, g)))

    a0, g0 = state.alpha.data, state.gamma.data
    k1a, k1g = k1
    k2a, k2g = f(state.t + dt / 2, a0 + dt / 2 * k1a, g0 + dt / 2 * k1g)
    k3a, k3g = f(state.t + dt / 2, a0 + dt / 2 * k2a, g0 + dt / 2 * k2g)
    k4a, k4g = f(state.t + dt, a0 + dt * k3a, g0 + dt * k3g)
    a1 = a0 + dt / 6 * (k1a + 2 * k2a + 2 * k3a + k4a)
    g1 = g0 + dt / 6 * (k1g + 2 * k2g + 2 * k3g + k4g)
    return SimState(state.t + dt, FieldCoeffs(basis, a1),
                    FieldCoeffs(basis, g1))


def _source_free(model: TumourModel) -> bool:
    return (model.sources.kind == "zero"
            and not sp._any_member(model.params.b != 0.0)
            and model.gamma_v is None)


def _total_energy(state: SimState, model: TumourModel, phi_g: GridField,
                  sigma_g: GridField) -> float:
    return sum(md.free_energy(state.alpha, state.gamma, phi_g, sigma_g,
                              model.params, model.potential))


def step_imex(state: SimState, config: StepperConfig, model: TumourModel,
              fields: StateFields | None = None,
              factors: tuple[np.ndarray, np.ndarray] | None = None
              ) -> SimState:
    """One stabilized IMEX step of length config.dt.

    The implicit operator damps each mode of the increment with the
    frozen worst-case linear symbol, so no linear solve is needed.  In
    source-free runs an optional energy guard re-takes the interval with
    halved substeps whenever the discrete energy rises beyond tol_E.
    factors, the step's _implicit_factors, spares building them.
    """
    dt = config.dt
    try:
        if fields is None:
            fields = derive(state, model, config)
        if factors is None:
            factors = _implicit_factors(state.basis, model, config, dt)
        if not (config.energy_guard and _source_free(model)):
            return _imex_update(
                state, rhs(state, model, config, fields=fields), factors, dt)
    except sp.SpectralError as exc:
        raise BlowUpError("IMEX step produced non-finite values",
                          t=state.t, state=state) from exc

    # the guard compares E alone, which needs phi and sigma on the grid
    # but nothing derived, so no accepted state is evaluated here
    grid = fields.grid
    E0 = _total_energy(state, model, fields.phi_g, fields.sigma_g)
    for halving in range(config.max_halvings + 1):
        nsub = 2 ** halving
        sub = state
        if halving:
            factors = _implicit_factors(state.basis, model, config, dt / nsub)
        try:
            with np.errstate(over="raise", invalid="raise"):
                for k in range(nsub):
                    f = fields if k == 0 else derive(sub, model, config)
                    sub = _imex_update(sub, rhs(sub, model, config, fields=f),
                                       factors, dt / nsub)
        except (sp.SpectralError, FloatingPointError):
            continue  # non-finite substep counts as a rejected interval
        E1 = _total_energy(sub, model, sp.to_grid(sub.alpha, grid),
                           sp.to_grid(sub.gamma, grid))
        if E1 <= E0 + config.tol_E:
            return sub
    raise StepFailureError(
        f"energy guard exhausted {config.max_halvings} halvings",
        t=state.t, state=state,
    )


def step_rk4_explicit(state: SimState, config: StepperConfig,
                      model: TumourModel,
                      fields: StateFields | None = None) -> SimState:
    """Classical RK4 step; oracle integrator for small dt."""
    def tendency(s):
        return rhs(s, model, config)

    try:
        k1 = rhs(state, model, config, fields=fields)
        new = _rk4_update(state, config.dt, tendency, k1)
    except sp.SpectralError as exc:
        raise BlowUpError("explicit step produced non-finite values",
                          t=state.t, state=state) from exc
    if np.any(new.norm() > 1e3 * np.maximum(1.0, state.norm())):
        raise BlowUpError("explicit step blew up", t=state.t, state=state)
    return new


@dataclass
class Trajectory:
    states: list[SimState] = field(default_factory=list)

    @property
    def times(self) -> list[float]:
        return [s.t for s in self.states]

    def append(self, state: SimState):
        self.states.append(state)

    def __len__(self):
        return len(self.states)


Observer = Callable[[int, float, StateFields], None]


def _step_count(T: float, dt: float) -> int:
    if T < 0:
        raise ValueError("T must be nonnegative")
    return int(round(T / dt))


def _snapshot_due(i: int, n_steps: int, cadence: int,
                  observe_initial: bool) -> bool:
    return (i % cadence == 0 or i == n_steps) and (i > 0 or observe_initial)


def snapshots(initial: SimState, config: StepperConfig, model: TumourModel,
              T: float, cadence: int = 1, observe_initial: bool = True):
    """Advance for a duration T, yielding the StateFields of every
    `cadence`-th state and of the last one.

    Each state is evaluated once (derive) and that evaluation drives its
    step and is what is yielded.  kappa and the IMEX factors are
    resolved once for the run.  observe_initial=False skips the starting
    state, which is what a resumed run wants: its first snapshot was
    already written.  Nothing is kept, so a consumer that reduces each
    snapshot on arrival holds one state at a time.
    """
    n_steps = _step_count(T, config.dt)
    config = replace(config, kappa=config.resolved_kappa(model))
    if config.scheme == "imex1":
        stepper = partial(step_imex, factors=_implicit_factors(
            initial.basis, model, config, config.dt))
    else:
        stepper = step_rk4_explicit
    state = initial
    for i in range(n_steps + 1):
        due = _snapshot_due(i, n_steps, cadence, observe_initial)
        if i == n_steps and not due:
            return  # a resumed run already at its horizon
        try:
            fields = derive(state, model, config)
        except sp.SpectralError as exc:
            raise BlowUpError("state evaluation produced non-finite values",
                              t=state.t, state=state) from exc
        if due:
            yield fields
        if i == n_steps:
            return
        state = stepper(state, config, model, fields)


def run(initial: SimState, config: StepperConfig, model: TumourModel,
        T: float, observer: Observer | None = None,
        cadence: int = 1, observe_initial: bool = True) -> Trajectory:
    """Advance for a duration T, snapshotting every `cadence` steps.

    The snapshots are those of `snapshots`: each state is evaluated once,
    and that evaluation drives its step and is what the observer
    receives, with its step index.
    """
    n_steps = _step_count(T, config.dt)
    steps = (i for i in range(n_steps + 1)
             if _snapshot_due(i, n_steps, cadence, observe_initial))
    traj = Trajectory()
    for fields in snapshots(initial, config, model, T, cadence,
                            observe_initial):
        i = next(steps)
        traj.append(fields.state)
        if observer is not None:
            observer(i, fields.state.t, fields)
        # drop the evaluation before the generator steps on, so that
        # only what the trajectory keeps outlives it
        del fields
    return traj
