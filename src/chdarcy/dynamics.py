"""The semi-discrete Galerkin system as a time integrator.

The unknowns are the coefficient vectors of the order parameter and the
nutrient; the chemical potential, pressure, and velocity are derived
algebraically each step.  derive evaluates a state once into
StateFields, whose grid values are plain arrays on its one grid, the
basis's default grid, which is passed explicitly to every transform.
The grid carries the nonlinear terms; the diffusive ones, diagonal in
the eigenbasis, stay on the coefficients.  Two steppers are provided: a
stabilized first-order IMEX scheme whose implicit operator is diagonal
in the eigenbasis, and an explicit RK4 oracle for cross-checks at small
steps.

A state may hold several members on one basis and time grid (leading
axes of the coefficient arrays, with K, chi and b given per member in
ModelParams): derive, rhs and the steppers then advance every member at
once, each exactly as it would advance alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, partial
from typing import Callable

import numpy as np

from . import model as md
from . import spectral as sp
from .model import TumourModel
from .spectral import FieldCoeffs, QuadratureGrid, SpectralBasis


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
    SCHEMES = ("imex1", "rk4-explicit")  # a class constant, not a field

    dt: float
    scheme: str = "imex1"
    kappa: float | None = None  # None: sup |psi''| on [-1.2, 1.2]
    energy_guard: bool = False
    tol_E: float = 0.0          # absolute slack allowed per guarded step
    max_halvings: int = 8

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.scheme not in self.SCHEMES:
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
    """L2 projection of initial fields onto the truncated basis; phi0 and
    sigma0 are callables of the grid coordinates."""
    grid = basis.default_grid

    def project(f, name):
        vals = np.asarray(f(*grid.meshgrid()), dtype=float)
        vals = np.broadcast_to(vals, grid.npoints).copy()
        if not np.all(np.isfinite(vals)):
            raise NonFiniteInitialData(name)
        try:
            return sp.to_coeffs(grid, vals)
        except sp.SpectralError:  # finite values, overflowing coefficients
            raise NonFiniteInitialData(name) from None

    return project(phi0, "phi"), project(sigma0, "sigma")


@dataclass(frozen=True, eq=False)
class StateFields:
    """Everything a model fixes algebraically at one state.

    Only phi and sigma evolve; mu, p, v and the sources follow from them
    at each instant.  Built by derive and never stored on the state; it
    is the one input of rhs, the steppers, the energy ledger, the mass
    rates and the observer, which read the state and model from it, so
    none of them rebuilds what it holds.  Its fields are not checked
    for finiteness: the state and mu are, and a non-finite field makes
    the step's rates or new state non-finite, which the steppers report
    as a BlowUpError at the state's time.
    """

    state: SimState
    model: TumourModel
    no_flow: bool        # K = 0: p is identically zero and v is ()
    grid: QuadratureGrid
    phi_g: np.ndarray
    sigma_g: np.ndarray
    mu_g: np.ndarray
    mu: FieldCoeffs
    p: FieldCoeffs
    v: tuple[np.ndarray, ...]  # dim components; none at K = 0
    gamma_phi: np.ndarray  # Gamma_phi on the grid
    S: np.ndarray          # nutrient consumption; gamma_phi itself when equal
    M_gamma: np.ndarray   # int_bdry sigma w_j, the boundary mass times gamma

    @cached_property
    def energy_parts(self) -> tuple[float, float, float, float]:
        """The four parts of E at this state (model.free_energy), computed
        on first use: the energy guard and the ledger share them."""
        state, model = self.state, self.model
        return md.free_energy(state.alpha, state.gamma, self.phi_g,
                              self.sigma_g, self.grid, model.params,
                              model.potential)

    @cached_property
    def v_sq(self) -> float:
        """int |v|^2 of a single member, computed on first use: the
        ledger's Darcy dissipation and the observer's |v| share it."""
        return 0.0 if self.no_flow else self.grid.integrate(
            sum(vi ** 2 for vi in self.v))


def _no_flow(model: TumourModel) -> bool:
    """Whether K = 0 for every member, the zero-velocity limit; a batch
    mixing K = 0 and K > 0 is refused."""
    K = model.params.K
    if isinstance(K, float):  # a shared K, numpy's float64 included
        return K == 0.0
    zero = np.asarray(K) == 0.0
    if zero.any() and not zero.all():
        raise ValueError("a batch mixes K = 0 and K > 0")
    return bool(zero.all())


def derive(state: SimState, model: TumourModel) -> StateFields:
    """Evaluate the state: grid values, mu, p, v, the sources and the
    boundary product.

    phi, sigma and mu are each synthesized once; mu and the Darcy solve
    take those grid fields instead of redoing them.  grad(phi) is taken
    for the Darcy forcing only (rhs needs no gradient).  At K = 0 p is
    an exact zero, v holds no component and no Darcy system is solved.
    """
    basis = state.basis
    grid = basis.default_grid
    phi_g = sp.to_grid(state.alpha, grid)
    sigma_g = sp.to_grid(state.gamma, grid)
    mu = md.chemical_potential(state.alpha, state.gamma, phi_g, grid,
                               model.params, model.potential)
    mu_g = sp.to_grid(mu, grid)
    no_flow = _no_flow(model)
    if no_flow:
        members = state.alpha.data.shape[:-1]
        p = sp._unchecked(basis, np.zeros(members + (basis.n_modes,)))
        v = ()
    else:
        p, v = md.solve_darcy(grid, sp.gradient_on_grid(state.alpha, grid),
                              mu_g, sigma_g, model.gamma_v, model.params)
    gamma_phi, S = md.evaluate_sources(phi_g, mu_g, sigma_g, model.sources,
                                        model.params)
    return StateFields(
        state=state, model=model, no_flow=no_flow, grid=grid,
        phi_g=phi_g, sigma_g=sigma_g, mu_g=mu_g,
        mu=mu, p=p, v=v, gamma_phi=gamma_phi, S=S,
        M_gamma=sp.boundary_mass_apply(basis, state.gamma.data),
    )


def rhs(f: StateFields) -> tuple[np.ndarray, np.ndarray]:
    """Matrix-free right-hand side of the coefficient ODE system at f:

        d/dt alpha_j = int Gamma_phi w_j + int phi v.grad(w_j) - m lam_j mu_j
        d/dt gamma_j = -int S w_j + int sigma v.grad(w_j)
                       - n lam_j (D gamma_j - chi alpha_j)
                       + b int_bdry (sigma_inf - sigma) w_j

    The diffusive terms are diagonal in the eigenbasis because the
    mobilities m and n are constants; a phi-dependent mobility would
    bring its flux back to the grid.  Each equation's source and
    convective flux are projected by one sp.weak_form; a model forcing
    is added last, at the state's time.
    """
    state, model, params = f.state, f.model, f.model.params
    lam = state.basis.eigenvalues

    def project(source, transported):
        """int source w_j + int transported v.grad(w_j); no flux at K = 0."""
        flux = tuple(-transported * vi for vi in f.v)
        return sp.weak_form(f.grid, source, flux).data

    dalpha = project(f.gamma_phi, f.phi_g) - model.mobility_m * lam * f.mu.data
    chi = sp._per_member(params.chi, state.alpha.data)
    dgamma = project(-f.S, f.sigma_g) - model.mobility_n * lam * (
        params.D * state.gamma.data - chi * state.alpha.data)
    # in a batch, a member with b = 0 next to members with b != 0 gets
    # 0 * (...) added: its rates are unchanged up to the sign of a zero
    if sp._any_member(params.b != 0.0):
        dgamma += sp._per_member(params.b, f.M_gamma) * (
            model.sigma_inf * state.basis.boundary_vector - f.M_gamma)

    if model.forcing is not None:
        fa, fg = model.forcing(state.t)
        return dalpha + fa, dgamma + fg
    return dalpha, dgamma


def _linear_rates(basis: SpectralBasis, model: TumourModel,
                  config: StepperConfig) -> tuple[np.ndarray, np.ndarray]:
    """L per mode for the two equations, the stiff linear part of the
    rates: m (B lam^2 + A kappa lam) and n D lam."""
    params = model.params
    lam = basis.eigenvalues
    kappa = config.resolved_kappa(model)
    return (model.mobility_m * (params.B * lam ** 2 + params.A * kappa * lam),
            model.mobility_n * params.D * lam)


def _implicit_factors(basis: SpectralBasis, model: TumourModel,
                      config: StepperConfig, dt: float
                      ) -> tuple[np.ndarray, np.ndarray]:
    """1 + dt L per mode (_linear_rates): the IMEX damping of a step of
    length dt, a constant of (basis, model, config, dt)."""
    L_phi, L_sigma = _linear_rates(basis, model, config)
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
            and model.gamma_v is None
            and model.forcing is None)


def step_imex(f: StateFields, config: StepperConfig,
              factors: tuple[np.ndarray, np.ndarray] | None = None
              ) -> SimState:
    """One stabilized IMEX step of length config.dt from evaluated state f.

    The implicit operator damps each mode of the increment with the
    frozen worst-case linear symbol, so no linear solve is needed.  In
    source-free runs an optional energy guard re-takes the interval with
    halved substeps whenever the discrete energy rises beyond tol_E.
    factors, the step's _implicit_factors, spares building them.
    """
    state, model, dt = f.state, f.model, config.dt
    if factors is None:
        factors = _implicit_factors(state.basis, model, config, dt)
    try:
        if not (config.energy_guard and _source_free(model)):
            return _imex_update(state, rhs(f), factors, dt)
    except sp.SpectralError as exc:
        raise BlowUpError("IMEX step produced non-finite values",
                          t=state.t, state=state) from exc

    # the guard compares E alone, which needs phi and sigma on the grid
    # but nothing derived, so no accepted state is evaluated here; E0 is
    # the evaluation's own, which the ledger reads too
    grid = f.grid
    E0 = sum(f.energy_parts)
    for halving in range(config.max_halvings + 1):
        nsub = 2 ** halving
        sub = state
        if halving:
            factors = _implicit_factors(state.basis, model, config, dt / nsub)
        try:
            with np.errstate(over="raise", invalid="raise"):
                for k in range(nsub):
                    sub = _imex_update(
                        sub, rhs(f if k == 0 else derive(sub, model)),
                        factors, dt / nsub)
        except (sp.SpectralError, FloatingPointError):
            continue  # non-finite substep counts as a rejected interval
        E1 = sum(md.free_energy(sub.alpha, sub.gamma,
                                sp.to_grid(sub.alpha, grid),
                                sp.to_grid(sub.gamma, grid), grid,
                                model.params, model.potential))
        if E1 <= E0 + config.tol_E:
            return sub
    # the evaluation's fields are not checked, so rates that are not
    # finite at the state itself, which no halving helps, show up here
    with np.errstate(all="ignore"):
        if not all(np.isfinite(r).all() for r in rhs(f)):
            raise BlowUpError("state evaluation produced non-finite values",
                              t=state.t, state=state)
    raise StepFailureError(
        f"energy guard exhausted {config.max_halvings} halvings",
        t=state.t, state=state,
    )


def step_rk4_explicit(f: StateFields, config: StepperConfig) -> SimState:
    """Classical RK4 step from f; oracle integrator for small dt."""
    state, model = f.state, f.model

    def tendency(s):
        return rhs(derive(s, model))

    try:
        new = _rk4_update(state, config.dt, tendency, rhs(f))
    except sp.SpectralError as exc:
        raise BlowUpError("explicit step produced non-finite values",
                          t=state.t, state=state) from exc
    if np.any(new.norm() > 1e3 * np.maximum(1.0, state.norm())):
        raise BlowUpError("explicit step blew up", t=state.t, state=state)
    return new


Observer = Callable[[StateFields], None]


def _snapshot_due(i: int, n_steps: int, cadence: int,
                  observe_initial: bool) -> bool:
    return (i % cadence == 0 or i == n_steps) and (i > 0 or observe_initial)


def _evaluate(state: SimState, model: TumourModel) -> StateFields:
    """derive, with a state that cannot be evaluated (non-finite values)
    reported as a BlowUpError at its time."""
    try:
        return derive(state, model)
    except sp.SpectralError as exc:
        raise BlowUpError("state evaluation produced non-finite values",
                          t=state.t, state=state) from exc


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
    if T < 0:
        raise ValueError("T must be nonnegative")
    if cadence < 1:
        raise ValueError("cadence must be at least 1")
    n_steps = int(round(T / config.dt))
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
        fields = _evaluate(state, model)
        if due:
            yield fields
        if i == n_steps:
            return
        state = stepper(fields, config)
        # drop this state's evaluation before the next one is built
        del fields


def run(initial: SimState, config: StepperConfig, model: TumourModel,
        T: float, observer: Observer | None = None,
        cadence: int = 1, observe_initial: bool = True) -> SimState:
    """Advance for a duration T and return the final state, or `initial`
    when nothing is stepped (a resumed run already at its horizon).

    The observer receives the snapshots of `snapshots`: each state is
    evaluated once, and that evaluation drives its step.  No state is
    kept, so a run holds one evaluation at a time whatever its length.
    """
    final = initial
    for fields in snapshots(initial, config, model, T, cadence,
                            observe_initial):
        final = fields.state
        if observer is not None:
            observer(fields)
        # drop the evaluation before the generator steps on
        del fields
    return final
