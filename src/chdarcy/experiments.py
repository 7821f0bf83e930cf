"""Scripted studies: asymptotic-limit sweeps, manufactured solutions,
and rate fitting.

The sweep drives the permeability (with b = K) or the chemotaxis
strength (with b = chi) toward zero and compares each member trajectory
against the corresponding limit system run on the same basis, initial
data, time grid and stepper.  The limit run advances in lockstep with
the members, so a sweep keeps a time per snapshot, one scalar per member
and snapshot, and no state: its memory does not grow by a state per
snapshot.  The
manufactured-solution study verifies
spatial in-span exactness and the first-order temporal rate of the IMEX
scheme; its forcing is a term of the model, so its runs are stepped by
dynamics.run like any other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import diagnostics as dg
from . import dynamics as dyn
from . import spectral as sp
from .dynamics import SimState, StepperConfig
from .model import TumourModel
from .spectral import FieldCoeffs, SpectralBasis


@dataclass
class RateFit:
    x: np.ndarray
    y: np.ndarray
    slope: float
    intercept: float
    residual: float


def fit_rate(x, y) -> RateFit:
    """Least-squares slope in log-log coordinates."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 3 or len(x) != len(y):
        raise ValueError("need at least 3 matched points")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("log-log fit needs positive data")
    lx, ly = np.log(x), np.log(y)
    A = np.vstack([lx, np.ones_like(lx)]).T
    (slope, intercept), res, _, _ = np.linalg.lstsq(A, ly, rcond=None)
    residual = float(np.sqrt(res[0])) if len(res) else 0.0
    return RateFit(x, y, float(slope), float(intercept), residual)


@dataclass
class SweepSpec:
    parameter: str              # "K" | "chi"
    values: tuple[float, ...]   # strictly decreasing, positive, finite
    stepper: StepperConfig      # of the limit run and of every member
    T: float
    cadence: int = 1

    def __post_init__(self):
        if self.parameter not in ("K", "chi"):
            raise ValueError(f"unknown sweep parameter {self.parameter!r}")
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise ValueError("a sweep needs at least one value")
        if not all(np.isfinite(vals)):
            raise ValueError("sweep values must be finite")
        if any(v <= 0 for v in vals):
            raise ValueError("sweep values must be positive")
        if any(nxt >= prev for prev, nxt in zip(vals[:-1], vals[1:])):
            raise ValueError("sweep values must be strictly decreasing")
        object.__setattr__(self, "values", vals)


@dataclass
class SweepRow:
    """One member: its velocity norms, and the largest L2 distance over
    the snapshots of its phi and sigma to the limit run's."""

    value: float
    v_l2l2: float
    v_scaled: float   # K^{-1/2} |v|_{L2(L2)} for K-sweeps, same for chi
    diff_phi: float
    diff_sigma: float
    failed: str | None = None


def _snapshot_difference(a: FieldCoeffs, b: FieldCoeffs):
    """L2 norm of a - b at one snapshot, one value per member of a."""
    return sp.norm(FieldCoeffs(a.basis, a.data - b.data), "L2")


class _MemberFailure(Exception):
    """A member run's StepFailureError, raised once the limit run it was
    stepped with has ended, so that it is never taken for a failure of
    the limit run itself."""


def sweep(spec: SweepSpec, model: TumourModel,
          initial: SimState) -> list[SweepRow]:
    """Members with parameter = b = value, each against the limit run,
    the model at parameter = b = 0: K = 0 is the zero-velocity limit and
    chi = 0 the limit without chemotaxis or active transport.

    The limit run is advanced in lockstep with the members, which step
    together as one batched state: at each of its snapshots the limit
    run's observer pulls the batch's next snapshot and reduces it on
    arrival.  What a sweep keeps per snapshot is its time and one scalar
    per member (the |v|^2 integral), never a state of the limit run or
    of a member; the differences are kept as running maxima.  If the
    batch fails, each member is re-run alone in lockstep with a fresh
    limit run, so the limit run is stepped once more per member on that
    path; a member that blows up gets its failed row while the others go
    on.  Every run steps with spec.stepper; a limit run that fails
    raises.
    """
    parameter = spec.parameter
    if parameter == "K" and model.gamma_v is not None:
        raise ValueError("permeability sweep requires a zero volume source")

    def at(value):
        return replace(model, params=replace(
            model.params, **{parameter: value, "b": value}))

    limit = at(0.0)
    values = np.array(spec.values)
    batch = SimState(initial.t, *(
        FieldCoeffs(initial.basis, np.tile(c.data, (len(values), 1)))
        for c in (initial.alpha, initial.gamma)))
    try:
        return _lockstep_rows(spec, spec.values, at(values), batch, limit,
                              initial)
    except _MemberFailure:
        pass
    rows = []
    for value in spec.values:
        try:
            rows += _lockstep_rows(spec, (value,), at(value), initial.copy(),
                                   limit, initial)
        except _MemberFailure as exc:
            rows.append(SweepRow(value, np.nan, np.nan, np.nan, np.nan,
                                 failed=str(exc)))
    return rows


def _lockstep_rows(spec: SweepSpec, values: tuple[float, ...],
                   members: TumourModel, batch: SimState,
                   limit: TumourModel, initial: SimState) -> list[SweepRow]:
    """One row per value: the members' run (batched, or one member
    alone) pulled snapshot by snapshot by the observer of a limit run
    from `initial`, each reduced against the limit's snapshot on arrival.

    A member failure stops the pulling but not the limit run, so a
    limit run that fails later still raises its own StepFailureError;
    the member failure is raised as _MemberFailure after the limit run.
    """
    pending = dyn.snapshots(batch, spec.stepper, members, spec.T,
                            cadence=spec.cadence)
    times, v_sq = [], []
    # the largest differences so far, one per member
    max_phi, max_sigma = np.full((2, len(values)), -np.inf)
    failure = []

    def reduce(ref):
        if failure:
            return
        try:
            f = next(pending)
        except dyn.StepFailureError as exc:
            failure.append(exc)
            return
        times.append(f.state.t)
        np.maximum(max_phi, _snapshot_difference(
            f.state.alpha, ref.state.alpha), out=max_phi)
        np.maximum(max_sigma, _snapshot_difference(
            f.state.gamma, ref.state.gamma), out=max_sigma)
        v_sq.append(np.zeros(f.state.alpha.data.shape[:-1]) if f.no_flow
                    else f.grid.integrate_members(sum(vi ** 2 for vi in f.v)))

    dyn.run(initial.copy(), spec.stepper, limit, spec.T, observer=reduce,
            cadence=spec.cadence)
    if failure:
        raise _MemberFailure(str(failure[0])) from failure[0]
    # one contiguous row of snapshot values per member
    v_sq = np.stack(v_sq, axis=-1).reshape(len(values), -1)
    K = np.broadcast_to(members.params.K, len(values))
    rows = []
    for j, value in enumerate(values):
        v_l2l2, v_scaled = dg.velocity_time_norms(times, v_sq[j], K[j])
        rows.append(SweepRow(
            value=value,
            v_l2l2=v_l2l2,
            v_scaled=v_scaled,
            diff_phi=float(max_phi[j]),
            diff_sigma=float(max_sigma[j]),
        ))
    return rows


# ---------------------------------------------------------------------------
# manufactured solutions (1D)

@dataclass(frozen=True)
class ManufacturedSolution:
    """Separable cosine-polynomial fields with exponential time decay:

        phi*(x, t) = exp(-decay t) * sum_m a_m cos(m pi x / L),

    and likewise for sigma*.  Cosine modes have zero normal derivative,
    so the fields are Neumann-compatible by construction.
    """

    phi_amplitudes: tuple[tuple[int, float], ...]
    sigma_amplitudes: tuple[tuple[int, float], ...]
    decay: float = 1.0

    @staticmethod
    def default() -> "ManufacturedSolution":
        # phi* = cos(pi x) e^{-t}, sigma* = cos(2 pi x) e^{-t} / 2
        return ManufacturedSolution(((1, 1.0),), ((2, 0.5),))

    def max_wavenumber(self) -> int:
        ms = [m for m, _ in self.phi_amplitudes + self.sigma_amplitudes]
        return max(ms) if ms else 0

    def _coeffs_one(self, amps, basis: SpectralBasis, t: float) -> FieldCoeffs:
        L = basis.domain.lengths[0]
        data = np.zeros(basis.n_modes)
        for m, a in amps:
            if m >= basis.modes[0]:
                continue  # unresolvable part is dropped by projection
            data[m] = a * (np.sqrt(L) if m == 0 else np.sqrt(L / 2.0))
        return FieldCoeffs(basis, data * np.exp(-self.decay * t))

    def coeffs(self, basis: SpectralBasis, t: float
               ) -> tuple[FieldCoeffs, FieldCoeffs]:
        return (self._coeffs_one(self.phi_amplitudes, basis, t),
                self._coeffs_one(self.sigma_amplitudes, basis, t))

    def rate_coeffs(self, basis: SpectralBasis, t: float
                    ) -> tuple[np.ndarray, np.ndarray]:
        cp, cs = self.coeffs(basis, t)
        return -self.decay * cp.data, -self.decay * cs.data


def _forcing(ms: ManufacturedSolution, basis: SpectralBasis, t: float,
             model: TumourModel) -> tuple[np.ndarray, np.ndarray]:
    """f(t) = d/dt c*(t) - rhs(c*(t)): makes c* an exact ODE solution."""
    cp, cs = ms.coeffs(basis, t)
    rp, rs = ms.rate_coeffs(basis, t)
    da, dg_ = dyn.rhs(dyn.derive(SimState(t, cp, cs), model))
    return rp - da, rs - dg_


def run_manufactured(ms: ManufacturedSolution, basis: SpectralBasis,
                     model: TumourModel, config: StepperConfig,
                     T: float) -> float:
    """Integrate the forced system from the projected exact data with
    dyn.run; returns the final-time coefficient-space L2 error.

    The forcing is a term of the model.  It keeps the last time it was
    asked for and its value: an RK4 step's two middle stages share
    t + dt/2, and its last stage's time is the next step's first, so
    each distinct time is forced once.
    """
    last = [None, None]  # t, _forcing at t

    def forcing(t):
        if last[0] != t:
            last[:] = t, _forcing(ms, basis, t, model)
        return last[1]

    final = dyn.run(SimState(0.0, *ms.coeffs(basis, 0.0)), config,
                    replace(model, forcing=forcing), T)
    ep, es = ms.coeffs(basis, final.t)
    return float(np.sqrt(np.sum((final.alpha.data - ep.data) ** 2)
                         + np.sum((final.gamma.data - es.data) ** 2)))


@dataclass
class MMSResult:
    spatial_orders: tuple[int, ...]
    spatial_errors: np.ndarray
    temporal_dts: tuple[float, ...]
    temporal_errors: np.ndarray
    temporal_fit: RateFit
    resolved_spatial_error: float  # max error over orders that span the data


def manufactured_solution_study(orders, dts, model: TumourModel,
                                T: float = 0.1) -> MMSResult:
    """Spatial in-span exactness and temporal first-order rate of the
    default manufactured solution on the unit interval.

    orders are maximal resolved wavenumbers; the basis for order k has
    k + 1 modes.  Spatial errors use the RK4 stepper at a step stable on
    the finest basis; temporal errors use the IMEX stepper on 6 modes.
    """
    ms = ManufacturedSolution.default()
    domain = sp.Domain("interval", (1.0,))
    orders = tuple(int(k) for k in orders)
    dts = tuple(float(dt) for dt in dts)

    # at least 200 RK4 steps, and enough that dt times the stiffest linear
    # rate on the finest basis is at most 2.5 (RK4 is stable on the
    # negative real axis down to about -2.79); more than 100 times 200
    # steps is refused before any run
    config = StepperConfig(dt=T, scheme="rk4-explicit")
    finest = sp.build_basis(domain, max(orders, default=0) + 1)
    rate = max(L.max() for L in dyn._linear_rates(finest, model, config))
    n_space = max(200, math.ceil(T * rate / 2.5))
    if n_space > 20_000:
        raise dyn.StepFailureError(
            f"the spatial study needs {n_space} RK4 steps, more than 20000",
            t=0.0)
    config = replace(config, dt=T / n_space)
    spatial_errors = []
    for k in orders:
        basis = sp.build_basis(domain, k + 1)
        spatial_errors.append(run_manufactured(ms, basis, model, config, T))
    spatial_errors = np.asarray(spatial_errors)

    basis_t = sp.build_basis(domain, 6)
    temporal_errors = []
    for dt in dts:
        config = StepperConfig(dt=dt)
        temporal_errors.append(run_manufactured(ms, basis_t, model, config, T))
    temporal_errors = np.asarray(temporal_errors)
    fit = fit_rate(dts, temporal_errors)

    resolved = [e for k, e in zip(orders, spatial_errors)
                if k >= ms.max_wavenumber()]
    return MMSResult(
        spatial_orders=orders,
        spatial_errors=spatial_errors,
        temporal_dts=dts,
        temporal_errors=temporal_errors,
        temporal_fit=fit,
        resolved_spatial_error=max(resolved) if resolved else np.nan,
    )
