"""Scripted studies: asymptotic-limit sweeps, manufactured solutions,
and rate fitting.

The two sweeps drive the permeability (with b = K) and the chemotaxis
strength (with b = chi) toward zero and compare each member trajectory
against the corresponding limit system run on the same basis, initial
data, and time grid.  The manufactured-solution study verifies spatial
in-span exactness and the first-order temporal rate of the IMEX scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import diagnostics as dg
from . import dynamics as dyn
from . import spectral as sp
from .dynamics import SimState, StepperConfig, Trajectory
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
    dt: float
    T: float
    comparison: str = "Linf-L2"  # | "L2-H1"
    cadence: int = 1

    def __post_init__(self):
        if self.parameter not in ("K", "chi"):
            raise ValueError(f"unknown sweep parameter {self.parameter!r}")
        vals = tuple(float(v) for v in self.values)
        if not all(np.isfinite(vals)):
            raise ValueError("sweep values must be finite")
        if any(v <= 0 for v in vals):
            raise ValueError("sweep values must be positive")
        if any(nxt >= prev for prev, nxt in zip(vals[:-1], vals[1:])):
            raise ValueError("sweep values must be strictly decreasing")
        if self.comparison not in ("Linf-L2", "L2-H1"):
            raise ValueError(f"unknown comparison norm {self.comparison!r}")
        object.__setattr__(self, "values", vals)


@dataclass
class SweepRow:
    value: float
    v_l2l2: float
    v_scaled: float   # K^{-1/2} |v|_{L2(L2)} for K-sweeps, same for chi
    diff_phi: float
    diff_sigma: float
    failed: str | None = None


def _snapshot_difference(a: FieldCoeffs, b: FieldCoeffs, comparison: str):
    """Norm of a - b at one snapshot, one value per member of a."""
    kind = "L2" if comparison == "Linf-L2" else "H1"
    return sp.norm(FieldCoeffs(a.basis, a.data - b.data), kind)


def _time_norm(diffs, times, comparison: str) -> float:
    """Snapshot differences aggregated in time: max, or L2 by trapezoid."""
    diffs = np.asarray(diffs)
    if comparison == "Linf-L2":
        return float(np.max(diffs))
    return float(np.sqrt(dg.trapezoid(diffs ** 2, times)))


def _difference_norm(a: Trajectory, b: Trajectory, field: str,
                     comparison: str) -> float:
    if len(a) != len(b):
        raise ValueError("trajectories must share the snapshot grid")
    name = "alpha" if field == "phi" else "gamma"
    diffs = [_snapshot_difference(getattr(sa, name), getattr(sb, name),
                                  comparison)
             for sa, sb in zip(a.states, b.states)]
    return _time_norm(diffs, a.times, comparison)


def sweep_vanishing_permeability(spec: SweepSpec, model: TumourModel,
                                 initial: SimState) -> list[SweepRow]:
    """Member runs at decreasing K with b = K, against the no-flow limit."""
    if model.gamma_v is not None:
        raise ValueError("permeability sweep requires a zero volume source")
    limit = model.with_params(model.params.with_(b=0.0))
    return _sweep(spec, "K", model, initial, limit, no_flow=True)


def sweep_vanishing_chemotaxis(spec: SweepSpec, model: TumourModel,
                               initial: SimState) -> list[SweepRow]:
    """Member runs at decreasing chi with b = chi, against the chi = 0 run."""
    limit = model.with_params(model.params.with_(chi=0.0, b=0.0))
    return _sweep(spec, "chi", model, initial, limit)


def _sweep(spec: SweepSpec, parameter: str, model: TumourModel,
           initial: SimState, limit_model: TumourModel,
           **limit_config) -> list[SweepRow]:
    """Members with parameter = b = value, each against the limit run.

    The limit run's trajectory is the reference.  The members then
    advance together as one batched state, each snapshot reduced on
    arrival, so no member trajectory is kept.  If the batch fails, each
    member is re-run alone, and one that blows up gets its failed row
    while the others go on.
    """
    if spec.parameter != parameter:
        raise ValueError(f"spec.parameter must be {parameter!r}")
    limit = dyn.run(initial.copy(),
                    StepperConfig(dt=spec.dt, **limit_config),
                    limit_model, spec.T, cadence=spec.cadence)
    values = np.array(spec.values)
    members = model.with_params(
        model.params.with_(**{parameter: values, "b": values}))
    batch = SimState(initial.t, *(
        FieldCoeffs(initial.basis, np.tile(c.data, (len(values), 1)))
        for c in (initial.alpha, initial.gamma)))
    try:
        return _member_rows(spec, spec.values, members, batch, limit)
    except dyn.StepFailureError:
        pass
    rows = []
    for value in spec.values:
        member = model.with_params(
            model.params.with_(**{parameter: value, "b": value}))
        try:
            rows += _member_rows(spec, (value,), member, initial.copy(), limit)
        except dyn.StepFailureError as exc:
            rows.append(SweepRow(value, np.nan, np.nan, np.nan, np.nan,
                                 failed=str(exc)))
    return rows


def _member_rows(spec: SweepSpec, values: tuple[float, ...],
                 members: TumourModel, initial: SimState,
                 limit: Trajectory) -> list[SweepRow]:
    """One row per value: the members' run (batched, or one member
    alone), each snapshot reduced against the limit run's on arrival."""
    times, diff_phi, diff_sigma, v_sq = [], [], [], []
    refs = iter(limit.states)
    for f in dyn.snapshots(initial, StepperConfig(dt=spec.dt), members,
                           spec.T, cadence=spec.cadence):
        ref = next(refs)
        times.append(f.state.t)
        diff_phi.append(_snapshot_difference(f.state.alpha, ref.alpha,
                                             spec.comparison))
        diff_sigma.append(_snapshot_difference(f.state.gamma, ref.gamma,
                                               spec.comparison))
        v_sq.append(f.grid.integrate_members(
            sum(vi.values ** 2 for vi in f.v)))
        del f  # not kept while the members step on
    # one contiguous row of snapshot values per member
    diff_phi, diff_sigma, v_sq = (
        np.stack(x, axis=-1).reshape(len(values), -1)
        for x in (diff_phi, diff_sigma, v_sq))
    K = np.broadcast_to(members.params.K, len(values))
    rows = []
    for j, value in enumerate(values):
        v_l2l2, v_scaled = dg.velocity_time_norms(times, v_sq[j], K[j])
        rows.append(SweepRow(
            value=value,
            v_l2l2=v_l2l2,
            v_scaled=v_scaled,
            diff_phi=_time_norm(diff_phi[j], times, spec.comparison),
            diff_sigma=_time_norm(diff_sigma[j], times, spec.comparison),
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

    @staticmethod
    def equilibrium(value: float = 1.0) -> "ManufacturedSolution":
        return ManufacturedSolution(((0, value),), ((0, 0.0),), decay=0.0)

    @staticmethod
    def from_callables(phi_fn, sigma_fn, basis: SpectralBasis,
                       decay: float = 1.0,
                       tol: float = 1e-10) -> "ManufacturedSolution":
        """Extract amplitudes by projection; reject off-span data.

        Anything with a nonzero normal derivative (a sine component, say)
        leaves a projection residual and is refused.
        """
        if basis.dim != 1:
            raise ValueError("manufactured solutions are one-dimensional")
        grid = basis.quadrature_grid(oversample=4.0)
        x = grid.nodes[0]
        L = basis.domain.lengths[0]
        amps = []
        for fn in (phi_fn, sigma_fn):
            vals = np.asarray(fn(x), dtype=float)
            c = sp.to_coeffs(sp.GridField(grid, vals))
            back = sp.to_grid(c, grid).values
            if np.max(np.abs(back - vals)) > tol * max(1.0, np.max(np.abs(vals))):
                raise ValueError(
                    "manufactured field is not Neumann-compatible within the basis"
                )
            a = [(0, float(c.data[0]) / np.sqrt(L))]
            a += [(m, float(c.data[m]) * np.sqrt(2.0 / L))
                  for m in range(1, basis.modes[0])]
            amps.append(tuple((m, v) for m, v in a if abs(v) > 1e-14))
        return ManufacturedSolution(amps[0], amps[1], decay=decay)

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
             model: TumourModel, config: StepperConfig
             ) -> tuple[np.ndarray, np.ndarray]:
    """f(t) = d/dt c*(t) - rhs(c*(t)): makes c* an exact ODE solution."""
    cp, cs = ms.coeffs(basis, t)
    rp, rs = ms.rate_coeffs(basis, t)
    da, dg_ = dyn.rhs(SimState(t, cp, cs), model, config)
    return rp - da, rs - dg_


def _forced_step(state: SimState, model: TumourModel, config: StepperConfig,
                 ms: ManufacturedSolution, factors) -> SimState:
    """One step of config.scheme with the forcing f added to the rhs;
    factors are the IMEX step's dyn._implicit_factors."""
    def forced_rhs(s):
        da, dg_ = dyn.rhs(s, model, config)
        fa, fg = _forcing(ms, s.basis, s.t, model, config)
        return da + fa, dg_ + fg

    if config.scheme == "imex1":
        return dyn._imex_update(state, forced_rhs(state), factors, config.dt)
    return dyn._rk4_update(state, config.dt, forced_rhs, forced_rhs(state))


def run_manufactured(ms: ManufacturedSolution, basis: SpectralBasis,
                     model: TumourModel, config: StepperConfig,
                     T: float) -> float:
    """Integrate the forced system from the projected exact data;
    returns the final-time coefficient-space L2 error."""
    cp, cs = ms.coeffs(basis, 0.0)
    state = SimState(0.0, cp, cs)
    config = replace(config, kappa=config.resolved_kappa(model))
    factors = dyn._implicit_factors(basis, model, config, config.dt)
    n = int(round(T / config.dt))
    for _ in range(n):
        state = _forced_step(state, model, config, ms, factors)
    ep, es = ms.coeffs(basis, state.t)
    return float(np.sqrt(np.sum((state.alpha.data - ep.data) ** 2)
                         + np.sum((state.gamma.data - es.data) ** 2)))


@dataclass
class MMSResult:
    spatial_orders: tuple[int, ...]
    spatial_errors: np.ndarray
    temporal_dts: tuple[float, ...]
    temporal_errors: np.ndarray
    temporal_fit: RateFit
    resolved_spatial_error: float  # max error over orders that span the data


def manufactured_solution_study(orders, dts, model: TumourModel,
                                ms: ManufacturedSolution | None = None,
                                domain: sp.Domain | None = None,
                                T: float = 0.1,
                                dt_space: float = 5e-4,
                                modes_time: int = 6) -> MMSResult:
    """Spatial in-span exactness and temporal first-order rate.

    orders are maximal resolved wavenumbers; the basis for order k has
    k + 1 modes.  Spatial errors use the RK4 stepper at a small fixed
    dt; temporal errors use the IMEX stepper on a resolving basis.
    """
    if ms is None:
        ms = ManufacturedSolution.default()
    if domain is None:
        domain = sp.Domain("interval", (1.0,))
    orders = tuple(int(k) for k in orders)
    dts = tuple(float(dt) for dt in dts)

    spatial_errors = []
    for k in orders:
        basis = sp.build_basis(domain, k + 1)
        config = StepperConfig(dt=dt_space, scheme="rk4-explicit")
        spatial_errors.append(run_manufactured(ms, basis, model, config, T))
    spatial_errors = np.asarray(spatial_errors)

    basis_t = sp.build_basis(domain, modes_time)
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
