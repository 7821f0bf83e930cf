"""Independent references the tests check the solver against.

None of this is on a command's path: a dense-quadrature assembly of
every Galerkin operator (the oracle of the matrix-free rhs), the dense
boundary mass matrix and the diagonal inverse Laplacian, residuals of
the weak-form equations, the three rescaled pressures, the
integral-form Gronwall envelope, time-aggregated norm suites, the
nutrient free energy density, and two ways to build a manufactured
solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_simpson

from chdarcy import diagnostics as dg
from chdarcy import dynamics as dyn
from chdarcy import spectral as sp
from chdarcy.dynamics import SimState
from chdarcy.experiments import ManufacturedSolution
from chdarcy.model import ModelParams, TumourModel
from chdarcy.spectral import FieldCoeffs, SpectralBasis


# ---------------------------------------------------------------------------
# spectral operators in closed form

def inverse_neumann_laplacian(c: FieldCoeffs) -> FieldCoeffs:
    """Diagonal inverse of -Laplacian on the mean-zero subspace."""
    size = np.abs(c.data)
    violated = size[..., 0] > sp.MEAN_ZERO_TOL * size.max(axis=-1, initial=1.0)
    if sp._any_member(violated):
        raise sp.ZeroMeanViolationError(
            f"constant-mode coefficient {c.data[..., 0][violated].flat[0]:.3e}"
            " violates the mean-zero precondition"
        )
    lam = c.basis.eigenvalues
    out = np.divide(c.data, lam, out=np.zeros_like(c.data), where=lam > 0)
    return FieldCoeffs(c.basis, out)


def boundary_mass_matrix(basis: SpectralBasis) -> np.ndarray:
    """M[j, i] = int_{boundary} w_i w_j, assembled in closed form.

    Dense n_modes x n_modes reference for spectral.boundary_mass_apply;
    the solver never forms it.
    """
    if basis.dim == 1:
        (left, right), = basis.traces_1d
        return np.outer(left, left) + np.outer(right, right)
    (lx, rx), (ly, ry) = basis.traces_1d
    kx, ky = basis.modes
    Bx = np.outer(lx, lx) + np.outer(rx, rx)  # traces at x = 0 and x = Lx
    By = np.outer(ly, ly) + np.outer(ry, ry)
    # Edge x = const contributes trace_x * delta_{n n'}; likewise for y.
    M = np.kron(Bx, np.eye(ky)) + np.kron(np.eye(kx), By)
    return M


# ---------------------------------------------------------------------------
# dense Galerkin assembly: the rhs oracle

def basis_on_grid(grid) -> tuple[np.ndarray, list[np.ndarray]]:
    """Nodal values and gradient components of every basis function on
    grid, each a (n_modes, n_points) array, spatially flattened."""
    basis = grid.basis
    k = basis.n_modes
    nflat = int(np.prod(grid.npoints))
    vals = np.empty((k, nflat))
    grads = [np.empty((k, nflat)) for _ in range(basis.dim)]
    for j in range(k):
        e = np.zeros(k)
        e[j] = 1.0
        cj = FieldCoeffs(basis, e)
        vals[j] = sp.to_grid(cj, grid).reshape(nflat)
        for d, comp in enumerate(sp.gradient_on_grid(cj, grid)):
            grads[d][j] = comp.reshape(nflat)
    return vals, grads


def quadrature_stiffness(grid) -> np.ndarray:
    """sum_q W grad(w_i).grad(w_j) over the nodes of grid: the stiffness
    matrix by quadrature, which the solver takes as diag(eigenvalues)."""
    _, grads = basis_on_grid(grid)
    Wf = grid.W.reshape(-1)
    return sum((gb * Wf) @ gb.T for gb in grads)


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
    v: tuple[np.ndarray, ...]


def dense_galerkin_operators(state: SimState, model: TumourModel,
                             oversample: float = 4.0) -> DenseGalerkinOperators:
    """Assemble every operator on an oversampled grid; the rhs oracle."""
    params = model.params
    basis = state.basis
    grid = basis.quadrature_grid(oversample=oversample)
    W = grid.W

    phi_g = sp.to_grid(state.alpha, grid)
    sigma_g = sp.to_grid(state.gamma, grid)
    grad_phi = sp.gradient_on_grid(state.alpha, grid)

    k = basis.n_modes
    nflat = int(np.prod(grid.npoints))
    Wf = W.reshape(nflat)
    basis_vals, basis_grads = basis_on_grid(grid)

    stiffness = quadrature_stiffness(grid)
    S = np.diag(basis.eigenvalues)
    S_m = model.mobility_m * stiffness
    S_n = model.mobility_n * stiffness

    psi_vec = basis_vals @ (Wf * model.potential.dpsi(phi_g).reshape(nflat))
    beta = params.A * psi_vec + params.B * basis.eigenvalues * state.alpha.data \
        - params.chi * state.gamma.data
    mu_g = (basis_vals.T @ beta).reshape(grid.npoints)

    # Darcy on the dense grid; at K = 0 nothing to solve (no Gamma_v / K)
    if dyn._no_flow(model):
        p = FieldCoeffs(basis, np.zeros(k))
        v_vals = [np.zeros(nflat) for _ in range(basis.dim)]
    else:
        drive = (mu_g + params.chi * sigma_g).reshape(nflat)
        forcing = [drive * g.reshape(nflat) for g in grad_phi]
        rhs_p = sum(gb @ (Wf * f) for gb, f in zip(basis_grads, forcing))
        if model.gamma_v is not None:
            rhs_p = rhs_p + model.gamma_v.data / params.K
        rhs_p[0] = 0.0
        p = inverse_neumann_laplacian(FieldCoeffs(basis, rhs_p))
        grad_p = [gb.T @ p.data for gb in basis_grads]
        v_vals = [-params.K * (gp - f) for gp, f in zip(grad_p, forcing)]
    v = tuple(vv.reshape(grid.npoints) for vv in v_vals)

    C = sum(
        (gb * (Wf * vv)) @ basis_vals.T
        for gb, vv in zip(basis_grads, v_vals)
    )

    lam_phi, theta_phi, lam_S, theta_S = model.sources.coefficients(
        phi_g, sigma_g, params)
    gamma_phi_g = lam_phi - theta_phi * mu_g
    S_vals = lam_S - theta_S * mu_g
    R_phi = basis_vals @ (Wf * gamma_phi_g.reshape(nflat))
    R_S = basis_vals @ (Wf * S_vals.reshape(nflat))

    M_bdry = boundary_mass_matrix(basis)
    Sigma_vec = model.sigma_inf * basis.boundary_vector

    return DenseGalerkinOperators(
        S=S, S_m=S_m, S_n=S_n, C=C, M_bdry=M_bdry, R_phi=R_phi, R_S=R_S,
        psi_vec=psi_vec, Sigma_vec=Sigma_vec, beta=beta, p=p, v=v,
    )


def dense_rhs(state: SimState, model: TumourModel,
              ops: DenseGalerkinOperators | None = None
              ) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand side assembled from the dense operators."""
    if ops is None:
        ops = dense_galerkin_operators(state, model)
    params = model.params
    dalpha = -ops.S_m @ ops.beta + ops.R_phi + ops.C @ state.alpha.data
    dgamma = (-ops.S_n @ (params.D * state.gamma.data
                          - params.chi * state.alpha.data)
              - ops.R_S + ops.C @ state.gamma.data
              - params.b * ops.M_bdry @ state.gamma.data
              + params.b * ops.Sigma_vec)
    return dalpha, dgamma


# ---------------------------------------------------------------------------
# pointwise and weak-form identities

def nutrient_free_energy_density(phi: np.ndarray, sigma: np.ndarray,
                                 params: ModelParams
                                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """N = (D/2) sigma^2 + chi sigma (1 - phi) and its partial derivatives,
    from phi and sigma on a grid."""
    N = 0.5 * params.D * sigma ** 2 + params.chi * sigma * (1.0 - phi)
    N_sigma = params.D * sigma + params.chi * (1.0 - phi)
    N_phi = -params.chi * sigma
    return N, N_sigma, N_phi


@dataclass
class WeakResidual:
    equation: str
    mode: int
    integrated: float   # sum |r| dt over intervals (evolution equations)
    max_abs: float      # max |r| over snapshots (algebraic relations)


def weak_residual(states: list[SimState], j: int, equation: str,
                  model: TumourModel) -> WeakResidual:
    """Residual of one weak-form equation against test function j.

    Evolution equations (phi, sigma) difference the stored coefficients
    in time and are O(dt); the algebraic relations (mu, pressure,
    velocity) are re-evaluated on a 4x oversampled grid and should hold
    to roundoff at every snapshot.
    """
    basis = states[0].basis
    if not (0 <= j < basis.n_modes):
        raise IndexError(f"test index {j} outside 0..{basis.n_modes - 1}")
    if equation not in ("phi", "mu", "sigma", "pressure", "velocity"):
        raise ValueError(f"unknown equation {equation!r}")
    times = np.array([s.t for s in states])

    if equation in ("phi", "sigma"):
        res = np.empty(len(states) - 1)
        for n in range(len(res)):
            dt = times[n + 1] - times[n]
            da, dg_ = dyn.rhs(dyn.derive(states[n], model))
            rate = da[j] if equation == "phi" else dg_[j]
            left = states[n].alpha if equation == "phi" else states[n].gamma
            right = states[n + 1].alpha if equation == "phi" else states[n + 1].gamma
            res[n] = (right.data[j] - left.data[j]) / dt - rate
        dts = np.diff(times)
        return WeakResidual(equation, j, float(np.sum(np.abs(res) * dts)),
                            float(np.max(np.abs(res))))

    max_abs = 0.0
    grid4 = basis.quadrature_grid(oversample=4.0)
    for state in states:
        der = dyn.derive(state, model)
        eff = der.model
        params = eff.params
        phi4 = sp.to_grid(state.alpha, grid4)
        if equation == "mu":
            psi4 = sp.to_coeffs(grid4, eff.potential.dpsi(phi4))
            expect = (params.A * psi4.data[j]
                      + params.B * basis.eigenvalues[j] * state.alpha.data[j]
                      - params.chi * state.gamma.data[j])
            r = der.mu.data[j] - expect
        elif equation == "pressure":
            if der.no_flow:  # K = 0: no Gamma_v / K to form
                r = der.p.data[j]
            else:
                grad_phi4 = sp.gradient_on_grid(state.alpha, grid4)
                drive4 = (sp.to_grid(der.mu, grid4)
                          + params.chi * sp.to_grid(state.gamma, grid4))
                F4 = tuple(drive4 * g for g in grad_phi4)
                rhs_j = -sp.divergence_to_coeffs(grid4, F4).data[j]
                if eff.gamma_v is not None:
                    rhs_j += eff.gamma_v.data[j] / params.K
                if j == 0:
                    rhs_j = 0.0
                r = basis.eigenvalues[j] * der.p.data[j] - rhs_j
        else:  # velocity, pointwise on the grid where v lives
            if der.no_flow:
                r = max((float(np.max(np.abs(vi))) for vi in der.v),
                        default=0.0)
            else:
                grad_p = sp.gradient_on_grid(der.p, der.grid)
                drive = der.mu_g + params.chi * der.sigma_g
                r = max(
                    float(np.max(np.abs(
                        vi + params.K * (gp - drive * gphi)
                    )))
                    for vi, gp, gphi in zip(
                        der.v, grad_p,
                        sp.gradient_on_grid(state.alpha, der.grid))
                )
        max_abs = max(max_abs, abs(r))
    return WeakResidual(equation, j, max_abs, max_abs)


@dataclass
class PressureReformulations:
    q: np.ndarray
    p_hat: np.ndarray
    p_tilde: np.ndarray
    lambda_v: tuple[np.ndarray, np.ndarray, np.ndarray]
    max_spread: float


def pressure_reformulations(state: SimState, model: TumourModel
                            ) -> PressureReformulations:
    """The three rescaled pressures and the Darcy work density.

    lambda_v = p - mu phi - (D/2) sigma^2 is evaluated through each of
    the rescaled pressures; all three routes must agree pointwise.
    """
    f = dyn.derive(state, model)
    eff, params, grid = f.model, f.model.params, f.grid
    phi = f.phi_g
    sigma = f.sigma_g
    mu = f.mu_g
    p = sp.to_grid(f.p, grid)
    grad_sq = sum(g ** 2 for g in sp.gradient_on_grid(state.alpha, grid))

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
    return PressureReformulations(
        q=q, p_hat=p_hat, p_tilde=p_tilde, lambda_v=(lam0, lam1, lam2),
        max_spread=spread,
    )


# ---------------------------------------------------------------------------
# time-integrated bounds

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


def gronwall_envelope(g: GronwallInput, tol: float = 1e-9) -> GronwallEnvelope:
    """Integral-form Gronwall bound sampled on the input grid:

        u(s) + int_0^s v  <=  alpha(s) + int_0^s beta(tau) alpha(tau)
                                          exp(int_tau^s beta) dtau.

    The nested exponential integral is evaluated with an integrating
    factor, so only cumulative quadratures are needed.
    """
    B = cumulative_simpson(g.beta, x=g.t, initial=0.0)
    inner = g.beta * g.alpha * np.exp(-B)
    bound = g.alpha + np.exp(B) * cumulative_simpson(inner, x=g.t, initial=0.0)
    monitored = g.u + cumulative_simpson(g.v, x=g.t, initial=0.0)
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
        l2_h1=float(np.sqrt(dg.trapezoid(h1s ** 2, times))),
        l85_h1=float(dg.trapezoid(h1s ** (8.0 / 5.0), times) ** (5.0 / 8.0)),
    )


def norm_suite(states: list[SimState], model: TumourModel,
               velocity_gradient: bool = False) -> NormSuite:
    """Time-aggregated norms of the solution quintuple over a window."""
    times = np.array([s.t for s in states])
    acc = {name: ([], []) for name in ("phi", "sigma", "mu", "p")}
    v_sq = []
    dv = [] if velocity_gradient else None
    for state in states:
        der = dyn.derive(state, model)
        for name, coeffs in (("phi", state.alpha), ("sigma", state.gamma),
                             ("mu", der.mu), ("p", der.p)):
            acc[name][0].append(sp.norm(coeffs))
            acc[name][1].append(sp.norm(coeffs, "H1"))
        v_sq.append(der.v_sq)
        if velocity_gradient:
            total = 0.0
            for vi in der.v:
                ci = sp.to_coeffs(der.grid, vi)
                total += sp.inner_product(ci, ci, "H1-seminorm")
            dv.append(np.sqrt(total))
    v_l2l2, scaled = dg.velocity_time_norms(times, v_sq, model.params.K)
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
# manufactured solutions

def equilibrium(value: float = 1.0) -> ManufacturedSolution:
    return ManufacturedSolution(((0, value),), ((0, 0.0),), decay=0.0)


def from_callables(phi_fn, sigma_fn, basis: SpectralBasis,
                   decay: float = 1.0,
                   tol: float = 1e-10) -> ManufacturedSolution:
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
        c = sp.to_coeffs(grid, vals)
        back = sp.to_grid(c, grid)
        if np.max(np.abs(back - vals)) > tol * max(1.0, np.max(np.abs(vals))):
            raise ValueError(
                "manufactured field is not Neumann-compatible within the basis"
            )
        a = [(0, float(c.data[0]) / np.sqrt(L))]
        a += [(m, float(c.data[m]) * np.sqrt(2.0 / L))
              for m in range(1, basis.modes[0])]
        amps.append(tuple((m, v) for m, v in a if abs(v) > 1e-14))
    return ManufacturedSolution(amps[0], amps[1], decay=decay)
