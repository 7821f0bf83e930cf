"""Model data and continuous operators of the tumour-growth system.

Covers the constants and structural hypotheses on the potential, the
mobilities, and the source terms, plus the pointwise operators: chemical
potential, Darcy subsystem, reaction sources, and the nutrient free
energy density.  Hypotheses are validated by dense sampling on a box,
reported rather than raised.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import spectral as sp
from .spectral import FieldCoeffs, GridField, QuadratureGrid, SpectralBasis


@dataclass(frozen=True)
class ModelParams:
    """Model constants.  K, chi and b may be arrays with one value per
    member of a batched state (see spectral); the checks hold for each."""

    A: float
    B: float
    K: float
    D: float
    chi: float
    b: float

    def __post_init__(self):
        for name in ("A", "B", "D"):
            if sp._any_member(getattr(self, name) <= 0):
                raise ValueError(f"parameter {name} must be positive")
        for name in ("K", "chi", "b"):
            if sp._any_member(getattr(self, name) < 0):
                raise ValueError(f"parameter {name} must be nonnegative")

    def with_(self, **kw) -> "ModelParams":
        return replace(self, **kw)


@dataclass(frozen=True)
class Potential:
    """Free-energy density in the order parameter, with growth metadata."""

    kind: str
    psi: Callable[[np.ndarray], np.ndarray]
    dpsi: Callable[[np.ndarray], np.ndarray]
    d2psi: Callable[[np.ndarray], np.ndarray]
    R1: float
    R2: float
    R3: float | None = None  # quadratic growth of psi (case 1)
    R4: float | None = None  # linear growth of psi' (case 1)
    R6: float | None = None  # growth of psi'' (case 2)
    q: float | None = None   # exponent in the psi'' growth bound, in [0, 4)

    @staticmethod
    def quartic_double_well() -> "Potential":
        # psi(t) = (1 - t^2)^2 / 4; psi(t) >= t^2/8 - 9/64 on all of R
        return Potential(
            kind="quartic-double-well",
            psi=lambda t: 0.25 * (1.0 - t * t) ** 2,
            dpsi=lambda t: t * t * t - t,
            d2psi=lambda t: 3.0 * t * t - 1.0,
            R1=0.125,
            R2=9.0 / 64.0,
            R6=3.0,
            q=2.0,
        )

    @staticmethod
    def quadratic() -> "Potential":
        # psi(t) = (t - 1)^2 / 2, an admissible quadratic-growth potential
        return Potential(
            kind="quadratic",
            psi=lambda t: 0.5 * (t - 1.0) ** 2,
            dpsi=lambda t: t - 1.0,
            d2psi=lambda t: np.ones_like(np.asarray(t, dtype=float)),
            R1=0.125,
            R2=1.0 / 6.0 + 1e-12,
            R3=2.0,
            R4=2.0,
        )


@dataclass(frozen=True)
class Mobility:
    """Bounded positive mobility coefficient."""

    func: Callable[[np.ndarray], np.ndarray]
    lower: float
    upper: float

    def __call__(self, t: np.ndarray) -> np.ndarray:
        return self.func(t)

    @staticmethod
    def constant(value: float) -> "Mobility":
        return Mobility(lambda t: np.full_like(np.asarray(t, dtype=float), value),
                        lower=value, upper=value)


def interpolation_h(phi: np.ndarray) -> np.ndarray:
    """h(phi) = (1 + clamp(phi, -1, 1)) / 2; h(-1) = 0, h(1) = 1."""
    return 0.5 * (1.0 + np.clip(phi, -1.0, 1.0))


@dataclass(frozen=True)
class SourceModel:
    """Reaction sources, linear in the chemical potential:

        Gamma_phi = Lambda_phi(phi, sigma) - Theta_phi(phi, sigma) * mu
        S         = Lambda_S(phi, sigma)   - Theta_S(phi, sigma)   * mu
    """

    kind: str
    lambda_phi: Callable[[np.ndarray, np.ndarray], np.ndarray]
    theta_phi: Callable[[np.ndarray, np.ndarray], np.ndarray]
    lambda_S: Callable[[np.ndarray, np.ndarray], np.ndarray]
    theta_S: Callable[[np.ndarray, np.ndarray], np.ndarray]
    R0: float
    R5: float | None = None
    # preset parameters, kept so limit models can be rebuilt at chi = 0
    f0: float | None = None
    interpolated: bool = False

    def gamma_phi(self, phi, mu, sigma):
        return self.lambda_phi(phi, sigma) - self.theta_phi(phi, sigma) * mu

    def S(self, phi, mu, sigma):
        return self.lambda_S(phi, sigma) - self.theta_S(phi, sigma) * mu

    @staticmethod
    def zero() -> "SourceModel":
        z = lambda phi, sigma: np.zeros_like(np.asarray(phi, dtype=float))
        return SourceModel("zero", z, z, z, z, R0=1e-300)

    @staticmethod
    def hawkins(f0: float, params: ModelParams,
                interpolated: bool = False) -> "SourceModel":
        """Linear phenomenological reaction law:

            Gamma_phi = S = f(phi) * (D sigma + chi (1 - phi) - mu).

        With interpolated=False, f is the constant f0, which keeps the
        mu-coefficient bounded below and lands the model in the
        superquadratic-potential regime.  With interpolated=True,
        f(phi) = f0 * h(phi) switches reactions off in the healthy phase.
        A per-member chi scales each member's grid values.
        """
        D, chi = params.D, params.chi
        if interpolated:
            f = lambda phi: f0 * interpolation_h(phi)
            R5 = None
        else:
            f = lambda phi: np.full_like(np.asarray(phi, dtype=float), f0)
            R5 = f0 if f0 > 0 else None
        lam = lambda phi, sigma: f(phi) * (
            D * sigma + sp._per_member(chi, phi) * (1.0 - phi))
        theta = lambda phi, sigma: f(phi)
        R0 = max(f0, f0 * max(D, 2.0 * float(np.max(chi)), 1.0))
        return SourceModel("hawkins", lam, theta, lam, theta, R0=R0, R5=R5,
                           f0=f0, interpolated=interpolated)

    @staticmethod
    def proliferation(lambda_p: float, lambda_a: float,
                      lambda_c: float) -> "SourceModel":
        """Proliferation / apoptosis / consumption with interpolation h."""
        lam_phi = lambda phi, sigma: interpolation_h(phi) * (lambda_p * sigma - lambda_a)
        lam_S = lambda phi, sigma: lambda_c * interpolation_h(phi) * sigma
        zero = lambda phi, sigma: np.zeros_like(np.asarray(phi, dtype=float))
        R0 = max(lambda_p, lambda_a, lambda_c, 1e-300)
        return SourceModel("proliferation", lam_phi, zero, lam_S, zero, R0=R0)


@dataclass
class BoundaryAndInitialData:
    """Boundary nutrient level, prescribed volume source, and initial fields.

    sigma_inf is constant in space; gamma_v(t) must have zero mean.
    """

    sigma_inf: Callable[[float], float]
    gamma_v: Callable[[float], FieldCoeffs] | None
    phi0: FieldCoeffs | None = None
    sigma0: FieldCoeffs | None = None

    @staticmethod
    def constant_sigma_inf(value: float) -> Callable[[float], float]:
        return lambda t: value


@dataclass
class TumourModel:
    """Everything the dynamics needs: constants, closures, and data."""

    params: ModelParams
    potential: Potential
    mobility_m: Mobility
    mobility_n: Mobility
    sources: SourceModel
    sigma_inf: Callable[[float], float]
    gamma_v: Callable[[float], FieldCoeffs] | None = None

    def with_params(self, params: ModelParams) -> "TumourModel":
        sources = self.sources
        if sources.kind == "hawkins":
            # the hawkins closure bakes in D and chi; rebuild it
            sources = SourceModel.hawkins(
                sources.f0, params, interpolated=sources.interpolated
            )
        return TumourModel(
            params=params,
            potential=self.potential,
            mobility_m=self.mobility_m,
            mobility_n=self.mobility_n,
            sources=sources,
            sigma_inf=self.sigma_inf,
            gamma_v=self.gamma_v,
        )

    def effective(self, no_chemotaxis: bool = False) -> "TumourModel":
        """Model with chemotaxis and active transport switched off."""
        if not no_chemotaxis or not sp._any_member(self.params.chi != 0.0):
            return self
        return self.with_params(self.params.with_(chi=0.0))


def chemical_potential(phi: FieldCoeffs, sigma: FieldCoeffs,
                       params: ModelParams, potential: Potential,
                       grid: QuadratureGrid | None = None,
                       phi_g: GridField | None = None) -> FieldCoeffs:
    """mu = A P_k[psi'(phi)] + B (-Laplacian) phi - chi sigma, in coefficients.

    The stiffness term is diagonal in the eigenbasis; psi'(phi) is
    evaluated pseudospectrally on the dealiased grid and projected back.
    phi_g, phi already on that grid, spares the synthesis.
    """
    sp._check_same_basis(phi, sigma)
    basis = phi.basis
    if grid is None:
        grid = sp.default_grid(basis)
    if phi_g is None:
        phi_g = sp.to_grid(phi, grid)
    elif phi_g.grid is not grid:
        raise sp.BasisMismatchError("phi_g lives on a different grid")
    psi_prime = sp.to_coeffs(GridField(grid, potential.dpsi(phi_g.values)))
    data = (params.A * psi_prime.data
            + params.B * basis.eigenvalues * phi.data
            - sp._per_member(params.chi, sigma.data) * sigma.data)
    return FieldCoeffs(basis, data)


def solve_darcy(phi: FieldCoeffs, mu: FieldCoeffs, sigma: FieldCoeffs,
                gamma_v: FieldCoeffs | None, params: ModelParams,
                grid: QuadratureGrid | None = None,
                grad_phi: tuple[GridField, ...] | None = None,
                mu_g: GridField | None = None,
                sigma_g: GridField | None = None
                ) -> tuple[FieldCoeffs, tuple[GridField, ...]]:
    """Pressure Poisson solve and Darcy velocity.

    p = (-Laplacian_N)^{-1}( Gamma_v / K - div((mu + chi sigma) grad phi) )
    with zero mean, and v = -K (grad p - (mu + chi sigma) grad phi) on the
    grid.  grad_phi, mu_g and sigma_g, already on that grid, spare their
    transforms.
    """
    basis = phi.basis
    if grid is None:
        grid = sp.default_grid(basis)
    if grad_phi is None:
        grad_phi = sp.gradient_on_grid(phi, grid)
    if mu_g is None:
        mu_g = sp.to_grid(mu, grid)
    if sigma_g is None:
        sigma_g = sp.to_grid(sigma, grid)
    if any(f.grid is not grid for f in (*grad_phi, mu_g, sigma_g)):
        raise sp.BasisMismatchError("grid fields live on a different grid")
    chi = sp._per_member(params.chi, sigma_g.values)
    drive = mu_g.values + chi * sigma_g.values
    forcing = tuple(GridField(grid, drive * comp.values) for comp in grad_phi)
    rhs = -sp.divergence_to_coeffs(forcing).data  # -<div F, w_j>
    if gamma_v is not None:
        scale = max(1.0, float(np.max(np.abs(gamma_v.data))))
        if abs(gamma_v.data[0]) > sp.MEAN_ZERO_TOL * scale:
            raise sp.ZeroMeanViolationError("gamma_v must have zero mean")
        rhs = rhs + gamma_v.data / sp._per_member(params.K, rhs)
    rhs[..., 0] = 0.0
    p = sp.inverse_neumann_laplacian(FieldCoeffs(basis, rhs))
    grad_p = sp.gradient_on_grid(p, grid)
    K = sp._per_member(params.K, drive)
    v = tuple(
        GridField(grid, -K * (gp.values - f.values))
        for gp, f in zip(grad_p, forcing)
    )
    return p, v


def evaluate_sources(phi_g: GridField, mu_g: GridField, sigma_g: GridField,
                     sources: SourceModel, debug: bool = False
                     ) -> tuple[GridField, GridField]:
    """Pointwise reaction terms on a shared grid.

    When S has the same reaction law as Gamma_phi (the Hawkins closure),
    it is evaluated once and the one GridField is returned for both.
    """
    phi, mu, sigma = phi_g.values, mu_g.values, sigma_g.values
    gamma_phi = GridField(phi_g.grid, sources.gamma_phi(phi, mu, sigma))
    if (sources.lambda_S is sources.lambda_phi
            and sources.theta_S is sources.theta_phi):
        S = gamma_phi
    else:
        S = GridField(phi_g.grid, sources.S(phi, mu, sigma))
    if debug:
        bound = sources.R0 * (1.0 + np.abs(phi) + np.abs(mu) + np.abs(sigma))
        excess = np.abs(gamma_phi.values) + np.abs(S.values) - bound
        if np.any(excess > 1e-12 * (1.0 + bound)):
            raise ValueError("source growth bound violated on the grid")
    return gamma_phi, S


def nutrient_free_energy_density(phi_g: GridField, sigma_g: GridField,
                                 params: ModelParams
                                 ) -> tuple[GridField, GridField, GridField]:
    """N = (D/2) sigma^2 + chi sigma (1 - phi) and its partial derivatives."""
    phi, sigma = phi_g.values, sigma_g.values
    N = 0.5 * params.D * sigma ** 2 + params.chi * sigma * (1.0 - phi)
    N_sigma = params.D * sigma + params.chi * (1.0 - phi)
    N_phi = -params.chi * sigma
    g = phi_g.grid
    return GridField(g, N), GridField(g, N_sigma), GridField(g, N_phi)


def free_energy(phi: FieldCoeffs, sigma: FieldCoeffs, phi_g: GridField,
                sigma_g: GridField, params: ModelParams, potential: Potential
                ) -> tuple[float, float, float, float]:
    """The four parts of E(phi, sigma), as in diagnostics.EnergyBreakdown."""
    grid = phi_g.grid
    return (
        params.A * grid.integrate(potential.psi(phi_g.values)),
        0.5 * params.B * sp.inner_product(phi, phi, "H1-seminorm"),
        0.5 * params.D * sp.inner_product(sigma, sigma),
        params.chi * grid.integrate(sigma_g.values * (1.0 - phi_g.values)),
    )


# validate_assumptions samples phi and sigma (and mu, for the sign
# condition) on this range, at this many points per axis
SAMPLE_RANGE = (-3.0, 3.0)
N_SAMPLES = 121


@dataclass
class AssumptionCheck:
    name: str
    passed: bool
    detail: str = ""
    witness: tuple | None = None


@dataclass
class ValidationReport:
    checks: list[AssumptionCheck] = field(default_factory=list)
    regime: str = "none"

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[AssumptionCheck]:
        return [c for c in self.checks if not c.passed]

    def add(self, name, passed, detail="", witness=None):
        self.checks.append(AssumptionCheck(name, bool(passed), detail, witness))

    def lines(self) -> list[str]:
        out = [f"regime: {self.regime}"]
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            line = f"[{status}] {c.name}"
            if c.detail:
                line += f": {c.detail}"
            if c.witness is not None and not c.passed:
                line += f" (witness {c.witness})"
            out.append(line)
        return out


def validate_assumptions(params: ModelParams, potential: Potential,
                         mobility_m: Mobility, mobility_n: Mobility,
                         sources: SourceModel,
                         gamma_v_zero: bool = True,
                         check_sign_condition: bool = False,
                         allow_limit_modes: bool = False) -> ValidationReport:
    """Dense-sampling validation of the structural hypotheses.

    Positivity, mobility bounds, source growth, potential growth, the
    chemotaxis smallness condition A > 2 chi^2 / (D R1), and optionally
    the sign condition S * N_sigma - Gamma_phi * mu >= 0 (meaningful only
    when the volume source vanishes).
    """
    rep = ValidationReport()
    t = np.linspace(*SAMPLE_RANGE, N_SAMPLES)
    P, S_ = np.meshgrid(t, t, indexing="ij")

    strict = {"A": params.A, "B": params.B, "D": params.D}
    if not allow_limit_modes:
        strict.update({"K": params.K, "chi": params.chi, "b": params.b})
    bad = [k for k, v in strict.items() if v <= 0]
    rep.add("A1 positive constants", not bad,
            detail="all strictly positive" if not bad else f"nonpositive: {bad}")

    for label, mob in (("m", mobility_m), ("n", mobility_n)):
        vals = mob(t)
        ok = (mob.lower > 0 and np.all(vals >= mob.lower - 1e-12)
              and np.all(vals <= mob.upper + 1e-12))
        rep.add(f"A2 mobility {label} bounds", ok,
                detail=f"{mob.lower} <= {label} <= {mob.upper}")

    theta_phi = sources.theta_phi(P, S_)
    theta_S = sources.theta_S(P, S_)
    lam_phi = sources.lambda_phi(P, S_)
    lam_S = sources.lambda_S(P, S_)
    growth = sources.R0 * (1.0 + np.abs(P) + np.abs(S_))
    tol = 1e-12 * (1.0 + sources.R0)
    checks_A3 = [
        ("A3 theta bounded by R0",
         np.abs(theta_phi) <= sources.R0 + tol, theta_phi),
        ("A3 theta_S bounded by R0",
         np.abs(theta_S) <= sources.R0 + tol, theta_S),
        ("A3 lambda_phi linear growth", np.abs(lam_phi) <= growth + tol, lam_phi),
        ("A3 lambda_S linear growth", np.abs(lam_S) <= growth + tol, lam_S),
        ("A3 theta_phi nonnegative", theta_phi >= -1e-14, theta_phi),
    ]
    for name, ok_arr, vals in checks_A3:
        ok = bool(np.all(ok_arr))
        witness = None
        if not ok:
            i, j = np.unravel_index(np.argmin(ok_arr), ok_arr.shape)
            witness = (float(P[i, j]), float(S_[i, j]), float(vals[i, j]))
        rep.add(name, ok, witness=witness)

    psi_vals = potential.psi(t)
    ok = bool(np.all(psi_vals >= -1e-14))
    rep.add("A5 psi nonnegative", ok,
            witness=None if ok else (float(t[np.argmin(psi_vals)]),))
    lower = potential.R1 * t ** 2 - potential.R2
    ok = bool(np.all(psi_vals >= lower - 1e-12))
    rep.add("A5 psi lower bound", ok,
            detail=f"psi >= {potential.R1}*t^2 - {potential.R2}")

    # regime classification (reported, not enforced: the limit studies run
    # deliberately outside both cases)
    theta_min = float(np.min(theta_phi))
    case2 = False
    if sources.R5 is not None and theta_min >= sources.R5 - 1e-12 and sources.R5 > 0:
        if potential.R6 is not None and potential.q is not None and potential.q < 4:
            d2 = np.abs(potential.d2psi(t))
            case2 = bool(np.all(d2 <= potential.R6 * (1 + np.abs(t) ** potential.q) + 1e-12))
    case1 = False
    if potential.R3 is not None and potential.R4 is not None:
        ok1 = np.all(potential.psi(t) <= potential.R3 * (1 + t ** 2) + 1e-12)
        ok2 = np.all(np.abs(potential.dpsi(t)) <= potential.R4 * (1 + np.abs(t)) + 1e-12)
        ok3 = np.all(np.abs(potential.d2psi(t)) <= potential.R4 + 1e-12)
        case1 = bool(ok1 and ok2 and ok3 and theta_min >= -1e-14)
    rep.regime = "case2" if case2 else ("case1" if case1 else "none")
    rep.add("A5 growth regime", rep.regime != "none",
            detail=f"classified as {rep.regime}; presets are one admissible "
                   "choice of the interpolation functions")

    # chi * chi, not chi ** 2: a huge chi fails the check instead of raising
    lhs = params.A
    rhs = 2.0 * params.chi * params.chi / (params.D * potential.R1)
    rep.add("A5 chemotaxis smallness A > 2 chi^2 / (D R1)", lhs > rhs,
            detail=f"A = {lhs}, 2 chi^2/(D R1) = {rhs:.6g}")

    if check_sign_condition and gamma_v_zero:
        mu_t = np.linspace(*SAMPLE_RANGE, 41)
        ok = True
        witness = None
        for mu in mu_t:
            N_sigma = params.D * S_ + params.chi * (1.0 - P)
            expr = (sources.S(P, mu, S_) * N_sigma
                    - sources.gamma_phi(P, mu, S_) * mu)
            if np.any(expr < -1e-10 * (1.0 + np.abs(expr).max())):
                ok = False
                i, j = np.unravel_index(np.argmin(expr), expr.shape)
                witness = (float(P[i, j]), float(mu), float(S_[i, j]))
                break
        rep.add("sign condition S*N_sigma - Gamma_phi*mu >= 0", ok,
                witness=witness)

    return rep
