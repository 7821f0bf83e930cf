"""Model data and continuous operators of the tumour-growth system.

Covers the constants and structural hypotheses on the potential, the
mobilities, and the source terms, plus the pointwise operators: chemical
potential, Darcy subsystem, reaction sources, and the free energy.
A source model is data, a kind and its rate constants, and reads D and
chi from the params it is evaluated with, so each constant has one copy
and a model with other constants, a limit model included, is a
dataclasses.replace of its params.  Hypotheses are validated by dense
sampling on a box, reported rather than raised.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import spectral as sp
from .spectral import FieldCoeffs, QuadratureGrid


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


def interpolation_h(phi: np.ndarray) -> np.ndarray:
    """h(phi) = (1 + clamp(phi, -1, 1)) / 2; h(-1) = 0, h(1) = 1."""
    return 0.5 * (1.0 + np.clip(phi, -1.0, 1.0))


@dataclass(frozen=True)
class SourceModel:
    """Reaction sources, linear in the chemical potential:

        Gamma_phi = Lambda_phi(phi, sigma) - Theta_phi(phi, sigma) * mu
        S         = Lambda_S(phi, sigma)   - Theta_S(phi, sigma)   * mu

    A source model is its kind and its rate constants; the model
    constants it reads (D and chi) come from the params it is evaluated
    with, so a model with other params needs no other source model.
    """

    kind: str  # "zero" | "hawkins" | "proliferation"
    f0: float = 0.0
    interpolated: bool = False
    lambda_p: float = 0.0
    lambda_a: float = 0.0
    lambda_c: float = 0.0

    @staticmethod
    def zero() -> "SourceModel":
        return SourceModel("zero")

    @staticmethod
    def hawkins(f0: float, interpolated: bool = False) -> "SourceModel":
        """Linear phenomenological reaction law:

            Gamma_phi = S = f(phi) * (D sigma + chi (1 - phi) - mu).

        With interpolated=False, f is the constant f0, which keeps the
        mu-coefficient bounded below and lands the model in the
        superquadratic-potential regime.  With interpolated=True,
        f(phi) = f0 * h(phi) switches reactions off in the healthy phase.
        """
        return SourceModel("hawkins", f0=f0, interpolated=interpolated)

    @staticmethod
    def proliferation(lambda_p: float, lambda_a: float,
                      lambda_c: float) -> "SourceModel":
        """Proliferation / apoptosis / consumption with interpolation h."""
        return SourceModel("proliferation", lambda_p=lambda_p,
                           lambda_a=lambda_a, lambda_c=lambda_c)

    def coefficients(self, phi, sigma, params: ModelParams):
        """(Lambda_phi, Theta_phi, Lambda_S, Theta_S) at phi and sigma.

        A per-member chi scales each member's values.  A coefficient that
        is constant is returned as a Python float, not as an array of the
        grid's shape; arithmetic broadcasts it to the same values.
        """
        if self.kind == "hawkins":
            f = (self.f0 * interpolation_h(phi) if self.interpolated
                 else self.f0)
            lam = f * (params.D * sigma
                       + sp._per_member(params.chi, phi) * (1.0 - phi))
            return lam, f, lam, f
        if self.kind == "proliferation":
            h = interpolation_h(phi)
            return (h * (self.lambda_p * sigma - self.lambda_a), 0.0,
                    self.lambda_c * h * sigma, 0.0)
        return 0.0, 0.0, 0.0, 0.0

    def R0(self, params: ModelParams) -> float:
        """Bound on the Thetas and on the linear growth of the Lambdas."""
        if self.kind == "hawkins":
            f0 = self.f0
            return max(f0, f0 * max(params.D, 2.0 * float(np.max(params.chi)),
                                    1.0))
        if self.kind == "proliferation":
            return max(self.lambda_p, self.lambda_a, self.lambda_c, 1e-300)
        return 1e-300

    @property
    def R5(self) -> float | None:
        """Lower bound on Theta_phi, where there is a positive one."""
        if self.kind == "hawkins" and not self.interpolated and self.f0 > 0:
            return self.f0
        return None


# the constant each limit_mode sends to zero
LIMIT_PARAMETER = {"none": None, "no-chemotaxis": "chi", "no-flow": "K"}


@dataclass(frozen=True)
class TumourModel:
    """Everything the dynamics needs: constants, potential, sources and
    data.  A model with other constants is a dataclasses.replace of its
    params; the sources read them when they are evaluated.

    sigma_inf, the boundary nutrient level, is constant in space and
    time; gamma_v, the volume source, is constant in time and must have
    zero mean.  forcing, when set, maps a time t to coefficient vectors
    (f_alpha, f_gamma) that the right-hand side adds to the two
    equations' rates, as the manufactured-solution study does.
    """

    params: ModelParams
    potential: Potential
    mobility_m: float
    mobility_n: float
    sources: SourceModel
    sigma_inf: float
    gamma_v: FieldCoeffs | None = None
    forcing: Callable[[float], tuple[np.ndarray, np.ndarray]] | None = None

    def effective(self, limit_mode: str) -> "TumourModel":
        """The model a limit_mode integrates.  The paper's limit systems
        are the full system at chi = 0 ("no-chemotaxis": no chemotaxis or
        active transport) and at K = 0 ("no-flow": zero velocity)."""
        name = LIMIT_PARAMETER[limit_mode]
        if name is None or not sp._any_member(getattr(self.params, name) != 0):
            return self
        return replace(self, params=replace(self.params, **{name: 0.0}))


def chemical_potential(phi: FieldCoeffs, sigma: FieldCoeffs,
                       phi_g: np.ndarray, grid: QuadratureGrid,
                       params: ModelParams,
                       potential: Potential) -> FieldCoeffs:
    """mu = A P_k[psi'(phi)] + B (-Laplacian) phi - chi sigma, in coefficients.

    The stiffness term is diagonal in the eigenbasis; psi'(phi) is
    evaluated pseudospectrally from phi_g, phi on grid, a grid of its
    basis, and projected back.  mu is checked as a new FieldCoeffs, so a
    finite phi whose potential overflows raises SpectralError here.
    """
    sp._check_same_basis(phi, sigma)
    basis = phi.basis
    if grid.basis is not basis:
        raise sp.BasisMismatchError("phi_g lives on a grid of another basis")
    psi_prime = sp.to_coeffs(grid, potential.dpsi(phi_g))
    data = (params.A * psi_prime.data
            + params.B * basis.eigenvalues * phi.data
            - sp._per_member(params.chi, sigma.data) * sigma.data)
    return FieldCoeffs(basis, data)


def solve_darcy(grid: QuadratureGrid, grad_phi: tuple[np.ndarray, ...],
                mu_g: np.ndarray, sigma_g: np.ndarray,
                gamma_v: FieldCoeffs | None, params: ModelParams
                ) -> tuple[FieldCoeffs, tuple[np.ndarray, ...]]:
    """Pressure Poisson solve and Darcy velocity, from grad(phi), mu and
    sigma on grid.

    p = (-Laplacian_N)^{-1}( Gamma_v / K - div((mu + chi sigma) grad phi) )
    with zero mean, and v = -K (grad p - (mu + chi sigma) grad phi) on
    that grid.  The right-hand side is made mean-zero here, so it is
    divided by the eigenvalues directly; the fields built from the inputs
    are not checked again.
    """
    basis = grid.basis
    chi = sp._per_member(params.chi, sigma_g)
    drive = mu_g + chi * sigma_g
    forcing = tuple(drive * comp for comp in grad_phi)
    rhs = -sp.divergence_to_coeffs(grid, forcing).data  # -<div F, w_j>
    if gamma_v is not None:
        scale = max(1.0, float(np.max(np.abs(gamma_v.data))))
        if abs(gamma_v.data[0]) > sp.MEAN_ZERO_TOL * scale:
            raise sp.ZeroMeanViolationError("gamma_v must have zero mean")
        rhs = rhs + gamma_v.data / sp._per_member(params.K, rhs)
    rhs[..., 0] = 0.0
    lam = basis.eigenvalues
    p = sp._unchecked(basis, np.divide(
        rhs, lam, out=np.zeros_like(rhs), where=lam > 0))
    grad_p = sp.gradient_on_grid(p, grid)
    K = sp._per_member(params.K, drive)
    v = tuple(-K * (gp - f) for gp, f in zip(grad_p, forcing))
    return p, v


def evaluate_sources(phi: np.ndarray, mu: np.ndarray, sigma: np.ndarray,
                     sources: SourceModel, params: ModelParams
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise reaction terms from phi, mu and sigma on one grid, with
    the constants of params.

    When S has the same reaction law as Gamma_phi (zero and Hawkins
    sources), it is evaluated once and the one array is returned for
    both.
    """
    lam_phi, theta_phi, lam_S, theta_S = sources.coefficients(
        phi, sigma, params)
    gamma_phi = lam_phi - theta_phi * mu
    if sources.kind != "proliferation":
        return gamma_phi, gamma_phi
    return gamma_phi, lam_S - theta_S * mu


def free_energy(phi: FieldCoeffs, sigma: FieldCoeffs, phi_g: np.ndarray,
                sigma_g: np.ndarray, grid: QuadratureGrid,
                params: ModelParams, potential: Potential
                ) -> tuple[float, float, float, float]:
    """The four parts of E(phi, sigma), as in diagnostics.EnergyBreakdown;
    phi_g and sigma_g are phi and sigma on grid."""
    return (
        params.A * grid.integrate(potential.psi(phi_g)),
        0.5 * params.B * sp.inner_product(phi, phi, "H1-seminorm"),
        0.5 * params.D * sp.inner_product(sigma, sigma),
        params.chi * grid.integrate(sigma_g * (1.0 - phi_g)),
    )


# validate_assumptions samples phi and sigma on this range, at this
# many points per axis
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


def validate_assumptions(model: TumourModel,
                         allow_limit_modes: bool = False) -> ValidationReport:
    """Dense-sampling validation of the structural hypotheses on the
    model's constants, mobilities, potential and sources.

    Positivity, mobility bounds, source growth, potential growth and the
    chemotaxis smallness condition A > 2 chi^2 / (D R1).
    """
    params, potential, sources = model.params, model.potential, model.sources
    rep = ValidationReport()
    t = np.linspace(*SAMPLE_RANGE, N_SAMPLES)
    P, S_ = np.meshgrid(t, t, indexing="ij")

    strict = {"A": params.A, "B": params.B, "D": params.D}
    if not allow_limit_modes:
        strict.update({"K": params.K, "chi": params.chi, "b": params.b})
    bad = [k for k, v in strict.items() if v <= 0]
    rep.add("A1 positive constants", not bad,
            detail="all strictly positive" if not bad else f"nonpositive: {bad}")

    # constant mobilities: each is its own lower and upper bound
    for label, mob in (("m", model.mobility_m), ("n", model.mobility_n)):
        rep.add(f"A2 mobility {label} bounds", mob > 0,
                detail=f"{mob} <= {label} <= {mob}")

    # a constant coefficient comes back as a float: broadcast each to
    # the sample grid, where a failure's witness is looked up
    lam_phi, theta_phi, lam_S, theta_S = (
        np.broadcast_to(c, P.shape)
        for c in sources.coefficients(P, S_, params))
    R0 = sources.R0(params)
    growth = R0 * (1.0 + np.abs(P) + np.abs(S_))
    tol = 1e-12 * (1.0 + R0)
    checks_A3 = [
        ("A3 theta bounded by R0", np.abs(theta_phi) <= R0 + tol, theta_phi),
        ("A3 theta_S bounded by R0", np.abs(theta_S) <= R0 + tol, theta_S),
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

    return rep
