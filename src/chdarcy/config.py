"""JSON run configuration: schema validation and run assembly.

The schema is strict: unknown keys anywhere are reported with their
path, every numeric constraint on the model constants is re-checked at
load through validate_assumptions, and initial data comes from a small
set of named analytic profiles so Neumann compatibility holds by
construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import dynamics as dyn
from . import model as md
from . import spectral as sp
from .dynamics import SimState, StepperConfig
from .model import ModelParams, TumourModel
from .spectral import FieldCoeffs, SpectralBasis


# Largest mode count per dimension a config may ask for.  A 512^2 basis
# evaluates on a 1024^2 grid, about 8 MB per field; anything above is
# refused before it is allocated.
MAX_MODES = 512


class ConfigError(Exception):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass
class RunConfig:
    raw: dict
    domain: sp.Domain
    modes: tuple[int, ...]
    dt: float
    T: float
    scheme: str
    kappa: float | None
    energy_guard: bool
    tol_E: float
    max_halvings: int
    params: ModelParams
    potential_kind: str
    mobility_m: float
    mobility_n: float
    source_spec: dict
    gamma_v_spec: dict
    sigma_inf_value: float
    initial_phi: dict
    initial_sigma: dict
    limit_mode: str            # "none" | "no-flow" | "no-chemotaxis"
    cadence: int
    seed: int
    validation: md.ValidationReport = field(repr=False, default=None)

    def content_hash(self) -> str:
        """Hash of everything that fixes the trajectory (not T or output)."""
        body = {k: v for k, v in self.raw.items()
                if k not in ("T", "cadence", "output_dir")}
        text = json.dumps(body, sort_keys=True, separators=(",", ":"))
        return _sha256_hex(text.encode())[:16]

    # ---- assembly -------------------------------------------------------

    def build_basis(self) -> SpectralBasis:
        return sp.build_basis(self.domain, self.modes)

    def _hypothesis_parts(self) -> dict:
        """The model pieces the structural hypotheses speak about; none
        depends on the basis."""
        potential = (md.Potential.quartic_double_well()
                     if self.potential_kind == "quartic-double-well"
                     else md.Potential.quadratic())
        spec = self.source_spec
        if spec["kind"] == "zero":
            sources = md.SourceModel.zero()
        elif spec["kind"] == "hawkins":
            sources = md.SourceModel.hawkins(
                spec["f0"], self.params,
                interpolated=spec.get("interpolated", False))
        else:
            sources = md.SourceModel.proliferation(
                spec["lambda_p"], spec["lambda_a"], spec["lambda_c"])
        return dict(params=self.params, potential=potential,
                    mobility_m=md.Mobility.constant(self.mobility_m),
                    mobility_n=md.Mobility.constant(self.mobility_n),
                    sources=sources)

    def build_model(self, basis: SpectralBasis) -> TumourModel:
        """The model the run integrates: under limit_mode "no-chemotaxis"
        the chi = 0 model, as the paper obtains it from the full system."""
        return TumourModel(
            **self._hypothesis_parts(),
            sigma_inf=md.BoundaryAndInitialData.constant_sigma_inf(
                self.sigma_inf_value),
            gamma_v=self._build_gamma_v(basis),
        ).effective(no_chemotaxis=self.limit_mode == "no-chemotaxis")

    def _build_gamma_v(self, basis: SpectralBasis):
        spec = self.gamma_v_spec
        if spec["kind"] == "zero":
            return None
        # cosine profile: zero-mean by construction (no constant mode)
        mode = tuple(spec["mode"])
        data = np.zeros(basis.n_modes)
        flat = int(np.ravel_multi_index(mode, basis.modes))
        data[flat] = _cosine_coefficient(float(spec["amplitude"]), mode,
                                         basis.domain.lengths)
        coeffs = FieldCoeffs(basis, data)
        return lambda t: coeffs

    def build_stepper(self) -> StepperConfig:
        return StepperConfig(
            dt=self.dt,
            scheme=self.scheme,
            kappa=self.kappa,
            energy_guard=self.energy_guard,
            tol_E=self.tol_E,
            max_halvings=self.max_halvings,
            no_flow=self.limit_mode == "no-flow",
        )

    def build_initial_state(self, basis: SpectralBasis) -> SimState:
        phi0 = _profile_values(self.initial_phi, basis, self.seed)
        sigma0 = _profile_values(self.initial_sigma, basis, self.seed + 1)
        # an overflow is reported as the ConfigError below, not a warning
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                alpha, gamma = dyn.project_initial_data(phi0, sigma0, basis)
        except dyn.NonFiniteInitialData as exc:
            raise ConfigError([f"$.initial.{exc.field}: not finite on the "
                               f"grid or in the basis"])
        return SimState(0.0, alpha, gamma)


def _sha256_hex(data: bytes) -> str:
    """SHA-256 from CPython's builtin module, the fallback order of the
    stdlib's random.py: hashlib would map OpenSSL (about 3 MiB) into the
    process for the same digest.  Imported on first use, as only run and
    resume hash."""
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10-3.11
        except ImportError:
            from hashlib import sha256
    return sha256(data).hexdigest()


def _cosine_coefficient(amplitude: float, mode, lengths) -> float:
    """Coefficient of the basis function w_mode in amplitude * prod_d
    cos(m_d pi x_d / L_d); +-inf when it leaves the float range."""
    scale = amplitude
    for L, m in zip(lengths, mode):
        scale *= math.sqrt(L) if m == 0 else math.sqrt(L / 2.0)
    return scale


def _profile_values(spec: dict, basis: SpectralBasis, seed: int):
    kind = spec["kind"]
    if kind == "constant":
        value = float(spec["value"])
        return lambda *coords: np.full_like(np.asarray(coords[0], float), value)
    if kind == "cosine":
        mean = float(spec.get("mean", 0.0))
        amplitude = float(spec["amplitude"])
        mode = tuple(spec["mode"])
        lengths = basis.domain.lengths

        def cosine(*coords):
            out = np.full_like(np.asarray(coords[0], float), mean)
            bump = amplitude
            for x, m, L in zip(coords, mode, lengths):
                bump = bump * np.cos(m * np.pi * x / L)
            return out + bump

        return cosine
    if kind == "tanh-front":
        center = float(spec["center"])
        width = float(spec["width"])

        def front(*coords):
            return np.tanh((coords[0] - center) / width)

        return front
    # random: seeded low-mode cosine mixture, reproducible across runs
    amplitude = float(spec["amplitude"])
    cutoff = int(spec.get("cutoff", 4))
    rng = np.random.default_rng(int(spec.get("seed", seed)))
    shape = tuple(min(cutoff, k) for k in basis.modes)
    weights = rng.standard_normal(shape)
    lengths = basis.domain.lengths

    def random_profile(*coords):
        out = np.zeros_like(np.asarray(coords[0], float))
        for idx in np.ndindex(shape):
            term = weights[idx]
            for x, m, L in zip(coords, idx, lengths):
                term = term * np.cos(m * np.pi * x / L)
            out = out + term
        return amplitude * out

    return random_profile


# ---------------------------------------------------------------------------
# schema checking

_PROFILE_KEYS = {
    "constant": ({"kind", "value"}, {"kind", "value"}),
    "cosine": ({"kind", "amplitude", "mode"}, {"kind", "amplitude", "mode", "mean"}),
    "tanh-front": ({"kind", "center", "width"}, {"kind", "center", "width"}),
    "random": ({"kind", "amplitude"}, {"kind", "amplitude", "cutoff", "seed"}),
}

_SOURCE_KEYS = {
    "zero": ({"kind"}, {"kind"}),
    "hawkins": ({"kind", "f0"}, {"kind", "f0", "interpolated"}),
    "proliferation": ({"kind", "lambda_p", "lambda_a", "lambda_c"},
                      {"kind", "lambda_p", "lambda_a", "lambda_c"}),
}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _float(v) -> float:
    """float(v), with a JSON integer beyond the float range as +-inf."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


class _Checker:
    def __init__(self, strict: bool):
        self.strict = strict
        self.violations: list[str] = []

    def fail(self, path: str, message: str):
        self.violations.append(f"{path}: {message}")

    def keys(self, obj: dict, path: str, required: set, optional: set = frozenset()):
        for k in required:
            if k not in obj:
                self.fail(path, f"missing key '{k}'")
        if self.strict:
            for k in obj:
                if k not in required and k not in optional:
                    self.fail(f"{path}.{k}", "unknown key")

    def number(self, obj: dict, key: str, path: str, positive=False,
               nonnegative=False) -> float | None:
        if key not in obj:
            return None
        v = obj[key]
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            self.fail(f"{path}.{key}", "must be a number")
            return None
        v = _float(v)
        if not math.isfinite(v):
            self.fail(f"{path}.{key}", "must be finite")
            return None
        if positive and v <= 0:
            self.fail(f"{path}.{key}", "must be positive")
        if nonnegative and v < 0:
            self.fail(f"{path}.{key}", "must be nonnegative")
        return v

    def integer(self, obj: dict, key: str, path: str, default: int,
                minimum: int) -> int:
        v = obj.get(key, default)
        if not _is_int(v) or v < minimum:
            self.fail(f"{path}.{key}", f"must be an int >= {minimum}")
            return default
        return v

    def boolean(self, obj: dict, key: str, path: str, default: bool) -> bool:
        v = obj.get(key, default)
        if not isinstance(v, bool):
            self.fail(f"{path}.{key}", "must be true or false")
            return default
        return v

    def choice(self, obj: dict, key: str, path: str, allowed) -> str | None:
        if key not in obj:
            return None
        v = obj[key]
        if not isinstance(v, str) or v not in allowed:
            self.fail(f"{path}.{key}", f"must be one of {sorted(allowed)}")
            return None
        return v


def parse_config(text: str, strict: bool = True) -> RunConfig:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"$: invalid JSON ({exc})"])
    if not isinstance(raw, dict):
        raise ConfigError(["$: top level must be an object"])

    ck = _Checker(strict)
    top_required = {"domain", "modes", "dt", "T", "params", "potential",
                    "sources", "initial"}
    top_optional = {"scheme", "mobility", "gamma_v", "sigma_inf",
                    "limit_mode", "cadence", "output_dir", "seed"}
    ck.keys(raw, "$", top_required, top_optional)
    if ck.violations and any("missing key" in v for v in ck.violations):
        raise ConfigError(ck.violations)

    dom_spec = raw.get("domain", {})
    domain = None
    if isinstance(dom_spec, dict):
        ck.keys(dom_spec, "$.domain", {"kind", "lengths"})
        kind = ck.choice(dom_spec, "kind", "$.domain", {"interval", "rectangle"})
        lengths = dom_spec.get("lengths")
        numbers = isinstance(lengths, list) and all(
            isinstance(x, (int, float)) and not isinstance(x, bool)
            for x in lengths)
        if kind and numbers:
            try:
                domain = sp.Domain(kind, tuple(_float(x) for x in lengths))
            except sp.InvalidDomainError as exc:  # count, sign or range
                ck.fail("$.domain.lengths", str(exc))
        elif kind and "lengths" in dom_spec:
            ck.fail("$.domain.lengths", "must be a list of numbers")
    else:
        ck.fail("$.domain", "must be an object")

    modes_spec = raw.get("modes")
    if _is_int(modes_spec):
        modes = (modes_spec,) * (domain.dim if domain else 1)
    elif (isinstance(modes_spec, list) and modes_spec
          and all(_is_int(m) for m in modes_spec)):
        modes = tuple(modes_spec)
    else:
        ck.fail("$.modes", "must be an int or list of ints")
        modes = ()
    if modes and any(m < 1 for m in modes):
        ck.fail("$.modes", "mode counts must be >= 1")
    if modes and any(m > MAX_MODES for m in modes):
        ck.fail("$.modes", f"mode counts must be <= {MAX_MODES}")
    if domain and modes and len(modes) != domain.dim:
        ck.fail("$.modes", f"expected {domain.dim} entries")

    dt = ck.number(raw, "dt", "$", positive=True)
    T = ck.number(raw, "T", "$", nonnegative=True)

    scheme_spec = raw.get("scheme", {})
    scheme, kappa, energy_guard, tol_E, max_halvings = "imex1", None, False, 0.0, 8
    if isinstance(scheme_spec, dict):
        ck.keys(scheme_spec, "$.scheme", set(),
                {"name", "kappa", "energy_guard", "tol_E", "max_halvings"})
        scheme = ck.choice(scheme_spec, "name", "$.scheme",
                           {"imex1", "rk4-explicit"}) or "imex1"
        kappa = ck.number(scheme_spec, "kappa", "$.scheme", positive=True)
        energy_guard = ck.boolean(scheme_spec, "energy_guard", "$.scheme",
                                  False)
        tol_E = ck.number(scheme_spec, "tol_E", "$.scheme", nonnegative=True) or 0.0
        max_halvings = ck.integer(scheme_spec, "max_halvings", "$.scheme",
                                  8, minimum=0)
    else:
        ck.fail("$.scheme", "must be an object")

    limit_mode = ck.choice(raw, "limit_mode", "$",
                           {"none", "no-flow", "no-chemotaxis"}) or "none"

    params_spec = raw.get("params", {})
    params = None
    if isinstance(params_spec, dict):
        ck.keys(params_spec, "$.params", {"A", "B", "K", "D", "chi", "b"})
        vals = {}
        for name in ("A", "B", "D"):
            vals[name] = ck.number(params_spec, name, "$.params", positive=True)
        for name in ("K", "chi", "b"):
            vals[name] = ck.number(params_spec, name, "$.params", nonnegative=True)
        if all(v is not None for v in vals.values()):
            try:
                params = ModelParams(**vals)
            except ValueError as exc:
                ck.fail("$.params", str(exc))
        if params is not None and params.K == 0 and limit_mode != "no-flow":
            ck.fail("$.params.K", "K = 0 requires limit_mode 'no-flow'")
    else:
        ck.fail("$.params", "must be an object")

    potential_kind = ck.choice(raw, "potential", "$",
                               {"quartic-double-well", "quadratic"})
    if potential_kind is None and "potential" in raw:
        pass  # already reported
    elif "potential" not in raw:
        ck.fail("$.potential", "missing")

    mob_spec = raw.get("mobility", {"m": 1.0, "n": 1.0})
    mobility_m = mobility_n = 1.0
    if isinstance(mob_spec, dict):
        ck.keys(mob_spec, "$.mobility", set(), {"m", "n"})
        mobility_m = ck.number(mob_spec, "m", "$.mobility", positive=True) or 1.0
        mobility_n = ck.number(mob_spec, "n", "$.mobility", positive=True) or 1.0
    else:
        ck.fail("$.mobility", "must be an object")

    source_spec = raw.get("sources", {})
    if isinstance(source_spec, dict):
        kind = ck.choice(source_spec, "kind", "$.sources", set(_SOURCE_KEYS))
        if kind:
            req, opt = _SOURCE_KEYS[kind]
            ck.keys(source_spec, "$.sources", req, opt)
            for key in req | opt:
                if key in ("kind", "interpolated"):
                    continue
                ck.number(source_spec, key, "$.sources", nonnegative=True)
            if "interpolated" in opt:
                ck.boolean(source_spec, "interpolated", "$.sources", False)
        elif "kind" not in source_spec:
            ck.fail("$.sources.kind", "missing key 'kind'")
    else:
        ck.fail("$.sources", "must be an object")

    gamma_v_spec = raw.get("gamma_v", {"kind": "zero"})
    if isinstance(gamma_v_spec, dict):
        gk = ck.choice(gamma_v_spec, "kind", "$.gamma_v", {"zero", "cosine"})
        if gk == "cosine":
            ck.keys(gamma_v_spec, "$.gamma_v", {"kind", "amplitude", "mode"})
            amplitude = ck.number(gamma_v_spec, "amplitude", "$.gamma_v")
            mode = gamma_v_spec.get("mode")
            if (not isinstance(mode, list) or not mode
                    or not all(isinstance(m, int) and m >= 0 for m in mode)
                    or all(m == 0 for m in mode)):
                ck.fail("$.gamma_v.mode",
                        "must be nonnegative ints with at least one nonzero "
                        "(zero-mean requirement)")
            elif modes and (len(mode) != len(modes)
                            or any(m >= k for m, k in zip(mode, modes))):
                ck.fail("$.gamma_v.mode", "outside the basis")
            elif domain and amplitude is not None and not math.isfinite(
                    _cosine_coefficient(amplitude, mode, domain.lengths)):
                ck.fail("$.gamma_v.amplitude", "too large for the domain")
        else:
            ck.keys(gamma_v_spec, "$.gamma_v", {"kind"})
    else:
        ck.fail("$.gamma_v", "must be an object")

    sigma_inf_spec = raw.get("sigma_inf", {"kind": "constant", "value": 0.0})
    sigma_inf_value = 0.0
    if isinstance(sigma_inf_spec, dict):
        ck.keys(sigma_inf_spec, "$.sigma_inf", {"kind", "value"})
        ck.choice(sigma_inf_spec, "kind", "$.sigma_inf", {"constant"})
        sigma_inf_value = ck.number(sigma_inf_spec, "value", "$.sigma_inf") or 0.0
    else:
        ck.fail("$.sigma_inf", "must be an object")

    initial_spec = raw.get("initial", {})
    initial_phi = {"kind": "constant", "value": 0.0}
    initial_sigma = {"kind": "constant", "value": 0.0}
    if isinstance(initial_spec, dict):
        ck.keys(initial_spec, "$.initial", {"phi", "sigma"})
        for name in ("phi", "sigma"):
            prof = initial_spec.get(name)
            path = f"$.initial.{name}"
            if not isinstance(prof, dict):
                ck.fail(path, "must be an object")
                continue
            pk = ck.choice(prof, "kind", path, set(_PROFILE_KEYS))
            if pk:
                req, opt = _PROFILE_KEYS[pk]
                ck.keys(prof, path, req, opt)
                nums = {key: ck.number(prof, key, path, positive=key == "width")
                        for key in sorted((req | opt) - {"kind", "mode",
                                                         "cutoff", "seed"})}
                if pk == "random":
                    ck.integer(prof, "cutoff", path, 4, minimum=1)
                    ck.integer(prof, "seed", path, 0, minimum=0)
                if pk == "cosine":
                    mode = prof.get("mode")
                    if (not isinstance(mode, list)
                            or not all(isinstance(m, int) and m >= 0 for m in mode)):
                        ck.fail(f"{path}.mode", "must be nonnegative ints")
                    elif modes and (len(mode) != len(modes)
                                    or any(m >= k for m, k in zip(mode, modes))):
                        ck.fail(f"{path}.mode", "outside the basis")
                    # the profile is bounded by |mean| + |amplitude|
                    if not math.isfinite(abs(nums["mean"] or 0.0)
                                         + abs(nums["amplitude"] or 0.0)):
                        ck.fail(path, "|mean| + |amplitude| leaves the "
                                      "float range")
                if name == "phi":
                    initial_phi = prof
                else:
                    initial_sigma = prof
            elif "kind" not in prof:
                ck.fail(f"{path}.kind", "missing key 'kind'")
    else:
        ck.fail("$.initial", "must be an object")

    cadence = ck.integer(raw, "cadence", "$", 1, minimum=1)
    seed = ck.integer(raw, "seed", "$", 0, minimum=0)
    if "output_dir" in raw and not isinstance(raw["output_dir"], str):
        ck.fail("$.output_dir", "must be a string")

    if ck.violations:
        raise ConfigError(ck.violations)

    config = RunConfig(
        raw=raw, domain=domain, modes=modes, dt=dt, T=T,
        scheme=scheme, kappa=kappa, energy_guard=energy_guard,
        tol_E=tol_E, max_halvings=max_halvings,
        params=params, potential_kind=potential_kind,
        mobility_m=mobility_m, mobility_n=mobility_n,
        source_spec=source_spec, gamma_v_spec=gamma_v_spec,
        sigma_inf_value=sigma_inf_value,
        initial_phi=initial_phi, initial_sigma=initial_sigma,
        limit_mode=limit_mode, cadence=cadence, seed=seed,
    )

    # structural hypotheses on the model pieces; no basis is built
    report = md.validate_assumptions(
        **config._hypothesis_parts(),
        gamma_v_zero=gamma_v_spec["kind"] == "zero",
        allow_limit_modes=limit_mode != "none",
    )
    config.validation = report
    hard_failures = [c for c in report.failures() if c.name != "A5 growth regime"]
    if hard_failures:
        raise ConfigError(
            [f"$.params: {c.name}" + (f" ({c.detail})" if c.detail else "")
             for c in hard_failures]
        )
    return config
