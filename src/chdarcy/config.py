"""JSON run configuration: schema validation and run assembly.

The schema is one table, _SCHEMA: each key with its kind, bound and
default, each written once.  One walker checks a config against it and
reports every missing, unknown (under strict), wrong-typed or
out-of-range key by its path; nothing is coerced, so no key takes a
boolean for a number.  The rules that relate keys (the domain, the mode
counts against the dimension, a cosine mode inside the basis, the step
count, K = 0 and the no-flow limit) are checked after the walk, on
values each of which is valid; overrides of top-level keys (the CLI's
--seed and --cadence) replace the file's before the walk.  parse_config
builds the model, all of it but the volume source, which needs a basis,
once: it checks the structural hypotheses on it through
validate_assumptions and keeps it as RunConfig.model, and build_model
adds the volume source and the limit mode.  Initial data comes from a
small set of named analytic profiles so Neumann compatibility holds by
construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple

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

# Largest step count T / dt a config may ask for.  The cheapest step, an
# undiagnosed 1-mode interval, takes about 0.24 ms, so 10^9 steps would
# run for days while writing nothing; anything above is refused.
MAX_STEPS = 10**9

# Largest number of halvings the energy guard may take.  An interval it
# rejects at every level costs 2^(h+1) - 1 substeps, 131 071 at 16, about
# 30 s at the 0.24 ms cheapest step; at 40 it would be about 2 * 10^12.
MAX_HALVINGS = 16


class ConfigError(Exception):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class RunConfig:
    raw: dict
    domain: sp.Domain
    modes: tuple[int, ...]
    T: float
    stepper: StepperConfig
    model: TumourModel         # as configured, without the volume source
    gamma_v_spec: dict
    initial_phi: dict
    initial_sigma: dict
    limit_mode: str            # "none" | "no-flow" | "no-chemotaxis"
    cadence: int
    seed: int
    validation: md.ValidationReport = field(repr=False)

    def content_hash(self) -> str:
        """Hash of everything that fixes the trajectory (not T or output)."""
        body = {k: v for k, v in self.raw.items()
                if k not in ("T", "cadence", "output_dir")}
        text = json.dumps(body, sort_keys=True, separators=(",", ":"))
        return _sha256_hex(text.encode())[:16]

    # ---- assembly -------------------------------------------------------

    def build_basis(self) -> SpectralBasis:
        return sp.build_basis(self.domain, self.modes)

    def build_model(self, basis: SpectralBasis) -> TumourModel:
        """The model the run integrates: the configured model with its
        volume source on basis, under limit_mode "no-chemotaxis" at
        chi = 0 and under "no-flow" at K = 0, as the paper obtains them
        from the full system."""
        return replace(self.model, gamma_v=self._build_gamma_v(basis)
                       ).effective(self.limit_mode)

    def _build_gamma_v(self, basis: SpectralBasis):
        spec = self.gamma_v_spec
        if spec["kind"] == "zero" or spec["amplitude"] == 0:
            return None
        # cosine profile: zero-mean by construction (no constant mode)
        mode = spec["mode"]
        data = np.zeros(basis.n_modes)
        flat = int(np.ravel_multi_index(mode, basis.modes))
        data[flat] = _cosine_coefficient(spec["amplitude"], mode,
                                         basis.domain.lengths)
        return FieldCoeffs(basis, data)

    def build_stepper(self) -> StepperConfig:
        """The run's stepper, built once by parse_config."""
        return self.stepper

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
    """An initial profile from its checked spec; a random one without a
    seed of its own draws from `seed`."""
    kind = spec["kind"]
    if kind == "constant":
        value = spec["value"]
        return lambda *coords: np.full_like(np.asarray(coords[0], float), value)
    if kind == "cosine":
        mean, amplitude, mode = spec["mean"], spec["amplitude"], spec["mode"]
        lengths = basis.domain.lengths

        def cosine(*coords):
            out = np.full_like(np.asarray(coords[0], float), mean)
            bump = amplitude
            for x, m, L in zip(coords, mode, lengths):
                bump = bump * np.cos(m * np.pi * x / L)
            return out + bump

        return cosine
    if kind == "tanh-front":
        center, width = spec["center"], spec["width"]

        def front(*coords):
            return np.tanh((coords[0] - center) / width)

        return front
    # random: seeded low-mode cosine mixture, reproducible across runs
    amplitude = spec["amplitude"]
    rng = np.random.default_rng(seed if spec["seed"] is None else spec["seed"])
    shape = tuple(min(spec["cutoff"], k) for k in basis.modes)
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

_REQUIRED = object()


class _Field(NamedTuple):
    """One key of the schema: a kind, the kind's argument, and a default
    (a field without one is required).  The argument is a number's sign
    (None, "positive" or "nonnegative"), an int's minimum, a choice's
    strings, whether a cosine "mode" needs a nonzero entry, an object's
    {key: _Field}, or a variant's {kind: {key: _Field}} picked by the
    section's "kind"; "bool", "numbers" (a list) and "modes" (an int or
    a list of ints) take none.  An absent object or variant is checked
    as its default, which fills in its own keys' defaults."""
    kind: str
    arg: object = None
    default: object = _REQUIRED


_STEPPER = {f.name: f.default for f in fields(StepperConfig)}
_NUMBER = _Field("number")
_POSITIVE = _Field("number", "positive")
_NONNEGATIVE = _Field("number", "nonnegative")

_PROFILES = {
    "constant": {"value": _NUMBER},
    "cosine": {"amplitude": _NUMBER, "mode": _Field("mode", False),
               "mean": _Field("number", None, 0.0)},
    "tanh-front": {"center": _NUMBER, "width": _POSITIVE},
    # a random profile without a seed of its own takes the run's
    "random": {"amplitude": _NUMBER, "cutoff": _Field("int", 1, 4),
               "seed": _Field("int", 0, None)},
}

_SCHEMA = {
    "domain": _Field("object", {
        "kind": _Field("choice", ("interval", "rectangle")),
        "lengths": _Field("numbers")}),
    "modes": _Field("modes"),
    "dt": _POSITIVE,
    "T": _NONNEGATIVE,
    "scheme": _Field("object", {
        "name": _Field("choice", StepperConfig.SCHEMES, _STEPPER["scheme"]),
        "kappa": _Field("number", "positive", _STEPPER["kappa"]),
        "energy_guard": _Field("bool", None, _STEPPER["energy_guard"]),
        "tol_E": _Field("number", "nonnegative", _STEPPER["tol_E"]),
        "max_halvings": _Field("int", 0, _STEPPER["max_halvings"]),
    }, {}),
    "params": _Field("object", {
        "A": _POSITIVE, "B": _POSITIVE, "K": _NONNEGATIVE, "D": _POSITIVE,
        "chi": _NONNEGATIVE, "b": _NONNEGATIVE}),
    "potential": _Field("choice", ("quartic-double-well", "quadratic")),
    "mobility": _Field("object", dict.fromkeys(
        ("m", "n"), _Field("number", "positive", 1.0)), {}),
    "sources": _Field("variant", {
        "zero": {},
        "hawkins": {"f0": _NONNEGATIVE,
                    "interpolated": _Field("bool", None, False)},
        "proliferation": dict.fromkeys(("lambda_p", "lambda_a", "lambda_c"),
                                       _NONNEGATIVE)}),
    "gamma_v": _Field("variant", {
        "zero": {},
        "cosine": {"amplitude": _NUMBER, "mode": _Field("mode", True)},
    }, {"kind": "zero"}),
    "sigma_inf": _Field("variant", {"constant": {"value": _NUMBER}},
                        {"kind": "constant", "value": 0.0}),
    "initial": _Field("object", dict.fromkeys(
        ("phi", "sigma"), _Field("variant", _PROFILES))),
    "limit_mode": _Field("choice", tuple(md.LIMIT_PARAMETER), "none"),
    "cadence": _Field("int", 1, 1),
    "seed": _Field("int", 0, 0),
}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _float(v) -> float:
    """float(v), with a JSON integer beyond the float range as +-inf."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


class _Checker:
    """Walks a config along _SCHEMA and records one violation, by path,
    per key that is missing, unknown (under strict), wrong-typed or out
    of range."""

    def __init__(self, strict: bool):
        self.strict = strict
        self.violations: list[str] = []

    def fail(self, path: str, message: str):
        self.violations.append(f"{path}: {message}")

    def walk(self, schema: dict, obj, path: str) -> dict | None:
        """The checked section, its defaults filled in."""
        if not isinstance(obj, dict):
            return self.fail(path, "must be an object")
        if self.strict:
            for key in obj:
                if key not in schema:
                    self.fail(f"{path}.{key}", "unknown key")
        tree = {}
        for key, field in schema.items():
            if key in obj:
                tree[key] = self.value(field, obj[key], f"{path}.{key}")
            elif field.default is _REQUIRED:
                self.fail(path, f"missing key '{key}'")
            else:
                tree[key] = (self.value(field, field.default, f"{path}.{key}")
                             if field.kind in ("object", "variant")
                             else field.default)
        return tree

    def value(self, field: _Field, v, path: str):
        """v checked as field, in the form the run uses; None where it
        is invalid."""
        kind, arg, _ = field
        if kind == "object":
            return self.walk(arg, v, path)
        if kind == "variant":
            if not isinstance(v, dict):
                return self.fail(path, "must be an object")
            if "kind" not in v:
                return self.fail(path, "missing key 'kind'")
            if not isinstance(v["kind"], str) or v["kind"] not in arg:
                return self.fail(f"{path}.kind",
                                 f"must be one of {sorted(arg)}")
            kinds = _Field("choice", tuple(arg))
            return self.walk({"kind": kinds, **arg[v["kind"]]}, v, path)
        if kind == "number":
            if not _is_number(v):
                return self.fail(path, "must be a number")
            v = _float(v)
            if not math.isfinite(v):
                return self.fail(path, "must be finite")
            if arg == "positive" and v <= 0 or arg == "nonnegative" and v < 0:
                return self.fail(path, f"must be {arg}")
            return v
        if kind == "int":
            return v if _is_int(v) and v >= arg else self.fail(
                path, f"must be an int >= {arg}")
        if kind == "bool":
            return v if isinstance(v, bool) else self.fail(
                path, "must be true or false")
        if kind == "choice":
            return v if isinstance(v, str) and v in arg else self.fail(
                path, f"must be one of {sorted(arg)}")
        if kind == "numbers":
            if isinstance(v, list) and all(_is_number(x) for x in v):
                return tuple(_float(x) for x in v)
            return self.fail(path, "must be a list of numbers")
        if kind == "modes":
            counts = [v] if _is_int(v) else v
            if not (isinstance(counts, list) and counts
                    and all(_is_int(m) for m in counts)):
                return self.fail(path, "must be an int or list of ints")
            if min(counts) < 1:
                return self.fail(path, "mode counts must be >= 1")
            if max(counts) > MAX_MODES:
                return self.fail(path, f"mode counts must be <= {MAX_MODES}")
            return v if _is_int(v) else tuple(v)
        # a cosine's mode: nonnegative ints, under arg with one nonzero
        if (isinstance(v, list) and all(_is_int(m) and m >= 0 for m in v)
                and (any(v) or not arg)):
            return tuple(v)
        return self.fail(path, "must be nonnegative ints" + (
            " with at least one nonzero (zero-mean requirement)" if arg
            else ""))


def parse_config(text: str, strict: bool = True,
                 overrides: dict | None = None) -> RunConfig:
    """The checked config of text, overrides replacing its top-level keys."""
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError is a ValueError, as is an integer with more
        # digits than int() converts; nesting too deep recurses out
        raise ConfigError([f"$: invalid JSON ({exc})"])
    if not isinstance(raw, dict):
        raise ConfigError(["$: top level must be an object"])
    raw = {**raw, **(overrides or {})}

    ck = _Checker(strict)
    tree = ck.walk(_SCHEMA, raw, "$")
    if ck.violations:
        raise ConfigError(ck.violations)

    # rules across fields, on values each of which is valid
    try:
        domain = sp.Domain(tree["domain"]["kind"], tree["domain"]["lengths"])
    except sp.InvalidDomainError as exc:  # count, sign or range
        raise ConfigError([f"$.domain.lengths: {exc}"])
    modes = tree["modes"]
    if _is_int(modes):
        modes = (modes,) * domain.dim
    elif len(modes) != domain.dim:
        ck.fail("$.modes", f"expected {domain.dim} entries")

    dt, T = tree["dt"], tree["T"]
    # a T / dt that overflows to inf is refused here too
    if T / dt > MAX_STEPS:
        ck.fail("$.T", f"T / dt, the step count, must be <= {MAX_STEPS}")
    elif abs(T / dt - round(T / dt)) > 1e-9 * max(1.0, T / dt):
        ck.fail("$.T", "T / dt, the step count, must be a whole number")
    if tree["scheme"]["max_halvings"] > MAX_HALVINGS:
        ck.fail("$.scheme.max_halvings", f"must be <= {MAX_HALVINGS}")

    params = ModelParams(**tree["params"])
    limit_mode = tree["limit_mode"]
    if params.K == 0 and limit_mode != "no-flow":
        ck.fail("$.params.K", "K = 0 requires limit_mode 'no-flow'")

    gamma_v, initial = tree["gamma_v"], tree["initial"]
    cosines = {"$.gamma_v": gamma_v, "$.initial.phi": initial["phi"],
               "$.initial.sigma": initial["sigma"]}
    for path, spec in cosines.items():
        if "mode" in spec and (len(spec["mode"]) != len(modes) or any(
                m >= k for m, k in zip(spec["mode"], modes))):
            ck.fail(f"{path}.mode", "outside the basis")
    if gamma_v["kind"] == "cosine":
        if not math.isfinite(_cosine_coefficient(
                gamma_v["amplitude"], gamma_v["mode"], domain.lengths)):
            ck.fail("$.gamma_v.amplitude", "too large for the domain")
        # at K = 0 no Darcy system is solved: div v = Gamma_v cannot
        # hold with v = 0, so a volume source would be dropped unread
        if limit_mode == "no-flow" and gamma_v["amplitude"]:
            ck.fail("$.gamma_v", "the no-flow limit (K = 0, v = 0) "
                    "needs a zero volume source")
    for name in ("phi", "sigma"):
        # a cosine profile is bounded by |mean| + |amplitude|
        if initial[name]["kind"] == "cosine" and not math.isfinite(
                abs(initial[name]["mean"]) + abs(initial[name]["amplitude"])):
            ck.fail(f"$.initial.{name}",
                    "|mean| + |amplitude| leaves the float range")

    if ck.violations:
        raise ConfigError(ck.violations)

    # structural hypotheses on the model; no basis is built
    model = TumourModel(
        params=params,
        potential=(md.Potential.quartic_double_well()
                   if tree["potential"] == "quartic-double-well"
                   else md.Potential.quadratic()),
        mobility_m=tree["mobility"]["m"], mobility_n=tree["mobility"]["n"],
        # the schema's source keys are SourceModel's fields
        sources=md.SourceModel(**tree["sources"]),
        sigma_inf=tree["sigma_inf"]["value"])
    report = md.validate_assumptions(
        model, allow_limit_modes=limit_mode != "none")
    hard_failures = [c for c in report.failures() if c.name != "A5 growth regime"]
    if hard_failures:
        raise ConfigError(
            [f"$.params: {c.name}" + (f" ({c.detail})" if c.detail else "")
             for c in hard_failures]
        )
    scheme = tree["scheme"]
    return RunConfig(
        raw=raw, domain=domain, modes=modes, T=T,
        stepper=StepperConfig(
            dt=dt, scheme=scheme["name"], kappa=scheme["kappa"],
            energy_guard=scheme["energy_guard"], tol_E=scheme["tol_E"],
            max_halvings=scheme["max_halvings"]),
        model=model, gamma_v_spec=gamma_v,
        initial_phi=initial["phi"], initial_sigma=initial["sigma"],
        limit_mode=limit_mode, cadence=tree["cadence"], seed=tree["seed"],
        validation=report)
