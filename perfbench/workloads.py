"""The benchmark's workloads: generated configs, CLI commands, output checks.

Every config derives from `configs/reference.json`.  A workload fixes
the grid, the physics switches and the run length; the seed only
enters through a `random` initial phi (reference-32 keeps the shipped
cosine data, so there it changes nothing).  Each check returns a list of
`(name, error)` pairs, with `error` None when the check passed.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

MASS_TOL = 1e-11  # tolerance of test_conservation_reference_run
DIAGNOSTICS = "diagnostics.csv"
SWEEP_K = "sweep_k.csv"


@dataclass
class Plan:
    """One workload instantiated for a seed and a scale."""

    name: str
    modes: tuple[int, ...]
    steps: int                       # accepted time steps per repetition
    configs: dict[str, dict]         # file name -> generated config
    commands: list[tuple[str, list[str]]]  # (label, chdarcy args)
    outputs: list[str]               # files a traced run must reproduce
    reference: list[tuple[str, list[str]]] = field(default_factory=list)

    @property
    def n_modes(self) -> int:
        return math.prod(self.modes)

    def write_configs(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        for name, cfg in self.configs.items():
            (directory / name).write_text(json.dumps(cfg, indent=1))

    def argv(self, args: list[str], config_dir: Path, out: Path) -> list[str]:
        """Substitute the config directory and output root into args."""
        return [a.format(cfg=config_dir, out=out) for a in args]

    def check(self, rep: Path, reference: Path | None) -> list[tuple[str, str | None]]:
        return CHECKS[self.name](self, rep, reference)


# (modes, steps) per workload and scale.  "tiny" is the smoke-test size.
# Short runs give many repetitions per timed run, and so steady medians.
SIZES = {
    "full": {
        "reference-32": ((32, 32), 20),
        "stepping-64": ((64, 64), 12),
        "sweep-k-1d": ((128,), 400),
        "guarded-resume-16": ((16, 16), 200),
    },
    "tiny": {
        "reference-32": ((8, 8), 4),
        "stepping-64": ((8, 8), 4),
        "sweep-k-1d": ((12,), 10),
        "guarded-resume-16": ((6, 6), 8),
    },
}

WORKLOADS = tuple(SIZES["full"])

# The traced pass runs the reference for 100 steps, so its boundary-matrix
# count compares with the 504 builds per 100 steps of the ROADMAP baseline.
TRACED_STEPS = {"reference-32": 100}


def make_plan(name: str, reference_config: dict, seed: int,
              scale: str = "full", traced: bool = False) -> Plan:
    modes, steps = SIZES[scale][name]
    if traced and scale == "full":
        steps = TRACED_STEPS.get(name, steps)
    cfg = json.loads(json.dumps(reference_config))
    cfg["seed"] = seed
    cfg["T"] = steps * cfg["dt"]
    cfg["modes"] = list(modes)
    if len(modes) == 1:
        cfg["domain"] = {"kind": "interval", "lengths": [1.0]}
        cfg["initial"]["sigma"]["mode"] = [1]

    single_run = ([("run", ["run", "--config", "{cfg}/run.json",
                            "--out", "{out}/run"])],
                  [f"run/{DIAGNOSTICS}", "run/final.snap"])
    if name == "reference-32":
        return Plan(name, modes, steps, {"run.json": cfg}, *single_run)

    cfg["initial"]["phi"] = {"kind": "random", "amplitude": 0.05, "cutoff": 4}
    if name == "stepping-64":
        # one snapshot at the start and one at the end
        cfg["cadence"] = steps
        return Plan(name, modes, steps, {"run.json": cfg}, *single_run)

    if name == "sweep-k-1d":
        # the limit run and four members share one time grid
        return Plan(name, modes, 5 * steps, {"sweep.json": cfg},
                    [("sweep", ["sweep-k", "--config", "{cfg}/sweep.json",
                                "--out", "{out}/sweep"])],
                    [f"sweep/{SWEEP_K}"])

    if name == "guarded-resume-16":
        cfg["sources"] = {"kind": "zero"}
        cfg["params"]["b"] = 0.0
        cfg["limit_mode"] = "no-chemotaxis"
        cfg["scheme"] = {"name": "imex1", "energy_guard": True,
                         "tol_E": 1e-12, "max_halvings": 8}
        half = dict(cfg, T=(steps // 2) * cfg["dt"])
        return Plan(
            name, modes, steps, {"full.json": cfg, "half.json": half},
            [("first", ["run", "--config", "{cfg}/half.json",
                        "--out", "{out}/first"]),
             ("rest", ["resume", "--config", "{cfg}/full.json",
                       "--checkpoint", "{out}/first/checkpoint.ckpt",
                       "--out", "{out}/rest"])],
            [f"first/{DIAGNOSTICS}", f"rest/{DIAGNOSTICS}", "rest/final.snap"],
            reference=[("whole", ["run", "--config", "{cfg}/full.json",
                                  "--out", "{out}/whole"])],
        )
    raise KeyError(name)


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def _table(path: Path, expected_rows: int, numeric=None):
    """Read a CSV, check its row count and that `numeric` columns (all
    columns when None) hold finite numbers.

    Returns (checks, {column: list of cells}) or (checks, None) when the
    file cannot be read.
    """
    label = f"{path.parent.name}/{path.name}"
    try:
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
    except (OSError, csv.Error, StopIteration, UnicodeDecodeError) as exc:
        return [(f"{label} readable", str(exc) or "empty file")], None
    shape_ok = (len(rows) == expected_rows
                and all(len(r) == len(header) for r in rows))
    checks = [(f"{label} rows", None if shape_ok else
               f"{len(rows)} rows of {[len(r) for r in rows][:3]}..., "
               f"expected {expected_rows} of {len(header)}")]
    if not shape_ok:
        return checks, None
    cols = {h: [r[i] for r in rows] for i, h in enumerate(header)}
    names = header if numeric is None else numeric
    missing = [h for h in names if h not in cols]
    for h in names:
        if h in cols:
            cols[h] = [_number(x) for x in cols[h]]
    bad = [h for h in names if h in cols
           and not all(math.isfinite(x) for x in cols[h])]
    checks.append((f"{label} finite", f"missing columns {missing}" if missing
                   else f"non-finite values in {bad}" if bad else None))
    return checks, (None if missing or bad else cols)


def _check_reference(plan: Plan, rep: Path, _ref) -> list:
    checks, cols = _table(rep / "run" / DIAGNOSTICS, plan.steps + 1)
    if cols is not None:
        for f in ("phi", "sigma"):
            scale = max(1.0, max(abs(x) for x in cols[f"mass_{f}"]))
            rel = max(abs(x) for x in cols[f"res_mass_{f}"]) / scale
            checks.append((f"mass law {f}", None if rel < MASS_TOL
                           else f"relative residual {rel:.3e}"))
    return checks


def _check_stepping(plan: Plan, rep: Path, _ref) -> list:
    checks, _ = _table(rep / "run" / DIAGNOSTICS, 2)
    return checks


def _check_sweep(plan: Plan, rep: Path, _ref) -> list:
    checks, cols = _table(rep / "sweep" / SWEEP_K, 4,
                          ("value", "v_l2l2", "v_scaled",
                           "diff_phi", "diff_sigma"))
    if cols is not None:
        failed = [v for v, f in zip(cols["value"], cols["failed"]) if f]
        checks.append(("no failed members",
                       f"failed at K={failed}" if failed else None))
        d = cols["diff_phi"]
        ok = all(a > b for a, b in zip(d[:-1], d[1:]))
        checks.append(("diff_phi decreases with K", None if ok else str(d)))
    return checks


def _check_guarded(plan: Plan, rep: Path, ref: Path) -> list:
    half = plan.steps // 2
    tol_E = plan.configs["full.json"]["scheme"]["tol_E"]
    first, cols1 = _table(rep / "first" / DIAGNOSTICS, half + 1)
    rest, cols2 = _table(rep / "rest" / DIAGNOSTICS, plan.steps - half)
    checks = first + rest
    if cols1 is not None and cols2 is not None:
        energy = cols1["E_total"] + cols2["E_total"]
        rise = max((b - a for a, b in zip(energy[:-1], energy[1:])),
                   default=0.0)
        checks.append(("E_total non-increasing",
                       None if rise <= tol_E else f"rise {rise:.3e}"))
    try:
        whole = (ref / "whole" / DIAGNOSTICS).read_bytes()
        merged = (rep / "first" / DIAGNOSTICS).read_bytes() + b"".join(
            (rep / "rest" / DIAGNOSTICS).read_bytes().splitlines(True)[1:])
        same_csv = merged == whole
        same_snap = ((rep / "rest" / "final.snap").read_bytes()
                     == (ref / "whole" / "final.snap").read_bytes())
    except OSError as exc:
        return checks + [("resume matches uninterrupted run", str(exc))]
    checks.append(("resumed CSV matches uninterrupted run",
                   None if same_csv else "bytes differ"))
    checks.append(("resumed final.snap matches uninterrupted run",
                   None if same_snap else "bytes differ"))
    return checks


CHECKS = {
    "reference-32": _check_reference,
    "stepping-64": _check_stepping,
    "sweep-k-1d": _check_sweep,
    "guarded-resume-16": _check_guarded,
}
