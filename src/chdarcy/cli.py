"""Command-line surface: validate, run, sweep-k, sweep-chi, mms, resume.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 I/O failure.  Floating-point overflow and invalid operations warn
nothing: a value that leaves the float range is caught where a state
or a diagnostics row is made, and exits 3 with one line.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import sys
from pathlib import Path

import numpy as np

from . import config as cf
from . import diagnostics as dg
from . import dynamics as dyn
from . import experiments as ex
from . import io as cio

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

# At exit, move every object still alive into the permanent generation,
# so the interpreter's final collections do not traverse the run's
# leftovers.  Nothing is frozen while the process runs.
atexit.register(gc.freeze)

# per sweep command: the parameter sent to zero, its default values and
# the table written
SWEEPS = {
    "sweep-k": ("K", (1.0, 0.25, 0.0625, 0.015625), "sweep_k.csv"),
    "sweep-chi": ("chi", (1.0, 0.5, 0.25, 0.125), "sweep_chi.csv"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chdarcy",
        description="Spectral-Galerkin tumour-growth simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_out=True):
        p.add_argument("--config", required=True, help="JSON run configuration")
        if needs_out:
            p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config RNG seed")
        p.add_argument("--cadence", type=int, default=None,
                       help="override the snapshot cadence")
        p.add_argument("--strict", action=argparse.BooleanOptionalAction,
                       default=True, help="reject unknown config keys")

    common(sub.add_parser("validate", help="check a config"), needs_out=False)
    common(sub.add_parser("run", help="execute a run"))
    for command, (parameter, _, _) in SWEEPS.items():
        p = sub.add_parser(command, help=f"vanishing-{parameter} sweep")
        common(p)
        p.add_argument("--values", default=None,
                       help=f"comma-separated decreasing {parameter} values")
    p = sub.add_parser("mms", help="manufactured-solution study")
    common(p, needs_out=False)
    p = sub.add_parser("resume", help="continue from a checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True)
    return parser


def _load_config(args) -> cf.RunConfig:
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise cf.ConfigError([f"$: not UTF-8 text ({exc})"])
    except OSError as exc:
        raise _IOFailure(f"cannot read config: {exc}")
    # the flags replace the file's top-level keys before the schema's checks
    overrides = {key: getattr(args, key) for key in ("seed", "cadence")
                 if getattr(args, key) is not None}
    return cf.parse_config(text, strict=args.strict, overrides=overrides)


class _IOFailure(Exception):
    pass


def _cmd_validate(args) -> int:
    config = _load_config(args)
    for line in config.validation.lines():
        print(line)
    return EXIT_OK


def _write_outputs(out: Path, records, state, accumulators, config_hash):
    out.mkdir(parents=True, exist_ok=True)
    cio.write_diagnostics_csv(records, out / "diagnostics.csv")
    cio.write_field_snapshot(state, out / "final.snap")
    cio.write_checkpoint(cio.Checkpoint(config_hash, state, accumulators),
                         out / "checkpoint.ckpt")


def _cmd_run(args) -> int:
    """run from the initial data, or resume from a checkpoint: only the
    start state, the collector's time integrals and the first row, which
    a resume does not write, differ."""
    resume = args.command == "resume"
    if resume and (Path(args.out).resolve()
                   == Path(args.checkpoint).resolve().parent):
        # its outputs would replace the run it continues
        raise cf.ConfigError(["--out: a resume may not write into the "
                              "directory of its checkpoint"])
    config = _load_config(args)
    basis = config.build_basis()
    if resume:
        try:
            ck = cio.read_checkpoint(args.checkpoint, basis)
        except (OSError, cio.SnapshotFormatError) as exc:
            raise _IOFailure(str(exc))
        if ck.config_hash != config.content_hash():
            raise cf.ConfigError(
                ["$.checkpoint: checkpoint was produced by a different config"])
    model = config.build_model(basis)
    stepper = config.build_stepper()
    collector = dg.DiagnosticsCollector()
    if resume:
        start = ck.state
        if config.T - start.t < -1e-12:
            raise cf.ConfigError(["$.T: checkpoint is already past T"])
        collector.restore(ck.accumulators)
    else:
        start = config.build_initial_state(basis)
    final = dyn.run(start, stepper, model, max(config.T - start.t, 0.0),
                    observer=collector.observe, cadence=config.cadence)
    # a resume's first row is the checkpoint's own, which the run
    # it continues has already written
    records = collector.records[1:] if resume else collector.records
    _write_outputs(Path(args.out), records, final, collector.accumulators(),
                   config.content_hash())
    n = len(records)
    print(f"resumed at t={start.t:g}, wrote {n} rows" if resume
          else f"wrote {n} diagnostics rows to {args.out}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    """The sweep of --values, or of the command's defaults, stepped as
    the config's scheme section says; values that are not numbers, or
    that SweepSpec refuses, are a config error."""
    parameter, values, name = SWEEPS[args.command]
    config = _load_config(args)
    stepper = config.build_stepper()
    try:
        if args.values is not None:
            values = tuple(float(v) for v in args.values.split(","))
        spec = ex.SweepSpec(parameter, values, stepper, config.T,
                            cadence=config.cadence)
    except ValueError as exc:
        raise cf.ConfigError([f"--values: {exc}"])
    basis = config.build_basis()
    model = config.build_model(basis)
    if parameter == "K" and model.gamma_v is not None:
        raise cf.ConfigError(
            ["$.gamma_v: the permeability sweep needs a zero volume source"])
    rows = ex.sweep(spec, model, config.build_initial_state(basis))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cio.write_sweep_csv(rows, out / name)
    for r in rows:
        status = r.failed or "ok"
        print(f"{parameter}={r.value:g} diff_phi={r.diff_phi:.6e} "
              f"diff_sigma={r.diff_sigma:.6e} [{status}]")
    return EXIT_OK


def _cmd_mms(args) -> int:
    config = _load_config(args)
    # the study runs on its own 1D interval bases, so it takes the model
    # as configured: without the volume source, and with the configured
    # constants, chi and K in a limit mode too
    result = ex.manufactured_solution_study(
        orders=(1, 2, 3, 5),
        dts=(1e-2, 5e-3, 2.5e-3, 1.25e-3),
        model=config.model,
    )
    for k, err in zip(result.spatial_orders, result.spatial_errors):
        print(f"spatial order {k}: error {err:.3e}")
    print(f"resolved spatial error: {result.resolved_spatial_error:.3e}")
    for dt, err in zip(result.temporal_dts, result.temporal_errors):
        print(f"dt {dt:g}: error {err:.3e}")
    print(f"temporal slope: {result.temporal_fit.slope:.4f}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "validate": _cmd_validate,
        "run": _cmd_run,
        "resume": _cmd_run,
        "sweep-k": _cmd_sweep,
        "sweep-chi": _cmd_sweep,
        "mms": _cmd_mms,
    }
    try:
        with np.errstate(all="ignore"):
            return handlers[args.command](args)
    except cf.ConfigError as exc:
        for v in exc.violations:
            print(f"config error: {v}", file=sys.stderr)
        return EXIT_CONFIG
    except dyn.StepFailureError as exc:
        print(f"numerical failure at t={exc.t}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (_IOFailure, OSError) as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
