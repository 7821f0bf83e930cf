"""Command-line surface: validate, run, sweep-k, sweep-chi, mms, resume.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 I/O failure.
"""

from __future__ import annotations

import argparse
import atexit
import csv
import gc
import sys
from dataclasses import replace
from pathlib import Path

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

K_SWEEP_DEFAULT = (1.0, 0.25, 0.0625, 0.015625)
CHI_SWEEP_DEFAULT = (1.0, 0.5, 0.25, 0.125)


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
    p = sub.add_parser("sweep-k", help="vanishing-permeability sweep")
    common(p)
    p.add_argument("--values", default=None,
                   help="comma-separated decreasing K values")
    p = sub.add_parser("sweep-chi", help="vanishing-chemotaxis sweep")
    common(p)
    p.add_argument("--values", default=None,
                   help="comma-separated decreasing chi values")
    p = sub.add_parser("mms", help="manufactured-solution study")
    common(p, needs_out=False)
    p = sub.add_parser("resume", help="continue from a checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True)
    return parser


def _load_config(args) -> cf.RunConfig:
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        raise _IOFailure(f"cannot read config: {exc}")
    config = cf.parse_config(text, strict=args.strict)
    if args.seed is not None and args.seed < 0:
        raise cf.ConfigError(["--seed: must be an int >= 0"])
    if args.cadence is not None and args.cadence < 1:
        raise cf.ConfigError(["--cadence: must be an int >= 1"])
    if args.seed is not None:
        config.seed = args.seed
        config.raw["seed"] = args.seed
    if args.cadence is not None:
        config.cadence = args.cadence
    return config


class _IOFailure(Exception):
    pass


def _cmd_validate(args) -> int:
    config = _load_config(args)
    for line in config.validation.lines():
        print(line)
    return EXIT_OK


def _write_outputs(out: Path, collector, state, config, config_hash):
    out.mkdir(parents=True, exist_ok=True)
    cio.write_diagnostics_csv(collector.records, out / "diagnostics.csv")
    cio.write_field_snapshot(state, out / "final.snap")
    cio.write_checkpoint(
        cio.Checkpoint(config_hash, state, collector.accumulators()),
        out / "checkpoint.ckpt",
    )


def _cmd_run(args) -> int:
    """run from the initial data, or resume from a checkpoint: only the
    start state, the collector's history and observing the start differ."""
    config = _load_config(args)
    basis = config.build_basis()
    resume = args.command == "resume"
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
    collector = dg.DiagnosticsCollector(model, stepper)
    if resume:
        start = ck.state
        collector.restore(ck.accumulators, start)
        if config.T - start.t < -1e-12:
            raise cf.ConfigError(["$.T: checkpoint is already past T"])
    else:
        start = config.build_initial_state(basis)
    traj = dyn.run(start, stepper, model, max(config.T - start.t, 0.0),
                   observer=collector.observe, cadence=config.cadence,
                   observe_initial=not resume)
    final = traj.states[-1] if len(traj) else start
    _write_outputs(Path(args.out), collector, final, config,
                   config.content_hash())
    n = len(collector.records)
    print(f"resumed at t={start.t:g}, wrote {n} rows" if resume
          else f"wrote {n} diagnostics rows to {args.out}")
    return EXIT_OK


def _sweep_spec(args, config: cf.RunConfig, parameter: str) -> ex.SweepSpec:
    """The sweep of --values, or of the defaults; values that are not
    numbers, or that SweepSpec refuses, are a config error."""
    values = K_SWEEP_DEFAULT if parameter == "K" else CHI_SWEEP_DEFAULT
    try:
        if args.values is not None:
            values = tuple(float(v) for v in args.values.split(","))
        return ex.SweepSpec(parameter, values, dt=config.dt, T=config.T,
                            cadence=config.cadence)
    except ValueError as exc:
        raise cf.ConfigError([f"--values: {exc}"])


def _write_sweep_csv(rows, path):
    try:
        with Path(path).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("value", "v_l2l2", "v_scaled",
                             "diff_phi", "diff_sigma", "failed"))
            for r in rows:
                writer.writerow((
                    f"{r.value:.17g}", f"{r.v_l2l2:.17g}", f"{r.v_scaled:.17g}",
                    f"{r.diff_phi:.17g}", f"{r.diff_sigma:.17g}",
                    r.failed or "",
                ))
    except OSError as exc:
        raise _IOFailure(f"writing sweep table: {exc}")


def _cmd_sweep(args, parameter: str) -> int:
    config = _load_config(args)
    spec = _sweep_spec(args, config, parameter)
    if parameter == "K" and config.gamma_v_spec["kind"] != "zero":
        raise cf.ConfigError(
            ["$.gamma_v: the permeability sweep needs a zero volume source"])
    basis = config.build_basis()
    model = config.build_model(basis)
    initial = config.build_initial_state(basis)
    if parameter == "K":
        rows = ex.sweep_vanishing_permeability(spec, model, initial)
        name = "sweep_k.csv"
    else:
        rows = ex.sweep_vanishing_chemotaxis(spec, model, initial)
        name = "sweep_chi.csv"
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_sweep_csv(rows, out / name)
    for r in rows:
        status = r.failed or "ok"
        print(f"{parameter}={r.value:g} diff_phi={r.diff_phi:.6e} "
              f"diff_sigma={r.diff_sigma:.6e} [{status}]")
    return EXIT_OK


def _cmd_mms(args) -> int:
    config = _load_config(args)
    # the study runs on its own 1D interval bases, so only the model
    # pieces of the config are used: the volume source is dropped, and
    # the configured constants are studied, chi under "no-chemotaxis" too
    model = config.build_model(config.build_basis())
    model = replace(model.with_params(config.params), gamma_v=None)
    result = ex.manufactured_solution_study(
        orders=(1, 2, 3, 5),
        dts=(1e-2, 5e-3, 2.5e-3, 1.25e-3),
        model=model,
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
        "sweep-k": lambda a: _cmd_sweep(a, "K"),
        "sweep-chi": lambda a: _cmd_sweep(a, "chi"),
        "mms": _cmd_mms,
    }
    try:
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
