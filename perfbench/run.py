"""chdarcy benchmark: CLI workloads timed end to end, layers traced from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is taken from the
checkout's `src/`.  Each repetition runs the workload's `chdarcy`
commands as fresh processes (see workloads.py) and checks their
outputs.  Repetitions continue while another one fits in S seconds.

--trace 0 prints the end-to-end metrics, each the median over
repetitions of a per-repetition value summed (peak RSS: maximised) over
the workload's processes.  --trace 1 runs the workload once untraced,
once untraced with OPENBLAS_NUM_THREADS=1, then traced while time
remains, and prints the per-layer metrics (see README.md).

Each workload's result is printed as one JSON line with the keys
`correct`, `attempted`, `failed` and `metrics`; it is the last line of
standard output for a single workload.  `--workload all` runs every
workload in turn.  A copy of each result, with the run environment, goes
to .bench_build/perfbench/results/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
COMMAND_TIMEOUT_S = 150.0

TRANSFORMS = ("spectral.to_grid", "spectral.to_coeffs",
              "spectral.gradient_on_grid", "spectral.divergence_to_coeffs")
IO_CALLS = ("write_diagnostics_csv", "write_field_snapshot",
            "write_checkpoint", "read_checkpoint")
CONFIG_BUILDS = ("config.build_basis", "config.build_model",
                 "config.build_stepper", "config.build_initial_state")
STEPPERS = ("dynamics.step_imex", "dynamics.step_rk4_explicit")
SWEEPS = ("experiments.sweep_vanishing_permeability",
          "experiments.sweep_vanishing_chemotaxis")

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "spectral.boundary_mass_matrix.calls_per_step": "count",
    "spectral.boundary_mass_matrix.ms_per_step": "ms",
    "spectral.boundary_mass_matrix.mb_per_build": "MB",
    "spectral.transforms.calls_per_step": "count",
    "spectral.transforms.ms_per_step": "ms",
    "model.chemical_potential.ms_per_step": "ms",
    "model.solve_darcy.ms_per_step": "ms",
    "model.evaluate_sources.calls_per_step": "count",
    "model.effective.calls_per_step": "count",
    "dynamics.derive.calls_per_step": "count",
    "dynamics.rhs.calls_per_step": "count",
    "dynamics.rhs.p50_ms": "ms",
    "dynamics.rhs.p98_ms": "ms",
    "dynamics.step_imex.p50_ms": "ms",
    "dynamics.step_imex.p98_ms": "ms",
    "dynamics.step_imex.self_ms_per_step": "ms",
    "diagnostics.energy.calls_per_step": "count",
    "diagnostics.energy.p50_ms": "ms",
    "diagnostics.observe.p50_ms": "ms",
    "diagnostics.observe.p98_ms": "ms",
    "diagnostics.observe_over_step": "ratio",
    "diagnostics.norm_suite.ms_per_call": "ms",
    "experiments.member.p50_s": "s",
    "experiments.sweep.self_s": "s",
    "io.write_diagnostics_csv.ms": "ms",
    "io.write_diagnostics_csv.bytes": "bytes",
    "io.write_field_snapshot.ms": "ms",
    "io.write_checkpoint.ms": "ms",
    "io.read_checkpoint.ms": "ms",
    "cli.import_s": "s",
    "config.parse_config.ms": "ms",
    "config.build.ms": "ms",
    "proc.cpu_s": "s",
    "proc.cpu_per_wall": "ratio",
    "proc.run_s": "s",
    "proc.blas1.run_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.steps": "count",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=(*wl.WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=tuple(wl.SIZES), default="full",
                   help="problem size; 'tiny' is for smoke tests")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# environment

def src_line_count(src: Path) -> int:
    return sum(len(p.read_bytes().splitlines())
               for p in sorted(src.rglob("*.py")))


def environment(src: Path, seed: int) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
        "src_lines": src_line_count(src),
    }


# ---------------------------------------------------------------------------
# processes

def spawn(src: Path, args: list[str], record: Path, log: Path, trace: bool,
          env: dict) -> dict:
    """Run one chdarcy command in a fresh process; return its timings."""
    cmd = [sys.executable, str(CHILD), str(src), str(record),
           "1" if trace else "0", "--", *args]
    record.unlink(missing_ok=True)
    with log.open("wb") as out:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL, env=env, cwd=ROOT)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        rec = json.loads(record.read_text())
    except (OSError, ValueError):
        rec = {}
    first = rec.get("first_run")
    return {
        "exit_code": proc.returncode,
        "ok": proc.returncode == 0 and rec.get("exit_code") == 0
        and first is not None,
        "setup_s": (first if first is not None else end) - start,
        "run_s": end - first if first is not None else 0.0,
        "main_s": rec["main_end"] - first if first is not None else 0.0,
        "wall_s": end - start,
        "import_s": rec.get("import_s", 0.0),
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss * 1024 / 1e6,  # ru_maxrss is in KiB
        "spans": rec.get("spans", []),
    }


class Runner:
    """Runs repetitions of one plan inside a work directory."""

    def __init__(self, plan: wl.Plan, src: Path, work: Path):
        self.plan, self.src, self.work = plan, src, work
        self.config_dir = work / "configs"
        plan.write_configs(self.config_dir)
        self.reference = None
        self.attempted = 0
        self.failures: list[str] = []
        self.samples: list[dict] = []  # per-repetition summaries

    def run_commands(self, commands, out: Path, trace: bool, env: dict):
        out.mkdir(parents=True, exist_ok=True)
        procs = []
        for label, args in commands:
            argv = self.plan.argv(args, self.config_dir, out)
            proc = spawn(self.src, argv, out / f"{label}.record.json",
                         out / f"{label}.log", trace, env)
            proc["label"] = label
            procs.append(proc)
        return procs

    def prepare(self):
        """Untimed runs the checks compare against (uninterrupted run)."""
        if self.plan.reference:
            self.reference = self.work / "reference"
            procs = self.run_commands(self.plan.reference, self.reference,
                                   False, dict(os.environ))
            self._record([("reference command " + p["label"],
                           None if p["ok"] else f"exit {p['exit_code']}")
                          for p in procs])

    def _record(self, checks):
        for name, error in checks:
            self.attempted += 1
            if error is not None:
                self.failures.append(f"{name}: {error}")

    def rep(self, trace=False, threads=None, compare_to=None) -> dict:
        out = self.work / f"rep{len(self.samples) + 1}"
        env = dict(os.environ)
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = str(threads)
        procs = self.run_commands(self.plan.commands, out, trace, env)
        checks = [(f"command {p['label']}",
                   None if p["ok"] else f"exit {p['exit_code']}, see "
                   f"{out / (p['label'] + '.log')}") for p in procs]
        checks += self.plan.check(out, self.reference)
        if compare_to is not None:
            for name in self.plan.outputs:
                same = _same_bytes(out / name, compare_to / name)
                checks.append((f"traced {name} identical to untraced",
                               None if same else "bytes differ"))
        self._record(checks)
        summary = {
            "trace": trace,
            "threads": threads,
            "setup_s": sum(p["setup_s"] for p in procs),
            "run_s": sum(p["run_s"] for p in procs),
            "main_s": sum(p["main_s"] for p in procs),
            "wall_s": sum(p["wall_s"] for p in procs),
            "cpu_s": sum(p["cpu_s"] for p in procs),
            "peak_rss_mb": max(p["rss_mb"] for p in procs),
        }
        self.samples.append(summary)
        return dict(summary, dir=out, procs=procs)


def _same_bytes(a: Path, b: Path) -> bool:
    try:
        return a.read_bytes() == b.read_bytes()
    except OSError:
        return False


# ---------------------------------------------------------------------------
# per-layer analysis of recorded spans

def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class SpanStats:
    """Durations, self times and ancestry of one repetition's spans."""

    def __init__(self, procs):
        self.durations: dict[str, list[float]] = {}
        self.self_time: dict[str, float] = {}
        self.member_runs: list[float] = []
        self.outer_builds = 0.0
        for proc in procs:
            self._add(proc["spans"])

    def _add(self, spans):
        child_time = [0.0] * len(spans)
        for name, parent, t0, t1 in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        for i, (name, parent, t0, t1) in enumerate(spans):
            d = t1 - t0
            self.durations.setdefault(name, []).append(d)
            self.self_time[name] = (self.self_time.get(name, 0.0)
                                    + d - child_time[i])
            if name != "dynamics.run" and name not in CONFIG_BUILDS:
                continue
            ancestors = set()
            p = parent
            while p >= 0:
                ancestors.add(spans[p][0])
                p = spans[p][1]
            if name == "dynamics.run" and ancestors & set(SWEEPS):
                self.member_runs.append(d)
            elif name in CONFIG_BUILDS and "config.parse_config" not in ancestors:
                self.outer_builds += d

    def calls(self, *names) -> int:
        return sum(len(self.durations.get(n, ())) for n in names)

    def total(self, *names) -> float:
        return sum(sum(self.durations.get(n, ())) for n in names)

    def get(self, name) -> list[float]:
        return self.durations.get(name, [])


def layer_metrics(plan: wl.Plan, rep: dict) -> dict:
    s = SpanStats(rep["procs"])
    steps = s.calls(*STEPPERS)
    per_step = 1.0 / steps if steps else 0.0
    ms = 1e3
    step_p50 = percentile(s.get("dynamics.step_imex"), 0.5)
    observe_p50 = percentile(s.get("diagnostics.observe"), 0.5)
    norm_calls = s.calls("diagnostics.norm_suite")
    csv_bytes = sum((rep["dir"] / name).stat().st_size
                    for name in plan.outputs
                    if name.endswith(wl.DIAGNOSTICS)
                    and (rep["dir"] / name).exists())
    m = {
        "spectral.boundary_mass_matrix.calls_per_step":
            s.calls("spectral.boundary_mass_matrix") * per_step,
        "spectral.boundary_mass_matrix.ms_per_step":
            s.total("spectral.boundary_mass_matrix") * ms * per_step,
        # computed, not measured: one dense n_modes x n_modes float64 matrix
        "spectral.boundary_mass_matrix.mb_per_build":
            plan.n_modes ** 2 * 8 / 1e6,
        "spectral.transforms.calls_per_step": s.calls(*TRANSFORMS) * per_step,
        "spectral.transforms.ms_per_step": s.total(*TRANSFORMS) * ms * per_step,
        "model.chemical_potential.ms_per_step":
            s.total("model.chemical_potential") * ms * per_step,
        "model.solve_darcy.ms_per_step":
            s.total("model.solve_darcy") * ms * per_step,
        "model.evaluate_sources.calls_per_step":
            s.calls("model.evaluate_sources") * per_step,
        "model.effective.calls_per_step": s.calls("model.effective") * per_step,
        "dynamics.derive.calls_per_step": s.calls("dynamics.derive") * per_step,
        "dynamics.rhs.calls_per_step": s.calls("dynamics.rhs") * per_step,
        "dynamics.rhs.p50_ms": percentile(s.get("dynamics.rhs"), 0.5) * ms,
        "dynamics.rhs.p98_ms": percentile(s.get("dynamics.rhs"), 0.98) * ms,
        "dynamics.step_imex.p50_ms": step_p50 * ms,
        "dynamics.step_imex.p98_ms":
            percentile(s.get("dynamics.step_imex"), 0.98) * ms,
        "dynamics.step_imex.self_ms_per_step":
            s.self_time.get("dynamics.step_imex", 0.0) * ms * per_step,
        "diagnostics.energy.calls_per_step":
            s.calls("diagnostics.energy") * per_step,
        "diagnostics.energy.p50_ms":
            percentile(s.get("diagnostics.energy"), 0.5) * ms,
        "diagnostics.observe.p50_ms": observe_p50 * ms,
        "diagnostics.observe.p98_ms":
            percentile(s.get("diagnostics.observe"), 0.98) * ms,
        "diagnostics.observe_over_step":
            observe_p50 / step_p50 if step_p50 else 0.0,
        "diagnostics.norm_suite.ms_per_call":
            s.total("diagnostics.norm_suite") * ms / norm_calls
            if norm_calls else 0.0,
        "experiments.member.p50_s": percentile(s.member_runs, 0.5),
        "experiments.sweep.self_s": sum(s.self_time.get(n, 0.0)
                                        for n in SWEEPS),
        "io.write_diagnostics_csv.bytes": float(csv_bytes),
        "cli.import_s": sum(p["import_s"] for p in rep["procs"]),
        "config.parse_config.ms": s.total("config.parse_config") * ms,
        "config.build.ms": s.outer_builds * ms,
        "trace.steps": float(steps),
    }
    for name in IO_CALLS:
        m[f"io.{name}.ms"] = s.total(f"io.{name}") * ms
    return m


# ---------------------------------------------------------------------------

def median_of(reps, key):
    return statistics.median(r[key] for r in reps)


def measure(runner: Runner, seconds: float, trace: bool):
    """Repetitions within the time budget; returns the metrics dict."""
    deadline = time.monotonic() + seconds

    def fits(last_wall):
        return time.monotonic() + last_wall <= deadline

    if not trace:
        reps = [runner.rep()]
        while fits(reps[-1]["wall_s"]):
            reps.append(runner.rep())
        return {k: median_of(reps, k) for k in END_TO_END}

    plain = runner.rep()
    blas1 = runner.rep(threads=1)
    traced = [runner.rep(trace=True, compare_to=plain["dir"])]
    while fits(traced[-1]["wall_s"]):
        traced.append(runner.rep(trace=True, compare_to=plain["dir"]))
    per_rep = [layer_metrics(runner.plan, r) for r in traced]
    metrics = {k: statistics.median(m[k] for m in per_rep)
               for k in per_rep[0]}
    metrics.update({
        "proc.cpu_s": plain["cpu_s"],
        "proc.cpu_per_wall": plain["cpu_s"] / plain["wall_s"],
        "proc.run_s": plain["run_s"],
        "proc.blas1.run_s": blas1["run_s"],
        "trace.overhead_frac":
            median_of(traced, "main_s") / plain["main_s"] - 1.0
            if plain["main_s"] else 0.0,
    })
    return metrics


def run_workload(name: str, args, src: Path, reference_config: dict,
                 env: dict, build: Path) -> dict:
    """Measure one workload; print its block and return its result."""
    work = build / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    plan = wl.make_plan(name, reference_config, args.seed, args.scale,
                        traced=bool(args.trace))
    runner = Runner(plan, src, work)
    try:
        runner.prepare()
        values = measure(runner, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    failed = len(runner.failures)
    result = {"correct": failed == 0, "attempted": runner.attempted,
              "failed": failed, "metrics": metrics}

    results = build / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"workload": name, "scale": args.scale,
                    "steps": plan.steps, "repetitions": runner.samples,
                    "environment": env, "failures": runner.failures,
                    **result}, indent=1))

    print(f"workload {name} seed {args.seed} trace {args.trace}: "
          f"{len(runner.samples)} repetitions of {plan.steps} steps")
    for failure in runner.failures:
        print(f"  FAILED {failure}")
    for metric, m in metrics.items():
        print(f"  {metric:48s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':48s} {failed / runner.attempted:.6g} "
          f"({failed} of {runner.attempted} commands and checks)")
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    reference_path = ROOT / "configs" / "reference.json"
    if not (src / "chdarcy" / "cli.py").is_file() or not reference_path.is_file():
        print(f"benchmark needs src/chdarcy and configs/reference.json "
              f"under {ROOT}", file=sys.stderr)
        return 2
    reference_config = json.loads(reference_path.read_text())
    build = ROOT / ".bench_build" / "perfbench"
    # byte-compile once so no timed process pays for it
    compileall.compile_dir(str(src), quiet=1)
    env = environment(src, args.seed)
    print("environment " + json.dumps(env, sort_keys=True))
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result = run_workload(name, args, src, reference_config, env, build)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
