"""Tests of the benchmark itself, at the tiny scale.

    python3 -m pytest perfbench
"""

import json
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads as wl  # noqa: E402


def _result(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_smoke_end_to_end(workload, capsys):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", "0", "--scale", "tiny"]) == 0
    result = _result(capsys)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 3
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_smoke_traced(workload, capsys):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", "1", "--scale", "tiny"]) == 0
    result = _result(capsys)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == set(run.PER_LAYER)
    steps = wl.SIZES["tiny"][workload][1]
    if workload == "sweep-k-1d":
        steps *= 5
    assert metrics["trace.steps"]["value"] == steps
    assert metrics["dynamics.rhs.calls_per_step"]["value"] >= 1


def test_reference_boundary_builds_per_step(capsys):
    # five dense builds per step plus four for the initial snapshot
    run.main(["--workload", "reference-32", "--seed", "0", "--seconds", "0",
              "--trace", "1", "--scale", "tiny"])
    steps = wl.SIZES["tiny"]["reference-32"][1]
    value = _result(capsys)["metrics"][
        "spectral.boundary_mass_matrix.calls_per_step"]["value"]
    assert value * steps == 5 * steps + 4


def _runner(name, tmp_path):
    reference = json.loads((run.ROOT / "configs" / "reference.json").read_text())
    runner = run.Runner(wl.make_plan(name, reference, 5, "tiny"),
                        run.ROOT / "src", tmp_path)
    runner.prepare()
    rep = runner.rep()
    assert runner.failures == []
    return runner, rep["dir"]


def _errors(runner, rep_dir):
    return [c for c in runner.plan.check(rep_dir, runner.reference)
            if c[1] is not None]


def _rewrite_cell(path: Path, row: int, column: str, value: str):
    lines = path.read_text().splitlines(True)
    header = lines[0].rstrip("\n").split(",")
    cells = lines[row].rstrip("\n").split(",")
    cells[header.index(column)] = value
    lines[row] = ",".join(cells) + "\n"
    path.write_text("".join(lines))


def test_altered_mass_residual_fails(tmp_path):
    runner, rep = _runner("reference-32", tmp_path)
    _rewrite_cell(rep / "run" / wl.DIAGNOSTICS, 2, "res_mass_phi", "1e-6")
    assert [name for name, _ in _errors(runner, rep)] == ["mass law phi"]


def test_non_finite_value_fails(tmp_path):
    runner, rep = _runner("stepping-64", tmp_path)
    _rewrite_cell(rep / "run" / wl.DIAGNOSTICS, 1, "E_total", "nan")
    assert _errors(runner, rep)


def test_sweep_out_of_order_fails(tmp_path):
    runner, rep = _runner("sweep-k-1d", tmp_path)
    _rewrite_cell(rep / "sweep" / wl.SWEEP_K, 4, "diff_phi", "1e3")
    assert [name for name, _ in _errors(runner, rep)] == [
        "diff_phi decreases with K"]


def test_resume_tampering_fails(tmp_path):
    runner, rep = _runner("guarded-resume-16", tmp_path)

    # one altered CSV value breaks the byte comparison with the whole run
    _rewrite_cell(rep / "rest" / wl.DIAGNOSTICS, 1, "norm_phi_H1", "0.5")
    assert "resumed CSV matches uninterrupted run" in [
        name for name, _ in _errors(runner, rep)]

    # a truncated checkpoint makes the resume command fail
    ckpt = rep / "first" / "checkpoint.ckpt"
    ckpt.write_bytes(ckpt.read_bytes()[:-8])
    (proc,) = runner.run_commands(runner.plan.commands[1:], rep, False,
                                  dict(os.environ))
    assert not proc["ok"] and proc["exit_code"] == 4
