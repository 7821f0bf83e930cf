import gc
import hashlib
import json
import math
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import chdarcy
from chdarcy import cli
from chdarcy import config as cf
from chdarcy import diagnostics as dg
from chdarcy import dynamics as dyn
from chdarcy import io as cio
from chdarcy import spectral as sp

from conftest import make_model, random_state


def small_config(**overrides):
    base = {
        "domain": {"kind": "interval", "lengths": [1.0]},
        "modes": [8],
        "dt": 0.001,
        "T": 0.01,
        "params": {"A": 1.0, "B": 0.01, "K": 1.0, "D": 1.0,
                   "chi": 0.05, "b": 0.1},
        "potential": "quartic-double-well",
        "sources": {"kind": "hawkins", "f0": 0.1},
        "sigma_inf": {"kind": "constant", "value": 1.0},
        "initial": {
            "phi": {"kind": "cosine", "mean": 0.0, "amplitude": 0.2,
                    "mode": [1]},
            "sigma": {"kind": "constant", "value": 0.5},
        },
    }
    base.update(overrides)
    return base


class TestDiagnosticsCsv:
    def collect(self, basis, n_steps=5):
        model = make_model()
        config = dyn.StepperConfig(dt=1e-3)
        collector = dg.DiagnosticsCollector(model, config)
        dyn.run(random_state(basis, 5, scale=0.1), config, model,
                n_steps * config.dt, observer=collector.observe)
        return collector.records

    def test_round_trip_is_bit_exact(self, interval_basis, tmp_path):
        records = self.collect(interval_basis)
        path = tmp_path / "diag.csv"
        cio.write_diagnostics_csv(records, path)
        rows = cio.read_diagnostics_csv(path)
        assert len(rows) == len(records)
        for rec, row in zip(records, rows):
            assert row == rec.row()

    def test_empty_file_keeps_header(self, tmp_path):
        path = tmp_path / "diag.csv"
        cio.write_diagnostics_csv([], path)
        assert cio.read_diagnostics_csv(path) == []

    def test_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "diag.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(cio.SnapshotFormatError):
            cio.read_diagnostics_csv(path)


    @pytest.mark.parametrize("body", [
        "",
        ",".join(dg.CSV_COLUMNS) + "\n1,x\n",
        ",".join(dg.CSV_COLUMNS) + "\n1,2\n",
        ",".join(dg.CSV_COLUMNS) + "\n"
        + ",".join(["1"] * (len(dg.CSV_COLUMNS) + 1)) + "\n",
    ], ids=["empty-file", "non-numeric-cell", "short-row", "long-row"])
    def test_malformed_content_is_format_error(self, tmp_path, body):
        path = tmp_path / "diag.csv"
        path.write_text(body)
        with pytest.raises(cio.SnapshotFormatError):
            cio.read_diagnostics_csv(path)


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_damaged_csv_parses_or_raises_format_errors(data, tmp_path):
    path = tmp_path / "diag.csv"  # rewritten by every example
    n = len(dg.CSV_COLUMNS)
    cio.write_diagnostics_csv([np.linspace(0.0, 1.0, n), np.arange(n)], path)
    path.write_bytes(data.draw(_mutations(path.read_bytes())))
    try:
        cio.read_diagnostics_csv(path)
    except cio.SnapshotFormatError:
        pass


class TestSnapshots:
    def test_round_trip_bitwise(self, rect_basis, tmp_path):
        state = random_state(rect_basis, 77, t=0.25)
        path = tmp_path / "s.snap"
        cio.write_field_snapshot(state, path)
        back = cio.read_field_snapshot(path)
        assert back.t == state.t
        assert np.array_equal(back.alpha.data, state.alpha.data)
        assert np.array_equal(back.gamma.data, state.gamma.data)

    def test_supplied_basis_must_match(self, interval_basis, rect_basis,
                                       tmp_path):
        path = tmp_path / "s.snap"
        cio.write_field_snapshot(random_state(interval_basis, 1), path)
        cio.read_field_snapshot(path, interval_basis)  # matching is fine
        with pytest.raises(cio.SnapshotFormatError):
            cio.read_field_snapshot(path, rect_basis)

    def test_corrupt_header_rejected(self, tmp_path):
        path = tmp_path / "s.snap"
        path.write_bytes(b"chd-snapshot 9\nkind interval\n")
        with pytest.raises(cio.SnapshotFormatError):
            cio.read_field_snapshot(path)

    def test_truncated_payload_rejected(self, interval_basis, tmp_path):
        path = tmp_path / "s.snap"
        cio.write_field_snapshot(random_state(interval_basis, 1), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(cio.SnapshotFormatError):
            cio.read_field_snapshot(path)


class TestWritersRefuseBatches:
    """A batch of members is not one field: the writers refuse it
    instead of writing every member's coefficients as one."""

    @pytest.fixture
    def batch(self, interval_basis):
        state = random_state(interval_basis, 9)
        return dyn.SimState(0.0, *(
            sp.FieldCoeffs(interval_basis, np.stack([c.data, c.data]))
            for c in (state.alpha, state.gamma)))

    def test_snapshot(self, batch, tmp_path):
        with pytest.raises(sp.BasisMismatchError):
            cio.write_field_snapshot(batch, tmp_path / "s.snap")

    def test_checkpoint(self, batch, tmp_path):
        with pytest.raises(sp.BasisMismatchError):
            cio.write_checkpoint(cio.Checkpoint("0" * 16, batch, np.zeros(4)),
                                 tmp_path / "c.ckpt")


class TestCheckpoints:
    def test_round_trip(self, interval_basis, tmp_path):
        state = random_state(interval_basis, 8, t=0.125)
        acc = np.array([0.1, 0.2, 0.3, 0.4])
        path = tmp_path / "c.ckpt"
        cio.write_checkpoint(cio.Checkpoint("deadbeef", state, acc), path)
        back = cio.read_checkpoint(path)
        assert back.config_hash == "deadbeef"
        assert back.state.t == state.t
        assert np.array_equal(back.state.alpha.data, state.alpha.data)
        assert np.array_equal(back.accumulators, acc)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        path.write_bytes(b"not-a-checkpoint\n")
        with pytest.raises(cio.SnapshotFormatError):
            cio.read_checkpoint(path)


def _write(kind, basis, path):
    state = random_state(basis, 9, t=0.125)
    if kind == "snapshot":
        cio.write_field_snapshot(state, path)
    else:
        cio.write_checkpoint(
            cio.Checkpoint("deadbeef", state, np.arange(4.0)), path)


def _read(kind, path, basis=None):
    if kind == "snapshot":
        return cio.read_field_snapshot(path, basis)
    return cio.read_checkpoint(path, basis)


def _patch_header(path, pattern: bytes, repl: bytes):
    head, sep, payload = path.read_bytes().partition(b"\n\n")
    path.write_bytes(re.sub(pattern, repl, head, count=1) + sep + payload)


@pytest.mark.parametrize("kind", ["snapshot", "checkpoint"])
class TestHeaderChecks:
    """Headers that name no valid basis are format errors, also when the
    reader builds the basis itself."""

    def test_zero_modes(self, kind, interval_basis, tmp_path):
        path = tmp_path / "f"
        _write(kind, interval_basis, path)
        _patch_header(path, rb"\nmodes [^\n]*", b"\nmodes 0")
        with pytest.raises(cio.SnapshotFormatError):
            _read(kind, path)

    def test_infinite_length(self, kind, interval_basis, tmp_path):
        path = tmp_path / "f"
        _write(kind, interval_basis, path)
        _patch_header(path, rb"\nlengths [^\n]*", b"\nlengths inf")
        with pytest.raises(cio.SnapshotFormatError):
            _read(kind, path)

    def test_nan_time(self, kind, interval_basis, tmp_path):
        path = tmp_path / "f"
        _write(kind, interval_basis, path)
        _patch_header(path, rb"\nt [^\n]*", b"\nt nan")
        with pytest.raises(cio.SnapshotFormatError):
            _read(kind, path, interval_basis)

    def test_trailing_bytes(self, kind, interval_basis, tmp_path):
        path = tmp_path / "f"
        _write(kind, interval_basis, path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(cio.SnapshotFormatError):
            _read(kind, path, interval_basis)

    def test_non_finite_payload(self, kind, interval_basis, tmp_path):
        path = tmp_path / "f"
        _write(kind, interval_basis, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8] + np.array([np.nan], "<f8").tobytes())
        with pytest.raises(cio.SnapshotFormatError):
            _read(kind, path, interval_basis)


def _mutations(data: bytes):
    """Truncations, single-byte flips and single-byte insertions."""
    n = len(data)
    return st.one_of(
        st.integers(0, n - 1).map(lambda i: data[:i]),
        st.tuples(st.integers(0, n - 1), st.integers(1, 255)).map(
            lambda a: data[:a[0]] + bytes([data[a[0]] ^ a[1]])
            + data[a[0] + 1:]),
        st.tuples(st.integers(0, n), st.integers(0, 255)).map(
            lambda a: data[:a[0]] + bytes([a[1]]) + data[a[0]:]),
    )


@pytest.mark.parametrize("kind", ["snapshot", "checkpoint"])
@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_damaged_files_parse_or_raise_format_errors(kind, data, tmp_path):
    basis = sp.build_basis(sp.Domain("interval", (1.0,)), 8)
    path = tmp_path / "f"  # rewritten by every example
    _write(kind, basis, path)
    path.write_bytes(data.draw(_mutations(path.read_bytes())))
    for supplied in (None, basis):
        try:
            _read(kind, path, supplied)
        except cio.SnapshotFormatError:
            pass


class TestParseConfig:
    def test_minimal_valid(self):
        config = cf.parse_config(json.dumps(small_config()))
        assert config.validation.passed
        assert config.validation.regime == "case2"
        basis = config.build_basis()
        assert basis.n_modes == 8
        state = config.build_initial_state(basis)
        assert abs(state.gamma.mean() - 0.5) < 1e-13

    def test_content_hash_ignores_duration_and_cadence(self):
        a = cf.parse_config(json.dumps(small_config()))
        b = cf.parse_config(json.dumps(small_config(T=0.5, cadence=7)))
        c = cf.parse_config(json.dumps(small_config(dt=0.002)))
        assert a.content_hash() == b.content_hash()
        assert a.content_hash() != c.content_hash()

    def test_large_chemotaxis_rejected_with_named_assumption(self):
        spec = small_config()
        spec["params"]["chi"] = 10.0
        with pytest.raises(cf.ConfigError) as err:
            cf.parse_config(json.dumps(spec))
        assert any("smallness" in v for v in err.value.violations)

    def test_negative_permeability_rejected_with_path(self):
        spec = small_config()
        spec["params"]["K"] = -1.0
        with pytest.raises(cf.ConfigError) as err:
            cf.parse_config(json.dumps(spec))
        assert any(v.startswith("$.params") for v in err.value.violations)

    def test_zero_permeability_needs_limit_mode(self):
        spec = small_config()
        spec["params"]["K"] = 0.0
        with pytest.raises(cf.ConfigError) as err:
            cf.parse_config(json.dumps(spec))
        assert any("no-flow" in v for v in err.value.violations)
        spec["limit_mode"] = "no-flow"
        config = cf.parse_config(json.dumps(spec))
        assert config.build_stepper().no_flow

    def test_unknown_key_strict_vs_lenient(self):
        spec = small_config(extra_knob=1)
        with pytest.raises(cf.ConfigError) as err:
            cf.parse_config(json.dumps(spec))
        assert any("extra_knob" in v for v in err.value.violations)
        cf.parse_config(json.dumps(spec), strict=False)

    def test_missing_key_reported_by_path(self):
        spec = small_config()
        del spec["dt"]
        with pytest.raises(cf.ConfigError) as err:
            cf.parse_config(json.dumps(spec))
        assert any("dt" in v for v in err.value.violations)

    def test_invalid_json_rejected(self):
        with pytest.raises(cf.ConfigError):
            cf.parse_config("{not json")

    def test_initial_mode_outside_basis_rejected(self):
        spec = small_config()
        spec["initial"]["phi"]["mode"] = [20]
        with pytest.raises(cf.ConfigError) as err:
            cf.parse_config(json.dumps(spec))
        assert any("$.initial.phi.mode" in v for v in err.value.violations)

    def test_random_profile_is_seed_deterministic(self):
        spec = small_config()
        spec["initial"]["phi"] = {"kind": "random", "amplitude": 0.1,
                                  "cutoff": 4, "seed": 3}
        a = cf.parse_config(json.dumps(spec))
        b = cf.parse_config(json.dumps(spec))
        basis = a.build_basis()
        sa = a.build_initial_state(basis)
        sb = b.build_initial_state(basis)
        assert np.array_equal(sa.alpha.data, sb.alpha.data)


def _reference_spec(**overrides):
    spec = json.loads(REFERENCE.read_text())
    spec["modes"] = [6, 6]  # small, so tests that build the run stay quick
    spec.update(overrides)
    return spec


def _set(spec, path, value):
    *head, last = path
    for key in head:
        spec = spec[key]
    spec[last] = value


class TestConfigFaults:
    """Every malformed value is a ConfigError naming its path."""

    @pytest.mark.parametrize("path,value", [
        (("dt",), math.nan),
        (("dt",), math.inf),
        (("T",), -math.inf),
        (("params", "K"), math.nan),
        (("domain", "lengths"), {"a": 1}),
        (("scheme", "max_halvings"), "x"),
        (("scheme", "max_halvings"), -3),
        (("seed",), -1),
        (("modes",), []),
        (("potential",), []),
        (("initial", "phi", "amplitude"), "x"),
        (("scheme", "energy_guard"), "no"),
        (("sources", "interpolated"), "yes"),
        (("domain", "lengths"), ["1.5", True]),
        (("dt",), 10 ** 400),
        (("domain", "lengths"), [10 ** 400, 1.0]),
    ], ids=["dt-nan", "dt-inf", "T-minus-inf", "K-nan", "lengths-object",
            "max-halvings-string", "max-halvings-negative", "seed-negative",
            "modes-empty", "potential-list", "profile-amplitude-string",
            "energy-guard-string", "interpolated-string",
            "lengths-string-and-bool", "dt-beyond-float-range",
            "lengths-beyond-float-range"])
    def test_rejected_with_path(self, path, value):
        spec = _reference_spec()
        _set(spec, path, value)
        with pytest.raises(cf.ConfigError) as err:
            cf.parse_config(json.dumps(spec))
        name = "$." + ".".join(path)
        assert any(v.startswith(name + ":") for v in err.value.violations)

    @pytest.mark.parametrize("path,value", [
        (("dt",), math.nan),
        (("params", "K"), math.nan),
        (("seed",), -1),
    ], ids=["dt-nan", "K-nan", "seed-negative"])
    def test_run_exits_with_config_error(self, tmp_path, capsys, path, value):
        spec = small_config()
        spec["initial"]["phi"] = {"kind": "random", "amplitude": 0.05}
        _set(spec, path, value)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(spec))
        code = cli.main(["run", "--config", str(cfg),
                         "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        assert "$." + ".".join(path) in capsys.readouterr().err

    def test_modes_above_the_cap_are_rejected(self):
        for modes in ([cf.MAX_MODES + 1, 4], cf.MAX_MODES + 1, [2 ** 70, 4]):
            with pytest.raises(cf.ConfigError) as err:
                cf.parse_config(json.dumps(_reference_spec(modes=modes)))
            assert any(v.startswith("$.modes:")
                       for v in err.value.violations), modes

    def test_cap_admits_the_shipped_sizes(self):
        for modes in ([128, 128], [cf.MAX_MODES, cf.MAX_MODES]):
            assert cf.parse_config(json.dumps(
                _reference_spec(modes=modes))).modes == tuple(modes)
        spec = _reference_spec(modes=[128])
        spec["domain"] = {"kind": "interval", "lengths": [1.0]}
        spec["initial"]["phi"]["mode"] = [1]
        spec["initial"]["sigma"]["mode"] = [1]
        assert cf.parse_config(json.dumps(spec)).modes == (128,)

    def test_validate_refuses_huge_modes_before_allocating(self, tmp_path):
        # 10^5 x 10^5 modes would need a 74.5 GiB eigenvalue array; the
        # address-space limit turns any such allocation into a failure
        spec = _reference_spec(modes=[100000, 100000])
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps(spec))
        limit = 3 * 2 ** 30

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        env = dict(_src_env(), OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-m", "chdarcy.cli", "validate", "--config",
             str(cfg)],
            env=env, capture_output=True, text=True, timeout=120,
            preexec_fn=cap_address_space)
        assert proc.returncode == cli.EXIT_CONFIG, proc.stderr
        assert "$.modes" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_volume_source_beyond_the_float_range(self):
        # its one coefficient, amplitude * (L/2) here, overflows to inf
        spec = _reference_spec()
        spec["domain"]["lengths"] = [4.0, 4.0]
        spec["gamma_v"] = {"kind": "cosine", "amplitude": 1e308,
                           "mode": [1, 1]}
        with pytest.raises(cf.ConfigError) as err:
            cf.parse_config(json.dumps(spec))
        assert any(v.startswith("$.gamma_v.amplitude:")
                   for v in err.value.violations)

    def test_huge_chemotaxis_fails_the_smallness_check(self):
        spec = _reference_spec()
        spec["params"]["chi"] = 1e308
        with pytest.raises(cf.ConfigError) as err, np.errstate(all="ignore"):
            cf.parse_config(json.dumps(spec))
        assert any("smallness" in v for v in err.value.violations)

    @pytest.fixture
    def overflowing_cosine(self, tmp_path):
        # each of mean and amplitude is finite, their sum is not
        spec = _reference_spec(modes=[8, 8])
        spec["initial"]["phi"] = {"kind": "cosine", "mean": 1e308,
                                  "amplitude": 1e308, "mode": [1, 1]}
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(spec))
        return cfg

    def test_overflowing_cosine_profile_is_refused_by_validate(
            self, overflowing_cosine, capsys):
        assert cli.main(["validate", "--config", str(overflowing_cosine)]
                        ) == cli.EXIT_CONFIG
        assert "$.initial.phi:" in capsys.readouterr().err

    def test_overflowing_cosine_profile_run_exits_cleanly(
            self, overflowing_cosine, tmp_path):
        cfg = overflowing_cosine
        proc = subprocess.run(
            [sys.executable, "-m", "chdarcy.cli", "run", "--config", str(cfg),
             "--out", str(tmp_path / "out")],
            env=_src_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == cli.EXIT_CONFIG, proc.stderr
        assert "$.initial.phi:" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["run", "sweep-k", "sweep-chi"])
    def test_overflowing_projection_is_config_error(self, tmp_path, capsys,
                                                    command):
        # |mean| is finite, but its coefficient, mean * sqrt(L), is not
        spec = small_config()
        spec["domain"]["lengths"] = [4.0]
        spec["initial"]["sigma"] = {"kind": "constant", "value": 1e308}
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(spec))
        assert cli.main(["validate", "--config", str(cfg)]) == cli.EXIT_OK
        code = cli.main([command, "--config", str(cfg),
                         "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        assert "$.initial.sigma:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", ["--seed", "--cadence"])
    def test_negative_override_is_config_error(self, tmp_path, flag):
        spec = small_config()
        spec["initial"]["phi"] = {"kind": "random", "amplitude": 0.05}
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(spec))
        code = cli.main(["run", "--config", str(cfg), flag, "-1",
                         "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG


@pytest.mark.parametrize("values,gamma_v", [
    ("1,2", None),
    ("abc", None),
    ("1,-1", None),
    ("", None),
    ("0.5,nan", None),
    ("inf,1", None),
    (None, {"kind": "cosine", "amplitude": 0.3, "mode": [1, 0]}),
], ids=["increasing", "not-a-number", "negative", "empty", "nan", "inf",
        "volume-source"])
def test_sweep_input_fault_is_config_error(tmp_path, capsys, values, gamma_v):
    spec = _reference_spec()
    if gamma_v is not None:
        spec["gamma_v"] = gamma_v
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(spec))
    out = tmp_path / "out"
    argv = ["sweep-k", "--config", str(cfg), "--out", str(out)]
    if values is not None:
        argv += ["--values", values]
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert ("--values:" if gamma_v is None else "$.gamma_v:") in err
    assert "Traceback" not in err
    assert not out.exists()


def _nodes(obj, path=()):
    """Every value's path below obj, and whether it is a dict key."""
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield path + (key,), isinstance(obj, dict)
        yield from _nodes(value, path + (key,))


_REPLACEMENTS = [math.nan, math.inf, -1, 0, "", [], {}, True, False, "1.5",
                 "no", 10 ** 400]


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_mutated_reference_config_parses_or_raises_config_error(data):
    spec = _reference_spec()
    path, is_key = data.draw(st.sampled_from(list(_nodes(spec))))
    replacement = data.draw(st.sampled_from(
        _REPLACEMENTS + (["drop"] if is_key else [])))
    *head, last = path
    parent = spec
    for key in head:
        parent = parent[key]
    if replacement == "drop":
        del parent[last]
    else:
        parent[last] = replacement
    try:
        cf.parse_config(json.dumps(spec))
    except cf.ConfigError:
        pass


class TestCli:
    def write_config(self, tmp_path, spec=None):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(spec or small_config()))
        return path

    def test_validate_ok(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        assert cli.main(["validate", "--config", str(path)]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "regime:" in out

    def test_run_writes_outputs(self, tmp_path):
        path = self.write_config(tmp_path)
        out = tmp_path / "out"
        code = cli.main(["run", "--config", str(path), "--out", str(out)])
        assert code == cli.EXIT_OK
        assert (out / "diagnostics.csv").exists()
        assert (out / "final.snap").exists()
        assert (out / "checkpoint.ckpt").exists()
        rows = cio.read_diagnostics_csv(out / "diagnostics.csv")
        assert len(rows) == 11  # initial plus 10 steps at cadence 1

    def test_run_t_zero(self, tmp_path):
        path = self.write_config(tmp_path, small_config(T=0.0))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path),
                         "--out", str(out)]) == cli.EXIT_OK
        assert len(cio.read_diagnostics_csv(out / "diagnostics.csv")) == 1

    def test_config_error_exit_code(self, tmp_path, capsys):
        spec = small_config()
        spec["params"]["chi"] = 10.0
        path = self.write_config(tmp_path, spec)
        assert cli.main(["validate", "--config", str(path)]) == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_missing_config_is_io_failure(self, tmp_path):
        assert cli.main(["validate", "--config",
                         str(tmp_path / "nope.json")]) == cli.EXIT_IO

    def test_resume_reproduces_full_run(self, tmp_path):
        full_cfg = self.write_config(tmp_path, small_config(T=0.01))
        half_cfg = tmp_path / "half.json"
        half_cfg.write_text(json.dumps(small_config(T=0.005)))

        full_out = tmp_path / "full"
        half_out = tmp_path / "half"
        rest_out = tmp_path / "rest"
        assert cli.main(["run", "--config", str(full_cfg),
                         "--out", str(full_out)]) == cli.EXIT_OK
        assert cli.main(["run", "--config", str(half_cfg),
                         "--out", str(half_out)]) == cli.EXIT_OK
        assert cli.main(["resume", "--config", str(full_cfg),
                         "--checkpoint", str(half_out / "checkpoint.ckpt"),
                         "--out", str(rest_out)]) == cli.EXIT_OK

        merged = (cio.read_diagnostics_csv(half_out / "diagnostics.csv")
                  + cio.read_diagnostics_csv(rest_out / "diagnostics.csv"))
        assert merged == cio.read_diagnostics_csv(full_out / "diagnostics.csv")
        assert (rest_out / "final.snap").read_bytes() \
            == (full_out / "final.snap").read_bytes()

    def test_resume_hash_mismatch_is_config_error(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg),
                         "--out", str(out)]) == cli.EXIT_OK
        other = tmp_path / "other.json"
        other.write_text(json.dumps(small_config(dt=0.002)))
        code = cli.main(["resume", "--config", str(other),
                         "--checkpoint", str(out / "checkpoint.ckpt"),
                         "--out", str(tmp_path / "r")])
        assert code == cli.EXIT_CONFIG

    def test_resume_missing_checkpoint_is_io_failure(self, tmp_path):
        cfg = self.write_config(tmp_path)
        code = cli.main(["resume", "--config", str(cfg),
                         "--checkpoint", str(tmp_path / "nope.ckpt"),
                         "--out", str(tmp_path / "r")])
        assert code == cli.EXIT_IO

    @pytest.mark.parametrize("damage", [
        lambda raw: raw.replace(b"\nconfig ", b"\nconfig \xff", 1),
        lambda raw: re.sub(rb"\nt [^\n]*", b"\nt nan", raw, count=1),
        lambda raw: raw + b"trailing",
    ], ids=["non-ascii-config-line", "nan-time", "trailing-bytes"])
    def test_resume_damaged_checkpoint_is_io_failure(self, tmp_path, capsys,
                                                     damage):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg),
                         "--out", str(out)]) == cli.EXIT_OK
        ckpt = out / "checkpoint.ckpt"
        ckpt.write_bytes(damage(ckpt.read_bytes()))
        capsys.readouterr()
        code = cli.main(["resume", "--config", str(cfg),
                         "--checkpoint", str(ckpt),
                         "--out", str(tmp_path / "r")])
        assert code == cli.EXIT_IO
        assert "I/O failure" in capsys.readouterr().err

    def test_sweep_chi_writes_table(self, tmp_path):
        cfg = self.write_config(tmp_path, small_config(T=0.005))
        out = tmp_path / "sweep"
        code = cli.main(["sweep-chi", "--config", str(cfg), "--out", str(out),
                         "--values", "0.4,0.2"])
        assert code == cli.EXIT_OK
        lines = (out / "sweep_chi.csv").read_text().strip().splitlines()
        assert lines[0].startswith("value,")
        assert len(lines) == 3

    def test_seed_override_changes_random_profile(self, tmp_path):
        # no per-profile seed here, so the run-level seed is what varies
        spec = small_config(T=0.0)
        spec["initial"]["phi"] = {"kind": "random", "amplitude": 0.1,
                                  "cutoff": 4}
        cfg = self.write_config(tmp_path, spec)
        outs = []
        for seed in ("10", "11"):
            out = tmp_path / f"o{seed}"
            assert cli.main(["run", "--config", str(cfg), "--out", str(out),
                             "--seed", seed]) == cli.EXIT_OK
            outs.append((out / "final.snap").read_bytes())
        assert outs[0] != outs[1]


REFERENCE = Path(__file__).resolve().parents[1] / "configs" / "reference.json"


def test_cli_import_leaves_scipy_out():
    code = "import sys, chdarcy.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_reference_run_leaves_openssl_out(tmp_path):
    # the checkpoint id is hashed without hashlib, so a run whose initial
    # data needs no numpy.random never maps OpenSSL
    spec = json.loads(REFERENCE.read_text())
    spec["T"] = 3 * spec["dt"]
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(spec))
    code = (
        "import sys\n"
        "from chdarcy import cli\n"
        f"code = cli.main(['run', '--config', {str(cfg)!r}, "
        f"'--out', {str(tmp_path / 'out')!r}])\n"
        "print(code, sorted({'_hashlib', 'ssl'} & set(sys.modules)))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == f"{cli.EXIT_OK} []"
    assert (tmp_path / "out" / "checkpoint.ckpt").exists()


class TestContentHash:
    """The checkpoint id is the first 16 hex digits of SHA-256, so
    checkpoints written with hashlib's digest still resume."""

    def test_reference_hash_is_pinned(self):
        config = cf.parse_config(REFERENCE.read_text())
        assert config.content_hash() == "9d5ba3f43150d0f5"

    @pytest.mark.parametrize("path,value", [
        (("dt",), 5e-4),
        (("modes",), [16, 16]),
        (("params", "chi"), 0.02),
        (("initial", "phi"), {"kind": "random", "amplitude": 0.05}),
        (("seed",), 7),
    ], ids=["dt", "modes", "chi", "random-phi", "seed"])
    def test_matches_hashlib(self, path, value):
        spec = json.loads(REFERENCE.read_text())
        _set(spec, path, value)
        body = {k: v for k, v in spec.items()
                if k not in ("T", "cadence", "output_dir")}
        text = json.dumps(body, sort_keys=True, separators=(",", ":"))
        expect = hashlib.sha256(text.encode()).hexdigest()[:16]
        assert cf.parse_config(json.dumps(spec)).content_hash() == expect


def _src_env():
    src = str(Path(chdarcy.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


class TestProcessExit:
    """The CLI as a process: its exit skips the final collections of the
    run's leftovers (gc.freeze at exit) and loses nothing by it."""

    OUTPUTS = ("diagnostics.csv", "final.snap", "checkpoint.ckpt")

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("exit")
        cfg = root / "run.json"
        cfg.write_text(json.dumps(small_config()))
        sub_out, own_out = root / "process", root / "in-process"
        proc = subprocess.run(
            [sys.executable, "-m", "chdarcy.cli", "run", "--config", str(cfg),
             "--out", str(sub_out)],
            env=_src_env(), capture_output=True, text=True)
        code = cli.main(["run", "--config", str(cfg), "--out", str(own_out)])
        return proc, sub_out, code, own_out

    def test_process_exits_cleanly_with_its_summary(self, runs):
        proc, sub_out, _, _ = runs
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        assert proc.stdout == f"wrote 11 diagnostics rows to {sub_out}\n"

    def test_process_outputs_match_an_in_process_run(self, runs):
        _, sub_out, code, own_out = runs
        assert code == cli.EXIT_OK
        for name in self.OUTPUTS:
            assert (sub_out / name).read_bytes() == \
                (own_out / name).read_bytes(), name

    def test_nothing_is_frozen_while_the_process_runs(self, runs):
        assert runs[2] == cli.EXIT_OK
        assert gc.get_freeze_count() == 0


def test_mms_ignores_the_volume_source(tmp_path, capsys):
    spec = json.loads(REFERENCE.read_text())
    outputs = []
    for gamma_v in ({"kind": "zero"},
                    {"kind": "cosine", "amplitude": 0.3, "mode": [1, 0]}):
        spec["gamma_v"] = gamma_v
        path = tmp_path / "mms.json"
        path.write_text(json.dumps(spec))
        assert cli.main(["mms", "--config", str(path)]) == cli.EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert "temporal slope" in outputs[0]
    assert outputs[0] == outputs[1]
