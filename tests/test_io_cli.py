import ast
import csv
import dataclasses
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
from chdarcy import experiments as ex
from chdarcy import io as cio
from chdarcy import model as md
from chdarcy import spectral as sp

import oracles
from conftest import make_model, random_state, traced_peak


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
        collector = dg.DiagnosticsCollector()
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
            assert row == rec

    def test_bytes_are_those_of_csv_writer(self, interval_basis, tmp_path):
        # the one-format-per-row writer against csv.writer over
        # cells formatted one by one, on a run's rows and on edge values
        n = len(dg.CSV_COLUMNS)
        edge = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                1.7976931348623157e308, 0.1, 1 / 3]
        rows = [*self.collect(interval_basis), np.resize(edge, n),
                np.arange(n), [np.float64(x) for x in np.resize(edge, n)]]
        path = tmp_path / "diag.csv"
        cio.write_diagnostics_csv(rows, path)
        expected = tmp_path / "expected.csv"
        with expected.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(dg.CSV_COLUMNS)
            writer.writerows([f"{float(x):.17g}" for x in row]
                             for row in rows)
        assert path.read_bytes() == expected.read_bytes()

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

    @pytest.mark.parametrize("after_magic", [False, True],
                             ids=["first-line", "after-magic"])
    def test_newline_free_file_is_refused_unread(self, kind, after_magic,
                                                 tmp_path):
        # a header line is read no further than MAX_HEADER_LINE bytes, so
        # a large file without a newline is refused without being loaded
        magic = cio.SNAPSHOT_MAGIC if kind == "snapshot" \
            else cio.CHECKPOINT_MAGIC
        path = tmp_path / "f"
        path.write_bytes((magic.encode() + b"\n" if after_magic else b"")
                         + bytes(4 << 20))

        def refused():
            with pytest.raises(cio.SnapshotFormatError):
                _read(kind, path)

        assert traced_peak(refused) < 64 * 1024

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
        assert abs(oracles.mean(state.gamma) - 0.5) < 1e-13

    @pytest.mark.parametrize("limit_mode", ["none", "no-chemotaxis"])
    def test_model_is_built_once(self, count_calls, limit_mode):
        # parse_config builds the potential and the sources once, to
        # check the hypotheses on them, and each build_model reuses them
        spec = json.loads(REFERENCE.read_text())
        spec["limit_mode"] = limit_mode
        potentials = count_calls(md.Potential, "__init__")
        sources = count_calls(md.SourceModel, "__init__")
        config = cf.parse_config(json.dumps(spec))
        basis = config.build_basis()
        models = [config.build_model(basis) for _ in range(2)]
        assert len(potentials) == len(sources) == 1
        assert all(m.sources is config.model.sources for m in models)

    def test_configuration_values_are_frozen(self):
        config = cf.parse_config(json.dumps(small_config()))
        spec = ex.SweepSpec("K", (1.0, 0.5), config.stepper, config.T)
        for obj, name, value in [(config, "seed", 7), (config, "cadence", 2),
                                 (config.stepper, "dt", 0.5),
                                 (config.model, "mobility_m", 2.0),
                                 (spec, "T", 1.0)]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, value)

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
        for K in (0.0, 1.0):
            spec["params"]["K"] = K
            config = cf.parse_config(json.dumps(spec))
            assert config.build_model(config.build_basis()).params.K == 0.0

    def test_no_flow_refuses_a_volume_source(self):
        # at K = 0, v = 0 and div v = Gamma_v cannot hold
        spec = small_config(limit_mode="no-flow")
        spec["gamma_v"] = {"kind": "cosine", "amplitude": 0.3, "mode": [1]}
        with pytest.raises(cf.ConfigError) as err:
            cf.parse_config(json.dumps(spec))
        assert [v for v in err.value.violations
                if v.startswith("$.gamma_v:")] == [
            "$.gamma_v: the no-flow limit (K = 0, v = 0) needs a zero "
            "volume source"]
        spec["gamma_v"]["amplitude"] = 0.0
        cf.parse_config(json.dumps(spec))
        spec["gamma_v"] = {"kind": "cosine", "amplitude": 0.3, "mode": [1]}
        for limit_mode in ("none", "no-chemotaxis"):
            cf.parse_config(json.dumps(dict(spec, limit_mode=limit_mode)))

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
        (("initial", "phi", "mode"), [True, True]),
        (("gamma_v", "mode"), [True, False]),
    ], ids=["dt-nan", "dt-inf", "T-minus-inf", "K-nan", "lengths-object",
            "max-halvings-string", "max-halvings-negative", "seed-negative",
            "modes-empty", "potential-list", "profile-amplitude-string",
            "energy-guard-string", "interpolated-string",
            "lengths-string-and-bool", "dt-beyond-float-range",
            "lengths-beyond-float-range", "profile-mode-bools",
            "volume-source-mode-bools"])
    def test_rejected_with_path(self, path, value):
        spec = _reference_spec()
        if path[0] == "gamma_v":  # a volume source whose mode is spoilt
            spec["gamma_v"] = {"kind": "cosine", "amplitude": 0.1,
                               "mode": [1, 0]}
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

    def test_halvings_above_the_cap_are_rejected(self, tmp_path, capsys):
        for halvings, code in ((cf.MAX_HALVINGS, cli.EXIT_OK),
                               (cf.MAX_HALVINGS + 1, cli.EXIT_CONFIG)):
            spec = _reference_spec()
            spec["scheme"]["max_halvings"] = halvings
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps(spec))
            assert cli.main(["validate", "--config", str(cfg)]) == code
        assert ("config error: $.scheme.max_halvings: must be <= 16"
                in capsys.readouterr().err)

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
    def test_negative_override_is_config_error(self, tmp_path, capsys, flag):
        spec = small_config()
        spec["initial"]["phi"] = {"kind": "random", "amplitude": 0.05}
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(spec))
        code = cli.main(["run", "--config", str(cfg), flag, "-1",
                         "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"config error: $.{flag[2:]}: ")


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


def _schema_slots(schema, path=(), sections=()):
    """Every key path of a config schema, with its field and the sections
    that make it live: each variant's keys under each of its kinds, that
    kind's section holding a valid value in every required key."""
    valid = {"number": lambda f: 0.5, "int": lambda f: f.arg,
             "bool": lambda f: False, "mode": lambda f: [1, 1]}
    for key, field in schema.items():
        where = path + (key,)
        yield where, field, sections
        if field.kind == "object":
            yield from _schema_slots(field.arg, where, sections)
        elif field.kind == "variant":
            yield where + ("kind",), cf._Field("choice", ()), sections
            for kind, fields in field.arg.items():
                section = {"kind": kind}
                section.update((k, valid[f.kind](f)) for k, f in fields.items()
                               if f.default is cf._REQUIRED)
                yield from _schema_slots(fields, where,
                                         sections + ((where, section),))


_SCHEMA_SLOTS = list(_schema_slots(cf._SCHEMA))

# wrong-typed values per kind; a boolean is among the draws of every int
# and mode slot
_WRONG = {
    "number": ["1.5", True, None, [], {}, math.nan],
    "int": [True, False, 1.5, "1", None],
    "bool": [0, 1, "true", None],
    "choice": [1, True, None, "no-such", []],
    "numbers": [1.0, [True, 1.0], ["1", 1.0], None],
    "modes": [True, [True, True], [6.0, 6], "6", None],
    "mode": [True, [True, True], [True, False], [1.5, 1], "1", None],
    "object": [True, 1, [], "x", None],
    "variant": [True, 1, [], "x", None],
}


def test_schema_slots_reach_every_variant():
    keys = {path[-1] for path, _, _ in _SCHEMA_SLOTS}
    assert {"cutoff", "seed", "width", "lambda_p", "lambda_a", "lambda_c",
            "kappa", "max_halvings", "interpolated"} <= keys
    assert {field.kind for _, field, _ in _SCHEMA_SLOTS} == set(_WRONG)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_wrong_typed_schema_value_is_refused_by_path(data):
    path, field, sections = data.draw(st.sampled_from(_SCHEMA_SLOTS))
    value = data.draw(st.sampled_from(_WRONG[field.kind]))
    spec = _reference_spec()
    for where, section in sections:
        _set(spec, where, section)
    _set(spec, path, value)
    with pytest.raises(cf.ConfigError) as err:
        cf.parse_config(json.dumps(spec))
    name = "$." + ".".join(path)
    assert any(v.startswith(name + ":") for v in err.value.violations)


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

    def test_validate_output_of_the_reference_config(self, capsys):
        assert cli.main(["validate", "--config", str(REFERENCE)]
                        ) == cli.EXIT_OK
        assert capsys.readouterr().out == (
            "regime: case2\n"
            "[PASS] A1 positive constants: all strictly positive\n"
            "[PASS] A2 mobility m bounds: 1.0 <= m <= 1.0\n"
            "[PASS] A2 mobility n bounds: 1.0 <= n <= 1.0\n"
            "[PASS] A3 theta bounded by R0\n"
            "[PASS] A3 theta_S bounded by R0\n"
            "[PASS] A3 lambda_phi linear growth\n"
            "[PASS] A3 lambda_S linear growth\n"
            "[PASS] A3 theta_phi nonnegative\n"
            "[PASS] A5 psi nonnegative\n"
            "[PASS] A5 psi lower bound: psi >= 0.125*t^2 - 0.140625\n"
            "[PASS] A5 growth regime: classified as case2; presets are one "
            "admissible choice of the interpolation functions\n"
            "[PASS] A5 chemotaxis smallness A > 2 chi^2 / (D R1): A = 1.0, "
            "2 chi^2/(D R1) = 0.04\n")

    def test_validate_reports_the_mobility_bounds(self, tmp_path, capsys):
        spec = json.loads(REFERENCE.read_text())
        spec["mobility"] = {"m": 0.7, "n": 1.3}
        path = self.write_config(tmp_path, spec)
        assert cli.main(["validate", "--config", str(path)]) == cli.EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert "[PASS] A2 mobility m bounds: 0.7 <= m <= 0.7" in lines
        assert "[PASS] A2 mobility n bounds: 1.3 <= n <= 1.3" in lines

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

    def test_resume_evaluates_each_state_once(self, tmp_path, count_calls):
        full_cfg = self.write_config(tmp_path, small_config(T=0.01))
        half_cfg = tmp_path / "half.json"
        half_cfg.write_text(json.dumps(small_config(T=0.004)))
        half_out = tmp_path / "half"
        assert cli.main(["run", "--config", str(half_cfg),
                         "--out", str(half_out)]) == cli.EXIT_OK
        calls = count_calls(md, "evaluate_sources")
        assert cli.main(["resume", "--config", str(full_cfg),
                         "--checkpoint", str(half_out / "checkpoint.ckpt"),
                         "--out", str(tmp_path / "rest")]) == cli.EXIT_OK
        assert len(calls) == 6 + 1  # the checkpointed state and 6 steps

    def test_resume_at_its_horizon_writes_no_row(self, tmp_path):
        cfg = self.write_config(tmp_path, small_config(T=0.005))
        first, again = tmp_path / "first", tmp_path / "again"
        assert cli.main(["run", "--config", str(cfg),
                         "--out", str(first)]) == cli.EXIT_OK
        assert cli.main(["resume", "--config", str(cfg),
                         "--checkpoint", str(first / "checkpoint.ckpt"),
                         "--out", str(again)]) == cli.EXIT_OK
        assert cio.read_diagnostics_csv(again / "diagnostics.csv") == []
        for name in ("final.snap", "checkpoint.ckpt"):
            assert (again / name).read_bytes() == (first / name).read_bytes()

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

    def test_resume_into_its_checkpoint_directory_is_refused(self, tmp_path,
                                                             capsys):
        # its outputs would replace the run it continues
        cfg = self.write_config(tmp_path)
        out = tmp_path / "o"
        assert cli.main(["run", "--config", str(cfg),
                         "--out", str(out)]) == cli.EXIT_OK
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        for target in (out, out / "." / ".." / "o"):
            code = cli.main(["resume", "--config", str(cfg),
                             "--checkpoint", str(out / "checkpoint.ckpt"),
                             "--out", str(target)])
            assert code == cli.EXIT_CONFIG
            assert "config error: --out:" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_resume_newline_free_checkpoint_is_io_failure(self, tmp_path):
        cfg = self.write_config(tmp_path)
        ckpt = tmp_path / "large.ckpt"
        ckpt.write_bytes(bytes(4 << 20))
        code = cli.main(["resume", "--config", str(cfg),
                         "--checkpoint", str(ckpt),
                         "--out", str(tmp_path / "r")])
        assert code == cli.EXIT_IO

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

    @pytest.mark.parametrize("key,value", [("seed", 7), ("cadence", 2)])
    def test_override_is_the_configs_own_value(self, tmp_path, key, value):
        spec = small_config()
        spec["initial"]["phi"] = {"kind": "random", "amplitude": 0.1}
        outs = {}
        for name, file_value, argv in [("flag", 1, [f"--{key}", str(value)]),
                                       ("file", value, [])]:
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps(dict(spec, **{key: file_value})))
            out = tmp_path / name
            assert cli.main(["run", "--config", str(cfg), "--out", str(out),
                             *argv]) == cli.EXIT_OK
            outs[name] = [(out / f).read_bytes() for f in
                          ("diagnostics.csv", "final.snap", "checkpoint.ckpt")]
        assert outs["flag"] == outs["file"]
        # the checkpoint of the overridden run resumes under the file
        checkpoint = tmp_path / "flag" / "checkpoint.ckpt"
        assert cli.main(["resume", "--config", str(tmp_path / "file.json"),
                         "--checkpoint", str(checkpoint),
                         "--out", str(tmp_path / "rest")]) == cli.EXIT_OK

    def test_cadence_override_replaces_an_invalid_file_value(self, tmp_path):
        cfg = self.write_config(tmp_path, small_config(cadence=0))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out),
                         "--cadence", "2"]) == cli.EXIT_OK
        assert len(cio.read_diagnostics_csv(out / "diagnostics.csv")) == 6


REFERENCE = Path(__file__).resolve().parents[1] / "configs" / "reference.json"


@pytest.mark.parametrize("module", ["cli", "config", "diagnostics",
                                    "dynamics", "experiments", "io",
                                    "model", "spectral"])
def test_cli_import_leaves_scipy_out(module):
    # the tests' directory is on the path, so a package module that
    # imported the oracles would find them and show here
    env = _src_env()
    env["PYTHONPATH"] += os.pathsep + str(Path(__file__).resolve().parent)
    code = (f"import sys, chdarcy.{module}; print(sorted(m for m in "
            "sys.modules if m.split('.')[0] in ('scipy', 'oracles')))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
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


@pytest.mark.parametrize("spec", [
    {},
    small_config(sources={"kind": "proliferation", "lambda_p": "x",
                          "lambda_a": "y", "lambda_c": "z"}),
], ids=["empty", "bad-source-values"])
def test_config_errors_in_a_fixed_order(tmp_path, spec):
    # the order of the errors does not follow string hashing
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(spec))
    errs = []
    for seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "chdarcy.cli", "validate",
             "--config", str(cfg)],
            env=dict(_src_env(), PYTHONHASHSEED=seed), capture_output=True,
            text=True, timeout=120)
        assert proc.returncode == cli.EXIT_CONFIG
        errs.append(proc.stderr)
    assert errs[0].count("config error:") >= 3
    assert errs[0] == errs[1]


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


def test_mms_forces_each_distinct_time_once(capsys, count_calls):
    # RK4's two middle stages share t + dt/2 and its last stage is the
    # next step's first: 1 + 2n forcings per RK4 run, n per IMEX run
    calls = count_calls(ex, "_forcing")
    assert cli.main(["mms", "--config", str(REFERENCE)]) == cli.EXIT_OK
    assert "temporal slope" in capsys.readouterr().out
    assert len(calls) <= 1800


@pytest.mark.parametrize("T", [100, 60],
                         ids=["state-overflow", "diagnostics-overflow"])
def test_numerical_failure_prints_one_line_and_writes_nothing(tmp_path,
                                                              capsys, T):
    # dt = 10 on the reference model: every state up to t = 60 is finite,
    # but the t = 60 diagnostics overflow, and later states do too
    spec = json.loads(REFERENCE.read_text())
    spec.update(modes=[8, 8], dt=10, T=T)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg),
                     "--out", str(out)]) == cli.EXIT_NUMERICAL
    assert re.fullmatch(r"numerical failure at t=[^\n]*\n",
                        capsys.readouterr().err)
    assert not out.exists()


def _mms(tmp_path, section, key, value):
    """Run `chdarcy mms` on the reference config with one value changed."""
    spec = json.loads(REFERENCE.read_text())
    spec[section][key] = value
    cfg = tmp_path / "mms.json"
    cfg.write_text(json.dumps(spec))
    return cli.main(["mms", "--config", str(cfg)])


def test_mms_blow_up_prints_one_line(tmp_path, capsys):
    # f0 = 1e3 passes validate, but the IMEX runs of the temporal study
    # leave the float range
    assert _mms(tmp_path, "sources", "f0", 1e3) == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert re.fullmatch(r"numerical failure at t=[^\n]*\n", err)
    assert "Traceback" not in err


def test_mms_spatial_step_follows_the_model(tmp_path, capsys):
    # at B = 0.1 a fixed RK4 step of 5e-4 is unstable on the order-5
    # basis: the runs stay finite but the resolved error reads 2e-1
    assert _mms(tmp_path, "params", "B", 0.1) == cli.EXIT_OK
    out = capsys.readouterr().out
    resolved = re.search(r"resolved spatial error: (\S+)", out).group(1)
    assert float(resolved) < 1e-10


def test_mms_refuses_a_spatial_study_too_stiff_to_step(tmp_path, capsys,
                                                       count_calls):
    # A = 1e4 would need about 330 000 RK4 steps per basis: refused at
    # t = 0 with one line, before any run is stepped
    runs = count_calls(ex, "run_manufactured")
    assert _mms(tmp_path, "params", "A", 1e4) == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert re.fullmatch(r"numerical failure at t=0\.0: [^\n]*\n", err)
    assert not runs


def test_resume_from_a_state_that_cannot_be_evaluated(tmp_path, capsys):
    # every payload value is finite, but the potential at phi * 1e120
    # overflows, so the restored state cannot be evaluated
    config = cf.parse_config(REFERENCE.read_text())
    basis = config.build_basis()
    start = config.build_initial_state(basis)
    state = dyn.SimState(start.t, sp.FieldCoeffs(basis,
                                                 start.alpha.data * 1e120),
                         start.gamma)
    ckpt = tmp_path / "checkpoint.ckpt"
    cio.write_checkpoint(
        cio.Checkpoint(config.content_hash(), state, np.zeros(4)), ckpt)
    out = tmp_path / "out"
    assert cli.main(["resume", "--config", str(REFERENCE),
                     "--checkpoint", str(ckpt),
                     "--out", str(out)]) == cli.EXIT_NUMERICAL
    assert re.fullmatch(r"numerical failure at t=[^\n]*\n",
                        capsys.readouterr().err)
    assert not out.exists()


# Every command under every limit mode: the limit systems are the full
# system at chi = 0 and at K = 0, so each command runs each of them.
LIMIT_CELLS = [("none", 1.0), ("no-chemotaxis", 1.0), ("no-flow", 1.0),
               ("no-flow", 0.0)]


def _limit_config(limit_mode, K, gamma_v=False, T=0.004):
    spec = small_config(modes=[12], T=T, limit_mode=limit_mode)
    spec["params"]["K"] = K
    if gamma_v:
        spec["gamma_v"] = {"kind": "cosine", "amplitude": 0.3, "mode": [1]}
    return spec


@pytest.mark.parametrize("command", ["validate", "run", "resume", "sweep-k",
                                     "sweep-chi", "mms"])
@pytest.mark.parametrize("gamma_v", [False, True],
                         ids=["no-source", "cosine-source"])
@pytest.mark.parametrize("limit_mode,K", LIMIT_CELLS,
                         ids=[f"{m}-K{K:g}" for m, K in LIMIT_CELLS])
def test_every_command_runs_every_limit_mode(tmp_path, capsys, limit_mode, K,
                                             gamma_v, command):
    spec = _limit_config(limit_mode, K, gamma_v)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(spec))
    argv = [command, "--config", str(cfg)]
    if command not in ("validate", "mms"):
        argv += ["--out", str(tmp_path / "out")]
    if command.startswith("sweep"):
        argv += ["--values", "1,0.5"]
    # the permeability sweep compares against a limit with no volume
    # source, and the no-flow limit has none for any command
    refused = gamma_v and (command == "sweep-k" or limit_mode == "no-flow")
    expected = cli.EXIT_CONFIG if refused else cli.EXIT_OK
    if command == "resume":
        half = tmp_path / "half.json"
        half.write_text(json.dumps(dict(spec, T=0.002)))
        assert cli.main(["run", "--config", str(half),
                         "--out", str(tmp_path / "half")]) == expected
        argv += ["--checkpoint", str(tmp_path / "half" / "checkpoint.ckpt")]
    assert cli.main(argv) == expected
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if refused:
        assert "$.gamma_v:" in err


# sources that vanish without being spelled "zero"
NO_SOURCE_SPELLINGS = {
    "hawkins-f0-0": {"sources": {"kind": "hawkins", "f0": 0.0}},
    "proliferation-0": {"sources": {"kind": "proliferation", "lambda_p": 0.0,
                                    "lambda_a": 0.0, "lambda_c": 0.0}},
    "gamma_v-amplitude-0": {"gamma_v": {"kind": "cosine", "amplitude": 0.0,
                                        "mode": [1]}},
}


@pytest.mark.parametrize("spelling", sorted(NO_SOURCE_SPELLINGS))
def test_energy_guard_holds_for_every_vanishing_source(tmp_path, spelling):
    # a start far from equilibrium at a step the guard must halve
    spec = small_config(modes=[16], dt=0.03, T=0.12,
                        limit_mode="no-chemotaxis", sources={"kind": "zero"},
                        scheme={"name": "imex1", "energy_guard": True,
                                "tol_E": 0.0, "max_halvings": 8})
    spec["params"]["b"] = 0.0
    spec["initial"]["phi"] = {"kind": "random", "amplitude": 1.5, "cutoff": 8}
    outs = []
    for name, extra in [("zero", {}),
                        (spelling, NO_SOURCE_SPELLINGS[spelling])]:
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(dict(spec, **extra)))
        out = tmp_path / name
        assert cli.main(["run", "--config", str(cfg),
                         "--out", str(out)]) == cli.EXIT_OK
        outs.append([(out / f).read_bytes()
                     for f in ("diagnostics.csv", "final.snap")])
    rows = cio.read_diagnostics_csv(tmp_path / "zero" / "diagnostics.csv")
    energies = [dg.DiagnosticsRow._make(r).E_total for r in rows]
    assert all(b < a for a, b in zip(energies, energies[1:]))
    assert outs[1] == outs[0]


def test_sweep_k_takes_a_zero_amplitude_volume_source(tmp_path):
    tables = []
    for gamma_v in ({"kind": "zero"},
                    {"kind": "cosine", "amplitude": 0.0, "mode": [1]}):
        cfg = tmp_path / f"{gamma_v['kind']}.json"
        cfg.write_text(json.dumps(small_config(T=0.004, gamma_v=gamma_v)))
        out = tmp_path / gamma_v["kind"]
        assert cli.main(["sweep-k", "--config", str(cfg), "--out", str(out),
                         "--values", "1,0.5"]) == cli.EXIT_OK
        tables.append((out / "sweep_k.csv").read_bytes())
    assert tables[0] == tables[1]


def test_no_flow_sweep_chi_has_zero_velocity(tmp_path):
    # under "no-flow" every member and the limit run are K = 0 models,
    # whatever K the config gives
    tables = []
    for K in (1.0, 0.0):
        cfg = tmp_path / f"K{K:g}.json"
        cfg.write_text(json.dumps(_limit_config("no-flow", K, T=0.01)))
        out = tmp_path / f"out-K{K:g}"
        assert cli.main(["sweep-chi", "--config", str(cfg),
                         "--out", str(out)]) == cli.EXIT_OK
        tables.append((out / "sweep_chi.csv").read_bytes())
    rows = list(csv.DictReader(tables[0].decode().splitlines()))
    assert len(rows) == len(cli.SWEEPS["sweep-chi"][1])
    for r in rows:
        assert float(r["v_l2l2"]) == 0.0 and float(r["v_scaled"]) == 0.0
    assert tables[0] == tables[1]


@pytest.mark.parametrize("command", ["sweep-k", "sweep-chi"])
def test_sweep_steps_with_the_config_scheme(tmp_path, command):
    # RK4 is stable at this dt on the 8-mode interval
    tables = []
    for i, scheme in enumerate(({}, {"kappa": 50}, {"name": "rk4-explicit"})):
        cfg = tmp_path / f"s{i}.json"
        cfg.write_text(json.dumps(small_config(dt=2e-4, T=0.004,
                                               scheme=scheme)))
        out = tmp_path / f"out{i}"
        assert cli.main([command, "--config", str(cfg), "--out", str(out),
                         "--values", "1,0.5"]) == cli.EXIT_OK
        tables.append((out / cli.SWEEPS[command][2]).read_bytes())
    assert len(set(tables)) == 3


@pytest.mark.parametrize("command", ["run", "sweep-k", "sweep-chi"])
def test_failing_limit_run_exits_as_run_does(tmp_path, capsys, command):
    # RK4 beyond its stability bound: the run, and a sweep's limit run,
    # blow up
    cfg = tmp_path / "rk4.json"
    cfg.write_text(json.dumps(small_config(
        dt=1e-2, T=0.2, scheme={"name": "rk4-explicit"})))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfg),
                     "--out", str(out)]) == cli.EXIT_NUMERICAL
    assert "numerical failure at t=" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "resume", "sweep-k", "sweep-chi"])
def test_commands_step_through_the_run_attribute(tmp_path, count_calls,
                                                 command):
    # perfbench ends a command's setup_s at its first entry into
    # dynamics.run, found through the module attribute; a command that
    # stepped without it would be counted as failed
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(small_config()))
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    if command == "resume":
        half = tmp_path / "half.json"
        half.write_text(json.dumps(small_config(T=0.005)))
        assert cli.main(["run", "--config", str(half),
                         "--out", str(tmp_path / "half")]) == cli.EXIT_OK
        argv += ["--checkpoint", str(tmp_path / "half" / "checkpoint.ckpt")]
    runs = count_calls(dyn, "run")
    assert cli.main(argv) == cli.EXIT_OK
    assert runs


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _script_constant(script: str, name: str):
    """The literal a benchmark script assigns to name, read without
    importing the script."""
    tree = ast.parse((PERFBENCH / script).read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise KeyError(f"{script} assigns no {name}")


def test_benchmark_hooks_resolve():
    # the benchmark's traced pass wraps the METHODS of child.py, which
    # fails with an AttributeError on a name the package lost, and reads
    # its layer metrics from the spans named in run.py.  SWEEPS,
    # norm_suite, boundary_mass_matrix and experiments.member name
    # functions that are gone from the package; transforms and
    # config.build name groups of spans.  None of them is checked here
    methods = _script_constant("child.py", "METHODS")
    for layer, cls, attr in methods:
        owner = getattr(getattr(chdarcy, layer), cls)
        assert callable(getattr(owner, attr, None)), f"{layer}.{cls}.{attr}"
    wrapped = {f"{layer}.{attr}" for layer, _, attr in methods}
    names = [name for constant in ("TRANSFORMS", "CONFIG_BUILDS", "STEPPERS")
             for name in _script_constant("run.py", constant)]
    names += [f"io.{name}" for name in _script_constant("run.py", "IO_CALLS")]
    # each per-layer metric <layer>.<name>.<stat> of a package module
    # reads the spans of that module's callable, or of a wrapped method
    layers = _script_constant("child.py", "LAYERS")
    skipped = {"spectral.transforms", "spectral.boundary_mass_matrix",
               "diagnostics.norm_suite", "experiments.member", "config.build"}
    spans = {key.rsplit(".", 1)[0]
             for key in _script_constant("run.py", "PER_LAYER")
             if key.count(".") == 2 and key.split(".")[0] in layers}
    assert "model.evaluate_sources" in spans
    names += sorted(spans - skipped)
    for name in names:
        layer, attr = name.split(".")
        assert name in wrapped or callable(
            getattr(getattr(chdarcy, layer), attr, None)), name


COMMANDS =["validate", "run", "resume", "sweep-k", "sweep-chi", "mms"]


def _argv(command, cfg, tmp_path):
    argv = [command, "--config", str(cfg)]
    if command not in ("validate", "mms"):
        argv += ["--out", str(tmp_path / "out")]
    if command == "resume":
        argv += ["--checkpoint", str(tmp_path / "checkpoint.ckpt")]
    return argv


@pytest.mark.parametrize("command", COMMANDS)
def test_config_that_is_not_utf8_is_config_error(tmp_path, capsys, command):
    cfg = tmp_path / "run.json"
    cfg.write_bytes(b"\xff\xfe{")
    assert cli.main(_argv(command, cfg, tmp_path)) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error: $: not UTF-8" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", COMMANDS)
def test_overflowing_step_count_is_config_error(tmp_path, capsys, command):
    # T / dt overflows to inf, which no step count can be
    spec = json.loads(REFERENCE.read_text())
    spec.update(dt=1e-300, T=1e10)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(spec))
    assert cli.main(_argv(command, cfg, tmp_path)) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error: $.T:" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", COMMANDS)
def test_step_count_above_the_cap_is_config_error(tmp_path, capsys, command):
    # T / dt = 1e290 is finite but would run for ages and write nothing
    spec = json.loads(REFERENCE.read_text())
    spec.update(dt=1e-300, T=1e-10)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(spec))
    assert cli.main(_argv(command, cfg, tmp_path)) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error: $.T:" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_step_count_cap_is_inclusive():
    spec = json.loads(REFERENCE.read_text())
    spec.update(dt=1.0, T=float(cf.MAX_STEPS))
    cf.parse_config(json.dumps(spec))
    spec.update(T=float(cf.MAX_STEPS + 1))
    with pytest.raises(cf.ConfigError) as info:
        cf.parse_config(json.dumps(spec))
    assert info.value.violations == [
        f"$.T: T / dt, the step count, must be <= {cf.MAX_STEPS}"]


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("T", [0.0016, 0.0004])
def test_horizon_between_steps_is_config_error(tmp_path, capsys, command, T):
    # a run takes round(T / dt) steps: to t = 0.002, past T, for
    # T = 0.0016, and none for T = 0.0004
    spec = json.loads(REFERENCE.read_text())
    spec.update(modes=[6, 6], dt=0.001, T=T)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(spec))
    assert cli.main(_argv(command, cfg, tmp_path)) == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert err.strip().endswith(
        "$.T: T / dt, the step count, must be a whole number")
    assert "Traceback" not in err and out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("T,dt", [(0.0, 0.001), (0.02, 0.001), (0.3, 0.1),
                                  (0.5, 0.001), (1e-9 * 7, 1e-9)])
def test_horizon_on_the_step_grid_is_accepted(T, dt):
    # 0.3 / 0.1 is 2.9999999999999996 in floating point: a whole number
    # of steps up to the rounding of the division
    spec = json.loads(REFERENCE.read_text())
    spec.update(T=T, dt=dt)
    assert cf.parse_config(json.dumps(spec)).T == T


def _deep_nesting():
    return "[" * 100000


def _huge_seed():
    # json.dumps cannot write the integer either, so splice its digits in
    spec = json.loads(REFERENCE.read_text())
    spec["seed"] = "SEED"
    return json.dumps(spec).replace('"SEED"', "9" * 5000)


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("text", [_deep_nesting, _huge_seed],
                         ids=["deep-nesting", "5000-digit-int"])
def test_json_that_cannot_be_decoded_is_config_error(tmp_path, capsys,
                                                     command, text):
    cfg = tmp_path / "run.json"
    cfg.write_text(text())
    assert cli.main(_argv(command, cfg, tmp_path)) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error: $:" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_sweep_table_round_trips_a_failed_row(tmp_path):
    rows = [ex.SweepRow(0.1, 0.5, 1 / 3, 2e-17, 1e300),
            ex.SweepRow(0.05, np.nan, np.nan, np.nan, np.nan,
                        failed="explicit step blew up")]
    cio.write_sweep_csv(rows, tmp_path / "sweep.csv")
    with (tmp_path / "sweep.csv").open(newline="") as fh:
        lines = list(csv.reader(fh))
    assert tuple(lines[0]) == cio.SWEEP_COLUMNS
    assert [float(x) for x in lines[1][:5]] == [0.1, 0.5, 1 / 3, 2e-17, 1e300]
    assert lines[1][5] == ""
    assert lines[2] == ["0.050000000000000003"] + ["nan"] * 4 + [
        "explicit step blew up"]


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    section = README.read_text().split("## Library example", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    total, dissipation = map(float, capsys.readouterr().out.split())
    assert np.isfinite(total) and dissipation >= 0.0


def test_each_table_header_is_its_rows_fields():
    assert dg.DiagnosticsRow._fields == dg.CSV_COLUMNS
    assert cio.SWEEP_COLUMNS is ex.SweepRow._fields


def test_readme_lists_every_output_column_in_order():
    section = README.read_text().split("## Output files", 1)[1]
    section = section.split("\n## ", 1)[0]
    diagnostics, sweep = (
        tuple(re.findall(r"^- `(\w+)`:", part, re.M))
        for part in section.split("`sweep_k.csv` and `sweep_chi.csv` have"))
    assert diagnostics == dg.CSV_COLUMNS
    assert sweep == cio.SWEEP_COLUMNS
