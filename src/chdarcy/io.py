"""Persistence: diagnostics CSV, field snapshots, and checkpoints.

Numbers in CSV files are written with 17 significant digits so parsing
them back reproduces the doubles bit for bit.  Snapshots and
checkpoints use a short text header followed by a little-endian
float64 payload.
"""

from __future__ import annotations

import csv
import io as _io
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import spectral as sp
from .diagnostics import CSV_COLUMNS
from .dynamics import SimState
from .experiments import SweepRow
from .spectral import FieldCoeffs, SpectralBasis


class SnapshotFormatError(Exception):
    pass


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


@contextmanager
def _csv_file(path, what: str):
    """path opened to write a CSV file; an OSError names what was written."""
    path = Path(path)
    try:
        with path.open("w", newline="") as fh:
            yield fh
    except OSError as exc:
        raise OSError(f"writing {what} {path}: {exc}") from exc


# csv.writer's bytes for a row of numbers, which it quotes none of
_DIAGNOSTICS_HEADER = ",".join(CSV_COLUMNS) + "\r\n"
_DIAGNOSTICS_LINE = ",".join(["%.17g"] * len(CSV_COLUMNS)) + "\r\n"


def write_diagnostics_csv(rows, path) -> None:
    """One line per row of CSV_COLUMNS values (diagnostics.DiagnosticsRow),
    formatted by a single % each."""
    with _csv_file(path, "diagnostics CSV") as fh:
        fh.write(_DIAGNOSTICS_HEADER)
        fh.writelines(_DIAGNOSTICS_LINE % tuple(row) for row in rows)


SWEEP_COLUMNS = SweepRow._fields


def write_sweep_csv(rows, path) -> None:
    """One line per SweepRow; failed is empty for a member that ran to
    the end."""
    with _csv_file(path, "sweep table") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_COLUMNS)
        writer.writerows((*map(_fmt, r[:-1]), r.failed or "") for r in rows)


def read_diagnostics_csv(path) -> list[tuple[float, ...]]:
    """The rows after the header; any malformed content is a format error."""
    path = Path(path)
    try:
        with path.open(newline="") as fh:
            lines = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise SnapshotFormatError(f"unreadable CSV {path}: {exc}") from exc
    if not lines or tuple(lines[0]) != CSV_COLUMNS:
        raise SnapshotFormatError(f"unexpected CSV header in {path}")
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        if len(line) != len(CSV_COLUMNS):
            raise SnapshotFormatError(
                f"{path} line {number}: {len(line)} cells, "
                f"expected {len(CSV_COLUMNS)}")
        try:
            rows.append(tuple(float(x) for x in line))
        except ValueError as exc:
            raise SnapshotFormatError(f"{path} line {number}: {exc}") from exc
    return rows


SNAPSHOT_MAGIC = "chd-snapshot 1"


def _basis_header(basis: SpectralBasis, t: float) -> bytes:
    lines = [
        SNAPSHOT_MAGIC,
        f"kind {basis.domain.kind}",
        "lengths " + " ".join(_fmt(L) for L in basis.domain.lengths),
        "modes " + " ".join(str(k) for k in basis.modes),
        f"t {_fmt(t)}",
    ]
    return ("\n".join(lines) + "\n\n").encode("ascii")


MAX_HEADER_LINE = 1024  # bytes; the longest real line holds about 60


def _line(fh) -> str:
    """The next header line, read no further than MAX_HEADER_LINE bytes:
    a file without a newline there is not loaded whole."""
    raw = fh.readline(MAX_HEADER_LINE)
    if not raw.endswith(b"\n"):
        raise SnapshotFormatError("truncated or overlong header line")
    try:
        return raw[:-1].decode("ascii")
    except UnicodeDecodeError as exc:
        raise SnapshotFormatError("non-ASCII header line") from exc


def _parse_header(fh) -> tuple[sp.Domain, tuple[int, ...], float]:
    if _line(fh) != SNAPSHOT_MAGIC:
        raise SnapshotFormatError("bad snapshot magic")
    fields = {}
    for _ in range(4):
        key, _, rest = _line(fh).partition(" ")
        fields[key] = rest
    if _line(fh) != "":
        raise SnapshotFormatError("missing header terminator")
    try:
        domain = sp.Domain(fields["kind"],
                           tuple(float(x) for x in fields["lengths"].split()))
        modes = tuple(int(x) for x in fields["modes"].split())
        t = float(fields["t"])
    except (KeyError, ValueError, sp.InvalidDomainError) as exc:
        raise SnapshotFormatError(f"corrupt snapshot header: {exc}") from exc
    if not math.isfinite(t):
        raise SnapshotFormatError(f"non-finite time {t} in header")
    return domain, modes, t


def _read_payload(fh, path, domain: sp.Domain, modes: tuple[int, ...],
                  basis: SpectralBasis | None, n_extra: int
                  ) -> tuple[SpectralBasis, np.ndarray]:
    """The header's basis (or the supplied one, which must match) and the
    rest of the file: exactly 2 n_modes + n_extra finite doubles."""
    if basis is not None and (basis.domain != domain or basis.modes != modes):
        raise SnapshotFormatError(
            f"{path} was written for {domain.kind} {domain.lengths} "
            f"modes {modes}, not the supplied basis")
    size = (2 * math.prod(modes) + n_extra) * 8
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if left != size:  # checked before a basis of that size is built
        raise SnapshotFormatError(
            f"{path} holds {left} payload bytes, expected {size}")
    if basis is None:
        try:
            basis = sp.build_basis(domain, modes)
        except sp.InvalidDomainError as exc:
            raise SnapshotFormatError(f"corrupt header in {path}: {exc}") from exc
    data = np.frombuffer(fh.read(size), dtype="<f8").astype(float)
    if not np.all(np.isfinite(data)):
        raise SnapshotFormatError(f"non-finite payload in {path}")
    return basis, data


def write_field_snapshot(state: SimState, path) -> None:
    sp._single_member(state.alpha, "write_field_snapshot")
    path = Path(path)
    basis = state.basis
    payload = np.concatenate([state.alpha.data, state.gamma.data])
    try:
        with path.open("wb") as fh:
            fh.write(_basis_header(basis, state.t))
            fh.write(payload.astype("<f8").tobytes())
    except OSError as exc:
        raise OSError(f"writing snapshot {path}: {exc}") from exc


def read_field_snapshot(path, basis: SpectralBasis | None = None) -> SimState:
    path = Path(path)
    with path.open("rb") as fh:
        domain, modes, t = _parse_header(fh)
        basis, data = _read_payload(fh, path, domain, modes, basis, 0)
    n = basis.n_modes
    return SimState(t, FieldCoeffs(basis, data[:n].copy()),
                    FieldCoeffs(basis, data[n:].copy()))


CHECKPOINT_MAGIC = "chd-checkpoint 1"


@dataclass
class Checkpoint:
    config_hash: str
    state: SimState
    accumulators: np.ndarray  # diagnostics integrals, 4 doubles


def write_checkpoint(ck: Checkpoint, path) -> None:
    sp._single_member(ck.state.alpha, "write_checkpoint")
    path = Path(path)
    basis = ck.state.basis
    buf = _io.BytesIO()
    buf.write((CHECKPOINT_MAGIC + "\n").encode("ascii"))
    buf.write((f"config {ck.config_hash}\n").encode("ascii"))
    buf.write(_basis_header(basis, ck.state.t))
    payload = np.concatenate([
        ck.state.alpha.data, ck.state.gamma.data,
        np.asarray(ck.accumulators, dtype=float),
    ])
    buf.write(payload.astype("<f8").tobytes())
    try:
        path.write_bytes(buf.getvalue())
    except OSError as exc:
        raise OSError(f"writing checkpoint {path}: {exc}") from exc


def read_checkpoint(path, basis: SpectralBasis | None = None) -> Checkpoint:
    path = Path(path)
    with path.open("rb") as fh:
        if _line(fh) != CHECKPOINT_MAGIC:
            raise SnapshotFormatError("bad checkpoint magic")
        key, _, config_hash = _line(fh).partition(" ")
        if key != "config":
            raise SnapshotFormatError("missing config hash")
        domain, modes, t = _parse_header(fh)
        basis, data = _read_payload(fh, path, domain, modes, basis, 4)
    n = basis.n_modes
    state = SimState(t, FieldCoeffs(basis, data[:n].copy()),
                     FieldCoeffs(basis, data[n:2 * n].copy()))
    return Checkpoint(config_hash, state, data[2 * n:].copy())
