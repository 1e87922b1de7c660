"""Binary field persistence and CSV export.

The field file is a fixed little-endian layout: an 8-byte magic, the grid
geometry, the time axis, then the raw float64 payload in C order (time
slowest, then axis 1..N).  Round trips are bit-exact.  CSV is the
interchange format for per-point arrays: coordinates first, then one column
per named array, 17 significant digits, ``nan``/``inf`` spelled literally.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fields import Grid, SampledField

Array = np.ndarray

MAGIC = b"WVFIELD1"


class FieldFormatError(ValueError):
    """Raised when a field file does not conform to the binary layout."""


@dataclass(frozen=True)
class FieldFileHeader:
    """Decoded header of a field file."""

    dim: int
    shape: tuple
    frames: int
    spacing: tuple
    origin: tuple
    t0: float
    dt: float

    @property
    def payload_doubles(self) -> int:
        return self.frames * math.prod(self.shape)  # Python ints: no int64 wrap


def write_field(field: SampledField, path) -> None:
    """Write a sampled field to the binary format (bit-exact payload)."""
    grid = field.grid
    n = grid.dim
    header = bytearray()
    header += MAGIC
    header += struct.pack("<B", n)
    header += struct.pack(f"<{n}I", *grid.shape)
    header += struct.pack("<I", field.frames)
    header += struct.pack(f"<{n}d", *grid.spacing)
    header += struct.pack(f"<{n}d", *grid.origin)
    header += struct.pack("<dd", field.t0, field.dt)
    payload = np.ascontiguousarray(field.values, dtype="<f8").tobytes()
    Path(path).write_bytes(bytes(header) + payload)


def _parse_header(data: bytes, where: str):
    if len(data) < len(MAGIC) + 1:
        raise FieldFormatError(f"{where}: file too short for a header")
    if data[: len(MAGIC)] != MAGIC:
        raise FieldFormatError(
            f"{where}: bad magic {data[:len(MAGIC)]!r}, expected {MAGIC!r}"
        )
    pos = len(MAGIC)
    (n,) = struct.unpack_from("<B", data, pos)
    pos += 1
    if n < 1:
        raise FieldFormatError(f"{where}: dimension must be >= 1, got {n}")
    fixed = 4 * n + 4 + 8 * n + 8 * n + 16
    if len(data) < pos + fixed:
        raise FieldFormatError(f"{where}: truncated header")
    shape = struct.unpack_from(f"<{n}I", data, pos)
    pos += 4 * n
    (frames,) = struct.unpack_from("<I", data, pos)
    pos += 4
    spacing = struct.unpack_from(f"<{n}d", data, pos)
    pos += 8 * n
    origin = struct.unpack_from(f"<{n}d", data, pos)
    pos += 8 * n
    t0, dt = struct.unpack_from("<dd", data, pos)
    pos += 16
    header = FieldFileHeader(n, tuple(shape), frames, tuple(spacing), tuple(origin), t0, dt)
    return header, pos


def read_header(path) -> FieldFileHeader:
    """Decode and return only the header of a field file."""
    header, _ = _parse_header(Path(path).read_bytes(), str(path))
    return header


def read_field(path) -> SampledField:
    """Read a field file back into a :class:`SampledField` (bit-exact)."""
    data = Path(path).read_bytes()
    header, pos = _parse_header(data, str(path))
    expected = header.payload_doubles * 8
    got = len(data) - pos
    if got < expected:
        raise FieldFormatError(
            f"{path}: truncated payload, expected {expected} bytes, got {got}"
        )
    if got > expected:
        raise FieldFormatError(
            f"{path}: {got - expected} trailing bytes after the payload"
        )
    values = np.frombuffer(data, dtype="<f8", count=header.payload_doubles, offset=pos)
    values = values.reshape((header.frames,) + header.shape).astype(float)
    try:
        grid = Grid(header.shape, header.spacing, header.origin)
        return SampledField(grid, header.t0, header.dt, values)
    except ValueError as exc:
        raise FieldFormatError(f"{path}: invalid field description: {exc}") from exc


def _format_value(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    return format(float(v), ".17g")


def export_csv(path, grid: Grid, columns) -> None:
    """Write named per-point arrays as CSV.

    ``columns`` maps column names to arrays shaped like the grid; boolean
    arrays are written as 0/1.  Rows run in row-major grid order with the
    point coordinates ``x1..xN`` leading.
    """
    if not columns:
        raise ValueError("need at least one column to export")
    names = list(columns)
    arrays = []
    for name in names:
        arr = np.asarray(columns[name])
        if arr.shape != grid.shape:
            raise ValueError(
                f"column {name!r} has shape {arr.shape}, expected {grid.shape}"
            )
        arrays.append(arr)
    coord_names = [f"x{a + 1}" for a in range(grid.dim)]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(coord_names + names) + "\n")
        for idx in np.ndindex(grid.shape):
            point = grid.point(idx)
            cells = [_format_value(c) for c in point]
            cells += [_format_value(arr[idx]) for arr in arrays]
            fh.write(",".join(cells) + "\n")
