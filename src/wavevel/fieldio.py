"""Binary field persistence and CSV export.

The field file is a fixed little-endian layout: an 8-byte magic, a dim byte
``N``, then one ``struct`` layout, :func:`_header_layout` (shape, frames,
spacing, origin, t0, dt), then the raw float64 payload in C order (time
slowest, then axis 1..N).  The writer packs that layout and streams the
payload buffer to the file without copying it; the reader reads exactly the
header, checks the declared payload size against the file length, and then
reads the payload once, straight into the field's array.  Round trips are
bit-exact.

CSV is the interchange format for per-point arrays: coordinates ``x1..xN``
first, then one column per named array, one row per grid point in row-major
order.  Cells are 17 significant digits (``.17g``, so values read back
exactly) with ``nan``/``inf``/``-inf`` spelled literally and booleans as
0/1; :func:`csv_cells` is the one formatter and :func:`_write_csv` the one
writer, shared with the CLI's track CSV.  Rows are written in chunks of a
fixed number of rows, each column of a chunk formatted in one pass, so
memory beyond the inputs does not grow with the grid.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

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


def _header_layout(n: int) -> struct.Struct:
    """The header after the magic and the dim byte, for ``n`` dimensions."""
    return struct.Struct(f"<{n}II{n}d{n}d2d")  # shape, frames, spacing, origin, t0, dt


def write_field(field: SampledField, path) -> None:
    """Write a sampled field to the binary format (bit-exact payload)."""
    grid = field.grid
    header = MAGIC + bytes((grid.dim,)) + _header_layout(grid.dim).pack(
        *grid.shape, field.frames, *grid.spacing, *grid.origin, field.t0, field.dt)
    payload = np.ascontiguousarray(field.values, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload.data)


def _read_header(fh, where: str) -> FieldFileHeader:
    """Read exactly the header from the head of ``fh``, leaving it at the payload."""
    head = fh.read(len(MAGIC) + 1)
    if len(head) < len(MAGIC) + 1:
        raise FieldFormatError(f"{where}: file too short for a header")
    if head[: len(MAGIC)] != MAGIC:
        raise FieldFormatError(
            f"{where}: bad magic {head[:len(MAGIC)]!r}, expected {MAGIC!r}"
        )
    n = head[-1]
    if n < 1:
        raise FieldFormatError(f"{where}: dimension must be >= 1, got {n}")
    layout = _header_layout(n)
    data = fh.read(layout.size)
    if len(data) < layout.size:
        raise FieldFormatError(f"{where}: truncated header")
    v = layout.unpack(data)
    return FieldFileHeader(n, v[:n], v[n], v[n + 1 : 2 * n + 1], v[2 * n + 1 : 3 * n + 1], *v[-2:])


def read_header(path) -> FieldFileHeader:
    """Decode and return only the header of a field file."""
    with open(path, "rb") as fh:
        return _read_header(fh, str(path))


def read_field(path) -> SampledField:
    """Read a field file back into a :class:`SampledField` (bit-exact).

    The declared payload size is checked against the file length first; the
    payload is then read once, straight into the returned array.
    """
    with open(path, "rb") as fh:
        header = _read_header(fh, str(path))
        expected = header.payload_doubles * 8
        got = os.fstat(fh.fileno()).st_size - fh.tell()
        if got < expected:
            raise FieldFormatError(
                f"{path}: truncated payload, expected {expected} bytes, got {got}"
            )
        if got > expected:
            raise FieldFormatError(
                f"{path}: {got - expected} trailing bytes after the payload"
            )
        values = np.fromfile(fh, dtype="<f8", count=header.payload_doubles)
    if values.size != header.payload_doubles:  # the file shrank while being read
        raise FieldFormatError(
            f"{path}: truncated payload, expected {expected} bytes, got {values.nbytes}"
        )
    try:
        grid = Grid(header.shape, header.spacing, header.origin)  # before reshaping to it
        return SampledField(grid, header.t0, header.dt,
                            values.reshape((header.frames,) + grid.shape))
    except ValueError as exc:
        raise FieldFormatError(f"{path}: invalid field description: {exc}") from exc


_CSV_CHUNK_ROWS = 4096  # rows formatted and written at a time; bounds memory
_BOOL_CELLS = np.array(["0", "1"], dtype=object)


def csv_cells(values) -> list:
    """Format a 1-D array as CSV cells.

    Booleans become ``0``/``1``; every other value is converted to ``float``
    and written with 17 significant digits (``format(v, ".17g")``), so it
    reads back exactly and ``nan``, ``inf``, ``-inf`` and ``-0`` are spelled
    literally.
    """
    values = np.asarray(values)
    if values.dtype == bool:
        return _BOOL_CELLS[values.astype(np.intp)].tolist()
    return ["%.17g" % v for v in values.astype(float).tolist()]


def export_csv(path, grid: Grid, columns) -> None:
    """Write named per-point arrays as CSV.

    ``columns`` maps column names to arrays shaped like the grid.  The header
    row is ``x1..xN`` then the column names in mapping order; one row follows
    per grid point in row-major order, cells formatted by :func:`csv_cells`
    (``.17g``, booleans as 0/1).  Each axis's coordinates are formatted once;
    rows are written in chunks of ``_CSV_CHUNK_ROWS``, each column of a chunk
    formatted in one pass.
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
    axes = [np.array(csv_cells(grid.axis_coordinates(a)), dtype=object)
            for a in range(grid.dim)]

    def cells(start):
        stop = min(start + _CSV_CHUNK_ROWS, grid.npoints)
        index = np.unravel_index(np.arange(start, stop), grid.shape)
        return ([axis[i].tolist() for axis, i in zip(axes, index)]
                + [csv_cells(arr.flat[start:stop]) for arr in arrays])

    names = [f"x{a + 1}" for a in range(grid.dim)] + names
    _write_csv(path, names, map(cells, range(0, grid.npoints, _CSV_CHUNK_ROWS)))


def _write_csv(path, names, chunks) -> None:
    """Write the header row ``names``, then each chunk (a list of equal-length
    cell columns) as rows: ``,`` between cells, ``\\n`` after each row, ascii."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        for cells in chunks:
            rows = "\n".join(map(",".join, zip(*cells)))
            if rows:  # a chunk without rows writes nothing
                fh.write(rows + "\n")
