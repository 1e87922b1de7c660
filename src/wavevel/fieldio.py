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
order.  A number's cell is the bytes of ``format(float(v), ".17g")`` (17
significant digits, so values read back exactly, and ``nan``/``inf``/
``-inf``/``-0`` spelled literally); booleans are 0/1.  One numpy kernel,
:func:`_number_cells`, writes a whole column of a chunk: for 1e-11 <= |x| <
1e16 it forms the 17 digits exactly (``M * 5**k`` in 128-bit arithmetic on
two uint64 limbs, shifted by the binary exponent and rounded half to even)
and picks each cell's bytes from a table of layouts keyed by sign, decimal
exponent and kept digits; NaN, the infinities and the zeros are fixed
cells, and other values fall back to ``"%.17g" % v`` one by one.  Cells sit
in fixed slots of a row matrix whose zero padding is dropped when the rows
are written.  The coordinate cells are formatted once per axis and
packed: each cell's bytes and its ``,``, left-aligned in as few words as
the axis's longest cell needs (3 for ``-2.5499999999999998,``, not 6), and
rows gather them by index.  :func:`_write_csv` is the one writer,
shared with the CLI's track CSV, and :func:`csv_cells` decodes the same
cells to strings.  Rows are written in chunks of a fixed number of rows
through one workspace per call, so memory beyond the inputs does not grow
with the grid.
"""

from __future__ import annotations

import functools
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

# A number's cell is six little-endian uint64 words, 48 bytes at fixed
# positions; zero bytes are padding, dropped when a chunk is written:
#
#   bytes  0-7    sign, "0", ".", "0", "0", "0", d0, point slot
#   bytes  8-39   d1, point slot, d2, point slot, ..., d16, unused
#   bytes 40-47   "e", "-", two exponent digits, padding, separator
#
# A layout holds a cell's fixed bytes, and 0xff for each digit it keeps and
# 0x00 for each it drops; the digits are ANDed in.  Layouts are keyed by the
# decimal exponent, the number of digits up to the last non-zero one, and the
# sign.
_U = np.uint64
_CELL_WORDS = 6
_FIRST_X, _LAST_X = -11, 15  # the decimal exponents of the exact range
_LAYOUTS = (_LAST_X - _FIRST_X + 1) * 17
_ZERO, _INF, _NAN, _FALLBACK = range(_LAYOUTS, _LAYOUTS + 4)
_LOW32 = _U(0xFFFFFFFF)
_COMMA = _U(ord(",")) << _U(56)  # a separator in a cell's last byte
_NO_ROWS = np.empty(0, np.intp)


def _at_least_pow10(j: int) -> float:
    """The least double that is not below 10**j."""
    f = float(f"1e{j}")
    num, den = f.as_integer_ratio()
    below = num * 10 ** max(-j, 0) < den * 10 ** max(j, 0)
    return math.nextafter(f, math.inf) if below else f


def _layouts() -> np.ndarray:
    """Cell bytes (codes, 48); code ``2 * layout + sign bit``."""
    x = np.repeat(np.arange(_FIRST_X, _LAST_X + 1), 17)
    n = np.tile(np.arange(1, 18), _LAST_X - _FIRST_X + 1)  # digits up to the last non-zero one
    t = np.zeros((_FALLBACK + 1, 48), np.uint8)
    body = t[:_LAYOUTS]
    # fixed notation keeps every digit before the point, zeros included
    body[:, 6:39:2] = np.where(np.arange(17) < np.maximum(n, x + 1)[:, None], 0xFF, 0)
    fraction = (-4 <= x) & (x < 0)  # 0.000ddd
    body[fraction, 1:3] = np.frombuffer(b"0.", np.uint8)
    body[:, 3:6] = np.where(fraction[:, None] & (np.arange(3) < -x[:, None] - 1), ord("0"), 0)
    # the point follows digit x (fixed notation) or digit 0 (scientific), if a digit follows
    point = np.where(x >= 0, x + 1, 1)
    dotted = np.flatnonzero(~fraction & (n > point))
    body[dotted, 5 + 2 * point[dotted]] = ord(".")
    sci = x < -4
    body[sci, 40:42] = np.frombuffer(b"e-", np.uint8)
    body[sci, 42] = ord("0") + -x[sci] // 10
    body[sci, 43] = ord("0") + -x[sci] % 10
    t[_ZERO, 1] = ord("0")
    t[_INF, 1:4] = np.frombuffer(b"inf", np.uint8)
    t[_NAN, 1:4] = np.frombuffer(b"nan", np.uint8)
    signed = np.repeat(t, 2, axis=0)
    signed[1::2, 0] = ord("-")
    # "nan" has no sign, and a fallback cell is written whole
    signed[[2 * _NAN + 1, 2 * _FALLBACK + 1], 0] = 0
    return signed


class _Tables:
    """Constants of the number formatter (built on first use, by :func:`_tables`)."""

    def __init__(self):
        pow10 = np.array([_at_least_pow10(j) for j in range(_FIRST_X, _LAST_X + 2)])
        self.low, self.high = pow10[0], pow10[-1]  # the exact range: low <= |x| < high
        # over the frexp exponents e of the range (2**(e-1) <= |x| < 2**e): the
        # exponent index (decimal exponent - _FIRST_X) at 2**(e-1), and the
        # next power of ten, which |x| may reach within the binade
        e = np.arange(np.frexp(self.low)[1], np.frexp(self.high)[1] + 1)
        below = np.searchsorted(pow10, np.ldexp(1.0, e - 1), side="right") - 1
        self.e_min = int(e[0])
        self.x_low = below.astype(np.int64)
        self.next_pow10 = pow10[below + 1]
        # by exponent index: 5**(16 - X), so |x| * 10**(16 - X) has 17 digits
        self.pow5 = np.array([5 ** (16 - x) for x in range(_FIRST_X, _LAST_X + 1)], dtype=_U)
        self.layouts = np.ascontiguousarray(_layouts().view(_U).T)  # (words, codes)
        self.nibble_shifts = np.array([[60], [56], [52], [48]], dtype=_U)


_tables = functools.cache(_Tables)


class _Workspace:
    """Arrays the number formatter reuses from chunk to chunk, for up to ``size`` values."""

    def __init__(self, size: int):
        self.e = np.empty(size, np.int32)
        self.code, self.s = np.empty((2, size), np.int64)
        self.u = np.empty((10, size), _U)
        self.ok, self.b = np.empty((2, size), bool)


def _number_cells(values, out, ws: _Workspace) -> None:
    """Write the cells of ``values`` (1-D, cast to float) into ``out`` (len, 6 words).

    Each cell reads as ``format(v, ".17g")``.  For ``low <= |x| < high`` (about
    1e-11 to 1e16) the 17 significant digits are ``M * 5**k`` shifted by the
    binary exponent, in exact 128-bit arithmetic on two uint64 limbs, rounded
    half to even; NaN, the infinities and the zeros are fixed cells, and every
    other value is formatted one by one.
    """
    m = len(values)
    tab = _tables()
    x = np.asarray(values, dtype=np.float64)
    e, code, s, ok, b = (v[:m] for v in (ws.e, ws.code, ws.s, ws.ok, ws.b))
    mant, p5, lo, t1, t2, t3, sr, sl, d, d0 = ws.u[:, :m]
    # the float steps use rows the product fills later
    a, g = t2.view(np.float64), t3.view(np.float64)
    np.abs(x, out=a)
    np.greater_equal(a, tab.low, out=ok)
    ok &= np.less(a, tab.high, out=b)
    rest = _NO_ROWS if ok.all() else np.flatnonzero(~ok)
    a[rest] = 1.0  # keeps the arithmetic below defined
    # |x| = mant * 2**(e - 53); the exponent index xi = X - _FIRST_X goes to `code`
    xi = code
    np.frexp(a, out=(g, e))
    np.ldexp(g, 53, out=g)
    np.copyto(mant, g, casting="unsafe")
    np.subtract(e, tab.e_min, out=s)
    np.take(tab.x_low, s, out=xi, mode="clip")
    np.take(tab.next_pow10, s, out=g, mode="clip")
    xi += np.greater_equal(a, g, out=b)
    # d = round(mant * 5**(16 - X) * 2**-(53 - e + X - 16)), shifted right by
    # sr or left by sl
    np.take(tab.pow5, xi, out=p5, mode="clip")
    np.subtract(xi, s, out=s)
    s += 53 - 16 + _FIRST_X - tab.e_min
    np.maximum(s, 0, out=sr.view(np.int64))
    np.negative(s, out=s)
    np.maximum(s, 0, out=sl.view(np.int64))
    # the 128-bit product hi:lo of 32-bit halves; mant < 2**53, p5 < 2**63
    np.bitwise_and(mant, _LOW32, out=t1)
    mant >>= _U(32)
    np.bitwise_and(p5, _LOW32, out=t2)
    p5 >>= _U(32)
    np.multiply(t1, t2, out=lo)
    t1 *= p5  # the two middle products
    t2 *= mant
    hi = p5
    hi *= mant
    carry = mant
    np.right_shift(lo, _U(32), out=carry)
    lo &= _LOW32
    for mid in (t1, t2):
        hi += np.right_shift(mid, _U(32), out=t3)
        mid &= _LOW32
        carry += mid
    hi += np.right_shift(carry, _U(32), out=t3)
    carry <<= _U(32)
    lo |= carry
    # d = (hi:lo >> sr) << sl, rounded half to even on the sr bits shifted out
    np.right_shift(lo, sr, out=d)
    np.subtract(_U(64), sr, out=t1)
    d |= np.left_shift(hi, t1, out=t1)
    d <<= sl
    np.left_shift(_U(1), sr, out=t2)
    np.subtract(t2, _U(1), out=t3)
    t3 &= lo
    t3 <<= _U(1)
    t3 += np.bitwise_and(d, _U(1), out=t1)  # twice the bits shifted out, plus d's parity
    t2 -= t3
    t2 >>= _U(63)  # 1 where they pass 2**sr: round up
    d += t2
    np.equal(d, _U(10 ** 17), out=b)  # rounded up to the next power of ten
    if b.any():
        d[b] = _U(10 ** 16)
        xi += b
    # the digits: d0, then d1..d16 as four groups of four, one group per word
    np.floor_divide(d, _U(10 ** 16), out=d0)
    d -= np.multiply(d0, _U(10 ** 16), out=t1)
    y, z = ws.u[:4, :m], ws.u[4:8, :m]  # the product's rows are free again
    np.floor_divide(d, _U(10 ** 8), out=t1)
    d -= np.multiply(t1, _U(10 ** 8), out=t2)
    for k, part in ((0, t1), (2, d)):
        np.floor_divide(part, _U(10 ** 4), out=y[k])
        np.subtract(part, np.multiply(y[k], _U(10 ** 4), out=y[k + 1]), out=y[k + 1])
    # SWAR: a group y < 10**4 to hundreds in 32-bit lanes, v = h + (y - 100 h) << 32,
    # then to digits in 16-bit lanes, w = t + (v - 10 t) << 16, t = lane // 10
    np.multiply(y, _U(5243), out=z)
    z >>= _U(19)  # y // 100
    z *= _U((100 << 32) - 1)
    y <<= _U(32)
    y -= z
    np.multiply(y, _U(103), out=z)
    z >>= _U(10)
    z &= _U(0x0000000F0000000F)  # lane // 10
    z *= _U((10 << 16) - 1)
    y <<= _U(16)
    y -= z
    # the kept digits: up to the last non-zero one.  A lane's top bit marks a
    # non-zero digit; a multiply gathers a word's four marks into a nibble
    np.add(y, _U(0x007F007F007F007F), out=z)
    z &= _U(0x0080008000800080)
    z *= _U(2 ** 53 + 2 ** 38 + 2 ** 23 + 2 ** 8)
    z >>= tab.nibble_shifts  # word k's nibble to bits 4k..4k+3
    np.bitwise_or.reduce(z, axis=0, out=d)
    d <<= _U(1)
    d |= _U(1)
    np.copyto(g, d, casting="unsafe")
    g.view(_U)[...] >>= _U(52)  # the float exponent of 2 * marks + 1: 1023 + bit length
    # code = 2 * (17 * xi + kept - 1) + sign
    code *= 17
    code.view(_U)[...] += g.view(_U)
    code -= 1023
    code <<= 1
    code.view(_U)[...] += np.right_shift(x.view(_U), _U(63), out=t2)
    if rest.size:
        r = x[rest]
        kind = np.select([r == 0, np.isinf(r), np.isnan(r)], [_ZERO, _INF, _NAN], _FALLBACK)
        code[rest] = 2 * kind + np.signbit(r)
    # the words: layout AND digits
    y |= _U(0xFF30FF30FF30FF30)
    d0 += _U(ord("0"))
    d0 <<= _U(48)
    d0 |= _U(0xFF00FFFFFFFFFFFF)
    for j, digits in enumerate((d0, *y, None)):
        np.take(tab.layouts[j], code, out=d, mode="clip")
        if digits is None:
            out[:, j] = d
        else:
            np.bitwise_and(d, digits, out=out[:, j])
    if rest.size and (kind == _FALLBACK).any():
        fallback = rest[kind == _FALLBACK]
        # at most 24 bytes, "-2.2250738585072014e-308"; the layout zeroed the rest
        cells = np.array(["%.17g" % v for v in x[fallback].tolist()], dtype="S24")
        out[fallback, :3] = cells.view(_U).reshape(-1, 3)


def _packed_cells(values) -> np.ndarray:
    """The cells of 1-D numbers for :class:`_Gather`: each cell's bytes and a
    ``,``, left-aligned in as many words as the longest needs, as a (words,
    len) table."""
    values = np.asarray(values)
    table = np.empty((values.size, _CELL_WORDS), _U)
    ws = _Workspace(min(values.size, _CSV_CHUNK_ROWS))
    longest = 0
    for start in range(0, values.size, _CSV_CHUNK_ROWS):
        stop = start + _CSV_CHUNK_ROWS
        cells = table[start:stop]
        _number_cells(values[start:stop], cells, ws)
        cells[:, -1] |= _COMMA
        # a stable sort on "is padding" moves each cell's bytes to its front, in order
        b = cells.view(np.uint8)
        b[...] = np.take_along_axis(b, np.argsort(b == 0, axis=1, kind="stable"), axis=1)
        longest = max(longest, int(np.count_nonzero(b, axis=1).max()))
    return np.ascontiguousarray(table[:, :-(-longest // 8)].T)


class _Gather:
    """A column of cells taken by row index from a table made by
    :func:`_packed_cells`; the cells carry their ``,``."""

    def __init__(self, table: np.ndarray, index: np.ndarray):
        self.table, self.index = table, index

    def __len__(self) -> int:
        return len(self.index)


class _Rows:
    """The row matrix of a chunk: each column's cells in a fixed slot of
    words, six for a number, one for a boolean and the table's width for a
    :class:`_Gather`, with the separator in the slot's last byte (a gathered
    cell carries its own).  The rows are its bytes without the zero padding."""

    _BLOCK_BYTES = 1 << 15  # the matrix is compacted this much at a time

    def __init__(self, columns, size: int):
        widths = [len(c.table) if isinstance(c, _Gather) else 1 if c.dtype == bool
                  else _CELL_WORDS for c in columns]
        ends = np.cumsum(widths)
        self.slots = [slice(stop - w, stop) for stop, w in zip(ends, widths)]
        self.seps = [_U(ord(sep)) << _U(56) for sep in "," * (len(columns) - 1) + "\n"]
        self.matrix = np.empty((size, int(ends[-1])), _U)
        self.block = max(1, self._BLOCK_BYTES // (8 * int(ends[-1])))  # rows
        self.ws = _Workspace(size)

    def format(self, columns):
        """Yield the rows of ``columns`` (numbers, booleans or :class:`_Gather`), in blocks."""
        m = len(columns[0])
        rows = self.matrix[:m]
        for col, slot, sep in zip(columns, self.slots, self.seps):
            cells = rows[:, slot]
            if isinstance(col, _Gather):
                for word, table in enumerate(col.table):
                    np.take(table, col.index, out=cells[:, word], mode="clip")
                continue
            if col.dtype == bool:
                np.add(col, _U(ord("0")), out=cells[:, 0])
            else:
                _number_cells(col, cells, self.ws)
            cells[:, -1] |= sep
        for start in range(0, m, self.block):
            yield rows[start:start + self.block].tobytes().translate(None, b"\0")


def csv_cells(values) -> list:
    """Format a 1-D array as CSV cells.

    Booleans become ``0``/``1``; every other value is converted to ``float``
    and written as ``format(v, ".17g")``, byte for byte, so it reads back
    exactly and ``nan``, ``inf``, ``-inf`` and ``-0`` are spelled literally.
    """
    values = np.asarray(values)
    rows = _Rows([values], min(values.size, _CSV_CHUNK_ROWS))
    text = b"".join(block for start in range(0, values.size, _CSV_CHUNK_ROWS)
                    for block in rows.format([values[start:start + _CSV_CHUNK_ROWS]]))
    return text.decode("ascii").split("\n")[:-1]


def export_csv(path, grid: Grid, columns) -> None:
    """Write named per-point arrays as CSV.

    ``columns`` maps column names to arrays shaped like the grid.  The header
    row is ``x1..xN`` then the column names in mapping order; one row follows
    per grid point in row-major order, cells as :func:`csv_cells` writes them
    (``format(v, ".17g")``, booleans as 0/1).  Each axis's coordinate cells
    are formatted once and packed (see :func:`_packed_cells`), and rows gather
    them; rows are written in chunks of ``_CSV_CHUNK_ROWS``.
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
        arrays.append(arr.reshape(-1))  # a view where arr is contiguous: chunks slice it
    axes = [_packed_cells(grid.axis_coordinates(a)) for a in range(grid.dim)]

    def chunk(start):
        stop = min(start + _CSV_CHUNK_ROWS, grid.npoints)
        index = np.unravel_index(np.arange(start, stop), grid.shape)
        return ([_Gather(axis, i) for axis, i in zip(axes, index)]
                + [arr[start:stop] for arr in arrays])

    names = [f"x{a + 1}" for a in range(grid.dim)] + names
    _write_csv(path, names, map(chunk, range(0, grid.npoints, _CSV_CHUNK_ROWS)))


def _write_csv(path, names, chunks) -> None:
    """Write the header row ``names``, then each chunk (a list of equal-length
    columns, as :meth:`_Rows.format` takes them) as rows: ``,`` between
    cells, ``\\n`` after each row, ascii.  The first chunk sets the size."""
    with open(path, "wb") as fh:
        fh.write(",".join(names).encode("ascii") + b"\n")
        rows = None
        for columns in chunks:
            if rows is None:
                rows = _Rows(columns, len(columns[0]))
            fh.writelines(rows.format(columns))
