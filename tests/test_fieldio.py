"""Binary format round-trip and CSV contract tests."""

import struct
import tracemalloc

import numpy as np
import pytest

import wavevel as wv


def _random_field(rng):
    dim = int(rng.integers(1, 4))
    shape = tuple(int(n) for n in rng.integers(5, 10, size=dim))
    spacing = tuple(float(s) for s in rng.uniform(0.01, 2.0, size=dim))
    origin = tuple(float(o) for o in rng.uniform(-3.0, 3.0, size=dim))
    grid = wv.Grid(shape, spacing, origin)
    frames = int(rng.integers(1, 5))
    values = rng.standard_normal((frames,) + shape)
    dt = float(rng.uniform(0.001, 0.5)) if frames > 1 else 0.0
    return wv.SampledField(grid, float(rng.uniform(-1, 1)), dt, values)


class TestRoundTrip:
    def test_bit_identical(self, tmp_path):
        rng = np.random.default_rng(77)
        for k in range(50):
            field = _random_field(rng)
            path = tmp_path / f"f{k}.wvf"
            wv.write_field(field, path)
            back = wv.read_field(path)
            assert back.grid == field.grid
            assert back.t0 == field.t0 and back.dt == field.dt
            assert np.array_equal(back.values, field.values)
            assert back.values.dtype == np.float64

    def test_double_roundtrip_identical_bytes(self, tmp_path):
        rng = np.random.default_rng(78)
        field = _random_field(rng)
        p1, p2 = tmp_path / "a.wvf", tmp_path / "b.wvf"
        wv.write_field(field, p1)
        wv.write_field(wv.read_field(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_read_holds_one_copy_of_the_payload(self, tmp_path):
        grid = wv.make_grid(2, [256, 256], [0.05, 0.05], [-6.4, -6.4])
        values = np.random.default_rng(79).standard_normal((8,) + grid.shape)
        path = tmp_path / "big.wvf"
        wv.write_field(wv.SampledField(grid, 0.0, 0.01, values), path)
        tracemalloc.start()
        try:
            back = wv.read_field(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.values, values)
        assert back.values.flags.writeable
        assert peak <= 1.2 * values.nbytes

    def test_write_holds_no_copy_of_the_payload(self, tmp_path):
        grid = wv.make_grid(2, [256, 256], [0.05, 0.05], [-6.4, -6.4])
        field = wv.SampledField(grid, 0.0, 0.01,
                                np.random.default_rng(80).standard_normal((8,) + grid.shape))
        tracemalloc.start()
        try:
            wv.write_field(field, tmp_path / "big.wvf")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(wv.read_field(tmp_path / "big.wvf").values, field.values)
        assert peak <= 0.1 * field.values.nbytes

    @pytest.mark.parametrize("dim", (1, 2, 3))
    def test_header_is_the_documented_layout(self, tmp_path, dim):
        # packed by hand from the README table, so a layout change that the
        # writer and the reader make together still fails here
        grid = wv.Grid(tuple(5 + a for a in range(dim)), tuple(0.1 * (a + 1) for a in range(dim)),
                       tuple(-1.5 + a for a in range(dim)))
        values = np.random.default_rng(dim).standard_normal((3,) + grid.shape)
        path = tmp_path / "h.wvf"
        wv.write_field(wv.SampledField(grid, 0.25, 0.5, values), path)
        want = (b"WVFIELD1" + struct.pack("<B", dim) + struct.pack(f"<{dim}I", *grid.shape)
                + struct.pack("<I", 3) + struct.pack(f"<{dim}d", *grid.spacing)
                + struct.pack(f"<{dim}d", *grid.origin) + struct.pack("<dd", 0.25, 0.5)
                + values.astype("<f8").tobytes())
        assert path.read_bytes() == want

    def test_header_dump(self, tmp_path):
        grid = wv.make_grid(2, [6, 7], [0.1, 0.2], [-1.0, 2.0])
        field = wv.SampledField(grid, 0.5, 0.25, np.zeros((3, 6, 7)))
        path = tmp_path / "h.wvf"
        wv.write_field(field, path)
        hdr = wv.read_header(path)
        assert hdr.dim == 2
        assert hdr.shape == (6, 7)
        assert hdr.frames == 3
        assert hdr.spacing == (0.1, 0.2)
        assert hdr.origin == (-1.0, 2.0)
        assert hdr.t0 == 0.5 and hdr.dt == 0.25


class TestRejection:
    def _write_sample(self, tmp_path):
        grid = wv.make_grid(1, [5], [1.0], [0.0])
        field = wv.SampledField(grid, 0.0, 0.1, np.arange(10.0).reshape(2, 5))
        path = tmp_path / "x.wvf"
        wv.write_field(field, path)
        return path

    def test_corrupt_magic(self, tmp_path):
        path = self._write_sample(tmp_path)
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(wv.FieldFormatError, match="magic"):
            wv.read_field(path)

    def test_truncated_payload(self, tmp_path):
        path = self._write_sample(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(wv.FieldFormatError, match="truncated payload"):
            wv.read_field(path)

    def test_truncated_header(self, tmp_path):
        path = self._write_sample(tmp_path)
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(wv.FieldFormatError, match="truncated header"):
            wv.read_field(path)

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    @pytest.mark.parametrize("frame", (0, 2, 4))  # first, middle, last
    def test_nonfinite_payload(self, tmp_path, frame, bad):
        grid = wv.make_grid(2, [5, 6], [1.0, 1.0], [0.0, 0.0])
        field = wv.SampledField(grid, 0.0, 0.1, np.ones((5, 5, 6)))
        path = tmp_path / "x.wvf"
        wv.write_field(field, path)
        data = bytearray(path.read_bytes())
        payload = len(data) - field.values.nbytes
        at = payload + 8 * np.ravel_multi_index((frame, 3, 2), field.values.shape)
        data[at : at + 8] = struct.pack("<d", bad)
        path.write_bytes(bytes(data))
        with pytest.raises(wv.FieldFormatError, match="field values must be finite"):
            wv.read_field(path)

    def test_trailing_bytes(self, tmp_path):
        path = self._write_sample(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(wv.FieldFormatError, match="trailing"):
            wv.read_field(path)

    def test_invalid_grid_in_header(self, tmp_path):
        # shape 4 violates the minimum extent: structurally fine, semantically not
        path = self._write_sample(tmp_path)
        data = bytearray(path.read_bytes())
        data[9] = 4  # first shape byte (little-endian u32 after magic+dim)
        header_len = 9 + 4 + 4 + 8 + 8 + 16
        path.write_bytes(bytes(data[:header_len] + data[header_len:][: 2 * 4 * 8]))
        with pytest.raises(wv.FieldFormatError, match="invalid field description"):
            wv.read_field(path)

    @pytest.mark.parametrize("dim", (1, 2, 3))
    def test_structural_header_mutations(self, tmp_path, dim):
        # every bit flip of the magic, dim, shape and frames bytes and every cut
        # inside the header; the format has no checksum, so flips in the geometry
        # and time bytes read back as a different valid field and are left out
        grid = wv.make_grid(dim, [5 + a for a in range(dim)], 0.5, -1.0)
        values = np.arange(2.0 * grid.npoints).reshape((2,) + grid.shape)
        path = tmp_path / "x.wvf"
        wv.write_field(wv.SampledField(grid, 0.0, 0.1, values), path)
        data = path.read_bytes()
        structural = len(wv.fieldio.MAGIC) + 1 + 4 * dim + 4
        cases = [data[:cut] for cut in range(structural + 16 * dim + 16)]
        for pos in range(structural):
            for bit in range(8):
                flipped = bytearray(data)
                flipped[pos] ^= 1 << bit
                cases.append(bytes(flipped))
        for case in cases:
            path.write_bytes(case)
            with pytest.raises(wv.FieldFormatError):
                wv.read_field(path)

    def test_header_size_overflowing_int64(self, tmp_path):
        # 2^21 * 2^21 * 2^22 = 2^64 doubles wraps to 0 in int64; no payload follows
        shape = (2**21, 2**21, 2**22)
        header = wv.fieldio.MAGIC + struct.pack("<B", 3) + struct.pack("<3I", *shape)
        header += struct.pack("<I", 1) + struct.pack("<3d", 1.0, 1.0, 1.0)
        header += struct.pack("<3d", 0.0, 0.0, 0.0) + struct.pack("<dd", 0.0, 0.1)
        path = tmp_path / "huge.wvf"
        path.write_bytes(header)
        assert wv.read_header(path).payload_doubles == 2**64
        with pytest.raises(wv.FieldFormatError, match="truncated payload"):
            wv.read_field(path)


def _reference_csv(path, grid, columns):
    """The per-point CSV writer that ``export_csv`` replaced: the byte reference."""

    def cell(v):
        if isinstance(v, (bool, np.bool_)):
            return "1" if v else "0"
        return format(float(v), ".17g")

    names = list(columns)
    arrays = [np.asarray(columns[name]) for name in names]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join([f"x{a + 1}" for a in range(grid.dim)] + names) + "\n")
        for idx in np.ndindex(grid.shape):
            cells = [cell(c) for c in grid.point(idx)]
            cells += [cell(arr[idx]) for arr in arrays]
            fh.write(",".join(cells) + "\n")


SPECIAL_VALUES = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3,
                  1e300, -1e300, 1.0 / 3.0, 0.1]


def _mixed_columns(grid, rng):
    """Columns mixing special floats, bool, int64, float32 and strided views."""
    floats = rng.standard_normal(grid.shape) * 10.0 ** rng.integers(-5, 6, size=grid.shape)
    floats.flat[: len(SPECIAL_VALUES)] = SPECIAL_VALUES
    floats.flat[-len(SPECIAL_VALUES):] = SPECIAL_VALUES
    pairs = rng.standard_normal(grid.shape + (2,))
    pairs[..., 1].flat[::7] = np.nan
    ints = rng.integers(-(2**62), 2**62, size=grid.shape, dtype=np.int64)
    ints.flat[:3] = [0, -1, 2**53 + 1]
    singles = rng.standard_normal(grid.shape).astype(np.float32)
    singles.flat[:2] = [np.nan, -0.0]
    return {
        "special": floats,
        "v_1": pairs[..., 0],
        "v_2": pairs[..., 1],
        "valid": rng.random(grid.shape) > 0.3,
        "count": ints,
        "single": singles,
    }


# 1-D smaller than a chunk, 2-D exactly one chunk, 2-D and 3-D ending in a
# partial chunk; the other three have non-zero, non-integer origins.  Then
# packed coordinate cells that take the "%.17g" fallback (below 1e-11), cells
# of mixed widths on one axis, and a 1-D grid longer than one chunk
CSV_GRIDS = [
    ((37,), (0.1,), (-1.3,)),
    ((64, 64), (0.05, 0.2), (0.0, 0.0)),
    ((67, 73), (0.05, 0.3), (-1.175, 2.0 / 3.0)),
    ((17, 19, 23), (0.1, 0.07, 1.9), (-0.35, 1e-3, 12.5)),
    ((41, 29), (1e-13, 1e-13), (0.0, 0.0)),
    ((53, 47), (0.3, 0.3), (-1e15, -1e15)),
    ((5000,), (0.01,), (-3.7,)),
]


class TestCsv:
    def test_format_contract(self, tmp_path):
        grid = wv.make_grid(2, [5, 5], [0.5, 0.5], [0.0, 0.0])
        vals = np.full(grid.shape, 1.0 / 3.0)
        vals[0, 1] = np.nan
        vals[0, 2] = np.inf
        vals[0, 3] = -np.inf
        valid = np.ones(grid.shape, dtype=bool)
        valid[0, 1] = False
        path = tmp_path / "out.csv"
        wv.export_csv(path, grid, {"v0_1": vals, "valid": valid})
        lines = path.read_text().splitlines()
        assert lines[0] == "x1,x2,v0_1,valid"
        assert len(lines) == 1 + 25
        # row-major order: second row is index (0, 1)
        assert lines[2] == "0,0.5,nan,0"
        assert lines[3].split(",")[2] == "inf"
        assert lines[4].split(",")[2] == "-inf"
        # 17 significant digits round-trip
        assert float(lines[1].split(",")[2]) == 1.0 / 3.0

    @pytest.mark.parametrize("shape, spacing, origin", CSV_GRIDS)
    def test_bytes_match_per_point_writer(self, tmp_path, shape, spacing, origin):
        grid = wv.Grid(shape, spacing, origin)
        columns = _mixed_columns(grid, np.random.default_rng(grid.npoints))
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        wv.export_csv(got, grid, columns)
        _reference_csv(want, grid, columns)
        assert got.read_bytes() == want.read_bytes()

    def test_grids_cover_the_chunk_cases(self):
        chunk = wv.fieldio._CSV_CHUNK_ROWS
        sizes = [int(np.prod(shape)) for shape, _, _ in CSV_GRIDS]
        assert any(n < chunk for n in sizes)
        assert any(n == chunk for n in sizes)
        assert any(n > chunk and n % chunk for n in sizes)

    def test_memory_does_not_grow_with_the_grid(self, tmp_path, monkeypatch):
        # 256-row chunks keep the 4 and 64 chunks of 128^2 and 512^2 at 4096 rows
        monkeypatch.setattr(wv.fieldio, "_CSV_CHUNK_ROWS", 256)

        def peak(n):
            grid = wv.make_grid(2, [n, n], [0.01, 0.01], [-0.5, 0.25])
            rng = np.random.default_rng(n)
            pairs = rng.standard_normal(grid.shape + (2,))
            columns = {
                "v1_1": pairs[..., 0],
                "v1_2": pairs[..., 1],
                "cond": rng.standard_normal(grid.shape) * 1e6,
                "scalar": rng.standard_normal(grid.shape),
                "single": rng.standard_normal(grid.shape).astype(np.float32),
                "valid": rng.random(grid.shape) > 0.5,
            }
            tracemalloc.start()
            try:
                wv.export_csv(tmp_path / f"m{n}.csv", grid, columns)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(128) <= 1.5 * peak(32)

    def test_memory_of_one_export(self, tmp_path):
        # one 256^2 export of the four `velocity --order 1` columns: the
        # per-value formatter peaked at 2.60 MiB, the formatter's fixed working
        # set must not add to that
        grid = wv.make_grid(2, [256, 256], [0.02, 0.02], [-2.55, -2.55])
        rng = np.random.default_rng(256)
        pairs = rng.standard_normal(grid.shape + (2,))
        columns = {
            "v1_1": pairs[..., 0],
            "v1_2": pairs[..., 1],
            "cond": np.abs(rng.standard_normal(grid.shape)) * 1e6,
            "valid": rng.random(grid.shape) > 0.5,
        }
        tracemalloc.start()
        try:
            wv.export_csv(tmp_path / "v1.csv", grid, columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.6 * 2**20

    def test_empty_columns_rejected(self, tmp_path):
        grid = wv.make_grid(1, [5], [1.0], [0.0])
        with pytest.raises(ValueError):
            wv.export_csv(tmp_path / "e.csv", grid, {})

    def test_shape_mismatch_rejected(self, tmp_path):
        grid = wv.make_grid(1, [5], [1.0], [0.0])
        with pytest.raises(ValueError):
            wv.export_csv(tmp_path / "e.csv", grid, {"a": np.zeros(4)})


def _format_reference(values):
    if values.dtype == bool:
        return [str(int(v)) for v in values.tolist()]
    return [format(float(v), ".17g") for v in values.tolist()]


def _assert_cells_match(values):
    got = wv.fieldio.csv_cells(values)
    want = _format_reference(values)
    assert len(got) == len(want)
    bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert not bad, bad[:5]


class TestNumberCells:
    """``csv_cells`` against ``format(float(v), ".17g")``, byte for byte."""

    def test_matches_format(self):
        rng = np.random.default_rng(1990)
        tab = wv.fieldio._tables()
        pow10 = np.array([float(f"1e{k}") for k in range(-13, 19)])
        # odd multiples of 2**-k, k <= 40
        odd = rng.integers(0, 2**24, 100_000) * 2 + 1
        multiples = np.ldexp(odd.astype(float), -rng.integers(1, 41, odd.size))
        # exact ties for 17 digits: o * 2**-k with o odd has the digits of
        # o * 5**k, so pick o with 10**17 <= o * 5**k < 10**18 and keep those
        # of 18 digits
        k = rng.integers(2, 26, 50_000)
        low = -(-10**17 // 5**k.astype(object)).astype(np.int64)
        high = np.minimum((10**18 // 5**k.astype(object)).astype(np.int64), 2**53)
        tie_odd = (low + rng.integers(0, 2**62, k.size) % (high - low)) | 1
        ties = np.ldexp(tie_odd.astype(float), -k)
        ties = ties[np.array([len(str(int(o) * 5**int(e))) == 18
                              for o, e in zip(tie_odd, k)])]
        # integers with 0-16 trailing zeros
        ints = (rng.integers(1, 10**6, 50_000) * 10.0 ** rng.integers(0, 17, 50_000)).round()
        values = np.concatenate([
            rng.uniform(1.0, 10.0, 200_000) * 10.0 ** rng.uniform(-13, 18, 200_000),
            pow10, np.nextafter(pow10, 0), np.nextafter(pow10, np.inf),
            [tab.low, tab.high, np.nextafter(tab.low, 0), np.nextafter(tab.high, 0)],
            multiples, ties, ints, [-7.0, 7.0, 1e15, 9999999999999998.0],
            np.ldexp(rng.uniform(0.5, 1.0, 1000), rng.integers(-1074, -1021, 1000)),  # subnormal
            [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, 1.7976931348623157e308],
        ])
        values *= rng.choice([-1.0, 1.0], values.size)
        assert ties.size > 40_000
        assert wv.fieldio.csv_cells(np.array([0.00100040435791015625])) == ["0.0010004043579101562"]
        assert wv.fieldio.csv_cells(np.array([-7.0, 1200.0])) == ["-7", "1200"]
        _assert_cells_match(values)

    def test_other_dtypes(self):
        rng = np.random.default_rng(32)
        _assert_cells_match(rng.standard_normal(10_000).astype(np.float32))
        singles = np.array([np.nan, -0.0, np.inf, 1e-40, 3.4e38, 16777217], dtype=np.float32)
        _assert_cells_match(singles)
        ints = rng.integers(-(2**63), 2**63 - 1, 10_000, dtype=np.int64, endpoint=True)
        ints[:6] = [0, -1, 2**53 + 1, 10**15, 10**16 - 1, -(2**63)]
        _assert_cells_match(ints)
        _assert_cells_match(rng.random(1000) > 0.5)
        _assert_cells_match(np.array([], dtype=float))

    def test_exact_range_is_the_powers_of_ten(self):
        # low is the least double >= 1e-11 (the nearest double is below it)
        tab = wv.fieldio._tables()
        assert tab.high == 1e16
        assert tab.low == np.nextafter(1e-11, 1)
        assert (1e-11).as_integer_ratio()[0] * 10**11 < (1e-11).as_integer_ratio()[1]
