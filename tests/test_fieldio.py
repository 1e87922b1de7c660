"""Binary format round-trip and CSV contract tests."""

import struct

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

    def test_empty_columns_rejected(self, tmp_path):
        grid = wv.make_grid(1, [5], [1.0], [0.0])
        with pytest.raises(ValueError):
            wv.export_csv(tmp_path / "e.csv", grid, {})

    def test_shape_mismatch_rejected(self, tmp_path):
        grid = wv.make_grid(1, [5], [1.0], [0.0])
        with pytest.raises(ValueError):
            wv.export_csv(tmp_path / "e.csv", grid, {"a": np.zeros(4)})
