"""SVOL format: bit-exact round trips and malformed-file rejection."""

import json
import os
import struct
import tracemalloc

import numpy as np
import pytest

import fuselab.svol_io
from fuselab import Dim3, GridKind, VolumeGrid, read_svol, write_svol
from fuselab.cli import main
from fuselab.svol_io import read_svol_header, read_svol_row
from fuselab.errors import (
    BadMagicError,
    HeaderError,
    SvolError,
    TrailingDataError,
    TruncatedPayloadError,
    ValueRangeError,
)

MAGIC = b"SVOL1\x00"


def _random_grid(rng):
    dims = Dim3(*(int(rng.integers(1, 7)) for _ in range(3)))
    kinds = list(GridKind)
    kind = kinds[rng.integers(len(kinds))]
    data = rng.random(dims.n)
    if kind is GridKind.BINARY:
        data = (data > 0.5).astype(float)
    elif kind is GridKind.INTENSITY:
        data = rng.normal(0.0, 100.0, dims.n)
    return VolumeGrid(dims, data, kind)


def _raw_file(tmp_path, header: dict, payload: bytes, magic=MAGIC):
    blob = json.dumps(header).encode()
    path = tmp_path / "crafted.svol"
    path.write_bytes(magic + struct.pack("<I", len(blob)) + blob + payload)
    return path


def _payload(path) -> bytes:
    raw = path.read_bytes()
    (hlen,) = struct.unpack_from("<I", raw, 6)
    return raw[10 + hlen :]


class TestRoundTrip:
    def test_soft_roundtrip_identity(self, tmp_path):
        rng = np.random.default_rng(1)
        g = VolumeGrid(Dim3(8, 8, 8), rng.random(512), GridKind.SOFT)
        path = tmp_path / "g.svol"
        write_svol(g, path)
        assert read_svol(path) == g

    def test_roundtrip_property(self, tmp_path):
        rng = np.random.default_rng(7)
        for i in range(80):
            g = _random_grid(rng)
            path = tmp_path / f"g{i}.svol"
            write_svol(g, path)
            back = read_svol(path)
            assert back == g
            assert back.data.tobytes() == g.data.tobytes()

    def test_write_deterministic(self, tmp_path):
        g = _random_grid(np.random.default_rng(2))
        p1, p2 = tmp_path / "a.svol", tmp_path / "b.svol"
        write_svol(g, p1)
        write_svol(g, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_single_voxel_payload_is_8_bytes(self, tmp_path):
        g = VolumeGrid(Dim3(1, 1, 1), [1.0], GridKind.SOFT)
        path = tmp_path / "one.svol"
        write_svol(g, path)
        raw = path.read_bytes()
        (hlen,) = struct.unpack_from("<I", raw, 6)
        assert len(raw) - 10 - hlen == 8
        assert raw[:6] == MAGIC


class TestBinaryLayout:
    """A binary grid is written one byte per voxel under ``"dtype":"u1"``;
    the float64 layout, with no dtype key, still reads."""

    def test_binary_grid_writes_one_byte_per_voxel(self, tmp_path):
        dims = Dim3(4, 3, 2)
        data = (np.random.default_rng(3).random(dims.n) < 0.4).astype(float)
        path = tmp_path / "b.svol"
        write_svol(VolumeGrid(dims, data, GridKind.BINARY), path)
        raw = path.read_bytes()
        (hlen,) = struct.unpack_from("<I", raw, 6)
        assert json.loads(raw[10 : 10 + hlen]) == {"dims": [4, 3, 2], "dtype": "u1",
                                                    "kind": "binary"}
        assert _payload(path) == data.astype(np.uint8).tobytes()
        back = read_svol(path)
        assert back == VolumeGrid(dims, data, GridKind.BINARY)
        assert back.data.dtype == np.float64
        assert back.data.tobytes() == data.tobytes()

    @pytest.mark.parametrize("kind", [k for k in GridKind if k is not GridKind.BINARY])
    def test_other_kinds_keep_float64_and_no_dtype_key(self, tmp_path, kind):
        data = np.array([0.0, 0.25, 1.0])
        path = tmp_path / "g.svol"
        write_svol(VolumeGrid(Dim3(3, 1, 1), data, kind), path)
        assert b"dtype" not in path.read_bytes()
        assert _payload(path) == data.astype("<f8").tobytes()

    def test_float64_binary_file_still_reads(self, tmp_path):
        data = (np.random.default_rng(4).random(30) < 0.5).astype(float)
        path = _raw_file(tmp_path, {"dims": [5, 3, 2], "kind": "binary"},
                         data.astype("<f8").tobytes())
        np.testing.assert_array_equal(read_svol(path).data, data)
        dims, kind, row = read_svol_row(path)
        assert (dims, kind) == (Dim3(5, 3, 2), GridKind.BINARY)
        assert row.dtype == np.uint8
        np.testing.assert_array_equal(row, data)

    @pytest.mark.parametrize("dtype", ["u1", None])
    def test_row_reader_gives_binary_votes_as_bytes(self, tmp_path, dtype):
        data = np.array([1.0, 0.0, -0.0, 1.0])
        header = {"dims": [4, 1, 1], "kind": "binary"}
        if dtype:
            header["dtype"] = dtype
        path = _raw_file(tmp_path, header, data.astype(dtype or "<f8").tobytes())
        _, _, row = read_svol_row(path)
        assert row.dtype == np.uint8
        assert row.tolist() == [1, 0, 0, 1]

    def test_row_reader_gives_soft_values_as_float64(self, tmp_path):
        data = np.array([0.0, 0.3, 1.0, 0.7])
        write_svol(VolumeGrid(Dim3(2, 2, 1), data, GridKind.SOFT), tmp_path / "s.svol")
        dims, kind, row = read_svol_row(tmp_path / "s.svol")
        assert (dims, kind) == (Dim3(2, 2, 1), GridKind.SOFT)
        assert row.dtype == np.float64 and row.tobytes() == data.tobytes()

    @pytest.mark.parametrize("kind", ["soft", "posterior", "intensity"])
    def test_byte_dtype_on_another_kind_is_a_header_error(self, tmp_path, capsys, kind):
        path = _raw_file(tmp_path, {"dims": [2, 1, 1], "kind": kind, "dtype": "u1"},
                         bytes([0, 1]))
        for read in (read_svol, read_svol_header, read_svol_row):
            with pytest.raises(HeaderError, match="'u1' is for binary grids") as info:
                read(path)
            assert str(path) in str(info.value)
        assert main(["eval", str(path), str(path)]) == 3
        assert f"{path}: payload dtype 'u1'" in capsys.readouterr().err

    @pytest.mark.parametrize("dtype", ["f8", "<f8", "uint8", "U1", 1, None, ["u1"]])
    def test_unknown_dtype_is_a_header_error(self, tmp_path, capsys, dtype):
        path = _raw_file(tmp_path, {"dims": [2, 1, 1], "kind": "binary", "dtype": dtype},
                         bytes([0, 1]))
        with pytest.raises(HeaderError, match="unknown payload dtype"):
            read_svol_header(path)
        out = tmp_path / "o"
        assert main(["fuse", "--variant", "binary", str(path), "-o", str(out)]) == 3
        assert "unknown payload dtype" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("payload, error, message", [
        (bytes([0, 1, 1]), TruncatedPayloadError, "holds 3 bytes, expected 4"),
        (bytes([0, 1, 1, 0, 1]), TrailingDataError, "1 trailing byte"),
        (np.zeros(4).tobytes(), TrailingDataError, "28 trailing byte"),
    ], ids=["truncated", "trailing", "float64-payload"])
    def test_byte_payload_of_the_wrong_size(self, tmp_path, payload, error, message):
        path = _raw_file(tmp_path, {"dims": [2, 2, 1], "kind": "binary", "dtype": "u1"},
                         payload)
        for read in (read_svol, read_svol_header, read_svol_row):
            with pytest.raises(error, match=message):
                read(path)

    def test_reader_without_the_dtype_key_refuses_a_byte_file(self, tmp_path):
        """A reader that ignores the key expects 8 bytes per voxel, so it finds an
        eighth of them: the file is refused as truncated, exit 3."""
        path = tmp_path / "b.svol"
        write_svol(VolumeGrid(Dim3(4, 1, 1), [1.0, 0.0, 0.0, 1.0], GridKind.BINARY), path)
        raw = path.read_bytes()
        (hlen,) = struct.unpack_from("<I", raw, 6)
        header = json.loads(raw[10 : 10 + hlen])
        assert header.pop("dtype") == "u1"
        old = _raw_file(tmp_path, header, _payload(path))
        with pytest.raises(TruncatedPayloadError, match="holds 4 bytes, expected 32"):
            read_svol(old)
        assert main(["eval", str(old), str(old)]) == 3

    def test_negative_zero_reads_back_as_positive_zero(self, tmp_path):
        """A binary -0.0 is a valid vote; the one-byte layout stores it as 0."""
        data = np.array([1.0, -0.0, 0.0, -0.0, 1.0, 1.0])
        g = VolumeGrid(Dim3(3, 2, 1), data, GridKind.BINARY)
        write_svol(g, tmp_path / "z.svol")
        back = read_svol(tmp_path / "z.svol")
        assert back == g
        assert not np.signbit(back.data).any()
        assert back.data.tobytes() == np.abs(data).tobytes()
        write_svol(back, tmp_path / "again.svol")
        assert (tmp_path / "again.svol").read_bytes() == (tmp_path / "z.svol").read_bytes()


class TestMalformedFiles:
    def test_bad_magic(self, tmp_path):
        path = _raw_file(tmp_path, {"dims": [1, 1, 1], "kind": "soft"},
                         struct.pack("<d", 0.5), magic=b"XXXX\x00\x00")
        with pytest.raises(BadMagicError):
            read_svol(path)

    def test_header_not_json(self, tmp_path):
        path = tmp_path / "bad.svol"
        path.write_bytes(MAGIC + struct.pack("<I", 4) + b"{{{{" + b"")
        with pytest.raises(HeaderError):
            read_svol(path)

    def test_header_not_an_object(self, tmp_path):
        path = _raw_file(tmp_path, [[1, 1, 1], "soft"], struct.pack("<d", 0.5))
        with pytest.raises(HeaderError, match="header must be a JSON object"):
            read_svol(path)

    def test_header_missing_key(self, tmp_path):
        path = _raw_file(tmp_path, {"dims": [1, 1, 1]}, struct.pack("<d", 0.5))
        with pytest.raises(HeaderError):
            read_svol(path)

    def test_header_bad_dims(self, tmp_path):
        for dims in ([0, 1, 1], [1, 1], [1, 1, 1.5], "xyz"):
            path = _raw_file(tmp_path, {"dims": dims, "kind": "soft"},
                             struct.pack("<d", 0.5))
            with pytest.raises(HeaderError):
                read_svol(path)

    def test_header_bad_kind(self, tmp_path):
        path = _raw_file(tmp_path, {"dims": [1, 1, 1], "kind": "labels"},
                         struct.pack("<d", 0.5))
        with pytest.raises(HeaderError):
            read_svol(path)

    def test_header_overruns_file(self, tmp_path):
        path = tmp_path / "short.svol"
        path.write_bytes(MAGIC + struct.pack("<I", 500) + b"{}")
        with pytest.raises(HeaderError):
            read_svol(path)

    def test_truncated_payload(self, tmp_path):
        path = _raw_file(tmp_path, {"dims": [2, 1, 1], "kind": "soft"},
                         struct.pack("<d", 0.5))
        with pytest.raises(TruncatedPayloadError):
            read_svol(path)

    def test_trailing_bytes(self, tmp_path):
        path = _raw_file(tmp_path, {"dims": [1, 1, 1], "kind": "soft"},
                         struct.pack("<dd", 0.5, 0.5))
        with pytest.raises(TrailingDataError):
            read_svol(path)

    def test_binary_file_with_half_value(self, tmp_path):
        path = _raw_file(tmp_path, {"dims": [1, 1, 1], "kind": "binary"},
                         struct.pack("<d", 0.5))
        with pytest.raises(ValueRangeError):
            read_svol(path)


class TestFaultInjection:
    """Crafted files at the edges of the header: each must fail with an
    SVOL error that names the file, before any voxel array is built."""

    def test_cut_inside_header_length_field(self, tmp_path):
        path = tmp_path / "cut.svol"
        path.write_bytes(MAGIC + struct.pack("<I", 20)[:2])
        with pytest.raises(HeaderError, match="header length field"):
            read_svol(path)

    def test_header_length_at_u32_max(self, tmp_path):
        path = tmp_path / "huge.svol"
        path.write_bytes(MAGIC + struct.pack("<I", 2**32 - 1) + b'{"dims":[1,1,1]}')
        with pytest.raises(HeaderError, match="4294967295 overruns"):
            read_svol(path)

    @pytest.mark.parametrize(
        "dims",
        [[1.0, 1, 1], [2, 2.5, 1], [True, 1, 1], [1, 1, False], [[1], 1, 1],
         [1, [1, 1], 1], [-1, 1, 1], [1, 1, -8], ["1", 1, 1], [1, 1, None]],
    )
    def test_invalid_dims(self, tmp_path, dims):
        path = _raw_file(tmp_path, {"dims": dims, "kind": "soft"}, struct.pack("<d", 0.5))
        with pytest.raises(HeaderError, match="dims") as info:
            read_svol(path)
        assert str(path) in str(info.value)

    def test_huge_dims_short_payload_allocates_nothing(self, tmp_path):
        path = _raw_file(tmp_path, {"dims": [2**20] * 3, "kind": "soft"},
                         struct.pack("<d", 0.5))
        tracemalloc.start()
        try:
            with pytest.raises(TruncatedPayloadError, match=f"expected {2**63}"):
                read_svol(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_lying_header_allocates_no_payload(self, tmp_path):
        """The payload size is checked against the file before the array
        for 2^30 voxels would be allocated."""
        path = _raw_file(tmp_path, {"dims": [2**10] * 3, "kind": "soft"},
                         struct.pack("<2d", 0.5, 0.5))
        tracemalloc.start()
        try:
            with pytest.raises(TruncatedPayloadError, match="holds 16 bytes"):
                read_svol(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_dims_product_overflow_is_a_header_error(self, tmp_path):
        path = _raw_file(tmp_path, {"dims": [2**21] * 3, "kind": "soft"},
                         struct.pack("<d", 0.5))
        with pytest.raises(HeaderError) as info:
            read_svol(path)
        assert isinstance(info.value, SvolError)
        assert str(path) in str(info.value)

    def test_dims_product_overflow_exits_3(self, tmp_path, capsys):
        path = _raw_file(tmp_path, {"dims": [2**21] * 3, "kind": "soft"},
                         struct.pack("<d", 0.5))
        assert main(["eval", str(path), str(path)]) == 3
        assert str(path) in capsys.readouterr().err

    def _huge_dims_file(self, tmp_path):
        """dims [1<5,000 zeros>, 1, 1]: an integer past Python's 4,300-digit limit."""
        blob = b'{"dims":[1' + b"0" * 5000 + b',1,1],"kind":"binary"}'
        path = tmp_path / "huge.svol"
        path.write_bytes(MAGIC + struct.pack("<I", len(blob)) + blob + struct.pack("<d", 1.0))
        return path

    @pytest.mark.parametrize("read", [read_svol, read_svol_header])
    def test_integer_past_the_digit_limit_is_a_header_error(self, tmp_path, read):
        path = self._huge_dims_file(tmp_path)
        with pytest.raises(HeaderError, match="not valid UTF-8 JSON") as info:
            read(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("command", ["fuse", "eval", "softmask"])
    def test_integer_past_the_digit_limit_exits_3(self, tmp_path, capsys, command):
        path = str(self._huge_dims_file(tmp_path))
        out = tmp_path / "o"
        argv = {"fuse": ["fuse", "--variant", "binary", path],
                "eval": ["eval", path, path],
                "softmask": ["softmask", path, "--flair", path]}[command]
        assert main([*argv, "-o", str(out)]) == 3
        assert capsys.readouterr().err.startswith(f"fuselab: invalid input: {path}: header")
        assert not out.exists()


    @pytest.fixture()
    def shrinking(self, tmp_path, monkeypatch):
        """A file whose header, read again for its payload, promises one more
        row than the file then holds: the file shrank while it was read."""
        path = tmp_path / "e0.svol"
        write_svol(VolumeGrid(Dim3(4, 3, 2), np.zeros(24), GridKind.BINARY), path)
        header = fuselab.svol_io._read_header

        def grown(path, fh):
            dims, kind, stored = header(path, fh)
            return Dim3(dims.nx, dims.ny, dims.nz + 1), kind, stored

        monkeypatch.setattr(fuselab.svol_io, "_read_header", grown)
        return path

    def test_file_shrinking_while_read_is_a_truncated_payload(self, shrinking):
        with pytest.raises(TruncatedPayloadError, match="file shrank while it was read") as info:
            read_svol(shrinking)
        assert str(shrinking) in str(info.value)

    def test_file_shrinking_while_read_exits_3(self, shrinking, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["fuse", "--variant", "binary", str(shrinking), "-o", str(out)]) == 3
        assert capsys.readouterr().err.startswith(
            f"fuselab: invalid input: {shrinking}: file shrank while it was read")
        assert not out.exists()


class TestReadAllocation:
    def test_one_read_allocates_one_payload(self, tmp_path):
        """The payload is read straight into the grid's array: no copy of
        the file bytes, no second copy in the grid."""
        dims = Dim3(64, 64, 64)
        data = np.random.default_rng(5).random(dims.n)
        path = tmp_path / "big.svol"
        write_svol(VolumeGrid(dims, data, GridKind.SOFT), path)
        tracemalloc.start()
        try:
            g = read_svol(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= dims.n * 8 + 2**20
        np.testing.assert_array_equal(g.data, data)
        flags = g.data.flags
        assert flags.aligned and flags.c_contiguous and not flags.writeable
        with pytest.raises(ValueError):
            g.data[0] = 0.0

    def test_values_are_checked_on_read(self, tmp_path):
        path = _raw_file(tmp_path, {"dims": [2, 1, 1], "kind": "soft"},
                         struct.pack("<2d", 0.5, np.nan))
        with pytest.raises(ValueRangeError):
            read_svol(path)

    @pytest.mark.parametrize("read", [read_svol, read_svol_row])
    @pytest.mark.parametrize("dtype, bad", [("<f8", 0.5), ("u1", 2)], ids=["float64", "byte"])
    @pytest.mark.parametrize("where", ["first", "block end", "block start", "last"])
    def test_bad_value_in_any_read_block(self, tmp_path, where, dtype, bad, read):
        from fuselab.volume import _CHECK_BLOCK as B

        data = np.zeros(2 * B + 3, dtype=dtype)
        data[{"first": 0, "block end": B - 1, "block start": B, "last": 2 * B + 2}[where]] = bad
        header = {"dims": [data.size, 1, 1], "kind": "binary"}
        if dtype == "u1":
            header["dtype"] = dtype
        path = _raw_file(tmp_path, header, data.tobytes())
        with pytest.raises(ValueRangeError):
            read(path)

    @pytest.mark.parametrize("read, per", [(read_svol, 8), (read_svol_row, 1)],
                             ids=["read_svol", "read_svol_row"])
    @pytest.mark.parametrize("dtype", ["u1", "<f8"], ids=["byte", "float64"])
    def test_binary_read_allocates_one_row(self, tmp_path, read, per, dtype):
        """A payload stored in another dtype than the row's is cast block by block,
        through a one-block buffer, not through a whole-payload temporary."""
        dims = Dim3(64, 64, 64)
        data = (np.random.default_rng(6).random(dims.n) < 0.5).astype(dtype)
        header = {"dims": list(dims.as_tuple()), "kind": "binary"}
        if dtype == "u1":
            header["dtype"] = dtype
        path = _raw_file(tmp_path, header, data.tobytes())
        tracemalloc.start()
        try:
            row = read(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= dims.n * per + 2**20
        np.testing.assert_array_equal(row.data if read is read_svol else row[2], data)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_reads_from_a_pipe(self, tmp_path):
        g = VolumeGrid(Dim3(3, 2, 1), np.linspace(0.0, 1.0, 6), GridKind.SOFT)
        write_svol(g, tmp_path / "g.svol")
        r, w = os.pipe()
        try:
            os.write(w, (tmp_path / "g.svol").read_bytes())
            os.close(w)
            assert read_svol(f"/dev/fd/{r}") == g
        finally:
            os.close(r)

    def test_numpy_int_dims_write(self, tmp_path):
        dims = Dim3(np.int64(2), np.int64(1), np.int64(3))
        g = VolumeGrid(dims, np.linspace(0.0, 1.0, 6), GridKind.SOFT)
        write_svol(g, tmp_path / "np.svol")
        assert read_svol(tmp_path / "np.svol") == g


class TestWriteValidation:
    def test_nan_intensity_rejected_before_any_bytes(self, tmp_path):
        g = VolumeGrid(Dim3(2, 1, 1), [1.0, 2.0], GridKind.INTENSITY)
        object.__setattr__(g, "data", np.array([np.nan, 2.0]))
        path = tmp_path / "never.svol"
        with pytest.raises(ValueRangeError):
            write_svol(g, path)
        assert not path.exists()
