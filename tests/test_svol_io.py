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
from fuselab.svol_io import read_svol_header
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
        header = fuselab.svol_io.read_svol_header

        def grown(path, fh=None):
            dims, kind = header(path, fh)
            return Dim3(dims.nx, dims.ny, dims.nz + 1), kind

        monkeypatch.setattr(fuselab.svol_io, "read_svol_header", grown)
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

    @pytest.mark.parametrize("where", ["first", "block end", "block start", "last"])
    def test_bad_value_in_any_read_block(self, tmp_path, where):
        from fuselab.volume import _CHECK_BLOCK as B

        data = np.zeros(2 * B + 3)
        data[{"first": 0, "block end": B - 1, "block start": B, "last": 2 * B + 2}[where]] = 0.5
        path = _raw_file(tmp_path, {"dims": [data.size, 1, 1], "kind": "binary"},
                         data.astype("<f8").tobytes())
        with pytest.raises(ValueRangeError):
            read_svol(path)

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
