"""Bit-exact reader/writer for the SVOL volume file format.

Layout (all little-endian):

* bytes 0-5: magic ``53 56 4F 4C 31 00`` ("SVOL1\\0")
* bytes 6-9: unsigned 32-bit header length H
* bytes 10..10+H: UTF-8 JSON header with required keys ``dims``
  (array ``[nx, ny, nz]`` of positive integers) and ``kind`` (one of
  "intensity", "binary", "soft", "posterior")
* then exactly nx*ny*nz IEEE-754 float64 values in x-fastest order.

No padding, no trailing bytes. Writes are deterministic: the same grid
always produces byte-identical files.
"""

from __future__ import annotations

import io
import json
import os
import struct

import numpy as np

from .errors import (
    BadMagicError,
    HeaderError,
    ShapeError,
    TrailingDataError,
    TruncatedPayloadError,
)
from .volume import _CHECK_BLOCK, Dim3, GridKind, VolumeGrid, _check_values

MAGIC = b"SVOL1\x00"
_HEADER_LEN_FMT = "<I"
_PREFIX_LEN = len(MAGIC) + struct.calcsize(_HEADER_LEN_FMT)


def write_svol(grid: VolumeGrid, path) -> None:
    """Serialize a validated grid. The grid is validated before the file
    is opened, so nothing is written when validation fails; the payload
    goes out through the buffer protocol, without a copy of the file."""
    grid.validate()
    header = json.dumps(
        {"dims": list(grid.dims.as_tuple()), "kind": grid.kind.value},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack(_HEADER_LEN_FMT, len(header)) + header)
        fh.write(np.ascontiguousarray(grid.data, dtype="<f8"))


def read_svol(path) -> VolumeGrid:
    """Parse and validate an SVOL file into a VolumeGrid.

    :func:`read_svol_header` checks the payload size against the file size
    before anything is allocated for it; the payload is then read straight
    into one aligned float64 array, block by block, and each block's values
    are checked while it is still in cache. A pipe, whose size is known
    only once it has been read, is read whole first."""
    with open(path, "rb") as raw:
        fh = raw if raw.seekable() else io.BytesIO(raw.read())
        dims, kind = read_svol_header(path, fh)
        data = np.empty(dims.n, dtype="<f8")
        for lo in range(0, dims.n, _CHECK_BLOCK):
            block = data[lo : lo + _CHECK_BLOCK]
            if fh.readinto(block) != block.nbytes:
                raise TruncatedPayloadError(f"{path}: file shrank while it was read")
            _check_values(block, kind)
    return VolumeGrid._owned(dims, data, kind)


def read_svol_header(path, fh=None) -> tuple[Dim3, GridKind]:
    """The dims and kind of the SVOL file ``path``, once its magic, header
    and payload size check out; no payload byte is read. Given the open
    file ``fh``, reads it from the start and leaves it at the payload."""
    if fh is None:
        with open(path, "rb") as raw:
            return read_svol_header(path, raw if raw.seekable() else io.BytesIO(raw.read()))
    size = fh.seek(0, os.SEEK_END)
    fh.seek(0)
    prefix = fh.read(_PREFIX_LEN)
    if len(prefix) < len(MAGIC) or prefix[: len(MAGIC)] != MAGIC:
        raise BadMagicError(f"{path}: not an SVOL file (bad magic)")
    if len(prefix) < _PREFIX_LEN:
        raise HeaderError(f"{path}: file ends before the header length field")
    (hlen,) = struct.unpack_from(_HEADER_LEN_FMT, prefix, len(MAGIC))
    got = size - _PREFIX_LEN - hlen
    if got < 0:
        raise HeaderError(f"{path}: declared header length {hlen} overruns the file")
    dims, kind = _parse_header(fh.read(hlen), path)
    expected = dims.n * 8
    if got < expected:
        raise TruncatedPayloadError(f"{path}: payload holds {got} bytes, expected {expected}")
    if got > expected:
        raise TrailingDataError(f"{path}: {got - expected} trailing byte(s) after the payload")
    return dims, kind


def _parse_header(blob: bytes, path) -> tuple[Dim3, GridKind]:
    try:
        header = json.loads(blob.decode("utf-8"))
    except ValueError as exc:  # also the int-digit limit, beside bad UTF-8 and JSON
        raise HeaderError(f"{path}: header is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise HeaderError(f"{path}: header must be a JSON object")
    for key in ("dims", "kind"):
        if key not in header:
            raise HeaderError(f"{path}: header misses required key {key!r}")
    dims = header["dims"]
    if not isinstance(dims, list) or len(dims) != 3:
        raise HeaderError(f"{path}: dims must be a list of 3 positive integers, got {dims!r}")
    try:
        shape = Dim3(*dims)
    except ShapeError as exc:
        raise HeaderError(f"{path}: dims {dims!r}: {exc}") from exc
    try:
        return shape, GridKind(header["kind"])
    except ValueError as exc:
        raise HeaderError(f"{path}: unknown kind {header['kind']!r}") from exc
