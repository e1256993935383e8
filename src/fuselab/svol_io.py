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

import json
import struct

import numpy as np

from .errors import (
    BadMagicError,
    HeaderError,
    ShapeError,
    TrailingDataError,
    TruncatedPayloadError,
)
from .volume import Dim3, GridKind, VolumeGrid

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
    """Parse and validate an SVOL file into a VolumeGrid."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < len(MAGIC) or raw[: len(MAGIC)] != MAGIC:
        raise BadMagicError(f"{path}: not an SVOL file (bad magic)")
    if len(raw) < _PREFIX_LEN:
        raise HeaderError(f"{path}: file ends before the header length field")
    (hlen,) = struct.unpack_from(_HEADER_LEN_FMT, raw, len(MAGIC))
    if len(raw) < _PREFIX_LEN + hlen:
        raise HeaderError(f"{path}: declared header length {hlen} overruns the file")
    dims, kind = _parse_header(raw[_PREFIX_LEN : _PREFIX_LEN + hlen], path)

    expected = dims.n * 8
    got = len(raw) - _PREFIX_LEN - hlen
    if got < expected:
        raise TruncatedPayloadError(
            f"{path}: payload holds {got} bytes, expected {expected}"
        )
    if got > expected:
        raise TrailingDataError(
            f"{path}: {got - expected} trailing byte(s) after the payload"
        )
    # VolumeGrid keeps its own copy, so the read-only view is passed as is.
    data = np.frombuffer(raw, dtype="<f8", count=dims.n, offset=_PREFIX_LEN + hlen)
    return VolumeGrid(dims, data, kind)


def _parse_header(blob: bytes, path) -> tuple[Dim3, GridKind]:
    try:
        header = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise HeaderError(f"{path}: header is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise HeaderError(f"{path}: header must be a JSON object")
    for key in ("dims", "kind"):
        if key not in header:
            raise HeaderError(f"{path}: header misses required key {key!r}")
    dims = header["dims"]
    if not isinstance(dims, list) or len(dims) != 3 or any(isinstance(d, bool) for d in dims):
        raise HeaderError(f"{path}: dims must be a list of 3 positive integers, got {dims!r}")
    try:
        shape = Dim3(*dims)
    except ShapeError as exc:
        raise HeaderError(f"{path}: dims {dims!r}: {exc}") from exc
    try:
        return shape, GridKind(header["kind"])
    except ValueError as exc:
        raise HeaderError(f"{path}: unknown kind {header['kind']!r}") from exc
