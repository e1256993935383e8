"""Bit-exact reader/writer for the SVOL volume file format.

Layout (all little-endian):

* bytes 0-5: magic ``53 56 4F 4C 31 00`` ("SVOL1\\0")
* bytes 6-9: unsigned 32-bit header length H
* bytes 10..10+H: UTF-8 JSON header with required keys ``dims``
  (array ``[nx, ny, nz]`` of positive integers) and ``kind`` (one of
  "intensity", "binary", "soft", "posterior"), and the optional key
  ``dtype``, whose one value ``"u1"`` is allowed on a binary grid only
* then exactly nx*ny*nz voxels in x-fastest order: one byte each (0 or 1)
  under ``"dtype":"u1"``, else IEEE-754 float64 values.

No padding, no trailing bytes. Writes are deterministic: the same grid
always produces byte-identical files. A binary grid is written with the
one-byte payload, so a binary -0.0 reads back as +0.0; every other kind
keeps float64 and round-trips bit for bit. Files without the ``dtype``
key, float64 binary ones included, still read. A reader that predates
the key finds an eighth of the payload it expects in a one-byte file,
and refuses it as truncated.
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
    ValueRangeError,
)
from .volume import _CHECK_BLOCK, Dim3, GridKind, VolumeGrid, _check_block

MAGIC = b"SVOL1\x00"
_HEADER_LEN_FMT = "<I"
_PREFIX_LEN = len(MAGIC) + struct.calcsize(_HEADER_LEN_FMT)
_FLOAT = np.dtype("<f8")
_BYTE = np.dtype("u1")


def write_svol(grid: VolumeGrid, path) -> None:
    """Serialize a validated grid. The grid is validated before the file
    is opened, so nothing is written when validation fails; a float64
    payload goes out through the buffer protocol, without a copy."""
    grid.validate()
    header = {"dims": list(grid.dims.as_tuple()), "kind": grid.kind.value}
    payload = np.ascontiguousarray(grid.data, dtype=_FLOAT)
    if grid.kind is GridKind.BINARY:
        header["dtype"] = "u1"
        payload = payload.astype(_BYTE)
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack(_HEADER_LEN_FMT, len(blob)) + blob)
        fh.write(payload)


def read_svol(path) -> VolumeGrid:
    """Parse and validate an SVOL file into a VolumeGrid.

    The payload size is checked against the file size, as by
    :func:`read_svol_header`, before anything is allocated for it; the
    payload is then read into one aligned float64 array, block by block
    (see :func:`read_svol_row`), a one-byte binary payload widened as it
    goes."""
    dims, kind, data = _read_row(path, _FLOAT)
    return VolumeGrid._owned(dims, data, kind)


def read_svol_row(path) -> tuple[Dim3, GridKind, np.ndarray]:
    """The dims, kind and bare flat payload row of the SVOL file ``path``,
    checked as :func:`read_svol` checks it: a binary file's votes as uint8
    0 and 1, in either payload layout, any other file's float64 values.

    The row is read block by block, and each block's values are checked
    while it is still in cache; a block stored in another dtype than the
    row's is read into a one-block buffer and cast from there. A pipe,
    whose size is known only once it has been read, is read whole first."""
    return _read_row(path, _BYTE)


def _read_row(path, binary: np.dtype):
    """:func:`read_svol_row`, with a binary file's row in the dtype ``binary``."""
    with open(path, "rb") as raw:
        fh = raw if raw.seekable() else io.BytesIO(raw.read())
        dims, kind, stored = _read_header(path, fh)
        row = np.empty(dims.n, binary if kind is GridKind.BINARY else _FLOAT)
        buffer = None if row.dtype == stored else np.empty(min(dims.n, _CHECK_BLOCK), stored)
        for lo in range(0, dims.n, _CHECK_BLOCK):
            block = row[lo : lo + _CHECK_BLOCK]
            into = block if buffer is None else buffer[: block.size]
            if fh.readinto(into) != into.nbytes:
                raise TruncatedPayloadError(f"{path}: file shrank while it was read")
            if stored == _BYTE:
                if into.max() > 1:
                    raise ValueRangeError("binary grid holds a byte other than 0 or 1")
            else:
                _check_block(into, kind)
            if buffer is not None:
                block[:] = into
    return dims, kind, row


def read_svol_header(path) -> tuple[Dim3, GridKind]:
    """The dims and kind of the SVOL file ``path``, once its magic, header
    and payload size check out; no payload byte is read."""
    with open(path, "rb") as raw:
        return _read_header(path, raw if raw.seekable() else io.BytesIO(raw.read()))[:2]


def _read_header(path, fh) -> tuple[Dim3, GridKind, np.dtype]:
    """The dims, kind and payload dtype that the open SVOL file ``fh`` declares,
    once they check out against its size; reads it from the start and leaves
    it at the payload."""
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
    dims, kind, stored = _parse_header(fh.read(hlen), path)
    expected = dims.n * stored.itemsize
    if got < expected:
        raise TruncatedPayloadError(f"{path}: payload holds {got} bytes, expected {expected}")
    if got > expected:
        raise TrailingDataError(f"{path}: {got - expected} trailing byte(s) after the payload")
    return dims, kind, stored


def _parse_header(blob: bytes, path) -> tuple[Dim3, GridKind, np.dtype]:
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
        kind = GridKind(header["kind"])
    except ValueError as exc:
        raise HeaderError(f"{path}: unknown kind {header['kind']!r}") from exc
    if "dtype" not in header:
        return shape, kind, _FLOAT
    if header["dtype"] != "u1":
        raise HeaderError(f"{path}: unknown payload dtype {header['dtype']!r}")
    if kind is not GridKind.BINARY:
        raise HeaderError(f"{path}: payload dtype 'u1' is for binary grids, not {kind.value}")
    return shape, kind, _BYTE
