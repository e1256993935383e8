"""Dense 3D volume grids and aligned multi-expert stacks.

A :class:`VolumeGrid` is the single carrier type for every dense map in the
package: image intensities, binary masks, soft labels, and posteriors. Data
is stored as a flat float64 array in x-fastest order, so voxel (ix, iy, iz)
lives at index ``t = ix + nx * (iy + ny * iz)``. All downstream algorithms
work on the flat index t.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DimensionMismatchError,
    DuplicateExpertIdError,
    EmptyStackError,
    MixedKindError,
    ShapeError,
    ValueRangeError,
)


class GridKind(str, Enum):
    """What the voxel values of a grid mean; decides the validity range."""

    INTENSITY = "intensity"
    BINARY = "binary"
    SOFT = "soft"
    POSTERIOR = "posterior"


LABEL_KINDS = (GridKind.BINARY, GridKind.SOFT, GridKind.POSTERIOR)


@dataclass(frozen=True)
class Dim3:
    """Voxel counts per axis."""

    nx: int
    ny: int
    nz: int

    def __post_init__(self):
        for name in ("nx", "ny", "nz"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 1:
                raise ShapeError(f"{name} must be a positive integer, got {v!r}")
            # Python ints: the product below cannot wrap, and JSON takes them.
            object.__setattr__(self, name, int(v))
        if self.nx * self.ny * self.nz >= 2**62:
            raise ShapeError("voxel count exceeds the addressable size")

    @property
    def n(self) -> int:
        """Total voxel count."""
        return self.nx * self.ny * self.nz

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.nx, self.ny, self.nz)


def linear_index(ix: int, iy: int, iz: int, dims: Dim3) -> int:
    """Flat x-fastest voxel index of coordinate (ix, iy, iz).

    Raises IndexError when any coordinate is out of range.
    """
    if not (0 <= ix < dims.nx and 0 <= iy < dims.ny and 0 <= iz < dims.nz):
        raise IndexError(
            f"coordinate ({ix}, {iy}, {iz}) outside grid {dims.as_tuple()}"
        )
    return ix + dims.nx * (iy + dims.ny * iz)


def _check_size(data: np.ndarray, dims: Dim3) -> None:
    if data.size != dims.n:
        raise ShapeError(f"data length {data.size} does not match dims product {dims.n}")


# Values are checked in blocks of this many voxels (512 KiB of float64), so
# that the check's temporaries, or a block just read from a file, stay in a
# core's L2 cache.
_CHECK_BLOCK = 1 << 16


def _check_values(data: np.ndarray, kind: GridKind) -> None:
    for lo in range(0, data.size, _CHECK_BLOCK):
        _check_block(data[lo : lo + _CHECK_BLOCK], kind)


def _check_block(data: np.ndarray, kind: GridKind) -> None:
    if kind is GridKind.BINARY:
        if not np.all((data == 0.0) | (data == 1.0)):
            raise ValueRangeError("binary grid holds a value other than 0.0/1.0")
    elif kind in (GridKind.SOFT, GridKind.POSTERIOR):
        if not np.all((data >= 0.0) & (data <= 1.0)):
            raise ValueRangeError(f"{kind.value} grid holds a value outside [0, 1]")
    else:
        if not np.all(np.isfinite(data)):
            raise ValueRangeError("intensity grid holds a non-finite value")


@dataclass(frozen=True, eq=False)
class VolumeGrid:
    """Immutable dense 3D scalar grid.

    ``data`` is kept as a read-only flat float64 array of length
    ``dims.n`` in x-fastest order; instances are safe to share across
    workers.
    """

    dims: Dim3
    data: np.ndarray
    kind: GridKind

    def __post_init__(self):
        arr = np.array(self.data, dtype=np.float64, order="C").reshape(-1)
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)
        self.validate()

    @classmethod
    def _owned(cls, dims: Dim3, data: np.ndarray, kind: GridKind) -> "VolumeGrid":
        """Wrap a flat float64 array that the package has just built and
        that nothing else holds, without a copy and without a value scan:
        the caller checks the values where they can fail. The size is
        checked here."""
        _check_size(data, dims)
        data.flags.writeable = False
        grid = object.__new__(cls)
        for name, value in (("dims", dims), ("data", data), ("kind", kind)):
            object.__setattr__(grid, name, value)
        return grid

    @classmethod
    def from_3d(cls, arr, kind: GridKind) -> "VolumeGrid":
        """Build a grid from an array indexed ``[iz, iy, ix]``."""
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 3:
            raise ShapeError(f"expected a 3D array, got ndim={arr.ndim}")
        nz, ny, nx = arr.shape
        return cls(Dim3(nx, ny, nz), arr.reshape(-1), kind)

    def as_3d(self) -> np.ndarray:
        """Read-only view with shape (nz, ny, nx); flattens back x-fastest."""
        return self.data.reshape(self.dims.nz, self.dims.ny, self.dims.nx)

    @property
    def n(self) -> int:
        return self.dims.n

    def validate(self) -> None:
        """Check the invariants; the public constructor runs this on its copy."""
        _check_size(self.data, self.dims)
        _check_values(self.data, self.kind)

    def with_kind(self, kind: GridKind) -> "VolumeGrid":
        return VolumeGrid(self.dims, self.data, kind)

    def __eq__(self, other) -> bool:
        if not isinstance(other, VolumeGrid):
            return NotImplemented
        return (
            self.dims == other.dims
            and self.kind == other.kind
            and np.array_equal(self.data, other.data)
        )


@dataclass(frozen=True)
class ExpertStack:
    """Aligned annotation volumes from m experts for one case.

    All member grids must share dims and kind (all binary or all soft);
    soft values are read as the probability the expert assigns to label 1.
    Construction runs :func:`validate_stack`.
    """

    experts: tuple[VolumeGrid, ...]
    expert_ids: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "experts", tuple(self.experts))
        object.__setattr__(self, "expert_ids", tuple(self.expert_ids))
        validate_stack(self)

    @property
    def m(self) -> int:
        return len(self.experts)

    @property
    def dims(self) -> Dim3:
        return self.experts[0].dims

    @property
    def kind(self) -> GridKind:
        return self.experts[0].kind

    def as_matrix(self) -> np.ndarray:
        """Votes as an (m, n) array, expert-major."""
        return np.stack([g.data for g in self.experts])

    def reordered(self, order) -> "ExpertStack":
        return ExpertStack(
            tuple(self.experts[i] for i in order),
            tuple(self.expert_ids[i] for i in order),
        )


def validate_stack(stack: ExpertStack) -> None:
    """Check all ExpertStack invariants, raising a specific StackError."""
    if stack.m < 1:
        raise EmptyStackError("a stack needs at least one expert")
    if len(stack.expert_ids) != stack.m:
        raise DuplicateExpertIdError(
            f"{len(stack.expert_ids)} ids for {stack.m} expert grids"
        )
    if len(set(stack.expert_ids)) != stack.m:
        raise DuplicateExpertIdError(
            f"expert ids are not distinct: {sorted(stack.expert_ids)}"
        )
    dims = stack.experts[0].dims
    kind = stack.experts[0].kind
    if kind not in (GridKind.BINARY, GridKind.SOFT):
        raise MixedKindError(f"stack grids must be binary or soft, got {kind.value}")
    for g, eid in zip(stack.experts, stack.expert_ids):
        if g.dims != dims:
            raise DimensionMismatchError(
                f"expert {eid!r} has dims {g.dims.as_tuple()}, "
                f"expected {dims.as_tuple()}"
            )
        if g.kind is not kind:
            raise MixedKindError(
                f"expert {eid!r} has kind {g.kind.value}, expected {kind.value}"
            )
