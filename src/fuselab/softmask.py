"""Soft masks from binary delineations plus an intensity volume.

Each connected lesion component is grown by iterated 3D dilation until the
candidate region reaches a target volume ratio; grown voxels that are
bright enough in the intensity volume (lesions are hyper-intense) receive
the soft label gamma, the rest of the ring drops back to 0, and the
original annotation stays exactly 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import ceil, isnan

import numpy as np
from scipy import ndimage

from .errors import ConfigError, DimensionMismatchError, check_number
from .volume import ExpertStack, GridKind, VolumeGrid

CONNECTIVITY_RANK = {6: 1, 18: 2, 26: 3}


@dataclass(frozen=True)
class SoftMaskConfig:
    """Protocol parameters.

    ``threshold_mode`` is "percentile" (nearest-rank percentile of the
    intensity values over the component's own annotated voxels) or
    "fixed" (threshold_value used directly).
    """

    gamma: float = 0.3
    target_volume_ratio: float = 1.2
    threshold_mode: str = "percentile"
    threshold_value: float = 10.0
    connectivity: int = 26
    max_dilation_iters: int = 10

    def validate(self) -> None:
        for name in ("gamma", "target_volume_ratio", "threshold_value"):
            check_number(name, getattr(self, name))
        for name in ("connectivity", "max_dilation_iters"):
            check_number(name, getattr(self, name), integral=True)
        if not 0.0 < self.gamma < 1.0:
            raise ConfigError(f"gamma must lie strictly in (0, 1), got {self.gamma}")
        if not self.target_volume_ratio >= 1.0:
            raise ConfigError(
                f"target_volume_ratio must be >= 1, got {self.target_volume_ratio}"
            )
        if self.threshold_mode not in ("percentile", "fixed"):
            raise ConfigError(f"unknown threshold_mode {self.threshold_mode!r}")
        if isnan(self.threshold_value):
            raise ConfigError("threshold_value must be a number, got nan")
        if self.threshold_mode == "percentile" and not 0.0 <= self.threshold_value <= 100.0:
            raise ConfigError(
                f"percentile must lie in [0, 100], got {self.threshold_value}"
            )
        if self.connectivity not in CONNECTIVITY_RANK:
            raise ConfigError(
                f"connectivity must be 6, 18 or 26, got {self.connectivity}"
            )
        if self.max_dilation_iters < 1:
            raise ConfigError(
                f"max_dilation_iters must be >= 1, got {self.max_dilation_iters}"
            )


@dataclass(frozen=True)
class StructuringElement:
    """Neighbor offsets of one dilation step, origin included."""

    offsets: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        offs = set(self.offsets)
        for face in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)):
            if face not in offs:
                raise ConfigError("structuring element must contain all face neighbors")
        for dx, dy, dz in offs:
            if (-dx, -dy, -dz) not in offs:
                raise ConfigError("structuring element must be symmetric under negation")

    @classmethod
    def from_connectivity(cls, connectivity: int) -> "StructuringElement":
        if connectivity not in CONNECTIVITY_RANK:
            raise ConfigError(
                f"connectivity must be 6, 18 or 26, got {connectivity}"
            )
        rank = CONNECTIVITY_RANK[connectivity]
        offsets = tuple(
            (dx, dy, dz)
            for dx, dy, dz in product((-1, 0, 1), repeat=3)
            if 0 <= abs(dx) + abs(dy) + abs(dz) <= rank
        )
        return cls(offsets)

    def as_array(self) -> np.ndarray:
        """3x3x3 boolean footprint indexed [dz+1, dy+1, dx+1] for scipy."""
        arr = np.zeros((3, 3, 3), dtype=bool)
        for dx, dy, dz in self.offsets:
            arr[dz + 1, dy + 1, dx + 1] = True
        return arr


def connected_components(mask: VolumeGrid, connectivity: int = 26):
    """Label foreground under the chosen adjacency.

    Returns ``(labels, components)``: a flat int array of component ids
    (0 = background) and the list of flat voxel-index arrays, one per
    component, ordered by id.
    """
    if mask.kind is not GridKind.BINARY:
        raise ConfigError(f"connected_components expects a binary mask, got {mask.kind.value}")
    structure = StructuringElement.from_connectivity(connectivity).as_array()
    labels3, count = ndimage.label(mask.as_3d() > 0.5, structure=structure)
    labels = labels3.reshape(-1)
    # A stable sort groups each id's voxels in index order; slot 0 is background.
    order = np.argsort(labels, kind="stable")
    ends = np.cumsum(np.bincount(labels, minlength=count + 1))
    return labels, np.split(order, ends[:-1])[1:]


def dilate(mask: VolumeGrid, se: StructuringElement, iters: int) -> VolumeGrid:
    """Iterated Minkowski dilation, clipped at the grid bounds."""
    if mask.kind is not GridKind.BINARY:
        raise ConfigError(f"dilate expects a binary mask, got {mask.kind.value}")
    if iters < 0:
        raise ConfigError(f"iters must be >= 0, got {iters}")
    grown = mask.as_3d() > 0.5
    if iters > 0:
        grown = ndimage.binary_dilation(grown, structure=se.as_array(), iterations=iters)
    return VolumeGrid(mask.dims, grown, GridKind.BINARY)


def _nearest_rank(sorted_values: np.ndarray, percentile: float) -> float:
    rank = max(1, ceil(percentile / 100.0 * sorted_values.size))
    return float(sorted_values[min(rank, sorted_values.size) - 1])


def _protocol(cfg: SoftMaskConfig | None) -> tuple[SoftMaskConfig, np.ndarray]:
    """The validated config and its dilation footprint."""
    cfg = cfg or SoftMaskConfig()
    cfg.validate()
    return cfg, StructuringElement.from_connectivity(cfg.connectivity).as_array()


def build_soft_mask(
    binary: VolumeGrid, flair: VolumeGrid, cfg: SoftMaskConfig | None = None
) -> VolumeGrid:
    """Apply the full protocol to one expert's binary mask.

    Per component: grow by unit dilations until the candidate region holds
    at least ``target_volume_ratio`` times the component's voxels (or the
    iteration cap is hit, or a step adds no voxel), take the intensity
    threshold, then label the ring. Original annotations always stay 1; a
    voxel excluded by one component's threshold can still receive gamma
    from another component.
    """
    return _soft_mask(binary, flair, *_protocol(cfg))


def _soft_mask(
    binary: VolumeGrid, flair: VolumeGrid, cfg: SoftMaskConfig, structure: np.ndarray
) -> VolumeGrid:
    if binary.kind is not GridKind.BINARY:
        raise ConfigError(f"expected a binary mask, got {binary.kind.value}")
    if flair.kind is not GridKind.INTENSITY:
        raise ConfigError(f"expected an intensity volume, got {flair.kind.value}")
    if binary.dims != flair.dims:
        raise DimensionMismatchError(
            f"mask dims {binary.dims.as_tuple()} != intensity dims {flair.dims.as_tuple()}"
        )

    original = binary.as_3d() > 0.5
    flair3 = flair.as_3d()
    out = original.astype(np.float64)

    labels3, _ = ndimage.label(original, structure=structure)
    for cid, box in enumerate(ndimage.find_objects(labels3), start=1):
        comp_mask = labels3[box] == cid
        if cfg.threshold_mode == "fixed":
            threshold = cfg.threshold_value
        else:
            threshold = _nearest_rank(np.sort(flair3[box][comp_mask]), cfg.threshold_value)

        candidate, size, last, iters = comp_mask, int(comp_mask.sum()), -1, 0
        target = cfg.target_volume_ratio * size
        # Dilation only adds voxels: a step that adds none fixes the region for good.
        # A unit step grows it by at most one voxel per axis side, and the grid edge
        # clips it as the full grid's zero border does: widen the box by one, clipped.
        while last < size < target and iters < cfg.max_dilation_iters:
            pads = [(min(1, s.start), min(1, n - s.stop)) for s, n in zip(box, original.shape)]
            box = tuple(slice(s.start - lo, s.stop + hi) for s, (lo, hi) in zip(box, pads))
            candidate = ndimage.binary_dilation(np.pad(candidate, pads), structure=structure)
            last, size = size, int(candidate.sum())
            iters += 1

        accepted = candidate & ~original[box] & (flair3[box] >= threshold)
        view = out[box]
        view[accepted] = np.maximum(view[accepted], cfg.gamma)

    return VolumeGrid(binary.dims, out.reshape(-1), GridKind.SOFT)


def build_soft_stack(
    stack: ExpertStack, flair: VolumeGrid, cfg: SoftMaskConfig | None = None
) -> ExpertStack:
    """Apply the protocol independently to every expert in a binary stack."""
    if stack.kind is not GridKind.BINARY:
        raise ConfigError("build_soft_stack expects a binary stack")
    cfg, structure = _protocol(cfg)
    soft = tuple(_soft_mask(g, flair, cfg, structure) for g in stack.experts)
    return ExpertStack(soft, stack.expert_ids)
