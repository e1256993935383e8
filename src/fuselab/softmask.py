"""Soft masks from binary delineations plus an intensity volume.

Each connected lesion component is grown by iterated 3D dilation until the
candidate region reaches a target volume ratio; grown voxels that are
bright enough in the intensity volume (lesions are hyper-intense) receive
the soft label gamma, the rest of the ring drops back to 0, and the
original annotation stays exactly 1.

Only this module loads SciPy, inside the functions that call ``ndimage``, so
a process that fuses, scores or simulates never pays its import.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import ceil, inf

import numpy as np

from .errors import ConfigError, check_number
from .volume import ExpertStack, GridKind, VolumeGrid, check_grid

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

    def __post_init__(self):
        check_number("gamma", self.gamma, gt=0, lt=1)
        check_number("target_volume_ratio", self.target_volume_ratio, ge=1)
        if self.threshold_mode not in ("percentile", "fixed"):
            raise ConfigError(f"unknown threshold_mode {self.threshold_mode!r}")
        # A fixed threshold may be infinite, which gates every grown voxel out or in.
        lo, hi = (0, 100) if self.threshold_mode == "percentile" else (-inf, inf)
        check_number("threshold_value", self.threshold_value, ge=lo, le=hi)
        _check_connectivity(self.connectivity)
        check_number("max_dilation_iters", self.max_dilation_iters, integral=True, ge=1)


def _check_connectivity(connectivity) -> None:
    check_number("connectivity", connectivity, integral=True)
    if connectivity not in CONNECTIVITY_RANK:
        raise ConfigError(f"connectivity must be 6, 18 or 26, got {connectivity}")


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
        _check_connectivity(connectivity)
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


def connected_components(mask: VolumeGrid, connectivity: int = SoftMaskConfig.connectivity):
    """Label foreground under the chosen adjacency.

    Returns ``(labels, components)``: a flat int array of component ids
    (0 = background) and the list of flat voxel-index arrays, one per
    component, ordered by id.
    """
    from scipy import ndimage

    check_grid("mask", mask, GridKind.BINARY)
    structure = StructuringElement.from_connectivity(connectivity).as_array()
    labels3, count = ndimage.label(mask.as_3d() > 0.5, structure=structure)
    labels = labels3.reshape(-1)
    # A stable sort groups each id's voxels in index order; slot 0 is background.
    order = np.argsort(labels, kind="stable")
    ends = np.cumsum(np.bincount(labels, minlength=count + 1))
    return labels, np.split(order, ends[:-1])[1:]


def dilate(mask: VolumeGrid, se: StructuringElement, iters: int) -> VolumeGrid:
    """Iterated Minkowski dilation, clipped at the grid bounds."""
    from scipy import ndimage

    check_grid("mask", mask, GridKind.BINARY)
    check_number("iters", iters, integral=True, ge=0)
    grown = mask.as_3d() > 0.5
    if iters > 0:
        grown = ndimage.binary_dilation(grown, structure=se.as_array(), iterations=iters)
    return VolumeGrid(mask.dims, grown, GridKind.BINARY)


def _nearest_rank(sorted_values: np.ndarray, percentile: float) -> float:
    rank = max(1, ceil(percentile / 100.0 * sorted_values.size))
    return float(sorted_values[min(rank, sorted_values.size) - 1])


def _protocol(cfg: SoftMaskConfig | None) -> tuple[SoftMaskConfig, np.ndarray]:
    """The config and its dilation footprint."""
    cfg = cfg or SoftMaskConfig()
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
    from scipy import ndimage

    check_grid("binary", binary, GridKind.BINARY)
    check_grid("flair", flair, GridKind.INTENSITY, like=binary)

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
    check_grid("stack", stack, GridKind.BINARY)
    cfg, structure = _protocol(cfg)
    soft = tuple(_soft_mask(g, flair, cfg, structure) for g in stack.experts)
    return ExpertStack(soft, stack.expert_ids)
