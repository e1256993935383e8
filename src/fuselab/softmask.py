"""Soft masks from binary delineations plus an intensity volume.

Each connected lesion component is grown by iterated 3D dilation until the
candidate region reaches a target volume ratio; grown voxels that are
bright enough in the intensity volume (lesions are hyper-intense) receive
the soft label gamma, the rest of the ring drops back to 0, and the
original annotation stays exactly 1.

Labeling, bounding boxes and dilation are plain numpy: the package loads no
SciPy, whose import would cost each command more than the protocol itself.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def _footprint(connectivity) -> np.ndarray:
    """The 3x3x3 boolean footprint of one dilation or labelling step, origin
    included: the offsets of at most ``CONNECTIVITY_RANK[connectivity]``
    unit steps."""
    _check_connectivity(connectivity)
    return np.abs(np.indices((3, 3, 3)) - 1).sum(axis=0) <= CONNECTIVITY_RANK[connectivity]


def _label(mask3: np.ndarray, footprint: np.ndarray) -> tuple[np.ndarray, int]:
    """``ndimage.label``: the components of a boolean grid under the footprint's
    adjacency, numbered 1, 2, ... by each one's first voxel in C order (0 =
    background), and their count. A union-find over the foreground's C-order
    ranks joins the pairs the forward offsets link, in batches of up to about
    one pair per grid voxel (a peak near 50 bytes per voxel): each root is
    hooked onto the smallest root paired with it, then pointers jump until
    every voxel points at its root, so a root is its component's first voxel."""
    padded = np.pad(mask3, 1)  # a False border: no flat shift wraps between rows
    flat = padded.reshape(-1)
    index = np.int32 if flat.size < 2**31 else np.int64
    voxels = np.flatnonzero(flat).astype(index)
    rank = np.empty(flat.size, dtype=index)  # read only at foreground voxels
    rank[voxels] = np.arange(voxels.size, dtype=index)
    parent = np.arange(voxels.size, dtype=index)
    # A bool array's strides are element strides; each pair is met from its first voxel.
    shifts = [s for s in ((np.argwhere(footprint) - 1) @ padded.strides).tolist() if s > 0]
    pending = []
    for i, shift in enumerate(shifts, start=1):
        u = np.flatnonzero(flat[voxels + shift]).astype(index)
        pending.append((u, rank[voxels[u] + shift]))
        if i < len(shifts) and sum(p.size for p, _ in pending) < flat.size:
            continue
        u, v = map(np.concatenate, zip(*pending))
        pending.clear()
        while u.size:
            u, v = parent[u], parent[v]
            split = u != v
            u, v = u[split], v[split]
            np.minimum.at(parent, np.maximum(u, v), np.minimum(u, v))
            while not np.array_equal(jumped := parent[parent], parent):
                parent = jumped
    roots = parent == np.arange(voxels.size, dtype=index)
    labels = np.zeros(mask3.shape, dtype=index)
    labels[mask3] = np.cumsum(roots, dtype=index)[parent]
    return labels, int(roots.sum())


def _boxes(labels3: np.ndarray, count: int) -> list[tuple[slice, ...]]:
    """``ndimage.find_objects``: the bounding box of each id 1..count, as slices."""
    at = np.flatnonzero(labels3 > 0)
    ids = labels3.reshape(-1)[at] - 1
    lo, hi = np.full((3, count), max(labels3.shape)), np.zeros((3, count), dtype=int)
    for axis, coord in enumerate(np.unravel_index(at, labels3.shape)):
        np.minimum.at(lo[axis], ids, coord)
        np.maximum.at(hi[axis], ids, coord)
    return [tuple(map(slice, a, b)) for a, b in zip(lo.T.tolist(), (hi.T + 1).tolist())]


def _dilation_step(region: np.ndarray, footprint: np.ndarray, pads=((0, 0),) * 3) -> np.ndarray:
    """One dilation of a boolean ``region`` by a symmetric 3x3x3 ``footprint``, False
    outside it, over its box widened by ``pads``: (before, after) voxels per axis, 0 or 1."""
    shape = tuple(n + lo + hi for n, (lo, hi) in zip(region.shape, pads))
    src = np.zeros(tuple(n + 2 for n in shape), dtype=bool)
    src[tuple(slice(1 + lo, 1 + lo + n) for n, (lo, _) in zip(region.shape, pads))] = region
    if footprint.all():  # the full box is separable: a three-wide OR along each axis
        src = src[:-2] | src[1:-1] | src[2:]
        src = src[:, :-2] | src[:, 1:-1] | src[:, 2:]
        return src[:, :, :-2] | src[:, :, 1:-1] | src[:, :, 2:]
    out = np.zeros(shape, dtype=bool)
    for i, j, k in np.argwhere(footprint).tolist():
        out |= src[i:i + shape[0], j:j + shape[1], k:k + shape[2]]
    return out


def connected_components(mask: VolumeGrid, connectivity: int = SoftMaskConfig.connectivity):
    """Label foreground under the chosen adjacency.

    Returns ``(labels, components)``: a flat int array of component ids
    (0 = background) and the list of flat voxel-index arrays, one per
    component, ordered by id.
    """
    check_grid("mask", mask, GridKind.BINARY)
    labels3, count = _label(mask.as_3d() > 0.5, _footprint(connectivity))
    labels = labels3.reshape(-1)
    # A stable sort of the foreground groups each id's voxels in index order.
    fg = np.flatnonzero(labels)
    ids = labels[fg]
    order = fg[np.argsort(ids, kind="stable")]
    ends = np.cumsum(np.bincount(ids, minlength=count + 1)).tolist()
    return labels, [order[lo:hi] for lo, hi in zip(ends, ends[1:])]


def _nearest_rank(sorted_values: np.ndarray, percentile: float) -> float:
    rank = max(1, ceil(percentile / 100.0 * sorted_values.size))
    return float(sorted_values[min(rank, sorted_values.size) - 1])


def _protocol(cfg: SoftMaskConfig | None) -> tuple[SoftMaskConfig, np.ndarray]:
    """The config and its dilation footprint."""
    cfg = cfg or SoftMaskConfig()
    return cfg, _footprint(cfg.connectivity)


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
    check_grid("binary", binary, GridKind.BINARY)
    check_grid("flair", flair, GridKind.INTENSITY, like=binary)

    original = binary.as_3d() > 0.5
    flair3 = flair.as_3d()
    out = original.astype(np.float64)

    labels3, count = _label(original, structure)
    for cid, box in enumerate(_boxes(labels3, count), start=1):
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
            candidate = _dilation_step(candidate, structure, pads)
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
