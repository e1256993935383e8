"""Overlap metrics and parameter-recovery error for fusion outputs."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, DimensionMismatchError
from .staple import RaterParams
from .volume import GridKind, LABEL_KINDS, VolumeGrid

DICE_EPS = 1e-7


@dataclass(frozen=True)
class EvalReport:
    """Voxel-wise overlap summary; precision/recall are None when their
    denominator is empty."""

    dice: float
    precision: float | None
    recall: float | None
    tp: float
    fp: float
    fn: float

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _check_pair(truth: VolumeGrid, pred: VolumeGrid) -> None:
    """Both grids must hold labels, on the same dims."""
    for name, grid in (("truth", truth), ("pred", pred)):
        if grid.kind not in LABEL_KINDS:
            raise ConfigError(f"{name} must be a label grid, got {grid.kind.value}")
    if truth.dims != pred.dims:
        raise DimensionMismatchError(
            f"truth dims {truth.dims.as_tuple()} != pred dims {pred.dims.as_tuple()}"
        )


def soft_dice(truth: VolumeGrid, pred: VolumeGrid) -> float:
    """Smoothed Dice overlap on fractional labels.

    ``(sum(T*P) + eps) / (0.5*sum(P) + 0.5*sum(T) + eps)``; two empty
    grids score 1 by the eps convention. Use ``soft_dice_loss`` for the
    negated training-style value.
    """
    _check_pair(truth, pred)
    t, p = truth.data, pred.data
    return float(
        (np.sum(t * p) + DICE_EPS) / (0.5 * np.sum(p) + 0.5 * np.sum(t) + DICE_EPS)
    )


def soft_dice_loss(truth: VolumeGrid, pred: VolumeGrid) -> float:
    return -soft_dice(truth, pred)


def precision_recall(
    truth: VolumeGrid,
    pred: VolumeGrid,
    threshold: float = 0.5,
    binarize_truth: bool = False,
) -> EvalReport:
    """Confusion-count metrics with the prediction binarized at ``threshold``.

    Values exactly at the threshold go to 0, matching the consensus
    binarization rule. The truth must be binary; pass
    ``binarize_truth=True`` to apply the same rule to a soft truth.
    """
    _check_pair(truth, pred)
    if not 0.0 < threshold < 1.0:
        raise ConfigError(f"threshold must lie in (0, 1), got {threshold}")
    t = truth.data
    if truth.kind is not GridKind.BINARY:
        if not binarize_truth:
            raise ConfigError(
                "truth is not binary; pass binarize_truth=True to threshold it"
            )
        t = (t > threshold).astype(np.float64)
    p = (pred.data > threshold).astype(np.float64)

    tp = float(np.sum(t * p))
    fp = float(np.sum((1.0 - t) * p))
    fn = float(np.sum(t * (1.0 - p)))
    dice = (tp + DICE_EPS) / (tp + 0.5 * fp + 0.5 * fn + DICE_EPS)
    precision = tp / (tp + fp) if tp + fp > 0 else None
    recall = tp / (tp + fn) if tp + fn > 0 else None
    return EvalReport(dice, precision, recall, tp, fp, fn)


@dataclass(frozen=True)
class ParamRecovery:
    """Worst-case parameter error after resolving the label-swap symmetry.

    ``swapped`` reports whether the complemented hypothesis (sensitivity
    and specificity exchanged) matched better.
    """

    error: float
    swapped: bool


def param_recovery_error(estimated: RaterParams, truth: RaterParams) -> ParamRecovery:
    """Max absolute entry error between parameter sets, swap-resolved."""
    if estimated.m != truth.m:
        raise ConfigError(f"{estimated.m} estimated experts vs {truth.m} true experts")
    direct = max(
        float(np.max(np.abs(estimated.sens - truth.sens))),
        float(np.max(np.abs(estimated.spec - truth.spec))),
    )
    swapped = max(
        float(np.max(np.abs(estimated.spec - truth.sens))),
        float(np.max(np.abs(estimated.sens - truth.spec))),
    )
    if swapped < direct:
        return ParamRecovery(swapped, True)
    return ParamRecovery(direct, False)
