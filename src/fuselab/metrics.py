"""Overlap metrics and parameter-recovery error for fusion outputs."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, check_number
from .staple import RaterParams
from .volume import GridKind, LABEL_KINDS, VolumeGrid, check_grid

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
    check_grid("truth", truth, LABEL_KINDS)
    check_grid("pred", pred, LABEL_KINDS, like=truth)


def soft_dice(truth: VolumeGrid, pred: VolumeGrid) -> float:
    """Smoothed Dice overlap on fractional labels.

    ``(sum(T*P) + eps) / (0.5*sum(P) + 0.5*sum(T) + eps)``; two empty
    grids score 1 by the eps convention.
    """
    _check_pair(truth, pred)
    t, p = truth.data, pred.data
    return float(
        (np.sum(t * p) + DICE_EPS) / (0.5 * np.sum(p) + 0.5 * np.sum(t) + DICE_EPS)
    )


def precision_recall(
    truth: VolumeGrid,
    pred: VolumeGrid,
    threshold: float = 0.5,
    binarize_truth: bool = False,
) -> EvalReport:
    """Confusion-count metrics with the prediction binarized at ``threshold``.

    Values exactly at the threshold go to 0, matching the consensus
    binarization rule. The truth must be binary; pass
    ``binarize_truth=True`` to apply the same rule to a soft truth. Both
    masks hold 0/1 only, so the counts are exact integers.
    """
    _check_pair(truth, pred)
    check_number("threshold", threshold, gt=0, lt=1)
    if truth.kind is GridKind.BINARY:
        t = truth.data != 0.0
    elif binarize_truth:
        t = truth.data > threshold
    else:
        raise ConfigError("truth is not binary; pass binarize_truth=True to threshold it")
    p = pred.data > threshold

    tp = float(np.count_nonzero(t & p))
    fp = float(np.count_nonzero(p)) - tp
    fn = float(np.count_nonzero(t)) - tp
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
