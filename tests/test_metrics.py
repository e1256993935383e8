"""Overlap metrics and the swap-resolved parameter error."""

import json

import numpy as np
import pytest

from fuselab import (
    EvalReport,
    GridKind,
    RaterParams,
    param_recovery_error,
    precision_recall,
    soft_dice,
)
from fuselab.errors import ConfigError, DimensionMismatchError
from helpers import grid
from oracles import precision_recall_float


class TestSoftDice:
    def test_identical_binary_masks(self):
        t = grid([1.0, 1.0, 0.0, 0.0])
        assert soft_dice(t, t) == pytest.approx(1.0, abs=1e-7)

    def test_both_empty_is_perfect(self):
        t = grid([0.0, 0.0, 0.0])
        assert soft_dice(t, t) == 1.0

    def test_half_overlap(self):
        t = grid([1.0, 1.0, 0.0, 0.0])
        p = grid([1.0, 0.0, 1.0, 0.0])
        assert soft_dice(t, p) == pytest.approx(0.5, abs=1e-6)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            t = grid(rng.random(30), GridKind.SOFT)
            p = grid(rng.random(30), GridKind.SOFT)
            assert soft_dice(t, p) == soft_dice(p, t)

    def test_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            t = grid(rng.random(25), GridKind.SOFT)
            p = grid(rng.random(25), GridKind.SOFT)
            assert 0.0 <= soft_dice(t, p) <= 1.0

    def test_soft_self_dice_below_one(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            values = rng.uniform(0.05, 0.95, 40)
            t = grid(values, GridKind.SOFT)
            got = soft_dice(t, t)
            want = float(np.sum(values**2) / np.sum(values))
            assert got == pytest.approx(want, abs=1e-6)
            assert got < 1.0

    def test_scaling_prediction_never_raises_fp_mass(self):
        rng = np.random.default_rng(3)
        t = (rng.random(50) > 0.6).astype(float)
        p = rng.random(50)
        fp_mass = lambda pred: np.sum(pred) - np.sum(t * pred)
        for c in (1.0, 0.7, 0.3, 0.05):
            assert fp_mass(c * p) <= fp_mass(p) + 1e-12

    def test_dims_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            soft_dice(grid([1.0]), grid([1.0, 0.0]))

    def test_intensity_rejected(self):
        with pytest.raises(ConfigError):
            soft_dice(grid([1.0], GridKind.INTENSITY), grid([1.0]))


class TestPrecisionRecall:
    def test_perfect_prediction(self):
        t = grid([1.0, 1.0, 0.0, 0.0])
        rep = precision_recall(t, grid(t.data, GridKind.POSTERIOR))
        assert rep.precision == 1.0
        assert rep.recall == 1.0
        assert rep.dice == pytest.approx(1.0, abs=1e-6)

    def test_empty_prediction_has_undefined_precision(self):
        t = grid([1.0, 0.0, 1.0])
        p = grid([0.0, 0.0, 0.0], GridKind.POSTERIOR)
        rep = precision_recall(t, p)
        assert rep.precision is None
        assert rep.recall == 0.0
        assert json.loads(rep.to_json())["precision"] is None

    def test_confusion_counts(self):
        t = grid([1.0, 1.0, 0.0, 0.0])
        p = grid([1.0, 0.0, 1.0, 0.0], GridKind.POSTERIOR)
        rep = precision_recall(t, p)
        assert (rep.tp, rep.fp, rep.fn) == (1.0, 1.0, 1.0)
        assert rep.precision == 0.5
        assert rep.recall == 0.5
        assert rep.dice == pytest.approx(0.5, abs=1e-6)

    def test_threshold_tie_goes_to_background(self):
        t = grid([1.0])
        p = grid([0.5], GridKind.POSTERIOR)
        rep = precision_recall(t, p, threshold=0.5)
        assert rep.tp == 0.0
        assert rep.fn == 1.0

    def test_soft_truth_needs_flag(self):
        t = grid([0.7, 0.2], GridKind.SOFT)
        p = grid([1.0, 0.0], GridKind.POSTERIOR)
        with pytest.raises(ConfigError):
            precision_recall(t, p)
        rep = precision_recall(t, p, binarize_truth=True)
        assert rep.tp == 1.0
        assert rep.fp == 0.0

    def test_threshold_validated(self):
        t = grid([1.0])
        with pytest.raises(ConfigError):
            precision_recall(t, t, threshold=1.0)


class TestCountsAgainstFloatSums:
    """Counting the masks gives exactly the float sums of 0/1 products."""

    def _cases(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 2000))
            thr = float(rng.choice([0.5, 0.25, 0.9]))
            exact = rng.choice([0.0, thr, 1.0], n)   # ties at the threshold go to 0
            pred = np.where(rng.random(n) < 0.3, exact, rng.random(n))
            yield n, pred, thr

    def test_binary_truth(self):
        rng = np.random.default_rng(21)
        for n, pred, thr in self._cases(rng):
            truth = (rng.random(n) < rng.random()).astype(float)
            rep = precision_recall(grid(truth), grid(pred, GridKind.POSTERIOR), thr)
            assert rep == EvalReport(*precision_recall_float(truth, pred, thr))

    def test_soft_truth_binarized(self):
        rng = np.random.default_rng(22)
        for n, pred, thr in self._cases(rng):
            truth = rng.choice([0.0, 0.3, thr, 1.0, rng.random()], n)
            rep = precision_recall(grid(truth, GridKind.SOFT),
                                   grid(pred, GridKind.POSTERIOR), thr,
                                   binarize_truth=True)
            assert rep == EvalReport(*precision_recall_float(truth, pred, thr, True))


class TestParamRecovery:
    def test_identical(self):
        p = RaterParams([0.8, 0.9], [0.7, 0.6])
        rec = param_recovery_error(p, p)
        assert rec.error == 0.0
        assert not rec.swapped

    def test_swapped_hypothesis(self):
        truth = RaterParams([0.9, 0.8], [0.6, 0.7])
        est = RaterParams([0.6, 0.7], [0.9, 0.8])
        rec = param_recovery_error(est, truth)
        assert rec.error == 0.0
        assert rec.swapped

    def test_max_over_entries(self):
        truth = RaterParams([0.8, 0.8], [0.8, 0.8])
        est = RaterParams([0.81, 0.8], [0.8, 0.82])
        rec = param_recovery_error(est, truth)
        assert rec.error == pytest.approx(0.02)
        assert not rec.swapped

    def test_size_mismatch(self):
        with pytest.raises(ConfigError):
            param_recovery_error(RaterParams([0.8], [0.8]), RaterParams([0.8, 0.8], [0.8, 0.8]))

    def test_zero_experts_refused(self):
        """Refused as a ConfigError, not numpy's zero-size reduction error."""
        with pytest.raises(ConfigError, match=r"experts must lie in \[1, inf\], got 0"):
            param_recovery_error(RaterParams([], []), RaterParams([], []))
