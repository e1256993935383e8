"""``fuse`` writes its posterior and consensus from the fusion's posterior
table and voxel index, block by block: the files equal ``write_svol`` of the
gathered grids byte for byte, a bad table fails as a bad grid did, and no
voxel-sized float64 array is made."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fuselab import (
    Dim3,
    FusionConfig,
    GridKind,
    VolumeGrid,
    binarize,
    run_em,
    write_svol,
)
from fuselab import soft_staple as ss
from fuselab.cli import main
from fuselab.staple import _PatternModel, vote_patterns
from helpers import stack_from_rows

DIMS = Dim3(12, 10, 8)


def _binary_rows(m, fill, seed, flip=0.1):
    rng = np.random.default_rng(seed)
    truth = rng.random(DIMS.n) < fill
    return np.array([truth ^ (rng.random(DIMS.n) < flip) for _ in range(m)], dtype=float)


def _soft_rows(seed):
    """Seven soft raters: most voxels hard, some with one fractional vote
    (soft-mc tallies them) and some with every vote fractional (sampled at
    few samples)."""
    rng = np.random.default_rng(seed)
    rows = _binary_rows(7, 0.3, seed)
    some = rng.random(DIMS.n) < 0.2
    rows[0, some] = rng.choice([0.25, 0.5, 0.75], some.sum())
    every = rng.random(DIMS.n) < 0.05
    rows[:, every] = rng.random((7, every.sum()))
    return rows


def _fuse(tmp_path, rows, kind, variant, samples=None):
    paths = []
    for i, row in enumerate(rows):
        paths.append(str(tmp_path / f"r{i:02d}.svol"))
        write_svol(VolumeGrid(DIMS, row, kind), paths[-1])
    extra = [] if samples is None else ["--mc-samples", str(samples)]
    out = tmp_path / "out"
    assert main(["fuse", *paths, "--variant", variant, "--max-iters", "5", "--binarize",
                 *extra, "-o", str(out)]) == 0
    stack = stack_from_rows(rows, kind, ids=tuple(f"r{i:02d}" for i in range(len(rows))),
                            dims=DIMS)
    config = FusionConfig(variant=variant, max_iters=5,
                          **({} if samples is None else {"mc_samples": samples}))
    return out, stack, run_em(stack, config)


@pytest.mark.parametrize("rows, kind, variant, samples, index", [
    (_binary_rows(7, 0.3, 1), GridKind.BINARY, "binary", None, np.uint8),
    (_binary_rows(11, 0.5, 2, flip=0.5), GridKind.BINARY, "binary", None, np.uint16),
    (_soft_rows(3), GridKind.SOFT, "simplified", None, np.uint8),
    (_soft_rows(3), GridKind.SOFT, "soft-exact", None, np.uint8),
    (_soft_rows(4), GridKind.SOFT, "soft-mc", 8, np.uint16),
    (_soft_rows(4), GridKind.SOFT, "soft-mc", 4096, np.uint16),
], ids=["binary-u8", "binary-u16", "simplified", "soft-exact", "soft-mc-8", "soft-mc-4096"])
def test_fuse_writes_the_gathered_grids(tmp_path, rows, kind, variant, samples, index):
    out, stack, result = _fuse(tmp_path, rows, kind, variant, samples)
    assert result.posterior_map.index.dtype == index
    assert result.posterior_map.table.size < DIMS.n
    write_svol(result.posterior, tmp_path / "posterior.svol")
    write_svol(binarize(result.posterior), tmp_path / "consensus.svol")
    for name in ("posterior.svol", "consensus.svol"):
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes()
    assert binarize(result.posterior_map).gather() == binarize(result.posterior)
    if variant == "soft-mc":
        patterns = vote_patterns(stack)
        _, tallied = ss._mc_plan(patterns.columns, patterns.counts, samples)
        soft = np.any((patterns.columns > 0.0) & (patterns.columns < 1.0), axis=0)
        assert tallied[soft].any()
        assert (~tallied[soft]).any() == (samples == 8)


@pytest.mark.parametrize("bad", [np.nan, 1.5, -0.5])
def test_bad_table_fails_as_the_grid_did_and_leaves_no_outputs(tmp_path, monkeypatch,
                                                               capsys, bad):
    """The clip lets NaN through, and the range check stays; an out-of-range
    value is clipped into [0, 1], as it was on the grid."""
    table = _PatternModel.posterior_table

    def poisoned(self, ev):
        w1, index = table(self, ev)
        w1[-1] = bad
        return w1, index

    monkeypatch.setattr(_PatternModel, "posterior_table", poisoned)
    rows = _binary_rows(5, 0.3, 5)
    paths = []
    for i, row in enumerate(rows):
        paths.append(str(tmp_path / f"r{i}.svol"))
        write_svol(VolumeGrid(DIMS, row, GridKind.BINARY), paths[-1])
    out = tmp_path / "out"
    code = main(["fuse", *paths, "--binarize", "-o", str(out)])
    if np.isnan(bad):
        assert code == 3
        assert "posterior grid holds a value outside [0, 1]" in capsys.readouterr().err
        assert list(out.iterdir()) == []
    else:
        assert code == 0
        assert set(p.name for p in out.iterdir()) == {"posterior.svol", "consensus.svol",
                                                      "params.json", "manifest.json"}


def test_binarized_fuse_holds_no_voxel_sized_float64_array(tmp_path):
    """A binary ``fuse --binarize`` of seven 64^3 rater files: tracemalloc
    peak 4.4 bytes per voxel, against 18.1 with a gathered posterior and its
    0/1 copy."""
    dims = Dim3(64, 64, 64)
    rng = np.random.default_rng(7)
    truth = rng.random(dims.n) < 0.2
    paths = []
    for i in range(7):
        paths.append(str(tmp_path / f"r{i}.svol"))
        row = (truth ^ (rng.random(dims.n) < 0.02)).astype(float)
        write_svol(VolumeGrid(dims, row, GridKind.BINARY), paths[-1])
    argv = ["fuse", *paths, "--binarize", "--max-iters", "3", "--force"]
    assert main([*argv, "-o", str(tmp_path / "warm")]) == 0
    tracemalloc.start()
    try:
        assert main([*argv, "-o", str(tmp_path / "out")]) == 0
        peak = tracemalloc.get_traced_memory()[1] / dims.n
    finally:
        tracemalloc.stop()
    assert Path(tmp_path / "out" / "consensus.svol").stat().st_size > dims.n
    assert peak < 8, peak
