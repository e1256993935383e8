"""``fuse`` folds its inputs one at a time: every header is checked before
any payload is read, outputs equal ``run_em`` on the whole stack byte for
byte, and the m x n float64 stack is never held."""

import json
import os
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fuselab.cli
from fuselab import (
    Dim3,
    ExpertStack,
    FusionConfig,
    GridKind,
    VolumeGrid,
    binarize,
    read_svol,
    run_em,
    write_svol,
)
from fuselab.cli import main
from fuselab.errors import TrailingDataError, TruncatedPayloadError
from fuselab.staple import MSTEP_MODES, VARIANTS, _mean_vote_prior, vote_patterns
from fuselab.svol_io import read_svol_header
from helpers import stack_from_rows, watch_payload_reads
from oracles import mean_vote_prior

_HUGE = "1" + "0" * 5000  # past Python's 4,300-digit int conversion limit


def _write(paths, rows, kind, dims):
    for path, row in zip(paths, rows):
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        write_svol(VolumeGrid(dims, row, kind), path)
    return [str(p) for p in paths]


def _rater_rows(rng, m, n, flip=0.02, soft=0.0):
    """m binary raters of one truth, each flipping a share of its votes; a
    share ``soft`` of the votes is then set to 0.5 (and 0.25 for one rater
    in two), which keeps the levels per expert at three or four."""
    truth = rng.random(n) < 0.2
    rows = np.array([truth ^ (rng.random(n) < flip) for _ in range(m)], dtype=float)
    rows[rng.random(rows.shape) < soft] = 0.5
    rows[::2][rng.random(rows[::2].shape) < soft / 2] = 0.25
    return rows


class TestOversizedJsonIntegers:
    def test_simulate_radius_exits_2_without_output(self, tmp_path, capsys):
        spec = {"dims": [8, 8, 8], "lesions": [{"center": [4, 4, 4], "radius": 0}],
                "raters": [{"id": "a", "sens": 0.9, "spec": 0.9}]}
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(spec).replace('"radius": 0', f'"radius": {_HUGE}'))
        out = tmp_path / "out"
        assert main(["simulate", str(path), "-o", str(out)]) == 2
        assert "not valid JSON" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_config_prior_exits_2(self, tmp_path, capsys):
        g = VolumeGrid(Dim3(4, 1, 1), [0.0, 1.0, 1.0, 0.0], GridKind.BINARY)
        write_svol(g, tmp_path / "t.svol")
        config = tmp_path / "config.json"
        config.write_text(f'{{"prior": {_HUGE}}}')
        assert main(["eval", str(tmp_path / "t.svol"), str(tmp_path / "t.svol"),
                     "--config", str(config)]) == 2
        assert "not valid JSON" in capsys.readouterr().err


class TestHeadersFirst:
    @pytest.mark.parametrize("command", ["fuse", "softmask"])
    @pytest.mark.parametrize("mismatch", ["dims", "kind"])
    def test_last_file_mismatch_reads_no_payload(self, tmp_path, monkeypatch, capsys,
                                                 command, mismatch):
        dims = Dim3(4, 3, 2)
        rows = (np.random.default_rng(3).random((3, dims.n)) < 0.4).astype(float)
        paths = _write([tmp_path / f"e{i}.svol" for i in range(3)], rows, GridKind.BINARY, dims)
        last = (VolumeGrid(Dim3(2, 3, 4), rows[2], GridKind.BINARY) if mismatch == "dims"
                else VolumeGrid(dims, rows[2], GridKind.SOFT))
        write_svol(last, paths[2])
        write_svol(VolumeGrid(dims, np.ones(dims.n), GridKind.INTENSITY), tmp_path / "f.svol")
        calls = watch_payload_reads(monkeypatch)
        flair = ["--flair", str(tmp_path / "f.svol")]
        assert main([command, *paths, *flair, "-o", str(tmp_path / "out")]) == 3
        assert f"expert 'e2' has {mismatch} " in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("command", ["fuse", "softmask"])
    def test_pipe_input_exits_3(self, tmp_path, capsys, command):
        """Each input is opened twice, header then payload, which a pipe cannot serve."""
        dims = Dim3(4, 3, 2)
        rows = (np.random.default_rng(5).random((2, dims.n)) < 0.4).astype(float)
        paths = _write([tmp_path / f"e{i}.svol" for i in range(2)], rows, GridKind.BINARY, dims)
        write_svol(VolumeGrid(dims, np.ones(dims.n), GridKind.INTENSITY), tmp_path / "f.svol")
        r, w = os.pipe()
        try:
            os.write(w, Path(paths[1]).read_bytes())
            os.close(w)
            argv = [command, paths[0], f"/dev/fd/{r}", "--flair", str(tmp_path / "f.svol")]
            assert main([*argv, "-o", str(tmp_path / "out")]) == 3
        finally:
            os.close(r)
        assert f"/dev/fd/{r} is not a regular file" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_file_replaced_after_the_header_pass_exits_3(self, tmp_path, monkeypatch, capsys):
        dims = Dim3(4, 3, 2)
        rows = (np.random.default_rng(4).random((3, dims.n)) < 0.4).astype(float)
        paths = _write([tmp_path / f"e{i}.svol" for i in range(3)], rows, GridKind.BINARY, dims)
        read = fuselab.cli.read_svol_row

        def replace_then_read(path):
            write_svol(VolumeGrid(Dim3(2, 3, 4), rows[2], GridKind.BINARY), path)
            return read(path)

        monkeypatch.setattr(fuselab.cli, "read_svol_row", replace_then_read)
        assert main(["fuse", *paths, "-o", str(tmp_path / "out")]) == 3
        assert "header changed while the inputs were read" in capsys.readouterr().err

    def test_header_reader_checks_the_size_like_read_svol(self, tmp_path):
        g = VolumeGrid(Dim3(3, 2, 1), np.linspace(0, 1, 6), GridKind.SOFT)
        path = tmp_path / "g.svol"
        write_svol(g, path)
        assert read_svol_header(path) == (g.dims, g.kind)
        blob = path.read_bytes()
        for payload, error in ((blob[:-1], TruncatedPayloadError),
                               (blob + b"\0", TrailingDataError)):
            path.write_bytes(payload)
            with pytest.raises(error) as by_header:
                read_svol_header(path)
            with pytest.raises(error) as by_read:
                read_svol(path)
            assert str(by_header.value) == str(by_read.value)


def _assert_fuse_equals_run_em(tmp_path, paths, config, flags):
    """CLI ``fuse`` outputs equal ``run_em`` on the stack of the same files
    (ids as the CLI names them), written out."""
    out = tmp_path / "out"
    assert main(["fuse", *paths, "-o", str(out), "--binarize", *flags]) == 0
    stems = [Path(p).stem for p in paths]
    ids = stems if len(set(stems)) == len(stems) else paths
    result = run_em(ExpertStack(tuple(read_svol(p) for p in paths), tuple(ids)), config)
    write_svol(result.posterior, tmp_path / "posterior.svol")
    write_svol(binarize(result.posterior), tmp_path / "consensus.svol")
    for name in ("posterior.svol", "consensus.svol"):
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes()
    params = json.loads((out / "params.json").read_text())
    assert params["expert_ids"] == list(ids)
    assert params["prior"] == result.prior
    assert params["sens"] == result.params.sens.tolist()
    assert params["spec"] == result.params.spec.tolist()
    assert params["ll_trace"] == list(result.ll_trace)
    assert params["iters_run"] == result.iters_run


def _run(variant, mode, samples=16, iters=4):
    """A run's FusionConfig and the ``fuse`` flags that set it."""
    config = FusionConfig(variant=variant, mstep_mode=mode, max_iters=iters, mc_samples=samples)
    return config, ["--variant", variant, "--mstep-mode", mode, "--max-iters", str(iters),
                    "--mc-samples", str(samples)]


class TestStreamedFoldIsByteIdentical:
    @pytest.mark.parametrize("mode", MSTEP_MODES)
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_variant(self, tmp_path, variant, mode):
        rng = np.random.default_rng(VARIANTS.index(variant))
        dims = Dim3(6, 5, 4)
        kind = GridKind.BINARY if variant == "binary" else GridKind.SOFT
        rows = _rater_rows(rng, 5, dims.n, flip=0.1, soft=0.0 if variant == "binary" else 0.15)
        paths = _write([tmp_path / "in" / f"r{i}.svol" for i in range(5)], rows, kind, dims)
        _assert_fuse_equals_run_em(tmp_path, paths, *_run(variant, mode))

    @pytest.mark.parametrize("mode", MSTEP_MODES)
    @pytest.mark.parametrize("variant, m", [("binary", 66), ("simplified", 42),
                                            ("soft-mc", 42)])
    def test_compacted_codes(self, tmp_path, variant, m, mode):
        """66 binary experts pass 2^64 codes, as do 42 experts of three or
        more levels; the codes are compacted on the way."""
        rng = np.random.default_rng(m)
        dims = Dim3(5, 4, 3)
        kind = GridKind.BINARY if variant == "binary" else GridKind.SOFT
        rows = _rater_rows(rng, m, dims.n, flip=0.2, soft=0.0 if variant == "binary" else 0.2)
        rows[:, 0], rows[:, 1] = 0.0, 1.0
        if kind is GridKind.SOFT:
            rows[:, 2] = 0.5  # three levels at least: 3^42 > 2^64
        paths = _write([tmp_path / "in" / f"x{i:02d}.svol" for i in range(m)], rows, kind, dims)
        _assert_fuse_equals_run_em(tmp_path, paths, *_run(variant, mode))

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_colliding_stems_in_shuffled_order(self, tmp_path, variant):
        rng = np.random.default_rng(40)
        dims = Dim3(4, 4, 3)
        kind = GridKind.BINARY if variant == "binary" else GridKind.SOFT
        rows = _rater_rows(rng, 6, dims.n, flip=0.1, soft=0.0 if variant == "binary" else 0.15)
        names = [tmp_path / "in" / d / f"r{i}.svol" for d in "ab" for i in range(3)]
        paths = _write(names, rows, kind, dims)
        shuffled = [paths[i] for i in rng.permutation(len(paths))]
        assert shuffled != paths
        _assert_fuse_equals_run_em(tmp_path, shuffled,
                                   *_run(variant, "expected-count"))

    def test_votes_equal_the_mean_vote_oracle_sum(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            m, n = int(rng.integers(1, 9)), int(rng.integers(1, 500))
            rows = rng.random((m, n)) * (rng.random((m, n)) < 0.7)
            ids = tuple(f"e{i}" for i in rng.permutation(m))
            stack = stack_from_rows(rows, GridKind.SOFT, ids=ids)
            votes = vote_patterns(stack).votes
            assert votes == sum(float(np.sum(rows[i])) for i in np.argsort(ids))
            assert _mean_vote_prior(votes, m, stack.dims) == mean_vote_prior(rows, ids)


def _write_float64_binary(path, row, dims):
    """A binary SVOL file as a writer without the one-byte layout made it:
    no dtype key, one float64 per voxel."""
    header = json.dumps({"dims": list(dims.as_tuple()), "kind": "binary"}, sort_keys=True,
                        separators=(",", ":")).encode()
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_bytes(b"SVOL1\x00" + struct.pack("<I", len(header)) + header
                           + np.asarray(row, dtype="<f8").tobytes())
    return str(path)


class TestFloat64BinaryFiles:
    """Binary files in the float64 layout, alone or beside one-byte ones, fuse
    and evaluate exactly as the same votes written one byte per voxel."""

    @pytest.mark.parametrize("flags", [["--variant", "binary", "--binarize"],
                                       ["--variant", "simplified", "--flair", "FLAIR"]],
                             ids=["binary", "flair"])
    def test_old_and_mixed_stacks_fuse_byte_identical(self, tmp_path, flags):
        dims = Dim3(8, 7, 6)
        rng = np.random.default_rng(21)
        rows = _rater_rows(rng, 5, dims.n, flip=0.1)
        flair = tmp_path / "flair.svol"
        write_svol(VolumeGrid(dims, rng.normal(100.0, 10.0, dims.n), GridKind.INTENSITY),
                   flair)
        flags = [str(flair) if f == "FLAIR" else f for f in flags]
        outputs = {}
        for stack in ("new", "old", "mixed"):
            paths = [tmp_path / stack / f"r{i}.svol" for i in range(len(rows))]
            for i, (path, row) in enumerate(zip(paths, rows)):
                if stack == "old" or (stack == "mixed" and i % 2):
                    _write_float64_binary(path, row, dims)
                else:
                    _write([path], [row], GridKind.BINARY, dims)
            out = tmp_path / f"out-{stack}"
            assert main(["fuse", *map(str, paths), "-o", str(out), *flags]) == 0
            outputs[stack] = {p.name: p.read_bytes() for p in out.iterdir()
                              if p.name != "manifest.json"}
        assert "posterior.svol" in outputs["new"] and "params.json" in outputs["new"]
        assert outputs["old"] == outputs["new"]
        assert outputs["mixed"] == outputs["new"]

    def test_old_truth_evaluates_the_same(self, tmp_path, capsys):
        dims = Dim3(6, 5, 4)
        truth, pred = _rater_rows(np.random.default_rng(22), 2, dims.n, flip=0.2)
        _write([tmp_path / "t.svol", tmp_path / "p.svol"], [truth, pred], GridKind.BINARY,
               dims)
        old = _write_float64_binary(tmp_path / "old" / "t.svol", truth, dims)
        reports = []
        for path in (tmp_path / "t.svol", old):
            assert main(["eval", str(path), str(tmp_path / "p.svol")]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]

    def test_negative_zero_votes_fuse_unchanged(self, tmp_path):
        """A binary -0.0 is written and read back as 0; the fuse of those files
        equals run_em on the grids that held -0.0, byte for byte."""
        dims = Dim3(6, 5, 4)
        rng = np.random.default_rng(23)
        rows = _rater_rows(rng, 4, dims.n, flip=0.1)
        rows[(rows == 0.0) & (rng.random(rows.shape) < 0.5)] = -0.0
        assert np.signbit(rows).any()
        paths = _write([tmp_path / "in" / f"r{i}.svol" for i in range(4)], rows,
                       GridKind.BINARY, dims)
        for path, row in zip(paths, rows):
            assert read_svol(path).data.tobytes() == np.abs(row).tobytes()
        out = tmp_path / "out"
        assert main(["fuse", *paths, "--variant", "binary", "--binarize", "-o", str(out)]) == 0
        stack = stack_from_rows(rows, GridKind.BINARY, ids=tuple(f"r{i}" for i in range(4)),
                                dims=dims)
        result = run_em(stack, FusionConfig())
        write_svol(result.posterior, tmp_path / "posterior.svol")
        write_svol(binarize(result.posterior), tmp_path / "consensus.svol")
        for name in ("posterior.svol", "consensus.svol"):
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes()
        params = json.loads((out / "params.json").read_text())
        assert params["sens"] == result.params.sens.tolist()
        assert params["spec"] == result.params.spec.tolist()
        assert params["ll_trace"] == list(result.ll_trace)


def _fuse_peak(tmp_path, m, edge, kind, variant):
    """tracemalloc peak of one ``fuse`` of m rater files, in bytes per voxel."""
    dims = Dim3(edge, edge, edge)
    rows = _rater_rows(np.random.default_rng(m), m, dims.n,
                       soft=0.05 if kind is GridKind.SOFT else 0.0)
    paths = _write([tmp_path / f"in{m}" / f"r{i:02d}.svol" for i in range(m)], rows, kind,
                   dims)
    del rows
    tracemalloc.start()
    try:
        assert main(["fuse", *paths, "--variant", variant, "--max-iters", "3",
                     "-o", str(tmp_path / f"out-{m}-{variant}")]) == 0
        return tracemalloc.get_traced_memory()[1] / dims.n
    finally:
        tracemalloc.stop()


class TestMemoryGuard:
    """The parent of the streamed fold peaked at 74 to 87 B/voxel here."""

    @pytest.fixture(autouse=True)
    def _warm(self, tmp_path):
        """One small fuse first, so that no lazy import counts below."""
        for kind, variant in ((GridKind.BINARY, "binary"), (GridKind.SOFT, "soft-exact")):
            _fuse_peak(tmp_path / "warm", 3, 4, kind, variant)

    @pytest.mark.parametrize("kind, variant", [(GridKind.BINARY, "binary"),
                                               (GridKind.SOFT, "simplified"),
                                               (GridKind.SOFT, "soft-exact")])
    def test_peak_below_half_the_stack(self, tmp_path, kind, variant):
        m = 7
        assert _fuse_peak(tmp_path, m, 64, kind, variant) < m * 8 / 2

    def test_peak_does_not_grow_with_the_experts(self, tmp_path):
        seven = _fuse_peak(tmp_path, 7, 48, GridKind.BINARY, "binary")
        fourteen = _fuse_peak(tmp_path, 14, 48, GridKind.BINARY, "binary")
        assert fourteen < seven + 2
