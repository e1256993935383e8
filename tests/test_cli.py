"""Command-line contract: files produced, exit codes, determinism."""

import contextlib
import io
import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import fuselab.cli
import fuselab.staple
from fuselab import Dim3, GridKind, VolumeGrid, read_svol, write_svol
from fuselab.cli import main
from fuselab.errors import FuselabError
from helpers import grid, subcommands, watch_payload_reads


@pytest.fixture()
def sim_config(tmp_path):
    doc = {
        "dims": [12, 12, 12],
        "lesions": [{"center": [6, 6, 6], "radius": 3}],
        "background_intensity": 40.0,
        "lesion_intensity": 120.0,
        "intensity_noise_sd": 2.0,
        "seed": 11,
        "raters": [
            {"id": "e1", "sens": 0.9, "spec": 0.95, "seed": 1},
            {"id": "e2", "sens": 0.85, "spec": 0.9, "seed": 2},
            {"id": "e3", "sens": 0.8, "spec": 0.97, "seed": 3},
        ],
    }
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(doc))
    return path


def _write_experts(tmp_path, rows, kind=GridKind.BINARY, dims=None):
    paths = []
    rows = np.asarray(rows, dtype=float)
    dims = dims or Dim3(rows.shape[1], 1, 1)
    for i, row in enumerate(rows):
        p = tmp_path / f"e{i}.svol"
        write_svol(VolumeGrid(dims, row, kind), p)
        paths.append(str(p))
    return paths


class TestSimulate:
    def test_writes_expected_files(self, sim_config, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", str(sim_config), "-o", str(out)]) == 0
        svols = sorted(p.name for p in out.glob("*.svol"))
        assert svols == [
            "expert_e1.svol",
            "expert_e2.svol",
            "expert_e3.svol",
            "flair.svol",
            "truth.svol",
        ]
        assert (out / "manifest.json").exists()

    def test_byte_identical_reruns(self, sim_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", str(sim_config), "-o", str(out1)]) == 0
        assert main(["simulate", str(sim_config), "-o", str(out2)]) == 0
        for name in ("truth.svol", "flair.svol", "expert_e2.svol"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_schema_violation_names_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dims": [4, 4, 4]}))
        assert main(["simulate", str(bad), "-o", str(tmp_path / "o")]) == 2
        assert "lesions" in capsys.readouterr().err

    def test_out_of_bounds_lesion(self, sim_config, tmp_path):
        doc = json.loads(sim_config.read_text())
        doc["lesions"][0]["center"] = [0, 6, 6]
        sim_config.write_text(json.dumps(doc))
        assert main(["simulate", str(sim_config), "-o", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("field, path, value", [
        ("radius", ["lesions", 0, "radius"], float("nan")),
        ("center", ["lesions", 0, "center", 1], float("nan")),
        ("intensity_noise_sd", ["intensity_noise_sd"], float("nan")),
        ("lesion_intensity", ["lesion_intensity"], float("inf")),
    ])
    def test_non_finite_spec_value_exits_2_naming_it(self, sim_config, tmp_path, capsys,
                                                      field, path, value):
        doc = json.loads(sim_config.read_text())
        *parents, key = path
        node = doc
        for step in parents:
            node = node[step]
        node[key] = value
        sim_config.write_text(json.dumps(doc))  # as NaN / Infinity
        out = tmp_path / "o"
        assert main(["simulate", str(sim_config), "-o", str(out)]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("path", [["lesions", 0, "radius"], ["lesions", 0, "center", 1]],
                             ids=["radius", "center"])
    def test_integer_beyond_float_range_exits_2(self, sim_config, tmp_path, capsys, path):
        """A 401-digit JSON integer in a real-valued field is refused, not
        left to overflow when the phantom is built."""
        doc = json.loads(sim_config.read_text())
        *parents, key = path
        node = doc
        for step in parents:
            node = node[step]
        node[key] = 10**400
        sim_config.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main(["simulate", str(sim_config), "-o", str(out)]) == 2
        assert "must be a number within float range" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", [20, 5, 2**64 - 1])  # 5 wraps every rater seed below 0
    def test_seed_flag_equals_a_config_with_those_seeds(self, sim_config, tmp_path, seed):
        """--seed S sets the phantom seed to S and shifts each rater seed by
        S minus the config's phantom seed, modulo 2^64."""
        doc = json.loads(sim_config.read_text())
        shift = seed - doc["seed"]
        doc["seed"] = seed
        for rater in doc["raters"]:
            rater["seed"] = (rater["seed"] + shift) % 2**64
        written = tmp_path / "written.json"
        written.write_text(json.dumps(doc))
        flag, config = tmp_path / "flag", tmp_path / "config"
        assert main(["simulate", str(sim_config), "-o", str(flag), "--seed", str(seed)]) == 0
        assert main(["simulate", str(written), "-o", str(config)]) == 0
        names = sorted(p.name for p in config.glob("*.svol"))
        assert len(names) == 5
        for name in names:
            assert (flag / name).read_bytes() == (config / name).read_bytes()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_out_of_range_exits_2_and_writes_nothing(self, sim_config, tmp_path, capsys,
                                                          seed):
        out = tmp_path / "o"
        assert main(["simulate", str(sim_config), "-o", str(out), "--seed", seed]) == 2
        assert f"--seed must lie in [0, {2**64}), got {seed}" in capsys.readouterr().err
        assert not out.exists()

    def test_refuses_overwrite_without_force(self, sim_config, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", str(sim_config), "-o", str(out)]) == 0
        assert main(["simulate", str(sim_config), "-o", str(out)]) == 2
        assert main(["simulate", str(sim_config), "-o", str(out), "--force"]) == 0


class TestFuse:
    def test_binary_fusion_outputs(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = (rng.random((3, 40)) < 0.3).astype(float)
        paths = _write_experts(tmp_path, rows)
        out = tmp_path / "cons"
        assert main(["fuse", "--variant", "binary", *paths, "-o", str(out)]) == 0
        assert (out / "posterior.svol").exists()
        params = json.loads((out / "params.json").read_text())
        assert params["variant"] == "binary"
        assert len(params["sens"]) == 3
        assert params["expert_ids"] == ["e0", "e1", "e2"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "fuse"
        assert manifest["config"]["variant"] == "binary"
        assert manifest["numpy_version"] == np.__version__

    def test_binarize_flag(self, tmp_path):
        rows = np.tile([1.0, 1.0, 0.0, 0.0], (3, 1))
        paths = _write_experts(tmp_path, rows)
        out = tmp_path / "cons"
        assert main(["fuse", "--variant", "binary", *paths, "-o", str(out), "--binarize"]) == 0
        consensus = read_svol(out / "consensus.svol")
        assert consensus.kind is GridKind.BINARY
        np.testing.assert_array_equal(consensus.data, [1.0, 1.0, 0.0, 0.0])

    def test_soft_exact_on_soft_inputs(self, tmp_path):
        rng = np.random.default_rng(1)
        paths = _write_experts(tmp_path, rng.random((7, 30)), GridKind.SOFT)
        out = tmp_path / "cons"
        assert main(["fuse", "--variant", "soft-exact", *paths, "-o", str(out)]) == 0
        params = json.loads((out / "params.json").read_text())
        trace = params["ll_trace"]
        assert all(b >= a - 1e-9 * abs(a) for a, b in zip(trace, trace[1:]))
        assert not params["ll_is_approximate"]

    def test_enumeration_guard_recommends_mc(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        paths = _write_experts(tmp_path, rng.random((25, 4)), GridKind.SOFT)
        code = main(["fuse", "--variant", "soft-exact", *paths, "-o", str(tmp_path / "o")])
        assert code == 2
        assert "soft-mc" in capsys.readouterr().err

    def test_variant_kind_mismatch(self, tmp_path):
        rng = np.random.default_rng(3)
        bin_paths = _write_experts(tmp_path, (rng.random((2, 10)) < 0.5).astype(float))
        assert main(["fuse", "--variant", "soft-exact", *bin_paths,
                     "-o", str(tmp_path / "o1")]) == 2
        soft_dir = tmp_path / "soft"
        soft_dir.mkdir()
        soft_paths = _write_experts(soft_dir, rng.random((2, 10)), GridKind.SOFT)
        assert main(["fuse", "--variant", "binary", *soft_paths,
                     "-o", str(tmp_path / "o2")]) == 2

    def test_dims_mismatch_is_input_error(self, tmp_path):
        a = tmp_path / "a.svol"
        b = tmp_path / "b.svol"
        write_svol(grid([1.0, 0.0]), a)
        write_svol(grid([1.0, 0.0, 1.0]), b)
        assert main(["fuse", "--variant", "binary", str(a), str(b),
                     "-o", str(tmp_path / "o")]) == 3

    def test_degenerate_posterior_exit_code(self, tmp_path, capsys):
        rows = np.ones((20, 2))
        paths = _write_experts(tmp_path, rows)
        code = main(["fuse", "--variant", "binary", *paths, "-o", str(tmp_path / "o")])
        assert code == 4
        assert "specificity" in capsys.readouterr().err

    @pytest.mark.parametrize("variant, kind", [
        ("binary", GridKind.BINARY), ("soft-exact", GridKind.SOFT),
        ("simplified", GridKind.SOFT), ("soft-mc", GridKind.SOFT),
    ])
    def test_empty_case_fuses(self, tmp_path, variant, kind):
        paths = _write_experts(tmp_path, np.zeros((12, 6)), kind)
        out = tmp_path / "cons"
        assert main(["fuse", "--variant", variant, *paths, "-o", str(out),
                     "--binarize"]) == 0
        assert not read_svol(out / "consensus.svol").data.any()

    def test_auto_softmask_path_needs_flair(self, tmp_path):
        rows = np.tile([1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], (3, 1))
        paths = _write_experts(tmp_path, rows, dims=Dim3(2, 2, 2))
        assert main(["fuse", "--variant", "soft-exact", *paths,
                     "-o", str(tmp_path / "o")]) == 2
        flair = tmp_path / "flair.svol"
        write_svol(VolumeGrid(Dim3(2, 2, 2), np.full(8, 9.0), GridKind.INTENSITY), flair)
        assert main(["fuse", "--variant", "soft-exact", *paths, "--flair", str(flair),
                     "-o", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("variant, kind", [
        ("binary", GridKind.BINARY), ("binary", GridKind.SOFT),
        ("soft-exact", GridKind.SOFT), ("simplified", GridKind.SOFT), ("soft-mc", GridKind.SOFT),
    ])
    def test_flair_with_no_soft_mask_to_build_exits_2(self, tmp_path, monkeypatch, capsys,
                                                       variant, kind):
        """--flair feeds binary inputs to a soft variant; anywhere else it is refused
        once the headers are checked, before any payload (or the flair) is read."""
        paths = _write_experts(tmp_path, np.tile([1.0, 1.0, 0.0, 0.0], (3, 1)), kind)
        calls = watch_payload_reads(monkeypatch)
        out = tmp_path / "o"
        assert main(["fuse", "--variant", variant, *paths, "--flair",
                     str(tmp_path / "missing.svol"), "-o", str(out)]) == 2
        assert "--flair builds soft masks from binary inputs" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    def test_inputs_with_one_stem_are_named_by_path(self, tmp_path):
        rows = [[1.0, 0.0, 1.0, 1.0], [1.0, 0.0, 0.0, 1.0]]
        paths = []
        for sub, row in zip(("a", "b"), rows):
            (tmp_path / sub).mkdir()
            paths += _write_experts(tmp_path / sub, [row])
        out = tmp_path / "o"
        assert main(["fuse", "--variant", "binary", *paths, "-o", str(out)]) == 0
        assert json.loads((out / "params.json").read_text())["expert_ids"] == paths

    def test_missing_input_file(self, tmp_path):
        assert main(["fuse", "--variant", "binary", str(tmp_path / "nope.svol"),
                     "-o", str(tmp_path / "o")]) == 3

    def test_unreadable_input_exits_3_naming_it(self, tmp_path, capsys):
        rng = np.random.default_rng(10)
        paths = _write_experts(tmp_path, (rng.random((3, 20)) < 0.4).astype(float))
        folder = tmp_path / "folder.svol"
        folder.mkdir()
        out = tmp_path / "o"
        for argv in (
            ["fuse", "--variant", "binary", *paths, str(folder), "-o", str(out)],
            ["fuse", "--variant", "binary", *paths, "-o", str(out), "--config", str(folder)],
            ["eval", str(folder), paths[0]],
        ):
            assert main(argv) == 3
            assert str(folder) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("variant", ["soft-exact", "simplified", "soft-mc"])
    def test_flair_equals_softmask_then_fuse(self, sim_config, tmp_path, variant):
        """fuse --flair runs the default protocol: its outputs are those of
        softmask followed by fuse, byte for byte."""
        assert main(["simulate", str(sim_config), "-o", str(tmp_path / "sim")]) == 0
        raw = sorted(str(p) for p in (tmp_path / "sim").glob("expert_*.svol"))
        flair = str(tmp_path / "sim" / "flair.svol")
        assert main(["softmask", *raw, "--flair", flair, "-o", str(tmp_path / "soft")]) == 0
        soft = sorted(str(p) for p in (tmp_path / "soft").glob("expert_*.svol"))
        flags = ["--variant", variant, "--binarize", "--mc-samples", "64", "--max-iters", "5"]
        assert main(["fuse", *raw, "--flair", flair, "-o", str(tmp_path / "a"), *flags]) == 0
        assert main(["fuse", *soft, "-o", str(tmp_path / "b"), *flags]) == 0
        for name in ("posterior.svol", "consensus.svol", "params.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_config_file_flags_win(self, tmp_path):
        rng = np.random.default_rng(4)
        paths = _write_experts(tmp_path, (rng.random((3, 20)) < 0.4).astype(float))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_iters": 2, "prior": 0.2}))
        out = tmp_path / "cons"
        assert main(["fuse", "--variant", "binary", *paths, "-o", str(out),
                     "--config", str(cfg), "--max-iters", "1"]) == 0
        params = json.loads((out / "params.json").read_text())
        assert params["iters_run"] == 1
        assert params["prior"] == 0.2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["max_iters"] == 1

    def test_unknown_config_key_rejected(self, tmp_path):
        rng = np.random.default_rng(5)
        paths = _write_experts(tmp_path, (rng.random((2, 8)) < 0.4).astype(float))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_iter": 2}))
        assert main(["fuse", "--variant", "binary", *paths, "-o", str(tmp_path / "o"),
                     "--config", str(cfg)]) == 2


    def test_tallied_run_takes_any_sample_count(self, tmp_path):
        """Every voxel of 7 continuous experts is tallied at 10^9 samples
        (2^7 <= 10^9), so no samples x m bound applies: the run succeeds and
        reruns byte for byte."""
        rng = np.random.default_rng(6)
        paths = _write_experts(tmp_path, rng.random((7, 10)), GridKind.SOFT)
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert main(["fuse", "--variant", "soft-mc", "--mc-samples", "1000000000",
                         *paths, "-o", str(out)]) == 0
        for name in ("posterior.svol", "params.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_mc_draw_guard_exits_2_and_writes_nothing(self, tmp_path, capsys):
        """30 continuous experts at 300,000 samples are drawn sample by sample
        (2^30 > 300,000), over the per-voxel bound."""
        rng = np.random.default_rng(6)
        paths = _write_experts(tmp_path, rng.random((30, 10)), GridKind.SOFT)
        out = tmp_path / "o"
        code = main(["fuse", "--variant", "soft-mc", "--mc-samples", "300000",
                     *paths, "-o", str(out)])
        assert code == 2
        assert "9000000 Monte Carlo draws per voxel (300000 samples x 30 experts) exceed " \
            "the limit of 8388608; lower the sample count" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_exact_expert_bound_refuses_after_reading(self, tmp_path, capsys):
        """soft-exact refuses 21 experts in the model, once the inputs are
        read: exit 2 and nothing written, or exit 3 if an input is unreadable."""
        paths = _write_experts(tmp_path, np.full((21, 4), 0.5), GridKind.SOFT)
        out = tmp_path / "o"
        assert main(["fuse", "--variant", "soft-exact", *paths, "-o", str(out)]) == 2
        assert "21 experts for exact enumeration exceed the limit of 20; select variant " \
            "'soft-mc' instead" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())
        Path(paths[-1]).write_bytes(b"not an svol")
        assert main(["fuse", "--variant", "soft-exact", *paths, "-o", str(out)]) == 3
        assert not out.exists() or not any(out.iterdir())

    def test_mc_entry_bound_exits_2_and_writes_nothing(self, tmp_path, monkeypatch, capsys):
        import fuselab.soft_staple as ss

        monkeypatch.setattr(ss, "MC_ENTRY_LIMIT", 100)
        paths = _write_experts(tmp_path, np.full((3, 20), 0.5), GridKind.SOFT)
        out = tmp_path / "o"
        code = main(["fuse", "--variant", "soft-mc", "--mc-samples", "64", *paths,
                     "-o", str(out)])
        assert code == 2
        assert "160 sampled (voxel, code) entries" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_mc_draw_bound_exits_2_and_writes_nothing(self, tmp_path, monkeypatch, capsys):
        import fuselab.soft_staple as ss

        monkeypatch.setattr(ss, "_MC_RUN_DRAW_LIMIT", 159)
        paths = _write_experts(tmp_path, np.full((3, 20), 0.5), GridKind.SOFT)
        out = tmp_path / "o"
        code = main(["fuse", "--variant", "soft-mc", "--mc-samples", "64", *paths,
                     "-o", str(out)])
        assert code == 2
        assert "160 draws" in capsys.readouterr().err  # 20 tallied voxels x 2^3
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("mode", ["expected-count", "plugin-mean"])
    def test_exact_term_bound_exits_2_and_writes_nothing(self, tmp_path, monkeypatch,
                                                         capsys, mode):
        """The same refusal under either M-step mode, before any enumeration."""
        import fuselab.soft_staple as ss

        monkeypatch.setattr(ss, "EXACT_TERM_LIMIT", 7)
        monkeypatch.setattr(ss, "_joint_votes", lambda q: pytest.fail("enumerated"))
        paths = _write_experts(tmp_path, np.full((3, 20), 0.5), GridKind.SOFT)
        out = tmp_path / "o"
        code = main(["fuse", "--variant", "soft-exact", "--mstep-mode", mode, *paths,
                     "-o", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "fuselab: 8 joint-vote terms (distinct columns x 2^k) exceed the limit of 7; "
            "select variant 'soft-mc' instead\n")  # 1 distinct column x 2^3
        assert not out.exists() or not any(out.iterdir())

    def test_crash_mid_write_leaves_no_outputs(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(7)
        paths = _write_experts(tmp_path, (rng.random((3, 20)) < 0.4).astype(float))
        out = tmp_path / "cons"
        written = []
        write_json = fuselab.cli._write_json

        def disk_full(path, doc):
            written.extend(p.name for p in out.iterdir())
            raise OSError("disk full")

        monkeypatch.setattr(fuselab.cli, "_write_json", disk_full)
        with pytest.raises(OSError, match="disk full"):
            main(["fuse", "--variant", "binary", *paths, "-o", str(out), "--binarize"])
        assert len(written) == 2          # posterior and consensus were staged
        assert list(out.iterdir()) == []

        monkeypatch.setattr(fuselab.cli, "_write_json", write_json)
        assert main(["fuse", "--variant", "binary", *paths, "-o", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "manifest.json", "params.json", "posterior.svol"]

    def test_refuses_directory_target_before_writing(self, tmp_path):
        rng = np.random.default_rng(8)
        paths = _write_experts(tmp_path, (rng.random((3, 20)) < 0.4).astype(float))
        out = tmp_path / "cons"
        (out / "params.json").mkdir(parents=True)
        code = main(["fuse", "--variant", "binary", *paths, "-o", str(out), "--force"])
        assert code == 2
        assert [p.name for p in out.iterdir()] == ["params.json"]


class TestResolvedDefaults:
    """The defaults the CLI derives from the config dataclasses, as
    recorded in manifest.json when no flag is given."""

    def test_fuse(self, tmp_path):
        paths = _write_experts(tmp_path, np.tile([1.0, 1.0, 0.0, 0.0], (3, 1)))
        out = tmp_path / "cons"
        assert main(["fuse", *paths, "-o", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["config"] == {
            "variant": "binary",
            "prior": "auto",
            "init_sens": 0.9,
            "init_spec": 0.9,
            "max_iters": 100,
            "tol": 1e-6,
            "mstep_mode": "expected-count",
            "mc_samples": 10000,
            "seed": 0,
            "binarize": False,
            "force": False,
        }

    def test_softmask(self, tmp_path):
        mask = tmp_path / "expert.svol"
        write_svol(grid([0.0, 1.0, 1.0, 0.0], dims=Dim3(2, 2, 1)), mask)
        flair = tmp_path / "flair.svol"
        write_svol(VolumeGrid(Dim3(2, 2, 1), np.full(4, 50.0), GridKind.INTENSITY), flair)
        out = tmp_path / "soft"
        assert main(["softmask", str(mask), "--flair", str(flair), "-o", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["config"] == {
            "gamma": 0.3,
            "ratio": 1.2,
            "threshold_mode": "percentile:10",
            "connectivity": 26,
            "max_dilation_iters": 10,
            "seed": None,
            "force": False,
        }


class TestSeedOnEveryCommand:
    """``softmask`` and ``eval`` take --seed from the flag or from --config,
    and the manifest records it (fuse's default, 0, is pinned above)."""

    def _argv(self, tmp_path, command):
        mask = tmp_path / "expert.svol"
        write_svol(grid([0.0, 1.0, 1.0, 0.0], dims=Dim3(2, 2, 1)), mask)
        if command == "eval":
            return ["eval", str(mask), str(mask)]
        flair = tmp_path / "flair.svol"
        write_svol(VolumeGrid(Dim3(2, 2, 1), np.full(4, 50.0), GridKind.INTENSITY), flair)
        return ["softmask", str(mask), "--flair", str(flair)]

    @pytest.mark.parametrize("command", ["softmask", "eval"])
    def test_seed_from_flag_and_config_is_recorded(self, tmp_path, command):
        argv = self._argv(tmp_path, command)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 5}))
        for out, extra, want in (("default", [], None), ("flag", ["--seed", "7"], 7),
                                 ("config", ["--config", str(config)], 5)):
            assert main([*argv, "-o", str(tmp_path / out), *extra]) == 0
            manifest = json.loads((tmp_path / out / "manifest.json").read_text())
            assert manifest["config"]["seed"] == want


class TestSoftmaskCommand:
    def _cube_files(self, tmp_path):
        shape = (9, 9, 9)
        mask3 = np.zeros(shape)
        mask3[3:6, 3:6, 3:6] = 1.0
        mask = tmp_path / "expert.svol"
        write_svol(VolumeGrid.from_3d(mask3, GridKind.BINARY), mask)
        flair = tmp_path / "flair.svol"
        write_svol(VolumeGrid.from_3d(np.full(shape, 80.0), GridKind.INTENSITY), flair)
        return mask, flair

    def test_default_protocol_on_cube(self, tmp_path):
        mask, flair = self._cube_files(tmp_path)
        out = tmp_path / "soft"
        assert main(["softmask", str(mask), "--flair", str(flair), "-o", str(out)]) == 0
        soft = read_svol(out / "expert.svol")
        values, counts = np.unique(soft.data, return_counts=True)
        assert dict(zip(values, counts))[0.3] == 98
        assert (out / "manifest.json").exists()

    def test_gamma_zero_rejected(self, tmp_path):
        mask, flair = self._cube_files(tmp_path)
        assert main(["softmask", str(mask), "--flair", str(flair),
                     "-o", str(tmp_path / "o"), "--gamma", "0"]) == 2

    def test_ratio_one_is_identity(self, tmp_path):
        mask, flair = self._cube_files(tmp_path)
        out = tmp_path / "soft"
        assert main(["softmask", str(mask), "--flair", str(flair), "-o", str(out),
                     "--ratio", "1.0"]) == 0
        np.testing.assert_array_equal(read_svol(out / "expert.svol").data,
                                      read_svol(mask).data)

    def test_dims_mismatch(self, tmp_path):
        mask, _ = self._cube_files(tmp_path)
        flair = tmp_path / "small.svol"
        write_svol(VolumeGrid.from_3d(np.zeros((4, 4, 4)), GridKind.INTENSITY), flair)
        assert main(["softmask", str(mask), "--flair", str(flair),
                     "-o", str(tmp_path / "o")]) == 3
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("bad", [
        ["--gamma", "5"],
        ["--threshold-mode", "bogus"],
        ["--threshold-mode", "percentile:x"],
        ["--max-dilation-iters", "0"],
    ])
    def test_bad_protocol_options_fail_in_softmask(self, tmp_path, bad):
        rng = np.random.default_rng(11)
        paths = _write_experts(tmp_path, (rng.random((3, 20)) < 0.4).astype(float))
        flair = tmp_path / "flair.svol"
        write_svol(VolumeGrid(Dim3(20, 1, 1), np.full(20, 50.0), GridKind.INTENSITY), flair)
        out = tmp_path / "o"
        assert main(["softmask", *paths, "--flair", str(flair), "-o", str(out), *bad]) == 2
        assert not out.exists()

    def test_nan_fixed_threshold_exits_2(self, tmp_path):
        """No voxel passes flair >= nan, so it would silently gate every ring out."""
        mask, flair = self._cube_files(tmp_path)
        out = tmp_path / "o"
        assert main(["softmask", str(mask), "--flair", str(flair), "-o", str(out),
                     "--threshold-mode", "fixed:nan"]) == 2
        assert not out.exists()

    def test_basename_collision_exits_2_and_writes_nothing(self, tmp_path, monkeypatch,
                                                           capsys):
        mask, flair = self._cube_files(tmp_path)
        (tmp_path / "again").mkdir()
        twin = tmp_path / "again" / mask.name
        twin.write_bytes(mask.read_bytes())
        out = tmp_path / "o"
        reads = []
        monkeypatch.setattr(fuselab.cli, "read_svol", reads.append)
        assert main(["softmask", str(mask), str(twin), "--flair", str(flair),
                     "-o", str(out)]) == 2
        assert "input basenames collide" in capsys.readouterr().err
        assert reads == []
        assert not out.exists()

    def test_never_overwrites_inputs(self, tmp_path):
        mask, flair = self._cube_files(tmp_path)
        assert main(["softmask", str(mask), "--flair", str(flair),
                     "-o", str(tmp_path), "--force"]) == 2


class TestStackByteBound:
    """fuse and softmask estimate their bytes from the headers (voxels x 40
    for a fuse, voxels x 96 where soft masks are built, whatever the number
    of experts, since both read one expert at a time) and refuse one over
    STACK_BYTE_LIMIT before any payload is read."""

    @pytest.mark.parametrize("argv, kind, per, m", [
        (["fuse", "--variant", "binary"], GridKind.BINARY, 40, 3),
        (["fuse", "--variant", "simplified"], GridKind.SOFT, 40, 3),
        (["fuse", "--variant", "soft-exact", "--flair", "FLAIR"], GridKind.BINARY, 96, 3),
        (["softmask", "--flair", "FLAIR"], GridKind.BINARY, 96, 3),
        (["softmask", "--flair", "FLAIR"], GridKind.BINARY, 96, 1),
    ], ids=["fuse", "fuse-soft", "fuse-flair", "softmask", "softmask-one-expert"])
    def test_refused_over_the_limit_before_any_payload(self, tmp_path, monkeypatch, capsys,
                                                        argv, kind, per, m):
        dims = Dim3(4, 3, 2)
        rows = np.zeros((m, dims.n))
        rows[:, :6] = 1.0
        paths = _write_experts(tmp_path, rows, kind, dims)
        flair = tmp_path / "flair.svol"
        write_svol(VolumeGrid(dims, np.full(dims.n, 80.0), GridKind.INTENSITY), flair)
        argv = [str(flair) if a == "FLAIR" else a for a in argv] + paths
        out = tmp_path / "o"
        monkeypatch.setattr(fuselab.cli, "STACK_BYTE_LIMIT", dims.n * per - 1)
        reads = watch_payload_reads(monkeypatch)
        assert main([*argv, "-o", str(out)]) == 2
        assert (f"{dims.n * per} estimated bytes to hold" in capsys.readouterr().err)
        assert reads == []
        assert not out.exists()
        monkeypatch.setattr(fuselab.cli, "STACK_BYTE_LIMIT", dims.n * per)
        assert main([*argv, "-o", str(out)]) == 0


    @pytest.mark.parametrize("m", [1, 12])
    @pytest.mark.parametrize("argv, per", [
        (["fuse", "--variant", "binary", "--max-iters", "2"], 40),
        (["fuse", "--variant", "simplified", "--max-iters", "2", "--flair", "FLAIR"], 96),
        (["softmask", "--flair", "FLAIR"], 96),
    ], ids=["fuse", "fuse-flair", "softmask"])
    def test_estimate_covers_the_measured_peak(self, tmp_path, argv, per, m):
        """The traced peak on 90%-full random 64^3 masks, which make the
        protocol label and grow one component filling most of the grid."""
        dims = Dim3(64, 64, 64)
        rng = np.random.default_rng(12)
        paths = _write_experts(tmp_path, rng.random((m, dims.n)) < 0.9, dims=dims)
        flair = tmp_path / "flair.svol"
        write_svol(VolumeGrid(dims, rng.normal(100.0, 10.0, dims.n), GridKind.INTENSITY), flair)
        argv = [str(flair) if a == "FLAIR" else a for a in argv]
        tracemalloc.start()
        try:
            code = main([*argv, *paths, "-o", str(tmp_path / "o")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= dims.n * per


class TestColumnVoteBound:
    """A fold of more than COLUMN_VOTE_LIMIT (experts + 1) x distinct-column
    values is refused before its column arrays are built: exit 2, nothing written."""

    @pytest.mark.parametrize("variant, kind", [("binary", GridKind.BINARY),
                                               ("simplified", GridKind.SOFT)])
    def test_refused_over_the_limit(self, tmp_path, monkeypatch, capsys, variant, kind):
        rng = np.random.default_rng(13)
        rows = rng.choice([0.0, 0.3, 1.0] if kind is GridKind.SOFT else [0.0, 1.0], (3, 30))
        paths = _write_experts(tmp_path, rows, kind)
        values = 4 * np.unique(rows, axis=1).shape[1]
        out = tmp_path / "o"
        monkeypatch.setattr(fuselab.staple, "COLUMN_VOTE_LIMIT", values - 1)
        assert main(["fuse", "--variant", variant, *paths, "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"fuselab: {values} column values ((experts + 1) x distinct vote columns) exceed")
        assert not out.exists()
        monkeypatch.setattr(fuselab.staple, "COLUMN_VOTE_LIMIT", values)
        assert main(["fuse", "--variant", variant, *paths, "-o", str(out)]) == 0

    def test_refused_at_the_first_row_of_too_many_levels(self, tmp_path, monkeypatch, capsys):
        """A row's levels are at most the distinct columns, so a row of more levels
        than the limit leaves room for is refused before the next row is read."""
        paths = _write_experts(tmp_path, np.random.default_rng(14).random((3, 30)),
                               GridKind.SOFT)
        monkeypatch.setattr(fuselab.staple, "COLUMN_VOTE_LIMIT", 4 * 30 - 1)
        reads = watch_payload_reads(monkeypatch)
        out = tmp_path / "o"
        assert main(["fuse", "--variant", "simplified", *paths, "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith("fuselab: 120 column values")
        assert reads == paths[:1]
        assert not out.exists()


class TestTargetsBeforePayloads:
    """fuse, fuse --flair and softmask check their output targets right after
    the header pass, so a refused target reads no payload, the flair's neither."""

    @pytest.mark.parametrize("fault, message", [
        ("exists", "exists; pass --force to overwrite"),
        ("input", "refusing to overwrite input file"),
        ("directory", "exists and is not a regular file"),
    ], ids=["exists", "input", "directory"])
    @pytest.mark.parametrize("argv", [
        ["fuse", "--variant", "binary"],
        ["fuse", "--variant", "soft-exact", "--flair", "FLAIR"],
        ["softmask", "--flair", "FLAIR"],
    ], ids=["fuse", "fuse-flair", "softmask"])
    def test_refused_before_any_payload(self, tmp_path, monkeypatch, capsys, argv, fault,
                                        message):
        out = tmp_path / "o"
        out.mkdir()
        target = out / ("e1.svol" if argv[0] == "softmask" else "posterior.svol")
        paths = _write_experts(tmp_path, np.tile([1.0, 1.0, 0.0, 0.0], (2, 1)))
        flair = tmp_path / "flair.svol"
        write_svol(VolumeGrid(Dim3(4, 1, 1), np.full(4, 50.0), GridKind.INTENSITY), flair)
        if fault == "directory":
            target.mkdir()
        else:
            target.write_bytes(Path(paths[1]).read_bytes())
        if fault == "input":
            paths[1] = str(target)
        reads = watch_payload_reads(monkeypatch)
        argv = [str(flair) if a == "FLAIR" else a for a in argv]
        assert main([*argv, *paths, "-o", str(out), *(["--force"] * (fault != "exists"))]) == 2
        err = capsys.readouterr().err
        assert message in err and str(target) in err
        assert reads == []
        assert [p.name for p in out.iterdir()] == [target.name]


class TestEval:
    def test_soft_truth_without_the_flag_exits_2_naming_it(self, tmp_path, capsys):
        t = tmp_path / "t.svol"
        write_svol(grid([0.3, 1.0, 0.0], GridKind.SOFT), t)
        out = tmp_path / "rep"
        assert main(["eval", str(t), str(t), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--binarize-truth" in err and "binarize_truth" not in err
        assert not out.exists()
        assert main(["eval", str(t), str(t), "-o", str(out), "--binarize-truth"]) == 0

    def test_perfect_match(self, tmp_path, capsys):
        t = tmp_path / "t.svol"
        p = tmp_path / "p.svol"
        write_svol(grid([1.0, 1.0, 0.0, 0.0]), t)
        write_svol(grid([1.0, 1.0, 0.0, 0.0]), p)
        assert main(["eval", str(t), str(p)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dice"] == pytest.approx(1.0, abs=1e-6)
        assert report["precision"] == 1.0
        assert report["recall"] == 1.0

    def test_disjoint_masks(self, tmp_path, capsys):
        t = tmp_path / "t.svol"
        p = tmp_path / "p.svol"
        write_svol(grid([1.0, 1.0, 0.0, 0.0]), t)
        write_svol(grid([0.0, 0.0, 1.0, 1.0]), p)
        assert main(["eval", str(t), str(p)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dice"] == pytest.approx(0.0, abs=1e-6)
        assert report["precision"] == 0.0
        assert report["recall"] == 0.0

    def test_half_overlap_fixture(self, tmp_path, capsys):
        t = tmp_path / "t.svol"
        p = tmp_path / "p.svol"
        write_svol(grid([1.0, 1.0, 0.0, 0.0]), t)
        write_svol(grid([1.0, 0.0, 1.0, 0.0]), p)
        assert main(["eval", str(t), str(p)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dice"] == pytest.approx(0.5, abs=1e-6)

    def test_undefined_serialized_as_null(self, tmp_path, capsys):
        t = tmp_path / "t.svol"
        p = tmp_path / "p.svol"
        write_svol(grid([1.0, 0.0]), t)
        write_svol(grid([0.0, 0.0]), p)
        assert main(["eval", str(t), str(p)]) == 0
        assert '"precision": null' in capsys.readouterr().out

    def test_dims_mismatch(self, tmp_path):
        t = tmp_path / "t.svol"
        p = tmp_path / "p.svol"
        write_svol(grid([1.0, 0.0]), t)
        write_svol(grid([1.0, 0.0, 0.0]), p)
        assert main(["eval", str(t), str(p)]) == 3

    def test_report_directory(self, tmp_path, capsys):
        t = tmp_path / "t.svol"
        write_svol(grid([1.0, 0.0]), t)
        out = tmp_path / "rep"
        assert main(["eval", str(t), str(t), "-o", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["recall"] == 1.0
        assert (out / "manifest.json").exists()


def _mismatched_dims(tmp_path):
    write_svol(grid([1.0, 0.0]), tmp_path / "a.svol")
    write_svol(grid([1.0, 0.0, 1.0]), tmp_path / "b.svol")
    return [str(tmp_path / "a.svol"), str(tmp_path / "b.svol")]


class TestWrongKindInput:
    """An input file of a kind the command cannot take is invalid input: exit
    3, naming the file, with no output left. Expert kinds are refused from
    the headers, the flair's among them, so before any payload is read."""

    @pytest.mark.parametrize("argv, culprit, reads", [
        pytest.param(["fuse", "--variant", "binary", "i"], "i", [], id="fuse-intensity"),
        pytest.param(["fuse", "p", "q"], "p", [], id="fuse-posterior"),
        pytest.param(["fuse", "--variant", "simplified", "b", "c", "--flair", "c"], "c", [],
                     id="fuse-binary-flair"),
        pytest.param(["softmask", "b", "--flair", "c"], "c", [], id="softmask-binary-flair"),
        pytest.param(["softmask", "s", "--flair", "i"], "s", [], id="softmask-soft-experts"),
        pytest.param(["eval", "b", "i"], "i", ["b", "i"], id="eval-intensity-pred"),
        pytest.param(["eval", "i", "b"], "i", ["i"], id="eval-intensity-truth"),
        pytest.param(["eval", "i", "b", "--binarize-truth"], "i", ["i"],
                     id="eval-intensity-truth-binarized"),
    ])
    def test_exits_3_naming_the_file(self, tmp_path, capsys, monkeypatch, argv, culprit, reads):
        kinds = {"b": GridKind.BINARY, "c": GridKind.BINARY, "s": GridKind.SOFT,
                 "i": GridKind.INTENSITY, "p": GridKind.POSTERIOR, "q": GridKind.POSTERIOR}
        paths = {name: str(tmp_path / f"{name}.svol") for name in kinds}
        for name, kind in kinds.items():
            write_svol(grid([1.0, 0.0, 1.0, 0.0], kind), paths[name])
        read = watch_payload_reads(monkeypatch)
        out = tmp_path / "o"
        assert main([paths.get(a, a) for a in argv] + ["-o", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("fuselab: invalid input: ") and paths[culprit] in err
        assert read == [paths[name] for name in reads]
        assert not out.exists()


class TestStderrNamesTheFailure:
    """Each exit code's stderr line starts with the prefix of its failure class."""

    @pytest.mark.parametrize("inputs, flags, code, prefix", [
        pytest.param(_mismatched_dims, [], 3, "fuselab: invalid input: expert ",
                     id="invalid-input"),
        pytest.param(lambda p: _write_experts(p, np.ones((20, 2))), [], 4,
                     "fuselab: numerical failure: posterior mass collapsed",
                     id="numerical-failure"),
        pytest.param(lambda p: [str(p / "nope.svol")], [], 3, "fuselab: missing input: ",
                     id="missing-input"),
        pytest.param(lambda p: _write_experts(p, [[1.0, 0.0], [1.0, 1.0]]), ["--prior", "abc"],
                     2, "fuselab: prior must be a number or 'auto', got 'abc'", id="bad-prior"),
    ])
    def test_prefix(self, tmp_path, capsys, inputs, flags, code, prefix):
        out = tmp_path / "o"
        assert main(["fuse", "--variant", "binary", *inputs(tmp_path), "-o", str(out),
                     *flags]) == code
        assert capsys.readouterr().err.startswith(prefix)
        assert not out.exists() or not any(out.iterdir())

    def test_any_other_fuselab_error_exits_1(self, tmp_path, capsys, monkeypatch):
        """The fallback clause: a FuselabError no narrower clause catches."""
        def fail(*args):
            raise FuselabError("no clause names this")

        monkeypatch.setattr(fuselab.cli, "run_em", fail)
        out = tmp_path / "o"
        inputs = _write_experts(tmp_path, [[1.0, 0.0], [1.0, 1.0]])
        assert main(["fuse", "--variant", "binary", *inputs, "-o", str(out)]) == 1
        assert capsys.readouterr().err == "fuselab: no clause names this\n"
        assert not any(out.iterdir())


def test_main_builds_no_parser(tmp_path, capsys, monkeypatch):
    """The parser is built once, at import; main only parses with it."""
    calls = []

    def spy():
        calls.append(1)
        return build()

    build = fuselab.cli._build_parser
    monkeypatch.setattr(fuselab.cli, "_build_parser", spy)
    truth, pred = tmp_path / "t.svol", tmp_path / "p.svol"
    write_svol(grid([1.0, 0.0]), truth)
    write_svol(grid([0.4, 0.0], GridKind.SOFT), pred)
    # The flag of the first call must not carry over to the second.
    assert main(["eval", str(truth), str(pred), "--threshold", "0.25"]) == 0
    assert main(["eval", str(truth), str(pred)]) == 0
    assert calls == []
    low, default = (json.loads(line) for line in capsys.readouterr().out.splitlines())
    assert (low["tp"], default["tp"]) == (1.0, 0.0)


class TestTracedPassNames:
    """perfbench's traced pass wraps names in ``fuselab.cli`` and labels its
    spans by them; the pass must still find every name and see both runners."""

    @staticmethod
    def _tracer(monkeypatch):
        """A Tracer from perfbench/spans.py, loaded by path (it is not a package)."""
        import importlib.util
        import sys
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
        spec = importlib.util.spec_from_file_location("perfbench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look it up
        spec.loader.exec_module(spans)
        return spans.Tracer()

    def test_binary_and_soft_fuse_record_their_runner_spans(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(91)
        binary = _write_experts(tmp_path, (rng.random((3, 20)) < 0.4).astype(float))
        (tmp_path / "soft").mkdir()
        soft = _write_experts(tmp_path / "soft", rng.choice([0.0, 0.3, 1.0], (3, 20)),
                              GridKind.SOFT)
        run_em, run_soft_em = fuselab.cli.run_em, fuselab.cli.run_soft_em
        tracer = self._tracer(monkeypatch)
        tracer.install()
        try:
            assert main(["fuse", "--variant", "binary", *binary, "-o",
                         str(tmp_path / "b")]) == 0
            assert main(["fuse", "--variant", "simplified", *soft, "-o",
                         str(tmp_path / "s")]) == 0
        finally:
            tracer.uninstall()
        names = [span.name for span in tracer.spans]
        assert names.count("run_em") == 1
        assert names.count("run_soft_em.simplified") == 1
        assert (fuselab.cli.run_em, fuselab.cli.run_soft_em) == (run_em, run_soft_em)


class TestArgumentErrors:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    def test_missing_required_output(self, tmp_path):
        assert main(["fuse", "--variant", "binary", "x.svol"]) == 2

    @pytest.mark.parametrize("command", ["fuse", "softmask", "simulate", "eval"])
    @pytest.mark.parametrize("form", ["flag", "config"])
    def test_threads_is_not_an_option(self, sim_config, tmp_path, capsys, command, form):
        """No command takes --threads, as a flag or as a --config key."""
        mask = tmp_path / "expert.svol"
        write_svol(grid([0.0, 1.0, 1.0, 0.0], dims=Dim3(2, 2, 1)), mask)
        flair = tmp_path / "flair.svol"
        write_svol(VolumeGrid(Dim3(2, 2, 1), np.full(4, 50.0), GridKind.INTENSITY), flair)
        argv = {"fuse": ["fuse", "--variant", "binary", str(mask)],
                "softmask": ["softmask", str(mask), "--flair", str(flair)],
                "simulate": ["simulate", str(sim_config)],
                "eval": ["eval", str(mask), str(mask)]}[command]
        if form == "flag":
            extra, message = ["--threads", "1"], "unrecognized arguments: --threads 1"
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"threads": 1}))
            extra, message = ["--config", str(cfg)], "unknown key(s): ['threads']"
        out = tmp_path / "o"
        assert main([*argv, "-o", str(out), *extra]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "fuselab" in capsys.readouterr().out

    def test_undecodable_config_exits_2_naming_it(self, sim_config, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{")
        out = tmp_path / "o"
        for argv in (["simulate", str(sim_config), "-o", str(out), "--config", str(bad)],
                     ["simulate", str(bad), "-o", str(out)]):
            assert main(argv) == 2
            assert str(bad) in capsys.readouterr().err
        assert not out.exists()

    def test_output_through_a_file_exits_2_naming_it(self, sim_config, tmp_path, capsys):
        paths = _write_experts(tmp_path, [[1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        afile = tmp_path / "afile"
        afile.write_text("kept")
        before = sorted(tmp_path.iterdir())
        for argv in (["fuse", *paths, "-o", str(afile)],
                     ["eval", *paths, "-o", str(afile)],
                     ["simulate", str(sim_config), "-o", str(afile / "sub")]):
            assert main(argv) == 2
            assert str(afile) in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before
        assert afile.read_text() == "kept"


class TestConfigValuesParsedLikeFlags:
    """--config values go through the same argparse checks as flags."""

    def _fuse(self, tmp_path, out, doc=None, *flags):
        paths = _write_experts(tmp_path, np.tile([1.0, 1.0, 0.0, 0.0, 1.0, 0.0], (3, 1)))
        if doc is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(doc))
            flags = ("--config", str(cfg), *flags)
        return main(["fuse", *paths, "-o", str(tmp_path / out), *flags])

    @pytest.mark.parametrize("doc", [
        {"max_iters": 2.5},
        {"tol": None},
        {"init_sens": [0.9]},
        {"binarize": "yes"},
        {"seed": "abc"},
        [{"max_iters": 2}],
    ])
    def test_bad_value_exits_2_and_writes_nothing(self, tmp_path, doc):
        assert self._fuse(tmp_path, "cons", doc) == 2
        assert not (tmp_path / "cons").exists()

    def test_string_read_as_the_flag_reads_it(self, tmp_path):
        assert self._fuse(tmp_path, "by_config", {"init_sens": "0.8"}) == 0
        assert self._fuse(tmp_path, "by_flag", None, "--init-sens", "0.8") == 0
        manifest = json.loads((tmp_path / "by_config" / "manifest.json").read_text())
        assert manifest["config"]["init_sens"] == 0.8
        assert ((tmp_path / "by_config" / "params.json").read_bytes()
                == (tmp_path / "by_flag" / "params.json").read_bytes())

    def test_true_sets_an_on_off_flag(self, tmp_path):
        assert self._fuse(tmp_path, "cons", {"binarize": True, "force": False}) == 0
        assert (tmp_path / "cons" / "consensus.svol").exists()
        config = json.loads((tmp_path / "cons" / "manifest.json").read_text())["config"]
        assert config["binarize"] is True
        assert config["force"] is False


_COMMON = [["--seed"], ["--force"], ["--config"]]


class TestParserSurface:
    """Every command keeps its option strings and choices."""

    @pytest.mark.parametrize("command, options", [
        ("fuse", [["-h", "--help"], ["inputs"], ["-o", "--out"], ["--variant"], ["--prior"],
                  ["--init-sens"], ["--init-spec"], ["--max-iters"], ["--tol"],
                  ["--mstep-mode"], ["--mc-samples"], ["--binarize"], ["--flair"],
                  *_COMMON]),
        ("softmask", [["-h", "--help"], ["inputs"], ["--flair"], ["-o", "--out"], ["--gamma"],
                      ["--ratio"], ["--threshold-mode"], ["--connectivity"],
                      ["--max-dilation-iters"], *_COMMON]),
        ("simulate", [["-h", "--help"], ["spec"], ["-o", "--out"], *_COMMON]),
        ("eval", [["-h", "--help"], ["truth"], ["pred"], ["--threshold"], ["--binarize-truth"],
                  ["-o", "--out"], *_COMMON]),
    ])
    def test_option_strings(self, command, options):
        actions = subcommands()[command]._actions
        assert [a.option_strings or [a.dest] for a in actions] == options

    @pytest.mark.parametrize("command, choices", [
        ("fuse", {"variant": ["binary", "soft-exact", "soft-mc", "simplified"],
                  "mstep_mode": ["expected-count", "plugin-mean"]}),
        ("softmask", {"connectivity": [6, 18, 26]}),
        ("simulate", {}),
        ("eval", {}),
    ])
    def test_choices(self, command, choices):
        actions = subcommands()[command]._actions
        assert {a.dest: list(a.choices) for a in actions if a.choices} == choices


class TestNumberChecksOnTheCommandLine:
    @pytest.mark.parametrize("command, flags, field", [
        ("softmask", ["--gamma", "1"], "gamma"),
        ("softmask", ["--ratio", "nan"], "target_volume_ratio"),
        ("softmask", ["--threshold-mode", "percentile:101"], "threshold_value"),
        ("softmask", ["--threshold-mode", "fixed:nan"], "threshold_value"),
        ("softmask", ["--max-dilation-iters", "0"], "max_dilation_iters"),
        ("fuse", ["--init-sens", "1.5"], "init_sens"),
        ("fuse", ["--tol", "0"], "tol"),
        ("fuse", ["--mc-samples", "0"], "mc_samples"),
    ])
    def test_out_of_range_option_exits_2_naming_it(self, tmp_path, capsys, command, flags,
                                                   field):
        paths = _write_experts(tmp_path, np.tile([1.0, 1.0, 0.0, 0.0], (2, 1)))
        if command == "softmask":
            flair = tmp_path / "flair.svol"
            write_svol(VolumeGrid(Dim3(4, 1, 1), np.full(4, 50.0), GridKind.INTENSITY), flair)
            paths += ["--flair", str(flair)]
        out = tmp_path / "cons"
        assert main([command, *paths, "-o", str(out), *flags]) == 2
        assert f"{field} must lie in" in capsys.readouterr().err
        assert not out.exists()


class TestSimulateSizeBound:
    """simulate refuses a spec whose estimated bytes exceed the bound before
    it makes the output directory or generates anything."""

    NEED = 12**3 * (44 + 8 * 3)  # the fixture's voxels x (44 + 8 x raters)

    def _run(self, sim_config, tmp_path, monkeypatch, limit):
        import fuselab.synth

        calls = []
        monkeypatch.setattr(fuselab.synth, "SIMULATE_BYTE_LIMIT", limit)
        real = fuselab.cli.generate_phantom
        monkeypatch.setattr(fuselab.cli, "generate_phantom",
                            lambda spec: calls.append(spec) or real(spec))
        return main(["simulate", str(sim_config), "-o", str(tmp_path / "o")]), calls

    def test_over_the_bound_exits_2_and_writes_nothing(self, sim_config, tmp_path,
                                                       monkeypatch, capsys):
        code, calls = self._run(sim_config, tmp_path, monkeypatch, self.NEED - 1)
        assert code == 2
        assert f"{self.NEED} estimated bytes" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "o").exists()

    def test_at_the_bound_runs(self, sim_config, tmp_path, monkeypatch):
        code, calls = self._run(sim_config, tmp_path, monkeypatch, self.NEED)
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("dims", [[4000000] * 3, [2**70, 1, 1]], ids=["past-2^62", "2^70"])
    def test_dims_past_the_addressable_size_exit_2(self, sim_config, tmp_path, capsys, dims):
        """Like dims over the byte bound: too large a config, not invalid input."""
        doc = json.loads(sim_config.read_text())
        doc["dims"] = dims
        sim_config.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main(["simulate", str(sim_config), "-o", str(out)]) == 2
        assert "'dims'" in capsys.readouterr().err
        assert not out.exists()


# Values each grid kind may hold, for the random CLI runs below.
_KIND_VALUES = {
    GridKind.BINARY: st.sampled_from([0.0, 1.0]),
    GridKind.SOFT: st.sampled_from([0.0, 0.3, 1.0]) | st.floats(0.0, 1.0),
    GridKind.POSTERIOR: st.floats(0.0, 1.0),
    GridKind.INTENSITY: st.floats(-10.0, 200.0),
}
# The dims of most grids, then two others: one with as many voxels, one with fewer.
_DIMS = [Dim3(4, 3, 2), Dim3(24, 1, 1), Dim3(2, 2, 2)]
# Each option's usual values (None for a switch), and values no option takes.
_OPTIONS = {
    "fuse": {
        "--variant": ["binary", "soft-exact", "soft-mc", "simplified"],
        "--prior": ["auto", "0.5", "1e-12", "0.999999999999"],
        "--init-sens": ["0.6", "0.999", "1e-12"],
        "--init-spec": ["0.6", "0.999", "1e-12"],
        "--max-iters": ["1", "3"],
        "--tol": ["1e-12", "0.5"],
        "--mstep-mode": ["expected-count", "plugin-mean"],
        "--mc-samples": ["1", "16"],
        "--binarize": None,
    },
    "softmask": {
        "--gamma": ["0.3", "0.999"],
        "--ratio": ["1", "1.5", "100"],
        "--threshold-mode": ["percentile:0", "percentile:50", "percentile:100", "fixed:3",
                             "fixed:inf", "fixed:-inf"],
        "--connectivity": ["6", "18", "26"],
        "--max-dilation-iters": ["1", "3"],
    },
    "eval": {
        "--threshold": ["0.5", "0", "1"],
        "--binarize-truth": None,
    },
}
_BAD_VALUES = ["0", "-1", "0.5", "nan", "inf", "x", "fixed:nan", "percentile:101"]


@st.composite
def _cli_runs(draw):
    """A command, its input grids as (dims, kind, values), and its options:
    1-8 experts of one kind and dims, now and then one grid of another kind
    or dims, and each option left out, given a usual value or a bad one."""
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    kinds = [draw(st.sampled_from([GridKind.BINARY, GridKind.SOFT] * 2 + list(GridKind)))]
    kinds *= draw(st.integers(1, 8))
    if command == "softmask":
        kinds.append(GridKind.INTENSITY)  # --flair
    elif command == "eval":
        kinds = [GridKind.BINARY, kinds[0]]  # truth, prediction
    dims = [_DIMS[0]] * len(kinds)
    # Hypothesis favours the first of sampled values: put the usual case first.
    odd = draw(st.sampled_from([None] * 3 * len(kinds) + list(range(len(kinds)))))
    if odd is not None:
        kinds[odd] = draw(st.sampled_from(list(GridKind)))
        dims[odd] = draw(st.sampled_from(_DIMS))
    grids = [(d, k, draw(hnp.arrays(np.float64, d.n, elements=_KIND_VALUES[k])))
             for d, k in zip(dims, kinds)]
    options = []
    for flag, values in _OPTIONS[command].items():
        if values is None:
            options += [flag] * draw(st.booleans())
        elif draw(st.booleans()):
            bad = draw(st.sampled_from([False] * 5 + [True]))
            options += [flag, draw(st.sampled_from(_BAD_VALUES if bad else values))]
    return command, grids, options


def _files(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@settings(max_examples=150, deadline=None)
@given(run=_cli_runs())
def test_cli_contract(run):
    """Random fuse, softmask and eval runs: each exits 0, 2, 3 or 4 with no
    exception escaping main; a failed run leaves no file behind; a
    successful one reruns byte-identically, manifest aside from its timing."""
    command, grids, options = run
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = []
        for i, (dims, kind, values) in enumerate(grids):
            paths.append(str(tmp / f"g{i}.svol"))
            write_svol(VolumeGrid(dims, values, kind), paths[-1])
        # softmask's last grid is its --flair; eval's two are truth and prediction.
        args = ([command, *paths[:-1], "--flair", paths[-1]] if command == "softmask"
                else [command, *paths])
        inputs = _files(tmp)
        outputs = []
        for out in ("run1", "run2"):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main([*args, *options, "-o", str(tmp / out)])
            assert code in (0, 2, 3, 4)
            if code:
                assert _files(tmp) == inputs
                return
            outputs.append(_files(tmp / out))
        manifests = [json.loads(files.pop(Path("manifest.json")).decode()
                                .replace("run2", "run1")) for files in outputs]
        for manifest in manifests:
            del manifest["duration_s"]
        assert outputs[0] == outputs[1] and manifests[0] == manifests[1]
