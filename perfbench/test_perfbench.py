"""Fast self-test of the benchmark: python3 -m pytest perfbench -q"""

import contextlib
import io
import json
import re
from dataclasses import replace

import numpy as np
import pytest

from srcpath import ROOT, add_src_path

add_src_path()

import fuselab  # noqa: E402
import fuselab.cli  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from gate import check_fuse  # noqa: E402
from spans import Span, Tracer, pattern_stats, probe_fuse  # noqa: E402
from workloads import BY_NAME, END_TO_END, PER_LAYER, RATER_DIR, benchmark_json  # noqa: E402

# Each workload at a tiny grid: one lesion, same raters and chain.
TINY = {
    "binary-large": replace(BY_NAME["binary-large"], dim=16, lattice=(1, 1, 1),
                            radius=(3.0, 4.0)),
    "protocol-m7": replace(BY_NAME["protocol-m7"], dim=16, lattice=(1, 1, 1),
                           radius=(3.4, 3.6)),
    "wide-panel": replace(BY_NAME["wide-panel"], dim=8, lattice=(1, 1, 1),
                          radius=(2.0, 2.2)),
}


def test_committed_benchmark_json_matches_declarations():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == benchmark_json()
    names = [w["name"] for w in committed["workloads"]]
    names += [m["name"] for m in committed["end_to_end"] + committed["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in committed["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in committed["end_to_end"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               for m in committed["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_workload_prints_every_metric(name, trace, tmp_path):
    lines, result = run.run(TINY[name], seed=3, seconds=0.1, trace=trace, work=tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = END_TO_END if trace == 0 else PER_LAYER
    assert list(result["metrics"]) == [d[0] for d in declared]
    for metric, unit, *_ in declared:
        assert result["metrics"][metric]["unit"] == unit
        assert any(line.startswith(f"  {metric} = ") and line.endswith(f" {unit}")
                   for line in lines)
    if trace == 0:
        assert any(line.startswith("  fail_ratio = 0 1") for line in lines)
    else:
        spans_file = run.SPANS_DIR / f"{name}-3.jsonl"
        spans = [json.loads(line) for line in spans_file.read_text().splitlines()]
        spans_file.unlink()
        with contextlib.suppress(OSError):
            run.SPANS_DIR.rmdir()
        assert {"name", "case", "parent", "start", "end"} <= set(spans[0])
        assert any(s["name"] == "cli.main" and s["parent"] is None for s in spans)


def _tiny_case(tmp_path, name="protocol-m7"):
    inputs = tmp_path / "inputs"
    run.setup(TINY[name], 5, inputs)
    return sorted(str(p) for p in (inputs / RATER_DIR).glob("*.svol")), inputs


def _cli(*argv):
    with contextlib.redirect_stderr(io.StringIO()):
        assert fuselab.cli.main([str(a) for a in argv]) == 0


def test_gate_fails_on_corrupted_posterior(tmp_path):
    raw, inputs = _tiny_case(tmp_path)
    soft = tmp_path / "soft"
    _cli("softmask", *raw, "--flair", inputs / "flair.svol", "-o", soft)
    out = tmp_path / "fuse"
    _cli("fuse", *sorted(soft.glob("*.svol")), "-o", out, "--variant", "soft-mc",
         "--mc-samples", "64", "--max-iters", "2")
    assert check_fuse(out, seed=5)[0] == []

    post = fuselab.read_svol(out / "posterior.svol")
    bad = np.clip(post.data * 0.98 + 0.01, 0.0, 1.0)
    fuselab.write_svol(fuselab.VolumeGrid(post.dims, bad, post.kind), out / "posterior.svol")
    failures, _ = check_fuse(out, seed=5)
    assert failures and "recomputed" in failures[0]


@pytest.mark.parametrize("flags", [
    ("--variant", "binary", "--binarize"),
    ("--variant", "soft-exact"),
    ("--variant", "simplified"),
    ("--variant", "soft-mc", "--mc-samples", "64", "--max-iters", "2"),
])
def test_case_reruns_are_byte_identical(flags, tmp_path):
    raw, inputs = _tiny_case(tmp_path)
    if flags[1] != "binary":
        flags = (*flags, "--flair", str(inputs / "flair.svol"))
    for out in ("a", "b"):
        _cli("fuse", *raw, "-o", tmp_path / out, *flags)
    for name in ("posterior.svol", "params.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_pattern_codes_count_distinct_columns():
    rng = np.random.default_rng(0)
    q = rng.choice([0.0, 0.3, 1.0], size=(6, 2000), p=[0.6, 0.2, 0.2])
    stats = pattern_stats(q)
    assert stats["soft_staple.vote_patterns"] == np.unique(q, axis=1).shape[1]
    assert stats["soft_staple.max_fractional"] == int(((q > 0) & (q < 1)).sum(0).max())


def test_pattern_codes_refuse_to_overflow():
    q = np.tile([0.0, 0.5, 1.0], (40, 1))
    with pytest.raises(OverflowError):
        pattern_stats(q)


def test_mc_draws_counts_the_sweeps_draws(tmp_path, monkeypatch):
    raw, inputs = _tiny_case(tmp_path)
    soft = tmp_path / "soft"
    _cli("softmask", *raw, "--flair", inputs / "flair.svol", "-o", soft)
    calls = []
    sample_bits = fuselab.soft_staple._McSweep._sample_bits
    monkeypatch.setattr(fuselab.soft_staple._McSweep, "_sample_bits",
                        lambda self, t: calls.append(t) or sample_bits(self, t))
    out = tmp_path / "fuse"
    inputs = sorted(str(p) for p in soft.glob("*.svol"))
    _cli("fuse", *inputs, "-o", out, "--variant", "soft-mc", "--mc-samples", "64",
         "--max-iters", "3", "--tol", "1e-14")
    params = json.loads((out / "params.json").read_text())
    config = json.loads((out / "manifest.json").read_text())["config"]
    draws = probe_fuse("soft-mc", inputs, params, config, 5)["soft_staple.mc_draws"]
    assert params["iters_run"] == 3 and not params["ll_is_approximate"]
    assert calls and draws == len(calls) * 64 * len(inputs)


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.spans = [
        Span(0, "cli.main", 0, None, 0.0, 10.0),
        Span(1, "read_svol", 0, 0, 1.0, 3.0, nbytes=8),
        Span(2, "run_em", 0, 0, 2.0, 5.0),
    ]
    totals = tracer.layer_totals()[0]
    assert totals["cli.self_s"] == pytest.approx(6.0)
    assert totals["svol_io.read_s"] == pytest.approx(2.0)
    assert totals["svol_io.read_bytes"] == 8


def test_failed_checks_count_once_per_operation(tmp_path):
    _, inputs = _tiny_case(tmp_path, "binary-large")
    case = worker.Case(TINY["binary-large"], inputs, 5)
    cmds, _ = case.plan(tmp_path / "out")
    worker.run_commands(cmds, None)
    post = fuselab.read_svol(cmds[0].out / "posterior.svol")
    fuselab.write_svol(fuselab.VolumeGrid(post.dims, 1.0 - post.data, post.kind),
                       cmds[0].out / "posterior.svol")
    cmds[1].rc = 3
    failures, _, _ = worker.check_commands(case, cmds)
    assert set(failures) == {"fuse.binary", "eval.binary"}
    assert len(failures["fuse.binary"]) == 2   # voxel recomputation and consensus


def test_crashes_count_as_failed_operations(tmp_path, monkeypatch):
    _, inputs = _tiny_case(tmp_path, "protocol-m7")
    case = worker.Case(TINY["protocol-m7"], inputs, 5)
    cmds, _ = case.plan(tmp_path / "out")
    softmask, fuse = cmds[0], cmds[1]

    def broken(*args, **kwargs):
        raise IndexError("injected")

    monkeypatch.setattr(fuselab.cli, "run_soft_em", broken)
    worker.run_commands(cmds[:2], None)
    assert fuse.rc == 1 and "IndexError: injected" in fuse.stderr

    (softmask.out / "r00.svol").unlink()     # a declared output goes missing
    failures, _, _ = worker.check_commands(case, cmds[:2])
    assert set(failures) == {"softmask", fuse.name}
    assert any("gate raised" in msg for msg in failures["softmask"])
