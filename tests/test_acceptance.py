"""Acceptance suite: every criterion at its stated tolerance.

Run ``pytest tests/test_acceptance.py -v``; the terminal summary prints
one PASS/FAIL line per criterion. The heavy fixtures are synthetic
phantom/rater datasets with known generating parameters, so every
quantitative check has an oracle.
"""

import json
import time

import numpy as np
import pytest
from scipy import ndimage

from fuselab import (
    Dim3,
    FusionConfig,
    GridKind,
    PhantomSpec,
    RaterParams,
    RaterSpec,
    SoftMaskConfig,
    VolumeGrid,
    binarize,
    build_soft_mask,
    build_soft_stack,
    e_step,
    generate_phantom,
    mc_soft_e_step_voxel,
    param_recovery_error,
    read_svol,
    run_em,
    run_soft_em,
    simple_e_step_voxel,
    simulate_raters,
    soft_e_step_voxel,
    soften_votes,
    write_svol,
)
from fuselab.cli import main as cli_main
from helpers import assert_monotone, stack_from_rows
from oracles import (
    dice_hard,
    majority_vote,
    posterior_brute,
    simple_posterior_brute,
    soft_posterior_brute,
)

BLUR = 0.1


def _recovery_dataset(seed):
    """One criterion-4 case: 64^3 phantom at ~2% prevalence, 5 raters with
    reliabilities drawn from [0.7, 0.95]."""
    srng = np.random.default_rng(1000 + seed)
    spec = PhantomSpec(
        Dim3(64, 64, 64),
        (
            ((16, 16, 16), 7.0),
            ((44, 40, 20), 6.5),
            ((30, 48, 46), 7.5),
            ((50, 20, 50), 6.0),
        ),
        seed=seed,
    )
    truth, _ = generate_phantom(spec)
    true_sens = srng.uniform(0.7, 0.95, 5)
    true_spec = srng.uniform(0.7, 0.95, 5)
    raters = [
        RaterSpec(f"r{i}", float(s), float(p), seed=seed * 100 + i)
        for i, (s, p) in enumerate(zip(true_sens, true_spec))
    ]
    stack = simulate_raters(truth, raters)
    return truth, stack, RaterParams(true_sens, true_spec)


def test_criterion_01_binary_estep_matches_direct_transcription():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    for _ in range(200):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 13))
        rows = (rng.random((m, n)) > 0.5).astype(float)
        sens = rng.uniform(0.55, 0.98, m)
        spec = rng.uniform(0.55, 0.98, m)
        prior = float(rng.uniform(0.05, 0.95))
        stack = stack_from_rows(rows)
        w = e_step(stack, RaterParams(sens, spec), prior)
        for t in range(n):
            want = posterior_brute(rows[:, t], sens, spec, prior)
            assert abs(w.data[t] - want) < 1e-12
    assert time.perf_counter() - started < 1.0


def test_criterion_02_soft_estep_matches_128_term_enumeration():
    rng = np.random.default_rng(102)
    started = time.perf_counter()
    for _ in range(100):
        q = rng.random(7)
        sens = rng.uniform(0.55, 0.98, 7)
        spec = rng.uniform(0.55, 0.98, 7)
        prior = float(rng.uniform(0.05, 0.95))
        params = RaterParams(sens, spec)
        got_exact = soft_e_step_voxel(q, params, prior)
        assert abs(got_exact - soft_posterior_brute(q, sens, spec, prior)) < 1e-12
        got_simple = simple_e_step_voxel(q, params, prior)
        assert abs(got_simple - simple_posterior_brute(q, sens, spec, prior)) < 1e-12
    assert time.perf_counter() - started < 5.0


def test_criterion_03_em_monotonicity_all_variants():
    started = time.perf_counter()
    for seed in range(20):
        spec = PhantomSpec(
            Dim3(32, 32, 32), (((16, 16, 16), 6.0), ((8, 24, 10), 4.0)), seed=seed
        )
        truth, _ = generate_phantom(spec)
        srng = np.random.default_rng(2000 + seed)
        raters = [
            RaterSpec(f"r{i}", float(s), float(p), seed=seed * 10 + i)
            for i, (s, p) in enumerate(
                zip(srng.uniform(0.7, 0.95, 5), srng.uniform(0.7, 0.95, 5))
            )
        ]
        stack = simulate_raters(truth, raters)
        soft = soften_votes(stack, BLUR)
        assert_monotone(run_em(stack).ll_trace)
        assert_monotone(
            run_soft_em(
                soft, FusionConfig(variant="soft-exact", mstep_mode="expected-count")
            ).ll_trace
        )
        assert_monotone(run_soft_em(soft, FusionConfig(variant="simplified")).ll_trace)
    assert time.perf_counter() - started < 120.0


def test_criterion_04_parameter_recovery():
    started = time.perf_counter()
    binary_hits = 0
    soft_hits = 0
    for seed in range(20):
        truth, stack, true_params = _recovery_dataset(seed)
        prevalence = float(truth.data.mean())

        res = run_em(stack, FusionConfig(prior=prevalence))
        rec = param_recovery_error(res.params, true_params)
        binary_hits += rec.error <= 0.02

        soft = soften_votes(stack, BLUR)
        rs = run_soft_em(
            soft, FusionConfig(variant="soft-exact", prior=prevalence, tol=1e-4)
        )
        # hard samples drawn from the softened votes carry the blurred
        # reliability (1-blur)*theta + blur*(1-theta); invert that known
        # blur before comparing to the generating parameters
        deblurred = RaterParams(
            np.clip((rs.params.sens - BLUR) / (1.0 - 2.0 * BLUR), 0.0, 1.0),
            np.clip((rs.params.spec - BLUR) / (1.0 - 2.0 * BLUR), 0.0, 1.0),
        )
        rec_soft = param_recovery_error(deblurred, true_params)
        soft_hits += rec_soft.error <= 0.03

    assert binary_hits >= 18, f"binary recovery hit {binary_hits}/20 seeds"
    assert soft_hits >= 18, f"soft recovery hit {soft_hits}/20 seeds"
    assert time.perf_counter() - started < 300.0


def test_criterion_05_degenerate_reduction_over_seeds():
    for seed in range(10):
        rng = np.random.default_rng(500 + seed)
        rows = (rng.random((4, 60)) < 0.35).astype(float)
        stack = stack_from_rows(rows)
        soft = stack_from_rows(rows, GridKind.SOFT)
        for iters in (1, 3):
            ref = run_em(stack, FusionConfig(max_iters=iters, tol=1e-300))
            for variant in ("soft-exact", "soft-mc", "simplified"):
                res = run_soft_em(
                    soft,
                    FusionConfig(
                        variant=variant, max_iters=iters, tol=1e-300, mc_samples=13
                    ),
                )
                assert np.max(np.abs(res.posterior.data - ref.posterior.data)) < 1e-10
                assert np.max(np.abs(res.params.sens - ref.params.sens)) < 1e-10
                assert np.max(np.abs(res.params.spec - ref.params.spec)) < 1e-10


def test_criterion_06_fusion_beats_raters():
    beats_best = 0
    beats_majority = 0
    for seed in range(20):
        truth, stack, _ = _recovery_dataset(seed)
        prevalence = float(truth.data.mean())
        res = run_em(stack, FusionConfig(prior=prevalence))
        consensus = binarize(res.posterior).data
        t = truth.data
        consensus_dice = dice_hard(t, consensus)
        best_single = max(dice_hard(t, g.data) for g in stack.experts)
        mv_dice = dice_hard(t, majority_vote(stack.as_matrix()))
        beats_best += consensus_dice >= best_single
        beats_majority += consensus_dice >= mv_dice
    assert beats_best >= 18, f"consensus beat the best expert in {beats_best}/20"
    assert beats_majority >= 15, f"consensus beat majority vote in {beats_majority}/20"


def test_criterion_07_soft_mask_protocol_cube():
    shape = (9, 9, 9)
    mask3 = np.zeros(shape)
    mask3[3:6, 3:6, 3:6] = 1.0
    binary = VolumeGrid.from_3d(mask3, GridKind.BINARY)
    flair = VolumeGrid.from_3d(np.full(shape, 100.0), GridKind.INTENSITY)

    out = build_soft_mask(binary, flair, SoftMaskConfig())
    values, counts = np.unique(out.data, return_counts=True)
    by_value = dict(zip(values, counts))
    assert by_value == {0.0: 9**3 - 125, 0.3: 98, 1.0: 27}

    ring = (
        ndimage.binary_dilation(mask3 > 0.5, np.ones((3, 3, 3), dtype=bool)).reshape(-1)
    ) & (binary.data < 0.5)
    dipped_idx = np.flatnonzero(ring)[:10]
    flair_values = flair.data.copy()
    flair_values[dipped_idx] = 10.0
    dipped = VolumeGrid(binary.dims, flair_values, GridKind.INTENSITY)
    out2 = build_soft_mask(binary, dipped, SoftMaskConfig())
    assert np.all(out2.data[dipped_idx] == 0.0)
    others = np.setdiff1d(np.flatnonzero(ring), dipped_idx)
    assert np.all(out2.data[others] == 0.3)
    assert int(np.sum(out2.data == 0.3)) == 88


def test_criterion_08_exact_variant_keeps_more_surrounding_support():
    wins = 0
    for seed in range(10):
        spec = PhantomSpec(
            Dim3(28, 28, 28),
            (((14, 14, 14), 5.0), ((7, 20, 8), 3.5)),
            background_intensity=40.0,
            lesion_intensity=120.0,
            intensity_noise_sd=4.0,
            seed=seed,
        )
        truth, flair = generate_phantom(spec)
        srng = np.random.default_rng(3000 + seed)
        raters = [
            RaterSpec(f"r{i}", 0.9, 0.99, seed=seed * 10 + i,
                      boundary_softening=float(b))
            for i, b in enumerate(srng.uniform(0.15, 0.4, 7))
        ]
        stack = simulate_raters(truth, raters)
        soft = build_soft_stack(stack, flair)
        exact = run_soft_em(soft, FusionConfig(variant="soft-exact"))
        simplified = run_soft_em(soft, FusionConfig(variant="simplified"))
        support_exact = int(np.sum(exact.posterior.data > 0.01))
        support_simplified = int(np.sum(simplified.posterior.data > 0.01))
        wins += support_exact >= support_simplified
    assert wins >= 8, f"exact variant kept at least as much support in {wins}/10"


def test_criterion_09_mc_estimator_accuracy():
    rng = np.random.default_rng(909)
    params = RaterParams(rng.uniform(0.65, 0.95, 7), rng.uniform(0.65, 0.95, 7))
    prior = 0.2
    n_vox = 10_000
    q_all = rng.random((n_vox, 7))
    within = 0
    for t in range(n_vox):
        exact = soft_e_step_voxel(q_all[t], params, prior)
        mc = mc_soft_e_step_voxel(q_all[t], params, prior, 100_000,
                                  seed=424242, voxel_index=t)
        within += abs(mc - exact) < 0.01
    assert within >= 0.99 * n_vox, f"{within}/{n_vox} voxels within 0.01"


def test_criterion_10_bit_exact_io_and_run_determinism(tmp_path):
    rng = np.random.default_rng(1010)
    kinds = list(GridKind)
    for i in range(1000):
        dims = Dim3(*(int(rng.integers(1, 6)) for _ in range(3)))
        kind = kinds[rng.integers(len(kinds))]
        data = rng.random(dims.n)
        if kind is GridKind.BINARY:
            data = (data > 0.5).astype(float)
        elif kind is GridKind.INTENSITY:
            data = rng.normal(0.0, 50.0, dims.n)
        g = VolumeGrid(dims, data, kind)
        path = tmp_path / "grid.svol"
        write_svol(g, path)
        back = read_svol(path)
        assert back == g
        assert back.data.tobytes() == g.data.tobytes()

    sim_cfg = tmp_path / "sim.json"
    sim_cfg.write_text(json.dumps({
        "dims": [10, 10, 10],
        "lesions": [{"center": [5, 5, 5], "radius": 2.5}],
        "background_intensity": 30.0,
        "lesion_intensity": 90.0,
        "intensity_noise_sd": 1.5,
        "seed": 77,
        "raters": [
            {"id": "a", "sens": 0.9, "spec": 0.92, "seed": 1},
            {"id": "b", "sens": 0.8, "spec": 0.95, "seed": 2},
            {"id": "c", "sens": 0.85, "spec": 0.9, "seed": 3},
        ],
    }))
    outputs = []
    for run in ("one", "two"):
        sim_out = tmp_path / f"sim_{run}"
        assert cli_main(["simulate", str(sim_cfg), "-o", str(sim_out)]) == 0
        fuse_out = tmp_path / f"cons_{run}"
        experts = sorted(str(p) for p in sim_out.glob("expert_*.svol"))
        assert cli_main(["fuse", "--variant", "binary", *experts,
                         "-o", str(fuse_out), "--binarize"]) == 0
        outputs.append((sim_out, fuse_out))

    (sim1, cons1), (sim2, cons2) = outputs
    for name in sorted(p.name for p in sim1.iterdir()):
        if name == "manifest.json":
            continue
        assert (sim1 / name).read_bytes() == (sim2 / name).read_bytes()
    for name in ("posterior.svol", "consensus.svol", "params.json"):
        assert (cons1 / name).read_bytes() == (cons2 / name).read_bytes()
    m1 = json.loads((cons1 / "manifest.json").read_text())
    m2 = json.loads((cons2 / "manifest.json").read_text())
    for doc in (m1, m2):
        doc.pop("duration_s")
        doc["inputs"] = [p.rsplit("_", 1)[-1] for p in doc["inputs"]]
        doc["outputs"] = [p.rsplit("/", 1)[-1] for p in doc["outputs"]]
    assert m1 == m2
    assert m1["config"]["binarize"] is True
