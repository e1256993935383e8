"""Correctness gate: checks every output of a benchmark case.

Each check returns a list of failure messages; an empty list means the
command's outputs are correct. The worker counts a check that raises (a
missing or malformed file, a missing key) as a failure too. A ``fuse`` output is recomputed at a fixed,
seeded sample of voxels with the public single-voxel function of its
variant, at the sens/spec/prior that ``params.json`` reports.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import fuselab
from fuselab import GridKind, RaterParams

# Absolute tolerance of the voxel recomputation. The single-voxel
# functions repeat the sweep's arithmetic, so only summation order differs.
VOXEL_TOL = 1e-12
SAMPLE_PER_POOL = 16


def read_outputs(out: Path) -> tuple[dict, list[str]]:
    """The manifest, after checking that every declared output reads back."""
    failures = []
    try:
        manifest = json.loads((out / "manifest.json").read_text())
    except (OSError, ValueError) as exc:
        return {}, [f"{out}: manifest.json unreadable: {exc}"]
    for path in manifest.get("outputs", []):
        try:
            if path.endswith(".svol"):
                fuselab.read_svol(path)
            else:
                json.loads(Path(path).read_text())
        except (OSError, ValueError, fuselab.errors.FuselabError) as exc:
            failures.append(f"{path}: declared output does not read back: {exc}")
    return manifest, failures


def sample_votes(paths, seed: int) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Expert ids (file stems, as the CLI names them) in sorted-id order, a
    seeded voxel sample (some anywhere, some with a vote, some soft) and the
    (m, k) votes at those voxels, rows in sorted-id order.

    Reads one file at a time and keeps only the pool masks and the sampled
    columns, so the gate holds far less memory than the fuse it checks and
    does not set the worker's peak RSS.
    """
    paths = sorted(paths, key=lambda p: Path(p).stem)
    voted = soft = None
    for path in paths:
        data = fuselab.read_svol(path).data
        if voted is None:
            voted = np.zeros(data.size, dtype=bool)
            soft = np.zeros(data.size, dtype=bool)
        voted |= data > 0.0
        soft |= (data > 0.0) & (data < 1.0)
    rng = np.random.default_rng(seed)
    pools = (np.arange(voted.size), np.flatnonzero(voted), np.flatnonzero(soft))
    picks = [rng.choice(p, min(SAMPLE_PER_POOL, p.size), replace=False)
             for p in pools if p.size]
    voxels = np.unique(np.concatenate(picks))
    q = np.stack([fuselab.read_svol(path).data[voxels] for path in paths])
    return [Path(p).stem for p in paths], voxels, q


def voxel_posterior(variant: str, votes, params: RaterParams, prior: float,
                    config: dict, voxel: int) -> float:
    if variant == "binary":
        return fuselab.posterior_voxel(votes, params, prior)
    if variant == "soft-exact":
        return fuselab.soft_e_step_voxel(votes, params, prior)
    if variant == "simplified":
        return fuselab.simple_e_step_voxel(votes, params, prior)
    return fuselab.mc_soft_e_step_voxel(
        votes, params, prior, config["mc_samples"], config["seed"], voxel)


def check_fuse(out: Path, seed: int) -> tuple[list[str], dict]:
    """Failures, plus the parsed outputs that the quality metrics need."""
    manifest, failures = read_outputs(out)
    if not manifest:
        return failures, {}
    try:
        params = json.loads((out / "params.json").read_text())
        posterior = fuselab.read_svol(out / "posterior.svol")
    except (OSError, ValueError, fuselab.errors.FuselabError) as exc:
        return failures + [f"{out}: fuse outputs unreadable: {exc}"], {}
    config = manifest["config"]
    variant = config["variant"]
    if posterior.kind is not GridKind.POSTERIOR:
        return failures + [f"{out}: posterior has kind {posterior.kind.value}"], {}

    ids, voxels, q = sample_votes(manifest["inputs"], seed)
    pos = {eid: i for i, eid in enumerate(params["expert_ids"])}
    order = [pos[eid] for eid in ids]
    sparams = RaterParams(np.asarray(params["sens"])[order],
                          np.asarray(params["spec"])[order])
    for j, t in enumerate(voxels):
        t = int(t)
        want = voxel_posterior(variant, q[:, j], sparams, params["prior"], config, t)
        got = float(posterior.data[t])
        if not abs(want - got) <= VOXEL_TOL:
            failures.append(
                f"{out}: voxel {t} posterior {got!r} != recomputed {want!r}")
            break

    consensus = fuselab.binarize(posterior)
    if (out / "consensus.svol").exists():
        written = fuselab.read_svol(out / "consensus.svol")
        if not np.array_equal(written.data, consensus.data):
            failures.append(f"{out}: consensus.svol is not the binarized posterior")
    return failures, {"params": params, "consensus": consensus}


def check_eval(out: Path, stdout: str, truth, pred_path) -> list[str]:
    """report.json and the stdout report agree with a recomputed Dice."""
    _, failures = read_outputs(out)
    try:
        report = json.loads((out / "report.json").read_text())
        printed = json.loads(stdout.strip().splitlines()[-1])
    except (OSError, ValueError, IndexError) as exc:
        return failures + [f"{out}: eval report unreadable: {exc}"]
    if printed != report:
        failures.append(f"{out}: printed report differs from report.json")
    pred = fuselab.read_svol(pred_path)
    dice = fuselab.soft_dice(truth, fuselab.binarize(pred) if
                             pred.kind is GridKind.POSTERIOR else pred)
    if not abs(report["dice"] - dice) <= VOXEL_TOL:
        failures.append(f"{out}: eval dice {report['dice']!r} != {dice!r}")
    return failures


def check_softmask(out: Path, raw_paths) -> list[str]:
    """Each soft mask keeps its annotation at 1 and labels only gamma or 0
    elsewhere."""
    manifest, failures = read_outputs(out)
    if not manifest:
        return failures
    gamma = manifest["config"]["gamma"]
    for raw_path in raw_paths:
        raw = fuselab.read_svol(raw_path).data
        soft = fuselab.read_svol(out / Path(raw_path).name)
        inside = raw == 1.0
        ok = (soft.kind is GridKind.SOFT
              and np.all(soft.data[inside] == 1.0)
              and np.all((soft.data[~inside] == 0.0) | (soft.data[~inside] == gamma)))
        if not ok:
            failures.append(f"{out}: soft mask for {raw_path} breaks the protocol")
    return failures
