"""Set-up process: writes one workload case's SVOL inputs.

    python3 perfbench/gen.py --spec '<workload json>' --seed N --out DIR

Runs in a process of its own so that ``setup_s`` (from just before
``import fuselab`` to the last file written) includes the import. Prints
one JSON object with the stage timings, scaled to nominal seconds by the
reference kernel (see ``refkernel.py``), as its last stdout line.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from srcpath import add_src_path  # noqa: E402

add_src_path()

import fuselab  # noqa: E402
import numpy as np  # noqa: E402

from workloads import RATER_DIR, SOFT_DIR, Workload  # noqa: E402


def lesion_layout(workload: Workload, rng: np.random.Generator) -> list:
    """One lesion per lattice cell, with seeded radius and center jitter."""
    cell = workload.dim / np.array(workload.lattice, dtype=float)
    lesions = []
    for idx in np.ndindex(*workload.lattice):
        radius = float(rng.uniform(*workload.radius))
        center = []
        for axis, i in enumerate(idx):
            lo = i * cell[axis] + radius + 1.0
            hi = (i + 1) * cell[axis] - radius - 2.0
            mid = (lo + hi) / 2.0
            half = max(hi - lo, 0.0) / 2.0
            center.append(float(mid + 0.8 * half * rng.uniform(-1.0, 1.0)))
        lesions.append((tuple(center), radius))
    return lesions


def case_specs(workload: Workload, seed: int):
    """The phantom and rater specs that ``seed`` selects for ``workload``."""
    rng = np.random.default_rng([seed, workload.salt()])
    phantom = fuselab.PhantomSpec(
        dims=fuselab.Dim3(workload.dim, workload.dim, workload.dim),
        lesions=tuple(lesion_layout(workload, rng)),
        intensity_noise_sd=10.0,
        seed=int(rng.integers(2**31)),
    )
    raters = []
    for rid in workload.rater_ids():
        stream = int(rng.integers(2**31))
        if workload.boundary_errors:
            # sens/spec are unused once boundary_softening is set.
            raters.append(fuselab.RaterSpec(
                rid, 0.9, 0.99, seed=stream,
                boundary_softening=float(rng.uniform(0.25, 0.45))))
        else:
            raters.append(fuselab.RaterSpec(
                rid, float(rng.uniform(0.7, 0.95)), float(rng.uniform(0.98, 0.999)),
                seed=stream))
    return phantom, raters


def generate(workload: Workload, seed: int, out: Path) -> dict:
    phantom, raters = case_specs(workload, seed)
    t0 = time.perf_counter()
    truth, flair = fuselab.generate_phantom(phantom)
    t1 = time.perf_counter()
    stack = fuselab.simulate_raters(truth, raters)
    t2 = time.perf_counter()
    (out / RATER_DIR).mkdir(parents=True)
    fuselab.write_svol(truth, out / "truth.svol")
    fuselab.write_svol(flair, out / "flair.svol")
    for grid, rid in zip(stack.experts, stack.expert_ids):
        fuselab.write_svol(grid, out / RATER_DIR / f"{rid}.svol")
    if workload.softmask == "setup":
        (out / SOFT_DIR).mkdir()
        soft = fuselab.build_soft_stack(stack, flair)
        for grid, rid in zip(soft.experts, soft.expert_ids):
            fuselab.write_svol(grid, out / SOFT_DIR / f"{rid}.svol")
    return {"generate_phantom_s": t1 - t0, "simulate_raters_s": t2 - t1}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spec", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    stages = generate(Workload.from_json(json.loads(args.spec)), args.seed, Path(args.out))
    stages["setup_s"] = time.perf_counter() - _T0
    # Imported only now: building its arrays is not part of the set-up.
    from refkernel import reference_s, speed_factor

    factor = speed_factor(reference_s())
    stages = {k: v * factor for k, v in stages.items()}
    print(json.dumps(stages))
    return 0


if __name__ == "__main__":
    sys.exit(main())
