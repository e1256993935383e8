"""
Fusing soft votes: exact, Monte Carlo, and simplified
=====================================================

Soft masks weight ring voxels with a reduced confidence. The exact fuser
enumerates the 2^k joint hard-vote combinations of each distinct vote
column with k fractional votes; the Monte Carlo variant samples them, so
its objective is its sampled model's, an estimate of the exact one; the
simplified variant treats each soft vote as a noisy observation and stays
linear in m. The exact posterior keeps more lesion-surrounding voxels
than the simplified one.
"""

import numpy as np

from fuselab import (
    Dim3,
    FusionConfig,
    PhantomSpec,
    RaterSpec,
    build_soft_stack,
    generate_phantom,
    mc_soft_e_step_voxel,
    RaterParams,
    run_soft_em,
    simulate_raters,
    soft_e_step_voxel,
)

# phantom plus seven raters whose disagreement sits on the lesion contour
phantom = PhantomSpec(
    dims=Dim3(28, 28, 28),
    lesions=(((14, 14, 14), 5.0), ((7, 20, 8), 3.5)),
    background_intensity=40.0,
    lesion_intensity=120.0,
    intensity_noise_sd=4.0,
    seed=1,
)
truth, flair = generate_phantom(phantom)
raters = [
    RaterSpec(f"r{i}", 0.9, 0.99, seed=i, boundary_softening=0.2 + 0.03 * i)
    for i in range(7)
]
stack = simulate_raters(truth, raters)
soft_stack = build_soft_stack(stack, flair)

results = {}
for variant in ("soft-exact", "simplified"):
    results[variant] = run_soft_em(soft_stack, FusionConfig(variant=variant))
    res = results[variant]
    support = int(np.sum(res.posterior.data > 0.01))
    print(f"{variant:12s}: {res.iters_run:3d} iterations, "
          f"objective {res.ll_trace[-1]:12.1f}, support(>0.01) = {support}")
print(f"truth lesion voxels: {int(truth.data.sum())}")

# the Monte Carlo estimator converges to the exact per-voxel posterior
rng = np.random.default_rng(0)
q = rng.random(7)
params = RaterParams(rng.uniform(0.7, 0.95, 7), rng.uniform(0.7, 0.95, 7))
exact = soft_e_step_voxel(q, params, 0.2)
print(f"\nper-voxel posterior, exact enumeration: {exact:.6f}")
for samples in (100, 10_000, 1_000_000):
    mc = mc_soft_e_step_voxel(q, params, 0.2, samples, seed=42)
    print(f"  Monte Carlo, {samples:>9,} samples: {mc:.6f} "
          f"(error {abs(mc - exact):.2e})")
