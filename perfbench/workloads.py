"""Workload and metric declarations of the fuselab benchmark.

This module is the single source of ``BENCHMARK.json``: ``run.py
--write-benchmark-json`` renders it from the tables below, and the
self-test checks that the committed file matches.

A workload is a family of synthetic cases. Its seed fixes the lesion
layout (radii and jitter on a regular lattice, which keeps the lesion
surface, and with it the soft-voxel count, nearly constant across seeds),
the rater reliabilities and the rater streams. The fuselab commands see
only the generated SVOL files.

Every ``fuse`` command runs a fixed number of EM iterations (``--tol``
far below what float64 parameters reach in that many steps), so the work
per case does not depend on how fast a layout happens to converge.
"""

from __future__ import annotations

import zlib
from dataclasses import asdict, dataclass

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 30

# Case layout: raw binary masks under raters/, set-up soft masks under soft/.
RATER_DIR = "raters"
SOFT_DIR = "soft"

# Never reached in the configured iteration counts; see the module docstring.
FIXED_WORK_TOL = "1e-14"


@dataclass(frozen=True)
class Fuse:
    """One ``fuse`` command of a case's chain."""

    variant: str
    max_iters: int
    mc_samples: int = 0

    def flags(self) -> list[str]:
        out = ["--variant", self.variant, "--max-iters", str(self.max_iters),
               "--tol", FIXED_WORK_TOL]
        if self.variant == "binary":
            out.append("--binarize")
        if self.mc_samples:
            out += ["--mc-samples", str(self.mc_samples)]
        return out


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dim: int                      # cube edge in voxels
    lattice: tuple[int, int, int]  # lesions per axis
    radius: tuple[float, float]   # lesion radius range, voxels
    raters: int
    boundary_errors: bool         # errors on the lesion boundary (else uniform)
    softmask: str                 # "none", "command" (timed) or "setup"
    fuses: tuple[Fuse, ...]

    def rater_ids(self) -> list[str]:
        return [f"r{i:02d}" for i in range(self.raters)]

    def salt(self) -> int:
        return zlib.crc32(self.name.encode())

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, doc: dict) -> "Workload":
        doc = dict(doc)
        doc["lattice"] = tuple(doc["lattice"])
        doc["radius"] = tuple(doc["radius"])
        doc["fuses"] = tuple(Fuse(**f) for f in doc["fuses"])
        return cls(**doc)


WORKLOADS = (
    Workload(
        name="binary-large",
        why="96^3, 12 lesions, 7 uniform-error binary raters; fuse binary+eval. "
            "Stresses staple EM and svol_io reads (7 x 7.1 MB, the largest); "
            "softmask and soft_staple idle.",
        dim=96, lattice=(2, 2, 3), radius=(4.5, 5.5), raters=7,
        boundary_errors=False, softmask="none",
        fuses=(Fuse("binary", 6),),
    ),
    Workload(
        name="protocol-m7",
        why="40^3, 8 lesions, 7 boundary-error raters + FLAIR; softmask, fuse "
            "soft-exact (grouped), simplified, soft-mc, eval each. Stresses "
            "softmask, soft_staple, svol_io writes.",
        dim=40, lattice=(2, 2, 2), radius=(3.4, 3.6), raters=7,
        boundary_errors=True, softmask="command",
        fuses=(Fuse("soft-exact", 12), Fuse("simplified", 10),
               Fuse("soft-mc", 2, mc_samples=256)),
    ),
    Workload(
        name="wide-panel",
        why="16^3, 8 lesions, 12 boundary-error raters, soft masks built at "
            "setup; fuse soft-exact (>1024 columns, so it streams 2^12 "
            "combinations), simplified, eval.",
        dim=16, lattice=(2, 2, 2), radius=(2.2, 2.6), raters=12,
        boundary_errors=True, softmask="setup",
        fuses=(Fuse("soft-exact", 12), Fuse("simplified", 10)),
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}

# (name, unit, better, bound). Bounds are shares of the parent's median.
END_TO_END = (
    ("case_s", "s", "lower", 0.25),
    ("fuse_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
    ("dice_min", "1", "higher", 0.15),
)

VARIANTS = ("binary", "soft-exact", "simplified", "soft-mc")
SOFT_VARIANTS = VARIANTS[1:]

# (name, unit, better). Layers that a workload does not run report 0.
PER_LAYER = (
    ("softmask_s", "s", "lower"),
    *((f"fuse.{v}_s", "s", "lower") for v in VARIANTS),
    ("cli.self_s", "s", "lower"),
    ("svol_io.read_s", "s", "lower"),
    ("svol_io.read_bytes", "B", "lower"),
    ("svol_io.write_s", "s", "lower"),
    ("svol_io.write_bytes", "B", "lower"),
    ("volume.validate_stack_s", "s", "lower"),
    ("softmask.build_soft_stack_s", "s", "lower"),
    ("softmask.components", "count", "lower"),
    ("staple.run_em_s", "s", "lower"),
    ("staple.em_iters", "count", "lower"),
    ("staple.iter_s", "s", "lower"),
    ("staple.e_step_s", "s", "lower"),
    ("staple.m_step_s", "s", "lower"),
    ("staple.log_likelihood_s", "s", "lower"),
    ("staple.binarize_s", "s", "lower"),
    *((f"soft_staple.run_soft_em.{v}_s", "s", "lower") for v in SOFT_VARIANTS),
    *((f"soft_staple.em_iters.{v}", "count", "lower") for v in SOFT_VARIANTS),
    ("soft_staple.soft_e_step_s", "s", "lower"),
    ("soft_staple.soft_m_step_s", "s", "lower"),
    ("soft_staple.soft_log_likelihood_s", "s", "lower"),
    ("soft_staple.simple_e_step_s", "s", "lower"),
    ("soft_staple.simple_m_step_s", "s", "lower"),
    ("soft_staple.simple_log_likelihood_s", "s", "lower"),
    ("soft_staple.mc_voxel_ms", "ms", "lower"),
    ("soft_staple.vote_patterns", "count", "lower"),
    ("soft_staple.patterns_per_voxel", "1", "lower"),
    ("soft_staple.soft_voxels", "count", "lower"),
    ("soft_staple.max_fractional", "count", "lower"),
    ("soft_staple.mc_draws", "count", "lower"),
    ("metrics.precision_recall_s", "s", "lower"),
    ("metrics.param_err_max", "1", "lower"),
    ("synth.generate_phantom_s", "s", "lower"),
    ("synth.simulate_raters_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
