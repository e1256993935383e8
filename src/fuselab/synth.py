"""Synthetic phantoms and simulated raters for validating the EM fusers.

The generators draw from counter-based Philox streams keyed by (seed,
stream id), with the voxel index fixed as the position inside the stream,
so every output is a pure function of its spec and reproducible under any
evaluation order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import SEED_SPAN, ConfigError, ShapeError, _refuse_over, check_number
from .softmask import _dilation_step
from .volume import Dim3, ExpertStack, GridKind, VolumeGrid, check_grid

# Stream id of the intensity noise; expert i uses stream i.
_NOISE_STREAM = 0xF1A1

# Most bytes a simulation config may ask of generate_phantom + simulate_raters,
# estimated as voxels x (44 + 8 x raters). Their measured peak (tracemalloc,
# 64^3 and 96^3) is 50, 85 and 125 bytes per voxel at 1, 7 and 12 raters.
SIMULATE_BYTE_LIMIT = 2**32


def _stream(seed: int, stream: int) -> np.random.Generator:
    key = np.array([int(seed), int(stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _lesion(i: int, entry) -> tuple:
    """Lesion entry ``i`` as a (center tuple, radius) pair."""
    try:
        center, radius = entry
        return tuple(center), radius
    except (TypeError, ValueError):
        raise ConfigError(f"lesions[{i}] must be a ((x, y, z), radius) pair, "
                          f"got {entry!r}") from None


@dataclass(frozen=True)
class PhantomSpec:
    """Ground-truth layout: spherical lesions over a flat background.

    ``lesions`` is a sequence of ``((cx, cy, cz), radius)`` pairs in voxel
    units; a voxel belongs to a lesion when its center lies within the
    Euclidean radius.
    """

    dims: Dim3
    lesions: tuple
    background_intensity: float = 50.0
    lesion_intensity: float = 150.0
    intensity_noise_sd: float = 0.0
    seed: int = 0

    def __post_init__(self):
        lesions = tuple(_lesion(i, entry) for i, entry in enumerate(self.lesions))
        object.__setattr__(self, "lesions", lesions)
        for name in ("background_intensity", "lesion_intensity"):
            check_number(name, getattr(self, name), gt=-math.inf, lt=math.inf)
        check_number("intensity_noise_sd", self.intensity_noise_sd, ge=0, lt=math.inf)
        check_number("seed", self.seed, integral=True, ge=0, lt=SEED_SPAN)
        if not self.lesion_intensity > self.background_intensity:
            raise ConfigError(
                "lesion_intensity must exceed background_intensity "
                f"({self.lesion_intensity} <= {self.background_intensity})"
            )
        bounds = self.dims.as_tuple()
        for i, (center, radius) in enumerate(self.lesions):
            if len(center) != 3:
                raise ConfigError(f"lesions[{i}]: lesion center must have 3 coordinates, "
                                  f"got {center}")
            for c in center:
                check_number("lesion center coordinate", c, gt=-math.inf, lt=math.inf)
            check_number("lesion radius", radius, ge=0, lt=math.inf)
            for c, naxis in zip(center, bounds):
                if c - radius < 0 or c + radius > naxis - 1:
                    raise ConfigError(
                        f"lesion at {center} with radius {radius} leaves the grid "
                        f"{bounds}"
                    )


@dataclass(frozen=True)
class RaterSpec:
    """One simulated expert.

    Votes are drawn independently per voxel with the configured
    sensitivity/specificity. When ``boundary_softening`` is set, errors are
    instead confined to the one-voxel boundary shell of the truth, where
    each voxel flips with that probability; voxels away from the boundary
    copy the truth exactly.
    """

    rater_id: str
    sens: float
    spec: float
    seed: int = 0
    boundary_softening: float | None = None

    def __post_init__(self):
        rater = f"rater {self.rater_id!r}"
        check_number(f"{rater}: sens", self.sens, gt=0.5, lt=1)
        check_number(f"{rater}: spec", self.spec, gt=0.5, lt=1)
        check_number(f"{rater}: seed", self.seed, integral=True, ge=0, lt=SEED_SPAN)
        if self.boundary_softening is not None:
            check_number(f"{rater}: boundary_softening", self.boundary_softening, ge=0, lt=1)


def generate_phantom(spec: PhantomSpec) -> tuple[VolumeGrid, VolumeGrid]:
    """Voxelize the lesion spheres and synthesize the intensity volume."""
    nx, ny, nz = spec.dims.as_tuple()
    zz, yy, xx = np.ogrid[:nz, :ny, :nx]
    truth3 = np.zeros((nz, ny, nx), dtype=bool)
    for (cx, cy, cz), radius in spec.lesions:
        d2 = (xx - cx) ** 2 + (yy - cy) ** 2 + (zz - cz) ** 2
        truth3 |= d2 <= radius**2

    intensity = np.where(truth3, spec.lesion_intensity, spec.background_intensity)
    noise = _stream(spec.seed, _NOISE_STREAM).normal(
        0.0, spec.intensity_noise_sd, size=spec.dims.n
    )
    flair = intensity.reshape(-1) + noise
    truth = VolumeGrid(spec.dims, truth3.astype(np.float64).reshape(-1), GridKind.BINARY)
    return truth, VolumeGrid(spec.dims, flair, GridKind.INTENSITY)


def _boundary_shell(truth3: np.ndarray) -> np.ndarray:
    """One-voxel shell on both sides of the truth boundary (26-adjacency):
    the voxels whose 3x3x3 box holds both truth and non-truth, outside the
    grid counting as non-truth."""
    box, padded = np.ones((3, 3, 3), dtype=bool), np.pad(truth3, 1)
    return (_dilation_step(padded, box) & _dilation_step(~padded, box))[1:-1, 1:-1, 1:-1]


def simulate_raters(truth: VolumeGrid, raters: list[RaterSpec]) -> ExpertStack:
    """Draw one binary annotation per rater from the truth."""
    check_grid("truth", truth, GridKind.BINARY)
    truth_flat = truth.data > 0.5
    shell = None
    experts = []
    for i, rater in enumerate(raters):
        u = _stream(rater.seed, i).random(truth.n)
        if rater.boundary_softening is None:
            votes = np.where(truth_flat, u < rater.sens, u < 1.0 - rater.spec)
        else:
            if shell is None:
                shell = _boundary_shell(truth.as_3d() > 0.5).reshape(-1)
            flip = shell & (u < rater.boundary_softening)
            votes = truth_flat ^ flip
        experts.append(VolumeGrid(truth.dims, votes, GridKind.BINARY))
    return ExpertStack(tuple(experts), tuple(r.rater_id for r in raters))


def soften_votes(stack: ExpertStack, blur: float) -> ExpertStack:
    """Soft stack with each hard vote shrunk toward the opposite label:
    a vote y becomes (1 - blur) * y + blur * (1 - y)."""
    check_number("blur", blur, ge=0, lt=0.5)
    check_grid("stack", stack, GridKind.BINARY)
    soft = tuple(
        VolumeGrid(
            g.dims,
            (1.0 - blur) * g.data + blur * (1.0 - g.data),
            GridKind.SOFT,
        )
        for g in stack.experts
    )
    return ExpertStack(soft, stack.expert_ids)


def load_simulation_config(path) -> tuple[PhantomSpec, list[RaterSpec]]:
    """Parse the JSON simulation config (schema documented in the README).

    Raises ConfigError naming the offending key on any schema violation.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # also the int-digit limit, beside bad UTF-8 and JSON
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_simulation_config(doc)


def parse_simulation_config(doc: dict) -> tuple[PhantomSpec, list[RaterSpec]]:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")

    def need(key, kind, where=doc, ctx="config"):
        if key not in where:
            raise ConfigError(f"{ctx}: missing required key {key!r}")
        value = where[key]
        if kind in (int, float):
            check_number(f"{ctx}: key {key!r}", value, integral=kind is int)
            return kind(value)
        if not isinstance(value, kind):
            raise ConfigError(f"{ctx}: key {key!r} must be a {kind.__name__}")
        return value

    dims_raw = need("dims", list)
    if len(dims_raw) != 3 or not all(
        isinstance(d, int) and not isinstance(d, bool) and d > 0 for d in dims_raw
    ):
        raise ConfigError("config: key 'dims' must be 3 positive integers")
    try:
        dims = Dim3(*dims_raw)
    except ShapeError as exc:
        raise ConfigError(f"config: key 'dims': {exc}") from exc
    lesions_raw = need("lesions", list)
    lesions = []
    for i, lesion in enumerate(lesions_raw):
        ctx = f"lesions[{i}]"
        if not isinstance(lesion, dict):
            raise ConfigError(f"{ctx}: must be an object")
        lesions.append((need("center", list, lesion, ctx), need("radius", float, lesion, ctx)))

    phantom = PhantomSpec(
        dims=dims,
        lesions=tuple(lesions),
        background_intensity=need("background_intensity", float),
        lesion_intensity=need("lesion_intensity", float),
        intensity_noise_sd=need("intensity_noise_sd", float),
        seed=need("seed", int),
    )

    raters_raw = need("raters", list)
    if not raters_raw:
        raise ConfigError("config: key 'raters' must list at least one rater")
    raters = []
    for i, entry in enumerate(raters_raw):
        ctx = f"raters[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{ctx}: must be an object")
        softening = entry.get("boundary_softening")
        if softening is not None:
            softening = need("boundary_softening", float, entry, ctx)
        raters.append(RaterSpec(
            rater_id=need("id", str, entry, ctx),
            sens=need("sens", float, entry, ctx),
            spec=need("spec", float, entry, ctx),
            seed=need("seed", int, entry, ctx) if "seed" in entry else phantom.seed,
            boundary_softening=softening,
        ))
    ids = [r.rater_id for r in raters]
    if len(set(ids)) != len(ids):
        raise ConfigError("config: rater 'id' values must be distinct")
    _refuse_over(phantom.dims.n * (44 + 8 * len(raters)), SIMULATE_BYTE_LIMIT,
                 "estimated bytes to simulate (voxels x (44 + 8 x raters))",
                 "shrink 'dims' or simulate fewer raters")
    return phantom, raters
