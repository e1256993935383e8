"""Soft-mask protocol: component labeling, dilation geometry, threshold
gating, and the protocol invariants."""

import time
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

from fuselab import (
    Dim3,
    GridKind,
    SoftMaskConfig,
    VolumeGrid,
    build_soft_mask,
    build_soft_stack,
    connected_components,
)
from fuselab import softmask
from fuselab.errors import ConfigError, DimensionMismatchError
from helpers import stack_from_rows
from oracles import soft_mask_brute


def cube_fixture(edge=3, grid_edge=9, flair_value=100.0):
    """Centered binary cube plus a uniform intensity volume."""
    shape = (grid_edge,) * 3
    mask = np.zeros(shape)
    lo = (grid_edge - edge) // 2
    mask[lo : lo + edge, lo : lo + edge, lo : lo + edge] = 1.0
    binary = VolumeGrid.from_3d(mask, GridKind.BINARY)
    flair = VolumeGrid.from_3d(np.full(shape, flair_value), GridKind.INTENSITY)
    return binary, flair


def grow(binary, footprint, iters):
    """``iters`` unit dilations of a binary grid by ``footprint``, through the
    protocol's own step, clipped at the grid bounds."""
    region = binary.as_3d() > 0.5
    for _ in range(iters):
        region = softmask._dilation_step(region, footprint)
    return VolumeGrid(binary.dims, region.reshape(-1), GridKind.BINARY)


class TestFootprint:
    def test_connectivity_sizes(self):
        assert softmask._footprint(6).sum() == 7
        assert softmask._footprint(18).sum() == 19
        assert softmask._footprint(26).sum() == 27

    @pytest.mark.parametrize("connectivity", [6, 18, 26])
    def test_equals_ndimage_structure(self, connectivity):
        rank = softmask.CONNECTIVITY_RANK[connectivity]
        footprint = softmask._footprint(connectivity)
        assert footprint.dtype == bool
        np.testing.assert_array_equal(footprint, ndimage.generate_binary_structure(3, rank))

    def test_bad_connectivity(self):
        with pytest.raises(ConfigError):
            softmask._footprint(10)


class TestConnectedComponents:
    def test_two_isolated_voxels(self):
        mask = np.zeros((6, 6, 6))
        mask[0, 0, 0] = 1.0
        mask[5, 5, 5] = 1.0
        _, comps = connected_components(VolumeGrid.from_3d(mask, GridKind.BINARY))
        assert len(comps) == 2
        assert sorted(c.size for c in comps) == [1, 1]

    def test_solid_cube(self):
        binary, _ = cube_fixture()
        labels, comps = connected_components(binary)
        assert len(comps) == 1
        assert comps[0].size == 27
        assert set(np.unique(labels)) == {0, 1}

    def test_diagonal_pair_depends_on_connectivity(self):
        mask = np.zeros((4, 4, 4))
        mask[1, 1, 1] = 1.0
        mask[2, 2, 2] = 1.0
        g = VolumeGrid.from_3d(mask, GridKind.BINARY)
        assert len(connected_components(g, 26)[1]) == 1
        assert len(connected_components(g, 6)[1]) == 2

    def test_one_pass_matches_per_component_formula(self):
        rng = np.random.default_rng(17)
        g = VolumeGrid.from_3d(rng.random((12, 13, 14)) < 0.08, GridKind.BINARY)
        labels, comps = connected_components(g, 6)
        assert len(comps) > 50
        assert len(comps) == labels.max()
        for cid, comp in enumerate(comps, start=1):
            want = np.flatnonzero(labels == cid)
            assert comp.dtype == want.dtype
            np.testing.assert_array_equal(comp, want)


class TestDilationStep:
    def test_single_voxel_cross(self):
        mask = np.zeros((5, 5, 5))
        mask[2, 2, 2] = 1.0
        g = VolumeGrid.from_3d(mask, GridKind.BINARY)
        out = grow(g, softmask._footprint(6), 1)
        assert int(out.data.sum()) == 7

    def test_cube_full_dilation(self):
        binary, _ = cube_fixture()
        out = grow(binary, softmask._footprint(26), 1)
        assert int(out.data.sum()) == 125

    def test_output_superset_and_clipping(self):
        mask = np.zeros((3, 3, 3))
        mask[0, 0, 0] = 1.0
        g = VolumeGrid.from_3d(mask, GridKind.BINARY)
        out = grow(g, softmask._footprint(26), 1)
        assert out.data[0] == 1.0
        assert int(out.data.sum()) == 8


class TestBuildSoftMask:
    def test_cube_protocol_walkthrough(self):
        binary, flair = cube_fixture()
        out = build_soft_mask(binary, flair)
        values, counts = np.unique(out.data, return_counts=True)
        by_value = dict(zip(values, counts))
        assert by_value[1.0] == 27
        assert by_value[0.3] == 98
        assert by_value[0.0] == 9**3 - 125
        assert out.kind is GridKind.SOFT

    def test_flair_dip_excludes_exactly_those_ring_voxels(self):
        binary, flair = cube_fixture()
        ring = (grow(binary, softmask._footprint(26), 1).data > 0.5) & (binary.data < 0.5)
        ring_idx = np.flatnonzero(ring)[:10]
        dipped = flair.data.copy()
        dipped[ring_idx] = 1.0
        flair2 = VolumeGrid(flair.dims, dipped, GridKind.INTENSITY)
        out = build_soft_mask(binary, flair2)
        assert np.all(out.data[ring_idx] == 0.0)
        kept = np.setdiff1d(np.flatnonzero(ring), ring_idx)
        assert np.all(out.data[kept] == 0.3)

    def test_conservative_ones(self):
        binary, flair = cube_fixture()
        out = build_soft_mask(binary, flair)
        np.testing.assert_array_equal(out.data == 1.0, binary.data == 1.0)

    def test_support_bounded_by_dilation(self):
        binary, flair = cube_fixture()
        cfg = SoftMaskConfig()
        out = build_soft_mask(binary, flair, cfg)
        grown = grow(binary, softmask._footprint(cfg.connectivity), cfg.max_dilation_iters)
        assert np.all(grown.data[out.data > 0.0] == 1.0)

    def test_gamma_voxels_pass_threshold(self):
        rng = np.random.default_rng(0)
        binary, _ = cube_fixture()
        noisy = VolumeGrid(
            binary.dims, rng.normal(100.0, 30.0, binary.n), GridKind.INTENSITY
        )
        cfg = SoftMaskConfig(threshold_mode="percentile", threshold_value=40.0)
        out = build_soft_mask(binary, noisy, cfg)
        comp_values = np.sort(noisy.data[binary.data == 1.0])
        rank = max(1, int(np.ceil(0.40 * comp_values.size)))
        threshold = comp_values[rank - 1]
        assert np.all(noisy.data[out.data == cfg.gamma] >= threshold)

    def test_gamma_monotonicity(self):
        binary, flair = cube_fixture()
        lo = build_soft_mask(binary, flair, SoftMaskConfig(gamma=0.2))
        hi = build_soft_mask(binary, flair, SoftMaskConfig(gamma=0.6))
        differ = lo.data != hi.data
        ring = (lo.data > 0.0) & (lo.data < 1.0)
        assert np.all(differ == ring)
        assert np.all(lo.data[differ] < hi.data[differ])

    def test_ratio_one_returns_input_support(self):
        binary, flair = cube_fixture()
        out = build_soft_mask(binary, flair, SoftMaskConfig(target_volume_ratio=1.0))
        np.testing.assert_array_equal(out.data, binary.data)

    def test_empty_mask(self):
        shape = (5, 5, 5)
        binary = VolumeGrid.from_3d(np.zeros(shape), GridKind.BINARY)
        flair = VolumeGrid.from_3d(np.full(shape, 7.0), GridKind.INTENSITY)
        out = build_soft_mask(binary, flair)
        assert np.all(out.data == 0.0)

    def test_fixed_threshold_mode(self):
        binary, flair = cube_fixture(flair_value=100.0)
        out_low = build_soft_mask(
            binary, flair, SoftMaskConfig(threshold_mode="fixed", threshold_value=50.0)
        )
        out_high = build_soft_mask(
            binary, flair, SoftMaskConfig(threshold_mode="fixed", threshold_value=150.0)
        )
        assert int(np.sum(out_low.data == 0.3)) == 98
        assert int(np.sum(out_high.data == 0.3)) == 0

    def test_two_components_with_own_thresholds(self):
        shape = (9, 9, 21)
        mask = np.zeros(shape)
        mask[3:6, 3:6, 3:6] = 1.0    # bright lesion
        mask[3:6, 3:6, 14:17] = 1.0  # dim lesion
        flair = np.full(shape, 10.0)
        flair[:, :, :11] = 100.0
        binary = VolumeGrid.from_3d(mask, GridKind.BINARY)
        intensity = VolumeGrid.from_3d(flair, GridKind.INTENSITY)
        out = build_soft_mask(binary, intensity).as_3d()
        # each component's ring clears its own per-component threshold
        assert np.all(out[2:7, 2:7, 2:7][mask[2:7, 2:7, 2:7] == 0.0] == 0.3)
        assert np.all(out[2:7, 2:7, 13:18][mask[2:7, 2:7, 13:18] == 0.0] == 0.3)

    def test_dilation_stops_once_the_region_stops_growing(self, monkeypatch):
        """An unreachable ratio stops growing each component once a step
        adds no voxel (within nx + ny + nz steps on this grid), not at a
        huge cap; the mask is the one a cap of nx + ny + nz gives."""
        shape = (5, 6, 8)
        mask = np.zeros(shape)
        mask[1, 1, 1] = mask[3, 4, 6] = 1.0
        binary = VolumeGrid.from_3d(mask, GridKind.BINARY)
        flair = VolumeGrid.from_3d(np.linspace(0.0, 1.0, mask.size).reshape(shape),
                                   GridKind.INTENSITY)
        cfg = dict(target_volume_ratio=1e9, connectivity=6, threshold_mode="fixed",
                   threshold_value=0.5)
        want = build_soft_mask(binary, flair, SoftMaskConfig(max_dilation_iters=sum(shape), **cfg))
        dilation = softmask._dilation_step
        bound = 2 * (sum(shape) + 1)  # two components
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            assert len(calls) <= bound, "dilation went on after the region stopped growing"
            return dilation(*args, **kwargs)

        monkeypatch.setattr(softmask, "_dilation_step", counted)
        got = build_soft_mask(binary, flair, SoftMaskConfig(max_dilation_iters=10**6, **cfg))
        np.testing.assert_array_equal(got.data, want.data)
        assert 0 < len(calls) <= bound

    def test_each_step_dilates_inside_the_grown_box(self, monkeypatch):
        """Step s of a component dilates into an array no larger than the
        component's box plus s voxels per axis side, clipped at the grid."""
        shape = (12, 14, 16)
        mask = np.zeros(shape, dtype=bool)
        mask[0, 0, 0] = True                # a corner: clipped on three sides
        mask[5:7, 6:9, 7] = True            # interior
        mask[11, 13, 9:16] = True           # an edge run reaching the x face
        binary = VolumeGrid.from_3d(mask, GridKind.BINARY)
        flair = VolumeGrid.from_3d(np.arange(mask.size, dtype=float).reshape(shape),
                                   GridKind.INTENSITY)
        steps = 3
        cfg = SoftMaskConfig(target_volume_ratio=1e9, max_dilation_iters=steps)
        boxes = ndimage.find_objects(ndimage.label(mask, structure=np.ones((3, 3, 3)))[0])
        want = soft_mask_brute(mask, flair.as_3d(), ratio=1e9, max_iters=steps)
        dilation = softmask._dilation_step
        shapes = []

        def recorded(*args, **kwargs):
            grown = dilation(*args, **kwargs)
            shapes.append(grown.shape)
            return grown

        monkeypatch.setattr(softmask, "_dilation_step", recorded)
        got = build_soft_mask(binary, flair, cfg)
        assert got.data.tobytes() == want.reshape(-1).tobytes()
        assert len(shapes) == len(boxes) * steps
        for i, region in enumerate(shapes):
            box, s = boxes[i // steps], i % steps + 1
            bound = tuple(min(sl.stop + s, n) - max(sl.start - s, 0)
                          for sl, n in zip(box, shape))
            assert all(r <= b for r, b in zip(region, bound)), (i, region, bound)

    def test_invalid_config_refused_on_its_own(self):
        binary, flair = cube_fixture()
        with pytest.raises(ConfigError):
            build_soft_mask(binary, flair, SoftMaskConfig(gamma=0.0))

    def test_dims_mismatch(self):
        binary, _ = cube_fixture()
        flair = VolumeGrid.from_3d(np.zeros((5, 5, 5)), GridKind.INTENSITY)
        with pytest.raises(DimensionMismatchError):
            build_soft_mask(binary, flair)

    def test_config_validation(self):
        for bad in (
            {"gamma": 0.0},
            {"gamma": 1.0},
            {"target_volume_ratio": 0.9},
            {"threshold_mode": "median"},
            {"connectivity": 4},
            {"max_dilation_iters": 0},
        ):
            with pytest.raises(ConfigError):
                SoftMaskConfig(**bad)

    @pytest.mark.parametrize("field, value", [
        ("max_dilation_iters", 2.5), ("max_dilation_iters", True), ("max_dilation_iters", "3"),
        ("connectivity", 26.0), ("connectivity", True), ("connectivity", "26"),
    ])
    def test_integer_fields_refuse_other_types(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            SoftMaskConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("gamma", "0.3"), ("gamma", None), ("target_volume_ratio", "1.2"),
        ("threshold_value", "10"), ("threshold_value", [10.0]),
    ])
    def test_number_fields_refuse_other_types(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be a number"):
            SoftMaskConfig(**{field: value})

    def test_numeric_fields_take_numpy_scalars(self):
        binary, flair = cube_fixture()
        want = build_soft_mask(binary, flair, SoftMaskConfig(connectivity=6,
                                                             max_dilation_iters=2))
        cfg = SoftMaskConfig(gamma=np.float64(0.3), connectivity=np.int64(6),
                             max_dilation_iters=np.uint8(2), threshold_value=np.float64(10))
        assert build_soft_mask(binary, flair, cfg) == want


@st.composite
def protocol_inputs(draw):
    """A sparse random mask (optionally with one component touching all six
    grid faces) and an intensity volume with ties."""
    shape = tuple(draw(st.integers(1, 8)) for _ in range(3))
    mask = draw(hnp.arrays(np.bool_, shape, elements=st.just(True), fill=st.just(False)))
    if draw(st.booleans()):
        mask[:, 0, 0] = mask[0, :, 0] = mask[0, 0, :] = True
    flair = draw(hnp.arrays(np.float64, shape, elements=st.integers(0, 9).map(float)))
    return mask, flair


class TestAgainstBruteForce:
    """Byte-identical to growing every component over the whole grid."""

    @pytest.mark.parametrize("connectivity", [6, 18, 26])
    @pytest.mark.parametrize("growth", ["reachable", "small cap", "huge cap"])
    @settings(max_examples=25, deadline=None)
    @given(case=protocol_inputs(), mode=st.sampled_from(["percentile", "fixed"]),
           value=st.integers(0, 100).map(float), ratio=st.floats(1.0, 4.0),
           cap=st.integers(1, 3), gamma=st.floats(0.05, 0.95))
    def test_matches_whole_grid_protocol(self, connectivity, growth, case, mode, value,
                                         ratio, cap, gamma):
        if growth != "reachable":
            ratio = 1e9
        if growth == "huge cap":
            cap = 10**6
        if mode == "fixed":
            value /= 10.0  # the intensity levels are 0-9
        mask, flair = case
        cfg = SoftMaskConfig(gamma=gamma, target_volume_ratio=ratio, threshold_mode=mode,
                             threshold_value=value, connectivity=connectivity,
                             max_dilation_iters=cap)
        got = build_soft_mask(VolumeGrid.from_3d(mask, GridKind.BINARY),
                              VolumeGrid.from_3d(flair, GridKind.INTENSITY), cfg)
        want = soft_mask_brute(mask, flair, gamma, ratio, mode, value, connectivity, cap)
        assert got.data.tobytes() == want.reshape(-1).tobytes()


@st.composite
def masks(draw):
    """An empty, full or random mask of any density; any axis may be one
    voxel long."""
    shape = tuple(draw(st.integers(1, 7)) for _ in range(3))
    density = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(shape) < density


# The 13 offset pairs {o, -o} of the 3x3x3 box, origin excluded, faces first.
_PAIRS = sorted({min(o, tuple(-c for c in o)) for o in product((-1, 0, 1), repeat=3)} - {(0, 0, 0)},
                key=lambda o: sum(map(abs, o)))


def serpentine(n):
    """One 6-connected path through an n^3 grid (n a multiple of 4): full rows
    in the even planes, joined at alternating row ends, and the planes joined
    through the odd ones at alternating corners."""
    path = np.zeros((n, n, n), dtype=bool)
    path[::2, ::2, :] = True
    path[::2, 1::4, -1] = path[::2, 3::4, 0] = True
    path[1::4, -2, 0] = path[3::4, 0, 0] = True
    return path


class TestAgainstNdimage:
    """The numpy labeling, boxes and dilation equal SciPy's."""

    @settings(max_examples=150, deadline=None)
    @given(mask=masks(), connectivity=st.sampled_from([6, 18, 26]))
    def test_labels_equal_ndimage(self, mask, connectivity):
        want, count = ndimage.label(mask, softmask._footprint(connectivity))
        labels, comps = connected_components(VolumeGrid.from_3d(mask, GridKind.BINARY),
                                             connectivity)
        assert labels.dtype == want.dtype
        np.testing.assert_array_equal(labels, want.reshape(-1))
        assert len(comps) == count
        assert softmask._boxes(want, count) == ndimage.find_objects(want)

    @pytest.mark.parametrize("iters", [0, 1, 2, 3])
    @settings(max_examples=60, deadline=None)
    @given(mask=masks(), pairs=st.sets(st.sampled_from(_PAIRS[3:])) | st.just(set(_PAIRS)))
    def test_dilate_equals_ndimage(self, mask, pairs, iters):
        offsets = {(0, 0, 0)} | {s for o in {*_PAIRS[:3], *pairs} for s in (o, tuple(-c for c in o))}
        footprint = np.zeros((3, 3, 3), dtype=bool)
        for dx, dy, dz in offsets:
            footprint[dz + 1, dy + 1, dx + 1] = True
        got = grow(VolumeGrid.from_3d(mask, GridKind.BINARY), footprint, iters)
        # ndimage reads iterations=0 as "until nothing changes".
        want = ndimage.binary_dilation(mask, footprint, iterations=iters) if iters else mask
        np.testing.assert_array_equal(got.as_3d() > 0.5, want)

    @pytest.mark.parametrize("connectivity", [6, 26])
    @pytest.mark.parametrize("mask", [np.ones((64,) * 3, dtype=bool), serpentine(64)],
                             ids=["full", "serpentine"])
    def test_64_cubed_labels_in_a_second_and_64_bytes_per_voxel(self, mask, connectivity):
        """One component either way: a flood of pairs, or one long path."""
        grid = VolumeGrid.from_3d(mask, GridKind.BINARY)
        start = time.perf_counter()
        labels, comps = connected_components(grid, connectivity)
        assert time.perf_counter() - start < 1.0
        assert len(comps) == 1 and ndimage.label(mask)[1] == 1
        np.testing.assert_array_equal(labels, mask.reshape(-1))
        tracemalloc.start()
        try:
            connected_components(grid, connectivity)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * mask.size


class TestBuildSoftStack:
    def test_config_and_footprint_built_once_per_stack(self, monkeypatch):
        rng = np.random.default_rng(3)
        stack = stack_from_rows((rng.random((4, 216)) < 0.1).astype(float),
                                GridKind.BINARY, dims=Dim3(6, 6, 6))
        flair = VolumeGrid.from_3d(np.full((6, 6, 6), 5.0), GridKind.INTENSITY)
        calls = []
        post_init = SoftMaskConfig.__post_init__

        def counted(original, name):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(SoftMaskConfig, "__post_init__",
                            counted(post_init, "__post_init__"))
        monkeypatch.setattr(softmask, "_footprint", counted(softmask._footprint, "_footprint"))
        soft = build_soft_stack(stack, flair)
        assert sorted(calls) == ["__post_init__", "_footprint"]
        for g, s in zip(stack.experts, soft.experts):
            assert s == build_soft_mask(g, flair)

    def test_empty_masks_stay_empty(self):
        shape = (4, 4, 4)
        stack = stack_from_rows(
            np.zeros((3, 64)), GridKind.BINARY, dims=Dim3(*shape)
        )
        flair = VolumeGrid.from_3d(np.full(shape, 5.0), GridKind.INTENSITY)
        soft = build_soft_stack(stack, flair)
        assert all(np.all(g.data == 0.0) for g in soft.experts)
        assert soft.expert_ids == stack.expert_ids

    def test_singleton_matches_single_mask(self):
        binary, flair = cube_fixture()
        from fuselab import ExpertStack

        stack = ExpertStack((binary,), ("only",))
        soft = build_soft_stack(stack, flair)
        assert soft.experts[0] == build_soft_mask(binary, flair)

    def test_values_confined_to_protocol_levels(self):
        rng = np.random.default_rng(5)
        shape = (10, 10, 10)
        rows = (rng.random((7, 1000)) < 0.1).astype(float)
        stack = stack_from_rows(rows, GridKind.BINARY, dims=Dim3(*shape))
        flair = VolumeGrid.from_3d(
            rng.normal(50.0, 5.0, shape), GridKind.INTENSITY
        )
        cfg = SoftMaskConfig(gamma=0.4)
        soft = build_soft_stack(stack, flair, cfg)
        for g in soft.experts:
            assert set(np.unique(g.data)).issubset({0.0, 0.4, 1.0})
