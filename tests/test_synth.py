"""Phantom generation and rater simulation: determinism, geometry, and
agreement between configured and empirical reliabilities."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fuselab import (
    Dim3,
    GridKind,
    PhantomSpec,
    RaterSpec,
    generate_phantom,
    simulate_raters,
    soften_votes,
)
from fuselab.errors import CapacityError, ConfigError
from fuselab.synth import SIMULATE_BYTE_LIMIT, _boundary_shell, parse_simulation_config
from helpers import stack_from_rows
from oracles import sphere_count_brute


def spec_with(**kwargs):
    base = dict(
        dims=Dim3(16, 16, 16),
        lesions=(((8, 8, 8), 3.0),),
        background_intensity=40.0,
        lesion_intensity=120.0,
        intensity_noise_sd=0.0,
        seed=5,
    )
    base.update(kwargs)
    return PhantomSpec(**base)


class TestGeneratePhantom:
    def test_no_lesions(self):
        truth, flair = generate_phantom(spec_with(lesions=()))
        assert np.all(truth.data == 0.0)
        assert np.all(flair.data == 40.0)

    def test_radius_zero_is_single_voxel(self):
        truth, _ = generate_phantom(spec_with(lesions=(((8, 8, 8), 0.0),)))
        assert int(truth.data.sum()) == 1

    def test_radius_three_sphere_count(self):
        truth, _ = generate_phantom(spec_with())
        brute = sphere_count_brute((16, 16, 16), (8, 8, 8), 3.0)
        assert brute == 123
        assert int(truth.data.sum()) == brute

    def test_deterministic_per_seed(self):
        a = generate_phantom(spec_with(intensity_noise_sd=3.0))
        b = generate_phantom(spec_with(intensity_noise_sd=3.0))
        assert a[0] == b[0]
        assert a[1] == b[1]
        c = generate_phantom(spec_with(intensity_noise_sd=3.0, seed=6))
        assert c[1] != b[1]

    def test_lesions_brighter_than_background(self):
        truth, flair = generate_phantom(spec_with(intensity_noise_sd=15.0))
        fg = flair.data[truth.data == 1.0].mean()
        bg = flair.data[truth.data == 0.0].mean()
        assert fg > bg

    def test_out_of_bounds_lesion(self):
        with pytest.raises(ConfigError):
            generate_phantom(spec_with(lesions=(((2, 8, 8), 3.0),)))

    def test_intensity_ordering_enforced(self):
        with pytest.raises(ConfigError):
            generate_phantom(spec_with(lesion_intensity=30.0))

    def test_lesion_center_needs_three_coordinates(self):
        message = r"^lesions\[0\]: lesion center must have 3 coordinates, got \(8, 8\)$"
        with pytest.raises(ConfigError, match=message):
            spec_with(lesions=(((8, 8), 3.0), ((8, 8, 8), 3.0)))


class TestSimulateRaters:
    def test_near_perfect_rater_tracks_truth(self):
        spec = spec_with(dims=Dim3(32, 32, 32), lesions=(((16, 16, 16), 8.0),))
        truth, _ = generate_phantom(spec)
        stack = simulate_raters(
            truth, [RaterSpec("r0", 0.999999, 0.999999, seed=21)]
        )
        hamming = int(np.sum(stack.experts[0].data != truth.data))
        assert hamming <= 5

    def test_empirical_rates_match_configuration(self):
        # half lesion, half background, one million voxels
        dims = Dim3(100, 100, 100)
        truth_values = np.zeros(dims.n)
        truth_values[: dims.n // 2] = 1.0
        from fuselab import VolumeGrid

        truth = VolumeGrid(dims, truth_values, GridKind.BINARY)
        stack = simulate_raters(truth, [RaterSpec("r0", 0.83, 0.91, seed=3)])
        votes = stack.experts[0].data
        emp_sens = votes[truth_values == 1.0].mean()
        emp_spec = 1.0 - votes[truth_values == 0.0].mean()
        assert abs(emp_sens - 0.83) < 0.01
        assert abs(emp_spec - 0.91) < 0.01

    def test_same_seed_reproduces_stack(self):
        truth, _ = generate_phantom(spec_with())
        raters = [RaterSpec("a", 0.9, 0.9, seed=7), RaterSpec("b", 0.8, 0.95, seed=8)]
        s1 = simulate_raters(truth, raters)
        s2 = simulate_raters(truth, raters)
        assert all(g1 == g2 for g1, g2 in zip(s1.experts, s2.experts))

    def test_boundary_mode_confines_flips(self):
        from scipy import ndimage

        truth, _ = generate_phantom(spec_with())
        stack = simulate_raters(
            truth, [RaterSpec("r0", 0.9, 0.9, seed=9, boundary_softening=0.5)]
        )
        votes = stack.experts[0].as_3d()
        truth3 = truth.as_3d() > 0.5
        structure = np.ones((3, 3, 3), dtype=bool)
        shell = ndimage.binary_dilation(truth3, structure) & ~ndimage.binary_erosion(
            truth3, structure
        )
        flipped = votes != truth3.astype(float)
        assert flipped.any()
        assert np.all(shell[flipped])

    @settings(max_examples=200, deadline=None)
    @given(shape=st.tuples(*[st.integers(1, 8)] * 3), density=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    @example(shape=(1, 1, 1), density=1.0, seed=0)
    @example(shape=(8, 1, 8), density=0.0, seed=0)
    @example(shape=(8, 8, 8), density=1.0, seed=0)
    def test_boundary_shell_matches_scipy(self, shape, density, seed):
        """The numpy box shell equals SciPy's 26-adjacency dilation less its
        erosion, whose border is False: on single-voxel axes, empty and full
        volumes, and truth that touches the grid edge."""
        from scipy import ndimage

        truth3 = np.random.default_rng(seed).random(shape) < density
        structure = np.ones((3, 3, 3), dtype=bool)
        want = ndimage.binary_dilation(truth3, structure) & ~ndimage.binary_erosion(
            truth3, structure
        )
        got = _boundary_shell(truth3)
        assert got.dtype == bool and got.shape == shape
        np.testing.assert_array_equal(got, want)

    def test_rater_spec_validation(self):
        for bad in (
            {"sens": 0.5, "spec": 0.9},
            {"sens": 0.9, "spec": 1.0},
            {"sens": 0.9, "spec": 0.9, "boundary_softening": 1.0},
        ):
            with pytest.raises(ConfigError):
                RaterSpec("x", **bad)


class TestSoftenVotes:
    def test_zero_blur_keeps_hard_values(self):
        stack = stack_from_rows([[1.0, 0.0, 1.0]])
        soft = soften_votes(stack, 0.0)
        assert soft.kind is GridKind.SOFT
        np.testing.assert_array_equal(soft.experts[0].data, [1.0, 0.0, 1.0])

    def test_blur_formula(self):
        stack = stack_from_rows([[1.0, 0.0]])
        soft = soften_votes(stack, 0.2)
        np.testing.assert_allclose(soft.experts[0].data, [0.8, 0.2])

    def test_blur_range(self):
        stack = stack_from_rows([[1.0]])
        for bad in (-0.1, 0.5, 0.9):
            with pytest.raises(ConfigError):
                soften_votes(stack, bad)


class TestConfigParsing:
    def _doc(self):
        return {
            "dims": [8, 8, 8],
            "lesions": [{"center": [4, 4, 4], "radius": 2}],
            "background_intensity": 40.0,
            "lesion_intensity": 100.0,
            "intensity_noise_sd": 1.0,
            "seed": 3,
            "raters": [{"id": "e1", "sens": 0.9, "spec": 0.9, "seed": 4}],
        }

    def test_valid_config(self):
        phantom, raters = parse_simulation_config(self._doc())
        assert phantom.dims == Dim3(8, 8, 8)
        assert raters[0].rater_id == "e1"

    @pytest.mark.parametrize("key", ["dims", "lesions", "seed", "raters"])
    def test_missing_key_is_named(self, key):
        doc = self._doc()
        del doc[key]
        with pytest.raises(ConfigError) as err:
            parse_simulation_config(doc)
        assert key in str(err.value)

    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda d: [d], "config root must be a JSON object", id="root-list"),
        pytest.param(lambda d: {**d, "lesions": [5]}, r"lesions\[0\]: must be an object",
                     id="lesion-not-object"),
        pytest.param(lambda d: {**d, "raters": ["e1"]}, r"raters\[0\]: must be an object",
                     id="rater-not-object"),
        pytest.param(lambda d: {**d, "raters": []}, "'raters' must list at least one rater",
                     id="no-raters"),
        pytest.param(lambda d: {**d, "dims": [8, 8]}, "'dims' must be 3 positive integers",
                     id="dims-two"),
        pytest.param(lambda d: {**d, "dims": [8, 0, 8]}, "'dims' must be 3 positive integers",
                     id="dims-zero"),
        pytest.param(lambda d: {**d, "dims": [8, 8.5, 8]}, "'dims' must be 3 positive integers",
                     id="dims-fraction"),
        pytest.param(lambda d: {**d, "dims": [8, True, 8]},
                     "'dims' must be 3 positive integers", id="dims-bool"),
        pytest.param(lambda d: {**d, "raters": [{**d["raters"][0], "id": 7}]},
                     r"raters\[0\]: key 'id' must be a str", id="id-not-string"),
        pytest.param(lambda d: {**d, "raters": [{**d["raters"][0], "boundary_softening": "x"}]},
                     r"raters\[0\]: key 'boundary_softening' must be a number",
                     id="softening-not-number"),
    ])
    def test_schema_violation_is_named(self, edit, message):
        with pytest.raises(ConfigError, match=message):
            parse_simulation_config(edit(self._doc()))

    def test_boundary_softening_is_read(self):
        doc = self._doc()
        doc["raters"][0]["boundary_softening"] = 0.25
        _, raters = parse_simulation_config(doc)
        assert raters[0].boundary_softening == 0.25
        doc["raters"][0]["boundary_softening"] = None
        assert parse_simulation_config(doc)[1][0].boundary_softening is None

    def test_bad_lesion_center(self):
        doc = self._doc()
        doc["lesions"][0]["center"] = [4, 4]
        with pytest.raises(ConfigError) as err:
            parse_simulation_config(doc)
        assert "center" in str(err.value)

    def test_duplicate_rater_ids(self):
        doc = self._doc()
        doc["raters"].append({"id": "e1", "sens": 0.8, "spec": 0.8})
        with pytest.raises(ConfigError):
            parse_simulation_config(doc)

    def test_rater_seed_defaults_to_phantom_seed(self):
        doc = self._doc()
        del doc["raters"][0]["seed"]
        _, raters = parse_simulation_config(doc)
        assert raters[0].seed == 3

    def test_spec_too_large_for_memory_is_refused(self):
        doc = self._doc()
        doc["dims"] = [100000, 100000, 100000]
        doc["lesions"][0]["center"] = [50000, 50000, 50000]
        with pytest.raises(CapacityError, match=f"the limit of {SIMULATE_BYTE_LIMIT}"):
            parse_simulation_config(doc)

    @pytest.mark.parametrize("value", [1.5, True, "3"])
    def test_rater_seed_must_be_an_integer(self, value):
        doc = self._doc()
        doc["raters"][0]["seed"] = value
        with pytest.raises(ConfigError, match=r"raters\[0\]: key 'seed' must be an integer"):
            parse_simulation_config(doc)
