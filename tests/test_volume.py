"""Grid types, index arithmetic, and stack validation."""

import numpy as np
import pytest

from fuselab import (
    Dim3,
    ExpertStack,
    GridKind,
    RaterSpec,
    VolumeGrid,
    binarize,
    build_soft_mask,
    build_soft_stack,
    connected_components,
    m_step,
    precision_recall,
    simulate_raters,
    soft_dice,
    soften_votes,
    validate_stack,
)
from fuselab.errors import (
    ConfigError,
    DimensionMismatchError,
    DuplicateExpertIdError,
    EmptyStackError,
    GridError,
    GridIndexError,
    MixedKindError,
    ShapeError,
    ValueRangeError,
)
from fuselab.volume import IndexedGrid
from helpers import grid, stack_from_rows


def flat_index(ix, iy, iz, dims):
    """Where ``VolumeGrid.from_3d`` stores voxel (ix, iy, iz) of a
    ``(nz, ny, nx)`` cube: the one set voxel's position in the flat data."""
    cube = np.zeros((dims.nz, dims.ny, dims.nx))
    cube[iz, iy, ix] = 1.0
    (index,) = np.flatnonzero(VolumeGrid.from_3d(cube, GridKind.BINARY).data)
    return int(index)


class TestLinearIndex:
    """Voxel (ix, iy, iz) lives at flat index ix + nx * (iy + ny * iz)."""

    def test_origin(self):
        assert flat_index(0, 0, 0, Dim3(4, 4, 4)) == 0

    def test_x_fastest(self):
        assert flat_index(3, 0, 0, Dim3(4, 4, 4)) == 3

    def test_mixed_coordinate(self):
        # 1 + 4 * (2 + 5 * 3)
        assert flat_index(1, 2, 3, Dim3(4, 5, 6)) == 69

    def test_bijection(self):
        dims = Dim3(3, 4, 5)
        seen = {
            flat_index(ix, iy, iz, dims)
            for iz in range(5)
            for iy in range(4)
            for ix in range(3)
        }
        assert seen == set(range(dims.n))

    def test_matches_3d_layout(self):
        dims = Dim3(3, 4, 5)
        rng = np.random.default_rng(3)
        g = VolumeGrid(dims, rng.random(dims.n), GridKind.SOFT)
        cube = g.as_3d()
        for ix, iy, iz in ((0, 0, 0), (2, 3, 4), (1, 2, 3)):
            assert cube[iz, iy, ix] == g.data[ix + dims.nx * (iy + dims.ny * iz)]


class TestVolumeGrid:
    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            VolumeGrid(Dim3(2, 2, 2), np.zeros(7), GridKind.BINARY)

    def test_binary_range(self):
        with pytest.raises(ValueRangeError):
            grid([0.0, 0.5, 1.0], GridKind.BINARY)

    @pytest.mark.parametrize("bad", [1.5, -0.1, np.nan])
    def test_soft_range(self, bad):
        with pytest.raises(ValueRangeError):
            grid([0.2, bad], GridKind.SOFT)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_intensity_finite(self, bad):
        with pytest.raises(ValueRangeError):
            grid([1.0, bad], GridKind.INTENSITY)

    def test_data_read_only(self):
        g = grid([0.0, 1.0])
        with pytest.raises(ValueError):
            g.data[0] = 1.0

    def test_equality(self):
        a = grid([0.0, 1.0])
        b = grid([0.0, 1.0])
        c = grid([1.0, 1.0])
        assert a == b
        assert a != c
        assert a != grid(a.data, GridKind.SOFT)
        assert a.__eq__(a.data) is NotImplemented

    def test_from_3d_roundtrip(self):
        rng = np.random.default_rng(0)
        arr = rng.random((4, 3, 2))
        g = VolumeGrid.from_3d(arr, GridKind.SOFT)
        assert g.dims == Dim3(2, 3, 4)
        np.testing.assert_array_equal(g.as_3d(), arr)

    def test_from_3d_refuses_other_ranks(self):
        with pytest.raises(ShapeError, match="expected a 3D array, got ndim=2"):
            VolumeGrid.from_3d(np.zeros((3, 2)), GridKind.SOFT)

    def test_bad_dims(self):
        with pytest.raises(ShapeError):
            Dim3(0, 2, 2)
        with pytest.raises(ShapeError):
            Dim3(2, -1, 2)
        with pytest.raises(ShapeError):
            Dim3(True, 2, 2)


class TestMutationRejection:
    """Every constructed invariant violation must be rejected."""

    def test_randomized_mutations(self):
        rng = np.random.default_rng(42)
        bad_value = {
            GridKind.BINARY: lambda: rng.uniform(0.01, 0.99),
            GridKind.SOFT: lambda: rng.choice([-0.2, 1.2, np.nan]),
            GridKind.POSTERIOR: lambda: rng.choice([-0.2, 1.2, np.nan]),
            GridKind.INTENSITY: lambda: rng.choice([np.nan, np.inf]),
        }
        kinds = list(GridKind)
        for _ in range(60):
            kind = kinds[rng.integers(len(kinds))]
            n = int(rng.integers(1, 30))
            data = rng.random(n)
            if kind is GridKind.BINARY:
                data = (data > 0.5).astype(float)
            data[rng.integers(0, n)] = bad_value[kind]()
            with pytest.raises(ValueRangeError):
                grid(data, kind)


class TestValidateStack:
    def test_aligned_binary_ok(self):
        stack = stack_from_rows(np.eye(3))
        validate_stack(stack)
        assert stack.m == 3

    def test_dimension_mismatch(self):
        a = VolumeGrid(Dim3(4, 4, 4), np.zeros(64), GridKind.BINARY)
        b = VolumeGrid(Dim3(4, 4, 5), np.zeros(80), GridKind.BINARY)
        with pytest.raises(DimensionMismatchError):
            validate_stack(ExpertStack((a, b), ("e0", "e1")))

    def test_mixed_kinds(self):
        a = grid([0.0, 1.0], GridKind.BINARY)
        b = grid([0.5, 0.5], GridKind.SOFT)
        with pytest.raises(MixedKindError):
            validate_stack(ExpertStack((a, b), ("e0", "e1")))

    def test_duplicate_ids(self):
        a = grid([0.0, 1.0])
        with pytest.raises(DuplicateExpertIdError):
            validate_stack(ExpertStack((a, a), ("e1", "e1")))

    def test_empty(self):
        with pytest.raises(EmptyStackError):
            validate_stack(ExpertStack((), ()))

    def test_non_label_kind(self):
        a = grid([1.0, 2.0], GridKind.INTENSITY)
        with pytest.raises(MixedKindError):
            validate_stack(ExpertStack((a,), ("e0",)))

    def test_id_count_mismatch(self):
        a = grid([0.0, 1.0])
        with pytest.raises(DuplicateExpertIdError):
            validate_stack(ExpertStack((a,), ("e0", "e1")))


class TestStackChecksItself:
    """Building an invalid stack raises the error ``validate_stack`` raises."""

    @pytest.mark.parametrize("experts, ids, error", [
        ((VolumeGrid(Dim3(4, 4, 4), np.zeros(64), GridKind.BINARY),
          VolumeGrid(Dim3(4, 4, 5), np.zeros(80), GridKind.BINARY)),
         ("e0", "e1"), DimensionMismatchError),
        ((grid([0.0, 1.0]), grid([0.5, 0.5], GridKind.SOFT)), ("e0", "e1"), MixedKindError),
        ((grid([0.0, 1.0]),) * 2, ("e1", "e1"), DuplicateExpertIdError),
        ((), (), EmptyStackError),
        ((grid([1.0, 2.0], GridKind.INTENSITY),), ("e0",), MixedKindError),
        ((grid([0.0, 1.0]),), ("e0", "e1"), DuplicateExpertIdError),
    ], ids=["dims", "kinds", "duplicate-ids", "empty", "intensity", "id-count"])
    def test_invalid_stack_fails_at_construction(self, experts, ids, error):
        with pytest.raises(error):
            ExpertStack(experts, ids)


class TestDim3NumpyInts:
    """numpy integer dims are stored as Python ints."""

    def test_wrapping_product_is_refused(self):
        # As int64 the product 2^64 wraps to 0 and would pass the guard.
        with pytest.raises(ShapeError, match="addressable"):
            Dim3(np.int64(2**21), np.int64(2**21), np.int64(2**22))

    def test_numpy_dims_are_python_ints(self):
        dims = Dim3(np.int64(2), np.uint8(3), np.int32(4))
        assert all(type(v) is int for v in dims.as_tuple())
        assert dims == Dim3(2, 3, 4) and type(dims.n) is int


class TestBlockedValueCheck:
    """Values are checked block by block; a bad value in any block, at
    either edge of one, is found."""

    @pytest.mark.parametrize("kind", list(GridKind))
    @pytest.mark.parametrize("where", ["first", "block end", "block start", "last"])
    def test_bad_value_anywhere(self, kind, where):
        from fuselab.volume import _CHECK_BLOCK as B

        data = np.zeros(2 * B + 3)
        at = {"first": 0, "block end": B - 1, "block start": B, "last": 2 * B + 2}[where]
        data[at] = {GridKind.BINARY: 0.5, GridKind.INTENSITY: np.inf}.get(kind, np.nan)
        with pytest.raises(ValueRangeError):
            VolumeGrid(Dim3(data.size, 1, 1), data, kind)


class TestIndexedGridIndex:
    """An indexed grid takes only an integer index whose every entry
    points into its table, so no gather or write reads past it."""

    TABLE = np.array([0.1, 0.9])

    @pytest.mark.parametrize("index", [
        pytest.param(np.array([0, 1, 5, 7], dtype=np.uint8), id="past the table"),
        pytest.param(np.array([0, 1, 2, 1], dtype=np.uint16), id="table size"),
        pytest.param(np.array([0, 1, -1, 1]), id="negative intp"),
        pytest.param(np.array([0, 1, -128, 1], dtype=np.int8), id="negative int8"),
        pytest.param(np.array([0, 1, 2**40, 1], dtype=np.int64), id="huge int64"),
        pytest.param(np.array([0.0, 1.0, 1.0, 0.0]), id="float"),
        pytest.param(np.array([False, True, True, False]), id="bool"),
    ])
    def test_bad_index_is_refused(self, index):
        with pytest.raises(GridIndexError, match="^grid index "):
            IndexedGrid(Dim3(2, 2, 1), self.TABLE, index, GridKind.POSTERIOR)
        assert issubclass(GridIndexError, GridError)

    def test_empty_table_is_refused(self):
        with pytest.raises(GridIndexError):
            IndexedGrid(Dim3(1, 1, 1), np.empty(0), np.zeros(1, np.uint8), GridKind.POSTERIOR)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint32, np.int8, np.intp])
    def test_index_in_range_gathers(self, dtype):
        index = np.array([0, 1, 1, 0], dtype=dtype)
        got = IndexedGrid(Dim3(2, 2, 1), self.TABLE, index, GridKind.POSTERIOR).gather()
        np.testing.assert_array_equal(got.data, [0.1, 0.9, 0.9, 0.1])


_LABELS = grid([1.0, 0.0, 1.0, 0.0])
_SOFT = grid([0.5, 0.0, 1.0, 0.2], GridKind.SOFT)
_INTENSITY = grid([5.0, 1.0, 2.0, 3.0], GridKind.INTENSITY)
_SOFT_STACK = stack_from_rows([[0.5, 0.0, 1.0, 0.2]], GridKind.SOFT)
_STACK = stack_from_rows([[1.0, 0.0, 1.0, 1.0]])


def _short(kind=GridKind.BINARY):
    return grid([1.0, 0.0], kind)


class TestGridArgumentChecks:
    """Every grid or stack argument goes through ``check_grid``: a wrong
    kind is a ConfigError and a dims mismatch a DimensionMismatchError,
    both naming the argument."""

    KIND = [
        ("soft_dice truth", lambda: soft_dice(_INTENSITY, _LABELS), "truth", "a label grid"),
        ("soft_dice pred", lambda: soft_dice(_LABELS, _INTENSITY), "pred", "a label grid"),
        ("precision_recall truth", lambda: precision_recall(_INTENSITY, _LABELS), "truth",
         "a label grid"),
        ("precision_recall pred", lambda: precision_recall(_LABELS, _INTENSITY), "pred",
         "a label grid"),
        ("connected_components", lambda: connected_components(_SOFT), "mask",
         "a binary grid"),
        ("build_soft_mask binary", lambda: build_soft_mask(_SOFT, _INTENSITY), "binary",
         "a binary grid"),
        ("build_soft_mask flair", lambda: build_soft_mask(_LABELS, _SOFT), "flair",
         "an intensity grid"),
        ("build_soft_stack", lambda: build_soft_stack(_SOFT_STACK, _INTENSITY), "stack",
         "a binary stack"),
        ("m_step", lambda: m_step(_STACK, _INTENSITY), "w", "a label grid"),
        ("binarize", lambda: binarize(_SOFT), "posterior", "a posterior grid"),
        ("simulate_raters", lambda: simulate_raters(_SOFT, [RaterSpec("r", 0.9, 0.9)]),
         "truth", "a binary grid"),
        ("soften_votes", lambda: soften_votes(_SOFT_STACK, 0.1), "stack", "a binary stack"),
    ]
    DIMS = [
        ("soft_dice", lambda: soft_dice(_LABELS, _short()), "pred"),
        ("precision_recall", lambda: precision_recall(_LABELS, _short()), "pred"),
        ("build_soft_mask", lambda: build_soft_mask(_LABELS, _short(GridKind.INTENSITY)),
         "flair"),
        ("m_step", lambda: m_step(_STACK, _short(GridKind.POSTERIOR)), "w"),
    ]

    @pytest.mark.parametrize("call, name, want", [pytest.param(*row[1:], id=row[0])
                                                   for row in KIND])
    def test_wrong_kind(self, call, name, want):
        with pytest.raises(ConfigError, match=rf"^{name} must be {want}, got (soft|intensity)$"):
            call()

    @pytest.mark.parametrize("call, name", [pytest.param(*row[1:], id=row[0]) for row in DIMS])
    def test_dims_mismatch(self, call, name):
        with pytest.raises(DimensionMismatchError,
                           match=rf"^{name} has dims \(2, 1, 1\), expected \(4, 1, 1\)$"):
            call()

