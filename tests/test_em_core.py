"""Property tests of the vote-pattern EM core.

Hypothesis draws small stacks (1-7 experts, 1-50 voxels, binary votes or
soft mixes, all-zero, all-one and all-tied inputs) and priors near 0 and
1. Every variant's E-step, M-step and objective is checked against the
brute-force oracles, and the core's invariants are checked on full runs:
exact invariance to expert order, soft variants on hard votes equal to
binary, EM ascent under the expected-count M-step and label-swap
symmetry. Spies pin that a run evaluates the model once per parameter set.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fuselab import (
    FusionConfig,
    GridKind,
    RaterParams,
    e_step,
    log_likelihood,
    m_step,
    run_em,
    run_soft_em,
    simple_e_step,
    simple_log_likelihood,
    simple_m_step,
    soft_e_step,
    soft_log_likelihood,
    soft_m_step,
)
from fuselab.errors import ConfigError, DegeneratePosteriorError
from fuselab.soft_staple import _ExactModel
from fuselab.staple import (
    AUTO_PRIOR,
    CLAMP_HI,
    CLAMP_LO,
    MSTEP_MODES,
    VARIANTS,
    _COMPARED_LEVELS,
    _SPARSE_SHARE,
    _PatternModel,
    _group_keys,
    _soft_digits,
    fold_votes,
    vote_patterns,
)
from fuselab.volume import Dim3
from helpers import assert_monotone, random_binary_stack, stack_from_rows
from oracles import (
    loglik_brute,
    mean_vote_prior,
    plugin_mstep_brute,
    plugin_mstep_exact,
    posterior_brute,
    simple_expected_count_mstep_brute,
    simple_loglik_brute,
    simple_posterior_brute,
    soft_expected_count_mstep_brute,
    soft_loglik_brute,
    soft_posterior_brute,
)

SOFT_VARIANTS = ("soft-exact", "soft-mc", "simplified")
CORE = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

# Protocol levels, the blur levels of soften_votes, and arbitrary values.
SOFT_VALUES = st.one_of(
    st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.9, 1.0]),
    st.floats(0.0, 1.0, allow_subnormal=False),
)
PRIORS = st.one_of(st.sampled_from([1e-3, 1.0 - 1e-3]), st.floats(0.01, 0.99))


@st.composite
def vote_rows(draw, binary):
    """An (m, n) vote matrix: random, all zero, all one or all tied."""
    m = draw(st.integers(1, 7))
    n = draw(st.integers(1, 50))
    shape = draw(st.sampled_from(["random", "random", "zeros", "ones", "tied"]))
    values = st.sampled_from([0.0, 1.0]) if binary else SOFT_VALUES
    if shape == "random":
        rows = draw(hnp.arrays(np.float64, (m, n), elements=values))
    else:
        fill = {"zeros": 0.0, "ones": 1.0}.get(shape)
        rows = np.full((m, n), draw(values) if fill is None else fill)
    return rows + 0.0  # no negative zeros


@st.composite
def rater_params(draw, m):
    reliab = hnp.arrays(np.float64, m, elements=st.floats(0.55, 0.95))
    return RaterParams(draw(reliab), draw(reliab))


@st.composite
def problems(draw, binary):
    rows = draw(vote_rows(binary))
    kind = GridKind.BINARY if binary else GridKind.SOFT
    return rows, stack_from_rows(rows, kind), draw(rater_params(rows.shape[0])), draw(PRIORS)


# Recorded examples that missed the 1e-10 atol while w(0) was taken as
# 1 - w(1) at a prior near 1 (sens 0.75, prior 0.999 each): soft-exact
# expected-count on hard votes, and the simplified plug-in update twice.
HARD_FLAKE = (np.array([[0.0, 1.0]] + 6 * [[1.0, 1.0]]), 0.875)
SOFT_FLAKE = (np.array([[0.0, 0.9, 0.9, 0.9, 0.9]] + 6 * [[0.9] * 5]), 0.875)
SIX_EXPERT_FLAKE = (np.array([[0.0, 0.9, 0.9, 0.9]] + 5 * [[0.9] * 4]), 0.9375)


def _recorded(rows, spec):
    m = rows.shape[0]
    params = RaterParams(np.full(m, 0.75), np.full(m, spec))
    return rows, stack_from_rows(rows, GridKind.SOFT), params, 0.999


def _clamped(arr):
    return np.clip(arr, CLAMP_LO, CLAMP_HI)


def _assert_update(got: RaterParams, want, atol=1e-10):
    np.testing.assert_allclose(got.sens, _clamped(want[0]), rtol=0, atol=atol)
    np.testing.assert_allclose(got.spec, _clamped(want[1]), rtol=0, atol=atol)


def _permuted(rows, perm, kind):
    ids = tuple(f"e{i}" for i in range(rows.shape[0]))
    return (stack_from_rows(rows, kind, ids=ids),
            stack_from_rows(rows[perm], kind, ids=tuple(ids[i] for i in perm)))


def _run(stack, variant, **kw):
    cfg = FusionConfig(variant=variant, mc_samples=9, mc_seed=3, **kw)
    return run_em(stack, cfg) if variant == "binary" else run_soft_em(stack, cfg)


# One ULP inside 0 and 1.
FOLD_EDGES = (np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))


def _soft_rows():
    rng = np.random.default_rng(28)
    cut = _COMPARED_LEVELS
    return {
        "zeros": np.zeros(40),
        "ones": np.ones(40),
        "one fractional level": np.full(40, 0.3),
        "protocol": rng.choice([0.0, 0.3, 1.0], 500, p=[0.8, 0.1, 0.1]),
        "at the cut-off": rng.permutation(np.arange(cut) / (cut - 1)),
        "one over the cut-off": rng.permutation(np.arange(cut + 1) / cut),
        "continuous": rng.random(2000),
        "ulp inside 0 and 1": rng.choice([0.0, 1.0, 0.5, *FOLD_EDGES], 300),
        "ulp inside only": rng.choice(FOLD_EDGES, 300),
    }


SOFT_ROWS = _soft_rows()


@pytest.mark.parametrize("name", list(SOFT_ROWS))
def test_soft_digits_match_unique_and_searchsorted(name):
    """A soft row's levels and digits equal ``np.unique`` and
    ``np.searchsorted``, on either side of the comparison cut-off."""
    row = SOFT_ROWS[name]
    levels, digit = _soft_digits(row)
    want = np.unique(row)
    np.testing.assert_array_equal(levels, want)
    np.testing.assert_array_equal(digit, np.searchsorted(want, row))
    assert digit.dtype == np.min_scalar_type(want.size - 1)


class TestVotePatterns:
    @CORE
    @given(data=st.data(), binary=st.booleans())
    def test_matches_columnwise_unique(self, data, binary):
        rows = data.draw(vote_rows(binary))
        kind = GridKind.BINARY if binary else GridKind.SOFT
        pats = vote_patterns(stack_from_rows(rows, kind))
        cols, inverse, counts = np.unique(rows, axis=1, return_inverse=True,
                                          return_counts=True)
        np.testing.assert_array_equal(pats.columns, cols)
        np.testing.assert_array_equal(pats.inverse, inverse.reshape(-1))
        np.testing.assert_array_equal(pats.counts, counts)

    @CORE
    @given(data=st.data(), compared=st.booleans())
    def test_soft_fold_matches_a_sorting_fold(self, data, compared):
        """The soft fold, whichever way it builds its level digits, equals
        one that sorts each whole row: columns, counts, inverse and votes."""
        import fuselab.staple as staple

        m = data.draw(st.integers(1, 6))
        n = data.draw(st.integers(1, 60))
        values = st.one_of(st.sampled_from([0.0, 1.0, 0.3, *FOLD_EDGES]), SOFT_VALUES)
        rows = data.draw(hnp.arrays(np.float64, (m, n), elements=values)) + 0.0
        ids = tuple(f"e{i}" for i in range(m))   # ids sort in row order
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(staple, "_COMPARED_LEVELS", 256 if compared else 1)
            pats = vote_patterns(stack_from_rows(rows, GridKind.SOFT, ids=ids))
        cols, inverse, counts = np.unique(rows, axis=1, return_inverse=True,
                                          return_counts=True)
        np.testing.assert_array_equal(pats.columns, cols)
        np.testing.assert_array_equal(pats.inverse, inverse.reshape(-1))
        np.testing.assert_array_equal(pats.counts, counts)
        assert pats.votes == sum(float(np.sum(row)) for row in rows)

    def test_code_recompaction_path(self):
        """m=14 experts with 50 levels each: 50^14 codes overflow int64, so
        the running codes are compacted on the way."""
        assert 50**14 > np.iinfo(np.int64).max
        rng = np.random.default_rng(14)
        levels = rng.random((14, 50))
        rows = np.stack([rng.choice(lv, 400) for lv in levels])
        rows[:, 200:] = rows[:, :200]          # every column occurs at least twice
        ids = tuple(f"e{i:02d}" for i in range(14))   # ids sort in row order
        stack = stack_from_rows(rows, GridKind.SOFT, ids=ids)
        pats = vote_patterns(stack)
        cols, inverse, counts = np.unique(rows, axis=1, return_inverse=True,
                                          return_counts=True)
        np.testing.assert_array_equal(pats.columns, cols)
        np.testing.assert_array_equal(pats.inverse, inverse.reshape(-1))
        np.testing.assert_array_equal(pats.counts, counts)

        p = RaterParams(rng.uniform(0.6, 0.9, 14), rng.uniform(0.6, 0.9, 14))
        w = simple_e_step(stack, p, 0.3)
        for t in range(rows.shape[1]):
            assert w.data[t] == pytest.approx(
                simple_posterior_brute(rows[:, t], p.sens, p.spec, 0.3), abs=1e-12)
        assert simple_log_likelihood(stack, p, 0.3) == pytest.approx(
            simple_loglik_brute(rows, p.sens, p.spec, 0.3), rel=1e-10)
        _assert_update(simple_m_step(stack, p, 0.3),
                       simple_expected_count_mstep_brute(rows, p.sens, p.spec, 0.3))

    @pytest.mark.parametrize("m", [1, 8, 9, 16, 17, 32, 33, 63, 64])
    @pytest.mark.parametrize("binary", [True, False])
    def test_code_dtype_edges(self, m, binary):
        """Codes change dtype at 2^8, 2^16 and 2^32, and three soft levels
        pass 2^64 from 41 experts on, where the codes are compacted."""
        rng = np.random.default_rng(m)
        rows = (rng.random((m, 150)) < 0.3).astype(float)
        if binary:
            rows[(rows == 0.0) & (rng.random(rows.shape) < 0.5)] = -0.0
        else:
            rows[rng.random(rows.shape) < 0.2] = 0.3
        rows = np.concatenate([rows, rows[:, ::3]], axis=1)
        kind = GridKind.BINARY if binary else GridKind.SOFT
        ids = tuple(f"e{i:02d}" for i in range(m))   # ids sort in row order
        pats = vote_patterns(stack_from_rows(rows, kind, ids=ids))
        cols, inverse, counts = np.unique(rows, axis=1, return_inverse=True,
                                          return_counts=True)
        np.testing.assert_array_equal(pats.columns, cols)
        np.testing.assert_array_equal(pats.inverse, inverse.reshape(-1))
        np.testing.assert_array_equal(pats.counts, counts)
        if binary:
            assert not np.any(np.signbit(pats.columns))

    def test_pattern_prior_equals_the_mean_vote(self, monkeypatch):
        """The prior the runner hands its model; the spy stops the run there,
        since the all-0 and all-1 stacks would collapse in EM."""
        import fuselab.soft_staple as ss

        priors = []
        monkeypatch.setattr(ss, "_em_loop", lambda model, config: priors.append(model.prior))
        rng = np.random.default_rng(12)
        config = FusionConfig()
        for _ in range(40):
            m, n = int(rng.integers(1, 12)), int(rng.integers(1, 3000))
            stack = random_binary_stack(rng, m, n, p=rng.choice([0.0, 0.02, 0.4, 1.0]))
            run_em(stack, config)
            assert priors[-1] == mean_vote_prior(stack.as_matrix(), stack.expert_ids)
        assert len(priors) == 40


KEY_DTYPES = (np.uint8, np.uint16, np.uint64, np.intp)
KEY_SHAPES = ("background-heavy", "dense", "all-zero", "zero-free")


def _keys(shape: str, dtype, n: int, span: int, seed: int) -> np.ndarray:
    """n keys in [0, span) of one shape: about 90% zeros, uniform, all 0, or none 0."""
    rng = np.random.default_rng(seed)
    if shape == "all-zero":
        return np.zeros(n, dtype=dtype)
    key = rng.integers(1 if shape == "zero-free" else 0, span, n, dtype=np.uint64)
    if shape == "background-heavy":
        key[rng.random(n) < 0.9] = 0
    return key.astype(dtype)


def _assert_groups_like_unique(key: np.ndarray, span: int):
    values, counts, index = _group_keys(key, span, inverse=True)
    want, inverse, times = np.unique(key, return_inverse=True, return_counts=True)
    np.testing.assert_array_equal(values, want)
    np.testing.assert_array_equal(counts, times)
    np.testing.assert_array_equal(index, inverse)
    assert index.dtype == np.min_scalar_type(want.size - 1)
    bare = _group_keys(key, span)
    np.testing.assert_array_equal(bare[0], want)
    np.testing.assert_array_equal(bare[1], times)
    assert bare[2] is None


class TestGroupKeys:
    """``_group_keys`` equals ``np.unique(..., return_inverse=True,
    return_counts=True)`` on the sort route and on either counting route,
    with the inverse in the narrowest unsigned dtype."""

    @CORE
    @given(data=st.data(), dtype=st.sampled_from(KEY_DTYPES), shape=st.sampled_from(KEY_SHAPES),
           share=st.sampled_from([0.0, _SPARSE_SHARE, 1.0]))
    def test_matches_unique(self, data, dtype, shape, share):
        """``share`` 0 counts all keys (bar all-zero ones), 1 only the keys not 0."""
        import fuselab.staple as staple

        n = data.draw(st.integers(1, 700), label="n")
        top = min(int(np.iinfo(dtype).max) + 1, 2**64)
        span = data.draw(st.one_of(st.integers(2, min(2 * n, top)), st.just(min(2 * n, top)),
                                   st.integers(min(2 * n + 1, top), top)), label="span")
        key = _keys(shape, dtype, n, span, data.draw(st.integers(0, 2**32), label="seed"))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(staple, "_SPARSE_SHARE", share)
            _assert_groups_like_unique(key, span)

    @pytest.mark.parametrize("dtype", KEY_DTYPES)
    @pytest.mark.parametrize("shape", KEY_SHAPES)
    @pytest.mark.parametrize("n", [1, 1000])
    def test_edges(self, dtype, shape, n):
        """One key, and ``span == 2 * key.size``, the last span that is counted;
        at 1000 keys the background-heavy ones take the sparse route."""
        span = min(2 * n, int(np.iinfo(dtype).max) + 1)
        _assert_groups_like_unique(_keys(shape, dtype, n, span, n), span)

    @pytest.mark.parametrize("columns, dtype", [(256, np.uint8), (257, np.uint16),
                                                (65_536, np.uint16), (65_537, np.uint32)])
    @pytest.mark.parametrize("sparse", [False, True])
    def test_inverse_widens_past_each_byte_count(self, columns, dtype, sparse):
        key = np.arange(columns, dtype=np.uint32)
        if sparse:
            key = np.concatenate([key, np.zeros(4 * columns, dtype=np.uint32)])
        index = _group_keys(key, columns, inverse=True)[2]
        assert index.dtype == dtype
        np.testing.assert_array_equal(index[:columns], np.arange(columns))


class TestFoldMemory:
    def test_background_heavy_fold_holds_no_key_length_intp_array(self):
        """Seven 64^3 one-byte rows, about 5% foreground: the fold's codes are
        about 92% zero, so it counts and maps only the rest, and its index
        is one byte per voxel. Its tracemalloc peak measured 3.1 bytes per
        voxel; with a bincount over every code and an intp inverse it was
        10.3."""
        import tracemalloc

        rng = np.random.default_rng(5)
        dims = Dim3(64, 64, 64)
        truth = rng.random(dims.n) < 0.05
        rows = [(truth ^ (rng.random(dims.n) < 0.005)).astype(np.uint8) for _ in range(7)]
        tracemalloc.start()
        try:
            pats = fold_votes(iter(rows), np.arange(7), GridKind.BINARY, dims)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pats.inverse.dtype == np.uint8
        assert np.count_nonzero(pats.inverse) < _SPARSE_SHARE * dims.n
        assert peak <= 4 * dims.n, peak / dims.n


class TestStepsAgainstOracles:
    @CORE
    @given(problem=problems(binary=True))
    def test_binary(self, problem):
        rows, stack, p, prior = problem
        w = e_step(stack, p, prior)
        want = [posterior_brute(rows[:, t], p.sens, p.spec, prior)
                for t in range(rows.shape[1])]
        np.testing.assert_allclose(w.data, want, rtol=0, atol=1e-12)
        assert log_likelihood(stack, p, prior) == pytest.approx(
            loglik_brute(rows, p.sens, p.spec, prior), rel=1e-10)
        _assert_update(m_step(stack, w), plugin_mstep_brute(rows, w.data))

    @CORE
    @given(problem=problems(binary=False))
    @example(problem=_recorded(*HARD_FLAKE))
    def test_soft_exact(self, problem):
        rows, stack, p, prior = problem
        want, want0 = ([soft_posterior_brute(rows[:, t], p.sens, p.spec, prior, label)
                        for t in range(rows.shape[1])] for label in (1, 0))
        np.testing.assert_allclose(soft_e_step(stack, p, prior).data, want,
                                   rtol=0, atol=1e-12)
        assert soft_log_likelihood(stack, p, prior) == pytest.approx(
            soft_loglik_brute(rows, p.sens, p.spec, prior), rel=1e-10)
        _assert_update(soft_m_step(stack, p, prior, "expected-count"),
                       soft_expected_count_mstep_brute(rows, p.sens, p.spec, prior))
        _assert_update(soft_m_step(stack, p, prior, "plugin-mean"),
                       plugin_mstep_brute(rows, want, want0))

    @CORE
    @given(problem=problems(binary=False))
    @example(problem=_recorded(*SOFT_FLAKE))
    @example(problem=_recorded(*SIX_EXPERT_FLAKE))
    def test_simplified(self, problem):
        rows, stack, p, prior = problem
        want, want0 = ([simple_posterior_brute(rows[:, t], p.sens, p.spec, prior, label)
                        for t in range(rows.shape[1])] for label in (1, 0))
        np.testing.assert_allclose(simple_e_step(stack, p, prior).data, want,
                                   rtol=0, atol=1e-12)
        assert simple_log_likelihood(stack, p, prior) == pytest.approx(
            simple_loglik_brute(rows, p.sens, p.spec, prior), rel=1e-10)
        _assert_update(simple_m_step(stack, p, prior, "expected-count"),
                       simple_expected_count_mstep_brute(rows, p.sens, p.spec, prior))
        _assert_update(simple_m_step(stack, p, prior, "plugin-mean"),
                       plugin_mstep_brute(rows, want, want0))


@pytest.mark.parametrize("recorded, step, mode", [
    (HARD_FLAKE, soft_m_step, "expected-count"),
    (SOFT_FLAKE, simple_m_step, "plugin-mean"),
    (SIX_EXPERT_FLAKE, simple_m_step, "plugin-mean"),
])
def test_recorded_updates_match_exact_arithmetic(recorded, step, mode):
    rows, stack, p, prior = _recorded(*recorded)
    _assert_update(step(stack, p, prior, mode),
                   plugin_mstep_exact(rows, p.sens, p.spec, prior), atol=1e-12)


class TestLikelihoodForm:
    """Hard units take the log-linear binary likelihood; only units with a
    fractional vote read their votes through the slower noisy channel."""

    def test_hard_units_never_take_the_channel_form(self, monkeypatch):
        import fuselab.staple as staple

        calls = []
        channel = staple._channel_likelihoods
        monkeypatch.setattr(staple, "_channel_likelihoods",
                            lambda *a: calls.append(a) or channel(*a))
        rng = np.random.default_rng(61)
        binary = stack_from_rows((rng.random((4, 40)) < 0.4).astype(float))
        soft = stack_from_rows(rng.choice([0.0, 0.3, 0.7, 1.0], size=(4, 40)), GridKind.SOFT)
        for mode in ("expected-count", "plugin-mean"):
            _run(binary, "binary", mstep_mode=mode, max_iters=3)
            for variant in ("soft-exact", "soft-mc"):
                _run(soft, variant, mstep_mode=mode, max_iters=3)
        assert calls == []
        _run(soft, "simplified", max_iters=1)
        assert calls

    @CORE
    @given(problem=problems(binary=False))
    def test_soft_stack_steps_are_the_simplified_model(self, problem):
        _, stack, p, prior = problem
        assert (e_step(stack, p, prior).data.tobytes()
                == simple_e_step(stack, p, prior).data.tobytes())
        assert log_likelihood(stack, p, prior) == simple_log_likelihood(stack, p, prior)


class TestInvariants:
    @CORE
    @given(data=st.data(), binary=st.booleans())
    def test_expert_order_is_bitwise_irrelevant(self, data, binary):
        rows = data.draw(vote_rows(binary))
        perm = data.draw(st.permutations(range(rows.shape[0])))
        kind = GridKind.BINARY if binary else GridKind.SOFT
        stack, shuffled = _permuted(rows, perm, kind)
        variants = ("binary",) if binary else SOFT_VARIANTS
        prior = data.draw(st.sampled_from(["auto", 0.3]))
        for variant in variants:
            try:
                r1 = _run(stack, variant, prior=prior, max_iters=3, tol=1e-300)
            except DegeneratePosteriorError as err:
                with pytest.raises(DegeneratePosteriorError) as err2:
                    _run(shuffled, variant, prior=prior, max_iters=3, tol=1e-300)
                assert err2.value.ll_trace == err.value.ll_trace
                continue
            r2 = _run(shuffled, variant, prior=prior, max_iters=3, tol=1e-300)
            assert r1.posterior.data.tobytes() == r2.posterior.data.tobytes()
            assert r1.params.sens[perm].tobytes() == r2.params.sens.tobytes()
            assert r1.params.spec[perm].tobytes() == r2.params.spec.tobytes()
            assert r1.ll_trace == r2.ll_trace and r1.prior == r2.prior

    @CORE
    @given(data=st.data())
    def test_soft_variants_on_hard_votes_equal_binary(self, data):
        rows = data.draw(vote_rows(binary=True))
        iters = data.draw(st.integers(1, 4))
        hard = stack_from_rows(rows, GridKind.BINARY)
        soft = stack_from_rows(rows, GridKind.SOFT)
        kw = dict(max_iters=iters, tol=1e-300, prior=data.draw(PRIORS))
        try:
            ref = _run(hard, "binary", **kw)
        except DegeneratePosteriorError as err:
            for variant in SOFT_VARIANTS:
                with pytest.raises(DegeneratePosteriorError) as got:
                    _run(soft, variant, **kw)
                assert got.value.side == err.value.side
            return
        for variant in SOFT_VARIANTS:
            res = _run(soft, variant, **kw)
            np.testing.assert_allclose(res.posterior.data, ref.posterior.data,
                                       rtol=0, atol=1e-10)
            np.testing.assert_allclose(res.params.sens, ref.params.sens, rtol=0, atol=1e-10)
            np.testing.assert_allclose(res.params.spec, ref.params.spec, rtol=0, atol=1e-10)

    @CORE
    @given(data=st.data())
    def test_binary_mstep_modes_are_bitwise_equal(self, data):
        """On hard votes the expected counts are the plugged-in votes."""
        stack = stack_from_rows(data.draw(vote_rows(binary=True)), GridKind.BINARY)
        kw = dict(max_iters=data.draw(st.integers(1, 6)), tol=1e-300,
                  prior=data.draw(PRIORS))
        try:
            ref = _run(stack, "binary", mstep_mode="plugin-mean", **kw)
        except DegeneratePosteriorError as err:
            with pytest.raises(DegeneratePosteriorError) as got:
                _run(stack, "binary", mstep_mode="expected-count", **kw)
            assert got.value.ll_trace == err.value.ll_trace
            return
        res = _run(stack, "binary", mstep_mode="expected-count", **kw)
        assert res.posterior.data.tobytes() == ref.posterior.data.tobytes()
        assert res.params.sens.tobytes() == ref.params.sens.tobytes()
        assert res.params.spec.tobytes() == ref.params.spec.tobytes()
        assert res.ll_trace == ref.ll_trace

    @CORE
    @given(data=st.data(), binary=st.booleans())
    def test_expected_count_trace_never_decreases(self, data, binary):
        rows = data.draw(vote_rows(binary))
        stack = stack_from_rows(rows, GridKind.BINARY if binary else GridKind.SOFT)
        variants = ("binary",) if binary else SOFT_VARIANTS
        for variant in variants:
            try:
                res = _run(stack, variant, mstep_mode="expected-count", max_iters=25,
                           prior=data.draw(PRIORS))
            except DegeneratePosteriorError as err:
                assert_monotone(err.ll_trace)
                continue
            assert_monotone(res.ll_trace)

    @CORE
    @given(data=st.data(), binary=st.booleans(), mode=st.sampled_from(MSTEP_MODES))
    def test_label_swap_symmetry(self, data, binary, mode):
        """Votes q and 1 - q are the same case with the labels swapped: the
        prior becomes 1 - prior, and each EM step of one side, from (sens,
        spec), gives what the other side's step gives from (spec, sens),
        sens and spec traded, with posterior 1 - w. Checked at every step
        of a 30-iteration run, and on where two 8-iteration runs end: a
        longer run can pass a saddle that grows a rounding difference
        between the sides each step (see the next test). soft-mc's draws are
        not mirrored, so it is left out; so is a run where either side
        collapses, since the degeneracy test is not symmetric."""
        rows = data.draw(vote_rows(binary))
        prior = data.draw(st.one_of(st.just(AUTO_PRIOR), PRIORS))
        swapped = prior if prior == AUTO_PRIOR else 1.0 - prior
        kind = GridKind.BINARY if binary else GridKind.SOFT
        kw = dict(mstep_mode=mode, max_iters=8, tol=1e-12)
        for variant in ("binary",) if binary else ("soft-exact", "simplified"):
            assume(_label_swap_steps(rows, kind, variant, prior, mode))
            try:
                a = _run(stack_from_rows(rows, kind), variant, prior=prior, **kw)
                b = _run(stack_from_rows(1.0 - rows, kind), variant, prior=swapped, **kw)
            except DegeneratePosteriorError:
                assume(False)
            np.testing.assert_allclose(b.params.sens, a.params.spec, rtol=0, atol=1e-10)
            np.testing.assert_allclose(b.params.spec, a.params.sens, rtol=0, atol=1e-10)
            assert abs(b.prior - (1.0 - a.prior)) <= 1e-10
            np.testing.assert_allclose(b.posterior.data, 1.0 - a.posterior.data,
                                       rtol=0, atol=1e-10)

    @pytest.mark.parametrize("mode", MSTEP_MODES)
    def test_label_swap_symmetry_at_a_saddle(self, mode):
        """Experts 0 and 2 are exchangeable here (swap them and the voxel
        pairs 0-1 and 2-3). The run holds them at 0.5, a saddle; its
        swapped run leaves it, so the two runs' sensitivity and specificity
        drift apart from rounding, 3.5e-9 after 30 steps and 0.5 after 60,
        while every step maps onto its swap."""
        rows = np.array([[0, 1, 1, 0, 1, 1], [1, 1, 1, 1, 1, 1], [1, 0, 0, 1, 1, 1],
                         [1, 1, 1, 1, 1, 1], [0, 0, 1, 1, 1, 1]], dtype=float)
        assert _label_swap_steps(rows, GridKind.BINARY, "binary", 0.999, mode)


def _label_swap_steps(rows, kind, variant, prior, mode, steps=30) -> bool:
    """Check that the run on ``rows`` and the run on ``1 - rows`` map onto
    each other under the label swap at each of ``steps`` EM steps, along
    the first run's path; False if either side collapses."""
    swapped = prior if prior == AUTO_PRIOR else 1.0 - prior
    model = _ExactModel if variant == "soft-exact" else _PatternModel
    stacks = stack_from_rows(rows, kind), stack_from_rows(1.0 - rows, kind)
    a, b = (model(vote_patterns(s), mean_vote_prior(s.as_matrix(), s.expert_ids)
                  if p == AUTO_PRIOR else p) for s, p in zip(stacks, (prior, swapped)))
    assert abs(b.prior - (1.0 - a.prior)) <= 1e-10
    init = FusionConfig()
    m = rows.shape[0]
    params = RaterParams(np.full(m, init.init_sens), np.full(m, init.init_spec))
    for _ in range(steps):
        mirror = RaterParams(params.spec, params.sens)
        ev_a, ev_b = a.arrays(params), b.arrays(mirror)
        np.testing.assert_allclose(b.voxel_posterior(ev_b), 1.0 - a.voxel_posterior(ev_a),
                                   rtol=0, atol=1e-10)
        try:
            params = RaterParams(*a.mstep(params, ev_a, mode))
            mirror = RaterParams(*b.mstep(mirror, ev_b, mode))
        except DegeneratePosteriorError:
            return False
        np.testing.assert_allclose(mirror.sens, params.spec, rtol=0, atol=1e-10)
        np.testing.assert_allclose(mirror.spec, params.sens, rtol=0, atol=1e-10)
    return True


class TestOneEvaluationPerParameterSet:
    """``_em_loop`` evaluates the model at the initial parameters and after
    each M-step; every step reads that evaluation."""

    @staticmethod
    def _stack(variant):
        rng = np.random.default_rng(71)
        if variant == "binary":
            return random_binary_stack(rng, m=4, n=60)
        return stack_from_rows(rng.choice([0.0, 0.3, 1.0], size=(4, 60)), GridKind.SOFT)

    @pytest.mark.parametrize("mode", MSTEP_MODES)
    @pytest.mark.parametrize("variant", ("binary", *SOFT_VARIANTS))
    def test_run_of_n_iterations_evaluates_n_plus_one_times(self, monkeypatch, variant, mode):
        import fuselab.staple as staple

        calls = []
        arrays = staple._PatternModel.arrays
        monkeypatch.setattr(staple._PatternModel, "arrays",
                            lambda model, p: calls.append(p) or arrays(model, p))
        stack = self._stack(variant)
        for iters in (1, 4):
            calls.clear()
            res = _run(stack, variant, mstep_mode=mode, max_iters=iters, tol=1e-300)
            assert res.iters_run == iters
            assert len(calls) == iters + 1

    @pytest.mark.parametrize("iters", [1, 5])
    @pytest.mark.parametrize("mode", MSTEP_MODES)
    def test_soft_exact_enumerates_once_per_run(self, monkeypatch, mode, iters):
        """The one pass masses the codes; each plug-in M-step and the final
        posterior read the kept chunks."""
        import fuselab.soft_staple as ss

        calls = []
        joint = ss._joint_votes
        monkeypatch.setattr(ss, "_joint_votes", lambda q: calls.append(q) or joint(q))
        res = _run(self._stack("soft-exact"), "soft-exact", mstep_mode=mode, max_iters=iters,
                   tol=1e-300)
        assert res.iters_run == iters
        assert len(calls) == 1

    @pytest.mark.parametrize("mode", MSTEP_MODES)
    def test_simplified_reads_channel_likelihoods_from_its_evaluation(self, monkeypatch,
                                                                      mode):
        """The expected-count M-step reuses the evaluation's l0 and l1."""
        import fuselab.staple as staple

        calls = []
        channel = staple._channel_likelihoods
        monkeypatch.setattr(staple, "_channel_likelihoods",
                            lambda q, p: calls.append(p) or channel(q, p))
        stack = self._stack("simplified")
        for iters in (1, 4):
            calls.clear()
            _run(stack, "simplified", mstep_mode=mode, max_iters=iters, tol=1e-300)
            assert len(calls) == iters + 1

    @pytest.mark.parametrize("variant", ("binary", *SOFT_VARIANTS))
    def test_collapse_carries_the_completed_trace(self, monkeypatch, variant):
        import fuselab.staple as staple

        stack = self._stack(variant)
        want = _run(stack, variant, max_iters=3, tol=1e-300).ll_trace
        ratio = staple._mstep_ratio
        calls = []

        def collapse_fourth(*args):
            calls.append(args)
            if len(calls) == 4:
                raise DegeneratePosteriorError("sensitivity")
            return ratio(*args)

        monkeypatch.setattr(staple, "_mstep_ratio", collapse_fourth)
        with pytest.raises(DegeneratePosteriorError, match="3 iteration") as err:
            _run(stack, variant, max_iters=10, tol=1e-300)
        assert err.value.side == "sensitivity"
        assert err.value.ll_trace == want and len(want) == 3


class TestOneRunner:
    """``run_em`` runs every variant, ``run_soft_em`` is the same function,
    and each variant takes only its own stack kind."""

    def test_run_soft_em_is_run_em(self):
        assert run_soft_em is run_em

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_each_variant_runs_on_its_own_kind_only(self, variant):
        rng = np.random.default_rng(81)
        rows = rng.choice([0.0, 0.3, 1.0], size=(4, 60))
        binary = stack_from_rows((rows > 0.5).astype(float))
        soft = stack_from_rows(rows, GridKind.SOFT)
        own, other = (binary, soft) if variant == "binary" else (soft, binary)
        cfg = FusionConfig(variant=variant, mc_samples=9, max_iters=3)
        assert run_em(own, cfg).iters_run >= 1
        with pytest.raises(ConfigError, match=f"variant '{variant}' needs a {own.kind.value} stack"):
            run_em(other, cfg)
