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
from fuselab.errors import DegeneratePosteriorError
from fuselab.staple import (
    AUTO_PRIOR,
    CLAMP_HI,
    CLAMP_LO,
    MSTEP_MODES,
    _run_inputs,
    resolve_prior,
    vote_patterns,
)
from helpers import assert_monotone, random_binary_stack, stack_from_rows
from oracles import (
    loglik_brute,
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

    def test_pattern_prior_equals_resolve_prior(self):
        rng = np.random.default_rng(12)
        config = FusionConfig()
        for _ in range(40):
            m, n = int(rng.integers(1, 12)), int(rng.integers(1, 3000))
            stack = random_binary_stack(rng, m, n, p=rng.choice([0.0, 0.02, 0.4, 1.0]))
            _, prior = _run_inputs(stack, config, GridKind.BINARY)
            assert prior == resolve_prior(stack, AUTO_PRIOR)


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
        """Votes q and 1 - q are the same case with the labels swapped: sens
        and spec trade places, the prior becomes 1 - prior and the posterior
        1 - w. soft-mc's draws are not mirrored, so it is left out; so is a
        run where either side collapses, since the degeneracy test is not
        symmetric."""
        rows = data.draw(vote_rows(binary))
        prior = data.draw(st.one_of(st.just(AUTO_PRIOR), PRIORS))
        swapped = prior if prior == AUTO_PRIOR else 1.0 - prior
        kind = GridKind.BINARY if binary else GridKind.SOFT
        kw = dict(mstep_mode=mode, max_iters=30, tol=1e-12)
        for variant in ("binary",) if binary else ("soft-exact", "simplified"):
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

    def test_expected_count_soft_exact_enumerates_twice(self, monkeypatch):
        """Once to mass the codes, once for the final posterior."""
        import fuselab.soft_staple as ss

        calls = []
        joint = ss._joint_votes
        monkeypatch.setattr(ss, "_joint_votes", lambda q: calls.append(q) or joint(q))
        _run(self._stack("soft-exact"), "soft-exact", max_iters=5, tol=1e-300)
        assert len(calls) == 2

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
