"""Soft-vote fusion: enumeration math against brute-force oracles,
noisy-channel variant, Monte Carlo estimator, and reduction to the
binary algorithm on hard votes."""

import itertools
import math
import warnings

import numpy as np
import pytest

from fuselab import (
    FusionConfig,
    GridKind,
    RaterParams,
    e_step,
    log_likelihood,
    m_step,
    mc_soft_e_step_voxel,
    posterior_voxel,
    run_em,
    run_soft_em,
    simple_e_step,
    simple_e_step_voxel,
    simple_log_likelihood,
    simple_m_step,
    soft_e_step,
    soft_e_step_voxel,
    soft_log_likelihood,
    soft_m_step,
)
from fuselab.errors import CapacityError, ConfigError
from fuselab.staple import MSTEP_MODES, vote_patterns
from helpers import assert_monotone, random_binary_stack, stack_from_rows
from oracles import (
    _mc_generator,
    exact_posteriors_enumerated,
    mc_draws_brute,
    mc_expected_count_mstep_brute,
    mc_loglik_brute,
    mc_posterior_brute,
    mc_uniforms_brute,
    plugin_mstep_brute,
    simple_loglik_brute,
    simple_posterior_brute,
    soft_expected_count_mstep_brute,
    soft_loglik_brute,
    soft_posterior_brute,
)


def params(sens, spec):
    return RaterParams(np.atleast_1d(sens), np.atleast_1d(spec))


def random_soft_stack(rng, m, n):
    return stack_from_rows(rng.random((m, n)), GridKind.SOFT)


def _spy(monkeypatch, *names):
    """The arguments of each call to the named ``soft_staple`` functions
    (by default its two Monte Carlo draws), listed by name; calls still run."""
    import fuselab.soft_staple as ss

    calls = {}
    for name in names or ("_mc_codes", "_mc_tallies"):
        seen = calls[name] = []
        run = getattr(ss, name)
        monkeypatch.setattr(ss, name, lambda *a, run=run, seen=seen: seen.append(a) or run(*a))
    return calls


# At this sample count a soft voxel with k <= 4 fractional votes draws its
# tally, one with k = 5 or 6 its samples.
MIXED_SAMPLES = 20


def _mixed_stack(seed):
    """6 experts: three columns of each k = 0 ... 6, each on four voxels."""
    rng = np.random.default_rng(seed)
    q = (rng.random((6, 21)) < 0.5).astype(float)
    for t in range(21):
        frac = rng.choice(6, size=t % 7, replace=False)
        q[frac, t] = rng.choice([0.3, 0.55, 0.8], size=frac.size)
    return stack_from_rows(np.tile(q, 4), GridKind.SOFT, ids=("f", "c", "a", "e", "d", "b"))


def _run_mixed(monkeypatch, stack, **cfg):
    """A soft-mc run at ``MIXED_SAMPLES`` that draws on both paths."""
    calls = _spy(monkeypatch)
    res = run_soft_em(stack, FusionConfig(variant="soft-mc", mc_samples=MIXED_SAMPLES, **cfg))
    assert calls["_mc_codes"] and calls["_mc_tallies"]
    return res


class TestJointVotes:
    """``_joint_votes`` enumerates each column's joint hard votes: code bit i
    is expert i's vote, and a code's weight is the product of q_i or 1 - q_i."""

    @staticmethod
    def _one(q):
        from fuselab.soft_staple import _joint_votes

        (cols, codes, w), = _joint_votes(np.asarray(q, dtype=float)[:, None])
        assert cols.tolist() == [0]
        return codes[0], w[0]

    def test_degenerate_opinions(self):
        codes, w = self._one([1.0, 0.0])
        assert codes.tolist() == [0b01] and w.tolist() == [1.0]

    def test_uniform(self):
        codes, w = self._one([0.5, 0.5])
        assert codes.tolist() == [0, 1, 2, 3] and w.tolist() == [0.25] * 4

    def test_product(self):
        codes, w = self._one([0.3, 0.9, 0.5])
        assert w[codes.tolist().index(0b101)] == pytest.approx(0.3 * 0.1 * 0.5, rel=1e-12)

    def test_lsb_is_first_expert(self):
        from fuselab.soft_staple import _code_bits

        codes, _ = self._one([0.2, 0.7, 0.4])
        assert codes.tolist() == list(range(8))
        bits = _code_bits(codes, 3)
        np.testing.assert_array_equal(bits[:, 1], [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(bits[:, 6], [0.0, 1.0, 1.0])

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
    def test_weights_match_the_brute_product(self, m):
        from fuselab.soft_staple import _code_bits

        q = np.random.default_rng(m).random(m)
        q[::3] = np.round(q[::3])  # some votes fix their bit
        codes, w = self._one(q)
        bits = _code_bits(codes, m)
        want = np.prod(np.where(bits == 1.0, q[:, None], 1.0 - q[:, None]), axis=0)
        np.testing.assert_allclose(w, want, rtol=1e-12, atol=0)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("m", [1, 3, 8, 20, 62, 63, 70])
    def test_packed_codes_unpack_to_their_votes(self, m):
        from fuselab.soft_staple import _code_bits, _pack_codes

        bits = np.random.default_rng(m).random((6, m)) < 0.5
        codes = _pack_codes(bits, m)
        assert codes.size == 6
        np.testing.assert_array_equal(_code_bits(codes, m), bits.T.astype(float))
        if m <= 20:
            want = [sum(int(b) << i for i, b in enumerate(row)) for row in bits]
            assert codes.tolist() == want


class TestSoftEStepVoxel:
    def test_degenerate_equals_hard_posterior(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = int(rng.integers(1, 6))
            votes = (rng.random(m) > 0.5).astype(float)
            p = params(rng.uniform(0.6, 0.95, m), rng.uniform(0.6, 0.95, m))
            prior = float(rng.uniform(0.1, 0.9))
            assert soft_e_step_voxel(votes, p, prior) == posterior_voxel(
                votes, p, prior
            )

    def test_uniform_vote_symmetric_rater(self):
        for s in (0.6, 0.8, 0.99):
            got = soft_e_step_voxel([0.5], params(s, s), 0.5)
            assert got == pytest.approx(0.5, abs=1e-12)

    def test_brute_force_128_terms(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            q = rng.random(7)
            p = params(rng.uniform(0.55, 0.98, 7), rng.uniform(0.55, 0.98, 7))
            prior = float(rng.uniform(0.05, 0.95))
            got = soft_e_step_voxel(q, p, prior)
            want = soft_posterior_brute(q, p.sens, p.spec, prior)
            assert got == pytest.approx(want, abs=1e-12)

    def test_capacity_guard(self):
        m = 21
        with pytest.raises(CapacityError):
            soft_e_step_voxel(
                np.full(m, 0.5), params(np.full(m, 0.9), np.full(m, 0.9)), 0.5
            )

    def test_affine_in_each_vote(self):
        rng = np.random.default_rng(2)
        m = 5
        q = rng.random(m)
        p = params(rng.uniform(0.6, 0.95, m), rng.uniform(0.6, 0.95, m))
        for i in range(m):
            vals = []
            for qi in (0.0, 0.5, 1.0):
                q2 = q.copy()
                q2[i] = qi
                vals.append(soft_e_step_voxel(q2, p, 0.3))
            assert vals[1] == pytest.approx((vals[0] + vals[2]) / 2.0, abs=1e-10)


class TestSoftLogLikelihood:
    def test_degenerate_reduces_to_binary(self):
        rng = np.random.default_rng(3)
        stack = random_binary_stack(rng, m=3, n=15)
        soft = stack_from_rows(stack.as_matrix(), GridKind.SOFT)
        p = params(rng.uniform(0.6, 0.9, 3), rng.uniform(0.6, 0.9, 3))
        got = soft_log_likelihood(soft, p, 0.3)
        want = log_likelihood(stack, p, 0.3)
        assert got == pytest.approx(want, rel=1e-12)

    def test_hand_value(self):
        stack = stack_from_rows([[0.5]], GridKind.SOFT)
        got = soft_log_likelihood(stack, params(0.5, 0.5), 0.5)
        assert got == pytest.approx(math.log(0.5), rel=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(4)
        q = rng.random((3, 6))
        sens = rng.uniform(0.6, 0.95, 3)
        spec = rng.uniform(0.6, 0.95, 3)
        got = soft_log_likelihood(stack_from_rows(q, GridKind.SOFT), params(sens, spec), 0.4)
        assert got == pytest.approx(soft_loglik_brute(q, sens, spec, 0.4), rel=1e-10)

    def test_marginal_consistency(self):
        # each column's joint hard-vote weights sum to one
        from fuselab.soft_staple import _joint_votes

        rng = np.random.default_rng(5)
        for m in (1, 3, 7, 10):
            q = rng.random((m, 4))
            seen = []
            for cols, _, w in _joint_votes(q):
                assert w.shape == (cols.size, 2**m)
                np.testing.assert_allclose(w.sum(axis=1), 1.0, rtol=0, atol=1e-12)
                seen.extend(cols)
            assert sorted(seen) == [0, 1, 2, 3]


class TestSoftMStep:
    def test_degenerate_matches_binary_both_modes(self):
        rng = np.random.default_rng(6)
        stack = random_binary_stack(rng, m=3, n=20)
        soft = stack_from_rows(stack.as_matrix(), GridKind.SOFT)
        p = params(rng.uniform(0.6, 0.9, 3), rng.uniform(0.6, 0.9, 3))
        w = e_step(stack, p, 0.3)
        want = m_step(stack, w)
        for mode in ("expected-count", "plugin-mean"):
            got = soft_m_step(soft, p, 0.3, mode)
            np.testing.assert_allclose(got.sens, want.sens, atol=1e-12)
            np.testing.assert_allclose(got.spec, want.spec, atol=1e-12)

    def test_perfect_agreement(self):
        stack = stack_from_rows([[1.0, 0.0]], GridKind.SOFT)
        p = params(1.0, 1.0)
        for mode in ("expected-count", "plugin-mean"):
            got = soft_m_step(stack, p, 0.5, mode)
            assert got.sens[0] == pytest.approx(1.0, abs=1e-6)
            assert got.spec[0] == pytest.approx(1.0, abs=1e-6)

    def test_unknown_mode_is_refused(self):
        stack = stack_from_rows([[0.3, 1.0], [0.0, 0.6]], GridKind.SOFT)
        with pytest.raises(ConfigError, match="unknown mstep mode 'x'"):
            soft_m_step(stack, params([0.9, 0.8], [0.9, 0.8]), 0.3, mode="x")

    def test_expected_count_matches_brute_force(self):
        rng = np.random.default_rng(7)
        q = rng.random((2, 7))
        sens = rng.uniform(0.6, 0.95, 2)
        spec = rng.uniform(0.6, 0.95, 2)
        got = soft_m_step(
            stack_from_rows(q, GridKind.SOFT), params(sens, spec), 0.35, "expected-count"
        )
        want_sens, want_spec = soft_expected_count_mstep_brute(q, sens, spec, 0.35)
        np.testing.assert_allclose(got.sens, want_sens, atol=1e-12)
        np.testing.assert_allclose(got.spec, want_spec, atol=1e-12)


class TestMonteCarloEStep:
    def test_degenerate_is_exact_for_any_sample_count(self):
        rng = np.random.default_rng(8)
        votes = (rng.random(5) > 0.5).astype(float)
        p = params(rng.uniform(0.6, 0.9, 5), rng.uniform(0.6, 0.9, 5))
        exact = soft_e_step_voxel(votes, p, 0.2)
        for samples in (1, 3, 100, 10**9):
            assert mc_soft_e_step_voxel(votes, p, 0.2, samples, seed=0) == pytest.approx(
                exact, abs=1e-15
            )

    def test_large_sample_accuracy(self):
        rng = np.random.default_rng(9)
        q = rng.random(7)
        p = params(rng.uniform(0.6, 0.95, 7), rng.uniform(0.6, 0.95, 7))
        exact = soft_e_step_voxel(q, p, 0.3)
        mc = mc_soft_e_step_voxel(q, p, 0.3, 200_000, seed=1234)
        assert abs(mc - exact) < 0.005

    def test_same_seed_reproduces(self):
        rng = np.random.default_rng(10)
        q = rng.random(4)
        p = params(rng.uniform(0.6, 0.9, 4), rng.uniform(0.6, 0.9, 4))
        a = mc_soft_e_step_voxel(q, p, 0.4, 500, seed=7, voxel_index=3)
        b = mc_soft_e_step_voxel(q, p, 0.4, 500, seed=7, voxel_index=3)
        assert a == b

    def test_voxel_index_changes_stream(self):
        rng = np.random.default_rng(11)
        q = rng.random(4)
        p = params(rng.uniform(0.6, 0.9, 4), rng.uniform(0.6, 0.9, 4))
        a = mc_soft_e_step_voxel(q, p, 0.4, 500, seed=7, voxel_index=0)
        b = mc_soft_e_step_voxel(q, p, 0.4, 500, seed=7, voxel_index=1)
        assert a != b

    def test_sample_count_validated(self):
        with pytest.raises(ConfigError):
            mc_soft_e_step_voxel([0.5], params(0.9, 0.9), 0.5, 0, seed=0)

    def test_draw_budget_checked_before_drawing(self, monkeypatch):
        """A voxel drawn sample by sample (2^30 > 300,000) over the per-voxel bound."""
        calls = _spy(monkeypatch)
        p = params(np.full(30, 0.9), np.full(30, 0.9))
        with pytest.raises(CapacityError, match="300000 samples x 30 experts"):
            mc_soft_e_step_voxel(np.full(30, 0.5), p, 0.5, 300_000, seed=0)
        assert not any(calls.values())

    @pytest.mark.parametrize("samples", [10**9, 2**63 - 1])
    def test_tallied_voxel_takes_any_sample_count(self, monkeypatch, samples):
        """A tallied voxel draws no samples x m matrix, so samples x 7 experts
        over ``MC_DRAW_LIMIT``, up to numpy's int64 count, run and give
        soft-mc's fused posterior."""
        import fuselab.soft_staple as ss

        calls = _spy(monkeypatch)
        assert samples * 7 > ss.MC_DRAW_LIMIT
        rng = np.random.default_rng(23)
        stack = stack_from_rows(np.where(rng.random((7, 12)) < 0.6, rng.random((7, 12)),
                                         rng.random((7, 12)) < 0.5), GridKind.SOFT)
        res = run_soft_em(stack, FusionConfig(variant="soft-mc", mc_samples=samples,
                                              mc_seed=4, max_iters=2))
        qc, pc = TestMonteCarloSweep._canonical(stack, res)
        want = [mc_soft_e_step_voxel(qc[:, t], pc, res.prior, samples, 4, t) for t in range(12)]
        np.testing.assert_allclose(res.posterior.data, want, rtol=0, atol=1e-12)
        assert calls["_mc_tallies"] and not calls["_mc_codes"]

    def test_square_root_convergence_rate(self):
        # 100x the samples should cut the error ~10x; allow a 3x margin
        rng = np.random.default_rng(12)
        q = rng.random(6)
        p = params(rng.uniform(0.6, 0.95, 6), rng.uniform(0.6, 0.95, 6))
        exact = soft_e_step_voxel(q, p, 0.25)
        errs = []
        for samples in (100, 10_000):
            worst = max(
                abs(mc_soft_e_step_voxel(q, p, 0.25, samples, seed=s) - exact)
                for s in range(20)
            )
            errs.append(worst)
        assert errs[1] < errs[0] / 3.0


class TestMonteCarloSweep:
    """The soft-mc run draws each soft voxel's keyed stream in blocks."""

    # 0, 1, a half, the smallest positive thresholds, just below 1, random.
    EDGE_VOTES = (0.0, 1.0, 0.5, 2.0**-60, 1.0 - 2.0**-53)

    @pytest.mark.parametrize("m", [1, 3, 7, 70])
    @pytest.mark.parametrize("samples", [1, 6, 13])
    def test_block_draws_match_generator_bit_for_bit(self, m, samples):
        import fuselab.soft_staple as ss

        rng = np.random.default_rng(m * 100 + samples)
        voxels = np.array([0, 3, 17, 255, 2**40 + 5, 2**64 - 1], dtype=np.uint64)
        q = rng.random((m, voxels.size))  # the last voxel keeps random votes
        q[:, : len(self.EDGE_VOTES)] = self.EDGE_VOTES
        codes = ss._mc_codes(q, voxels, samples, seed=2024)
        got = ss._code_bits(codes, m).T.reshape(voxels.size, samples, m) == 1.0
        for j, t in enumerate(voxels):
            want = mc_draws_brute(q[:, j], samples, 2024, int(t))
            np.testing.assert_array_equal(got[j], want)

    @pytest.mark.parametrize("m", [1, 3, 7])
    def test_votes_on_a_drawn_value_match_generator(self, m):
        """A vote equal to a drawn uniform rejects it; the next float up
        accepts it. Random votes almost never land this close."""
        import fuselab.soft_staple as ss

        voxels = np.array([11, 12], dtype=np.uint64)
        q = np.stack([mc_uniforms_brute(m, 6, 77, int(t))[2] for t in voxels], axis=1)
        q[:, 1] = np.nextafter(q[:, 1], 1.0)
        got = ss._code_bits(ss._mc_codes(q, voxels, 6, seed=77), m).T.reshape(2, 6, m) == 1.0
        assert not got[0, 2].any() and got[1, 2].all()
        for j, t in enumerate(voxels):
            np.testing.assert_array_equal(got[j], mc_draws_brute(q[:, j], 6, 77, int(t)))

    @staticmethod
    def _canonical(stack, res):
        order = np.argsort(stack.expert_ids)
        q = np.stack([stack.experts[i].data for i in order])
        return q, res.params.reordered(order)

    # Many blocks (at 100 draws, one k = 4 column's voxels fall in two) / one block.
    @pytest.mark.parametrize("block", [100, 2**18])
    @pytest.mark.parametrize("mode", ["expected-count", "plugin-mean"])
    def test_final_posterior_matches_voxel_function(self, monkeypatch, mode, block):
        import fuselab.soft_staple as ss

        stack = _mixed_stack(41)
        monkeypatch.setattr(ss, "_DRAW_BLOCK", block)
        res = _run_mixed(monkeypatch, stack, mstep_mode=mode, mc_seed=5, max_iters=3)
        qc, pc = self._canonical(stack, res)
        n, samples = qc.shape[1], MIXED_SAMPLES
        want = [mc_soft_e_step_voxel(qc[:, t], pc, res.prior, samples, 5, t) for t in range(n)]
        np.testing.assert_allclose(res.posterior.data, want, rtol=0, atol=1e-12)
        brute = [mc_posterior_brute(qc[:, t], pc.sens, pc.spec, res.prior, samples, 5, t)
                 for t in range(n)]
        np.testing.assert_allclose(want, brute, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("block", [100, 2**18])
    @pytest.mark.parametrize("mode", ["expected-count", "plugin-mean"])
    def test_first_mstep_matches_brute(self, monkeypatch, mode, block):
        import fuselab.soft_staple as ss

        stack = _mixed_stack(45)
        monkeypatch.setattr(ss, "_DRAW_BLOCK", block)
        res = _run_mixed(monkeypatch, stack, mstep_mode=mode, mc_seed=6, max_iters=1)
        qc, pc = self._canonical(stack, res)
        start, samples = np.full(6, 0.9), MIXED_SAMPLES
        if mode == "expected-count":
            want = mc_expected_count_mstep_brute(qc, start, start, res.prior, samples, 6)
        else:
            w1 = [mc_posterior_brute(qc[:, t], start, start, res.prior, samples, 6, t)
                  for t in range(qc.shape[1])]
            want = plugin_mstep_brute(qc, w1)
        np.testing.assert_allclose(pc.sens, want[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(pc.spec, want[1], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mode", ["expected-count", "plugin-mean"])
    def test_outputs_do_not_depend_on_the_block_size(self, monkeypatch, mode):
        """Blocks bound memory only: at 100 draws per block (a k = 4 column's
        voxels in two blocks) and at one block, every output is the same."""
        import fuselab.soft_staple as ss

        stack = _mixed_stack(41)
        runs = []
        for block in (100, 2**18):
            monkeypatch.setattr(ss, "_DRAW_BLOCK", block)
            runs.append(_run_mixed(monkeypatch, stack, mstep_mode=mode, mc_seed=5, max_iters=3))
        small, one = runs
        assert small.posterior.data.tobytes() == one.posterior.data.tobytes()
        assert small.params.sens.tobytes() == one.params.sens.tobytes()
        assert small.params.spec.tobytes() == one.params.spec.tobytes()
        assert small.ll_trace == one.ll_trace

    def test_objective_beyond_guard_matches_brute(self):
        rng = np.random.default_rng(42)
        q = rng.choice([0.0, 0.25, 0.6, 1.0], size=(21, 6))
        q[:, 2] = q[:, 3] = (q[:, 2] > 0.5).astype(float)  # one hard column, twice
        stack = stack_from_rows(q, GridKind.SOFT)
        res = run_soft_em(stack, FusionConfig(
            variant="soft-mc", mc_samples=30, mc_seed=9, max_iters=2, tol=1e-300))
        assert res.ll_is_approximate
        qc, pc = self._canonical(stack, res)
        want = mc_loglik_brute(qc, pc.sens, pc.spec, res.prior, 30, 9)
        assert res.ll_trace[-1] == pytest.approx(want, rel=1e-12)

    def test_objective_is_the_sampled_models(self, monkeypatch):
        """Within the guard too, the trace is the objective soft-mc's EM
        ascends; it is the exact binary one only when every vote is hard."""
        stack = _mixed_stack(46)
        cfg = dict(max_iters=4, tol=1e-300)
        res = _run_mixed(monkeypatch, stack, mc_seed=4, **cfg)
        assert res.ll_is_approximate
        assert_monotone(res.ll_trace)
        qc, pc = self._canonical(stack, res)
        want = mc_loglik_brute(qc, pc.sens, pc.spec, res.prior, MIXED_SAMPLES, 4)
        assert res.ll_trace[-1] == pytest.approx(want, rel=1e-12)

        hard = random_binary_stack(np.random.default_rng(46), m=4, n=40)
        res = run_soft_em(stack_from_rows(hard.as_matrix(), GridKind.SOFT),
                          FusionConfig(variant="soft-mc", mc_samples=9, **cfg))
        assert not res.ll_is_approximate
        assert res.ll_trace == pytest.approx(run_em(hard, FusionConfig(**cfg)).ll_trace,
                                             rel=1e-12)

    def test_enumerates_nothing_at_the_guard(self, monkeypatch):
        import fuselab.soft_staple as ss

        def refuse(*_):
            raise AssertionError("soft-mc enumerated joint votes")

        monkeypatch.setattr(ss, "_joint_votes", refuse)
        q = np.random.default_rng(48).random((20, 6))
        stack = stack_from_rows(q, GridKind.SOFT)
        res = run_soft_em(stack, FusionConfig(
            variant="soft-mc", mc_samples=10, mc_seed=2, max_iters=2, tol=1e-300))
        assert res.ll_is_approximate and res.iters_run == 2
        qc, pc = self._canonical(stack, res)
        want = mc_loglik_brute(qc, pc.sens, pc.spec, res.prior, 10, 2)
        assert res.ll_trace[-1] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("m", [62, 63, 70])
    def test_runs_beyond_int64_codes(self, m):
        rng = np.random.default_rng(43)
        q = rng.choice([0.0, 0.4, 1.0], size=(m, 5))
        stack = stack_from_rows(q, GridKind.SOFT)
        res = run_soft_em(stack, FusionConfig(variant="soft-mc", mc_samples=8, max_iters=2))
        assert res.ll_is_approximate and res.iters_run == 2
        qc, pc = self._canonical(stack, res)
        want = [mc_soft_e_step_voxel(qc[:, t], pc, res.prior, 8, 0, t) for t in range(5)]
        np.testing.assert_allclose(res.posterior.data, want, rtol=0, atol=1e-12)

    def test_draw_passes_do_not_grow_with_iterations(self, monkeypatch):
        """Half the voxels have 2 fractional votes (2^2 <= 11 samples: tally
        path), half 5 (per-sample path); a block holds about four sampled
        voxels' draws, so the run draws in several blocks."""
        import fuselab.soft_staple as ss

        q = np.random.default_rng(44).random((5, 30))
        q[:3, ::2] = q[:3, ::2] > 0.5
        stack = stack_from_rows(q, GridKind.SOFT)
        monkeypatch.setattr(ss, "_DRAW_BLOCK", 5 * 11 * 4)
        passes = []
        for iters in (1, 6):
            calls = _spy(monkeypatch)
            res = run_soft_em(stack, FusionConfig(
                variant="soft-mc", mc_samples=11, max_iters=iters, tol=1e-300))
            assert res.iters_run == iters
            drawn = np.concatenate([a[1] for blocks in calls.values() for a in blocks])
            np.testing.assert_array_equal(np.sort(drawn), np.arange(30))  # each stream once
            passes.append({name: len(blocks) for name, blocks in calls.items()})
        # one pass: the final posterior draws nothing
        assert passes[0] == passes[1]
        assert passes[0]["_mc_codes"] and passes[0]["_mc_tallies"]

    def test_store_follows_distinct_codes_not_samples(self, monkeypatch):
        """Per-voxel tallies hold at most 2^k entries per voxel, so on votes
        with at most two fractional values their size barely moves from
        256 to 4,096 samples (kept raw codes would grow 16x), and the final
        posterior is served from them without a draw."""
        import fuselab.soft_staple as ss
        from fuselab.staple import vote_patterns

        rng = np.random.default_rng(49)
        q = (rng.random((6, 200)) < 0.4).astype(float)
        for t in range(200):
            q[rng.choice(6, size=int(rng.integers(1, 3)), replace=False), t] = 0.3
        patterns = vote_patterns(stack_from_rows(q, GridKind.SOFT))
        p = params(np.full(6, 0.85), np.full(6, 0.9))

        def kept(model):
            return sum(a.nbytes for a in model.tally)

        small = ss._McModel(patterns, 0.3, 256, 3)
        model = ss._McModel(patterns, 0.3, 4096, 3)
        assert kept(model) < 2 * kept(small)
        want = model.voxel_posterior(model.arrays(p)).tobytes()

        def refuse(*_):
            raise AssertionError("the final posterior drew again")

        monkeypatch.setattr(ss, "_mc_codes", refuse)
        monkeypatch.setattr(ss, "_mc_tallies", refuse)
        assert model.voxel_posterior(model.arrays(p)).tobytes() == want


    def test_entry_bound_refuses_before_any_draw(self, monkeypatch):
        """Each of the 30 voxels has 5 fractional votes, so it may keep
        min(11, 2^5) = 11 entries: 330 in all."""
        import fuselab.soft_staple as ss

        stack = stack_from_rows(np.full((5, 30), 0.4), GridKind.SOFT)
        calls = _spy(monkeypatch)
        cfg = FusionConfig(variant="soft-mc", mc_samples=11, max_iters=1)
        monkeypatch.setattr(ss, "MC_ENTRY_LIMIT", 329)
        with pytest.raises(CapacityError, match="330 .* limit of 329"):
            run_soft_em(stack, cfg)
        assert not any(calls.values())
        monkeypatch.setattr(ss, "MC_ENTRY_LIMIT", 330)
        run_soft_em(stack, cfg)
        assert calls["_mc_codes"]

    def test_draw_bound_refuses_before_any_draw(self, monkeypatch):
        """5 experts x 30 soft voxels x 11 samples = 1,650 draws."""
        import fuselab.soft_staple as ss

        stack = stack_from_rows(np.full((5, 30), 0.4), GridKind.SOFT)
        calls = _spy(monkeypatch)
        cfg = FusionConfig(variant="soft-mc", mc_samples=11, max_iters=1)
        monkeypatch.setattr(ss, "_MC_RUN_DRAW_LIMIT", 1649)
        with pytest.raises(CapacityError, match="1650 draws .* limit of 1649"):
            run_soft_em(stack, cfg)
        assert not any(calls.values())
        monkeypatch.setattr(ss, "_MC_RUN_DRAW_LIMIT", 1650)
        run_soft_em(stack, cfg)
        assert calls["_mc_codes"]

    def test_narrow_inverse_builds_the_same_model(self):
        """The block arithmetic on voxel-to-column indices runs in intp, so
        the uint8 inverse (227 columns here) gives an intp inverse's bytes,
        on both paths (at 8 samples, k <= 3 tallies and k = 4, 5 samples)."""
        import dataclasses

        import fuselab.soft_staple as ss
        from fuselab.staple import vote_patterns

        q = np.random.default_rng(1).choice([0.0, 0.4, 1.0], size=(5, 600))
        patterns = vote_patterns(stack_from_rows(q, GridKind.SOFT))
        assert patterns.inverse.dtype == np.uint8
        wide = dataclasses.replace(patterns, inverse=patterns.inverse.astype(np.intp))
        p = params(np.full(5, 0.9), np.full(5, 0.85))
        got = []
        for pats in (patterns, wide):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                model = ss._McModel(pats, 0.3, 8, 1)
            ev = model.arrays(p)
            got.append([model.s, *model.mstep(p, ev, "plugin-mean"), model.voxel_posterior(ev)])
        for want, have in zip(*got):
            assert have.tobytes() == want.tobytes()


def _distinct_columns(m: int, n: int, soft: bool) -> np.ndarray:
    """(m, n) votes whose voxel t holds the bits of t (n <= 2^m, so every
    column differs). If ``soft``, every 97th voxel has one vote of 0.4 and
    every 89th five, which soft-mc at 8 samples tallies and samples."""
    rows = ((np.arange(n) >> np.arange(m)[:, None]) & 1).astype(float)
    if soft:
        rows[np.arange(0, n, 97) % m, np.arange(0, n, 97)] = 0.4
        rows[:5, ::89] = 0.4
    return rows


class TestWideInverse:
    """Past 255 and 65,535 distinct columns the inverse widens to uint16 and
    uint32. The arithmetic on it (``_McModel``'s keys, ``_draw``'s rows,
    ``m_step``'s counts and the posterior gather) runs in intp, so an intp
    copy of the inverse gives the same bytes."""

    CASES = [(9, 400, np.uint16), (17, 70_000, np.uint32)]

    @pytest.mark.parametrize("m, n, dtype", CASES)
    def test_soft_runs_match_an_intp_inverse(self, m, n, dtype):
        import dataclasses

        ids = tuple(f"e{i:02d}" for i in range(m))   # ids sort in row order
        patterns = vote_patterns(stack_from_rows(_distinct_columns(m, n, True), GridKind.SOFT,
                                                 ids=ids))
        assert patterns.inverse.dtype == dtype
        wide = dataclasses.replace(patterns, inverse=patterns.inverse.astype(np.intp))
        for variant in ("simplified", "soft-mc"):
            config = FusionConfig(variant=variant, max_iters=3, mc_samples=8, mc_seed=1)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got, want = (run_soft_em(pats, config) for pats in (patterns, wide))
            assert got.posterior.data.tobytes() == want.posterior.data.tobytes()
            assert got.params.sens.tobytes() == want.params.sens.tobytes()
            assert got.params.spec.tobytes() == want.params.spec.tobytes()
            assert got.ll_trace == want.ll_trace

    @pytest.mark.parametrize("m, n, dtype", CASES)
    def test_binary_steps_on_a_wide_inverse(self, m, n, dtype):
        """Every voxel is its own column, so the steps equal per-voxel sums."""
        from fuselab.staple import _binary_posterior_arrays

        rows = _distinct_columns(m, n, False)
        stack = stack_from_rows(rows, ids=tuple(f"e{i:02d}" for i in range(m)))
        assert vote_patterns(stack).inverse.dtype == dtype
        p = params(np.linspace(0.7, 0.95, m), np.linspace(0.9, 0.8, m))
        w = e_step(stack, p, 0.3)
        np.testing.assert_allclose(w.data, _binary_posterior_arrays(rows, p, 0.3)[1],
                                   rtol=1e-12, atol=1e-15)
        got = m_step(stack, w)
        np.testing.assert_allclose(got.sens, rows @ w.data / w.data.sum(), rtol=1e-12)
        np.testing.assert_allclose(got.spec, (1.0 - rows) @ (1.0 - w.data) / (1.0 - w.data).sum(),
                                   rtol=1e-12)


class TestMonteCarloPaths:
    """A soft voxel with k fractional votes draws its tally with one
    multinomial where 2^k <= samples, else its samples. ``TestMonteCarloSweep``
    checks runs that mix both paths against the oracles."""

    @pytest.mark.parametrize("m", [1, 3, 7])
    def test_tally_draws_match_generator_multinomial(self, m):
        import fuselab.soft_staple as ss

        rng = np.random.default_rng(m)
        voxels = np.array([0, 5, 2**40 + 5, 2**64 - 1], dtype=np.uint64)
        w = rng.random((voxels.size, 2**m))
        w /= w.sum(axis=1, keepdims=True)
        got = ss._mc_tallies(w, voxels, np.arange(voxels.size), 9, seed=2024)
        for j, t in enumerate(voxels):
            key = np.array([2024, int(t)], dtype=np.uint64)
            gen = np.random.Generator(np.random.Philox(key=key))
            np.testing.assert_array_equal(got[j], gen.multinomial(9, w[j]))

    TOP = 2**64 - 1
    EDGE_VOXELS = np.array([0, 1, 2**63 - 1, 2**63, 2**64 - 2, 2**64 - 1], dtype=np.uint64)

    @pytest.mark.parametrize("m", [1, 3, 7])
    def test_top_seed_and_indices_draw_the_generator_streams(self, m):
        """At seed 2^64 - 1 and voxel indices up to 2^64 - 1, both draws are
        numpy's own Generator's on the (seed, voxel) stream, with no warning."""
        import fuselab.soft_staple as ss

        rng = np.random.default_rng(50 + m)
        voxels = self.EDGE_VOXELS
        w = rng.random((3, 2**m))
        w /= w.sum(axis=1, keepdims=True)
        rows = rng.integers(0, 3, voxels.size)
        q = rng.random((m, voxels.size))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tallies = ss._mc_tallies(w, voxels, rows, 9, seed=self.TOP)
            codes = ss._mc_codes(q, voxels, 5, seed=self.TOP)
        bits = ss._code_bits(codes, m).T.reshape(voxels.size, 5, m) == 1.0
        for j, t in enumerate(voxels.tolist()):
            np.testing.assert_array_equal(
                tallies[j], _mc_generator(self.TOP, t).multinomial(9, w[rows[j]]))
            np.testing.assert_array_equal(bits[j], _mc_generator(self.TOP, t).random((5, m))
                                          < q[:, j])

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_voxel_order_carries_no_state(self, seed):
        """The same voxels given reversed or shuffled draw the same rows, so
        nothing carries over from one voxel's stream to the next."""
        import fuselab.soft_staple as ss

        rng = np.random.default_rng(seed % 97)
        m, samples = 4, 7
        voxels = np.concatenate([self.EDGE_VOXELS, rng.integers(0, 2**63, 6, dtype=np.uint64)])
        w = rng.random((voxels.size, 2**m))
        w /= w.sum(axis=1, keepdims=True)
        q = rng.random((m, voxels.size))

        def draw(order):
            tallies = ss._mc_tallies(w, voxels[order], order, samples, seed)
            codes = ss._mc_codes(q[:, order], voxels[order], samples, seed)
            return tallies, codes.reshape(order.size, samples)

        forward = draw(np.arange(voxels.size))
        for order in (np.arange(voxels.size)[::-1], rng.permutation(voxels.size)):
            for got, want in zip(draw(order), forward):
                np.testing.assert_array_equal(got, want[order])

    def test_joint_votes_past_float_range_warn_nothing(self):
        """2^1100 overflows float64. A 1,100-expert continuous stack at 8
        samples draws every voxel sample by sample, with no warning on the way."""
        rng = np.random.default_rng(61)
        q = rng.random((1100, 3))
        p = params(np.full(1100, 0.9), np.full(1100, 0.8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run_em(stack_from_rows(q, GridKind.SOFT),
                         FusionConfig(variant="soft-mc", mc_samples=8, max_iters=2))
            got = mc_soft_e_step_voxel(q[:, 0], p, 0.3, 8, seed=5)
        assert res.iters_run == 2 and res.ll_is_approximate
        assert 0.0 <= got <= 1.0

    def test_tally_estimator_keeps_the_per_sample_distribution(self, monkeypatch):
        """On a k = 3 voxel over 3,000 seeds at 16 samples, the tally path's
        estimates have the exact posterior as mean and the variance sigma^2 /
        16 of a mean of 16 independent joint votes, as the per-sample path's
        do: within 4 standard errors for the mean, and 12% for the variance
        (the sample variance's standard error is about 2.6% here)."""
        import fuselab.soft_staple as ss

        q = np.array([0.3, 1.0, 0.55, 0.0, 0.8])
        p = params([0.9, 0.7, 0.8, 0.85, 0.6], [0.8, 0.9, 0.75, 0.7, 0.95])
        prior, samples, seeds = 0.3, 16, 3000
        frac = [0, 2, 4]
        p1 = []
        w = []
        for code in range(8):
            bits = q.copy()
            bits[frac] = [(code >> b) & 1 for b in range(3)]
            p1.append(posterior_voxel(bits, p, prior))
            w.append(np.prod(np.where(bits[frac] == 1.0, q[frac], 1.0 - q[frac])))
        exact = float(np.dot(w, p1))
        assert exact == pytest.approx(soft_e_step_voxel(q, p, prior), abs=1e-12)
        variance = (float(np.dot(w, np.square(p1))) - exact**2) / samples

        def estimates():
            return np.array([mc_soft_e_step_voxel(q, p, prior, samples, seed=s, voxel_index=3)
                             for s in range(seeds)])

        calls = _spy(monkeypatch)
        tallied = estimates()
        assert len(calls["_mc_tallies"]) == seeds and not calls["_mc_codes"]
        monkeypatch.setattr(ss, "_tallied", lambda k, *_: np.zeros(np.shape(k), bool))
        sampled = estimates()
        assert len(calls["_mc_codes"]) == seeds
        for est in (tallied, sampled):
            assert abs(est.mean() - exact) < 4 * math.sqrt(variance / seeds)
            assert est.var(ddof=1) == pytest.approx(variance, rel=0.12)

    def test_forty_experts_run_the_tally_path(self, monkeypatch):
        """Codes above bit 31 need int64: the fractional votes sit at experts
        30 ... 39, at most three per voxel."""
        rng = np.random.default_rng(53)
        q = (rng.random((40, 24)) < 0.5).astype(float)
        for t in range(24):
            q[30 + rng.choice(10, size=1 + t % 3, replace=False), t] = 0.35
        stack = stack_from_rows(q, GridKind.SOFT)
        calls = _spy(monkeypatch)
        res = run_soft_em(stack, FusionConfig(variant="soft-mc", mc_samples=8, mc_seed=3,
                                              max_iters=2))
        assert calls["_mc_tallies"] and not calls["_mc_codes"]
        qc, pc = TestMonteCarloSweep._canonical(stack, res)
        want = [mc_soft_e_step_voxel(qc[:, t], pc, res.prior, 8, 3, t) for t in range(24)]
        np.testing.assert_allclose(res.posterior.data, want, rtol=0, atol=1e-12)
        brute = [mc_posterior_brute(qc[:, t], pc.sens, pc.spec, res.prior, 8, 3, t)
                 for t in range(24)]
        np.testing.assert_allclose(want, brute, rtol=0, atol=1e-12)
        assert res.ll_trace[-1] == pytest.approx(
            mc_loglik_brute(qc, pc.sens, pc.spec, res.prior, 8, 3), rel=1e-12)


class TestCapacityRefusals:
    """Every size refusal is one ``_refuse_over`` call: a CapacityError that
    names the count and the limit, raised before any enumeration or draw."""

    @pytest.mark.parametrize("variant, limit, value, count", [
        ("soft-exact", "ENUMERATION_GUARD", 4, 5),   # 5 experts
        ("soft-mc", "MC_DRAW_LIMIT", 54, 55),        # 11 samples x 5 experts
        ("soft-mc", "MC_ENTRY_LIMIT", 329, 330),     # 30 voxels x min(11, 2^5)
        ("soft-mc", "_MC_RUN_DRAW_LIMIT", 1649, 1650),  # 30 voxels x 11 x 5
        ("soft-exact", "EXACT_TERM_LIMIT", 31, 32),  # 1 distinct column x 2^5
    ])
    def test_refusal_names_count_and_limit_before_any_work(self, monkeypatch, variant,
                                                          limit, value, count):
        import fuselab.soft_staple as ss

        calls = []
        for name in ("_joint_votes", "_mc_codes", "_mc_tallies"):
            monkeypatch.setattr(ss, name, lambda *a, name=name: calls.append(name))
        monkeypatch.setattr(ss, limit, value)
        stack = stack_from_rows(np.full((5, 30), 0.4), GridKind.SOFT)
        cfg = FusionConfig(variant=variant, mc_samples=11, max_iters=1)
        with pytest.raises(CapacityError, match=rf"^{count} .* the limit of {value}\b"):
            run_soft_em(stack, cfg)
        assert calls == []

    @pytest.mark.parametrize("iters", [1, 30])
    @pytest.mark.parametrize("mode", MSTEP_MODES)
    def test_one_term_bound_for_both_modes(self, monkeypatch, mode, iters):
        """One bound, whatever the M-step mode and iteration count: with the
        limit one under the stack's 32 terms, the run is refused before any
        enumeration; at 32 it is accepted and enumerates once."""
        import fuselab.soft_staple as ss

        calls = _spy(monkeypatch, "_joint_votes")
        stack = stack_from_rows(np.full((5, 30), 0.4), GridKind.SOFT)
        cfg = FusionConfig(variant="soft-exact", max_iters=iters, mstep_mode=mode)
        monkeypatch.setattr(ss, "EXACT_TERM_LIMIT", 31)
        with pytest.raises(CapacityError, match=r"^32 joint-vote terms \(distinct columns x "
                           r"2\^k\) exceed the limit of 31; select variant 'soft-mc' instead$"):
            run_soft_em(stack, cfg)
        assert not calls["_joint_votes"]
        monkeypatch.setattr(ss, "EXACT_TERM_LIMIT", 32)
        run_soft_em(stack, cfg)
        assert len(calls["_joint_votes"]) == 1

    @pytest.mark.parametrize("m, p_frac", [(12, 0.5), (20, 0.25)])
    def test_kept_terms_take_at_most_the_stated_bytes(self, m, p_frac):
        """What the kept chunks hold, measured by tracemalloc as the memory
        freed when they are dropped, is at most the ``EXACT_TERM_LIMIT``
        comment's 12 bytes per term and 8 per distinct column (plus each
        chunk's few hundred bytes of array and tuple headers)."""
        import tracemalloc

        import fuselab.soft_staple as ss

        rng = np.random.default_rng(80 + m)
        u = rng.random((m, 3000))
        q = np.where(u < p_frac, rng.choice([0.2, 0.7], size=u.shape),
                     (u < (1.0 + p_frac) / 2).astype(float))
        patterns = vote_patterns(stack_from_rows(q, GridKind.SOFT))
        cols = patterns.counts.size
        terms = int(np.exp2(((patterns.columns > 0) & (patterns.columns < 1)).sum(0)).sum())
        tracemalloc.start()
        try:
            model = ss._ExactModel(patterns, 0.3)
            chunks = len(model.chunks)
            built = tracemalloc.get_traced_memory()[0]
            del model.chunks
            kept = built - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert terms > 50 * cols  # the terms, not the columns, dominate
        assert kept <= 12 * terms + 8 * cols + 512 * chunks
        assert kept >= (8 + (2 if m <= 16 else 4)) * terms  # all kept, nothing missed

    def test_unit_votes_take_at_most_the_stated_bytes(self, monkeypatch):
        """On continuous votes nearly every entry is its own unit, so at 40
        experts the unit votes bind before the entries do. One voxel more
        than the limit accepts is refused. The largest accepted run, 2
        iterations, peaks by tracemalloc within README's 57 bytes per entry
        plus 24 per unit vote, and above the 8 bytes per unit vote it keeps."""
        import tracemalloc

        import fuselab.soft_staple as ss

        monkeypatch.setattr(ss, "MC_ENTRY_LIMIT", 2**20)
        m, samples = 40, 64
        n = 2**20 // (m * samples)
        q = np.random.default_rng(7).random((m, n + 1))
        cfg = FusionConfig(variant="soft-mc", mc_samples=samples, max_iters=2, tol=1e-300)
        with pytest.raises(CapacityError, match=rf"^{(n + 1) * samples * m} unit votes "
                           r"\(experts x min\(2\^m, hard columns \+ entries\)\) exceed"):
            run_soft_em(stack_from_rows(q, GridKind.SOFT), cfg)
        stack = stack_from_rows(q[:, :n], GridKind.SOFT)
        entries = n * samples
        tracemalloc.start()
        try:
            run_soft_em(stack, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 8 * m * entries < peak <= 57 * entries + 24 * m * entries

    @pytest.mark.parametrize("limit, count", [
        ("MC_ENTRY_LIMIT", 960),      # 30 voxels x min(40, 2^5)
        ("_MC_RUN_DRAW_LIMIT", 960),  # 30 voxels x 2^5, not 30 x 40 x 5
    ])
    def test_tally_path_counts_its_work(self, monkeypatch, limit, count):
        """At 40 samples, 5 fractional votes take the tally path: its count is
        refused one under the limit before any enumeration or draw, and at the
        limit the run draws tallies only."""
        import fuselab.soft_staple as ss

        calls = _spy(monkeypatch, "_joint_votes", "_mc_codes", "_mc_tallies")
        stack = stack_from_rows(np.full((5, 30), 0.4), GridKind.SOFT)
        cfg = FusionConfig(variant="soft-mc", mc_samples=40, max_iters=1)
        monkeypatch.setattr(ss, limit, count - 1)
        with pytest.raises(CapacityError, match=rf"^{count} .* the limit of {count - 1}\b"):
            run_soft_em(stack, cfg)
        assert not any(calls.values())
        monkeypatch.setattr(ss, limit, count)
        run_soft_em(stack, cfg)
        assert [len(calls[name]) for name in calls] == [1, 0, 1]


class TestPublicInputChecks:
    """Every public step function refuses a prior outside (0, 1) and
    parameters for another number of experts with a ConfigError."""

    STACK_STEPS = [e_step, log_likelihood, soft_e_step, soft_log_likelihood, soft_m_step,
                   simple_e_step, simple_log_likelihood, simple_m_step]
    # Named by hand: simple_e_step and simple_log_likelihood are e_step's and
    # log_likelihood's aliases, so they share their __name__.
    STEP_IDS = ["e_step", "log_likelihood", "soft_e_step", "soft_log_likelihood",
                "soft_m_step", "simple_e_step", "simple_log_likelihood", "simple_m_step"]

    @staticmethod
    def _stack():
        return stack_from_rows([[0.0, 0.3, 1.0, 1.0], [1.0, 1.0, 0.0, 0.3],
                                [0.0, 1.0, 0.3, 0.0]], GridKind.SOFT)

    @pytest.mark.parametrize("step", STACK_STEPS, ids=STEP_IDS)
    @pytest.mark.parametrize("m", [2, 5])
    def test_stack_steps_refuse_another_expert_count(self, step, m):
        with pytest.raises(ConfigError, match=f"parameters for {m} experts given for 3"):
            step(self._stack(), params(np.full(m, 0.9), np.full(m, 0.8)), 0.3)

    @pytest.mark.parametrize("step", STACK_STEPS, ids=STEP_IDS)
    @pytest.mark.parametrize("prior", [0.0, 1.5, math.nan, "0.3x", None])
    def test_stack_steps_refuse_a_bad_prior(self, step, prior):
        with pytest.raises(ConfigError, match="prior must be in"):
            step(self._stack(), params(np.full(3, 0.9), np.full(3, 0.8)), prior)

    @pytest.mark.parametrize("step", [
        posterior_voxel, soft_e_step_voxel, simple_e_step_voxel,
        lambda q, p, prior: mc_soft_e_step_voxel(q, p, prior, 50, seed=1),
    ], ids=["posterior_voxel", "soft_e_step_voxel", "simple_e_step_voxel",
            "mc_soft_e_step_voxel"])
    @pytest.mark.parametrize("prior", [0.0, 1.0, 1.5, -0.2, math.nan])
    def test_voxel_steps_refuse_a_bad_prior(self, step, prior):
        with pytest.raises(ConfigError, match="prior must be in"):
            step([0.3, 1.0, 0.6], params(np.full(3, 0.9), np.full(3, 0.8)), prior)

    @pytest.mark.parametrize("step", [
        lambda q, p: posterior_voxel(q, p, 0.3),
        lambda q, p: soft_e_step_voxel(q, p, 0.3),
        lambda q, p: simple_e_step_voxel(q, p, 0.3),
        lambda q, p: mc_soft_e_step_voxel(q, p, 0.3, 50, seed=1),
    ], ids=["posterior_voxel", "soft_e_step_voxel", "simple_e_step_voxel",
            "mc_soft_e_step_voxel"])
    @pytest.mark.parametrize("bad", [1.5, -0.5, math.nan])
    @pytest.mark.parametrize("at", [0, 2])
    def test_voxel_steps_refuse_a_vote_outside_0_1(self, step, bad, at):
        """A vote above 1, below 0 or NaN is refused, not read as 0 or 1."""
        q = [0.0, 0.2, 1.0]
        q[at] = bad
        with pytest.raises(ConfigError, match=r"votes must lie in \[0, 1\]"):
            step(q, params(np.full(3, 0.9), np.full(3, 0.8)))

    @pytest.mark.parametrize("step", [
        lambda q, p: posterior_voxel(q, p, 0.3),
        lambda q, p: soft_e_step_voxel(q, p, 0.3),
        lambda q, p: simple_e_step_voxel(q, p, 0.3),
        lambda q, p: mc_soft_e_step_voxel(q, p, 0.3, 50, seed=1),
    ], ids=["posterior_voxel", "soft_e_step_voxel", "simple_e_step_voxel",
            "mc_soft_e_step_voxel"])
    @pytest.mark.parametrize("n", [0, 2, 4])
    def test_voxel_steps_refuse_another_vote_count(self, step, n):
        with pytest.raises(ConfigError, match=f"^{n} votes for 3 experts$"):
            step(np.full(n, 0.4), params(np.full(3, 0.9), np.full(3, 0.8)))


class TestNoisyChannel:
    """With one expert, the channel sees a soft vote q as a hard 1 with
    probability q: p(q | x=1) = q sens + (1 - q)(1 - sens), p(q | x=0) =
    q (1 - spec) + (1 - q) spec."""

    def test_degenerate_input(self):
        assert simple_e_step_voxel([1.0], params(0.8, 0.9), 0.4) == pytest.approx(
            0.4 * 0.8 / (0.4 * 0.8 + 0.6 * 0.1), rel=1e-12)
        assert simple_e_step_voxel([0.0], params(0.8, 0.9), 0.4) == pytest.approx(
            0.4 * 0.2 / (0.4 * 0.2 + 0.6 * 0.9), rel=1e-12)

    def test_mixture_value(self):
        l1 = 0.3 * 0.8 + 0.7 * 0.2
        l0 = 0.3 * 0.3 + 0.7 * 0.7
        got = simple_e_step_voxel([0.3], params(0.8, 0.7), 0.4)
        assert got == pytest.approx(0.4 * l1 / (0.4 * l1 + 0.6 * l0), rel=1e-12)

    @pytest.mark.parametrize("s", [0.6, 0.9])
    def test_half_vote_symmetric_rater(self, s):
        assert simple_e_step_voxel([0.5], params(s, s), 0.35) == pytest.approx(0.35, rel=1e-12)

    @pytest.mark.parametrize("q", [0.3, 0.8])
    def test_exact_soft_averages_posteriors_not_likelihoods(self, q):
        """The exact soft step is the q-weighted mean of the two hard
        posteriors; the channel mixes the likelihoods, and differs from it
        wherever the hard vote 1 is not as likely as 0 (here p(y=1) = 0.4)."""
        p = params(0.8, 0.7)
        post1, post0 = posterior_voxel([1.0], p, 0.2), posterior_voxel([0.0], p, 0.2)
        exact = soft_e_step_voxel([q], p, 0.2)
        assert exact == pytest.approx(q * post1 + (1 - q) * post0, rel=1e-12)
        assert abs(simple_e_step_voxel([q], p, 0.2) - exact) > 1e-3


class TestSimplifiedEStep:
    def test_uninformative_returns_prior(self):
        m = 4
        p = params(np.full(m, 0.8), np.full(m, 0.8))
        got = simple_e_step_voxel(np.full(m, 0.5), p, 0.23)
        assert got == pytest.approx(0.23, abs=1e-12)

    def test_degenerate_equals_hard_posterior(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            m = int(rng.integers(1, 6))
            votes = (rng.random(m) > 0.5).astype(float)
            p = params(rng.uniform(0.6, 0.95, m), rng.uniform(0.6, 0.95, m))
            prior = float(rng.uniform(0.1, 0.9))
            got = simple_e_step_voxel(votes, p, prior)
            assert got == pytest.approx(posterior_voxel(votes, p, prior), abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            q = rng.random(7)
            p = params(rng.uniform(0.55, 0.98, 7), rng.uniform(0.55, 0.98, 7))
            prior = float(rng.uniform(0.05, 0.95))
            got = simple_e_step_voxel(q, p, prior)
            want = simple_posterior_brute(q, p.sens, p.spec, prior)
            assert got == pytest.approx(want, abs=1e-12)


class TestSimplifiedLogLikelihood:
    def test_degenerate_reduces_to_binary(self):
        rng = np.random.default_rng(15)
        stack = random_binary_stack(rng, m=3, n=12)
        soft = stack_from_rows(stack.as_matrix(), GridKind.SOFT)
        p = params(rng.uniform(0.6, 0.9, 3), rng.uniform(0.6, 0.9, 3))
        assert simple_log_likelihood(soft, p, 0.3) == pytest.approx(
            log_likelihood(stack, p, 0.3), rel=1e-12
        )

    def test_hand_value(self):
        stack = stack_from_rows([[0.5]], GridKind.SOFT)
        assert simple_log_likelihood(stack, params(0.5, 0.5), 0.5) == pytest.approx(
            math.log(0.5), rel=1e-12
        )

    def test_additive_over_voxels(self):
        rng = np.random.default_rng(16)
        q = rng.random((3, 8))
        p = params(rng.uniform(0.6, 0.9, 3), rng.uniform(0.6, 0.9, 3))
        single = simple_log_likelihood(stack_from_rows(q, GridKind.SOFT), p, 0.4)
        doubled = simple_log_likelihood(
            stack_from_rows(np.tile(q, 2), GridKind.SOFT), p, 0.4
        )
        assert doubled == pytest.approx(2 * single, rel=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(17)
        q = rng.random((4, 9))
        sens = rng.uniform(0.6, 0.95, 4)
        spec = rng.uniform(0.6, 0.95, 4)
        got = simple_log_likelihood(stack_from_rows(q, GridKind.SOFT), params(sens, spec), 0.3)
        assert got == pytest.approx(simple_loglik_brute(q, sens, spec, 0.3), rel=1e-10)


class TestEnumerationPaths:
    """The grouped (unique-column) and streamed engines must agree."""

    def test_dense_chunked_path_matches_grouped(self, monkeypatch):
        import fuselab.soft_staple as ss

        rng = np.random.default_rng(30)
        q = rng.random((5, 90))
        soft = stack_from_rows(q, GridKind.SOFT)
        p = params(rng.uniform(0.6, 0.9, 5), rng.uniform(0.6, 0.9, 5))
        grouped_w = soft_e_step(soft, p, 0.3)
        grouped_ll = soft_log_likelihood(soft, p, 0.3)
        grouped_m = soft_m_step(soft, p, 0.3)

        monkeypatch.setattr(ss, "_CELL_BUDGET", 256)  # a few voxels per chunk
        dense_w = soft_e_step(soft, p, 0.3)
        dense_ll = soft_log_likelihood(soft, p, 0.3)
        dense_m = soft_m_step(soft, p, 0.3)

        np.testing.assert_allclose(dense_w.data, grouped_w.data, atol=1e-12)
        assert dense_ll == pytest.approx(grouped_ll, rel=1e-12)
        np.testing.assert_allclose(dense_m.sens, grouped_m.sens, atol=1e-12)
        np.testing.assert_allclose(dense_m.spec, grouped_m.spec, atol=1e-12)

    @pytest.mark.parametrize("budget", [1, 8])
    def test_every_fractional_count_against_oracles(self, monkeypatch, budget):
        """m=6 columns with every count k = 0..6 of fractional votes: all
        3^6 columns over {0, 0.3, 1}, some twice, plus one continuous column,
        enumerated in chunks of at most ``budget`` terms."""
        import fuselab.soft_staple as ss

        levels = np.array(list(itertools.product([0.0, 0.3, 1.0], repeat=6))).T
        q = np.hstack([levels, levels[:, ::17], [[0.15], [0.42], [0.77], [0.05], [0.6], [0.91]]])
        soft = stack_from_rows(q, GridKind.SOFT)
        sens = np.array([0.62, 0.71, 0.93, 0.85, 0.58, 0.77])
        spec = np.array([0.88, 0.66, 0.74, 0.95, 0.81, 0.69])
        p = params(sens, spec)
        monkeypatch.setattr(ss, "_CELL_BUDGET", budget)

        want_w = [soft_posterior_brute(q[:, t], sens, spec, 0.3) for t in range(q.shape[1])]
        np.testing.assert_allclose(soft_e_step(soft, p, 0.3).data, want_w, rtol=0, atol=1e-12)
        voxel_w = [soft_e_step_voxel(q[:, t], p, 0.3) for t in range(q.shape[1])]
        np.testing.assert_allclose(voxel_w, want_w, rtol=0, atol=1e-12)
        assert soft_log_likelihood(soft, p, 0.3) == pytest.approx(
            soft_loglik_brute(q, sens, spec, 0.3), rel=1e-10)
        for mode, (want_sens, want_spec) in (
            ("expected-count", soft_expected_count_mstep_brute(q, sens, spec, 0.3)),
            ("plugin-mean", plugin_mstep_brute(q, want_w)),
        ):
            got = soft_m_step(soft, p, 0.3, mode)
            np.testing.assert_allclose(got.sens, want_sens, atol=1e-12)
            np.testing.assert_allclose(got.spec, want_spec, atol=1e-12)

    @pytest.mark.parametrize("budget", [8, 2**18])
    @pytest.mark.parametrize("mode", MSTEP_MODES)
    def test_kept_chunks_match_a_fresh_enumeration(self, monkeypatch, mode, budget):
        """Every per-column posterior a run reads from its kept chunks (each
        plug-in M-step's and the final one) is bit-equal to a fresh
        enumeration's, on random soft stacks of mixed fractional counts."""
        import fuselab.soft_staple as ss

        monkeypatch.setattr(ss, "_CELL_BUDGET", budget)
        posteriors = ss._ExactModel.posteriors
        checked = []

        def checking(model, ev, labels=(0, 1)):
            got = posteriors(model, ev, labels)
            want = exact_posteriors_enumerated(model, ev, labels)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            checked.append(labels)
            return got

        monkeypatch.setattr(ss._ExactModel, "posteriors", checking)
        rng = np.random.default_rng(33)
        for m in (3, 7, 10):
            u = rng.random((m, 400))
            q = np.where(u < 0.4, rng.random(u.shape), (u < 0.7).astype(float))
            checked.clear()
            run_soft_em(stack_from_rows(q, GridKind.SOFT),
                        FusionConfig(variant="soft-exact", mstep_mode=mode, max_iters=4,
                                     tol=1e-300))
            assert len(checked) == (5 if mode == "plugin-mean" else 1)

    def test_many_experts_few_fractional_votes_stay_small(self):
        """m=20 with about two fractional votes per column: the posterior is
        evaluated at the hard-vote codes that occur, not tabled over 2^20."""
        import tracemalloc

        rng = np.random.default_rng(32)
        u = rng.random((20, 2000))
        q = np.where(u < 0.1, 0.3, np.where(u < 0.4, 1.0, 0.0))
        soft = stack_from_rows(q, GridKind.SOFT)
        tracemalloc.start()
        try:
            res = run_soft_em(soft, FusionConfig(variant="soft-exact", max_iters=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        p = res.params
        for t in range(3):
            frac = np.flatnonzero(q[:, t] == 0.3)
            want = 0.0
            for bits in itertools.product([0.0, 1.0], repeat=frac.size):
                hard = q[:, t].copy()
                hard[frac] = bits
                weight = np.prod(np.where(np.array(bits) == 1.0, 0.3, 0.7))
                want += weight * posterior_voxel(hard, p, res.prior)
            assert res.posterior.data[t] == pytest.approx(want, abs=1e-12)
            assert soft_e_step_voxel(q[:, t], p, res.prior) == pytest.approx(want, abs=1e-12)

    def test_grid_estep_matches_voxel_op(self):
        rng = np.random.default_rng(31)
        q = rng.random((4, 25))
        soft = stack_from_rows(q, GridKind.SOFT)
        p = params(rng.uniform(0.6, 0.9, 4), rng.uniform(0.6, 0.9, 4))
        w = soft_e_step(soft, p, 0.4)
        for t in range(25):
            assert w.data[t] == pytest.approx(
                soft_e_step_voxel(q[:, t], p, 0.4), abs=1e-12
            )


class TestRunSoftEm:
    def _hard_pair(self, seed, m=4, n=40):
        stack = random_binary_stack(np.random.default_rng(seed), m=m, n=n)
        soft = stack_from_rows(stack.as_matrix(), GridKind.SOFT)
        return stack, soft

    @pytest.mark.parametrize("variant", ["soft-exact", "soft-mc", "simplified"])
    def test_degenerate_runs_match_binary_per_iteration(self, variant):
        for seed in range(3):
            stack, soft = self._hard_pair(seed)
            for iters in (1, 2, 5):
                cfg_b = FusionConfig(max_iters=iters, tol=1e-300)
                cfg_s = FusionConfig(
                    variant=variant, max_iters=iters, tol=1e-300, mc_samples=11
                )
                rb = run_em(stack, cfg_b)
                rs = run_soft_em(soft, cfg_s)
                np.testing.assert_allclose(
                    rs.posterior.data, rb.posterior.data, atol=1e-10
                )
                np.testing.assert_allclose(rs.params.sens, rb.params.sens, atol=1e-10)
                np.testing.assert_allclose(rs.params.spec, rb.params.spec, atol=1e-10)

    def test_stepwise_ops_match_binary_on_hard_votes(self):
        stack, soft = self._hard_pair(11)
        prior = 0.3
        pb = ps_exact = ps_simple = params([0.9] * 4, [0.9] * 4)
        for _ in range(4):
            wb = e_step(stack, pb, prior)
            we = soft_e_step(soft, ps_exact, prior)
            ws = simple_e_step(soft, ps_simple, prior)
            np.testing.assert_allclose(we.data, wb.data, atol=1e-12)
            np.testing.assert_allclose(ws.data, wb.data, atol=1e-12)
            pb = m_step(stack, wb)
            ps_exact = soft_m_step(soft, ps_exact, prior, "expected-count")
            ps_simple = simple_m_step(soft, ps_simple, prior, "expected-count")
            np.testing.assert_allclose(ps_exact.sens, pb.sens, atol=1e-12)
            np.testing.assert_allclose(ps_simple.spec, pb.spec, atol=1e-12)

    @pytest.mark.parametrize("variant", ["soft-exact", "simplified"])
    def test_objective_monotone_on_soft_data(self, variant):
        rng = np.random.default_rng(18)
        soft = random_soft_stack(rng, m=4, n=120)
        res = run_soft_em(soft, FusionConfig(variant=variant, max_iters=50))
        assert_monotone(res.ll_trace)
        assert not res.ll_is_approximate

    def test_exact_guard_recommends_mc(self):
        rng = np.random.default_rng(19)
        soft = random_soft_stack(rng, m=21, n=4)
        with pytest.raises(CapacityError):
            run_soft_em(soft, FusionConfig(variant="soft-exact", max_iters=2))

    def test_mc_beyond_guard_flags_approximate_objective(self):
        rng = np.random.default_rng(20)
        soft = random_soft_stack(rng, m=21, n=4)
        res = run_soft_em(
            soft, FusionConfig(variant="soft-mc", mc_samples=40, max_iters=2)
        )
        assert res.ll_is_approximate
        assert res.iters_run == 2

    def test_recovers_effective_channel_parameters(self):
        from fuselab import (
            Dim3,
            PhantomSpec,
            RaterSpec,
            generate_phantom,
            simulate_raters,
            soften_votes,
        )
        from fuselab.metrics import param_recovery_error

        blur = 0.1
        spec = PhantomSpec(Dim3(20, 20, 20), (((10, 10, 10), 5.0),), seed=3)
        truth, _ = generate_phantom(spec)
        sens = np.array([0.85, 0.9, 0.8])
        specif = np.array([0.9, 0.85, 0.88])
        raters = [
            RaterSpec(f"r{i}", float(s), float(p), seed=40 + i)
            for i, (s, p) in enumerate(zip(sens, specif))
        ]
        soft = soften_votes(simulate_raters(truth, raters), blur)
        res = run_soft_em(
            soft,
            FusionConfig(variant="soft-exact", prior=float(truth.data.mean()), tol=1e-5),
        )
        target = RaterParams(
            (1 - blur) * sens + blur * (1 - sens),
            (1 - blur) * specif + blur * (1 - specif),
        )
        rec = param_recovery_error(res.params, target)
        assert rec.error <= 0.04
        assert not rec.swapped

    def test_binary_stack_rejected(self):
        rng = np.random.default_rng(21)
        stack = random_binary_stack(rng, m=2, n=6)
        with pytest.raises(ConfigError):
            run_soft_em(stack, FusionConfig(variant="soft-exact"))

    def test_plugin_mean_mode_runs(self):
        rng = np.random.default_rng(22)
        soft = random_soft_stack(rng, m=3, n=50)
        res = run_soft_em(
            soft, FusionConfig(variant="soft-exact", mstep_mode="plugin-mean")
        )
        assert np.all(res.posterior.data >= 0.0)
        assert np.all(res.posterior.data <= 1.0)

    def test_normalized_posterior(self):
        rng = np.random.default_rng(23)
        soft = random_soft_stack(rng, m=5, n=80)
        for variant in ("soft-exact", "simplified"):
            res = run_soft_em(soft, FusionConfig(variant=variant, max_iters=10))
            w = res.posterior.data
            assert np.all((w >= 0.0) & (w <= 1.0))
            np.testing.assert_allclose(w + (1.0 - w), 1.0, atol=1e-12)
