"""Binary EM fusion: voxel math against hand values and brute-force
oracles, loop contracts, and the model's symmetry properties."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from fuselab import (
    Dim3,
    ExpertStack,
    FusionConfig,
    GridKind,
    PhantomSpec,
    RaterParams,
    VolumeGrid,
    binarize,
    e_step,
    log_likelihood,
    m_step,
    mc_soft_e_step_voxel,
    posterior_voxel,
    run_em,
    simple_e_step_voxel,
    soft_e_step_voxel,
)
from fuselab.errors import ConfigError, DegeneratePosteriorError, ValueRangeError
from fuselab.staple import CLAMP_LO, _posterior_grid, vote_patterns
from helpers import assert_monotone, grid, random_binary_stack, stack_from_rows
from oracles import loglik_brute, mean_vote_prior, posterior_brute


def params(sens, spec):
    return RaterParams(np.atleast_1d(sens), np.atleast_1d(spec))


class TestHardLikelihood:
    """On hard votes every voxel step is Bayes over the product likelihood
    p(y | x=1) = prod sens^y (1 - sens)^(1 - y), p(y | x=0) likewise with spec."""

    STEPS = pytest.mark.parametrize("step", [
        posterior_voxel, soft_e_step_voxel, simple_e_step_voxel,
        lambda q, p, prior: mc_soft_e_step_voxel(q, p, prior, 3, seed=0),
    ], ids=["posterior_voxel", "soft_e_step_voxel", "simple_e_step_voxel",
            "mc_soft_e_step_voxel"])

    @STEPS
    def test_two_expert_product(self, step):
        l1 = 0.6 * (1 - 0.6)
        l0 = (1 - 0.8) * 0.7
        got = step([1.0, 0.0], params([0.6, 0.6], [0.8, 0.7]), 0.4)
        assert got == pytest.approx(0.4 * l1 / (0.4 * l1 + 0.6 * l0), rel=1e-12)

    @STEPS
    def test_uninformative_raters(self, step):
        p = params([0.5] * 4, [0.5] * 4)
        for votes in ([1.0, 0.0, 1.0, 1.0], [0.0] * 4, [1.0] * 4):
            assert step(votes, p, 0.27) == pytest.approx(0.27, rel=1e-12)


class TestPosteriorVoxel:
    def test_uninformative_expert_returns_prior(self):
        for vote in (0.0, 1.0):
            assert posterior_voxel([vote], params(0.5, 0.5), 0.3) == pytest.approx(
                0.3, rel=1e-12
            )

    def test_hand_bayes_rare_prior(self):
        w = posterior_voxel([1.0], params(0.9, 0.9), 0.01)
        assert w == pytest.approx(0.009 / (0.009 + 0.099), rel=1e-9)

    def test_hand_bayes_three_experts(self):
        w = posterior_voxel([1.0, 1.0, 1.0], params([0.9] * 3, [0.9] * 3), 0.5)
        assert w == pytest.approx(0.729 / (0.729 + 0.001), rel=1e-9)

    def test_against_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            m = int(rng.integers(1, 4))
            votes = (rng.random(m) > 0.5).astype(float)
            sens = rng.uniform(0.55, 0.98, m)
            spec = rng.uniform(0.55, 0.98, m)
            prior = float(rng.uniform(0.05, 0.95))
            got = posterior_voxel(votes, params(sens, spec), prior)
            want = posterior_brute(votes, sens, spec, prior)
            assert got == pytest.approx(want, abs=1e-12)

    def test_bad_prior(self):
        with pytest.raises(ConfigError):
            posterior_voxel([1.0], params(0.9, 0.9), 0.0)


class TestEStep:
    def test_matches_voxel_posterior(self):
        rng = np.random.default_rng(11)
        stack = random_binary_stack(rng, m=3, n=12)
        p = params(rng.uniform(0.6, 0.95, 3), rng.uniform(0.6, 0.95, 3))
        w = e_step(stack, p, 0.25)
        votes = stack.as_matrix()
        for t in range(12):
            assert w.data[t] == pytest.approx(
                posterior_voxel(votes[:, t], p, 0.25), abs=1e-12
            )

    def test_unanimous_foreground_beats_prior(self):
        stack = stack_from_rows(np.ones((3, 5)))
        w = e_step(stack, params([0.9] * 3, [0.9] * 3), 0.2)
        assert np.all(w.data > 0.2)

    def test_uniform_raters_return_prior(self):
        rng = np.random.default_rng(2)
        stack = random_binary_stack(rng, m=4, n=20)
        w = e_step(stack, params([0.5] * 4, [0.5] * 4), 0.37)
        np.testing.assert_allclose(w.data, 0.37, atol=1e-12)

    def test_identity_reliable_expert_reproduces_mask(self):
        rng = np.random.default_rng(3)
        mask = (rng.random(30) > 0.5).astype(float)
        stack = stack_from_rows(mask[None, :])
        w = e_step(stack, params(1.0, 1.0), 0.5)
        assert np.max(np.abs(w.data - mask)) < 1e-6


class TestMStep:
    def test_perfect_agreement(self):
        stack = stack_from_rows([[1.0, 1.0, 0.0, 0.0]])
        w = grid([1.0, 1.0, 0.0, 0.0], GridKind.POSTERIOR)
        p = m_step(stack, w)
        assert p.sens[0] == pytest.approx(1.0, abs=1e-6)
        assert p.spec[0] == pytest.approx(1.0, abs=1e-6)

    def test_uninformative_posterior(self):
        stack = stack_from_rows([[1.0, 0.0, 1.0, 0.0]])
        w = grid([0.5] * 4, GridKind.POSTERIOR)
        p = m_step(stack, w)
        assert p.sens[0] == pytest.approx(0.5, rel=1e-12)
        assert p.spec[0] == pytest.approx(0.5, rel=1e-12)

    def test_collapsed_background_mass(self):
        stack = stack_from_rows([[1.0, 1.0, 1.0]])
        w = grid([1.0, 1.0, 1.0], GridKind.POSTERIOR)
        with pytest.raises(DegeneratePosteriorError) as err:
            m_step(stack, w)
        assert err.value.side == "specificity"

    def test_collapsed_foreground_mass(self):
        stack = stack_from_rows([[0.0, 0.0, 0.0]])
        w = grid([0.0, 0.0, 0.0], GridKind.POSTERIOR)
        with pytest.raises(DegeneratePosteriorError) as err:
            m_step(stack, w)
        assert err.value.side == "sensitivity"


class TestLogLikelihood:
    def test_single_voxel_hand_value(self):
        stack = stack_from_rows([[1.0]])
        assert log_likelihood(stack, params(0.5, 0.5), 0.5) == pytest.approx(
            math.log(0.5), rel=1e-12
        )

    def test_additive_over_voxel_concatenation(self):
        rng = np.random.default_rng(4)
        rows = (rng.random((3, 10)) > 0.6).astype(float)
        p = params(rng.uniform(0.6, 0.9, 3), rng.uniform(0.6, 0.9, 3))
        single = log_likelihood(stack_from_rows(rows), p, 0.3)
        doubled = log_likelihood(stack_from_rows(np.tile(rows, 2)), p, 0.3)
        assert doubled == pytest.approx(2 * single, rel=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(8)
        rows = (rng.random((2, 9)) > 0.5).astype(float)
        sens = rng.uniform(0.6, 0.95, 2)
        spec = rng.uniform(0.6, 0.95, 2)
        got = log_likelihood(stack_from_rows(rows), params(sens, spec), 0.4)
        assert got == pytest.approx(loglik_brute(rows, sens, spec, 0.4), rel=1e-12)

    def test_no_ascent_direction_at_convergence(self):
        rng = np.random.default_rng(17)
        stack = random_binary_stack(rng, m=3, n=64)
        res = run_em(stack, FusionConfig(tol=1e-12, max_iters=500))
        ll_star = log_likelihood(stack, res.params, res.prior)
        for _ in range(50):
            step = rng.uniform(-1e-6, 1e-6, size=(2, 3))
            perturbed = RaterParams(
                np.clip(res.params.sens + step[0], 1e-7, 1 - 1e-7),
                np.clip(res.params.spec + step[1], 1e-7, 1 - 1e-7),
            )
            ll = log_likelihood(stack, perturbed, res.prior)
            assert ll <= ll_star + 1e-9 * abs(ll_star)


class TestRunEm:
    def test_unanimous_experts_reach_fixed_point(self):
        rng = np.random.default_rng(5)
        mask = (rng.random(40) > 0.6).astype(float)
        stack = stack_from_rows(np.tile(mask, (3, 1)))
        res = run_em(stack)
        assert binarize(res.posterior) == grid(mask)
        assert np.all(res.params.sens >= 1 - 1e-6)
        assert np.all(res.params.spec >= 1 - 1e-6)

    def test_single_iteration_contract(self):
        rng = np.random.default_rng(6)
        stack = random_binary_stack(rng, m=3, n=50)
        res = run_em(stack, FusionConfig(max_iters=1))
        assert res.iters_run == 1
        assert len(res.ll_trace) == 1
        assert not res.converged

    def test_auto_prior_is_grand_vote_mean(self):
        rows = np.array([[1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0]])
        stack = stack_from_rows(rows)
        assert mean_vote_prior(rows) == pytest.approx(3 / 8)
        res = run_em(stack, FusionConfig(max_iters=2))
        assert res.prior == pytest.approx(3 / 8)

    def test_fixed_prior_honored(self):
        rng = np.random.default_rng(9)
        stack = random_binary_stack(rng, m=3, n=30)
        res = run_em(stack, FusionConfig(prior=0.125, max_iters=2))
        assert res.prior == 0.125

    def test_recovers_simulator_parameters(self):
        from fuselab import RaterSpec, generate_phantom, simulate_raters
        from fuselab.metrics import param_recovery_error

        spec = PhantomSpec(
            Dim3(24, 24, 24), (((12, 12, 12), 6.0),), seed=13
        )
        truth, _ = generate_phantom(spec)
        true_sens = [0.85, 0.9, 0.8, 0.92, 0.88]
        true_spec = [0.9, 0.85, 0.93, 0.88, 0.9]
        raters = [
            RaterSpec(f"r{i}", s, p, seed=100 + i)
            for i, (s, p) in enumerate(zip(true_sens, true_spec))
        ]
        stack = simulate_raters(truth, raters)
        # the harness knows the generating prevalence; the vote-mean AUTO
        # prior is inflated by false-positive mass at these specificities
        res = run_em(stack, FusionConfig(prior=float(truth.data.mean())))
        rec = param_recovery_error(res.params, RaterParams(true_sens, true_spec))
        assert rec.error <= 0.03
        assert not rec.swapped

    @pytest.mark.parametrize("field, value", [
        ("max_iters", 2.5), ("max_iters", True), ("max_iters", "3"),
        ("mc_samples", 100.0), ("mc_samples", True), ("mc_seed", 1.5), ("mc_seed", False),
    ])
    def test_integer_fields_refuse_other_types(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            FusionConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("tol", "1e-6"), ("tol", True), ("init_sens", "0.9"), ("init_spec", None),
    ])
    def test_number_fields_refuse_other_types(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be a number"):
            FusionConfig(**{field: value})

    def test_integer_fields_take_numpy_integers(self):
        stack = random_binary_stack(np.random.default_rng(6), m=3, n=20)
        res = run_em(stack, FusionConfig(max_iters=np.int64(3), tol=1e-300,
                                         mc_samples=np.int32(5), mc_seed=np.uint8(2)))
        assert res.iters_run == 3

    def test_soft_stack_rejected(self):
        stack = stack_from_rows([[0.5, 0.5]], GridKind.SOFT)
        with pytest.raises(ConfigError):
            run_em(stack)

    @pytest.mark.parametrize("m, prior", [(10, "auto"), (20, "auto"), (20, 0.01)])
    @pytest.mark.parametrize("mode", ["expected-count", "plugin-mean"])
    def test_empty_case_fuses(self, m, prior, mode):
        # Raters that all mark nothing leave a label-1 mass far below the
        # label-0 mass (about 3e-17 per voxel at m=10 and the auto prior),
        # but not zero: sensitivity stays determined.
        stack = stack_from_rows(np.zeros((m, 8)))
        res = run_em(stack, FusionConfig(prior=prior, mstep_mode=mode))
        assert res.converged
        np.testing.assert_array_equal(res.params.sens, np.full(m, CLAMP_LO))
        assert np.all(res.posterior.data < 0.5)

    def test_degenerate_run_attaches_partial_trace(self):
        # 20 unanimous all-ones experts push the posterior to exactly 1.0.
        stack = stack_from_rows(np.ones((20, 2)))
        with pytest.raises(DegeneratePosteriorError) as err:
            run_em(stack)
        assert err.value.side == "specificity"
        assert isinstance(err.value.ll_trace, tuple)


class TestModelProperties:
    def test_posterior_in_unit_interval_and_trace_monotone(self):
        rng = np.random.default_rng(10)
        for seed in range(5):
            stack = random_binary_stack(np.random.default_rng(seed), m=4, n=100)
            res = run_em(stack)
            assert np.all(res.posterior.data >= 0.0)
            assert np.all(res.posterior.data <= 1.0)
            assert_monotone(res.ll_trace)

    def test_expert_permutation_equivariance_exact(self):
        rng = np.random.default_rng(12)
        rows = (rng.random((4, 60)) < 0.4).astype(float)
        ids = ("anna", "bob", "carol", "dan")
        stack = stack_from_rows(rows, ids=ids)
        perm = [2, 0, 3, 1]
        shuffled = ExpertStack(tuple(stack.experts[i] for i in perm), tuple(ids[i] for i in perm))
        r1 = run_em(stack)
        r2 = run_em(shuffled)
        assert np.array_equal(r1.posterior.data, r2.posterior.data)
        np.testing.assert_array_equal(r1.params.sens[perm], r2.params.sens)
        np.testing.assert_array_equal(r1.params.spec[perm], r2.params.spec)

    def test_voxel_relabeling_invariance(self):
        rng = np.random.default_rng(13)
        rows = (rng.random((3, 80)) < 0.35).astype(float)
        perm = rng.permutation(80)
        r1 = run_em(stack_from_rows(rows))
        r2 = run_em(stack_from_rows(rows[:, perm]))
        np.testing.assert_allclose(r1.params.sens, r2.params.sens, atol=1e-12)
        np.testing.assert_allclose(r1.params.spec, r2.params.spec, atol=1e-12)
        np.testing.assert_allclose(
            r1.posterior.data[perm], r2.posterior.data, atol=1e-12
        )

    def test_label_swap_symmetry(self):
        rng = np.random.default_rng(14)
        rows = (rng.random((3, 70)) < 0.3).astype(float)
        cfg = FusionConfig(prior=0.3, init_sens=0.85, init_spec=0.75, max_iters=40)
        cfg_swapped = FusionConfig(
            prior=0.7, init_sens=0.75, init_spec=0.85, max_iters=40
        )
        r1 = run_em(stack_from_rows(rows), cfg)
        r2 = run_em(stack_from_rows(1.0 - rows), cfg_swapped)
        np.testing.assert_allclose(r2.posterior.data, 1.0 - r1.posterior.data, atol=1e-9)
        np.testing.assert_allclose(r2.params.sens, r1.params.spec, atol=1e-9)
        np.testing.assert_allclose(r2.params.spec, r1.params.sens, atol=1e-9)


class TestBinarize:
    def test_threshold(self):
        w = grid([0.2, 0.8], GridKind.POSTERIOR)
        assert binarize(w) == grid([0.0, 1.0])

    def test_tie_goes_to_background(self):
        w = grid([0.5], GridKind.POSTERIOR)
        assert binarize(w).data[0] == 0.0

    def test_monotone_reparameterization_invariance(self):
        rng = np.random.default_rng(15)
        w = rng.random(50)
        # argmax between w and 1-w is unchanged by any strictly monotone
        # map applied to both scores; squaring is one such map.
        direct = w > 1.0 - w
        squared = w**2 > (1.0 - w) ** 2
        np.testing.assert_array_equal(direct, squared)
        got = binarize(grid(w, GridKind.POSTERIOR)).data > 0.5
        np.testing.assert_array_equal(got, direct)

    def test_requires_posterior_kind(self):
        with pytest.raises(ConfigError):
            binarize(grid([0.0, 1.0], GridKind.BINARY))

    def test_output_is_a_read_only_float_grid(self):
        out = binarize(grid([0.7, 0.1, 0.5], GridKind.POSTERIOR))
        assert out.data.dtype == np.float64 and not out.data.flags.writeable
        out.validate()


class TestPosteriorGrid:
    @staticmethod
    def _model(w1):
        """A model whose posterior map is ``w1``, over two binary voxels' patterns."""
        patterns = vote_patterns(stack_from_rows([[0.0, 1.0]]))
        return SimpleNamespace(patterns=patterns, voxel_posterior=lambda params: w1)

    def test_nan_posterior_is_refused(self):
        """The clip lets NaN through, so the range check stays."""
        with pytest.raises(ValueRangeError):
            _posterior_grid(self._model(np.array([1.5, np.nan])), params(0.9, 0.9))

    def test_clipped_in_place(self):
        w1 = np.array([-1e-17, 1.0 + 2e-16])
        g = _posterior_grid(self._model(w1), params(0.9, 0.9))
        assert g.data is w1
        np.testing.assert_array_equal(g.data, [0.0, 1.0])


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: RaterParams([0.9, 0.8], [0.9]), "sens has 2 entries but spec has 1",
                 id="length-mismatch"),
    pytest.param(lambda: RaterParams([], []), r"experts must lie in \[1, inf\], got 0",
                 id="no-experts"),
    pytest.param(lambda: RaterParams([1.1], [0.9]), r"sens values must lie in \[0, 1\]",
                 id="sens-above-1"),
    pytest.param(lambda: RaterParams([0.9], [-0.1]), r"spec values must lie in \[0, 1\]",
                 id="spec-below-0"),
    pytest.param(lambda: RaterParams([math.nan], [0.9]), r"sens values must lie in \[0, 1\]",
                 id="sens-nan"),
    pytest.param(lambda: FusionConfig(variant="hard"),
                 r"variant must be one of .*, got 'hard'", id="unknown-variant"),
    pytest.param(lambda: FusionConfig(mstep_mode="mean"),
                 r"mstep_mode must be one of .*, got 'mean'", id="unknown-mstep-mode"),
    pytest.param(lambda: PhantomSpec(Dim3(8, 8, 8), [5]),
                 r"lesions\[0\] must be a \(\(x, y, z\), radius\) pair, got 5$",
                 id="lesion-not-a-pair"),
    pytest.param(lambda: PhantomSpec(Dim3(8, 8, 8), [((4, 4, 4), 2.0), ((1, 2, 3),)]),
                 r"lesions\[1\] must be a \(\(x, y, z\), radius\) pair, got \(\(1, 2, 3\),\)$",
                 id="lesion-without-radius"),
])
def test_parameter_and_config_refusals(build, message):
    with pytest.raises(ConfigError, match=message):
        build()
