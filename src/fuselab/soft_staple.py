"""Consensus estimation from soft (probabilistic) expert votes.

Two EM families share the binary model's sensitivity/specificity
parameters:

* the exact variant treats each voxel's soft votes as a distribution over
  the 2^m joint hard-vote combinations and averages the binary posterior
  over them; its objective is the expected log-likelihood under that
  distribution. A Monte Carlo estimator ("soft-mc") replaces the
  enumeration when m exceeds the guard.
* the simplified variant treats each soft vote as a noisy observation of
  a latent hard vote, which factorizes per expert and keeps the E-step
  linear in m.

Both reduce exactly to the binary algorithm when every vote is hard.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConfigError
from .staple import (
    FusionConfig,
    FusionResult,
    RaterParams,
    VotePatterns,
    _PatternModel,
    _binary_posterior_arrays,
    _em_loop,
    _lse_pair,
    _mstep_ratio,
    _plugin_mstep,
    _posterior_grid,
    _run_inputs,
    clamp_params,
    vote_patterns,
)
from .volume import ExpertStack, GridKind, VolumeGrid

# Most experts exact enumeration takes (it tables all 2^m codes); beyond, use "soft-mc".
ENUMERATION_GUARD = 20

# Most joint-vote terms (columns x 2^k) per enumeration chunk; 2^18 measured fastest.
_CELL_BUDGET = 2**18

# Largest samples x m draw matrix one Monte Carlo voxel may allocate.
MC_DRAW_LIMIT = 2**23


@dataclass(frozen=True)
class VoteCombination:
    """One joint hard-vote assignment for m experts.

    ``code`` encodes the bits as an integer with expert 0 in the least
    significant bit; enumeration order is ascending code.
    """

    m: int
    code: int

    def __post_init__(self):
        if self.m < 1:
            raise ConfigError(f"need at least one expert, got m={self.m}")
        check_enumeration(self.m)
        if not 0 <= self.code < 2**self.m:
            raise ConfigError(f"code {self.code} outside [0, 2^{self.m})")

    def bit(self, i: int) -> int:
        return (self.code >> i) & 1

    def bits(self) -> tuple[int, ...]:
        return tuple(self.bit(i) for i in range(self.m))


def combination_matrix(m: int) -> np.ndarray:
    """All 2^m combinations as a (2^m, m) 0/1 float array, ascending code."""
    check_enumeration(m)
    codes = np.arange(2**m, dtype=np.int64)
    return ((codes[:, None] >> np.arange(m)) & 1).astype(np.float64)


def joint_soft_prob(soft_votes, combo: VoteCombination) -> float:
    """Probability of one joint hard-vote combination under the soft votes."""
    q = np.ascontiguousarray(soft_votes, dtype=np.float64).reshape(-1)
    if q.size != combo.m:
        raise ConfigError(f"{q.size} votes for a combination over {combo.m} experts")
    bits = np.array(combo.bits(), dtype=np.float64)
    return float(np.prod(np.where(bits == 1.0, q, 1.0 - q)))


def check_enumeration(m: int, alternative: str = "") -> None:
    """Refuse exact enumeration over more than :data:`ENUMERATION_GUARD`
    experts; ``alternative`` names what to use instead."""
    if m > ENUMERATION_GUARD:
        raise CapacityError(
            f"exact enumeration needs m <= {ENUMERATION_GUARD}, got m={m}"
            + (f"; {alternative}" if alternative else "")
        )


def _joint_votes(q_cols: np.ndarray):
    """Yield (column indices, hard-vote codes, weights) per chunk of columns.

    A vote of exactly 0 or 1 fixes its bit, so a column with k fractional
    votes has 2^k joint hard votes (code bit i = expert i). Columns are
    grouped by k, chunked to at most ``_CELL_BUDGET`` terms (or one column),
    and their (columns, 2^k) terms built by doubling over the fractional votes.
    """
    frac = (q_cols > 0.0) & (q_cols < 1.0)
    k_cols = frac.sum(axis=0)
    base = (1 << np.arange(q_cols.shape[0])) @ (q_cols == 1.0)
    for k in np.unique(k_cols):
        group = np.flatnonzero(k_cols == k)
        step = max(1, _CELL_BUDGET >> k)
        for lo in range(0, group.size, step):
            cols = group[lo : lo + step]
            experts = np.nonzero(frac[:, cols].T)[1].reshape(cols.size, k)
            codes = np.empty((cols.size, 1 << k), dtype=np.int32)
            weights = np.ones((cols.size, 1 << k))
            codes[:, 0] = base[cols]
            for j, e in enumerate(experts.T):
                size = 1 << j
                q = q_cols[e, cols][:, None]
                np.bitwise_or(codes[:, :size], (1 << e)[:, None], out=codes[:, size : 2 * size])
                np.multiply(weights[:, :size], q, out=weights[:, size : 2 * size])
                weights[:, :size] *= 1.0 - q
            yield cols, codes, weights


class _ExactModel(_PatternModel):
    """The exact soft variant over distinct vote columns.

    The joint-vote weights depend only on the votes, not on the
    parameters, so their count-weighted sums ``s`` over the 2^m hard-vote
    codes are accumulated once per run; the posterior enumerates again.
    """

    def __init__(self, patterns: VotePatterns, prior: float):
        super().__init__(patterns, prior)
        check_enumeration(patterns.order.size, "select variant 'soft-mc' instead")
        self.bmat = combination_matrix(patterns.order.size)
        self.s = np.zeros(self.bmat.shape[0])
        for cols, codes, w in _joint_votes(patterns.columns):
            w *= patterns.counts[cols, None]
            self.s += np.bincount(codes.ravel(), weights=w.ravel(), minlength=self.s.size)

    def posterior(self, params: RaterParams) -> np.ndarray:
        p1, _ = _binary_posterior_arrays(self.bmat.T, params, self.prior)
        w1 = np.empty(self.patterns.counts.size)
        for cols, codes, w in _joint_votes(self.patterns.columns):
            w *= p1[codes]
            w1[cols] = w.sum(axis=1)
        return w1

    def objective(self, params: RaterParams) -> float:
        _, lse = _binary_posterior_arrays(self.bmat.T, params, self.prior)
        return float(self.s @ lse)

    def expected_count_mstep(self, params: RaterParams, ll_trace=()):
        p1, _ = _binary_posterior_arrays(self.bmat.T, params, self.prior)
        n1 = p1 * self.s
        n0 = (1.0 - p1) * self.s
        return _mstep_ratio(self.bmat.T @ n1, (1.0 - self.bmat.T) @ n0, n1, n0, ll_trace)


def soft_e_step_voxel(soft_votes, params: RaterParams, prior: float) -> float:
    """Exact soft posterior for one voxel: the binary posterior averaged
    over the joint hard votes the soft votes allow, weighted by them."""
    q = np.ascontiguousarray(soft_votes, dtype=np.float64).reshape(-1)
    if q.size != params.m:
        raise ConfigError(f"{q.size} votes for {params.m} experts")
    check_enumeration(q.size, "use mc_soft_e_step_voxel instead")
    p1, _ = _binary_posterior_arrays(combination_matrix(q.size).T, params, prior)
    _, codes, w = next(_joint_votes(q[:, None]))
    return float(np.clip(w[0] @ p1[codes[0]], 0.0, 1.0))


def soft_e_step(stack: ExpertStack, params: RaterParams, prior: float) -> VolumeGrid:
    """Exact soft posterior map over the whole grid."""
    model = _ExactModel(vote_patterns(stack), prior)
    return _posterior_grid(model, params.reordered(model.patterns.order))


def soft_log_likelihood(stack: ExpertStack, params: RaterParams, prior: float) -> float:
    """Expected log-likelihood of the exact soft model."""
    model = _ExactModel(vote_patterns(stack), prior)
    return model.objective(params.reordered(model.patterns.order))


def soft_m_step(
    stack: ExpertStack,
    params: RaterParams,
    prior: float,
    mode: str = "expected-count",
) -> RaterParams:
    """Parameter update for the exact soft model.

    "expected-count" maximizes the model's own expected complete-data
    log-likelihood (the update that guarantees EM ascent); "plugin-mean"
    plugs the soft votes directly into the binary update, with the
    posterior taken from the exact soft E-step.
    """
    model = _ExactModel(vote_patterns(stack), prior)
    sens, spec = model.mstep(params.reordered(model.patterns.order), mode)
    return model.patterns.restore(sens, spec)


def _voxel_rng(seed: int, voxel_index: int) -> np.random.Generator:
    mask = (1 << 64) - 1
    key = np.array([int(seed) & mask, int(voxel_index) & mask], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def check_mc_request(samples: int, m: int) -> None:
    """Refuse a Monte Carlo request whose per-voxel draw matrix of
    ``samples`` x ``m`` float64 values exceeds :data:`MC_DRAW_LIMIT`."""
    if samples * m > MC_DRAW_LIMIT:
        raise CapacityError(
            f"Monte Carlo request of {samples} samples x {m} experts = "
            f"{samples * m} draws per voxel exceeds the limit of {MC_DRAW_LIMIT}; "
            "lower the sample count"
        )


def mc_soft_e_step_voxel(
    soft_votes,
    params: RaterParams,
    prior: float,
    samples: int,
    seed: int,
    voxel_index: int = 0,
) -> float:
    """Unbiased Monte Carlo estimate of the exact soft posterior.

    Each sample draws one hard vote per expert from the soft votes; the
    stream is keyed by (seed, voxel_index), so estimates are reproducible
    voxel by voxel regardless of evaluation order. Works for any m; hard
    votes short-circuit to the exact posterior (the estimator has zero
    variance there).
    """
    if samples < 1:
        raise ConfigError(f"samples must be >= 1, got {samples}")
    q = np.ascontiguousarray(soft_votes, dtype=np.float64).reshape(-1)
    if q.size != params.m:
        raise ConfigError(f"{q.size} votes for {params.m} experts")
    if np.all((q == 0.0) | (q == 1.0)):
        return float(_binary_posterior_arrays(q[:, None], params, prior)[0][0])
    check_mc_request(samples, q.size)
    rng = _voxel_rng(seed, voxel_index)
    bits = (rng.random((samples, q.size)) < q).astype(np.float64)
    p1, _ = _binary_posterior_arrays(bits.T, params, prior)
    return float(np.clip(p1.mean(), 0.0, 1.0))


def noisy_channel_likelihood(q1: float, a: int, sens: float, spec: float) -> float:
    """Likelihood of a soft vote under the noisy-channel observation model."""
    if a == 1:
        return q1 * sens + (1.0 - q1) * (1.0 - sens)
    return q1 * (1.0 - spec) + (1.0 - q1) * spec


def _channel_likelihoods(q: np.ndarray, params: RaterParams):
    """Per-expert channel likelihoods, shape (m, k), for x=0 and x=1."""
    sens, spec = clamp_params(params.sens, params.spec)
    l1 = q * sens[:, None] + (1.0 - q) * (1.0 - sens[:, None])
    l0 = q * (1.0 - spec[:, None]) + (1.0 - q) * spec[:, None]
    return l0, l1


def _simple_posterior_arrays(q: np.ndarray, params: RaterParams, prior: float):
    l0, l1 = _channel_likelihoods(q, params)
    a0 = np.log1p(-prior) + np.log(l0).sum(axis=0)
    a1 = np.log(prior) + np.log(l1).sum(axis=0)
    lse = _lse_pair(a0, a1)
    return np.exp(a1 - lse), lse


def simple_e_step_voxel(soft_votes, params: RaterParams, prior: float) -> float:
    """Noisy-channel posterior for one voxel; linear in the expert count."""
    q = np.ascontiguousarray(soft_votes, dtype=np.float64).reshape(-1)
    if q.size != params.m:
        raise ConfigError(f"{q.size} votes for {params.m} experts")
    w1, _ = _simple_posterior_arrays(q[:, None], params, prior)
    return float(w1[0])


class _SimpleModel(_PatternModel):
    """The noisy-channel (simplified) variant over distinct vote columns."""

    def posterior(self, params: RaterParams) -> np.ndarray:
        return _simple_posterior_arrays(self.patterns.columns, params, self.prior)[0]

    def objective(self, params: RaterParams) -> float:
        _, lse = _simple_posterior_arrays(self.patterns.columns, params, self.prior)
        return float(self.patterns.counts @ lse)

    def expected_count_mstep(self, params: RaterParams, ll_trace=()):
        """Exact EM update for the noisy-channel model.

        The latent hard vote behind each soft observation gets its own
        posterior, so the counts entering the update are expectations over
        both the true label and the hidden vote; this is what keeps the
        simplified objective nondecreasing.
        """
        q = self.patterns.columns
        sens, spec = clamp_params(params.sens, params.spec)
        l0, l1 = _channel_likelihoods(q, params)
        w1 = self.posterior(params)
        n1 = self.patterns.counts * w1
        n0 = self.patterns.counts * (1.0 - w1)
        r1 = q * sens[:, None] / l1
        r0 = (1.0 - q) * spec[:, None] / l0
        return _mstep_ratio(r1 @ n1, r0 @ n0, n1, n0, ll_trace)


def simple_e_step(stack: ExpertStack, params: RaterParams, prior: float) -> VolumeGrid:
    """Noisy-channel posterior map over the whole grid."""
    model = _SimpleModel(vote_patterns(stack), prior)
    return _posterior_grid(model, params.reordered(model.patterns.order))


def simple_log_likelihood(stack: ExpertStack, params: RaterParams, prior: float) -> float:
    """Observed-data log-likelihood of the noisy-channel model."""
    model = _SimpleModel(vote_patterns(stack), prior)
    return model.objective(params.reordered(model.patterns.order))


def simple_m_step(
    stack: ExpertStack,
    params: RaterParams,
    prior: float,
    mode: str = "expected-count",
) -> RaterParams:
    """Parameter update for the noisy-channel model (modes as in soft_m_step)."""
    model = _SimpleModel(vote_patterns(stack), prior)
    sens, spec = model.mstep(params.reordered(model.patterns.order), mode)
    return model.patterns.restore(sens, spec)


class _McSweep:
    """The Monte Carlo soft variant: per-voxel keyed streams.

    Voxels whose votes are all hard are evaluated exactly, once per
    distinct hard column (the estimator has zero variance there), which
    also makes the all-hard case agree with the binary algorithm to
    machine precision. Soft voxels are never merged: each keeps its own
    stream. The E-step builds no 2^m table, so any expert count works;
    the objective is the exact one while m is within the enumeration
    guard, and the sweep's estimate beyond it.
    """

    def __init__(self, patterns: VotePatterns, prior: float, samples: int, seed: int):
        self.patterns = patterns
        self.prior = prior
        self.samples = samples
        self.seed = seed
        self.m = patterns.order.size
        check_mc_request(samples, self.m)
        cols = patterns.columns
        self.hard = np.all((cols == 0.0) | (cols == 1.0), axis=0)
        self.hard_bits = cols[:, self.hard]
        self.hard_counts = patterns.counts[self.hard]
        self.soft_voxels = np.flatnonzero(~self.hard[patterns.inverse])
        self.exact = _ExactModel(patterns, prior) if self.m <= ENUMERATION_GUARD else None
        self.ll_is_approximate = self.exact is None

    def _sample_bits(self, t: int) -> np.ndarray:
        rng = _voxel_rng(self.seed, t)
        q = self.patterns.columns[:, self.patterns.inverse[t]]
        return (rng.random((self.samples, self.m)) < q).astype(np.float64)

    def estep_and_counts(self, params: RaterParams):
        """Posterior estimate plus expected-count M-step accumulators."""
        p1h, _ = _binary_posterior_arrays(self.hard_bits, params, self.prior)
        w1 = np.zeros(self.hard.size)
        w1[self.hard] = p1h
        w1 = w1[self.patterns.inverse]
        num_sens = self.hard_bits @ (self.hard_counts * p1h)
        num_spec = (1.0 - self.hard_bits) @ (self.hard_counts * (1.0 - p1h))
        k = float(self.samples)
        for t in self.soft_voxels:
            bits = self._sample_bits(t)
            p1k, _ = _binary_posterior_arrays(bits.T, params, self.prior)
            w1[t] = p1k.mean()
            num_sens += (bits.T @ p1k) / k
            num_spec += ((1.0 - bits.T) @ (1.0 - p1k)) / k
        return w1, num_sens, num_spec

    def voxel_posterior(self, params: RaterParams) -> np.ndarray:
        return self.estep_and_counts(params)[0]

    def objective(self, params: RaterParams) -> float:
        if self.exact is not None:
            return self.exact.objective(params)
        _, lse = _binary_posterior_arrays(self.hard_bits, params, self.prior)
        total = float(self.hard_counts @ lse)
        for t in self.soft_voxels:
            _, lse = _binary_posterior_arrays(self._sample_bits(t).T, params, self.prior)
            total += float(np.mean(lse))
        return total

    def mstep(self, params: RaterParams, mode: str, ll_trace=()):
        w1, num_sens, num_spec = self.estep_and_counts(params)
        if mode == "expected-count":
            return _mstep_ratio(num_sens, num_spec, w1, 1.0 - w1, ll_trace)
        n1, n0 = self.patterns.label_counts(w1)
        return _plugin_mstep(self.patterns.columns, n1, n0, ll_trace)


def run_soft_em(stack: ExpertStack, config: FusionConfig) -> FusionResult:
    """Full EM fusion of a soft stack under the configured variant.

    The loop is the binary runner's (``_em_loop``); the prior resolves to
    the fractional grand mean when "auto". The trace records the
    exact-model objective for variants "soft-exact"/"soft-mc" and the
    noisy-channel objective for "simplified".
    """
    patterns, prior = _run_inputs(stack, config, GridKind.SOFT)
    if config.variant == "soft-exact":
        model = _ExactModel(patterns, prior)
    elif config.variant == "simplified":
        model = _SimpleModel(patterns, prior)
    else:
        model = _McSweep(patterns, prior, config.mc_samples, config.mc_seed)
    return _em_loop(model, config)
