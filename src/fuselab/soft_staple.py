"""Consensus estimation from soft (probabilistic) expert votes.

Two EM families share the binary model's sensitivity/specificity
parameters:

* the exact variant treats each voxel's soft votes as a distribution over
  the 2^m joint hard-vote combinations and averages the binary posterior
  over them; its objective is the expected log-likelihood under that
  distribution. It refuses m above the enumeration guard; "soft-mc", a
  variant of its own, estimates the same average by sampling for any m.
* the simplified variant treats each soft vote as a noisy observation of
  a latent hard vote, which factorizes per expert and keeps the E-step
  linear in m. It is the binary model (``staple._PatternModel``) over the
  soft vote columns, which reads such votes through the noisy channel.

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
    _INT64_MAX,
    _PatternModel,
    _binary_posterior_arrays,
    _channel_posterior_arrays,
    _check_prior,
    _em_loop,
    _group_keys,
    _posterior_grid,
    _run_inputs,
    _votes,
    e_step,
    log_likelihood,
    vote_patterns,
)
from .volume import ExpertStack, GridKind, VolumeGrid

# Most experts exact enumeration takes (it sums into a 2^m array); beyond, use "soft-mc".
ENUMERATION_GUARD = 20

# Most joint-vote terms (columns x 2^k) per enumeration chunk; 2^18 measured fastest.
_CELL_BUDGET = 2**18

# Largest samples x m draw matrix one Monte Carlo voxel may allocate; it
# also bounds every block of draws.
MC_DRAW_LIMIT = 2**23

# Most (voxel, code) tallies and (column, code) entries a Monte Carlo run
# may keep. They peak at about 30 bytes each (250 MiB at the limit, on
# 64,000 continuous-vote voxels of 7 experts); the 40^3 protocol-m7
# benchmark case at the default 10,000 samples keeps at most 6,709 x 128.
MC_ENTRY_LIMIT = 2**23

# Most draws (soft voxels x samples x m) one Monte Carlo run may make. At
# about 10 ns per draw, a run refused here would have drawn for over a minute;
# the 40^3 protocol-m7 benchmark case at the default 10,000 samples draws 0.47 G.
_MC_RUN_DRAW_LIMIT = 2**33

# Most draws one block of Monte Carlo voxels holds, unless one voxel needs more.
# On 40^3 voxels and 7 experts, 2^18 ran fastest of 2^14 ... 2^20.
_DRAW_BLOCK = 2**18

# Most experts whose sampled hard-vote codes are int64; beyond, packed bit rows.
_CODE_BITS = 62


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
    return _code_bits(np.arange(2**m), m).T


def joint_soft_prob(soft_votes, combo: VoteCombination) -> float:
    """Probability of one joint hard-vote combination under the soft votes."""
    q = _votes(soft_votes, combo.m)
    bits = np.array(combo.bits(), dtype=np.float64)
    return float(np.prod(np.where(bits == 1.0, q, 1.0 - q)))


def _refuse_over(count: int, limit: int, what: str, advice: str) -> None:
    """Refuse ``count`` ``what`` over ``limit``: a CapacityError naming both."""
    if count > limit:
        raise CapacityError(f"{count} {what} exceed the limit of {limit}"
                            + (f"; {advice}" if advice else ""))


def check_enumeration(m: int, alternative: str = "") -> None:
    """Refuse exact enumeration over more than :data:`ENUMERATION_GUARD`
    experts; ``alternative`` names what to use instead."""
    _refuse_over(m, ENUMERATION_GUARD, "experts for exact enumeration", alternative)


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

    Its units are the hard-vote codes that occur (``codes``, votes in
    ``bits``), with masses ``s``, their count-weighted joint-vote weights,
    accumulated once per run; the binary posterior is evaluated at those
    codes only, and the per-column posterior enumerates the terms again,
    once for all requested labels.
    """

    def __init__(self, patterns: VotePatterns, prior: float):
        m = patterns.order.size
        check_enumeration(m, "select variant 'soft-mc' instead")
        s = np.zeros(1 << m)
        for cols, codes, w in _joint_votes(patterns.columns):
            w *= patterns.counts[cols, None]
            s += np.bincount(codes.ravel(), weights=w.ravel(), minlength=s.size)
        self.codes = np.flatnonzero(s)
        super().__init__(patterns, prior, _code_bits(self.codes, m), s[self.codes])

    def posteriors(self, ev, labels=(0, 1)):
        tables = np.zeros((len(labels), 1 << self.bits.shape[0]))
        tables[:, self.codes] = [ev[a] for a in labels]
        w = np.empty((len(labels), self.patterns.counts.size))
        for cols, codes, weights in _joint_votes(self.patterns.columns):
            for row, table in zip(w, tables):
                row[cols] = (weights * table[codes]).sum(axis=1)
        return w


def soft_e_step_voxel(soft_votes, params: RaterParams, prior: float) -> float:
    """Exact soft posterior for one voxel: the binary posterior averaged
    over the joint hard votes the soft votes allow, weighted by them."""
    q = _votes(soft_votes, params.m)
    check_enumeration(q.size, "use mc_soft_e_step_voxel instead")
    prior = _check_prior(prior)
    _, codes, w = next(_joint_votes(q[:, None]))
    p1 = _binary_posterior_arrays(_code_bits(codes[0], q.size), params, prior)[1]
    return float(np.clip(w[0] @ p1, 0.0, 1.0))


def soft_e_step(stack: ExpertStack, params: RaterParams, prior: float) -> VolumeGrid:
    """Exact soft posterior map over the whole grid."""
    model = _ExactModel(vote_patterns(stack), prior)
    return _posterior_grid(model, model.arrays(params.reordered(model.patterns.order)))


def soft_log_likelihood(stack: ExpertStack, params: RaterParams, prior: float) -> float:
    """Expected log-likelihood of the exact soft model."""
    model = _ExactModel(vote_patterns(stack), prior)
    return model.objective(model.arrays(params.reordered(model.patterns.order)))


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
    params = params.reordered(model.patterns.order)
    return model.patterns.restore(*model.mstep(params, model.arrays(params), mode))


def check_mc_request(samples: int, m: int) -> None:
    """Refuse a Monte Carlo request whose per-voxel draw matrix of
    ``samples`` x ``m`` values exceeds :data:`MC_DRAW_LIMIT`, which thus
    also bounds every block of draws."""
    _refuse_over(samples * m, MC_DRAW_LIMIT, f"Monte Carlo draws per voxel ({samples} "
                 f"samples x {m} experts)", "lower the sample count")


def _mc_codes(q: np.ndarray, voxels: np.ndarray, samples: int, seed: int) -> np.ndarray:
    """Sampled hard-vote codes of a block of voxels, ``samples`` per voxel.

    ``q`` (m, voxels) holds their soft votes. Voxel t draws from the
    Philox stream keyed by (seed, t), as ``Generator.random((samples, m))
    < q`` would: ``(raw >> 11) < ceil(q 2^53)`` is that test bit for bit.
    Codes are int64 (bit i = expert i) up to :data:`_CODE_BITS` experts,
    packed bit rows beyond.
    """
    m = q.shape[0]
    thresholds = np.ceil(q.T * 2.0**53).astype(np.uint64)
    width = -(-m // 8) * 8
    bits = np.zeros((voxels.size, samples, width), dtype=bool)
    mask = (1 << 64) - 1
    keys = np.array([(int(seed) & mask, int(t) & mask) for t in voxels], dtype=np.uint64)
    bitgen = np.random.Philox(key=keys[0])
    fresh = bitgen.state
    for j, key in enumerate(keys):
        fresh["state"]["key"] = key
        bitgen.state = fresh
        raw = bitgen.random_raw(samples * m).reshape(samples, m)
        np.less(np.right_shift(raw, 11, out=raw), thresholds[j], out=bits[j, :, :m])
    return _pack_codes(bits.reshape(-1, width), m)


def _pack_codes(bits: np.ndarray, m: int) -> np.ndarray:
    """Hard-vote codes (see ``_mc_codes``) of k boolean rows of m votes,
    given as (k, m) or padded with False to whole bytes."""
    if bits.shape[1] % 8:
        padded = np.zeros((bits.shape[0], -(-m // 8) * 8), dtype=bool)
        padded[:, :m] = bits
        bits = padded
    rows = np.packbits(bits.reshape(-1), bitorder="little").reshape(-1, bits.shape[1] // 8)
    if m > _CODE_BITS:
        return rows.view(np.dtype((np.void, rows.shape[1]))).reshape(-1)
    wide = np.zeros((rows.shape[0], 8), dtype=np.uint8)
    wide[:, : rows.shape[1]] = rows
    return wide.view("<i8").reshape(-1)


def _code_bits(codes: np.ndarray, m: int) -> np.ndarray:
    """The (m, k) 0/1 float votes of k hard-vote codes."""
    rows = np.ascontiguousarray(codes).view(np.uint8).reshape(codes.size, -1)
    return np.unpackbits(rows, axis=1, count=m, bitorder="little").T.astype(np.float64)


def _tally(group: np.ndarray, groups: int, codes: np.ndarray, m: int):
    """Count equal (group, code) pairs, with groups in [0, ``groups``) and
    codes of m experts. Monte Carlo draws are tallied one block per call;
    counts of a pair drawn in two blocks are summed by their users.

    Returns the distinct pairs, sorted by group then code, and their
    counts. Keys group x 2^m + code are grouped by ``_group_keys``; codes
    are ranked first when the keys would not fit in int64.
    """
    table = None
    if m > _CODE_BITS or groups > _INT64_MAX >> m:
        table, codes = np.unique(codes, return_inverse=True)
        span = table.size
    else:
        span = 1 << m
    key, counts, _ = _group_keys(group * span + codes, groups * span)
    group, codes = np.divmod(key, span)
    return group, (codes if table is None else table[codes]), counts


def _voxel_tally(codes: np.ndarray, voxels: int, samples: int, m: int):
    """Tally a block of draws (``samples`` codes per voxel, voxel by voxel)
    per voxel: each voxel's number of entries, then its distinct codes and
    their sample counts, sorted by voxel then code. A voxel with k
    fractional votes has at most min(samples, 2^k) entries. Counts and
    int64 codes come in the narrowest unsigned types that hold them."""
    group, code, counts = _tally(np.repeat(np.arange(voxels), samples), voxels, codes, m)
    narrow = np.min_scalar_type(samples)
    if m <= _CODE_BITS:
        code = code.astype(np.min_scalar_type((1 << m) - 1))
    return np.bincount(group, minlength=voxels).astype(narrow), code, counts.astype(narrow)


def _voxel_means(sizes: np.ndarray, counts: np.ndarray, p1: np.ndarray, samples: int):
    """Per-voxel sample means of the posterior ``p1`` at tallied codes
    (see ``_voxel_tally``): count-weighted sums over each voxel's entries."""
    group = np.repeat(np.arange(sizes.size), sizes)
    return np.bincount(group, counts * p1, minlength=sizes.size) / samples


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
    prior = _check_prior(prior)
    q = _votes(soft_votes, params.m)
    if np.all((q == 0.0) | (q == 1.0)):
        return float(_binary_posterior_arrays(q[:, None], params, prior)[1][0])
    check_mc_request(samples, q.size)
    codes = _mc_codes(q[:, None], np.array([voxel_index]), samples, seed)
    sizes, code, counts = _voxel_tally(codes, 1, samples, q.size)
    p1 = _binary_posterior_arrays(_code_bits(code, q.size), params, prior)[1]
    return float(np.clip(_voxel_means(sizes, counts, p1, samples)[0], 0.0, 1.0))


def noisy_channel_likelihood(q1: float, a: int, sens: float, spec: float) -> float:
    """Likelihood of a soft vote under the noisy-channel observation model."""
    if a == 1:
        return q1 * sens + (1.0 - q1) * (1.0 - sens)
    return q1 * (1.0 - spec) + (1.0 - q1) * spec


def simple_e_step_voxel(soft_votes, params: RaterParams, prior: float) -> float:
    """Noisy-channel posterior for one voxel; linear in the expert count."""
    q = _votes(soft_votes, params.m)
    return float(_channel_posterior_arrays(q[:, None], params, _check_prior(prior))[1][0])


def simple_e_step(stack: ExpertStack, params: RaterParams, prior: float) -> VolumeGrid:
    """Noisy-channel posterior map over the whole grid."""
    return e_step(stack, params, prior)


def simple_log_likelihood(stack: ExpertStack, params: RaterParams, prior: float) -> float:
    """Observed-data log-likelihood of the noisy-channel model."""
    return log_likelihood(stack, params, prior)


def simple_m_step(
    stack: ExpertStack,
    params: RaterParams,
    prior: float,
    mode: str = "expected-count",
) -> RaterParams:
    """Parameter update for the noisy-channel model (modes as in soft_m_step)."""
    model = _PatternModel(vote_patterns(stack), prior)
    params = params.reordered(model.patterns.order)
    return model.patterns.restore(*model.mstep(params, model.arrays(params), mode))


class _McModel(_PatternModel):
    """The Monte Carlo soft variant over (column, code, weight) entries.

    Each soft voxel keeps its own keyed stream (see ``_mc_codes``); its
    samples are drawn once at set-up, block by block, and each block is
    reduced at once to entries: a distinct column, a sampled hard-vote
    code and its sample count over the block's voxels of that column,
    divided by the sample count. A (column, code) pair drawn in two blocks
    gets two entries, which the weighted sums add; the model's units are
    the distinct sampled codes (``table``), massed by their entries'
    summed weights. A hard column is one entry weighted by its voxel count
    (the estimator has zero variance there), which makes the all-hard case
    agree with the binary algorithm to machine precision. Nothing builds a
    2^m table, so any expert count works. With the draws fixed, the run is
    exact EM on the sampled model, whose inherited objective estimates the
    exact one. Only the final posterior needs each voxel's own samples:
    the set-up pass also tallies each block per voxel (``tallies``, see
    ``_voxel_tally``), so every stream is drawn once per run. A voxel with
    k fractional votes keeps at most min(samples, 2^k) tallies and entries.
    A run whose sum of those exceeds :data:`MC_ENTRY_LIMIT`, or whose draws
    exceed ``_MC_RUN_DRAW_LIMIT``, is refused before the first draw.
    """

    def __init__(self, patterns: VotePatterns, prior: float, samples: int, seed: int):
        m = patterns.order.size
        check_mc_request(samples, m)
        self.samples = samples
        cols = patterns.columns
        k = np.count_nonzero((cols > 0.0) & (cols < 1.0), axis=0)
        hard = k == 0
        kept = int(patterns.counts[~hard] @ np.minimum(samples, np.exp2(k[~hard])))
        _refuse_over(kept, MC_ENTRY_LIMIT, "sampled (voxel, code) entries (soft voxels "
                     "x min(samples, 2^k))", "lower the sample count")
        draws = int(patterns.counts[~hard].sum()) * samples * m
        _refuse_over(draws, _MC_RUN_DRAW_LIMIT, "draws (soft voxels x samples x experts)",
                     "lower the sample count")
        # Column by column, so that a block spans few columns.
        soft = np.flatnonzero(~hard[patterns.inverse])
        self.soft_voxels = soft[np.argsort(patterns.inverse[soft], kind="stable")]
        entries = [(np.flatnonzero(hard), _pack_codes(cols[:, hard].T == 1.0, m),
                    patterns.counts[hard])]
        self.tallies = []
        step = max(1, _DRAW_BLOCK // (samples * m))  # _DRAW_BLOCK draws, or one voxel
        for lo in range(0, self.soft_voxels.size, step):
            voxels = self.soft_voxels[lo : lo + step]
            ids = patterns.inverse[voxels].astype(np.intp, copy=False)
            codes = _mc_codes(cols[:, ids], voxels, samples, seed)
            group, code, counts = _tally(
                np.repeat(ids - ids[0], samples), ids[-1] - ids[0] + 1, codes, m)
            entries.append((group + ids[0], code, counts / samples))
            self.tallies.append((voxels, *_voxel_tally(codes, voxels.size, samples, m)))
        self.col, code, self.weight = map(np.concatenate, zip(*entries))
        self.table, self.code = np.unique(code, return_inverse=True)
        super().__init__(patterns, prior, _code_bits(self.table, m),
                         np.bincount(self.code, self.weight))
        self.ll_is_approximate = self.soft_voxels.size > 0

    def posteriors(self, ev, labels=(0, 1)):
        counts = self.patterns.counts
        return [np.bincount(self.col, self.weight * ev[a][self.code], minlength=counts.size)
                / counts for a in labels]

    def voxel_posterior(self, ev) -> np.ndarray:
        w1 = self.posteriors(ev, (1,))[0][self.patterns.inverse]
        for voxels, sizes, code, counts in self.tallies:
            unit = np.searchsorted(self.table, code.astype(self.table.dtype))
            w1[voxels] = _voxel_means(sizes, counts, ev[1][unit], self.samples)
        return w1


def run_soft_em(stack: ExpertStack, config: FusionConfig) -> FusionResult:
    """Full EM fusion of a soft stack under the configured variant.

    The loop is the binary runner's (``_em_loop``); the prior resolves to
    the fractional grand mean when "auto". The trace records the objective
    the variant's EM ascends: the exact model's ("soft-exact"), the sampled
    model's, which estimates it ("soft-mc"), or the noisy-channel one.
    """
    patterns, prior = _run_inputs(stack, config, GridKind.SOFT)
    if config.variant == "soft-exact":
        model = _ExactModel(patterns, prior)
    elif config.variant == "simplified":
        model = _PatternModel(patterns, prior)
    else:
        model = _McModel(patterns, prior, config.mc_samples, config.mc_seed)
    return _em_loop(model, config)
