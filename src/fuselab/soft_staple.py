"""Consensus estimation from soft (probabilistic) expert votes.

Two EM families share the binary model's sensitivity/specificity
parameters:

* the exact variant averages the binary posterior over the 2^m joint
  hard-vote combinations that each voxel's soft votes weight, enumerated
  once per run; its objective is the expected log-likelihood under those
  weights. It refuses m or terms over its bounds; "soft-mc", a variant of
  its own, estimates the same average by sampling for any m.
* the simplified variant treats each soft vote as a noisy observation of
  a latent hard vote, which factorizes per expert and keeps the E-step
  linear in m. It is the binary model (``staple._PatternModel``) over the
  soft vote columns, which reads such votes through the noisy channel.

Both reduce exactly to the binary algorithm on hard votes; ``run_em`` runs all four variants.
"""

from __future__ import annotations

import numpy as np

from .errors import SEED_SPAN, ConfigError, _refuse_over, check_number
from .staple import (
    AUTO_PRIOR,
    FusionConfig,
    FusionResult,
    RaterParams,
    VotePatterns,
    _PatternModel,
    _bincount,
    _binary_posterior_arrays,
    _channel_posterior_arrays,
    _check_prior,
    _em_loop,
    _group_keys,
    _index_type,
    _mean_vote_prior,
    _posterior_map,
    _votes,
    e_step,
    log_likelihood,
    vote_patterns,
)
from .volume import ExpertStack, GridKind, VolumeGrid

# Most experts exact enumeration takes (it sums into a 2^m array); beyond, use "soft-mc".
ENUMERATION_GUARD = 20

# Most joint-vote terms (distinct columns x 2^k) one exact run may keep: each
# keeps its code, in at most 4 bytes, and its weight, in 8, so at most 384 MiB
# at the limit (MC_ENTRY_LIMIT's set-up peak is about 450 MiB); each chunk also
# keeps its columns' 8-byte indices. The one pass over the terms takes 8 to
# 100 ns per term on a 2-core Xeon, so at most 3.4 s at the limit. The units'
# (m, units <= min(2^m, terms)) float64 votes, and an evaluation's temporaries
# of their size, take at most 160 MiB each at ENUMERATION_GUARD's m = 20.
EXACT_TERM_LIMIT = 2**25

# Most joint-vote terms (columns x 2^k) per enumeration chunk; 2^18 measured fastest.
_CELL_BUDGET = 2**18

# Largest samples x m draw matrix one Monte Carlo voxel drawn sample by sample
# may allocate; a tallied voxel draws at most its entries (MC_ENTRY_LIMIT).
MC_DRAW_LIMIT = 2**23

# Most (voxel, code) tallies a Monte Carlo run may keep, and most float64 unit
# votes (m x min(2^m, hard columns + tallies)). With their (column, code)
# entries tallies take about 27 bytes each once built, and peak at about 57
# during set-up (450 MiB at the limit, on 64,000 continuous-vote voxels of 7
# experts, each its own column); a unit vote and an evaluation's copy take
# about 16. The 40^3 protocol-m7 benchmark case at the default 10,000 samples
# keeps at most 6,709 x 128 tallies and 128 x 7 unit votes.
MC_ENTRY_LIMIT = 2**23

# Most draws one Monte Carlo run may make: samples x m per soft voxel on the
# per-sample path, 2^k (about one binomial per joint vote) per voxel on the
# tally path. At about 10 ns per draw, a run refused here would have drawn for
# over a minute; the 40^3 protocol-m7 benchmark case at the default 10,000
# samples tallies every soft voxel and draws about 0.3 M.
_MC_RUN_DRAW_LIMIT = 2**33

# About how many draws one block of Monte Carlo voxels holds (see ``_McModel``),
# plus one voxel's; it bounds the block's memory, not its outputs. On 40^3
# voxels and 7 experts, 2^18 ran fastest of 2^14 ... 2^20.
_DRAW_BLOCK = 2**18

# Most experts whose sampled hard-vote codes are int64; beyond, packed bit rows.
_CODE_BITS = 62


def _joint_votes(q_cols: np.ndarray):
    """Yield (column indices, hard-vote codes, weights) per chunk of columns.

    A vote of exactly 0 or 1 fixes its bit, so a column with k fractional
    votes has 2^k joint hard votes (int64 code, bit i = expert i), in
    ascending code order. Columns are grouped by k, chunked to at most
    ``_CELL_BUDGET`` terms (or one column), and their (columns, 2^k) terms
    built by doubling over the fractional votes.
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
            codes = np.empty((cols.size, 1 << k), dtype=np.int64)
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

    Its one ``_joint_votes`` pass keeps each chunk's columns, codes (in the
    narrowest unsigned type that holds 2^m - 1) and weights (``chunks``).
    Its units are the codes that occur (``codes``, votes in ``bits``), with
    masses ``s``, their count-weighted weights; the per-column posterior
    sums the binary one over the kept chunks, once for all requested labels.
    A run of over :data:`EXACT_TERM_LIMIT` terms is refused before the pass.
    """

    def __init__(self, patterns: VotePatterns, prior: float):
        m = patterns.order.size
        _refuse_over(m, ENUMERATION_GUARD, "experts for exact enumeration",
                     "select variant 'soft-mc' instead")
        k = np.count_nonzero((patterns.columns > 0.0) & (patterns.columns < 1.0), axis=0)
        _refuse_over(int(np.exp2(k).sum()), EXACT_TERM_LIMIT, "joint-vote terms (distinct "
                     "columns x 2^k)", "select variant 'soft-mc' instead")
        s = np.zeros(1 << m)
        self.chunks = [(cols, codes.astype(_index_type(1 << m)), w)
                       for cols, codes, w in _joint_votes(patterns.columns)]
        for cols, codes, w in self.chunks:
            s += np.bincount(codes.ravel(), (w * patterns.counts[cols, None]).ravel(), s.size)
        self.codes = np.flatnonzero(s)
        super().__init__(patterns, prior, _code_bits(self.codes, m), s[self.codes])

    def posteriors(self, ev, labels=(0, 1)):
        tables = np.zeros((len(labels), 1 << self.bits.shape[0]))
        tables[:, self.codes] = [ev[a] for a in labels]
        w = np.empty((len(labels), self.patterns.counts.size))
        for cols, codes, weights in self.chunks:
            for row, table in zip(w, tables):
                row[cols] = (weights * table[codes]).sum(axis=1)
        return w


def soft_e_step_voxel(soft_votes, params: RaterParams, prior: float) -> float:
    """Exact soft posterior for one voxel: the binary posterior averaged
    over the joint hard votes the soft votes allow, weighted by them."""
    q = _votes(soft_votes, params.m)
    _refuse_over(q.size, ENUMERATION_GUARD, "experts for exact enumeration",
                 "use mc_soft_e_step_voxel instead")
    prior = _check_prior(prior)
    _, codes, w = next(_joint_votes(q[:, None]))
    p1 = _binary_posterior_arrays(_code_bits(codes[0], q.size), params, prior)[1]
    return float(np.clip(w[0] @ p1, 0.0, 1.0))


def soft_e_step(stack: ExpertStack, params: RaterParams, prior: float) -> VolumeGrid:
    """Exact soft posterior map over the whole grid."""
    model = _ExactModel(vote_patterns(stack), prior)
    return _posterior_map(model, model.arrays(params.reordered(model.patterns.order))).gather()


def soft_log_likelihood(stack: ExpertStack, params: RaterParams, prior: float) -> float:
    """Expected log-likelihood of the exact soft model."""
    model = _ExactModel(vote_patterns(stack), prior)
    return model.objective(model.arrays(params.reordered(model.patterns.order)))


def soft_m_step(
    stack: ExpertStack,
    params: RaterParams,
    prior: float,
    mode: str = FusionConfig.mstep_mode,
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


def _streams(voxels: np.ndarray, seed: int):
    """Yield, for each voxel t in turn, a Generator on the Philox stream
    keyed by (seed, t): one Generator, its bit generator re-keyed and reset
    each time, which draws what a new ``Generator(Philox(key=(seed, t)))``
    would (it caches nothing that its draws depend on). The state it is
    reset to holds plain Python ints, which the setter reads several times
    faster than numpy key words; the first ``Philox`` takes a uint64 key
    array, which a seed of 2^64 - 1 needs."""
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    fresh = gen.bit_generator.state
    key = [int(seed), 0]
    fresh["state"] = {"counter": [0, 0, 0, 0], "key": key}
    fresh["buffer"] = [0, 0, 0, 0]
    for t in voxels.tolist():
        key[1] = t
        gen.bit_generator.state = fresh
        yield gen


def _tallied(k, joint, samples: int, m: int):
    """Whether soft voxels with k fractional votes (of m experts) draw their
    tally, not their samples: where ``joint`` (2^k) <= ``samples`` and codes fit int64."""
    return (k > 0) & (joint <= samples) & (m <= _CODE_BITS)


def _mc_plan(cols: np.ndarray, counts: np.ndarray, samples: int):
    """Each soft-mc column's draws per voxel (0 if hard, 2^k if ``_tallied``
    picks its tally, else samples x m) and path (True if tallied), for
    ``counts`` voxels per column of votes ``cols``. Refuses, in order, a
    sampled voxel's samples x m, the kept entries, the unit votes and the
    draws over their limits."""
    m = cols.shape[0]
    k = np.count_nonzero((cols > 0.0) & (cols < 1.0), axis=0)
    # 2^k with k capped at 63: every sample count is below 2^63, so no comparison changes.
    joint = np.exp2(np.minimum(k, 63))
    tallied = _tallied(k, joint, samples, m)
    per = np.where(tallied, joint, (k > 0) * float(samples * m))
    if np.any(per[~tallied]):
        _refuse_over(samples * m, MC_DRAW_LIMIT, f"Monte Carlo draws per voxel ({samples} "
                     f"samples x {m} experts)", "lower the sample count")
    kept = int(counts[k > 0] @ np.minimum(samples, joint[k > 0]))
    _refuse_over(kept, MC_ENTRY_LIMIT, "sampled (voxel, code) entries (soft voxels "
                 "x min(samples, 2^k))", "lower the sample count")
    _refuse_over(m * min(1 << m, np.count_nonzero(k == 0) + kept), MC_ENTRY_LIMIT, "unit "
                 "votes (experts x min(2^m, hard columns + entries))", "lower the sample count")
    _refuse_over(int(counts @ per), _MC_RUN_DRAW_LIMIT, "draws (samples x experts per "
                 "sampled soft voxel, 2^k per tallied one)", "lower the sample count")
    return per, tallied


def _mc_codes(q: np.ndarray, voxels: np.ndarray, samples: int, seed: int) -> np.ndarray:
    """Sampled hard-vote codes of a block of voxels on the per-sample path,
    ``samples`` per voxel.

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
    for j, gen in enumerate(_streams(voxels, seed)):
        raw = gen.bit_generator.random_raw(samples * m).reshape(samples, m)
        np.less(np.right_shift(raw, 11, out=raw), thresholds[j], out=bits[j, :, :m])
    return _pack_codes(bits.reshape(-1, width), m)


def _mc_tallies(w: np.ndarray, voxels: np.ndarray, rows: np.ndarray, samples: int,
                seed: int) -> np.ndarray:
    """Sample counts of a block of voxels on the tally path, (voxels, 2^k),
    in the narrowest unsigned type that holds ``samples``.

    Row ``rows[j]`` of ``w`` holds voxel t = ``voxels[j]``'s 2^k joint-vote
    weights in ascending code order (as ``_joint_votes`` gives them); its
    counts are ``multinomial(samples, w[rows[j]])`` on the Philox stream
    keyed by (seed, t): the tally of ``samples`` independent joint votes,
    drawn at about 2^k binomials instead of ``samples`` x m uniforms.
    """
    counts = np.empty((voxels.size, w.shape[1]), dtype=np.min_scalar_type(samples))
    for j, (i, gen) in enumerate(zip(rows.tolist(), _streams(voxels, seed))):
        counts[j] = gen.multinomial(samples, w[i])
    return counts


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


def _voxel_tally(codes: np.ndarray, voxels: int, samples: int, m: int):
    """Tally a block of draws on the per-sample path (``samples`` codes per
    voxel, voxel by voxel) per voxel: each voxel's number of entries, then
    its distinct codes and their sample counts, sorted by voxel then code.
    A voxel with k fractional votes has at most min(samples, 2^k) entries.
    Sizes and counts come in the narrowest unsigned type that holds them.
    Each voxel's codes, int64 or packed, are sorted as a row: its entries
    start the row's runs, and their counts are the runs' lengths.
    """
    rows = np.sort(codes.reshape(voxels, samples), axis=1)
    starts = np.ones(rows.shape, dtype=bool)
    starts[:, 1:] = rows[:, 1:] != rows[:, :-1]  # numpy has no out= loop for void codes
    at = np.flatnonzero(starts)  # row-major: by voxel, then code
    counts = np.diff(at, append=rows.size)
    return _narrow_tally(np.count_nonzero(starts, axis=1), rows.ravel()[at], counts, samples, m)


def _narrow_tally(sizes, code, counts, samples: int, m: int):
    """Tally sizes and counts, and int64 codes, in the narrowest unsigned types;
    a size is at most the run's entries, so it fits int64 (``np.repeat``)."""
    if m <= _CODE_BITS:
        code = code.astype(_index_type(1 << m), copy=False)
    size = np.min_scalar_type(min(samples, MC_ENTRY_LIMIT))
    return (sizes.astype(size, copy=False), code,
            counts.astype(np.min_scalar_type(samples), copy=False))


def _voxel_means(sizes: np.ndarray, counts: np.ndarray, p1: np.ndarray, samples: int):
    """Per-voxel sample means of the posterior ``p1`` at tallied codes
    (see ``_voxel_tally``): count-weighted sums over each voxel's entries."""
    group = np.repeat(np.arange(sizes.size), sizes)
    return np.bincount(group, counts * p1, minlength=sizes.size) / samples


def _draw(cols: np.ndarray, tallied: np.ndarray, ids: np.ndarray, voxels: np.ndarray,
          samples: int, seed: int):
    """Draw one block of soft voxels: voxel t = ``voxels[j]``, whose votes are
    column ``ids[j]`` of ``cols``, on the Philox stream keyed by (seed, t).

    Yields per-voxel tallies, a group of the block's voxels at a time: their
    indices, then their sizes, codes and counts as ``_voxel_tally`` gives
    them. ``tallied`` (per column, from ``_mc_plan``) picks each voxel's
    path. A tallied voxel draws its column's 2^k joint votes' counts
    (``_mc_tallies``) straight from the weights ``_joint_votes`` enumerates
    once per distinct column of the block, and keeps those that are not 0,
    found in one flat pass over the chunk's counts (already narrow) in
    voxel, then code order; any other draws its samples (``_mc_codes``).
    """
    m = cols.shape[0]
    on = tallied[ids]
    if on.any():
        distinct, _, row = _group_keys(ids[on], cols.shape[1])
        for at, codes, w in _joint_votes(cols[:, distinct]):
            where = np.full(distinct.size, -1)
            where[at] = np.arange(at.size)
            r = where[row]  # each voxel's row of the chunk, or -1
            t, r = voxels[on][r >= 0], r[r >= 0]
            drawn = _mc_tallies(w, t, r, samples, seed)
            kept = np.flatnonzero(drawn)  # row-major: by voxel, then code
            code = codes.astype(_index_type(1 << m))[r].ravel()[kept]
            yield t, *_narrow_tally(np.count_nonzero(drawn, axis=1), code, drawn.ravel()[kept],
                                    samples, m)
    if not on.all():
        codes = _mc_codes(cols[:, ids[~on]], voxels[~on], samples, seed)
        yield voxels[~on], *_voxel_tally(codes, np.count_nonzero(~on), samples, m)


def mc_soft_e_step_voxel(
    soft_votes,
    params: RaterParams,
    prior: float,
    samples: int,
    seed: int,
    voxel_index: int = 0,
) -> float:
    """Unbiased Monte Carlo estimate of the exact soft posterior: the mean
    binary posterior over ``samples`` independent joint hard votes.

    The voxel is a block of one for ``_draw``, soft-mc's one draw function,
    on the Philox stream keyed by (seed, voxel_index). So estimates are
    reproducible voxel by voxel regardless of evaluation order, and equal
    soft-mc's fused posterior there. With k fractional votes, where 2^k <=
    ``samples`` (and m <= 62) the stream draws the tally of the 2^k joint
    votes at once (see ``_mc_tallies``), else each sample's votes (see
    ``_mc_codes``); both tallies have the same distribution. Works for any
    m; hard votes short-circuit to the exact posterior (the estimator has
    zero variance there).
    """
    check_number("samples", samples, integral=True, ge=1, lt=2**63)
    check_number("seed", seed, integral=True, ge=0, lt=SEED_SPAN)
    check_number("voxel_index", voxel_index, integral=True, ge=0, lt=SEED_SPAN)
    prior = _check_prior(prior)
    q = _votes(soft_votes, params.m)
    if np.all((q == 0.0) | (q == 1.0)):
        return float(_binary_posterior_arrays(q[:, None], params, prior)[1][0])
    _, tallied = _mc_plan(q[:, None], np.ones(1), samples)
    (_, sizes, code, counts), = _draw(q[:, None], tallied, np.zeros(1, np.intp),
                                      np.array([voxel_index]), samples, seed)
    p1 = _binary_posterior_arrays(_code_bits(code, q.size), params, prior)[1]
    return float(np.clip(_voxel_means(sizes, counts, p1, samples)[0], 0.0, 1.0))


def simple_e_step_voxel(soft_votes, params: RaterParams, prior: float) -> float:
    """Noisy-channel posterior for one voxel; linear in the expert count."""
    q = _votes(soft_votes, params.m)
    return float(_channel_posterior_arrays(q[:, None], params, _check_prior(prior))[1][0])


simple_e_step = e_step
simple_log_likelihood = log_likelihood


def simple_m_step(
    stack: ExpertStack,
    params: RaterParams,
    prior: float,
    mode: str = FusionConfig.mstep_mode,
) -> RaterParams:
    """Parameter update for the noisy-channel model (modes as in soft_m_step)."""
    model = _PatternModel(vote_patterns(stack), prior)
    params = params.reordered(model.patterns.order)
    return model.patterns.restore(*model.mstep(params, model.arrays(params), mode))


class _McModel(_PatternModel):
    """The Monte Carlo soft variant over (column, unit, weight) entries.

    Each soft voxel keeps its own keyed stream (see ``_streams``), drawn
    once per run, at set-up: the soft voxels, in voxel order, are cut into
    blocks of about ``_DRAW_BLOCK`` draws (2^k per tallied voxel, samples x
    m per sampled one), and ``_draw`` draws each block. Their per-voxel
    tallies are kept as one record, ``tally``: flat arrays of each soft
    voxel's index and number of entries, and of each entry's unit and sample
    count. The units are the distinct hard-vote codes (``table``). A soft
    column's entries are its distinct units (``_group_keys``), weighted by
    their voxels' integer counts (summed by ``_bincount``, exactly) over the
    sample count; a hard column is one entry weighted by its voxel count (the
    estimator has zero variance there), which makes the all-hard case agree
    with the binary algorithm to machine precision. The units are massed by
    their entries' summed weights. Blocks bound memory only: neither the
    tallies nor the sums depend on them, so the outputs do not either.
    Nothing builds a 2^m table, so any expert count works. With the draws
    fixed, the run is exact EM on the sampled model, whose inherited
    objective estimates the exact one; the posterior map reads each soft
    voxel's own tally. A voxel with k fractional votes keeps at most
    min(samples, 2^k) entries. ``_mc_plan`` picks each column's path and
    refuses a run over any bound before the first draw.
    """

    def __init__(self, patterns: VotePatterns, prior: float, samples: int, seed: int):
        m = patterns.order.size
        self.samples = samples
        cols, counts = patterns.columns, patterns.counts
        per, tallied = _mc_plan(cols, counts, samples)
        hard = per == 0
        soft = np.flatnonzero(~hard[patterns.inverse])
        ids = patterns.inverse[soft].astype(np.intp, copy=False)
        per = per[ids]
        cut = np.flatnonzero(np.diff((np.cumsum(per) - per) // _DRAW_BLOCK)) + 1
        tallies = []
        for block in zip(np.split(ids, cut), np.split(soft, cut)):
            tallies.extend(_draw(cols, tallied, *block, samples, seed))
        hard_codes = _pack_codes(cols[:, hard].T == 1.0, m)
        if tallies:
            voxel, size, code, count = map(np.concatenate, zip(*tallies))
        else:  # no soft voxel, so nothing drawn
            voxel, size, code, count = soft, soft, hard_codes[:0], soft
        # The hard columns' codes lead; they are in no voxel's tally.
        codes = np.concatenate([hard_codes.astype(code.dtype), code])
        self.table, _, unit = _group_keys(codes, 1 << m)
        n, units = hard_codes.size, self.table.size
        self.tally = (voxel, size, unit[n:], count)
        self.soft_columns = np.flatnonzero(~hard)
        key = np.repeat(patterns.inverse[voxel].astype(np.intp) * units, size) + unit[n:]
        key, _, entry = _group_keys(key, counts.size * units)
        sums = _bincount(entry, key.size, count)
        self.col = np.concatenate([np.flatnonzero(hard), key // units])
        self.unit = np.concatenate([unit[:n], key % units])
        self.weight = np.concatenate([counts[hard], sums / samples])
        super().__init__(patterns, prior, _code_bits(self.table, m),
                         np.bincount(self.unit, self.weight))
        self.ll_is_approximate = soft.size > 0

    def posteriors(self, ev, labels=(0, 1)):
        counts = self.patterns.counts
        return [np.bincount(self.col, self.weight * ev[a][self.unit], minlength=counts.size)
                / counts for a in labels]

    def posterior_table(self, ev):
        """Every column's posterior, then each soft voxel's own tally mean,
        which the index points it at. A soft column's entry is read by no
        voxel, so it is set to 0, which the range check passes."""
        w1 = self.posteriors(ev, (1,))[0]
        w1[self.soft_columns] = 0.0
        voxel, size, unit, count = self.tally
        table = np.concatenate([w1, _voxel_means(size, count, ev[1][unit], self.samples)])
        index = self.patterns.inverse.astype(_index_type(table.size))
        index[voxel] = w1.size + np.arange(voxel.size)
        return table, index


def run_em(x: ExpertStack | VotePatterns, config: FusionConfig | None = None) -> FusionResult:
    """Full EM fusion, under the configured variant (see ``_em_loop``), of a
    stack or of its patterns: the "binary" variant takes a binary stack, the
    soft variants a soft one. The trace records the objective the variant's
    EM ascends: the binary model's, the exact model's, the sampled model's
    (which estimates it) or the noisy-channel one. The "auto" prior is the
    mean vote, from ``VotePatterns.votes``."""
    config = config or FusionConfig()
    kind = GridKind.BINARY if config.variant == "binary" else GridKind.SOFT
    if x.kind is not kind:
        raise ConfigError(f"variant {config.variant!r} needs a {kind.value} stack")
    patterns = x if isinstance(x, VotePatterns) else vote_patterns(x)
    prior = (_mean_vote_prior(patterns.votes, patterns.order.size, patterns.dims)
             if config.prior == AUTO_PRIOR else _check_prior(config.prior))
    if config.variant == "soft-exact":
        model = _ExactModel(patterns, prior)
    elif config.variant == "soft-mc":
        model = _McModel(patterns, prior, config.mc_samples, config.mc_seed)
    else:
        model = _PatternModel(patterns, prior)
    return _em_loop(model, config)


run_soft_em = run_em
