"""Binary consensus estimation by expectation-maximization.

Given m aligned binary expert masks, the EM loop alternates a Bayes
posterior for the latent true label (E-step) with closed-form updates of
each expert's sensitivity/specificity (M-step), tracking the observed-data
log-likelihood until the parameters stop moving. A voxel's posterior
depends only on its column of votes, so every step runs once per distinct
column (:class:`VotePatterns`) and is weighted by the column's voxel
count. That binary model over weighted vote units (``_PatternModel``)
serves the soft variants too: soft-exact and soft-mc swap in enumerated or
sampled hard-vote codes as units, simplified keeps the soft columns and
reads each soft vote through the noisy channel, and one loop
(``_em_loop``) drives them all.

All per-voxel likelihood products are accumulated in log space and turned
into probabilities only inside normalized ratios, so any number of experts
can be fused without underflow. Reductions over experts always run in
sorted-expert-id order, which makes results exactly invariant to the order
in which experts are supplied.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import SEED_SPAN, ConfigError, DegeneratePosteriorError, _refuse_over, check_number
from .volume import LABEL_KINDS, Dim3, ExpertStack, GridKind, VolumeGrid, check_grid

# Parameters are clipped here after every update; keeps log() finite and
# stops sensitivity/specificity from freezing at an absorbing 0 or 1.
CLAMP_LO = 1e-7
CLAMP_HI = 1.0 - 1e-7

AUTO_PRIOR = "auto"

VARIANTS = ("binary", "soft-exact", "soft-mc", "simplified")
MSTEP_MODES = ("expected-count", "plugin-mean")

# Most levels of a soft vote row whose digits ``_soft_digits`` builds by
# comparison, one pass per level, into uint8; beyond, by searchsorted. On
# 64,000 voxels (2-core Xeon) the comparisons took 0.37 ms at 16 levels, 1.0
# at 64 and 4.0 at 256, searchsorted 2.0, 3.3 and 4.7 ms.
_COMPARED_LEVELS = 256

# Most values in (experts + 1) x distinct columns that one fold may hand out:
# the columns' float64 votes and their per-column masses. Beside the voxel
# arrays (cli.STACK_BYTE_LIMIT's 40 bytes per voxel), the binary and simplified
# models and each soft row's levels, which the fold keeps, peak at up to 52
# bytes per value (tracemalloc, 64^3, 1 to 12 experts of continuous votes, each
# voxel its own column), so at most 3.3 GiB at the limit. The 16^3 wide-panel
# benchmark case holds 13 x 1,986.
COLUMN_VOTE_LIMIT = 2**26

# Largest share of keys not 0 at which ``_group_keys`` counts and looks up
# only those. On 96^3 scattered uint8 and uint16 keys (2-core Xeon) that took
# 0.8-1.0 ms against 5.6-6.5 for all keys at 2% not 0, 3.0-3.4 against 4.6
# at 40%, and tied at about 60%.
_SPARSE_SHARE = 0.4

# Index entries ``_gather`` casts to intp at a time (256 KiB of them).
_GATHER_BLOCK = 1 << 15

_INT64_MAX = np.iinfo(np.int64).max
_CODE_SPAN = 1 << 64


@dataclass(frozen=True)
class RaterParams:
    """Per-expert sensitivity/specificity pairs."""

    sens: np.ndarray
    spec: np.ndarray

    def __post_init__(self):
        sens = np.ascontiguousarray(self.sens, dtype=np.float64).reshape(-1)
        spec = np.ascontiguousarray(self.spec, dtype=np.float64).reshape(-1)
        if sens.size != spec.size:
            raise ConfigError(
                f"sens has {sens.size} entries but spec has {spec.size}"
            )
        check_number("experts", sens.size, integral=True, ge=1)
        for name, arr in (("sens", sens), ("spec", spec)):
            if not np.all((arr >= 0.0) & (arr <= 1.0)):
                raise ConfigError(f"{name} values must lie in [0, 1]")
        sens.flags.writeable = False
        spec.flags.writeable = False
        object.__setattr__(self, "sens", sens)
        object.__setattr__(self, "spec", spec)

    @property
    def m(self) -> int:
        return self.sens.size

    def reordered(self, order) -> "RaterParams":
        order = np.asarray(order)
        if order.size != self.m:
            raise ConfigError(f"parameters for {self.m} experts given for {order.size} experts")
        return RaterParams(self.sens[order], self.spec[order])


@dataclass(frozen=True)
class FusionConfig:
    """Knobs for any fusion run.

    ``prior`` is a fixed foreground probability or "auto" (grand mean of
    all votes). ``variant`` selects the algorithm; ``mstep_mode`` only
    matters for the soft variants. ``mc_samples``/``mc_seed`` only matter
    for variant "soft-mc".
    """

    prior: float | str = AUTO_PRIOR
    init_sens: float = 0.9
    init_spec: float = 0.9
    max_iters: int = 100
    tol: float = 1e-6
    variant: str = "binary"
    mstep_mode: str = "expected-count"
    mc_samples: int = 10000
    mc_seed: int = 0

    def __post_init__(self):
        if self.prior != AUTO_PRIOR:
            _check_prior(self.prior)
        check_number("init_sens", self.init_sens, ge=0, le=1)
        check_number("init_spec", self.init_spec, ge=0, le=1)
        check_number("tol", self.tol, gt=0)
        check_number("max_iters", self.max_iters, integral=True, ge=1)
        check_number("mc_samples", self.mc_samples, integral=True, ge=1, lt=2**63)
        check_number("mc_seed", self.mc_seed, integral=True, ge=0, lt=SEED_SPAN)
        if self.variant not in VARIANTS:
            raise ConfigError(
                f"variant must be one of {VARIANTS}, got {self.variant!r}"
            )
        if self.mstep_mode not in MSTEP_MODES:
            raise ConfigError(
                f"mstep_mode must be one of {MSTEP_MODES}, got {self.mstep_mode!r}"
            )


@dataclass(frozen=True)
class FusionResult:
    """Outcome of one EM run.

    ``ll_trace`` holds the objective after each iteration's M-step; under
    the expected-count M-step it never falls (EM ascent), for every
    variant. soft-mc traces its sampled model's, an estimate of
    soft-exact's, and sets ``ll_is_approximate`` when any voxel is soft.
    """

    posterior: VolumeGrid
    params: RaterParams
    ll_trace: tuple[float, ...]
    iters_run: int
    converged: bool
    prior: float
    ll_is_approximate: bool = False


def clamp_params(sens: np.ndarray, spec: np.ndarray):
    return np.clip(sens, CLAMP_LO, CLAMP_HI), np.clip(spec, CLAMP_LO, CLAMP_HI)


def _check_prior(prior) -> float:
    """A fixed prior as a float; refused unless it is a number in (0, 1)
    (a bool or a numeric string is not)."""
    p = np.nan if isinstance(prior, bool) or not isinstance(prior, Real) else float(prior)
    if not 0.0 < p < 1.0:
        raise ConfigError(f"prior must be in (0, 1), got {prior!r}")
    return p


def _mean_vote_prior(votes: float, m: int, dims: Dim3) -> float:
    return float(np.clip(votes / (m * dims.n), CLAMP_LO, CLAMP_HI))


def canonical_order(stack: ExpertStack) -> np.ndarray:
    """Expert indices sorted by id; fixes every reduction order."""
    return id_order(stack.expert_ids)


def id_order(ids) -> np.ndarray:
    """Indices of ``ids`` in sorted-id (canonical) order."""
    return np.array(sorted(range(len(ids)), key=lambda i: ids[i]))


@dataclass(frozen=True)
class VotePatterns:
    """The distinct vote columns of a stack: ``columns`` is (m, u), rows in
    canonical expert order (``order``), columns in lexicographic order;
    ``counts`` holds how many voxels carry each column and ``inverse``
    maps every voxel to its column, in the narrowest unsigned dtype that
    holds the column count less one (uint8 up to 256 columns, uint16 up to
    65,536); index arithmetic on it casts it to intp first. ``votes`` is
    the sum of all votes, row by row in canonical order; the "auto" prior is
    their mean."""

    order: np.ndarray
    columns: np.ndarray
    counts: np.ndarray
    inverse: np.ndarray
    dims: Dim3
    kind: GridKind
    votes: float

    def restore(self, sens: np.ndarray, spec: np.ndarray) -> RaterParams:
        """Canonical-order estimates back in the stack's own expert order."""
        back = np.argsort(self.order)
        return RaterParams(sens[back], spec[back])


def vote_patterns(stack: ExpertStack) -> VotePatterns:
    """Group the voxels of a stack by their column of votes: the stack's
    rows through :func:`fold_votes`."""
    order = canonical_order(stack)
    return fold_votes((stack.experts[i].data for i in order), order, stack.kind, stack.dims)


def fold_votes(rows, order, kind: GridKind, dims: Dim3) -> VotePatterns:
    """The :class:`VotePatterns` of the flat vote rows that ``rows`` yields
    one at a time, in canonical expert order (``order``). A binary row may be
    float64 or, as ``svol_io.read_svol_row`` reads it, uint8 0 and 1.

    Each row becomes level indices (binary votes have the levels 0 and 1,
    soft ones their distinct values, see ``_soft_digits``), folded in place
    into mixed-radix codes in the smallest unsigned dtype that fits the code
    range (uint8 for up to 8 binary experts), and is dropped: the fold keeps
    only the codes and each row's levels and vote sum. When the next digit
    would pass 2^64, the running codes are first compacted to their ranks,
    which keeps the columns sorted. The codes are grouped by
    ``_group_keys``, and the columns decoded from the code values through
    each rank table. A fold of more than :data:`COLUMN_VOTE_LIMIT` column
    values is refused before that, or as soon as one row has more levels
    than the limit leaves room for columns.
    """
    code = np.zeros(dims.n, dtype=np.uint8)
    bound = 1
    votes = 0.0
    steps = []  # per expert: its levels, and the rank table compacted before it (or None)
    for row in rows:
        if kind is GridKind.BINARY:
            levels, digit = np.array([0.0, 1.0]), row != 0
            votes += np.count_nonzero(digit)  # np.sum(row), exactly, at a fifth of the time
        else:
            levels, digit = _soft_digits(row)
            votes += float(np.sum(row))
        del row  # so the next row is read with this one gone
        radix, ranks = levels.size, None
        _refuse_columns(len(order), radix)  # a row's levels are at most the columns
        if bound * radix > _CODE_SPAN:
            ranks, code = np.unique(code, return_inverse=True)
            bound = ranks.size
        code = code.astype(np.min_scalar_type(bound * radix - 1), copy=False)
        if bound > 1:  # else every code is 0, and radix may not fit the dtype
            code *= radix
        code += digit
        del digit  # so the last row's digits are gone before the grouping
        bound *= radix
        steps.append((levels, ranks))
    values, counts, inverse = _group_keys(code, bound, inverse=True)
    _refuse_columns(len(order), values.size)
    columns = np.empty((len(steps), values.size))
    for column_row, (levels, ranks) in zip(columns[::-1], reversed(steps)):
        values, digit = np.divmod(values, levels.size)
        column_row[:] = levels[digit]
        if ranks is not None:
            values = ranks[values]
    return VotePatterns(np.asarray(order), columns, counts.astype(np.float64), inverse, dims,
                        kind, votes)


def _refuse_columns(m: int, columns: int) -> None:
    _refuse_over((m + 1) * columns, COLUMN_VOTE_LIMIT, "column values ((experts + 1) x "
                 "distinct vote columns)", "crop the volumes or pass fewer experts")


def _soft_digits(row: np.ndarray):
    """A soft vote row's distinct values, ascending, and each vote's index
    among them: ``np.unique(row)`` and ``np.searchsorted`` of the row there,
    in the smallest unsigned dtype that holds the indices.

    The votes lie in [0, 1], as a soft grid's do. Only the fractional ones
    are sorted (a protocol row's few thousand surrounding voxels, not all
    n); 0 and 1 join them where they occur. Up to ``_COMPARED_LEVELS``
    levels a vote's index is the number of levels above the lowest that it
    reaches, one ``>=`` pass per level into uint8; beyond, ``np.searchsorted``.
    """
    lo, hi = row.min(), row.max()
    levels = np.concatenate([[lo] if lo == 0.0 else [],
                             np.unique(row[(row > 0.0) & (row < 1.0)]),
                             [hi] if hi == 1.0 else []])
    if levels.size > _COMPARED_LEVELS:
        return levels, np.searchsorted(levels, row).astype(np.min_scalar_type(levels.size - 1))
    digit = np.zeros(row.size, dtype=np.uint8)
    for level in levels[1:]:
        digit += row >= level
    return levels, digit


def _group_keys(key: np.ndarray, span: int, inverse: bool = False, weights=None):
    """The distinct values, ascending, of the integer ``key`` (all in [0, ``span``)),
    how often each occurs (or the sum of its positive ``weights``), and if
    ``inverse`` each key's value index (else None), in the narrowest unsigned
    dtype that holds the value count less one (uint8 up to 256 values). Keys
    are counted with bincount while ``span`` is at most twice the key count
    (there it beats a sort, which wins from about four times the key count
    on), else sorted. Counted keys find their indices in a narrow lookup
    table by indexing, which casts a narrow key block by block (``take``
    would copy it whole to intp). Without weights, where at most ``_SPARSE_SHARE`` of the keys are not 0
    (the all-background vote column of a lesion mask fold is code 0), only
    those are found, counted and looked up: 0 is then the smallest value, so
    the index starts as zeros.
    """
    if span > 2 * key.size:
        values, index = np.unique(key, return_inverse=True)
        counts = np.bincount(index, weights)
        return values, counts, index.astype(_index_type(values.size)) if inverse else None
    n, at = key.size, None
    if inverse and weights is None and np.count_nonzero(key) <= _SPARSE_SHARE * n:
        at = np.flatnonzero(key != 0)  # twice as fast as on the key itself
        key = key[at]
    counts = np.bincount(key, weights, minlength=span)
    if at is not None:
        counts[0] += n - at.size
    values = np.flatnonzero(counts)
    if not inverse:
        return values, counts[values], None
    lookup = np.zeros(span, dtype=_index_type(values.size))
    lookup[values] = np.arange(values.size)
    if at is None:
        return values, counts[values], lookup[key]
    index = np.zeros(n, dtype=lookup.dtype)
    index[at] = lookup[key]
    return values, counts[values], index


def _index_type(size: int) -> np.dtype:
    """The narrowest unsigned type that holds every index into ``size`` values."""
    return np.min_scalar_type(max(size - 1, 0))


def _gather(values: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``values[index]`` for a narrow ``index``, cast to intp one block of
    ``_GATHER_BLOCK`` at a time for ``take``'s fast intp path. On a 96^3
    uint8 index (2-core Xeon) it took 1.0 ms, indexing with the narrow index
    2.6 ms, and ``take`` on it, which casts it whole, 2.5 (0.7 on an intp
    index). ``mode="clip"`` only keeps ``take`` from buffering its output;
    every index is in range."""
    out = np.empty(index.size, dtype=values.dtype)
    buf = np.empty(min(_GATHER_BLOCK, index.size), dtype=np.intp)
    for start in range(0, index.size, _GATHER_BLOCK):
        block = index[start:start + _GATHER_BLOCK]
        part = buf[:block.size]
        part[:] = block
        values.take(part, out=out[start:start + block.size], mode="clip")
    return out


def _votes(votes, m: int) -> np.ndarray:
    """One voxel's votes as a flat float64 array, checked to number m and lie in [0, 1]."""
    y = np.ascontiguousarray(votes, dtype=np.float64).reshape(-1)
    if y.size != m:
        raise ConfigError(f"{y.size} votes for {m} experts")
    if not np.all((y >= 0.0) & (y <= 1.0)):
        raise ConfigError(f"votes must lie in [0, 1], got {y}")
    return y


def _log_class_likelihoods(y: np.ndarray, sens: np.ndarray, spec: np.ndarray):
    """Per-column log p(votes | x=a) for a=0, 1.

    ``y`` is (m, k), expert-major; the sums over experts run in the given
    row order.
    """
    sens, spec = clamp_params(sens, spec)
    ls, l1s = np.log(sens), np.log1p(-sens)
    lp, l1p = np.log(spec), np.log1p(-spec)
    log_l1 = y.T @ ls + (1.0 - y).T @ l1s
    log_l0 = y.T @ l1p + (1.0 - y).T @ lp
    return log_l0, log_l1


def _label_posteriors(a0, a1):
    """w(0), w(1) and log p(votes) from the log joints a_x = log p(x, votes),
    via an overflow-safe two-term log-sum-exp. Each posterior comes from
    its own log-odds, so w(0) keeps its digits where w(1) is near 1."""
    hi = np.maximum(a0, a1)
    lse = hi + np.log(np.exp(a0 - hi) + np.exp(a1 - hi))
    return np.exp(a0 - lse), np.exp(a1 - lse), lse


def _binary_posterior_arrays(y: np.ndarray, params: RaterParams, prior: float):
    """Per-column w(0), w(1) and log p(votes) of the binary model."""
    log_l0, log_l1 = _log_class_likelihoods(y, params.sens, params.spec)
    return _label_posteriors(np.log1p(-prior) + log_l0, np.log(prior) + log_l1)


def _channel_likelihoods(q: np.ndarray, params: RaterParams):
    """Per-expert noisy-channel likelihoods of soft votes ``q`` (m, k),
    for x=0 and x=1: each vote is a hard vote seen with probability q."""
    sens, spec = clamp_params(params.sens, params.spec)
    l1 = q * sens[:, None] + (1.0 - q) * (1.0 - sens[:, None])
    l0 = q * (1.0 - spec[:, None]) + (1.0 - q) * spec[:, None]
    return l0, l1


def _channel_posterior_arrays(q: np.ndarray, params: RaterParams, prior: float):
    """Per-column w(0), w(1) and log p(votes) of the noisy-channel model,
    then its per-vote likelihoods l0 and l1 (see ``_channel_likelihoods``);
    at votes 0 and 1 it is the binary model."""
    l0, l1 = _channel_likelihoods(q, params)
    return (*_label_posteriors(np.log1p(-prior) + np.log(l0).sum(axis=0),
                               np.log(prior) + np.log(l1).sum(axis=0)), l0, l1)


def posterior_voxel(votes, params: RaterParams, prior: float) -> float:
    """Bayes posterior that the voxel's true label is 1 given hard votes."""
    y = _votes(votes, params.m)
    return float(_binary_posterior_arrays(y[:, None], params, _check_prior(prior))[1][0])


def _mstep_ratio(num_sens, num_spec, n1, n0):
    """Normalize M-step numerators by the expected label masses sum(n1) and
    sum(n0). Sensitivity is undetermined at a zero label-1 mass, specificity
    at a label-0 mass too small to change their sum (1 - w(1) would be 0)."""
    mass1 = float(np.sum(n1))
    mass0 = float(np.sum(n0))
    if mass1 == 0.0:
        raise DegeneratePosteriorError("sensitivity")
    if mass0 + mass1 == mass1:
        raise DegeneratePosteriorError("specificity")
    return clamp_params(num_sens / mass1, num_spec / mass0)


def _plugin_mstep(columns: np.ndarray, n1: np.ndarray, n0: np.ndarray):
    """Binary update with the votes plugged in, from per-column label
    counts; exact EM for hard votes."""
    return _mstep_ratio(columns @ n1, (1.0 - columns) @ n0, n1, n0)


class _PatternModel:
    """The binary model over weighted vote units.

    ``bits`` (m, units) holds the units' votes and ``s`` their masses: by
    default the distinct vote columns and their voxel counts, while
    soft-exact and soft-mc pass their hard-vote codes. The likelihood is
    chosen once, from the units: hard units take the log-linear binary
    form, and units with any fractional vote read each vote through the
    noisy channel (the simplified variant), which equals the binary form
    at votes 0 and 1 but costs 3 to 5 times as much per evaluation on 12
    experts. ``arrays`` is the one evaluation per parameter set (``ev``):
    w(0), w(1) and log p(votes) per unit, and through the channel also each
    vote's likelihoods l0 and l1. The other methods read it:
    ``posteriors`` gives w(a) per distinct vote column for each requested
    label a; the objective (``s`` @ log p) and the expected-count M-step
    sum over the units, the plug-in M-step over the columns. ``_em_loop``
    drives any model through ``arrays``, ``mstep``, ``objective`` and
    ``voxel_posterior`` (plus ``patterns``, ``prior`` and
    ``ll_is_approximate``), always with canonical-order parameters.
    """

    ll_is_approximate = False

    def __init__(self, patterns: VotePatterns, prior: float, bits=None, s=None):
        self.patterns = patterns
        self.prior = _check_prior(prior)
        self.bits = patterns.columns if bits is None else bits
        self.s = patterns.counts if s is None else s
        self.hard = bool(np.all((self.bits == 0.0) | (self.bits == 1.0)))

    def arrays(self, params: RaterParams):
        form = _binary_posterior_arrays if self.hard else _channel_posterior_arrays
        return form(self.bits, params, self.prior)

    def posteriors(self, ev, labels=(0, 1)):
        return [ev[a] for a in labels]

    def objective(self, ev) -> float:
        return float(self.s @ ev[2])

    def voxel_posterior(self, ev) -> np.ndarray:
        return _gather(self.posteriors(ev, (1,))[0], self.patterns.inverse)

    def mstep(self, params: RaterParams, ev, mode: str):
        """The update from ``params`` and the evaluation ``ev`` there. Expected
        counts run over the true label and, for soft units, the hidden hard
        vote behind each soft vote (the vote itself for hard units)."""
        if mode not in MSTEP_MODES:
            raise ConfigError(f"unknown mstep mode {mode!r}")
        if mode == "plugin-mean":
            w0, w1 = self.posteriors(ev)
            counts = self.patterns.counts
            return _plugin_mstep(self.patterns.columns, counts * w1, counts * w0)
        n1 = ev[1] * self.s
        n0 = ev[0] * self.s
        if self.hard:
            h1, h0 = self.bits, 1.0 - self.bits
        else:
            sens, spec = clamp_params(params.sens, params.spec)
            l0, l1 = ev[3:]
            h1 = self.bits * sens[:, None] / l1
            h0 = (1.0 - self.bits) * spec[:, None] / l0
        return _mstep_ratio(h1 @ n1, h0 @ n0, n1, n0)


def _posterior_grid(model, ev) -> VolumeGrid:
    """A model's posterior map from its evaluation ``ev``; the range is
    still checked after the clip, which lets NaN through."""
    w1 = model.voxel_posterior(ev)
    np.clip(w1, 0.0, 1.0, out=w1)
    grid = VolumeGrid._owned(model.patterns.dims, w1, GridKind.POSTERIOR)
    grid.validate()
    return grid


def _em_loop(model, config: FusionConfig) -> FusionResult:
    """The EM iterations every variant shares.

    Evaluates the model once per parameter set: at the config's initial
    sensitivity/specificity and after each M-step. Each evaluation feeds
    the next M-step (its E-step), the objective and the final posterior.
    Stops once every parameter moves less than ``tol`` or after
    ``max_iters``; a collapsed M-step raises with the trace so far.
    """
    m = model.patterns.order.size
    params = RaterParams(*clamp_params(np.full(m, config.init_sens), np.full(m, config.init_spec)))
    ev = model.arrays(params)
    trace: list[float] = []
    converged = False
    iters = 0
    for iters in range(1, config.max_iters + 1):
        try:
            new = RaterParams(*model.mstep(params, ev, config.mstep_mode))
        except DegeneratePosteriorError as err:
            raise DegeneratePosteriorError(err.side, trace) from None
        ev = model.arrays(new)
        trace.append(model.objective(ev))
        step = np.abs(np.concatenate([new.sens - params.sens, new.spec - params.spec]))
        params = new
        if step.max() < config.tol:
            converged = True
            break
    posterior = _posterior_grid(model, ev)
    return FusionResult(posterior, model.patterns.restore(params.sens, params.spec), tuple(trace),
                        iters, converged, model.prior, model.ll_is_approximate)


def e_step(stack: ExpertStack, params: RaterParams, prior: float) -> VolumeGrid:
    """Posterior map w(1) over the whole grid; w(0) is its complement. On
    a soft stack it is the simplified (noisy-channel) model's."""
    model = _PatternModel(vote_patterns(stack), prior)
    return _posterior_grid(model, model.arrays(params.reordered(model.patterns.order)))


def m_step(stack: ExpertStack, w: VolumeGrid) -> RaterParams:
    """Reliability updates from expected true-label counts."""
    check_grid("w", w, LABEL_KINDS, like=stack)
    patterns = vote_patterns(stack)
    u = patterns.counts.size
    n1 = np.bincount(patterns.inverse, weights=w.data, minlength=u)
    n0 = np.bincount(patterns.inverse, weights=1.0 - w.data, minlength=u)
    return patterns.restore(*_plugin_mstep(patterns.columns, n1, n0))


def log_likelihood(stack: ExpertStack, params: RaterParams, prior: float) -> float:
    """Observed-data log-likelihood of the binary model; on a soft stack,
    of the simplified (noisy-channel) model."""
    model = _PatternModel(vote_patterns(stack), prior)
    return model.objective(model.arrays(params.reordered(model.patterns.order)))


def binarize(posterior: VolumeGrid) -> VolumeGrid:
    """Hard consensus: label 1 where w(1) > 0.5; the 0.5 tie goes to 0."""
    check_grid("posterior", posterior, GridKind.POSTERIOR)
    consensus = np.greater(posterior.data, 0.5, out=np.empty(posterior.n))
    return VolumeGrid._owned(posterior.dims, consensus, GridKind.BINARY)
