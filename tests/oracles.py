"""Independent brute-force reference implementations used as oracles.

Everything in this module is transcribed directly from the probability
model with plain Python loops (the soft-mask protocol with scipy's
whole-grid morphology) and shares no code with the package, so agreement
between the two paths is evidence rather than tautology. The one exception,
``exact_posteriors_enumerated``, is a reference for bit-for-bit checks: it
runs the package's joint-vote enumeration afresh.
"""

import math
from fractions import Fraction

import numpy as np
from scipy import ndimage


def _hard_likelihoods(votes, sens, spec):
    """p(votes | x=0) and p(votes | x=1) for one voxel's hard votes."""
    l1 = 1.0
    l0 = 1.0
    for y, se, sp in zip(votes, sens, spec):
        l1 *= se if y == 1 else 1.0 - se
        l0 *= (1.0 - sp) if y == 1 else sp
    return l0, l1


def _bayes(l0, l1, prior, label):
    """Posterior of ``label`` from the class likelihoods. Label 0 takes its
    own ratio: 1 - w(1) would lose its digits where w(1) is near 1."""
    joint = prior * l1 if label == 1 else (1.0 - prior) * l0
    return joint / ((1.0 - prior) * l0 + prior * l1)


def posterior_brute(votes, sens, spec, prior, label=1):
    """Bayes posterior of the label (1 unless given) for one voxel's hard votes."""
    return _bayes(*_hard_likelihoods(votes, sens, spec), prior, label)


def loglik_brute(votes_matrix, sens, spec, prior):
    """Observed-data log-likelihood, summed voxel by voxel."""
    m, n = votes_matrix.shape
    total = 0.0
    for t in range(n):
        l1 = 1.0
        l0 = 1.0
        for i in range(m):
            y = votes_matrix[i, t]
            l1 *= sens[i] if y == 1 else 1.0 - sens[i]
            l0 *= (1.0 - spec[i]) if y == 1 else spec[i]
        total += math.log((1.0 - prior) * l0 + prior * l1)
    return total


def _combo_bits(code, m):
    return [(code >> i) & 1 for i in range(m)]


def soft_posterior_brute(q, sens, spec, prior, label=1):
    """Exact soft posterior of the label (1 unless given): literal sum over
    all 2^m vote combinations."""
    m = len(q)
    total = 0.0
    for code in range(2**m):
        bits = _combo_bits(code, m)
        weight = 1.0
        for qi, b in zip(q, bits):
            weight *= qi if b else 1.0 - qi
        total += weight * posterior_brute(bits, sens, spec, prior, label)
    return total


def soft_loglik_brute(q_matrix, sens, spec, prior):
    """Expected log-likelihood of the exact soft model."""
    m, n = q_matrix.shape
    total = 0.0
    for t in range(n):
        for code in range(2**m):
            bits = _combo_bits(code, m)
            weight = 1.0
            l1 = 1.0
            l0 = 1.0
            for i, b in enumerate(bits):
                weight *= q_matrix[i, t] if b else 1.0 - q_matrix[i, t]
                l1 *= sens[i] if b else 1.0 - sens[i]
                l0 *= (1.0 - spec[i]) if b else spec[i]
            if weight > 0.0:
                total += weight * math.log((1.0 - prior) * l0 + prior * l1)
    return total


def soft_expected_count_mstep_brute(q_matrix, sens, spec, prior):
    """Expected-count parameter update of the exact soft model."""
    m, n = q_matrix.shape
    num_sens = [0.0] * m
    num_spec = [0.0] * m
    den1 = 0.0
    den0 = 0.0
    for t in range(n):
        for code in range(2**m):
            bits = _combo_bits(code, m)
            weight = 1.0
            for i, b in enumerate(bits):
                weight *= q_matrix[i, t] if b else 1.0 - q_matrix[i, t]
            p1 = posterior_brute(bits, sens, spec, prior)
            p0 = posterior_brute(bits, sens, spec, prior, 0)
            den1 += weight * p1
            den0 += weight * p0
            for i, b in enumerate(bits):
                num_sens[i] += weight * p1 * b
                num_spec[i] += weight * p0 * (1 - b)
    return (
        np.array([v / den1 for v in num_sens]),
        np.array([v / den0 for v in num_spec]),
    )


def simple_posterior_brute(q, sens, spec, prior, label=1):
    """Noisy-channel posterior of the label (1 unless given): per-expert
    mixtures, then Bayes."""
    l1 = 1.0
    l0 = 1.0
    for qi, se, sp in zip(q, sens, spec):
        l1 *= qi * se + (1.0 - qi) * (1.0 - se)
        l0 *= qi * (1.0 - sp) + (1.0 - qi) * sp
    return _bayes(l0, l1, prior, label)


def simple_loglik_brute(q_matrix, sens, spec, prior):
    m, n = q_matrix.shape
    total = 0.0
    for t in range(n):
        l1 = 1.0
        l0 = 1.0
        for i in range(m):
            qi = q_matrix[i, t]
            l1 *= qi * sens[i] + (1.0 - qi) * (1.0 - sens[i])
            l0 *= qi * (1.0 - spec[i]) + (1.0 - qi) * spec[i]
        total += math.log((1.0 - prior) * l0 + prior * l1)
    return total


def plugin_mstep_brute(q_matrix, w1, w0=None):
    """Binary update with the votes plugged in, for a given posterior w(1)
    and w(0) (1 - w(1) unless given)."""
    m, n = q_matrix.shape
    if w0 is None:
        w0 = [1.0 - w1[t] for t in range(n)]
    den1 = sum(w1[t] for t in range(n))
    den0 = sum(w0[t] for t in range(n))
    sens = [sum(q_matrix[i, t] * w1[t] for t in range(n)) / den1 for i in range(m)]
    spec = [
        sum((1.0 - q_matrix[i, t]) * w0[t] for t in range(n)) / den0
        for i in range(m)
    ]
    return np.array(sens), np.array(spec)


def plugin_mstep_exact(q_matrix, sens, spec, prior):
    """Binary update with the votes plugged in at the noisy-channel
    posterior, in exact rational arithmetic (every float is a rational).
    On hard votes the channel posterior is the binary one, and the update
    is also the expected-count update of every variant."""
    q = [[Fraction(float(v)) for v in row] for row in q_matrix]
    se = [Fraction(float(v)) for v in sens]
    sp = [Fraction(float(v)) for v in spec]
    pi = Fraction(float(prior))
    m, n = len(q), len(q[0])
    w1 = []
    for t in range(n):
        l1 = Fraction(1)
        l0 = Fraction(1)
        for i in range(m):
            l1 *= q[i][t] * se[i] + (1 - q[i][t]) * (1 - se[i])
            l0 *= q[i][t] * (1 - sp[i]) + (1 - q[i][t]) * sp[i]
        w1.append(pi * l1 / (pi * l1 + (1 - pi) * l0))
    den1 = sum(w1)
    den0 = sum(1 - w for w in w1)
    sens_new = [sum(q[i][t] * w1[t] for t in range(n)) / den1 for i in range(m)]
    spec_new = [sum((1 - q[i][t]) * (1 - w1[t]) for t in range(n)) / den0 for i in range(m)]
    return np.array([float(v) for v in sens_new]), np.array([float(v) for v in spec_new])


def simple_expected_count_mstep_brute(q_matrix, sens, spec, prior):
    """Expected-count update of the noisy-channel model: each soft vote's
    hidden hard vote gets its own posterior given the true label."""
    m, n = q_matrix.shape
    num_sens = [0.0] * m
    num_spec = [0.0] * m
    den1 = 0.0
    den0 = 0.0
    for t in range(n):
        q = q_matrix[:, t]
        w1 = simple_posterior_brute(q, sens, spec, prior)
        w0 = simple_posterior_brute(q, sens, spec, prior, 0)
        den1 += w1
        den0 += w0
        for i in range(m):
            hit = q[i] * sens[i]
            num_sens[i] += w1 * hit / (hit + (1.0 - q[i]) * (1.0 - sens[i]))
            rej = (1.0 - q[i]) * spec[i]
            num_spec[i] += w0 * rej / (q[i] * (1.0 - spec[i]) + rej)
    return (
        np.array([v / den1 for v in num_sens]),
        np.array([v / den0 for v in num_spec]),
    )


def exact_posteriors_enumerated(model, ev, labels=(0, 1)):
    """soft-exact's per-column posteriors w(a) from the evaluation ``ev`` of
    its ``model``, with the model's joint votes enumerated afresh by
    ``soft_staple._joint_votes`` rather than read from its kept chunks: the
    same sums in the same order, so it must match them bit for bit."""
    from fuselab.soft_staple import _joint_votes

    tables = np.zeros((len(labels), 1 << model.bits.shape[0]))
    tables[:, model.codes] = [ev[a] for a in labels]
    w = np.empty((len(labels), model.patterns.counts.size))
    for cols, codes, weights in _joint_votes(model.patterns.columns):
        for row, table in zip(w, tables):
            row[cols] = (weights * table[codes]).sum(axis=1)
    return w


def _mc_generator(seed, voxel_index):
    """numpy's own Generator on the Philox stream keyed by (seed, voxel index)."""
    mask = (1 << 64) - 1
    key = np.array([seed & mask, voxel_index & mask], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def mc_uniforms_brute(m, samples, seed, voxel_index):
    """One voxel's (samples, m) Monte Carlo uniforms on its keyed stream."""
    return _mc_generator(seed, voxel_index).random((samples, m))


def mc_draws_brute(q, samples, seed, voxel_index):
    """One voxel's Monte Carlo hard votes, (samples, m) booleans."""
    q = np.asarray(q, dtype=np.float64)
    return mc_uniforms_brute(q.size, samples, seed, voxel_index) < q


def mc_tally_brute(q, samples, seed, voxel_index):
    """One voxel's Monte Carlo draws as (hard votes, sample count) pairs.

    With k fractional votes, where 2^k <= samples and m <= 62, the counts
    are one multinomial draw on the keyed stream over the 2^k joint votes,
    in ascending code order (expert 0 the lowest bit), each weighted by
    the product of its votes' probabilities; pairs drawn 0 times are left
    out. Otherwise each sample is its own pair, counted once."""
    q = [float(v) for v in q]
    frac = [i for i, v in enumerate(q) if 0.0 < v < 1.0]
    if 2 ** len(frac) > samples or len(q) > 62:
        return [(bits, 1) for bits in mc_draws_brute(q, samples, seed, voxel_index)]
    combos = []
    weights = []
    for j in range(2 ** len(frac)):
        bits = [v == 1.0 for v in q]
        weight = 1.0
        for b, i in enumerate(frac):
            bits[i] = (j >> b) & 1 == 1
            weight *= q[i] if bits[i] else 1.0 - q[i]
        combos.append(bits)
        weights.append(weight)
    counts = _mc_generator(seed, voxel_index).multinomial(samples, weights)
    return [(bits, int(c)) for bits, c in zip(combos, counts) if c > 0]


def _mc_voxel_draws(q, samples, seed, voxel_index):
    """A voxel's (hard votes, weight) pairs, weights summing to one; hard
    votes are their own single sample."""
    if all(v in (0.0, 1.0) for v in q):
        return [([v == 1.0 for v in q], 1.0)]
    return [(bits, c / samples) for bits, c in mc_tally_brute(q, samples, seed, voxel_index)]


def mc_posterior_brute(q, sens, spec, prior, samples, seed, voxel_index):
    """Monte Carlo posterior of one voxel: the mean over its samples."""
    draws = _mc_voxel_draws(q, samples, seed, voxel_index)
    return sum(w * posterior_brute(bits, sens, spec, prior) for bits, w in draws)


def mc_loglik_brute(q_matrix, sens, spec, prior, samples, seed):
    """Monte Carlo objective: the mean log-likelihood over each voxel's
    samples, summed over the voxels."""
    m, n = q_matrix.shape
    total = 0.0
    for t in range(n):
        for bits, w in _mc_voxel_draws(q_matrix[:, t], samples, seed, t):
            l1 = 1.0
            l0 = 1.0
            for i in range(m):
                l1 *= sens[i] if bits[i] else 1.0 - sens[i]
                l0 *= (1.0 - spec[i]) if bits[i] else spec[i]
            total += w * math.log((1.0 - prior) * l0 + prior * l1)
    return total


def mc_expected_count_mstep_brute(q_matrix, sens, spec, prior, samples, seed):
    """Expected-count update with each voxel's expectations taken over its
    Monte Carlo samples."""
    m, n = q_matrix.shape
    num_sens = [0.0] * m
    num_spec = [0.0] * m
    den1 = 0.0
    den0 = 0.0
    for t in range(n):
        for bits, w in _mc_voxel_draws(q_matrix[:, t], samples, seed, t):
            p1 = w * posterior_brute(bits, sens, spec, prior)
            p0 = w * posterior_brute(bits, sens, spec, prior, 0)
            den1 += p1
            den0 += p0
            for i in range(m):
                num_sens[i] += p1 * bits[i]
                num_spec[i] += p0 * (1 - bits[i])
    return (
        np.array([v / den1 for v in num_sens]),
        np.array([v / den0 for v in num_spec]),
    )


def majority_vote(votes_matrix):
    """Plain majority baseline; exact ties go to background."""
    m = votes_matrix.shape[0]
    return (votes_matrix.sum(axis=0) > m / 2.0).astype(float)


def precision_recall_float(truth, pred, threshold=0.5, binarize_truth=False):
    """Confusion counts as float sums of 0/1 products: (dice, precision,
    recall, tp, fp, fn), with the package's 1e-7 Dice smoothing."""
    eps = 1e-7
    t = (truth > threshold).astype(np.float64) if binarize_truth else truth
    p = (pred > threshold).astype(np.float64)
    tp = float(np.sum(t * p))
    fp = float(np.sum((1.0 - t) * p))
    fn = float(np.sum(t * (1.0 - p)))
    dice = (tp + eps) / (tp + 0.5 * fp + 0.5 * fn + eps)
    precision = tp / (tp + fp) if tp + fp > 0 else None
    recall = tp / (tp + fn) if tp + fn > 0 else None
    return dice, precision, recall, tp, fp, fn


def dice_hard(truth, pred):
    """Plain hard Dice on 0/1 arrays; empty-vs-empty scores 1."""
    tp = float(np.sum(truth * pred))
    fp = float(np.sum((1 - truth) * pred))
    fn = float(np.sum(truth * (1 - pred)))
    if tp + fp + fn == 0.0:
        return 1.0
    return 2.0 * tp / (2.0 * tp + fp + fn)


def sphere_count_brute(dims, center, radius):
    """Lattice points of the grid within Euclidean distance of the center."""
    count = 0
    for iz in range(dims[2]):
        for iy in range(dims[1]):
            for ix in range(dims[0]):
                d2 = (ix - center[0]) ** 2 + (iy - center[1]) ** 2 + (iz - center[2]) ** 2
                if d2 <= radius**2:
                    count += 1
    return count


def soft_mask_brute(mask, flair, gamma=0.3, ratio=1.2, mode="percentile",
                    value=10.0, connectivity=26, max_iters=10):
    """The soft-mask protocol on whole [z, y, x] grids: each component is
    dilated over the full grid, one unit step at a time, until it holds
    ratio times its voxels, the cap is hit or a step adds no voxel; its
    ring voxels at or above the threshold get gamma, annotations stay 1."""
    structure = ndimage.generate_binary_structure(3, {6: 1, 18: 2, 26: 3}[connectivity])
    original = mask > 0.5
    out = original.astype(np.float64)
    labels, count = ndimage.label(original, structure=structure)
    for cid in range(1, count + 1):
        comp = labels == cid
        candidate, size, last, iters = comp, int(comp.sum()), -1, 0
        target = ratio * size
        while last < size < target and iters < max_iters:
            candidate = ndimage.binary_dilation(candidate, structure=structure)
            last, size = size, int(candidate.sum())
            iters += 1
        if mode == "fixed":
            threshold = value
        else:
            values = sorted(flair[comp])
            rank = max(1, math.ceil(value / 100.0 * len(values)))
            threshold = values[min(rank, len(values)) - 1]
        accepted = candidate & ~original & (flair >= threshold)
        out[accepted] = np.maximum(out[accepted], gamma)
    return out


def mean_vote_prior(votes_matrix, ids=None):
    """The "auto" prior: the grand mean of all votes, clamped to
    [1e-7, 1 - 1e-7]. The rows are summed one at a time, in sorted-id order
    (row order without ``ids``), as the package sums them."""
    order = range(len(votes_matrix)) if ids is None else sorted(range(len(ids)),
                                                                key=ids.__getitem__)
    total = sum(float(np.sum(votes_matrix[i])) for i in order)
    return min(max(total / votes_matrix.size, 1e-7), 1.0 - 1e-7)
