"""Independent brute-force reference implementations used as oracles.

Everything in this module is transcribed directly from the probability
model with plain Python loops and shares no code with the package, so
agreement between the two paths is evidence rather than tautology.
"""

import math

import numpy as np


def posterior_brute(votes, sens, spec, prior):
    """Bayes posterior of label 1 for one voxel's hard votes."""
    l1 = 1.0
    l0 = 1.0
    for y, se, sp in zip(votes, sens, spec):
        l1 *= se if y == 1 else 1.0 - se
        l0 *= (1.0 - sp) if y == 1 else sp
    return prior * l1 / ((1.0 - prior) * l0 + prior * l1)


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


def soft_posterior_brute(q, sens, spec, prior):
    """Exact soft posterior: literal sum over all 2^m vote combinations."""
    m = len(q)
    total = 0.0
    for code in range(2**m):
        bits = _combo_bits(code, m)
        weight = 1.0
        for qi, b in zip(q, bits):
            weight *= qi if b else 1.0 - qi
        total += weight * posterior_brute(bits, sens, spec, prior)
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
            den1 += weight * p1
            den0 += weight * (1.0 - p1)
            for i, b in enumerate(bits):
                num_sens[i] += weight * p1 * b
                num_spec[i] += weight * (1.0 - p1) * (1 - b)
    return (
        np.array([v / den1 for v in num_sens]),
        np.array([v / den0 for v in num_spec]),
    )


def simple_posterior_brute(q, sens, spec, prior):
    """Noisy-channel posterior: per-expert mixtures, then Bayes."""
    l1 = 1.0
    l0 = 1.0
    for qi, se, sp in zip(q, sens, spec):
        l1 *= qi * se + (1.0 - qi) * (1.0 - se)
        l0 *= qi * (1.0 - sp) + (1.0 - qi) * sp
    return prior * l1 / ((1.0 - prior) * l0 + prior * l1)


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


def plugin_mstep_brute(q_matrix, w1):
    """Binary update with the votes plugged in, for a given posterior w(1)."""
    m, n = q_matrix.shape
    den1 = sum(w1[t] for t in range(n))
    den0 = sum(1.0 - w1[t] for t in range(n))
    sens = [sum(q_matrix[i, t] * w1[t] for t in range(n)) / den1 for i in range(m)]
    spec = [
        sum((1.0 - q_matrix[i, t]) * (1.0 - w1[t]) for t in range(n)) / den0
        for i in range(m)
    ]
    return np.array(sens), np.array(spec)


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
        den1 += w1
        den0 += 1.0 - w1
        for i in range(m):
            hit = q[i] * sens[i]
            num_sens[i] += w1 * hit / (hit + (1.0 - q[i]) * (1.0 - sens[i]))
            rej = (1.0 - q[i]) * spec[i]
            num_spec[i] += (1.0 - w1) * rej / (q[i] * (1.0 - spec[i]) + rej)
    return (
        np.array([v / den1 for v in num_sens]),
        np.array([v / den0 for v in num_spec]),
    )


def mc_uniforms_brute(m, samples, seed, voxel_index):
    """One voxel's (samples, m) Monte Carlo uniforms, drawn by numpy's own
    Generator from the Philox stream keyed by (seed, voxel index)."""
    mask = (1 << 64) - 1
    key = np.array([seed & mask, voxel_index & mask], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).random((samples, m))


def mc_draws_brute(q, samples, seed, voxel_index):
    """One voxel's Monte Carlo hard votes, (samples, m) booleans."""
    q = np.asarray(q, dtype=np.float64)
    return mc_uniforms_brute(q.size, samples, seed, voxel_index) < q


def _mc_voxel_draws(q, samples, seed, voxel_index):
    """A voxel's samples; hard votes are their own single sample."""
    if all(v in (0.0, 1.0) for v in q):
        return [q == 1.0]
    return mc_draws_brute(q, samples, seed, voxel_index)


def mc_posterior_brute(q, sens, spec, prior, samples, seed, voxel_index):
    """Monte Carlo posterior of one voxel: the mean over its samples."""
    draws = _mc_voxel_draws(q, samples, seed, voxel_index)
    return sum(posterior_brute(bits, sens, spec, prior) for bits in draws) / len(draws)


def mc_loglik_brute(q_matrix, sens, spec, prior, samples, seed):
    """Monte Carlo objective: the mean log-likelihood over each voxel's
    samples, summed over the voxels."""
    m, n = q_matrix.shape
    total = 0.0
    for t in range(n):
        draws = _mc_voxel_draws(q_matrix[:, t], samples, seed, t)
        voxel = 0.0
        for bits in draws:
            l1 = 1.0
            l0 = 1.0
            for i in range(m):
                l1 *= sens[i] if bits[i] else 1.0 - sens[i]
                l0 *= (1.0 - spec[i]) if bits[i] else spec[i]
            voxel += math.log((1.0 - prior) * l0 + prior * l1)
        total += voxel / len(draws)
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
        draws = _mc_voxel_draws(q_matrix[:, t], samples, seed, t)
        for bits in draws:
            p1 = posterior_brute(bits, sens, spec, prior) / len(draws)
            p0 = 1.0 / len(draws) - p1
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
