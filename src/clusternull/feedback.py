"""Limited-feedback machinery: the exact law of RVQ (random vector
quantization) distortion, its means, and equal/adaptive partitioning of the
feedback budget across channels.

An allocation is a plain pair (b0, b_intra): the bits of the desired
channel and the integer bits per interferer, aligned with the ascending
interferer distances.  The adaptive rule has one implementation,
`adaptive_decision`, over a batch of same-size interferer-distance rows;
`adaptive_allocation` is its one-row case plus the integer interferer
shares.  Path losses and their prefix sums are array operations over the
rows, and the closed forms run per row on Python floats, so a row's result
does not depend on the batch it is in."""

import math

import numpy as np

from . import specfun
from .errors import DomainError


# ---------------------------------------------------------------------------
# RVQ quantization
# ---------------------------------------------------------------------------

def sample_rvq_sin2(n_t, bits, u):
    """Exact law of the RVQ chordal distortion sin^2(angle(v, c_best)).

    For isotropic codewords in C^n_t the per-codeword distortion is
    Beta(n_t - 1, 1); the chosen codeword realizes the minimum over 2^bits
    draws, sampled here by inverse transform of a single uniform u.
    Identical in distribution to picking the best of 2^bits isotropic
    codewords, at O(1) cost for any bit count.
    """
    if n_t == 1:
        return np.zeros_like(np.asarray(u, dtype=float))
    u = np.asarray(u, dtype=float)
    log_u = np.log(np.clip(u, 1e-300, 1.0))
    return (-np.expm1(log_u * 2.0 ** (-float(bits)))) ** (1.0 / (n_t - 1))


def rvq_mean_sin2(n_t, bits):
    """E{sin^2 theta} for bits-bit RVQ in C^n_t: 2^B beta(2^B, n_t/(n_t-1))."""
    if n_t == 1:
        return 0.0
    b = 2.0 ** bits
    return b * specfun.beta(b, n_t / (n_t - 1.0))


def rvq_mean_interference(n_t, bits):
    """E{|g* f_hat|^2} for a quantized-then-nulled unit-power channel."""
    return n_t / (n_t - 1.0) * rvq_mean_sin2(n_t, bits)


def rvq_gammas(n_t):
    """(Gamma(n_t/(n_t-1)), Gamma((2n_t-1)/(n_t-1))) at n_t >= 2: the
    constants of the Stirling-form RVQ means of the desired channel and of
    an interferer."""
    return (math.exp(specfun.ln_gamma(n_t / (n_t - 1.0))),
            math.exp(specfun.ln_gamma((2.0 * n_t - 1.0) / (n_t - 1.0))))


def rvq_mean_interference_stirling(n_t, bits):
    """Stirling form of the same mean: Gamma((2n_t-1)/(n_t-1)) 2^(-B/(n_t-1))."""
    return rvq_gammas(n_t)[1] * 2.0 ** (-bits / (n_t - 1.0))


# ---------------------------------------------------------------------------
# Bit partitioning
# ---------------------------------------------------------------------------

def equal_split(b_tot, n, bias=True):
    """Near-equal split of b_tot across the desired channel and n
    interferers: (b0, share), each interferer receiving share bits.

    bias=True gives the division remainder to the desired channel; with
    bias=False the remainder is discarded.  When b_tot < n + 1 the share is
    0 and no interferer receives bits.
    """
    share = b_tot // (n + 1)
    return (b_tot - n * share if bias else share), share


def equal_allocation(b_tot, n, bias=True):
    """The equal split as an allocation (b0, b_intra)."""
    b0, share = equal_split(b_tot, n, bias)
    return int(b0), np.full(n, share, dtype=int)


def _effective_sizes(log2_pl, b_i, n_t, lhs):
    """Effective-set size of each row of `log2_pl` (-log2 of the ascending
    path losses) at the interferer budgets `b_i`, one per row.

    The positivity condition need only be checked for the weakest member
    of the candidate prefix; the left side is monotone in the distance.
    Prefixes are tried from the longest down, each one's left sides for
    every row at once, until every row has found its prefix or been left
    empty.  `lhs` caches the left sides by prefix length, so that calls on
    one `log2_pl` share them.
    """
    sizes = [0] * len(b_i)
    todo = [i for i, b in enumerate(b_i) if b > 0]
    k = log2_pl.shape[1]
    while todo and k:
        if k not in lhs:
            lhs[k] = (log2_pl[:, k - 1]
                      - np.add.reduce(log2_pl[:, :k], axis=1) / k).tolist()
        lhs_k, scale = lhs[k], k * (n_t - 1.0)
        left = []
        for i in todo:
            if lhs_k[i] < b_i[i] / scale:
                sizes[i] = k
            else:
                left.append(i)
        todo, k = left, k - 1
    return sizes


def _integerize_largest_remainder(real_bits, total):
    floors = np.floor(real_bits).astype(int)
    floors = np.maximum(floors, 0)
    rem = int(total - floors.sum())
    if rem > 0:
        frac = real_bits - np.floor(real_bits)
        for idx in np.argsort(-frac)[:rem]:
            floors[idx] += 1
    elif rem < 0:
        # only reachable through clamping; shave the largest entries
        for idx in np.argsort(-floors)[: -rem]:
            floors[idx] -= 1
    return floors


def adaptive_decision(rows, b_tot, n_t, alpha, e_iout, inv_snr):
    """The adaptive rule for a batch of interferer-distance rows of one
    size n, each ascending, at n_t >= 2 antennas.  Returns the lists
    (b0, size, residual): the bits of the desired channel, the
    effective-set size (the set is that many nearest interferers) and
    whether the residual term dominates, one entry per row.  A row's
    decisions depend on that row alone.

    Fixed-point order: the residual-vs-inter-cluster regime is first tested
    at the equal-split candidate, the dominant-inter-cluster closed form for
    b0 is evaluated on that candidate's effective set, and the regime is
    re-tested at the resulting allocation before committing.  A row whose
    final effective set is empty gives the whole budget to the desired
    channel.  Path losses and their sums run on arrays over the rows; the
    tests and closed forms run per row on Python floats.
    """
    m, n = rows.shape
    noise_floor = e_iout + inv_snr
    b_eq = b_tot // (n + 1)
    stir_eq = rvq_mean_interference_stirling(n_t, b_eq)
    one_r = 1.0 + rows
    res_eq = (np.add.reduce(one_r ** (-alpha), axis=1) * stir_eq).tolist()
    residual = [res > noise_floor for res in res_eq]
    log2_1r = np.log2(one_r)
    log2_pl = alpha * log2_1r                  # -log2 of (1+r)^(-alpha)
    lhs = {}
    sizes = _effective_sizes(log2_pl, [n * b_eq] * m, n_t, lhs)

    b0 = [b_tot] * m
    sum_log2 = {k: np.add.reduce(log2_1r[:, :k], axis=1).tolist()
                for k in set(sizes) - {0}}
    gamma1, gamma2 = rvq_gammas(n_t)
    for i, k in enumerate(sizes):
        if k == 0:
            continue
        log2_gm = -(alpha / k) * sum_log2[k][i]    # log2 of the product term
        if residual[i]:
            b0_real = (n_t - 1.0) * math.log2(k * gamma1)
        else:
            coef = (n_t - 1.0) * k / (k + 1.0)
            b0_real = (b_tot / (k + 1.0)
                       - coef * (math.log2(n_t * k / (n_t - 1.0)) + log2_gm)
                       + coef * math.log2(noise_floor))
            b0_real = min(max(b0_real, 0.0), float(b_tot))
            # re-test the regime at the dominant-inter-cluster solution
            res_opt = gamma2 * k * 2.0 ** (-(b_tot - b0_real) / (k * (n_t - 1.0))) \
                * 2.0 ** log2_gm
            if res_opt > noise_floor:
                residual[i] = True
                b0_real = (n_t - 1.0) * math.log2(k * gamma1)
        b0_real = min(max(b0_real, 0.0), float(b_tot))
        if residual[i]:
            b0[i] = int(min(math.ceil(b0_real), b_tot))
        else:
            b0[i] = int(math.floor(b0_real))

    sizes = _effective_sizes(log2_pl, [b_tot - b for b in b0], n_t, lhs)
    b0 = [b if k else b_tot for b, k in zip(b0, sizes)]
    return b0, sizes, residual


def adaptive_allocation(r_intra, b_tot, n_t, alpha, e_iout, inv_snr):
    """Strength-aware split of b_tot (desired channel + effective
    interferers) as an allocation (b0, b_intra).

    `adaptive_decision` on the one row fixes b0 and the effective set.
    Interferer bits follow the water-filling-style closed form on the
    effective set, rounded by largest remainder so the budget binds
    exactly.
    """
    r_intra = np.asarray(r_intra, dtype=float)
    n = len(r_intra)
    if b_tot < 1:
        raise DomainError(f"adaptive_allocation needs b_tot >= 1, got {b_tot}")
    b_intra = np.zeros(n, dtype=int)
    if n == 0:
        return int(b_tot), b_intra
    if np.any(np.diff(r_intra) < 0):
        raise DomainError("r_intra must be sorted ascending")

    (b0,), (kf,), _ = adaptive_decision(
        r_intra[None, :], b_tot, n_t, alpha, e_iout, inv_snr)
    if kf:
        b_i = b_tot - b0
        log2_pl = -alpha * np.log2(1.0 + r_intra[:kf])
        shares = b_i / kf + (n_t - 1.0) * (log2_pl - log2_pl.mean())
        b_intra[:kf] = _integerize_largest_remainder(shares, b_i)
    return b0, b_intra
