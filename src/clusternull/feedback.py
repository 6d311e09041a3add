"""Limited-feedback machinery: the exact law of RVQ (random vector
quantization) distortion, its means, and equal/adaptive partitioning of the
feedback budget across channels."""

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import DomainError


class Regime(enum.Enum):
    DOMINANT_INTER_CLUSTER = "inter_cluster"
    DOMINANT_RESIDUAL = "residual"


@dataclass
class BitAllocation:
    b0: int                    # bits for the desired channel
    b_intra: np.ndarray        # per-interferer bits, aligned with r_intra
    effective_set: np.ndarray  # indices with positive real-valued shares
    regime: Regime

    @property
    def total(self):
        return self.b0 + int(self.b_intra.sum())


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


def rvq_mean_interference_stirling(n_t, bits):
    """Stirling form of the same mean: Gamma((2n_t-1)/(n_t-1)) 2^(-B/(n_t-1))."""
    g = math.exp(specfun.ln_gamma((2.0 * n_t - 1.0) / (n_t - 1.0)))
    return g * 2.0 ** (-bits / (n_t - 1.0))


# ---------------------------------------------------------------------------
# Bit partitioning
# ---------------------------------------------------------------------------

def equal_allocation(b_tot, n, bias=True):
    """Near-equal split of b_tot across the desired channel and n interferers.

    bias=True gives the division remainder to the desired channel; with
    bias=False the remainder is discarded.  When b_tot < n + 1 the share is
    0 and no interferer is in the effective set.
    """
    share = b_tot // (n + 1)
    b_intra = np.full(n, share, dtype=int)
    b0 = b_tot - n * share if bias else share
    return BitAllocation(
        b0=int(b0),
        b_intra=b_intra,
        effective_set=np.arange(n if share else 0),
        regime=Regime.DOMINANT_INTER_CLUSTER,
    )


def effective_set(r_intra, b_i, n_t, alpha):
    """Largest prefix (ascending distance) receiving positive bits.

    The positivity condition need only be checked for the weakest member
    of the candidate prefix; the left side is monotone in the distance.
    """
    r_intra = np.asarray(r_intra, dtype=float)
    n = len(r_intra)
    if b_i <= 0 or n == 0:
        return np.arange(0)
    if n_t < 2:
        raise DomainError("effective_set needs n_t >= 2")
    log2_pl = alpha * np.log2(1.0 + r_intra)   # -log2 of (1+r)^(-alpha)
    for k in range(n, 0, -1):
        lhs = log2_pl[k - 1] - log2_pl[:k].mean()
        if lhs < b_i / (k * (n_t - 1.0)):
            return np.arange(k)
    return np.arange(0)


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


def _mean_residual_per_unit(r_set, n_t, alpha, per_channel):
    return float(np.sum((1.0 + r_set) ** (-alpha)) * per_channel)


def adaptive_allocation(r_intra, b_tot, n_t, alpha, e_iout, inv_snr):
    """Strength-aware split of b_tot (desired channel + effective interferers).

    Fixed-point order: the residual-vs-inter-cluster regime is first tested
    at the equal-split candidate, the dominant-inter-cluster closed form for
    b0 is evaluated on that candidate's effective set, and the regime is
    re-tested at the resulting allocation before committing.  Interferer
    bits follow the water-filling-style closed form on the effective set,
    rounded by largest remainder so the budget binds exactly.
    """
    r_intra = np.asarray(r_intra, dtype=float)
    n = len(r_intra)
    if b_tot < 1:
        raise DomainError(f"adaptive_allocation needs b_tot >= 1, got {b_tot}")
    if n == 0:
        return BitAllocation(int(b_tot), np.zeros(0, dtype=int), np.arange(0),
                             Regime.DOMINANT_INTER_CLUSTER)
    if np.any(np.diff(r_intra) < 0):
        raise DomainError("r_intra must be sorted ascending")

    noise_floor = e_iout + inv_snr
    b_eq = b_tot // (n + 1)
    stir_eq = rvq_mean_interference_stirling(n_t, b_eq)
    res_eq = _mean_residual_per_unit(r_intra, n_t, alpha, stir_eq)

    k_set = effective_set(r_intra, n * b_eq, n_t, alpha)
    if len(k_set) == 0:
        regime = (Regime.DOMINANT_RESIDUAL if res_eq > noise_floor
                  else Regime.DOMINANT_INTER_CLUSTER)
        return BitAllocation(int(b_tot), np.zeros(n, dtype=int), k_set, regime)

    k = len(k_set)
    r_k = r_intra[k_set]
    log2_gm = -(alpha / k) * np.sum(np.log2(1.0 + r_k))   # log2 of the product term
    gamma2 = math.exp(specfun.ln_gamma((2.0 * n_t - 1.0) / (n_t - 1.0)))
    gamma1 = math.exp(specfun.ln_gamma(n_t / (n_t - 1.0)))

    if res_eq > noise_floor:
        regime = Regime.DOMINANT_RESIDUAL
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
            regime = Regime.DOMINANT_RESIDUAL
            b0_real = (n_t - 1.0) * math.log2(k * gamma1)
        else:
            regime = Regime.DOMINANT_INTER_CLUSTER

    b0_real = min(max(b0_real, 0.0), float(b_tot))
    if regime is Regime.DOMINANT_RESIDUAL:
        b0 = int(min(math.ceil(b0_real), b_tot))
    else:
        b0 = int(math.floor(b0_real))
    b_i = b_tot - b0

    b_intra = np.zeros(n, dtype=int)
    k_final = effective_set(r_intra, b_i, n_t, alpha)
    if len(k_final) > 0:
        kf = len(k_final)
        r_f = r_intra[k_final]
        log2_pl = -alpha * np.log2(1.0 + r_f)
        shares = b_i / kf + (n_t - 1.0) * (log2_pl - log2_pl.mean())
        b_intra[k_final] = _integerize_largest_remainder(shares, b_i)
    else:
        b0 = b_tot
    return BitAllocation(int(b0), b_intra, k_final, regime)
