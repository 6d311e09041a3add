"""End-to-end simulation oracle: per-realization SINRs for each strategy and
estimators for coverage, average rate, and mean rate loss.

Reproducibility: trial i draws everything from the counter-derived stream
default_rng((seed, i)), and one trial's random tape is consumed in a fixed
order that does not depend on the feedback policy.  Estimates therefore
pair exactly across policies run with the same seed (common random
numbers), and results are bit-identical for any worker count.
"""

import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import analysis, feedback, geometry
from .beamforming import Beamformer, zf_null_beamformer
from .channel import complex_gaussian, path_loss, sample_channels
from .errors import InsufficientBudgetError, RankDeficientError

log = logging.getLogger(__name__)

POLICIES = ("equal-bias", "equal-nobias", "adaptive")


@dataclass
class TrialOutcome:
    sinr_ic: float                 # SINR under the coordination policy
    sinr_nic: float                # SINR under unconditional beamforming
    sinr_ic_lf: Optional[float]    # SINR with limited-feedback coordination
    n_interferers: int
    regime_used: str               # "icin" | "single_cell"
    allocation: Optional[feedback.BitAllocation]
    rejections: int = 0


@dataclass
class Estimate:
    mean: float
    ci95_halfwidth: float
    trials: int


def _mean_ci(x):
    x = np.asarray(x, dtype=float)
    m = float(x.mean())
    hw = 1.96 * float(x.std(ddof=1)) / math.sqrt(len(x)) if len(x) > 1 else 0.0
    return Estimate(mean=m, ci95_halfwidth=hw, trials=len(x))


def _orthogonal_direction(raw, unit):
    """Normalized component of raw orthogonal to the unit vector."""
    resid = raw - unit * (unit.conj() @ raw)
    norm = np.linalg.norm(resid)
    if norm < 1e-12:
        return None
    return resid / norm


def _equal_allocation_extended(b_tot, n, bias):
    """equal_allocation with the natural floor extension when b_tot < n + 1
    (everyone's share is zero; the bias variant keeps all bits on the
    desired channel, the no-bias variant discards them)."""
    try:
        return feedback.equal_allocation(b_tot, n, bias)
    except InsufficientBudgetError:
        return feedback.BitAllocation(
            b0=b_tot if bias else 0,
            b_intra=np.zeros(n, dtype=int),
            effective_set=np.arange(0),
            regime=feedback.Regime.DOMINANT_INTER_CLUSTER,
        )


def _make_allocation(policy, cluster, n_t, cfg, e_iout):
    if policy == "equal-bias":
        return _equal_allocation_extended(cfg.b_tot, cluster.n_interferers, True)
    if policy == "equal-nobias":
        return _equal_allocation_extended(cfg.b_tot, cluster.n_interferers, False)
    if policy == "adaptive":
        return feedback.adaptive_allocation(
            cluster.intra_dist, cfg.b_tot, n_t, cfg.alpha, e_iout, cfg.inv_snr)
    raise ValueError(f"unknown policy {policy!r}")


def run_trial(cfg, rng, policy=None, e_iout=None):
    """One accepted realization evaluated under every strategy.

    The random tape per trial is: geometry, channel set, nulling-constraint
    directions, no-coordination intra fading, then the limited-feedback
    draws; bit values only reweight the tape, so policies share randomness.
    """
    if policy == "adaptive" and e_iout is None:
        e_iout = analysis.expected_iout(cfg.lambda_b, cfg.lambda_c, cfg.alpha)
    for _ in range(64):
        net, cluster, rejections = geometry.sample_typical_cluster(cfg, rng)
        try:
            return _trial_from_cluster(cfg, cluster, rng, policy, e_iout,
                                       rejections)
        except RankDeficientError:
            log.warning("rank-deficient nulling matrix; resampling realization")
            continue
    raise RankDeficientError("persistent rank deficiency; check configuration")


def _trial_from_cluster(cfg, cluster, rng, policy, e_iout, rejections):
    n = cluster.n_interferers
    mode = cfg.antenna_mode
    if isinstance(mode, geometry.FollowN):
        n_t = n + mode.d_nt
    else:
        n_t = mode.n_t
    feasible = n < n_t

    chans = sample_channels(n_t, n, len(cluster.out_dist), rng)
    null_raw = complex_gaussian(rng, n, n_t)
    nic_fading = rng.exponential(1.0, n)
    w0_raw = complex_gaussian(rng, n_t)
    u0 = rng.random()
    u_intra = rng.random(n)
    y_intra = rng.random(n)
    zero_bit_fading = rng.exponential(1.0, n)

    inv_snr = cfg.inv_snr
    l0 = float(path_loss(cluster.r0, cfg.alpha))
    pl_intra = 1.0 / path_loss(cluster.intra_dist, cfg.alpha)
    pl_out = 1.0 / path_loss(cluster.out_dist, cfg.alpha)
    # beyond-window interferers enter through their Campbell mean; the
    # truncated tail's standard deviation is negligible at the default window
    tail = analysis.mean_tail_interference(cfg.window_radius, cfg.lambda_b,
                                           cfg.alpha)
    i_out = float(pl_out @ chans.out_fading) + tail

    norm_h = float(np.linalg.norm(chans.h0))
    sinr_nic = (norm_h ** 2 / l0) / (i_out + float(pl_intra @ nic_fading)
                                     + inv_snr)

    if feasible:
        h_dir = chans.h0 / norm_h
        if n > 0:
            dirs = null_raw / np.linalg.norm(null_raw, axis=1, keepdims=True)
            f0 = zf_null_beamformer(h_dir, dirs)
        else:
            dirs = null_raw
            f0 = Beamformer(f=h_dir)
        des_ic = abs(chans.h0.conj() @ f0.f) ** 2 / l0
        sinr_ic = des_ic / (i_out + inv_snr)
        regime = "icin"
    else:
        sinr_ic = sinr_nic
        regime = "single_cell"

    sinr_lf = None
    alloc = None
    if policy is not None:
        if not feasible:
            sinr_lf = sinr_nic
        else:
            alloc = _make_allocation(policy, cluster, n_t, cfg, e_iout)
            if alloc.b0 >= 1 and n_t > 1:
                z0 = float(feedback.sample_rvq_sin2(n_t, alloc.b0, u0))
                e0 = _orthogonal_direction(w0_raw, h_dir)
                h_hat = (math.sqrt(1.0 - z0) * h_dir
                         + math.sqrt(z0) * e0) if e0 is not None else h_dir
            elif n_t == 1:
                h_hat = h_dir
            else:
                h_hat = w0_raw / np.linalg.norm(w0_raw)
            if n > 0:
                f0_hat = zf_null_beamformer(h_hat, dirs)
            else:
                f0_hat = Beamformer(f=h_hat)
            des_lf = abs(chans.h0.conj() @ f0_hat.f) ** 2 / l0

            i_res = 0.0
            g_norm2 = np.linalg.norm(chans.g_intra, axis=1) ** 2
            for ell in range(n):
                bits = int(alloc.b_intra[ell])
                if bits >= 1:
                    z = float(feedback.sample_rvq_sin2(n_t, bits, u_intra[ell]))
                    if n_t > 2:
                        y = 1.0 - y_intra[ell] ** (1.0 / (n_t - 2))
                    else:
                        y = 1.0
                    i_res += pl_intra[ell] * g_norm2[ell] * z * y
                else:
                    # no bits fed back: that station nulls nothing toward the
                    # user, so the effective fading is plain Exp(1)
                    i_res += pl_intra[ell] * zero_bit_fading[ell]
            sinr_lf = des_lf / (i_out + i_res + inv_snr)

    return TrialOutcome(
        sinr_ic=float(sinr_ic),
        sinr_nic=float(sinr_nic),
        sinr_ic_lf=None if sinr_lf is None else float(sinr_lf),
        n_interferers=n,
        regime_used=regime,
        allocation=alloc,
        rejections=rejections,
    )


# ---------------------------------------------------------------------------
# Trial collection (optionally process-parallel, always order-deterministic)
# ---------------------------------------------------------------------------

@dataclass
class TrialArrays:
    sinr_ic: np.ndarray
    sinr_nic: np.ndarray
    sinr_lf: np.ndarray          # nan when no policy requested
    n_interferers: np.ndarray
    single_cell: np.ndarray      # bool, thresholding fell back to beamforming
    rejections: int


def _worker_count():
    raw = os.environ.get("CLUSTER_SIM_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _run_range(cfg, policy, e_iout, lo, hi):
    m = hi - lo
    out = np.empty((m, 4))
    single = np.zeros(m, dtype=bool)
    rej = 0
    for i in range(m):
        rng = np.random.default_rng((cfg.seed, lo + i))
        o = run_trial(cfg, rng, policy, e_iout)
        out[i, 0] = o.sinr_ic
        out[i, 1] = o.sinr_nic
        out[i, 2] = math.nan if o.sinr_ic_lf is None else o.sinr_ic_lf
        out[i, 3] = o.n_interferers
        single[i] = o.regime_used == "single_cell"
        rej += o.rejections
    return out, single, rej


def _run_range_star(args):
    return _run_range(*args)


def collect_trials(cfg, policy=None):
    """Run cfg.trials independent trials; deterministic for a fixed seed
    regardless of CLUSTER_SIM_THREADS."""
    if policy is not None and policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    e_iout = None
    if policy == "adaptive":
        e_iout = analysis.expected_iout(cfg.lambda_b, cfg.lambda_c, cfg.alpha)
    workers = _worker_count()
    trials = cfg.trials
    if workers == 1:
        blocks = [_run_range(cfg, policy, e_iout, 0, trials)]
    else:
        step = max(64, -(-trials // (workers * 4)))
        ranges = [(cfg, policy, e_iout, lo, min(lo + step, trials))
                  for lo in range(0, trials, step)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(_run_range_star, ranges))
    data = np.concatenate([b[0] for b in blocks], axis=0)
    single = np.concatenate([b[1] for b in blocks])
    rejections = sum(b[2] for b in blocks)
    if rejections:
        log.info("resampled %d degenerate realizations over %d trials",
                 rejections, trials)
    return TrialArrays(
        sinr_ic=data[:, 0],
        sinr_nic=data[:, 1],
        sinr_lf=data[:, 2],
        n_interferers=data[:, 3].astype(int),
        single_cell=single,
        rejections=rejections,
    )


def _series(arrays, strategy):
    if strategy == "icin":
        return arrays.sinr_ic
    if strategy == "nic":
        return arrays.sinr_nic
    if strategy == "lf":
        if np.isnan(arrays.sinr_lf).any():
            raise ValueError("limited-feedback series needs a policy")
        return arrays.sinr_lf
    raise ValueError(f"unknown strategy {strategy!r}")


def estimate_coverage(cfg, t_grid, strategy="icin", policy=None,
                      arrays=None):
    """Coverage estimates (one per threshold, linear scale)."""
    if arrays is None:
        arrays = collect_trials(cfg, policy)
    sinr = _series(arrays, strategy)
    return [_mean_ci(sinr >= t) for t in np.asarray(t_grid, dtype=float)]


def estimate_rate(cfg, strategy="icin", policy=None, arrays=None):
    if arrays is None:
        arrays = collect_trials(cfg, policy)
    sinr = _series(arrays, strategy)
    return _mean_ci(np.log2(1.0 + sinr))


def estimate_rate_loss(cfg, policy, arrays=None):
    """Mean rate loss of limited feedback vs perfect CSI, paired per trial."""
    if arrays is None:
        arrays = collect_trials(cfg, policy)
    loss = np.log2(1.0 + arrays.sinr_ic) - np.log2(1.0 + arrays.sinr_lf)
    return _mean_ci(loss)
