"""End-to-end simulation oracle: per-realization SINRs for each strategy,
collected once into columns, and estimators for coverage, average rate, and
mean rate loss over those columns.

Reproducibility: trial i draws everything from the counter-derived stream
default_rng((seed, i)), and one trial's random tape is consumed in a fixed
order that depends neither on the feedback policy nor on the bit budget.
Every limited-feedback series is a (policy, b_tot) pair, and one trial
evaluates all requested pairs on the same draws: geometry, channels,
nulling directions, and the quantization uniforms.  Estimates therefore
pair exactly across policies and budgets (common random numbers), a
multi-pair collection equals the single-pair collections column for
column, and results are bit-identical for any worker count.  A caller
collects once and hands each estimator the SINR columns it reads:
`sinr_ic`, `sinr_nic`, or `lf(policy, b_tot)` of a `TrialArrays`.  A
trial is one plain row of those columns, and a limited-feedback
allocation the plain pair (b0, b_intra) that `feedback` returns.

Every trial's geometry comes from `geometry.sample_typical_clusters`, one
rejection loop that serves a lone stream and a block of streams alike and
picks its extractor by the size of each pass.  A collection hands it the
generator of its trials' streams and each trial the cluster drawn on its
stream, for the first attempt; the trial then draws the rest of its tape
from its own stream.  The first trial of a block pass to read its
cluster's `out_dist` builds the out-of-cluster distances of the whole
pass.

A trial is a function of (cfg, rng, pairs) alone.  It reads two
per-config constants, the Campbell mean of the interference beyond the
window and the adaptive policy's E{I_out}, straight from `analysis`
(which caches the latter per config), so a collection passes nothing to
its trials but the config and the pairs.

The allocations of a trial's pairs depend only on its cluster, so the
trial makes them all before its first limited-feedback draw is used: one
adaptive decision (`feedback.adaptive_allocations`) serves every adaptive
budget, and each equal split is a closed form.

Every beamformer of a trial nulls the same directions, so the trial
factors their basis once (`nulling_basis`, one QR and the collinearity
check) and each beamformer only projects onto it.  A collinear direction
set resamples the whole realization before any beamformer is built.  A
pair can change a trial's draws in one way only: its limited-feedback
`zf_null_beamformer` call raises RankDeficientError and the whole
realization is resampled.  That is the measure-zero event that the
quantized desired direction lies in the nulled span.
"""

import logging
import math
import os
from dataclasses import dataclass

import numpy as np

from . import analysis, feedback, geometry
from .beamforming import nulling_basis, zf_null_beamformer
from .channel import complex_gaussian, path_loss, sample_channels
from .errors import RankDeficientError

log = logging.getLogger(__name__)

POLICIES = ("equal-bias", "equal-nobias", "adaptive")


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


def _allocations(pairs, cluster, n_t, cfg):
    """The allocation (b0, b_intra) of each (policy, b_tot) pair; one
    adaptive decision serves every adaptive budget."""
    n = cluster.n_interferers
    adaptive = [b_tot for policy, b_tot in pairs if policy == "adaptive"]
    if adaptive:
        e_iout = analysis.expected_iout(cfg.lambda_b, cfg.lambda_c, cfg.alpha)
        adaptive = iter(feedback.adaptive_allocations(
            cluster.intra_dist, adaptive, n_t, cfg.alpha, e_iout, cfg.inv_snr))
    allocations = []
    for policy, b_tot in pairs:
        if policy == "adaptive":
            allocations.append(next(adaptive))
        elif policy in ("equal-bias", "equal-nobias"):
            allocations.append(feedback.equal_allocation(
                b_tot, n, policy == "equal-bias"))
        else:
            raise ValueError(f"unknown policy {policy!r}")
    return allocations


def _check_pairs(pairs):
    """Normalize (policy, b_tot) pairs to a tuple of distinct (str, int)."""
    out = tuple(dict.fromkeys((str(policy), int(b_tot)) for policy, b_tot in pairs))
    for policy, _ in out:
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    return out


def _tail(cfg):
    """Campbell mean of the interference from beyond the sampling window;
    the truncated tail's standard deviation is negligible at the default
    window, so trials add this mean in place of those interferers."""
    return analysis.mean_tail_interference(cfg.window_radius, cfg.lambda_b,
                                           cfg.alpha)


def run_trial(cfg, rng, pairs=(), first=None):
    """One accepted realization evaluated under every strategy and every
    limited-feedback (policy, b_tot) pair.

    The random tape per trial is: geometry, channel set, nulling-constraint
    directions, no-coordination intra fading, then the limited-feedback
    draws; bit values only reweight the tape, so pairs share randomness.
    Its per-config constants come from `analysis`, so a lone trial on
    default_rng((cfg.seed, i)) equals row i of a collection.

    Returns (row, rejections): the row in `TrialArrays` column order,
    (sinr_ic, sinr_nic, n_interferers, *sinr_lf) with one limited-feedback
    SINR per pair, and the realizations the sampler rejected first.
    `first`, the (rng, cluster, rejections) that
    `geometry.sample_typical_clusters` yielded for rng, stands in for the
    first sampler call.
    """
    for _ in range(64):
        _, cluster, rejections = (
            first or next(geometry.sample_typical_clusters(cfg, [rng])))
        first = None
        try:
            return _trial_from_cluster(cfg, cluster, rng, pairs, rejections)
        except RankDeficientError:
            log.warning("rank-deficient nulling matrix; resampling realization")
            continue
    raise RankDeficientError("persistent rank deficiency; check configuration")


def _trial_from_cluster(cfg, cluster, rng, pairs, rejections):
    n = cluster.n_interferers
    mode = cfg.antenna_mode
    if isinstance(mode, geometry.FollowN):
        n_t = n + mode.d_nt
    else:
        n_t = mode.n_t

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
    i_out = float(pl_out @ chans.out_fading) + _tail(cfg)

    norm_h = float(np.linalg.norm(chans.h0))
    sinr_nic = (norm_h ** 2 / l0) / (i_out + float(pl_intra @ nic_fading)
                                     + inv_snr)

    if n >= n_t:
        # single cell: nulling is infeasible, so every strategy beamforms
        # toward the user as the uncoordinated one does
        return (sinr_nic, sinr_nic, n, *(sinr_nic for _ in pairs)), rejections

    h_dir = chans.h0 / norm_h
    if n > 0:
        basis = nulling_basis(
            null_raw / np.linalg.norm(null_raw, axis=1, keepdims=True))
        f0 = zf_null_beamformer(h_dir, basis)
    else:
        f0 = h_dir
    h0_conj = chans.h0.conj()
    des_ic = abs(h0_conj @ f0) ** 2 / l0
    sinr_ic = des_ic / (i_out + inv_snr)

    # the interferer loop reads Python floats: the same products as numpy
    # scalars at a fraction of the cost
    pl_intra = pl_intra.tolist()
    g_norm2 = (np.linalg.norm(chans.g_intra, axis=1) ** 2).tolist()
    u_intra, y_intra = u_intra.tolist(), y_intra.tolist()
    zero_bit_fading = zero_bit_fading.tolist()
    # the quantization error's direction depends on the trial only
    e0 = _orthogonal_direction(w0_raw, h_dir) if n_t > 1 and pairs else None
    sinr_lf = []
    for b0, b_intra in _allocations(pairs, cluster, n_t, cfg):
        if b0 >= 1 and n_t > 1:
            z0 = float(feedback.sample_rvq_sin2(n_t, b0, u0))
            h_hat = (math.sqrt(1.0 - z0) * h_dir
                     + math.sqrt(z0) * e0) if e0 is not None else h_dir
        elif n_t == 1:
            h_hat = h_dir
        else:
            h_hat = w0_raw / np.linalg.norm(w0_raw)
        f0_hat = zf_null_beamformer(h_hat, basis) if n > 0 else h_hat
        des_lf = abs(h0_conj @ f0_hat) ** 2 / l0

        i_res = 0.0
        for ell, bits in enumerate(b_intra.tolist()):
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
        sinr_lf.append(float(des_lf / (i_out + i_res + inv_snr)))

    return (float(sinr_ic), sinr_nic, n, *sinr_lf), rejections


# ---------------------------------------------------------------------------
# Trial collection (optionally process-parallel, always order-deterministic)
# ---------------------------------------------------------------------------

@dataclass
class TrialArrays:
    sinr_ic: np.ndarray
    sinr_nic: np.ndarray
    sinr_lf: np.ndarray          # (trials, len(pairs)), one column per pair
    pairs: tuple                 # the (policy, b_tot) pairs, in column order
    n_interferers: np.ndarray
    rejections: int

    def lf(self, policy, b_tot):
        """The limited-feedback SINR column of one (policy, b_tot) pair."""
        try:
            k = self.pairs.index((policy, int(b_tot)))
        except ValueError:
            raise ValueError(f"limited-feedback series ({policy!r}, {b_tot}) "
                             "was not collected") from None
        return self.sinr_lf[:, k]


def _worker_count():
    """The CLUSTER_SIM_THREADS cap on worker processes (default 1); a
    collection starts no more than its ranges or the CPUs can use."""
    raw = os.environ.get("CLUSTER_SIM_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _run_range(cfg, pairs, lo, hi):
    out = np.empty((hi - lo, 3 + len(pairs)))
    rej = 0
    streams = (np.random.default_rng((cfg.seed, i)) for i in range(lo, hi))
    for i, first in enumerate(geometry.sample_typical_clusters(cfg, streams)):
        out[i], trial_rej = run_trial(cfg, first[0], pairs, first)
        rej += trial_rej
    return out, rej


def _run_range_star(args):
    return _run_range(*args)


def collect_trials(cfg, pairs=()):
    """Run cfg.trials independent trials, each evaluating every
    limited-feedback (policy, b_tot) pair in `pairs` on the same draws;
    deterministic for a fixed seed regardless of CLUSTER_SIM_THREADS."""
    pairs = _check_pairs(pairs)
    workers = _worker_count()
    trials = cfg.trials
    step = max(64, -(-trials // (workers * 4)))
    if workers == 1 or trials <= step:
        # one range runs in process: a pool would add only its start-up
        blocks = [_run_range(cfg, pairs, 0, trials)]
    else:
        # loads multiprocessing, which a one-range run never needs
        from concurrent.futures import ProcessPoolExecutor
        ranges = [(cfg, pairs, lo, min(lo + step, trials))
                  for lo in range(0, trials, step)]
        # the pool starts all its workers at once: never more than the
        # ranges or the CPUs can keep busy
        with ProcessPoolExecutor(max_workers=min(workers, len(ranges),
                                                 os.cpu_count() or 1)) as pool:
            blocks = list(pool.map(_run_range_star, ranges))
    data = np.concatenate([b[0] for b in blocks], axis=0)
    rejections = sum(b[1] for b in blocks)
    if rejections:
        log.info("resampled %d degenerate realizations over %d trials",
                 rejections, trials)
    return TrialArrays(
        sinr_ic=data[:, 0],
        sinr_nic=data[:, 1],
        sinr_lf=data[:, 3:],
        pairs=pairs,
        n_interferers=data[:, 2].astype(int),
        rejections=rejections,
    )


def estimate_coverage(sinr, t_grid):
    """Coverage estimates of one SINR column, one per threshold (linear
    scale)."""
    return [_mean_ci(sinr >= t) for t in np.asarray(t_grid, dtype=float)]


def estimate_rate(sinr):
    """Average rate log2(1 + SINR) of one SINR column."""
    return _mean_ci(np.log2(1.0 + sinr))


def estimate_rate_loss(sinr_ic, sinr_lf):
    """Mean rate loss of a limited-feedback column against the perfect-CSI
    column of the same trials, paired per trial."""
    return _mean_ci(np.log2(1.0 + sinr_ic) - np.log2(1.0 + sinr_lf))
