import concurrent.futures
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from clusternull import analysis, feedback, montecarlo
from clusternull.geometry import FixedNt, FollowN, SimConfig

LAM = 1e-4
SNR = 100.0
B_TOT = 50


def cfg_make(ratio=3.0, mode=None, trials=200, seed=0, **kw):
    return SimConfig(lambda_b=LAM, lambda_c=LAM / ratio, alpha=4.0,
                     snr_db=SNR, antenna_mode=mode or FollowN(4),
                     trials=trials, seed=seed, **kw)


def test_trial_basic_invariants():
    cfg = cfg_make(trials=1)
    for i in range(50):
        rng = np.random.default_rng((3, i))
        (ic, nic, n, *lf), _ = montecarlo.run_trial(cfg, rng,
                                                    (("equal-bias", B_TOT),))
        assert ic >= 0.0 and nic >= 0.0
        assert len(lf) == 1
        # quantization only hurts, exactly, per trial
        assert lf[0] <= ic * (1.0 + 1e-12)
        # the pair's equal split (remainder to the desired channel) spends
        # the whole budget
        b0, b_intra = feedback.equal_allocation(B_TOT, n, True)
        assert b0 + b_intra.sum() == B_TOT


def test_lf_converges_to_perfect_csi_with_many_bits():
    # huge per-channel budgets collapse the quantization error: lf -> ic.
    # B RVQ bits on one channel in C^n_t leave a mean distortion of
    # Gamma((2n_t-1)/(n_t-1)) 2^(-B/(n_t-1)), so "60 bits" of precision per
    # channel costs 60 (n_t-1) bits, and the equal split serves N + 1
    # channels: b_tot = 60 (n_t-1) (N+1).  The trial tape does not depend on
    # the budget, so a pair-free run on the same stream gives N first.
    d = 4
    cfg = cfg_make(trials=1, mode=FollowN(d))
    for i in range(20):
        (_, _, n), _ = montecarlo.run_trial(cfg, np.random.default_rng((11, i)))
        b_tot = 60 * (n + d - 1) * (n + 1)
        (ic, _, n_lf, lf), _ = montecarlo.run_trial(
            cfg, np.random.default_rng((11, i)), (("equal-bias", b_tot),))
        assert n_lf == n
        assert lf >= ic * 0.97


def test_fixed_nt_thresholding_branches():
    # a single-cell trial (N >= n_t) beamforms without coordination under
    # every strategy, so every column reads the nic SINR
    cfg = cfg_make(ratio=6.0, mode=FixedNt(4), trials=1)
    seen = set()
    for i in range(150):
        (ic, nic, n, lf), _ = montecarlo.run_trial(
            cfg, np.random.default_rng((5, i)), (("adaptive", B_TOT),))
        single_cell = n >= 4
        seen.add(single_cell)
        if single_cell:
            assert ic == nic
            assert lf == nic
    assert seen == {False, True}


def test_one_nulling_basis_per_trial(monkeypatch):
    # every beamformer of a trial nulls the same directions: one
    # factorization serves perfect CSI and every (policy, b_tot) pair
    calls = []
    real = montecarlo.nulling_basis

    def counting(g_dirs):
        calls.append(len(g_dirs))
        return real(g_dirs)

    monkeypatch.setattr(montecarlo, "nulling_basis", counting)
    cfg = cfg_make(trials=1)
    pairs = [(p, b) for b in (3, 24) for p in montecarlo.POLICIES]
    for i in range(20):
        calls.clear()
        (_, _, n, *_), _ = montecarlo.run_trial(
            cfg, np.random.default_rng((13, i)), pairs)
        assert calls == ([n] if n else [])


def test_reproducibility_and_thread_independence():
    cfg = cfg_make(trials=64, seed=9)
    a = montecarlo.collect_trials(cfg, (("adaptive", B_TOT),))
    b = montecarlo.collect_trials(cfg, (("adaptive", B_TOT),))
    assert np.array_equal(a.sinr_ic, b.sinr_ic)
    assert np.array_equal(a.sinr_lf, b.sinr_lf)

    env = dict(os.environ, CLUSTER_SIM_THREADS="2")
    code = (
        "import numpy as np;"
        "from clusternull import montecarlo;"
        "from clusternull.geometry import SimConfig, FollowN;"
        f"cfg = SimConfig(lambda_b={LAM}, lambda_c={LAM}/3, alpha=4.0, snr_db={SNR},"
        "antenna_mode=FollowN(4), trials=64, seed=9);"
        f"a = montecarlo.collect_trials(cfg, (('adaptive', {B_TOT}),));"
        "print(repr(a.sinr_ic.sum()), repr(np.nansum(a.sinr_lf)))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    got = out.stdout.split()
    assert got[0] == repr(a.sinr_ic.sum())
    assert got[1] == repr(np.nansum(a.sinr_lf))


def test_policy_runs_share_randomness():
    # the trial tape is policy-independent: perfect-CSI series identical
    cfg = cfg_make(trials=40, seed=4)
    a = montecarlo.collect_trials(cfg, (("equal-bias", B_TOT),))
    b = montecarlo.collect_trials(cfg, (("adaptive", B_TOT),))
    assert np.array_equal(a.sinr_ic, b.sinr_ic)
    assert np.array_equal(a.sinr_nic, b.sinr_nic)


def test_estimates_and_coverage_monotone():
    cfg = cfg_make(trials=400, seed=1)
    arrays = montecarlo.collect_trials(cfg)
    ts = [10.0 ** (t / 10.0) for t in (-60.0, -5.0, 0.0, 5.0, 20.0)]
    ests = montecarlo.estimate_coverage(arrays.sinr_ic, ts)
    assert ests[0].mean == pytest.approx(1.0)  # T = -60 dB: covered
    means = [e.mean for e in ests]
    assert all(a >= b for a, b in zip(means, means[1:]))
    # ci95 = 1.96 * sample std / sqrt(trials)
    ind = (arrays.sinr_ic >= ts[2]).astype(float)
    want = 1.96 * ind.std(ddof=1) / math.sqrt(len(ind))
    assert ests[2].ci95_halfwidth == pytest.approx(want, rel=1e-12)
    assert ests[2].trials == 400


def test_rate_loss_positive_and_paired():
    cfg = cfg_make(trials=300, seed=8)
    arrays = montecarlo.collect_trials(cfg, (("equal-bias", 20),))
    est = montecarlo.estimate_rate_loss(arrays.sinr_ic,
                                        arrays.lf("equal-bias", 20))
    assert est.mean > 0.0
    assert est.trials == 300


def test_residual_power_generator_mean_matches_beta_closed_form():
    # the limited-feedback residual machinery reproduces the RVQ mean
    # n_t/(n_t-1) 2^B beta(2^B, n_t/(n_t-1)) for the quantized-then-nulled
    # unit-power channel
    rng = np.random.default_rng(12)
    for n_t, bits in [(4, 4), (4, 8), (8, 8), (8, 12)]:
        m = 50_000
        z = feedback.sample_rvq_sin2(n_t, bits, rng.random(m))
        g2 = rng.gamma(n_t, 1.0, m)
        y = 1.0 - rng.random(m) ** (1.0 / (n_t - 2)) if n_t > 2 else np.ones(m)
        res = g2 * z * y
        want = feedback.rvq_mean_interference(n_t, bits)
        se = res.std() / math.sqrt(m)
        assert abs(res.mean() - want) < 3.0 * se, (n_t, bits)


def test_adaptive_policy_uses_cached_expected_iout():
    cfg = cfg_make(trials=16, seed=6)
    arrays = montecarlo.collect_trials(cfg, (("adaptive", 24),))
    lf = arrays.lf("adaptive", 24)
    assert np.all(np.isfinite(lf))
    assert np.all(lf <= arrays.sinr_ic * (1.0 + 1e-12))


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("mode,ratio", [(FollowN(4), 3.0), (FixedNt(4), 6.0)])
def test_multi_pair_collection_matches_single_pair_runs(monkeypatch, threads,
                                                        mode, ratio):
    # one pass over every (policy, b_tot) pair equals separate single-pair
    # collections, column for column and bit for bit;
    # 70 trials split into blocks of 64 and 6 so a second worker runs
    monkeypatch.setenv("CLUSTER_SIM_THREADS", threads)
    cfg = cfg_make(ratio=ratio, mode=mode, trials=70, seed=21)
    pairs = [(p, b) for b in (3, 24) for p in montecarlo.POLICIES]
    multi = montecarlo.collect_trials(cfg, pairs)
    assert multi.sinr_lf.shape == (70, len(pairs))
    for policy, b_tot in pairs:
        one = montecarlo.collect_trials(cfg, ((policy, b_tot),))
        assert np.array_equal(multi.lf(policy, b_tot), one.sinr_lf[:, 0])
        assert np.array_equal(multi.sinr_ic, one.sinr_ic)
        assert np.array_equal(multi.sinr_nic, one.sinr_nic)
        assert np.array_equal(multi.n_interferers, one.n_interferers)
        assert multi.rejections == one.rejections
        assert (montecarlo.estimate_rate_loss(multi.sinr_ic, multi.lf(policy, b_tot))
                == montecarlo.estimate_rate_loss(one.sinr_ic, one.sinr_lf[:, 0]))
    with pytest.raises(ValueError):
        multi.lf("adaptive", 25)


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("mode,ratio", [(FollowN(4), 3.0), (FixedNt(4), 6.0)])
def test_lone_trial_equals_its_collection_row(monkeypatch, threads, mode, ratio):
    # a trial reads only (cfg, rng, pairs), so trial i run alone on
    # default_rng((seed, i)) is row i of the collection, whichever worker
    # process ran it; 70 trials split into blocks of 64 and 6
    monkeypatch.setenv("CLUSTER_SIM_THREADS", threads)
    cfg = cfg_make(ratio=ratio, mode=mode, trials=70, seed=31)
    pairs = (("adaptive", 24), ("equal-bias", 24))
    arrays = montecarlo.collect_trials(cfg, pairs)
    for i in range(cfg.trials):
        (ic, nic, n, *lf), _ = montecarlo.run_trial(
            cfg, np.random.default_rng((cfg.seed, i)), pairs)
        assert ic == arrays.sinr_ic[i] and nic == arrays.sinr_nic[i], i
        assert n == arrays.n_interferers[i], i
        assert lf == arrays.sinr_lf[i].tolist(), i


def test_single_range_runs_without_a_pool(monkeypatch):
    # 40 trials form one range, which runs in process at any worker count
    def no_pool(*args, **kwargs):
        raise AssertionError("a single range started a process pool")

    cfg = cfg_make(trials=40, seed=17)
    pairs = (("adaptive", 24),)
    monkeypatch.setenv("CLUSTER_SIM_THREADS", "1")
    one = montecarlo.collect_trials(cfg, pairs)
    monkeypatch.setenv("CLUSTER_SIM_THREADS", "2")
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    two = montecarlo.collect_trials(cfg, pairs)
    assert np.array_equal(two.sinr_ic, one.sinr_ic)
    assert np.array_equal(two.sinr_nic, one.sinr_nic)
    assert np.array_equal(two.sinr_lf, one.sinr_lf)
    assert np.array_equal(two.n_interferers, one.n_interferers)
