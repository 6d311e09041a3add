"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line with the measured quantities (run pytest -s to see them inline).

Density regimes: the bounded path-loss law (1+r)^alpha is not scale free,
so the absolute station density is a modeling choice.  Coverage-ordering
and thresholding-gain criteria run at the sharp default density
(lambda_b = 1e-4, spacing >> 1) where the plateau only regularizes the
origin; the limited-feedback bound criteria run at unit density, where
cell sizes are comparable to the near-field plateau.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import stats

from clusternull import analysis, cli, feedback, montecarlo, specfun
from clusternull.beamforming import nulling_basis, zf_null_beamformer
from clusternull.channel import complex_gaussian
from clusternull.geometry import (FixedNt, FollowN, SimConfig,
                                  sample_realization, typical_bs_cluster_counts)

LAM_SHARP = 1e-4
SNR_SHARP = cli.default_snr_db(LAM_SHARP)


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def sharp_cfg(ratio=3.0, mode=None, trials=1000, seed=0, **kw):
    return SimConfig(lambda_b=LAM_SHARP, lambda_c=LAM_SHARP / ratio, alpha=4.0,
                     snr_db=SNR_SHARP, antenna_mode=mode or FollowN(7),
                     trials=trials, seed=seed, **kw)


@pytest.fixture(scope="module")
def d7_arrays():
    cfg = sharp_cfg(mode=FollowN(7), trials=20_000, seed=404)
    return cfg, montecarlo.collect_trials(cfg)


def test_acceptance_01_zf_exactness():
    t0 = time.time()
    rng = np.random.default_rng(1)
    worst_dot = 0.0
    worst_norm = 0.0
    for _ in range(10_000):
        n_t = int(rng.integers(2, 17))
        n = int(rng.integers(1, n_t))
        g = complex_gaussian(rng, n, n_t)
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        h = complex_gaussian(rng, n_t)
        f = zf_null_beamformer(h / np.linalg.norm(h), nulling_basis(g))
        worst_dot = max(worst_dot, float(np.abs(g.conj() @ f).max()))
        worst_norm = max(worst_norm, abs(np.linalg.norm(f) - 1.0))
    dt = time.time() - t0
    ok = worst_dot < 1e-10 and worst_norm <= 1e-12 and dt < 10.0
    assert report(1, ok, f"max|g*f|={worst_dot:.2e}, max|norm-1|={worst_norm:.2e}, "
                         f"runtime {dt:.1f}s (<10s)")


def test_acceptance_02_effective_channel_law():
    t0 = time.time()
    rng = np.random.default_rng(2)
    n_t, n, m = 8, 3, 100_000
    g = complex_gaussian(rng, m, n, n_t)
    g /= np.linalg.norm(g, axis=2, keepdims=True)
    h = complex_gaussian(rng, m, n_t)
    q, _ = np.linalg.qr(np.transpose(g, (0, 2, 1)))
    proj = h - np.einsum("tij,tj->ti", q, np.einsum("tij,ti->tj", q.conj(), h))
    power = np.linalg.norm(proj, axis=1) ** 2
    d, _ = stats.kstest(power, "gamma", args=(n_t - n,))
    dt = time.time() - t0
    ok = d < 0.01 and dt < 30.0
    assert report(2, ok, f"KS distance {d:.4f} vs Gamma({n_t - n},1) at 1e5 samples "
                         f"(<0.01), runtime {dt:.1f}s (<30s)")


def test_acceptance_03_interferer_pmf():
    t0 = time.time()
    details = []
    ok = True
    for ratio in (1.0, 3.0, 6.0):
        cfg = sharp_cfg(ratio=ratio)
        rng = np.random.default_rng(int(ratio) * 7 + 1)
        counts = []
        while len(counts) < 100_000:
            counts.extend(typical_bs_cluster_counts(sample_realization(cfg, rng)))
        counts = np.asarray(counts[:100_000])
        w = analysis.pmf_weights(ratio)
        m = max(len(w), counts.max() + 1)
        hist = np.bincount(counts, minlength=m) / len(counts)
        pmf = np.zeros(m)
        pmf[: len(w)] = w
        tv = 0.5 * float(np.abs(hist - pmf).sum())
        details.append(f"ratio {ratio:g}: TV={tv:.4f}")
        ok = ok and tv < 0.03
    dt = time.time() - t0
    ok = ok and dt < 300.0
    assert report(3, ok, "; ".join(details) + f" (<0.03 each), runtime {dt:.0f}s (<300s)")


def test_acceptance_04_coverage_envelope(d7_arrays):
    t0 = time.time()
    cfg, arrays = d7_arrays
    t_dbs = np.arange(-10.0, 21.0, 2.0)
    ts = 10.0 ** (t_dbs / 10.0)
    ests = montecarlo.estimate_coverage(arrays.sinr_ic, ts)
    worst = 0.0
    bound_ok = True
    for t, est in zip(ts, ests):
        lb = analysis.coverage_lb_ic(cfg, t)
        worst = max(worst, abs(lb - est.mean))
        if lb > est.mean + 2.0 * est.ci95_halfwidth:
            bound_ok = False
    dt = time.time() - t0
    ok = worst <= 0.1 and bound_ok and dt < 600.0
    assert report(4, ok, f"max|LB-MC|={worst:.3f} (<=0.1), LB<=MC+2CI: {bound_ok}, "
                         f"runtime {dt:.0f}s (<600s)")


def test_acceptance_05_crossover_ordering(d7_arrays):
    cfg7, arr7 = d7_arrays
    cfg3 = sharp_cfg(mode=FollowN(3), trials=20_000, seed=404)
    arr3 = montecarlo.collect_trials(cfg3)
    t_dbs = np.arange(-10.0, 21.0, 2.0)
    ts = 10.0 ** (t_dbs / 10.0)

    def cov(arr, series, t):
        x = (series >= t).astype(float)
        hw = 1.96 * x.std(ddof=1) / math.sqrt(len(x))
        return x.mean(), hw

    # d_nt = 3: below at 0 dB, above at 10 dB, both outside overlapping CIs
    ic0, ci_ic0 = cov(arr3, arr3.sinr_ic, 1.0)
    ni0, ci_ni0 = cov(arr3, arr3.sinr_nic, 1.0)
    below_at_0 = ic0 + ci_ic0 < ni0 - ci_ni0
    t10 = 10.0
    ic1, ci_ic1 = cov(arr3, arr3.sinr_ic, t10)
    ni1, ci_ni1 = cov(arr3, arr3.sinr_nic, t10)
    above_at_10 = ic1 - ci_ic1 > ni1 + ci_ni1

    # d_nt = 7: never significantly below across the grid
    d7_ok = True
    worst_t = None
    for t, tdb in zip(ts, t_dbs):
        ic, ci_ic = cov(arr7, arr7.sinr_ic, t)
        ni, ci_ni = cov(arr7, arr7.sinr_nic, t)
        if ic + ci_ic < ni - ci_ni:
            d7_ok = False
            worst_t = tdb
            break
    ok = below_at_0 and above_at_10 and d7_ok
    assert report(
        5, ok,
        f"d3@0dB below: {below_at_0} (ic {ic0:.3f} vs nic {ni0:.3f}); "
        f"d3@10dB above: {above_at_10} (ic {ic1:.3f} vs nic {ni1:.3f}); "
        f"d7 never significantly below: {d7_ok}"
        + (f" (first violation at {worst_t} dB)" if worst_t is not None else ""))


def test_acceptance_06_rvq_mean_identity():
    t0 = time.time()
    rng = np.random.default_rng(6)
    details = []
    ok = True
    for n_t in (4, 8):
        for bits in (4, 8, 12):
            m = 40_000
            z = feedback.sample_rvq_sin2(n_t, bits, rng.random(m))
            g2 = rng.gamma(n_t, 1.0, m)
            y = 1.0 - rng.random(m) ** (1.0 / (n_t - 2)) if n_t > 2 else np.ones(m)
            res = g2 * z * y
            want = feedback.rvq_mean_interference(n_t, bits)
            se = res.std() / math.sqrt(m)
            good = abs(res.mean() - want) < 3.0 * se
            ok = ok and good
            details.append(f"({n_t},{bits}): {(res.mean() - want) / se:+.2f} sigma")
    dt = time.time() - t0
    ok = ok and dt < 60.0
    assert report(6, ok, ", ".join(details) + f"; runtime {dt:.1f}s (<60s)")


@pytest.fixture(scope="module")
def rate_loss_sweep():
    # unit-density regime, where the rate-loss bound is tightest (see
    # module docstring)
    base = SimConfig(lambda_b=1.0, lambda_c=1.0 / 3.0, alpha=4.0, snr_db=20.0,
                     antenna_mode=FollowN(5), trials=3000, seed=88)
    budgets = (10, 20, 30, 40, 50)
    # one collection: every (policy, b_tot) pair shares each trial's draws
    arrays = montecarlo.collect_trials(
        base, [(p, b) for b in budgets for p in ("equal-bias", "adaptive")])
    rows = []
    for b_tot in budgets:
        eq = montecarlo.estimate_rate_loss(arrays.sinr_ic,
                                           arrays.lf("equal-bias", b_tot))
        ad = montecarlo.estimate_rate_loss(arrays.sinr_ic,
                                           arrays.lf("adaptive", b_tot))
        ub = analysis.rate_loss_ub_equal(base, b_tot)
        rows.append((b_tot, ub, eq, ad))
    return rows


def test_acceptance_07_rate_loss_bound_dominates(rate_loss_sweep):
    rows = rate_loss_sweep
    dominates = all(ub >= eq.mean for _, ub, eq, _ in rows)
    ub_mono = all(a[1] >= b[1] - 1e-9 for a, b in zip(rows, rows[1:]))
    mc_mono = all(a[2].mean >= b[2].mean for a, b in zip(rows, rows[1:]))
    ok = dominates and ub_mono and mc_mono
    detail = ", ".join(f"B{b}: ub {ub:.3f} >= mc {eq.mean:.3f}" for b, ub, eq, _ in rows)
    assert report(7, ok, detail + f"; bound nonincr {ub_mono}, mc nonincr {mc_mono}")


def test_acceptance_08_adaptive_beats_equal(rate_loss_sweep):
    rows = rate_loss_sweep
    ok = True
    parts = []
    for b_tot, _, eq, ad in rows:
        sep = (eq.mean - ad.mean) - (eq.ci95_halfwidth + ad.ci95_halfwidth)
        ok = ok and sep > 0.0
        parts.append(f"B{b_tot}: {ad.mean:.3f} < {eq.mean:.3f} (margin {sep:+.3f})")
    assert report(8, ok, "; ".join(parts))


def test_acceptance_09_integer_allocation_oracle():
    t0 = time.time()
    rng = np.random.default_rng(9)
    worst = 0.0
    checked = 0
    while checked < 150:
        n = int(rng.integers(1, 4))
        r = np.sort(rng.uniform(0.2, 4.0, n))
        n_t = int(rng.choice([4, 6]))
        b_tot = int(rng.integers(n + 2, 22))
        b0, b_intra = feedback.adaptive_allocation(r, b_tot, n_t, 4.0,
                                                   e_iout=0.9, inv_snr=0.01)
        b_i = b_tot - b0
        if b_i == 0 or b_i > 14:
            continue
        checked += 1
        g2 = math.gamma((2.0 * n_t - 1.0) / (n_t - 1.0))

        def obj(bits):
            return sum((1.0 + ri) ** -4.0 * g2 * 2.0 ** (-bi / (n_t - 1.0))
                       for ri, bi in zip(r, bits))

        best = None
        def rec(i, left, cur):
            nonlocal best
            if i == n - 1:
                v = obj(cur + [left])
                best = v if best is None else min(best, v)
                return
            for bb in range(left + 1):
                rec(i + 1, left - bb, cur + [bb])
        rec(0, b_i, [])
        got = obj(b_intra)
        worst = max(worst, got / best - 1.0)
    dt = time.time() - t0
    ok = worst <= 0.05 and dt < 60.0
    assert report(9, ok, f"worst excess over integer optimum {100 * worst:.2f}% "
                         f"(<=5%) on {checked} instances, runtime {dt:.0f}s (<60s)")


def test_acceptance_10_thresholding_interior_maximum():
    ratios = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0)
    results = {}
    for n_t in (12, 6):
        rates, gains = [], []
        for ratio in ratios:
            cfg = sharp_cfg(ratio=ratio, mode=FixedNt(n_t), trials=6000, seed=777)
            arr = montecarlo.collect_trials(cfg)
            r_ic = float(np.log2(1.0 + arr.sinr_ic).mean())
            r_nic = float(np.log2(1.0 + arr.sinr_nic).mean())
            rates.append(r_ic)
            gains.append(r_ic / r_nic - 1.0)
        peak = int(np.argmax(rates))
        results[n_t] = (ratios[peak], gains[peak], rates, gains)

    peak12, gain12 = results[12][0], results[12][1]
    peak6, gain6 = results[6][0], results[6][1]
    pos12_ok = peak12 in (3.0, 4.0, 5.0)
    gain12_ok = 0.10 <= gain12 <= 0.20
    interior6_ok = peak6 not in (ratios[0], ratios[-1])
    gain6_ok = 0.04 <= gain6 <= 0.12
    ok = pos12_ok and gain12_ok and interior6_ok and gain6_ok
    assert report(
        10, ok,
        f"Nt=12 peak at ratio {peak12:g} (need 3-5): {pos12_ok}, "
        f"gain {100 * gain12:.1f}% (need 10-20%): {gain12_ok}; "
        f"Nt=6 peak at ratio {peak6:g} interior: {interior6_ok}, "
        f"gain {100 * gain6:.1f}% (need 4-12%): {gain6_ok}")


def test_acceptance_11_special_function_oracles():
    from scipy import integrate
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(200):
        b = rng.uniform(0.1, 2.0)
        c = b + rng.uniform(0.1, 2.0)
        a = rng.uniform(0.2, 2.5)
        z = -(10.0 ** rng.uniform(-2.0, 4.0))
        got = specfun.hyp2f1(a, b, c, z).value
        val, _ = integrate.quad(lambda t: (1.0 - t * z) ** (-a), 0.0, 1.0,
                                weight="alg", wvar=(b - 1.0, c - b - 1.0),
                                limit=300, epsrel=1e-13, epsabs=0.0)
        want = val * math.exp(specfun.ln_gamma(c) - specfun.ln_gamma(b)
                              - specfun.ln_gamma(c - b))
        worst = max(worst, abs(got - want) / abs(want))
    digamma_resid = max(abs(specfun.digamma(x + 1.0) - specfun.digamma(x) - 1.0 / x)
                        for x in np.arange(0.5, 50.5, 0.5))
    beta_asym = max(abs(specfun.beta(a, b) - specfun.beta(b, a))
                    / specfun.beta(a, b)
                    for a, b in [(1.5, 3.7), (2.0 ** 18, 0.4), (9.3, 0.02)])
    ok = worst < 1e-8 and digamma_resid < 1e-12 and beta_asym < 1e-12
    assert report(11, ok, f"2F1 vs Euler rel err {worst:.2e} (<1e-8); "
                          f"digamma recurrence {digamma_resid:.2e} (<1e-12); "
                          f"beta symmetry {beta_asym:.2e} (<1e-12)")


def test_acceptance_12_csv_determinism(tmp_path):
    args = [sys.executable, "-m", "clusternull.cli", "coverage",
            "--ratio", "3", "--dnt", "4", "--t-db", "0:5:10", "--mode", "mc",
            "--trials", "128", "--seed", "13"]
    payloads = []
    for threads in ("1", "2"):
        out = tmp_path / f"det{threads}.csv"
        env = dict(os.environ, CLUSTER_SIM_THREADS=threads)
        r = subprocess.run([*args, "--out", str(out)], env=env,
                           capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        payloads.append([ln for ln in out.read_text().splitlines()
                         if not ln.startswith("#")])
    ok = payloads[0] == payloads[1]
    assert report(12, ok, f"numeric rows identical across 1 vs 2 workers: {ok}")
