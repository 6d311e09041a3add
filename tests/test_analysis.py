import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate, special, stats

from clusternull import analysis, feedback, montecarlo, specfun
from clusternull.errors import DomainError
from clusternull.geometry import FixedNt, FollowN, SimConfig

LAM = 1e-4


def cfg_default(ratio=3.0, d_nt=7, **kw):
    kw.setdefault("snr_db", 100.0)
    return SimConfig(lambda_b=LAM, lambda_c=LAM / ratio, alpha=4.0,
                     antenna_mode=FollowN(d_nt), **kw)


def cfg_plateau(ratio=3.0, d_nt=5, **kw):
    """Unit-density regime where the near-field plateau keeps the
    moment-matching machinery well conditioned (the rate-loss bounds)."""
    kw.setdefault("snr_db", 20.0)
    return SimConfig(lambda_b=1.0, lambda_c=1.0 / ratio, alpha=4.0,
                     antenna_mode=FollowN(d_nt), **kw)


# ---------------------------------------------------------------------------
# interferer-count PMF
# ---------------------------------------------------------------------------

def test_pmf_value_at_zero():
    assert analysis.pmf_n(0, 1.0) == pytest.approx((3.5 / 4.5) ** 4.5, rel=1e-12)


def test_pmf_normalization_and_mean():
    for ratio in (1.0, 3.0, 10.0):
        p = np.array([analysis.pmf_n(n, ratio) for n in range(500)])
        assert abs(p.sum() - 1.0) < 1e-9
        mean = np.dot(np.arange(500), p)
        assert abs(mean - ratio * 4.5 / 3.5) < 1e-6


def test_pmf_stochastically_increasing_in_ratio():
    r1 = np.cumsum([analysis.pmf_n(n, 2.0) for n in range(200)])
    r2 = np.cumsum([analysis.pmf_n(n, 4.0) for n in range(200)])
    assert np.all(r2 <= r1 + 1e-12)


# ---------------------------------------------------------------------------
# Laplace transforms
# ---------------------------------------------------------------------------

def test_laplace_at_zero_is_one():
    assert analysis.laplace_interference_outside(0.0, 1.0, 1.0, 4.0) == pytest.approx(1.0)


def test_laplace_decreasing_in_s():
    ss = np.linspace(0.0, 30.0, 50)
    vals = np.real(analysis.laplace_interference_outside(ss, 1.0, 1.0, 4.0))
    assert np.all(vals <= 1.0) and np.all(vals > 0.0)
    assert np.all(np.diff(vals) < 0)


def test_laplace_vs_monte_carlo():
    # shot-noise oracle: PPP outside radius 1, Exp(1) marks, unit density
    # (window truncated at r=40; the discarded exponent mass is ~2e-3)
    rng = np.random.default_rng(1)
    n_mc = 25_000
    r_far = 40.0
    area = math.pi * (r_far ** 2 - 1.0)
    vals = np.empty(n_mc)
    for i in range(n_mc):
        n = rng.poisson(area)
        r = np.sqrt(rng.uniform(1.0, r_far ** 2, n))
        vals[i] = math.exp(-np.sum(rng.exponential(1.0, n) * (1.0 + r) ** -4.0))
    got = analysis.laplace_interference_outside(1.0, 1.0, 1.0, 4.0).real
    assert abs(got - vals.mean()) < 0.02 * vals.mean()


def test_exclusion_kernel_vs_quadrature():
    for (x, s, alpha) in [(0.0, 0.5, 4.0), (1.0, 1.0, 4.0), (2.5, 8.0, 3.0)]:
        got = analysis._excl_kernel(x, np.array([s]), alpha)[0]
        want, _ = integrate.quad(
            lambda r: s * (1 + r) ** -alpha / (1 + s * (1 + r) ** -alpha) * r,
            x, np.inf, limit=300)
        assert abs(got - want) < 1e-9 * max(want, 1e-12)
        moments = analysis._excl_moments(x, np.array([s]), alpha, 64)[0]
        for m in (1, 12, 40, 63):
            def integrand(r, m=m):
                q = s * (1 + r) ** -alpha / (1 + s * (1 + r) ** -alpha)
                return q ** m * (1 - q) * r
            want, _ = integrate.quad(integrand, x, np.inf, limit=300)
            assert abs(moments[m - 1] - want) < 1e-9 * max(want, 1e-12), (x, s, m)


def test_annulus_point_laplace_vs_quadrature():
    r0, r_big, alpha, s = 0.5, 3.0, 4.0, 2.0
    got = analysis.annulus_point_laplace(np.array([s]), r0, r_big, alpha)[0]
    def integrand(r):
        return (1.0 / (1.0 + s * (1 + r) ** -alpha)) * 2.0 * r / (r_big ** 2 - r0 ** 2)
    want, _ = integrate.quad(integrand, r0, r_big, limit=200)
    assert abs(got - want) < 1e-9


def test_annulus_binomial_vs_monte_carlo():
    # n interferers uniform on the annulus: transform is the per-point value^n
    rng = np.random.default_rng(2)
    r0, r_big, alpha, s, n = 0.4, 2.5, 4.0, 1.5, 4
    m = 200_000
    r = np.sqrt(rng.uniform(r0 ** 2, r_big ** 2, (m, n)))
    tot = (rng.exponential(1.0, (m, n)) * (1 + r) ** -alpha).sum(axis=1)
    mc = np.exp(-s * tot).mean()
    got = analysis.annulus_point_laplace(np.array([s]), r0, r_big, alpha)[0] ** n
    assert abs(got - mc) < 3e-3


# ---------------------------------------------------------------------------
# real-axis series engine
# ---------------------------------------------------------------------------

def test_series_ccdf_gamma_oracle():
    # deterministic interference i0 makes the answer a Gamma tail: the
    # log-series is -s (i0 + 1/SNR) (1 - u)
    rng = np.random.default_rng(3)
    for _ in range(60):
        tl = 10.0 ** rng.uniform(-2, 3)
        i0 = 10.0 ** rng.uniform(-2, 0.5)
        d = int(rng.integers(1, 12))
        inv_snr = 10.0 ** rng.uniform(-2, 0)
        b = np.zeros(d)
        b[0] = -tl * (i0 + inv_snr)
        if d > 1:
            b[1] = tl * (i0 + inv_snr)
        val = analysis._exp_series(b).sum()
        want = special.gammaincc(float(d), tl * (i0 + inv_snr))
        assert abs(val - want) < 1e-12, (tl, i0, d, inv_snr)


def test_power_mixture_matches_repeated_convolution():
    rng = np.random.default_rng(8)
    c = rng.uniform(0.0, 1.0, 7)
    weights = [0.5, 0.3, 0.2]
    got = analysis._power_mixture(c, weights, 3)
    want = np.zeros(7)
    power = np.convolve(np.convolve(c, c), c)
    for w in weights:
        want += w * power[:7]
        power = np.convolve(power, c)
    assert np.allclose(got, want, rtol=1e-13, atol=0.0)


def test_single_cell_term_vs_conditional_monte_carlo():
    # one radius node of the thresholded bound's single-cell branch: N = 6
    # interferers uniform on the annulus [r0, r_M], a PPP of density
    # lambda_b outside r_m, Exp(1) fading and Gamma(n_t) desired power
    cfg = SimConfig(lambda_b=LAM, lambda_c=LAM / 3.0, alpha=4.0, snr_db=100.0,
                    antenna_mode=FixedNt(6))
    r0, r_m, r_big, n = 81.78, 89.51, 259.37, 6
    s = (1.0 + r0) ** cfg.alpha           # t = 0 dB
    outer = analysis._exp_series(analysis._outer_log_series(s, r_m, cfg, n))
    intra = analysis._power_mixture(
        analysis._annulus_series(s, r0, r_big, cfg.alpha, n), [1.0], n)
    got = analysis._ccdf_of_product(outer, intra)

    rng = np.random.default_rng(9)
    m, r_far = 20_000, 2000.0
    far = analysis.mean_tail_interference(r_far, LAM, cfg.alpha)
    i_out = np.empty(m)
    for i in range(m):
        k = rng.poisson(LAM * math.pi * (r_far ** 2 - r_m ** 2))
        r = np.sqrt(rng.uniform(r_m ** 2, r_far ** 2, k))
        i_out[i] = (rng.exponential(1.0, k) * (1.0 + r) ** -cfg.alpha).sum()
    r = np.sqrt(rng.uniform(r0 ** 2, r_big ** 2, (m, n)))
    i_in = (rng.exponential(1.0, (m, n)) * (1.0 + r) ** -cfg.alpha).sum(axis=1)
    h = rng.gamma(6.0, 1.0, m)
    hits = h > s * (i_out + far + i_in + cfg.inv_snr)
    mc = hits.mean()
    se = math.sqrt(mc * (1.0 - mc) / m)
    assert abs(got - mc) < 4.0 * se, (got, mc, se)


# ---------------------------------------------------------------------------
# coverage and rate bounds
# ---------------------------------------------------------------------------

def test_coverage_lb_limits_and_monotonicity():
    cfg = cfg_default()
    lo = analysis.coverage_lb_ic(cfg, 1e-6)
    assert lo >= 1.0 - 1e-3
    ts = [10.0 ** (t / 10.0) for t in (-5.0, 0.0, 5.0, 10.0)]
    vals = [analysis.coverage_lb_ic(cfg, t) for t in ts]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(a >= b - 1e-4 for a, b in zip(vals, vals[1:]))


def test_coverage_lb_monotone_in_dnt():
    t = 10.0 ** 0.3
    vals = [analysis.coverage_lb_ic(cfg_default(d_nt=d), t) for d in (2, 4, 8)]
    assert vals[0] < vals[1] < vals[2]


def test_rate_transform_calibration():
    # a fixed Y = y: E log2(1 + H/y) with H ~ Exp(1) is e^y E1(y) / ln 2
    for y in (1e-3, 0.1, 1.0, 10.0, 300.0):
        got = analysis._LOG2E * analysis._log_z_integral(
            lambda z: analysis._gamma_gain(z, 1) * np.exp(-z * y))
        want = special.exp1(y) * math.exp(y) / math.log(2.0)
        assert abs(got - want) < 1e-12 * want, (y, got, want)


def test_rate_lb_monotone_in_ratio():
    r1 = analysis.rate_lb_ic(cfg_default(ratio=1.0, d_nt=4), n_r0=10, n_rm=8)
    r4 = analysis.rate_lb_ic(cfg_default(ratio=4.0, d_nt=4), n_r0=10, n_rm=8)
    r6 = analysis.rate_lb_ic(cfg_default(ratio=6.0, d_nt=4), n_r0=10, n_rm=8)
    assert r1 < r4 <= r6 + 0.02


def test_rate_bounds_equal_integrated_coverage():
    # Hamdi's lemma and the threshold integral of the coverage bound,
    # Int_0^inf P_c(e^x - 1) dx / ln 2, are two routes to one value
    cfg_fix = SimConfig(lambda_b=LAM, lambda_c=LAM / 3.0, alpha=4.0,
                        snr_db=100.0, antenna_mode=FixedNt(6))
    cases = [
        (analysis.rate_lb_ic(cfg_default(ratio=4.0, d_nt=4), n_r0=4, n_rm=3),
         lambda t: analysis.coverage_lb_ic(cfg_default(ratio=4.0, d_nt=4), t,
                                           n_r0=4, n_rm=3)),
        (analysis.rate_lb_thresholded(cfg_fix, n_r0=4, n_rm=3, n_rM=3),
         lambda t: analysis.coverage_lb_thresholded(cfg_fix, t, n_r0=4,
                                                    n_rm=3, n_rM=3)),
    ]
    for rate, coverage in cases:
        want, _ = integrate.quad(lambda x: coverage(math.expm1(x)), 0.0, 40.0,
                                 limit=200, epsabs=1e-10)
        assert abs(rate - want / math.log(2.0)) < 1e-8, (rate, want)


# ---------------------------------------------------------------------------
# interference moments and the Gamma fit
# ---------------------------------------------------------------------------

def test_gamma_fit_roundtrip():
    fit = analysis.gamma_fit(2.0, 4.0)
    assert fit.k == pytest.approx(1.0) and fit.theta == pytest.approx(2.0)
    fit = analysis.gamma_fit(0.37, 0.011)
    assert fit.mean == pytest.approx(0.37, rel=1e-12)
    assert fit.var == pytest.approx(0.011, rel=1e-12)
    with pytest.raises(DomainError):
        analysis.gamma_fit(0.0, 1.0)


def test_iout_moments_alpha_domain():
    with pytest.raises(DomainError):
        analysis.iout_moments(1.0, 0.3, 2.0)


def test_iout_mean_vs_matched_exclusion_monte_carlo():
    # MC with the same inscribed-disk exclusion max(r_m - r0, 0), conditioned
    # on r_m > r0, reproduces the analytic mean within 5%
    lam_b, lam_c, alpha = 1.0, 1.0 / 3.0, 4.0
    mean_an, _ = analysis.iout_moments(lam_b, lam_c, alpha)
    rng = np.random.default_rng(4)
    n_mc, r_far = 15_000, 40.0
    tail = analysis.mean_tail_interference(r_far, lam_b, alpha)
    total = 0.0
    kept = 0
    while kept < n_mc:
        r0 = math.sqrt(rng.exponential(1.0) / (math.pi * lam_b))
        rm = math.sqrt(rng.exponential(1.0) / (4.0 * math.pi * lam_c))
        if rm <= r0:
            continue
        kept += 1
        d = rm - r0
        area = math.pi * (r_far ** 2 - d ** 2)
        n = rng.poisson(lam_b * area)
        r = np.sqrt(rng.uniform(d ** 2, r_far ** 2, n))
        total += float((rng.exponential(1.0, n) * (1.0 + r) ** -alpha).sum()) + tail
    mc = total / n_mc
    assert abs(mean_an - mc) < 0.05 * mc


def test_log_iout_digamma_identity():
    # E{log2 X} = psi(k)/ln2 + log2 theta for X ~ Gamma(k, theta)
    fit = analysis.iout_gamma_fit(1.0, 1.0 / 3.0, 4.0)
    rng = np.random.default_rng(5)
    x = rng.gamma(fit.k, fit.theta, 400_000)
    got = analysis.expected_log2_iout(fit)
    assert abs(got - np.log2(x).mean()) < 0.01


def test_log_iout_digamma_vs_shot_noise():
    # moment-matched digamma form vs the log of actual sampled shot noise
    # with the same exclusion geometry, within 0.1 bits at INR > 20 dB
    fit = analysis.iout_gamma_fit(1.0, 1.0 / 3.0, 4.0)
    rng = np.random.default_rng(6)
    r_far = 40.0
    tail = analysis.mean_tail_interference(r_far, 1.0, 4.0)
    vals = []
    while len(vals) < 15_000:
        r0 = math.sqrt(rng.exponential() / math.pi)
        rm = math.sqrt(rng.exponential() / (4.0 * math.pi / 3.0))
        if rm <= r0:
            continue
        d = rm - r0
        n = rng.poisson(math.pi * (r_far ** 2 - d ** 2))
        r = np.sqrt(rng.uniform(d * d, r_far * r_far, n))
        vals.append(math.log2(
            (rng.exponential(1.0, n) * (1.0 + r) ** -4.0).sum() + tail))
    assert abs(analysis.expected_log2_iout(fit) - np.mean(vals)) < 0.1


def test_expected_log2_gamma_plus_quadrature():
    fit = analysis.GammaFit(k=2.3, theta=0.7)
    rng = np.random.default_rng(6)
    x = rng.gamma(fit.k, fit.theta, 400_000)
    for c in (0.05, 1.0):
        got = analysis.expected_log2_gamma_plus(fit, c)
        mc = np.log2(x + c).mean()
        assert abs(got - mc) < 0.01


# ---------------------------------------------------------------------------
# rate-loss bounds
# ---------------------------------------------------------------------------

def test_rate_loss_equal_decreasing_in_btot():
    vals = []
    for b in (10, 20, 50, 100, 400):
        cfg = cfg_plateau(b_tot=b)
        vals.append(analysis.rate_loss_ub_equal(cfg))
    assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))
    # large budgets approach the Jensen/Gamma-approximation floor
    assert vals[-1] < vals[0]
    assert abs(vals[-1] - vals[-2]) < 0.05 * max(abs(vals[-2]), 0.1)


def test_rate_loss_equal_increasing_in_ratio():
    a = analysis.rate_loss_ub_equal(cfg_plateau(ratio=2.0, b_tot=50))
    b = analysis.rate_loss_ub_equal(cfg_plateau(ratio=4.0, b_tot=50))
    c = analysis.rate_loss_ub_equal(cfg_plateau(ratio=6.0, b_tot=50))
    assert a < b < c


def test_rate_loss_adaptive_realization_modes():
    cfg = cfg_plateau(b_tot=30)
    fit = analysis.iout_gamma_fit(cfg.lambda_b, cfg.lambda_c, cfg.alpha)
    e_iout = analysis.expected_iout(cfg.lambda_b, cfg.lambda_c, cfg.alpha)
    r = np.array([0.4, 0.9, 1.8])
    loss, alloc = analysis.rate_loss_adaptive_realization(3, r, cfg, fit, e_iout)
    assert np.isfinite(loss)
    assert alloc.b0 + alloc.b_intra.sum() == 30

    # symmetric two-interferer instance at cell-scale distance: both in the
    # effective set with near-equal bits
    r2 = np.array([0.5, 0.5])
    loss2, alloc2 = analysis.rate_loss_adaptive_realization(2, r2, cfg, fit, e_iout)
    assert len(alloc2.effective_set) == 2
    assert abs(alloc2.b_intra[0] - alloc2.b_intra[1]) <= 1
    assert np.isfinite(loss2)


def test_adaptive_bound_below_equal_bound_on_average():
    cfg = cfg_plateau(b_tot=30, seed=2)
    eq = analysis.rate_loss_ub_equal(cfg)
    ad = analysis.rate_loss_ub_adaptive(cfg, geometry_trials=400)
    assert ad <= eq + 0.05


# ---------------------------------------------------------------------------
# thresholded coverage
# ---------------------------------------------------------------------------

def test_thresholded_matches_follow_n_when_antennas_abundant():
    # N_t = 64 at ratio 3: nulling almost surely feasible, residual branch
    # negligible; compare against the follow-N bound with matched weights
    t = 10.0 ** 0.5
    cfg_fix = SimConfig(lambda_b=LAM, lambda_c=LAM / 3.0, alpha=4.0,
                        snr_db=100.0, antenna_mode=FixedNt(64))
    v_fix = analysis.coverage_lb_thresholded(cfg_fix, t, n_r0=14, n_rm=10)
    # oracle: mixture over n of the Result-1 integrand with d = 64 - n
    weights = analysis.pmf_weights(3.0)
    acc = 0.0
    for n, p in enumerate(weights):
        if 64 - n < 1:
            break
        cfg_d = SimConfig(lambda_b=LAM, lambda_c=LAM / 3.0, alpha=4.0,
                          snr_db=100.0, antenna_mode=FollowN(64 - n))
        acc += p * analysis.coverage_lb_ic(cfg_d, t, n_r0=14, n_rm=10)
    assert abs(v_fix - acc) < 5e-3


def test_thresholded_coverage_in_range_and_decreasing():
    cfg = SimConfig(lambda_b=LAM, lambda_c=LAM / 3.0, alpha=4.0, snr_db=100.0,
                    antenna_mode=FixedNt(10))
    ts = [10.0 ** (x / 10.0) for x in (-5.0, 0.0, 5.0, 10.0)]
    vals = [analysis.coverage_lb_thresholded(cfg, t, n_r0=12, n_rm=8, n_rM=8)
            for t in ts]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(a >= b - 1e-3 for a, b in zip(vals, vals[1:]))


def test_thresholded_coverage_curve_reports_finite_error():
    cfg = SimConfig(lambda_b=LAM, lambda_c=LAM / 3.0, alpha=4.0, snr_db=100.0,
                    antenna_mode=FixedNt(12))
    curve = analysis.coverage_curve(cfg, [0.0])
    err = curve.quadrature_error[0]
    assert math.isfinite(err)
    assert 0.0 < err < 2e-4


@pytest.mark.parametrize("n_t,ratio", [(6, 3.0), (6, 6.0), (12, 3.0), (12, 6.0)])
def test_thresholded_coverage_below_monte_carlo(n_t, ratio):
    # the bound at 0 dB stays inside the Monte Carlo envelope of the same
    # thresholding policy
    cfg = SimConfig(lambda_b=LAM, lambda_c=LAM / ratio, alpha=4.0, snr_db=100.0,
                    antenna_mode=FixedNt(n_t), trials=2000, seed=41)
    est = montecarlo.estimate_coverage(cfg, [1.0], "icin")[0]
    lb = analysis.coverage_lb_thresholded(cfg, 1.0)
    assert lb <= est.mean + 2.0 * est.ci95_halfwidth, (lb, est)


def test_circumscribed_ccdf_bound_shape():
    # decreasing from 1, used as a CCDF after intensity scaling
    qs = np.linspace(0.0, 10.0, 200)
    g = analysis._circum_ccdf_q(qs)
    assert g[0] == pytest.approx(1.0)
    assert np.all(np.diff(g) <= 1e-12)
    assert np.all(g <= 1.0 + 1e-12)
    # inverse round-trips
    for y in (0.9, 0.5, 0.1, 1e-3):
        q = analysis._circum_inverse_q(y)
        assert analysis._circum_ccdf_q(q) == pytest.approx(y, rel=1e-9)


def test_rate_loss_ub_adaptive_grid_equals_scalar_calls():
    # one geometry set serves the whole budget grid, value for value
    cfg = cfg_plateau(b_tot=30, seed=3)
    budgets = (8, 30, 55)
    grid = analysis.rate_loss_ub_adaptive(cfg, geometry_trials=120, b_tots=budgets)
    scalar = [analysis.rate_loss_ub_adaptive(replace(cfg, b_tot=b),
                                             geometry_trials=120)
              for b in budgets]
    assert grid == scalar
