import math

import numpy as np
import pytest
from scipy import integrate, optimize, special, stats

from clusternull import analysis, feedback, geometry, montecarlo, specfun
from clusternull.errors import DomainError
from clusternull.geometry import FixedNt, FollowN, SimConfig

LAM = 1e-4
LOG2E = math.log2(math.e)


def cfg_default(ratio=3.0, d_nt=7, **kw):
    kw.setdefault("snr_db", 100.0)
    return SimConfig(lambda_b=LAM, lambda_c=LAM / ratio, alpha=4.0,
                     antenna_mode=FollowN(d_nt), **kw)


def cfg_plateau(ratio=3.0, d_nt=5, **kw):
    """Unit-density regime where cell sizes are comparable to the
    near-field plateau (the rate-loss bounds)."""
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

def laplace_outside(s, r_excl, lambda_b, alpha):
    """Laplace transform of the shot-noise interference outside radius
    r_excl, by the exclusion kernel."""
    val = np.exp(-2.0 * math.pi * lambda_b * analysis._excl_kernel(r_excl, s, alpha))
    return float(val) if np.isscalar(s) else val


def test_laplace_at_zero_is_one():
    assert laplace_outside(0.0, 1.0, 1.0, 4.0) == pytest.approx(1.0)


def test_laplace_decreasing_in_s():
    ss = np.linspace(0.0, 30.0, 50)
    vals = np.real(laplace_outside(ss, 1.0, 1.0, 4.0))
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
    got = laplace_outside(1.0, 1.0, 1.0, 4.0).real
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


def test_kernel_allowance_covers_large_arguments():
    # past g = s (1+x)^-alpha = 1e4 scipy's 2F1 loses digits; the per-kernel
    # allowance behind analytic_err grows with g to cover the loss.  The
    # reference integrates J_m in u = ln(1+r), where q is a logistic step.
    for alpha in (3.0, 4.0):
        for g in (1e6, 1e10, 1e14):
            moments = analysis._excl_moments(0.0, g, alpha, 21)
            u_step = math.log(g) / alpha
            for m in (1, 5, 20):
                def integrand(u, m=m):
                    sg = g * math.exp(-alpha * u)
                    return (sg / (1.0 + sg)) ** m / (1.0 + sg) \
                        * math.expm1(u) * math.exp(u)
                want, _ = integrate.quad(
                    integrand, 0.0, u_step + 40.0 / (alpha - 2.0),
                    points=[u_step - 10.0 / alpha, u_step, u_step + 10.0 / alpha],
                    limit=500, epsabs=0.0, epsrel=1e-13)
                err = abs(moments[m - 1] - want)
                assert err < analysis._kernel_rel_err(g) * want, (alpha, g, m, err / want)


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
        (analysis.rate_lb_ic(cfg_fix, n_r0=4, n_rm=3, n_rM=3),
         lambda t: analysis.coverage_lb_ic(cfg_fix, t, n_r0=4, n_rm=3,
                                           n_rM=3)),
    ]
    for rate, coverage in cases:
        want, _ = integrate.quad(lambda x: coverage(math.expm1(x)), 0.0, 40.0,
                                 limit=200, epsabs=1e-10)
        assert abs(rate - want / math.log(2.0)) < 1e-8, (rate, want)


# ---------------------------------------------------------------------------
# inter-cluster interference: mean and log-moment
# ---------------------------------------------------------------------------

def test_iout_moments_alpha_domain():
    with pytest.raises(DomainError):
        analysis.expected_iout(1.0, 0.3, 2.0)
    with pytest.raises(DomainError):
        analysis.expected_log2_iout_plus(1.0, 0.3, 2.0, 0.0)


def test_iout_mean_vs_matched_exclusion_monte_carlo():
    # MC with the same inscribed-disk exclusion max(r_m - r0, 0), conditioned
    # on r_m > r0, reproduces the analytic mean within 5%
    lam_b, lam_c, alpha = 1.0, 1.0 / 3.0, 4.0
    mean_an = analysis.expected_iout(lam_b, lam_c, alpha)
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


def _log2_shot_noise(rng, excl, r_far=40.0):
    """log2 of unit-density shot noise outside excl, Exp(1) fading; the
    part beyond r_far enters as its mean."""
    n = rng.poisson(math.pi * (r_far ** 2 - excl ** 2))
    r = np.sqrt(rng.uniform(excl * excl, r_far * r_far, n))
    tail = analysis.mean_tail_interference(r_far, 1.0, 4.0)
    return math.log2((rng.exponential(1.0, n) * (1.0 + r) ** -4.0).sum() + tail)


def test_log_iout_digamma_vs_shot_noise():
    # the log-moment of the transform vs the log of actual sampled shot
    # noise with the same exclusion geometry, within 0.1 bits at INR > 20 dB
    got = analysis.expected_log2_iout_plus(1.0, 1.0 / 3.0, 4.0, 0.0)
    rng = np.random.default_rng(6)
    vals = []
    while len(vals) < 15_000:
        r0 = math.sqrt(rng.exponential() / math.pi)
        rm = math.sqrt(rng.exponential() / (4.0 * math.pi / 3.0))
        if rm <= r0:
            continue
        vals.append(_log2_shot_noise(rng, rm - r0))
    assert abs(got - np.mean(vals)) < 0.1


def test_log_iout_plus_matches_its_own_law():
    # sample the law the bound integrates: r0 from its Rayleigh marginal and
    # r_m conditioned on r_m > r0, i.e. r_m^2 = r0^2 + Exp / (4 pi lambda_c)
    lam_c = 1.0 / 3.0
    rng = np.random.default_rng(7)
    m = 30_000
    vals = np.empty(m)
    for i in range(m):
        r0 = math.sqrt(rng.exponential() / math.pi)
        rm = math.sqrt(r0 * r0 + rng.exponential() / (4.0 * math.pi * lam_c))
        vals[i] = _log2_shot_noise(rng, rm - r0)
    got = analysis.expected_log2_iout_plus(1.0, lam_c, 4.0, 0.0)
    se = vals.std() / math.sqrt(m)
    assert abs(got - vals.mean()) < 4.0 * se, (got, vals.mean(), se)


# ---------------------------------------------------------------------------
# rate-loss bounds
# ---------------------------------------------------------------------------

def test_rate_loss_equal_decreasing_in_btot():
    cfg = cfg_plateau()
    vals = [analysis.rate_loss_ub_equal(cfg, b) for b in (10, 20, 50, 100, 400)]
    assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))
    assert vals[-1] < vals[0]
    # large budgets approach the Jensen floor, the bound with both RVQ terms
    # gone.  Each term decays as 2^(-b/((N+1)(N+d-1))), so at b_lim the
    # slowest one (N = N_max) is below double resolution, 2^-53.
    d = cfg.antenna_mode.d_nt
    floor = (-analysis.expected_log2_iout_plus(cfg.lambda_b, cfg.lambda_c,
                                               cfg.alpha, 0.0)
             + math.log2(cfg.inv_snr + analysis.expected_iout(
                 cfg.lambda_b, cfg.lambda_c, cfg.alpha)))
    assert all(v >= floor - 1e-9 for v in vals)
    n_max = len(analysis.pmf_weights(cfg.ratio)) - 1
    b_lim = 53 * (n_max + 1) * (n_max + d - 1)
    v_lim = analysis.rate_loss_ub_equal(cfg, b_lim)
    assert abs(v_lim - floor) < 0.05 * max(abs(floor), 0.1)


def test_rate_loss_equal_increasing_in_ratio():
    a = analysis.rate_loss_ub_equal(cfg_plateau(ratio=2.0), 50)
    b = analysis.rate_loss_ub_equal(cfg_plateau(ratio=4.0), 50)
    c = analysis.rate_loss_ub_equal(cfg_plateau(ratio=6.0), 50)
    assert a < b < c


def _loss_constants(cfg):
    """(E{I_out}, E{log2(I_out + 1/SNR)}), as the adaptive bound reads them."""
    return (analysis.expected_iout(cfg.lambda_b, cfg.lambda_c, cfg.alpha),
            analysis.expected_log2_iout_plus(cfg.lambda_b, cfg.lambda_c,
                                             cfg.alpha, cfg.inv_snr))


def test_rate_loss_adaptive_realization_modes():
    # one-row batches of the per-realization loss, beside the allocation
    # the same rule makes for that row
    cfg = cfg_plateau()
    d_nt = cfg.antenna_mode.d_nt
    e_iout, _ = _loss_constants(cfg)
    r = np.array([0.4, 0.9, 1.8])
    (loss,) = analysis.rate_loss_adaptive_rows(r[None, :], cfg, 30)
    b0, b_intra = feedback.adaptive_allocation(r, 30, 3 + d_nt, cfg.alpha,
                                               e_iout, cfg.inv_snr)
    assert np.isfinite(loss)
    assert b0 + b_intra.sum() == 30

    # symmetric two-interferer instance at cell-scale distance: both in the
    # effective set with near-equal bits
    r2 = np.array([0.5, 0.5])
    (loss2,) = analysis.rate_loss_adaptive_rows(r2[None, :], cfg, 30)
    _, b_intra2 = feedback.adaptive_allocation(r2, 30, 2 + d_nt, cfg.alpha,
                                               e_iout, cfg.inv_snr)
    _, (size2,), _ = feedback.adaptive_decision(r2[None, :], 30, 2 + d_nt,
                                                cfg.alpha, e_iout, cfg.inv_snr)
    assert size2 == 2
    assert abs(b_intra2[0] - b_intra2[1]) <= 1
    assert np.isfinite(loss2)


def per_draw_adaptive_loss(cluster, cfg, b_tot, e_iout, e_log):
    """Reference: one realization's adaptive loss from the per-trial
    allocation, in scalar arithmetic.  Returns (loss, effective-set size,
    residual flag)."""
    n_t = cluster.n_interferers + cfg.antenna_mode.d_nt
    b0, _ = feedback.adaptive_allocation(cluster.intra_dist, b_tot, n_t,
                                         cfg.alpha, e_iout, cfg.inv_snr)
    floor = e_iout + cfg.inv_snr
    if n_t <= 1:
        return 0.0, 0, False
    _, (k,), (residual,) = feedback.adaptive_decision(
        cluster.intra_dist[None, :], b_tot, n_t, cfg.alpha, e_iout, cfg.inv_snr)
    g1 = math.exp(specfun.ln_gamma(n_t / (n_t - 1.0)))
    g2 = math.exp(specfun.ln_gamma((2.0 * n_t - 1.0) / (n_t - 1.0)))
    loss = LOG2E * g1 * 2.0 ** (-b0 / (n_t - 1.0)) - e_log
    if k == 0:
        return loss + math.log2(floor), k, residual
    gm = float(np.prod((1.0 + cluster.intra_dist[:k]) ** (-cfg.alpha / k)))
    if residual:
        return loss + (math.log2(g2 * k * gm)
                       + (b0 - b_tot) / (k * (n_t - 1.0))), k, residual
    b_i = b_tot - b0
    return loss + (math.log2(floor) + LOG2E * g2 / floor * k
                   * 2.0 ** (-b_i / (k * (n_t - 1.0))) * gm), k, residual


def per_draw_adaptive_bound(cfg, budgets, draws):
    """Reference: the adaptive bound as one call per draw and budget, summed
    in draw order.  Returns (values, per-draw losses, features seen)."""
    e_iout, e_log = _loss_constants(cfg)
    losses = [[] for _ in budgets]
    seen = set()
    for i in range(draws):
        rng = np.random.default_rng((cfg.seed, 104729, i))
        (_, cluster, _), = geometry.sample_typical_clusters(cfg, [rng])
        n = cluster.n_interferers
        seen |= {"n=0"} if n == 0 else {"n>=8"} if n >= 8 else set()
        for j, b_tot in enumerate(budgets):
            loss, k, residual = per_draw_adaptive_loss(cluster, cfg, b_tot,
                                                       e_iout, e_log)
            losses[j].append(loss)
            if n and k == 0:
                seen.add("empty set")
            if residual:
                seen.add("residual")
    values = []
    for row in losses:
        total = 0.0
        for loss in row:
            total += loss
        values.append(total / draws)
    return values, losses, seen


@pytest.mark.parametrize("ratio,d_nt,snr_db,budgets,features", [
    (3.0, 5, 20.0, (20, 40), {"n=0"}),      # the benchmark's plateau config
    (30.0, 1, 0.0, (20, 40), {"n>=8", "empty set"}),
    (8.0, 3, 40.0, (5,), {"residual"}),
])
def test_batched_adaptive_bound_equals_per_draw_oracle(ratio, d_nt, snr_db,
                                                       budgets, features):
    # value for value (not approximately) the per-draw computation; the
    # error is the per-draw losses' standard error
    cfg = cfg_plateau(ratio=ratio, d_nt=d_nt, snr_db=snr_db, seed=23)
    values, errors = analysis.rate_loss_ub_adaptive(cfg, budgets,
                                                    geometry_trials=300)
    want, losses, seen = per_draw_adaptive_bound(cfg, budgets, 300)
    assert features <= seen
    assert values == want
    for err, row in zip(errors, losses):
        assert err == pytest.approx(np.std(row, ddof=1) / math.sqrt(300),
                                    rel=1e-12)


def test_adaptive_bound_standard_error():
    # two disjoint 400-draw streams agree within 4 combined errors
    budgets = (20, 40)
    a_vals, a_errs = analysis.rate_loss_ub_adaptive(cfg_plateau(seed=17), budgets,
                                                    geometry_trials=400)
    b_vals, b_errs = analysis.rate_loss_ub_adaptive(cfg_plateau(seed=18), budgets,
                                                    geometry_trials=400)
    for a, ea, b, eb in zip(a_vals, a_errs, b_vals, b_errs):
        assert math.isfinite(ea) and ea > 0.0
        assert math.isfinite(eb) and eb > 0.0
        assert abs(a - b) <= 4.0 * math.hypot(ea, eb), (a, ea, b, eb)


def test_rate_loss_bounds_hold_in_sharp_regime():
    # lambda_b = 1e-4 at 100 dB: both bounds stay above their Monte Carlo
    # losses and within a few bits of them
    cfg = cfg_default(ratio=3.0, d_nt=5, trials=1000, seed=5)
    budgets = (20, 40)
    arrays = montecarlo.collect_trials(
        cfg, [(p, b) for b in budgets for p in ("equal-bias", "adaptive")])
    adaptive, _ = analysis.rate_loss_ub_adaptive(cfg, budgets, geometry_trials=400)
    for b_tot, ad_ub in zip(budgets, adaptive):
        eq_ub = analysis.rate_loss_ub_equal(cfg, b_tot)
        for policy, ub in (("equal-bias", eq_ub), ("adaptive", ad_ub)):
            est = montecarlo.estimate_rate_loss(arrays.sinr_ic,
                                                arrays.lf(policy, b_tot))
            assert est.mean - est.ci95_halfwidth <= ub < 8.0, (b_tot, policy, ub, est)


def test_adaptive_bound_below_equal_bound_on_average():
    cfg = cfg_plateau(seed=2)
    eq = analysis.rate_loss_ub_equal(cfg, 30)
    (ad,), _ = analysis.rate_loss_ub_adaptive(cfg, [30], geometry_trials=400)
    assert ad <= eq + 0.05


# ---------------------------------------------------------------------------
# thresholded coverage
# ---------------------------------------------------------------------------

def test_thresholded_matches_follow_n_when_antennas_abundant():
    # N_t = 64 at ratio 3: nulling almost surely feasible, residual branch
    # negligible; both bounds equal the follow-N bounds mixed over the
    # interferer count at matched nodes
    t = 10.0 ** 0.5
    cfg_fix = SimConfig(lambda_b=LAM, lambda_c=LAM / 3.0, alpha=4.0,
                        snr_db=100.0, antenna_mode=FixedNt(64))
    v_fix = analysis.coverage_lb_ic(cfg_fix, t, n_r0=14, n_rm=10)
    r_fix = analysis.rate_lb_ic(cfg_fix, n_r0=14, n_rm=10)
    # oracle: mixture over n of the Result-1 bounds with d = 64 - n
    weights = analysis.pmf_weights(3.0)
    acc = rate = 0.0
    for n, p in enumerate(weights):
        if 64 - n < 1:
            break
        cfg_d = SimConfig(lambda_b=LAM, lambda_c=LAM / 3.0, alpha=4.0,
                          snr_db=100.0, antenna_mode=FollowN(64 - n))
        acc += p * analysis.coverage_lb_ic(cfg_d, t, n_r0=14, n_rm=10)
        rate += p * analysis.rate_lb_ic(cfg_d, n_r0=14, n_rm=10)
    assert abs(v_fix - acc) < 1e-9
    assert abs(r_fix - rate) < 1e-9


def test_thresholded_coverage_in_range_and_decreasing():
    cfg = SimConfig(lambda_b=LAM, lambda_c=LAM / 3.0, alpha=4.0, snr_db=100.0,
                    antenna_mode=FixedNt(10))
    ts = [10.0 ** (x / 10.0) for x in (-5.0, 0.0, 5.0, 10.0)]
    vals = [analysis.coverage_lb_ic(cfg, t, n_r0=12, n_rm=8, n_rM=8) for t in ts]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(a >= b - 1e-3 for a, b in zip(vals, vals[1:]))


def test_thresholded_coverage_curve_reports_finite_error():
    cfg = SimConfig(lambda_b=LAM, lambda_c=LAM / 3.0, alpha=4.0, snr_db=100.0,
                    antenna_mode=FixedNt(12))
    _, errs = analysis.coverage_curve(cfg, [0.0])
    err = errs[0]
    assert math.isfinite(err)
    assert 0.0 < err < 2e-4


@pytest.mark.parametrize("n_t,ratio", [(6, 1.0), (6, 3.0), (6, 6.0),
                                        (12, 1.0), (12, 3.0), (12, 6.0)])
def test_thresholded_coverage_below_monte_carlo(n_t, ratio):
    # the coverage bound at 0 dB and the rate bound stay inside the Monte
    # Carlo envelope of the same thresholding policy, on one collection
    cfg = SimConfig(lambda_b=LAM, lambda_c=LAM / ratio, alpha=4.0, snr_db=100.0,
                    antenna_mode=FixedNt(n_t), trials=2000, seed=41)
    sinr_ic = montecarlo.collect_trials(cfg).sinr_ic
    est = montecarlo.estimate_coverage(sinr_ic, [1.0])[0]
    lb = analysis.coverage_lb_ic(cfg, 1.0)
    assert lb <= est.mean + 2.0 * est.ci95_halfwidth, (lb, est)
    rate = montecarlo.estimate_rate(sinr_ic)
    rate_lb = analysis.rate_lb_ic(cfg)
    assert rate_lb <= rate.mean + 2.0 * rate.ci95_halfwidth, (rate_lb, rate)


_GRID_DB = [-10.0 + 2.0 * i for i in range(16)] + [33.0, 47.5]


@pytest.mark.parametrize("mode,ratio,nodes", [
    (FollowN(1), 3.0, (None, None, None)),
    (FollowN(5), 3.0, (6, 5, None)),
    (FixedNt(12), 3.0, (None, None, None)),
    (FixedNt(6), 6.0, (5, 4, 3)),
], ids=["follow-1", "follow-5-nodes", "fixed-12", "fixed-6-nodes"])
def test_coverage_curve_equals_thresholds_alone(monkeypatch, mode, ratio, nodes):
    # one pass over the grid gives each threshold's value and error bit for
    # bit as that threshold alone, in blocks of any size
    cfg = SimConfig(lambda_b=LAM, lambda_c=LAM / ratio, alpha=4.0, snr_db=100.0,
                    antenna_mode=mode)
    ts = [10.0 ** (t_db / 10.0) for t_db in np.asarray(_GRID_DB)]
    if nodes == (None, None, None):
        values, errors = analysis.coverage_curve(cfg, _GRID_DB)
    else:
        values, errors = analysis._coverage_lb_err(cfg, ts, *nodes)
    if isinstance(mode, FixedNt):
        assert analysis._order_law(cfg)[1] is not None   # single-cell branch
    for i, t in enumerate(ts):
        value, error = analysis._coverage_lb_err(cfg, [t], *nodes)
        assert values[i] == value[0] and errors[i] == error[0], i
        assert analysis.coverage_lb_ic(cfg, t, *nodes) == values[i]
    for budget in (1, 3 * analysis._BLOCK_ELEMENTS // 17, 1 << 30):
        monkeypatch.setattr(analysis, "_BLOCK_ELEMENTS", budget)
        blocked = analysis._coverage_lb_err(cfg, ts, *nodes)
        assert np.array_equal(blocked[0], values)
        assert np.array_equal(blocked[1], errors)


def test_annulus_series_matches_broadcast_evaluation():
    # the inner-radius terms at the (s, r0) shape equal their evaluation on
    # the full (s, r0, r_big) broadcast
    alpha, n = 4.0, 9
    r0s, _ = analysis._beyond_nodes(0.0, LAM, 6)
    r_big, _ = analysis._rM_nodes_conditional(r0s[:, None], LAM / 3.0, 5)
    s = np.array([0.3, 1.0, 40.0])[:, None, None] * (1.0 + r0s[:, None]) ** alpha
    got = analysis._annulus_series(s, r0s[:, None], r_big, alpha, n)

    s_b, r0_b, rb_b = np.broadcast_arrays(s, r0s[:, None], r_big)
    want = np.empty(s_b.shape + (n,))
    want[..., 0] = analysis.annulus_point_laplace(s_b, r0_b, rb_b, alpha)
    want[..., 1:] = 2.0 * (analysis._excl_moments(r0_b, s_b, alpha, n)
                           - analysis._excl_moments(rb_b, s_b, alpha, n)) \
        / (rb_b * rb_b - r0_b * r0_b)[..., None]
    assert got.shape == (3, 6, 5, n)
    assert np.array_equal(got, want)


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


def test_circumscribed_nodes_match_scalar_root():
    # the vectorised bisection gives the nodes a scalar root finder gives
    r0s, _ = analysis._beyond_nodes(0.0, LAM, 16)
    lam_c = LAM / 3.0
    got, _ = analysis._rM_nodes_conditional(r0s[:, None], lam_c, 10)
    t, _ = analysis._gl01(10)
    for i, r0 in enumerate(r0s):
        q0 = math.pi * lam_c * r0 * r0
        for j, y in enumerate(t * analysis._circum_ccdf_q(q0)):
            q = optimize.brentq(lambda q: analysis._circum_ccdf_q(q) - y,
                                q0, q0 + 100.0, xtol=1e-14)
            want = math.sqrt(q / (math.pi * lam_c))
            assert abs(got[i, j] - want) < 1e-12 * want, (i, j)


def test_rate_loss_ub_adaptive_grid_equals_scalar_calls():
    # one geometry set serves the whole budget grid, value for value
    cfg = cfg_plateau(seed=3)
    budgets = (8, 30, 55)
    grid, _ = analysis.rate_loss_ub_adaptive(cfg, budgets, geometry_trials=120)
    scalar = [analysis.rate_loss_ub_adaptive(cfg, [b], geometry_trials=120)[0][0]
              for b in budgets]
    assert grid == scalar


@pytest.mark.parametrize("ratio", [100.0, 300.0, 1000.0])
def test_pmf_weights_reach_tail_at_large_ratio(ratio):
    # the count law's mass past ratio ~75 lies beyond any fixed term cap
    assert analysis.pmf_weights(ratio).sum() >= 1.0 - 1e-8
