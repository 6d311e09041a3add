"""Closed-form quantities: interferer-count PMF, interference Laplace
transforms, coverage/rate lower bounds, Gamma moment matching, and the
mean rate-loss bounds for equal and adaptive feedback allocation.

Coverage bounds evaluate a Fourier-inversion integral of the form

    2 * Int_0^inf Re{ exp(-2*pi*j*c*s) * L_int(2*pi*j*s)
                      * (L_h(-2*pi*j*g*s) - 1) / (2*pi*j*s) } ds

nested inside quadrature over the deployment radii.  The radius densities
are integrated by mapping each through its own CDF, so the outer
quadratures run on the unit square/cube with smooth integrands.
"""

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import optimize, special

from . import feedback, geometry, specfun
from .errors import DomainError, QuadratureError

_LOG2E = math.log2(math.e)


class CurveKind(enum.Enum):
    COVERAGE_LB = "coverage_lb"
    RATE_LB = "rate_lb"
    RATE_LOSS_UB = "rate_loss_ub"


@dataclass
class GammaFit:
    k: float
    theta: float

    @property
    def mean(self):
        return self.k * self.theta

    @property
    def var(self):
        return self.k * self.theta * self.theta


@dataclass
class BoundCurve:
    x: np.ndarray
    y: np.ndarray
    kind: CurveKind
    quadrature_error: np.ndarray


# ---------------------------------------------------------------------------
# Interferer-count PMF (area-biased Gamma mixture of Poisson counts)
# ---------------------------------------------------------------------------

def pmf_n(n, ratio):
    """P[N = n] for the tagged cluster, ratio = lambda_b / lambda_c."""
    if n < 0 or ratio <= 0.0:
        raise DomainError(f"pmf_n needs n >= 0 and ratio > 0, got {n}, {ratio}")
    ln_p = (4.5 * math.log(3.5) + specfun.ln_gamma(n + 4.5) + n * math.log(ratio)
            - specfun.ln_gamma(4.5) - specfun.ln_gamma(n + 1.0)
            - (n + 4.5) * math.log(ratio + 3.5))
    return math.exp(ln_p)


def pmf_weights(ratio, tail=1e-8, n_cap=600):
    """pmf values 0..n_max where the cumulative mass reaches 1 - tail."""
    out = []
    cum = 0.0
    for n in range(n_cap):
        p = pmf_n(n, ratio)
        out.append(p)
        cum += p
        if cum >= 1.0 - tail:
            break
    return np.asarray(out)


# ---------------------------------------------------------------------------
# Interference Laplace transforms
# ---------------------------------------------------------------------------

def _excl_kernel(x, s, alpha):
    """A(x, s) = Int_x^inf  s (1+r)^-a / (1 + s (1+r)^-a) * r dr  (unit density).

    Closed form via the two-2F1 expression; s may be a complex array with
    Re s >= 0, and x broadcasts against it.
    """
    s = np.asarray(s, dtype=complex)
    u0 = 1.0 + np.asarray(x, dtype=float)
    z = -(u0 ** (-alpha)) * s
    f1 = specfun.hyp2f1_a1(1.0 - 2.0 / alpha, z)
    f2 = specfun.hyp2f1_a1(1.0 - 1.0 / alpha, z)
    return (s * u0 ** (2.0 - alpha) / (alpha - 2.0) * f1
            - s * u0 ** (1.0 - alpha) / (alpha - 1.0) * f2)


def laplace_interference_outside(s, r_excl, lambda_b, alpha):
    """Laplace transform of the shot-noise interference outside radius r_excl."""
    if r_excl < 0.0:
        raise DomainError("r_excl must be >= 0")
    if alpha <= 2.0:
        raise DomainError("alpha must exceed 2")
    scalar = np.isscalar(s)
    val = np.exp(-2.0 * math.pi * lambda_b * _excl_kernel(r_excl, s, alpha))
    return complex(val[()]) if scalar else val


def annulus_point_laplace(s, r0, r_big, alpha):
    """Per-point Laplace transform of one interferer uniform on the annulus
    [r0, r_big] with Exp(1) fading; the binomial intra-cluster transform is
    this value raised to the interferer count.  r_big may broadcast
    against s but must exceed r0 everywhere."""
    s = np.asarray(s, dtype=complex)
    if np.any(np.asarray(r_big) <= r0):
        raise DomainError("annulus needs r_big > r0")
    num = _excl_kernel(r0, s, alpha) - _excl_kernel(r_big, s, alpha)
    return 1.0 - 2.0 * num / (np.asarray(r_big) ** 2 - r0 ** 2)


def mean_tail_interference(r_excl, lambda_b, alpha):
    """Campbell mean of unit-fading shot noise outside r_excl."""
    u0 = 1.0 + r_excl
    return 2.0 * math.pi * lambda_b * (
        u0 ** (2.0 - alpha) / (alpha - 2.0) - u0 ** (1.0 - alpha) / (alpha - 1.0))


def _var_kernel(r_excl, lambda_b, alpha):
    u0 = 1.0 + r_excl
    return 2.0 * math.pi * lambda_b * (
        u0 ** (2.0 - 2.0 * alpha) / (2.0 * alpha - 2.0)
        - u0 ** (1.0 - 2.0 * alpha) / (2.0 * alpha - 1.0))


# ---------------------------------------------------------------------------
# Radius quadrature grids (CDF-mapped Gauss-Legendre)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _gl01(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _r0_nodes(lambda_b, n):
    u, w = _gl01(n)
    r0 = np.sqrt(-np.log(u) / (math.pi * lambda_b))
    return r0, w


def _rm_nodes_conditional(r0, lambda_c, n):
    """Inscribed-radius nodes conditioned on r_m > r0 (CCDF-mapped)."""
    v, w = _gl01(n)
    rm = np.sqrt(r0 * r0 - np.log(v) / (4.0 * math.pi * lambda_c))
    return rm, w


def _circum_ccdf_q(q):
    """CCDF bound of the circumscribed radius in q = pi lambda_c r^2."""
    return 2.0 * q * np.exp(-q) + np.exp(-2.0 * q)


def _circum_inverse_q(y, q_lo=0.0):
    """Solve _circum_ccdf_q(q) = y for q >= q_lo (the function decreases 1->0)."""
    lo, hi = q_lo, max(q_lo, 1.0) + 1.0
    while _circum_ccdf_q(hi) > y:
        hi *= 2.0
        if hi > 1e6:
            break
    return optimize.brentq(lambda q: _circum_ccdf_q(q) - y, lo, hi, xtol=1e-12)


def _rM_nodes_conditional(r0, lambda_c, n):
    """Circumscribed-radius nodes from the CCDF bound, conditioned > r0.

    The published bound is stated for a unit-intensity process; intensity is
    restored by the scaling r -> r sqrt(lambda_c) (q = pi lambda_c r^2) and
    the law renormalized on [r0, inf).
    """
    w_nodes, w = _gl01(n)
    q0 = math.pi * lambda_c * r0 * r0
    g0 = _circum_ccdf_q(q0)
    rM = np.empty(n)
    for i, t in enumerate(w_nodes):
        q = _circum_inverse_q(t * g0, q_lo=q0)
        rM[i] = math.sqrt(q / (math.pi * lambda_c))
    return rM, w


# ---------------------------------------------------------------------------
# Fourier-inversion engine
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _gl_raw(n):
    return np.polynomial.legendre.leggauss(n)


def _panel_value(fn, a, b, n):
    x, w = _gl_raw(n)
    s = 0.5 * (b - a) * x + 0.5 * (b + a)
    return 0.5 * (b - a) * float(np.dot(w, fn(s)))


def _local_frequency(env, s, nu_max):
    """Oscillation frequency of the complex envelope near s (cycles per unit s).

    nu_max is an a-priori bound on the total frequency (threshold-scaled
    interference mean plus the noise phase): the phase increment of a
    shot-noise Laplace transform is bounded by its mean, so measuring over
    a step of 0.2 / nu_max cannot alias.  A nested-step agreement check
    guards the estimate anyway.  An envelope that has underflowed has no
    oscillation left to resolve, and its frequency reads 0.
    """
    step = 0.1 * s
    if nu_max > 0.0:
        step = min(step, 0.2 / nu_max)
    for _ in range(48):
        e0, e1, e_half = env(np.array([s, s + step, s + 0.5 * step]))
        if min(abs(e0), abs(e1), abs(e_half)) < 1e-280:
            return 0.0
        d1 = abs(np.angle(e1 / e0))
        d2 = abs(np.angle(e_half / e0))
        if d1 < 1.5 and abs(d1 - 2.0 * d2) < 0.2 * max(d1, 1e-12) + 1e-9:
            return d1 / (2.0 * math.pi * step)
        step *= 0.25
    return max(nu_max, 1e-12)


def _euler_accelerate(terms):
    """Iterated-mean acceleration of sum(terms); returns (limit, err_est)."""
    row = np.cumsum(np.asarray(terms, dtype=float))
    est = row[-1]
    diffs = [abs(row[-1] - row[-2]) if len(row) > 1 else abs(row[-1])]
    while len(row) > 1:
        row = 0.5 * (row[1:] + row[:-1])
        diffs.append(abs(row[-1] - est))
        est = row[-1]
    diffs.sort()
    return est, diffs[0] + (diffs[1] if len(diffs) > 1 else 0.0)


def _oscillatory_tail(vals, env, start, nu_max, tol):
    """Integrate vals on [start, inf) by half-period panels of the envelope
    oscillation plus iterated-average extrapolation of the partial sums."""
    nu = _local_frequency(env, start, nu_max)
    if nu <= 0.0:
        nu = 1.0 / start
    delta = min(0.5 / nu, 8.0 * start)
    s0 = start
    terms = []
    quad_err = 0.0
    quiet = 0
    for k in range(400):
        v = _panel_value(vals, s0, s0 + delta, 24)
        v_lo = _panel_value(vals, s0, s0 + delta, 12)
        quad_err += abs(v - v_lo)
        terms.append(v)
        s0 += delta
        if abs(v) < tol / 32.0:
            quiet += 1
            if quiet >= 3:
                return sum(terms), abs(v) * 4.0 + quad_err
        else:
            quiet = 0
        if k >= 9 and k % 2 == 1:
            est, err = _euler_accelerate(terms)
            if err + quad_err < tol / 4.0:
                return est, err + quad_err
        if k % 16 == 15:
            nu = _local_frequency(env, s0, nu_max)
            delta = min(0.5 / max(nu, 1e-300), 8.0 * s0)
    est, err = _euler_accelerate(terms)
    return est, err + quad_err


def fourier_ccdf(c, l_int, f_h, tol=1e-4, max_panels=44, drift_hint=0.0):
    """2 * Int_0^inf Re{exp(-2 pi j c s) l_int(s) f_h(s) / (2 pi j s)} ds.

    l_int and f_h are vectorized over real s > 0.  drift_hint bounds the
    phase drift of l_int (its interference mean times the argument scale).
    Geometric panels with two-level Gauss-Legendre error control cover the
    transform's decaying head; once the local oscillation outpaces the
    panel width the remaining conditionally-convergent tail is summed by
    half-period panels with iterated-average extrapolation.
    """

    def env(s):
        return np.exp(-2j * math.pi * c * s) * np.asarray(l_int(s))

    def vals(s):
        return np.real(env(s) * f_h(s) / (2j * math.pi * s))

    nu_max = c + drift_hint
    h = 1.0 / (2.0 * math.pi * max(1.0, nu_max))
    panels = []
    a, b = 0.0, h
    quiet = 0
    tail_start = None
    for k in range(max_panels):
        v32 = _panel_value(vals, a, b, 32)
        v16 = _panel_value(vals, a, b, 16)
        panels.append([a, b, v32, abs(v32 - v16)])
        if abs(v32) + abs(v32 - v16) < tol / 16.0:
            # a small panel value alone is not enough: a slowly decaying
            # positive tail spread over doubling widths still carries mass,
            # so also require the envelope magnitude bound to be negligible
            mag = abs(env(np.array([b]))[0] * f_h(np.array([b]))[0]) \
                / (2.0 * math.pi * b)
            if mag * b * 6.0 < tol / 8.0:
                quiet += 1
                if quiet >= 2 and len(panels) >= 6:
                    break
            else:
                quiet = 0
        else:
            quiet = 0
        if k >= 1 and _local_frequency(env, b, nu_max) * b > 0.6:
            # oscillation outpaces geometric panels; hand off to the tail
            tail_start = b
            break
        a, b = b, b + 2.0 * (b - a)
    else:
        tail_start = b

    for _ in range(60):
        err = sum(p[3] for p in panels)
        if err <= tol / 2.0:
            break
        worst = max(range(len(panels)), key=lambda i: panels[i][3])
        pa, pb, _, _ = panels[worst]
        mid = 0.5 * (pa + pb)
        repl = []
        for qa, qb in ((pa, mid), (mid, pb)):
            v32 = _panel_value(vals, qa, qb, 32)
            v16 = _panel_value(vals, qa, qb, 16)
            repl.append([qa, qb, v32, abs(v32 - v16)])
        panels[worst:worst + 1] = repl

    err = sum(p[3] for p in panels)
    total = sum(p[2] for p in panels)
    if tail_start is not None:
        tail, terr = _oscillatory_tail(vals, env, tail_start, nu_max, tol)
        total += tail
        err += terr
    if err * 2.0 > tol * 4.0:
        raise QuadratureError(
            f"inner Fourier integral stalled: est error {2 * err:.2e} > target {tol:.2e}",
            estimate=2.0 * total, error=2.0 * err)
    return 2.0 * total, 2.0 * err


# ---------------------------------------------------------------------------
# Coverage and rate bounds, unconstrained antenna growth
# ---------------------------------------------------------------------------

def _require_follow(cfg):
    if not isinstance(cfg.antenna_mode, geometry.FollowN):
        raise DomainError("this bound needs antenna_mode = FollowN(d_nt)")
    return cfg.antenna_mode.d_nt


def _make_lout_mixture(scale, r_excl, weights, lambda_b, alpha):
    """Weighted mixture of exclusion-ball Laplace transforms, evaluated for
    all exclusion radii at once: sum_v w_v L_{r_v}(j * scale * s)."""
    r_excl = np.asarray(r_excl, dtype=float)[:, None]
    weights = np.asarray(weights, dtype=float)

    def l_int(s):
        sigma = 1j * scale * np.asarray(s)[None, :]
        u0 = 1.0 + r_excl
        z = -(u0 ** (-alpha)) * sigma
        f1 = specfun.hyp2f1_a1(1.0 - 2.0 / alpha, z)
        f2 = specfun.hyp2f1_a1(1.0 - 1.0 / alpha, z)
        expo = (sigma * u0 ** (2.0 - alpha) / (alpha - 2.0) * f1
                - sigma * u0 ** (1.0 - alpha) / (alpha - 1.0) * f2)
        return weights @ np.exp(-2.0 * math.pi * lambda_b * expo)

    return l_int


def _coverage_lb_ic_err(cfg, t, n_r0=20, n_rm=14, inner_tol=1e-4):
    d = _require_follow(cfg)
    if d < 1:
        raise DomainError("d_nt must be >= 1")
    if t <= 0.0:
        raise DomainError("threshold must be positive")
    r0s, w0 = _r0_nodes(cfg.lambda_b, n_r0)
    total = 0.0
    err = 0.0

    def f_h(s):
        return (1.0 / (1.0 - 2j * math.pi * s)) ** d - 1.0

    for r0, wu in zip(r0s, w0):
        big_l = float((1.0 + r0) ** cfg.alpha)
        c = t * big_l * cfg.inv_snr
        rms, wv = _rm_nodes_conditional(r0, cfg.lambda_c, n_rm)
        l_int = _make_lout_mixture(2.0 * math.pi * t * big_l, rms, wv,
                                   cfg.lambda_b, cfg.alpha)
        drift = t * big_l * mean_tail_interference(
            float(rms.min()), cfg.lambda_b, cfg.alpha)
        val, e = fourier_ccdf(c, l_int, f_h, tol=inner_tol, drift_hint=drift)
        total += wu * val
        err += wu * e
    return min(max(total, 0.0), 1.0), err


def coverage_lb_ic(cfg, t, n_r0=20, n_rm=14, inner_tol=1e-4):
    """Lower bound on coverage with per-cluster nulling at linear threshold t."""
    val, _ = _coverage_lb_ic_err(cfg, t, n_r0, n_rm, inner_tol)
    return val


def _rate_from_coverage(pc, panel=0.7, t_max=16.0, nodes=6, cutoff=1e-4):
    """tau = Int_0^inf pc(e^t - 1) dt / ln 2, truncated where pc < cutoff."""
    x, w = _gl_raw(nodes)
    total = 0.0
    t0 = 0.0
    while t0 < t_max:
        ts = 0.5 * panel * x + t0 + 0.5 * panel
        ps = [pc(math.expm1(t)) for t in ts]
        total += 0.5 * panel * float(np.dot(w, ps))
        if ps[-1] < cutoff:
            break
        t0 += panel
    return total / math.log(2.0)


def rate_lb_ic(cfg, n_r0=16, n_rm=10, inner_tol=3e-4):
    """Lower bound on the average rate (bits/s/Hz) with per-cluster nulling."""
    return _rate_from_coverage(
        lambda v: coverage_lb_ic(cfg, v, n_r0, n_rm, inner_tol) if v > 0 else 1.0)


# ---------------------------------------------------------------------------
# Inter-cluster interference moments and the Gamma fit
# ---------------------------------------------------------------------------

def iout_moments(lambda_b, lambda_c, alpha, n_r0=32, n_rm=32):
    """(mean, var) of the inter-cluster interference with the inscribed-disk
    exclusion max(r_m - r0, 0), averaged over (r0, r_m | r_m > r0)."""
    if alpha <= 2.0:
        raise DomainError("alpha must exceed 2")
    r0s, w0 = _r0_nodes(lambda_b, n_r0)
    mean = 0.0
    var = 0.0
    for r0, wu in zip(r0s, w0):
        rms, wv = _rm_nodes_conditional(r0, lambda_c, n_rm)
        d = np.maximum(rms - r0, 0.0)
        mean += wu * float(np.dot(wv, mean_tail_interference(d, lambda_b, alpha)))
        var += wu * float(np.dot(wv, _var_kernel(d, lambda_b, alpha)))
    return mean, var


def gamma_fit(mean, var):
    if mean <= 0.0 or var <= 0.0:
        raise DomainError("moment matching needs positive mean and variance")
    return GammaFit(k=mean * mean / var, theta=var / mean)


@lru_cache(maxsize=32)
def _cached_iout_fit(lambda_b, lambda_c, alpha):
    mean, var = iout_moments(lambda_b, lambda_c, alpha)
    return mean, gamma_fit(mean, var)


def expected_iout(lambda_b, lambda_c, alpha):
    return _cached_iout_fit(lambda_b, lambda_c, alpha)[0]


def iout_gamma_fit(lambda_b, lambda_c, alpha):
    return _cached_iout_fit(lambda_b, lambda_c, alpha)[1]


def expected_log2_iout(fit):
    """High-INR form E{log2 I_out} = psi(k)/ln 2 + log2 theta."""
    return specfun.digamma(fit.k) / math.log(2.0) + math.log2(fit.theta)


def expected_log2_gamma_plus(fit, c, nodes=96):
    """E{log2(X + c)} for X ~ Gamma(k, theta) by CDF-mapped quadrature."""
    u, w = _gl01(nodes)
    x = fit.theta * special.gammaincinv(fit.k, u)
    return float(np.dot(w, np.log2(x + c)))


# ---------------------------------------------------------------------------
# Rate-loss bounds under limited feedback
# ---------------------------------------------------------------------------

def expected_nearest_pathloss(lambda_b, alpha, n_r0=32, n_r=32):
    """E{(1+r_{0,1})^-alpha} for the nearest interferer beyond the serving
    distance: Rayleigh nearest-point density conditioned on r > r0."""
    r0s, w0 = _r0_nodes(lambda_b, n_r0)
    t, wt = _gl01(n_r)
    total = 0.0
    for r0, wu in zip(r0s, w0):
        r = np.sqrt(r0 * r0 - np.log(t) / (math.pi * lambda_b))
        total += wu * float(np.dot(wt, (1.0 + r) ** (-alpha)))
    return total


def rate_loss_ub_equal(cfg, bias=True):
    """Mean rate-loss upper bound with (near-)equal bit allocation.

    Term by term: RVQ loss of the desired channel, the digamma/Gamma-fit
    log-interference term, and the residual-plus-floor log term with the
    nearest-interferer path-loss factor.
    """
    d = _require_follow(cfg)
    b_tot = cfg.b_tot
    weights = pmf_weights(cfg.ratio)
    fit = iout_gamma_fit(cfg.lambda_b, cfg.lambda_c, cfg.alpha)
    e_near = expected_nearest_pathloss(cfg.lambda_b, cfg.alpha)

    term_des = 0.0
    term_res = 0.0
    for n, p in enumerate(weights):
        n_t = n + d
        share = b_tot // (n + 1)
        b0 = b_tot - n * share if bias else share
        if n_t > 1:
            g1 = math.exp(specfun.ln_gamma(n_t / (n_t - 1.0)))
            term_des += p * g1 * 2.0 ** (-b0 / (n_t - 1.0))
            term_res += p * n * feedback.rvq_mean_interference_stirling(n_t, share)
    return (_LOG2E * term_des
            - expected_log2_iout(fit)
            + math.log2(cfg.inv_snr + fit.mean + term_res * e_near))


def rate_loss_adaptive_realization(n, r_intra, cfg, fit=None, e_iout=None,
                                   b_tot=None, e_log=None):
    """Per-realization rate-loss bound at the adaptive integer allocation
    of b_tot bits (default cfg.b_tot).

    Returns (loss, allocation).  The low-/high-SNR form is selected by the
    allocation's regime flag.  `e_log` is E{log2(I_out + 1/SNR)} under the
    Gamma fit; callers looping over realizations pass it precomputed.
    """
    d = _require_follow(cfg)
    n_t = n + d
    b_tot = cfg.b_tot if b_tot is None else b_tot
    if e_iout is None:
        e_iout = expected_iout(cfg.lambda_b, cfg.lambda_c, cfg.alpha)
    if e_log is None:
        if fit is None:
            fit = iout_gamma_fit(cfg.lambda_b, cfg.lambda_c, cfg.alpha)
        e_log = expected_log2_gamma_plus(fit, cfg.inv_snr)
    alloc = feedback.adaptive_allocation(
        r_intra, b_tot, n_t, cfg.alpha, e_iout, cfg.inv_snr)
    floor = e_iout + cfg.inv_snr

    if n_t <= 1:
        return 0.0, alloc
    g1 = math.exp(specfun.ln_gamma(n_t / (n_t - 1.0)))
    g2 = math.exp(specfun.ln_gamma((2.0 * n_t - 1.0) / (n_t - 1.0)))
    loss = _LOG2E * g1 * 2.0 ** (-alloc.b0 / (n_t - 1.0)) - e_log

    kset = alloc.effective_set
    k = len(kset)
    if k == 0:
        return loss + math.log2(floor), alloc
    gm = float(np.prod((1.0 + np.asarray(r_intra)[kset]) ** (-cfg.alpha / k)))
    if alloc.regime is feedback.Regime.DOMINANT_RESIDUAL:
        loss += (math.log2(g2 * k * gm)
                 + (alloc.b0 - b_tot) / (k * (n_t - 1.0)))
    else:
        b_i = b_tot - alloc.b0
        loss += (math.log2(floor)
                 + _LOG2E * g2 / floor * k * 2.0 ** (-b_i / (k * (n_t - 1.0))) * gm)
    return loss, alloc


def rate_loss_ub_adaptive(cfg, geometry_trials=2000, seed=None, b_tots=None):
    """Network-average adaptive rate-loss bound: Monte Carlo over deployment
    geometry with analytical channel terms.

    Returns the bound at cfg.b_tot, or, given a sequence `b_tots`, a list
    with the bound at each budget.  The geometry stream (seed, 104729, i)
    does not depend on the budget, so one set of draws serves the grid.
    """
    _require_follow(cfg)
    budgets = [cfg.b_tot] if b_tots is None else [int(b) for b in b_tots]
    e_iout = expected_iout(cfg.lambda_b, cfg.lambda_c, cfg.alpha)
    fit = iout_gamma_fit(cfg.lambda_b, cfg.lambda_c, cfg.alpha)
    e_log = expected_log2_gamma_plus(fit, cfg.inv_snr)
    seed = cfg.seed if seed is None else seed
    totals = [0.0] * len(budgets)
    for i in range(geometry_trials):
        rng = np.random.default_rng((seed, 104729, i))
        _, cluster, _ = geometry.sample_typical_cluster(cfg, rng)
        for k, b_tot in enumerate(budgets):
            loss, _ = rate_loss_adaptive_realization(
                cluster.n_interferers, cluster.intra_dist, cfg,
                e_iout=e_iout, b_tot=b_tot, e_log=e_log)
            totals[k] += loss
    means = [total / geometry_trials for total in totals]
    return means[0] if b_tots is None else means


# ---------------------------------------------------------------------------
# Fixed-antenna thresholding bound
# ---------------------------------------------------------------------------

def _coverage_lb_thresholded_err(cfg, t, n_r0=16, n_rm=10, n_rM=10,
                                 inner_tol=2e-4):
    if not isinstance(cfg.antenna_mode, geometry.FixedNt):
        raise DomainError("thresholded bound needs antenna_mode = FixedNt(n_t)")
    n_t = cfg.antenna_mode.n_t
    if n_t < 2:
        raise DomainError("n_t must be >= 2")
    if t <= 0.0:
        raise DomainError("threshold must be positive")
    weights = pmf_weights(cfg.ratio)
    n_max = len(weights) - 1

    total = 0.0
    err = 0.0

    # --- nulling branch: N < n_t, desired power Gamma(n_t - N, 1)
    w_ic = weights[: min(n_t, n_max + 1)]
    if w_ic.sum() > 1e-12:
        r0s, w0 = _r0_nodes(cfg.lambda_b, n_r0)
        powers = n_t - np.arange(len(w_ic))

        def f_h_sum(s):
            inv = 1.0 / (1.0 - 2j * math.pi * s)
            acc = np.zeros_like(s, dtype=complex)
            for p, dnt in zip(w_ic, powers):
                acc += p * (inv ** float(dnt) - 1.0)
            return acc

        for r0, wu in zip(r0s, w0):
            big_l = float((1.0 + r0) ** cfg.alpha)
            c = t * big_l * cfg.inv_snr
            rms, wv = _rm_nodes_conditional(r0, cfg.lambda_c, n_rm)
            l_int = _make_lout_mixture(2.0 * math.pi * t * big_l, rms, wv,
                                       cfg.lambda_b, cfg.alpha)
            drift = t * big_l * mean_tail_interference(
                float(rms.min()), cfg.lambda_b, cfg.alpha)
            val, e = fourier_ccdf(c, l_int, f_h_sum, tol=inner_tol,
                                  drift_hint=drift)
            total += wu * val
            err += wu * e

    # --- single-cell branch: N >= n_t, desired power Gamma(n_t, 1),
    #     intra interference from a binomial process on the annulus [r0, r_M]
    w_nic = weights[n_t:]
    if len(w_nic) > 0 and w_nic.sum() > 1e-10:
        r0s, w0 = _r0_nodes(cfg.lambda_b, n_r0)
        c = cfg.inv_snr
        ns = np.arange(n_t, n_t + len(w_nic))
        for r0, wu in zip(r0s, w0):
            big_l = float((1.0 + r0) ** cfg.alpha)
            tl = t * big_l

            def f_h(s, _tl=tl):
                return (1.0 / (1.0 - 2j * math.pi * s / _tl)) ** float(n_t) - 1.0

            rms, wv = _rm_nodes_conditional(r0, cfg.lambda_c, n_rm)
            rMs, ww = _rM_nodes_conditional(r0, cfg.lambda_c, n_rM)
            l_out_mix = _make_lout_mixture(2.0 * math.pi, rms, wv,
                                           cfg.lambda_b, cfg.alpha)

            def l_int(s, _r0=r0, _rMs=rMs, _ww=ww, _mix=l_out_mix):
                sig = 2j * math.pi * np.asarray(s)[None, :]
                z = annulus_point_laplace(sig, _r0, _rMs[:, None], cfg.alpha)
                zp = z ** n_t
                acc = np.zeros_like(z)
                for wgt in w_nic:
                    acc += wgt * zp
                    zp = zp * z
                return _mix(s) * (_ww @ acc)

            m_pt = ((mean_tail_interference(r0, 1.0, cfg.alpha)
                     - mean_tail_interference(float(rMs.max()), 1.0, cfg.alpha))
                    / (math.pi * max(float(rMs.min()) ** 2 - r0 ** 2, 1e-12)))
            drift = mean_tail_interference(float(rms.min()), cfg.lambda_b,
                                           cfg.alpha) + ns[-1] * m_pt
            val, e = fourier_ccdf(c, l_int, f_h, tol=inner_tol,
                                  drift_hint=drift)
            total += wu * val
            err += wu * e

    return min(max(total, 0.0), 1.0), err


def coverage_lb_thresholded(cfg, t, n_r0=16, n_rm=10, n_rM=10, inner_tol=2e-4):
    """Coverage lower bound under the fixed-n_t thresholding policy:
    nulling when N < n_t plus single-cell beamforming when N >= n_t."""
    val, _ = _coverage_lb_thresholded_err(cfg, t, n_r0, n_rm, n_rM, inner_tol)
    return val


def rate_lb_thresholded(cfg, n_r0=12, n_rm=8, n_rM=8, inner_tol=5e-4):
    return _rate_from_coverage(
        lambda v: coverage_lb_thresholded(cfg, v, n_r0, n_rm, n_rM, inner_tol)
        if v > 0 else 1.0)


# ---------------------------------------------------------------------------
# Sweep helpers returning BoundCurve
# ---------------------------------------------------------------------------

def coverage_curve(cfg, t_db_grid):
    """Analytic coverage bound over a dB threshold grid (mode-dispatched)."""
    xs = np.asarray(t_db_grid, dtype=float)
    ys = np.empty_like(xs)
    errs = np.empty_like(xs)
    for i, t_db in enumerate(xs):
        t = 10.0 ** (t_db / 10.0)
        if isinstance(cfg.antenna_mode, geometry.FollowN):
            ys[i], errs[i] = _coverage_lb_ic_err(cfg, t)
        else:
            ys[i], errs[i] = _coverage_lb_thresholded_err(cfg, t)
    return BoundCurve(x=xs, y=ys, kind=CurveKind.COVERAGE_LB, quadrature_error=errs)
