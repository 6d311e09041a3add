"""Closed-form quantities: interferer-count PMF, interference Laplace
transforms, coverage/rate lower bounds, Gamma moment matching, and the
mean rate-loss bounds for equal and adaptive feedback allocation.

Every coverage and rate bound runs on one real-axis engine.  Desired
power after nulling is Gamma(n), so at s = t L

    P(H > s Y) = sum_{k<n} [u^k] E exp(-s (1 - u) Y),

and the coefficients come from a lower-triangular Toeplitz recursion on
the log-series of the interference transform (C. Li, J. Zhang and
K. B. Letaief, IEEE Trans. Wireless Commun. 2014).  Its inputs are real
Gauss hypergeometric values: the exclusion kernel A(x, s) and the
moments J_m(x, s).  Rate bounds use Hamdi's lemma (IEEE Trans. Commun.
2010), E ln(1 + H/Y) = Int_0^inf (1 - E e^{-zH}) E e^{-zY} dz / z, on a
uniform grid in ln z.

The engine runs inside quadrature over the deployment radii.  The radius
densities are integrated by mapping each through its own CDF, so the
outer quadratures run on the unit square/cube with smooth integrands.
The reported error covers the inner per-node evaluation only (a round-off
bound); the outer radius quadrature's error is not included.
"""

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import optimize, special

from . import feedback, geometry, specfun
from .errors import DomainError

_LOG2E = math.log2(math.e)
_W_MAX = float(np.nextafter(1.0, 0.0))


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
    """A(x, s) = Int_x^inf q r dr, q = s g / (1 + s g), g = (1+r)^-alpha
    (unit density), by its two-2F1 closed form; real s >= 0 and x
    broadcast against each other."""
    s = np.asarray(s, dtype=float)
    u0 = 1.0 + np.asarray(x, dtype=float)
    z = -(u0 ** (-alpha)) * s
    f1 = special.hyp2f1(1.0, 1.0 - 2.0 / alpha, 2.0 - 2.0 / alpha, z)
    f2 = special.hyp2f1(1.0, 1.0 - 1.0 / alpha, 2.0 - 1.0 / alpha, z)
    return (s * u0 ** (2.0 - alpha) / (alpha - 2.0) * f1
            - s * u0 ** (1.0 - alpha) / (alpha - 1.0) * f2)


def _excl_moments(x, s, alpha, n):
    """J_m(x, s) = Int_x^inf q^m (1-q) r dr for m = 1..n-1 on a new last axis.

    Pfaff form in w = q at r = x, which stays finite for m up to 64:

        w^m (1-w) [v0^2/(alpha m - 2) 2F1(m+1, 1; m+1-2/alpha; w)
                   - v0/(alpha m - 1) 2F1(m+1, 1; m+1-1/alpha; w)],  v0 = 1+x.
    """
    x, s = np.broadcast_arrays(np.asarray(x, dtype=float),
                               np.asarray(s, dtype=float))
    v0 = 1.0 + x[..., None]
    g = s[..., None] * v0 ** (-alpha)
    w = np.minimum(g / (1.0 + g), _W_MAX)
    m = np.arange(1.0, n)
    return w ** m * (1.0 - w) * (
        v0 * v0 / (alpha * m - 2.0)
        * special.hyp2f1(m + 1.0, 1.0, m + 1.0 - 2.0 / alpha, w)
        - v0 / (alpha * m - 1.0)
        * special.hyp2f1(m + 1.0, 1.0, m + 1.0 - 1.0 / alpha, w))


def laplace_interference_outside(s, r_excl, lambda_b, alpha):
    """Laplace transform of the shot-noise interference outside radius r_excl."""
    if r_excl < 0.0:
        raise DomainError("r_excl must be >= 0")
    if alpha <= 2.0:
        raise DomainError("alpha must exceed 2")
    val = np.exp(-2.0 * math.pi * lambda_b * _excl_kernel(r_excl, s, alpha))
    return float(val) if np.isscalar(s) else val


def annulus_point_laplace(s, r0, r_big, alpha):
    """Per-point Laplace transform of one interferer uniform on the annulus
    [r0, r_big] with Exp(1) fading; the binomial intra-cluster transform is
    this value raised to the interferer count.  r0 and r_big may broadcast
    against s, but r_big must exceed r0 everywhere."""
    r0 = np.asarray(r0, dtype=float)
    r_big = np.asarray(r_big, dtype=float)
    if np.any(r_big <= r0):
        raise DomainError("annulus needs r_big > r0")
    num = _excl_kernel(r0, s, alpha) - _excl_kernel(r_big, s, alpha)
    return 1.0 - 2.0 * num / (r_big * r_big - r0 * r0)


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
# Real-axis series engine
# ---------------------------------------------------------------------------
#
# With Gamma(n) desired power H and interference-plus-noise Y,
#
#     P(H > s Y) = sum_{k<n} p_k,    p_k = [u^k] E exp(-s (1 - u) Y) >= 0.
#
# The log of E exp(-s (1 - u) Y) is a power series in u: shot noise of
# density lambda outside x adds -2 pi lambda A(x, s) to its constant term
# and 2 pi lambda J_m(x, s) to the u^m term, and the noise adds
# -s sigma^2 (1 - u).  A binomial annulus enters as its per-point series
# raised to the point count.  Every coefficient past the constant term is
# non-negative, so nothing cancels.

# Relative error allowed for one kernel value A or J_m.  scipy's real 2F1
# agrees with 40-digit quadrature within 4e-13 while s (1+x)^-alpha <= 1e4.
_KERNEL_REL_ERR = 1e-12
_EPS = float(np.finfo(float).eps)

# Rate integrals run on a uniform grid in ln z.  The integrand is analytic
# for |Im ln z| < pi/2, so the trapezoid error is about exp(-pi^2 / step).
# Below the start the integrand is at most n z for Gamma(n) desired power,
# under 4e-17 in total for n <= 64.
_LOG_Z_STEP = 0.25
_LOG_Z_START = -42.0
_LOG_Z_CHUNK = 48


def _outer_log_series(s, r_excl, cfg, n):
    """Log-series b_0..b_{n-1} (last axis) of u -> E exp(-s (1-u) (I + 1/SNR))
    for shot noise I of density lambda_b outside r_excl."""
    s, r_excl = np.broadcast_arrays(np.asarray(s, dtype=float),
                                    np.asarray(r_excl, dtype=float))
    scale = 2.0 * math.pi * cfg.lambda_b
    noise = s * cfg.inv_snr
    b = np.empty(s.shape + (n,))
    b[..., 0] = -scale * _excl_kernel(r_excl, s, cfg.alpha) - noise
    if n > 1:
        b[..., 1:] = scale * _excl_moments(r_excl, s, cfg.alpha, n)
        b[..., 1] += noise
    return b


def _exp_series(b):
    """Coefficients of exp(sum_m b_m u^m), b on the last axis:
    p_0 = e^{b_0} and k p_k = sum_{m=1..k} m b_m p_{k-m}."""
    n = b.shape[-1]
    mb = b * np.arange(n)
    p = np.empty_like(b)
    p[..., 0] = np.exp(b[..., 0])
    for k in range(1, n):
        p[..., k] = np.einsum("...i,...i->...", mb[..., 1:k + 1],
                              p[..., k - 1::-1]) / k
    return p


def _annulus_series(s, r0, r_big, alpha, n):
    """Series c_0..c_{n-1} of u -> the per-point transform at s (1-u) of one
    interferer uniform on the annulus [r0, r_big]."""
    s, r0, r_big = np.broadcast_arrays(np.asarray(s, dtype=float),
                                       np.asarray(r0, dtype=float),
                                       np.asarray(r_big, dtype=float))
    c = np.empty(s.shape + (n,))
    c[..., 0] = annulus_point_laplace(s, r0, r_big, alpha)
    if n > 1:
        c[..., 1:] = 2.0 * (_excl_moments(r0, s, alpha, n)
                            - _excl_moments(r_big, s, alpha, n)) \
            / (r_big * r_big - r0 * r0)[..., None]
    return c


def _power_mixture(c, weights, first):
    """sum_j weights[j] C(u)^(first + j), truncated to the length of C.

    Successive truncated products give every power the mixture needs in
    one pass, and every term they add is non-negative.
    """
    k = np.arange(c.shape[-1])
    lag = k[:, None] - k[None, :]
    toeplitz = np.where(lag >= 0, c[..., np.maximum(lag, 0)], 0.0)
    power = np.zeros_like(c)
    power[..., 0] = 1.0
    for _ in range(first):
        power = np.einsum("...ij,...j->...i", toeplitz, power)
    acc = weights[0] * power
    for w in weights[1:]:
        power = np.einsum("...ij,...j->...i", toeplitz, power)
        acc += w * power
    return acc


def _ccdf_of_product(outer, inner):
    """sum_{k<n} [u^k] outer(u) inner(u) for n-term series on the last axis."""
    return (outer * np.cumsum(inner, axis=-1)[..., ::-1]).sum(axis=-1)


def _roundoff(terms, b0, n):
    """Round-off bound of non-negative series terms, each e^{b0} times a
    polynomial of degree < n in kernel values formed in about 2n + 1
    floating-point operations."""
    return terms * ((np.abs(b0) + n) * _KERNEL_REL_ERR + (2 * n + 1) * _EPS)


def _gamma_gain(z, n):
    """1 - E exp(-z H) = 1 - (1+z)^-n for H ~ Gamma(n, 1)."""
    return -np.expm1(-n * np.log1p(z))


def _log_z_integral(f):
    """Int_0^inf f(z) dz / z by the trapezoid rule in ln z.

    f(z) must be O(z) at 0 and, past z = 1, bounded by a transform that
    decreases to 0.  Chunks are added until f has fallen below 1e-18 at
    some z >= 1.
    """
    total = 0.0
    x0 = _LOG_Z_START
    while x0 < 600.0:
        x = x0 + _LOG_Z_STEP * np.arange(_LOG_Z_CHUNK)
        v = f(np.exp(x))
        total += float(v.sum())
        if x[-1] >= 0.0 and v[-1] < 1e-18:
            break
        x0 = x[-1] + _LOG_Z_STEP
    return total * _LOG_Z_STEP


# ---------------------------------------------------------------------------
# Coverage and rate bounds, unconstrained antenna growth
# ---------------------------------------------------------------------------

def _require_follow(cfg):
    if not isinstance(cfg.antenna_mode, geometry.FollowN):
        raise DomainError("this bound needs antenna_mode = FollowN(d_nt)")
    return cfg.antenna_mode.d_nt


def _nulling_nodes(cfg, n_r0, n_rm):
    """Serving-distance nodes r0 (n_r0,) with weights, and the conditional
    inscribed-radius nodes r_m (n_r0, n_rm) with their shared weights."""
    r0s, w0 = _r0_nodes(cfg.lambda_b, n_r0)
    rms, wv = _rm_nodes_conditional(r0s[:, None], cfg.lambda_c, n_rm)
    return r0s, w0, rms, wv


def _coverage_lb_ic_err(cfg, t, n_r0=20, n_rm=14):
    d = _require_follow(cfg)
    if d < 1:
        raise DomainError("d_nt must be >= 1")
    if t <= 0.0:
        raise DomainError("threshold must be positive")
    r0s, w0, rms, wv = _nulling_nodes(cfg, n_r0, n_rm)
    s = t * (1.0 + r0s[:, None]) ** cfg.alpha
    b = _outer_log_series(s, rms, cfg, d)
    p = _exp_series(b)
    wgt = np.outer(w0, wv)
    total = float(np.sum(wgt * p.sum(axis=-1)))
    err = float(np.sum(wgt * _roundoff(p, b[..., :1], d).sum(axis=-1))) + _EPS
    return min(max(total, 0.0), 1.0), err


def coverage_lb_ic(cfg, t, n_r0=20, n_rm=14):
    """Lower bound on coverage with per-cluster nulling at linear threshold t."""
    val, _ = _coverage_lb_ic_err(cfg, t, n_r0, n_rm)
    return val


def _outer_laplace(s, rms, wv, cfg):
    """E exp(-s (I + 1/SNR)) averaged over the r_m nodes (last axis)."""
    return np.exp(_outer_log_series(s[..., None], rms, cfg, 1)[..., 0]) @ wv


def rate_lb_ic(cfg, n_r0=16, n_rm=10):
    """Lower bound on the average rate (bits/s/Hz) with per-cluster nulling.

    E ln(1 + H/Y) = Int_0^inf (1 - (1+z)^-d) E exp(-z Y) dz / z (Hamdi's
    lemma) with Y = L (I + 1/SNR), on the coverage bound's radius nodes.
    """
    d = _require_follow(cfg)
    if d < 1:
        raise DomainError("d_nt must be >= 1")
    r0s, w0, rms, wv = _nulling_nodes(cfg, n_r0, n_rm)
    big_l = (1.0 + r0s) ** cfg.alpha

    def integrand(z):
        m_y = _outer_laplace(z[:, None] * big_l, rms, wv, cfg)
        return _gamma_gain(z, d) * (m_y @ w0)

    return _LOG2E * _log_z_integral(integrand)


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

def _require_fixed(cfg):
    if not isinstance(cfg.antenna_mode, geometry.FixedNt):
        raise DomainError("thresholded bound needs antenna_mode = FixedNt(n_t)")
    n_t = cfg.antenna_mode.n_t
    if n_t < 2:
        raise DomainError("n_t must be >= 2")
    return n_t


def _threshold_weights(cfg, n_t):
    """Interferer-count weights of the nulling branch (N < n_t, padded to
    n_t entries) and of the single-cell branch (N >= n_t); a branch whose
    mass is negligible gets None."""
    weights = pmf_weights(cfg.ratio)
    w_ic = np.zeros(n_t)
    w_ic[: min(n_t, len(weights))] = weights[:n_t]
    w_nic = weights[n_t:]
    return (w_ic if w_ic.sum() > 1e-12 else None,
            w_nic if w_nic.sum() > 1e-10 else None)


def _rM_grid(r0s, lambda_c, n):
    """Circumscribed-radius nodes (n_r0, n) for every r0 node, and weights."""
    rows = [_rM_nodes_conditional(r0, lambda_c, n)[0] for r0 in r0s]
    return np.array(rows), _gl01(n)[1]


def _coverage_lb_thresholded_err(cfg, t, n_r0=16, n_rm=10, n_rM=10):
    n_t = _require_fixed(cfg)
    if t <= 0.0:
        raise DomainError("threshold must be positive")
    w_ic, w_nic = _threshold_weights(cfg, n_t)
    r0s, w0, rms, wv = _nulling_nodes(cfg, n_r0, n_rm)
    s = t * (1.0 + r0s) ** cfg.alpha
    b = _outer_log_series(s[:, None], rms, cfg, n_t)
    p = _exp_series(b)
    outer = np.einsum("ijk,j->ik", p, wv)
    outer_err = np.einsum("ijk,j->ik", _roundoff(p, b[..., :1], n_t), wv)
    total = 0.0
    err = _EPS

    # nulling branch: N < n_t, desired power Gamma(n_t - N, 1)
    if w_ic is not None:
        below = np.cumsum(w_ic)[::-1]          # P[N < n_t - k]
        total += float(w0 @ (outer @ below))
        err += float(w0 @ (outer_err @ below))

    # single-cell branch: N >= n_t, desired power Gamma(n_t, 1), plus the
    # N intra-cluster interferers uniform on the annulus [r0, r_M]
    if w_nic is not None:
        rMs, ww = _rM_grid(r0s, cfg.lambda_c, n_rM)
        c = _annulus_series(s[:, None], r0s[:, None], rMs, cfg.alpha, n_t)
        intra = np.einsum("ijk,j->ik", _power_mixture(c, w_nic, n_t), ww)
        single = _ccdf_of_product(outer, intra)
        total += float(w0 @ single)
        err += float(w0 @ (_ccdf_of_product(outer_err, intra)
                           + single * (n_t + len(w_nic)) * _KERNEL_REL_ERR))

    return min(max(total, 0.0), 1.0), err


def coverage_lb_thresholded(cfg, t, n_r0=16, n_rm=10, n_rM=10):
    """Coverage lower bound under the fixed-n_t thresholding policy:
    nulling when N < n_t plus single-cell beamforming when N >= n_t."""
    val, _ = _coverage_lb_thresholded_err(cfg, t, n_r0, n_rm, n_rM)
    return val


def rate_lb_thresholded(cfg, n_r0=12, n_rm=8, n_rM=8):
    """Average-rate lower bound under the thresholding policy, by Hamdi's
    lemma on the same branches as `coverage_lb_thresholded`."""
    n_t = _require_fixed(cfg)
    w_ic, w_nic = _threshold_weights(cfg, n_t)
    r0s, w0, rms, wv = _nulling_nodes(cfg, n_r0, n_rm)
    big_l = (1.0 + r0s) ** cfg.alpha
    if w_nic is not None:
        rMs, ww = _rM_grid(r0s, cfg.lambda_c, n_rM)

    def integrand(z):
        s = z[:, None] * big_l
        m_out = _outer_laplace(s, rms, wv, cfg)
        acc = np.zeros_like(s)
        if w_ic is not None:
            gain = sum(w * _gamma_gain(z, n_t - n) for n, w in enumerate(w_ic))
            acc += gain[:, None] * m_out
        if w_nic is not None:
            c0 = annulus_point_laplace(s[..., None], r0s[:, None], rMs, cfg.alpha)
            intra = (c0 ** n_t * np.polynomial.polynomial.polyval(c0, w_nic)) @ ww
            acc += _gamma_gain(z, n_t)[:, None] * m_out * intra
        return acc @ w0

    return _LOG2E * _log_z_integral(integrand)


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
