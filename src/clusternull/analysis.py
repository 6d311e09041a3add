"""Closed-form quantities: interferer-count PMF, interference Laplace
transforms, coverage/rate lower bounds, and the mean rate-loss bounds for
equal and adaptive feedback allocation.

Every coverage and rate bound runs on one real-axis engine.  Desired
power after nulling is Gamma(n), so at s = t L

    P(H > s Y) = sum_{k<n} [u^k] E exp(-s (1 - u) Y),

and the coefficients come from a lower-triangular Toeplitz recursion on
the log-series of the interference transform (C. Li, J. Zhang and
K. B. Letaief, IEEE Trans. Wireless Commun. 2014).  Its inputs are real
Gauss hypergeometric values: the exclusion kernel A(x, s) and the
moments J_m(x, s).  Rate bounds use Hamdi's lemma (IEEE Trans. Commun.
2010), E ln(1 + H/Y) = Int_0^inf (1 - E e^{-zH}) E e^{-zY} dz / z, on a
uniform grid in ln z.  The rate-loss bounds read E log2(I_out + c) from
the same transform by the log-moment identity
E ln Y = Int_0^inf (e^{-z} - E e^{-zY}) dz / z, on the same grid.

One coverage bound and one rate bound serve both antenna modes.  The
mode enters only through the law of the desired-power order: FollowN(d)
nulls with order d, and FixedNt(n_t) nulls with order n_t - N when N <
n_t and otherwise beamforms single-cell against the N intra-cluster
interferers, so its nulling branch is the follow-N bound mixed over N.

The engine runs inside quadrature over the deployment radii.  The radius
densities are integrated by mapping each through its own CDF, so the
outer quadratures run on the unit square/cube with smooth integrands.
The reported error covers the inner per-node evaluation only (a round-off
bound); the outer radius quadrature's error is not included.

A coverage curve is one pass of the engine over its threshold grid: the
order law and the radius nodes are computed once, the series run over a
leading threshold axis in blocks of bounded size, and each threshold's
reductions run on its own slice.  So every threshold is independent of
the others: its value and error are the same, bit for bit, in any grid,
and a single threshold is the grid of one.

The adaptive rate-loss bound is the one value averaged over deployment
draws rather than integrated: the draws that share an interferer count
are evaluated as one batch, the losses are added in draw order, and the
average carries its standard error.
"""

import math
from functools import lru_cache

import numpy as np

from . import feedback, geometry, specfun
from .errors import DomainError

_LOG2E = math.log2(math.e)
_W_MAX = float(np.nextafter(1.0, 0.0))


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


_PMF_TAIL = 1e-8          # count-law mass the weights may leave out
# Longest pmf search, about ratio 5000: a bound mixes one term per count,
# so its work grows linearly with the ratio.
_PMF_MAX_TERMS = 100_000


def pmf_weights(ratio):
    """pmf values 0..n_max where the cumulative mass reaches 1 - _PMF_TAIL.

    The count is negative binomial with shape 4.5 and mean (9/7) ratio, so
    the search runs to its mean plus 30 standard deviations, past the
    1e-12 quantile at any ratio; DomainError if that search would run past
    _PMF_MAX_TERMS terms, or if the mass still falls short.
    """
    mean = 4.5 * ratio / 3.5
    sd = math.sqrt(mean * (ratio + 3.5) / 3.5)
    reach = mean + 30.0 * sd
    if not reach + 100 <= _PMF_MAX_TERMS:
        raise DomainError(f"the interferer-count law at ratio {ratio!r} needs "
                          f"more than {_PMF_MAX_TERMS} terms")
    out = []
    cum = 0.0
    for n in range(int(reach) + 100):
        p = pmf_n(n, ratio)
        out.append(p)
        cum += p
        if cum >= 1.0 - _PMF_TAIL:
            return np.asarray(out)
    raise DomainError(f"pmf mass {cum!r} short of 1 - {_PMF_TAIL:g} at ratio {ratio!r}")


# ---------------------------------------------------------------------------
# Interference Laplace transforms
# ---------------------------------------------------------------------------

def _excl_kernel(x, s, alpha):
    """A(x, s) = Int_x^inf q r dr, q = s g / (1 + s g), g = (1+r)^-alpha
    (unit density), by its two-2F1 closed form; real s >= 0 and x
    broadcast against each other."""
    # imported on first use, so commands that evaluate no bound never load scipy
    from scipy.special import hyp2f1
    s = np.asarray(s, dtype=float)
    u0 = 1.0 + np.asarray(x, dtype=float)
    z = -(u0 ** (-alpha)) * s
    f1 = hyp2f1(1.0, 1.0 - 2.0 / alpha, 2.0 - 2.0 / alpha, z)
    f2 = hyp2f1(1.0, 1.0 - 1.0 / alpha, 2.0 - 1.0 / alpha, z)
    return (s * u0 ** (2.0 - alpha) / (alpha - 2.0) * f1
            - s * u0 ** (1.0 - alpha) / (alpha - 1.0) * f2)


def _excl_moments(x, s, alpha, n):
    """J_m(x, s) = Int_x^inf q^m (1-q) r dr for m = 1..n-1 on a new last axis.

    Pfaff form in w = q at r = x, which stays finite for m up to 64:

        w^m (1-w) [v0^2/(alpha m - 2) 2F1(m+1, 1; m+1-2/alpha; w)
                   - v0/(alpha m - 1) 2F1(m+1, 1; m+1-1/alpha; w)],  v0 = 1+x.
    """
    from scipy.special import hyp2f1
    x, s = np.broadcast_arrays(np.asarray(x, dtype=float),
                               np.asarray(s, dtype=float))
    v0 = 1.0 + x[..., None]
    g = s[..., None] * v0 ** (-alpha)
    w = np.minimum(g / (1.0 + g), _W_MAX)
    m = np.arange(1.0, n)
    return w ** m * (1.0 - w) * (
        v0 * v0 / (alpha * m - 2.0)
        * hyp2f1(m + 1.0, 1.0, m + 1.0 - 2.0 / alpha, w)
        - v0 / (alpha * m - 1.0)
        * hyp2f1(m + 1.0, 1.0, m + 1.0 - 1.0 / alpha, w))


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


# ---------------------------------------------------------------------------
# Radius quadrature grids (CDF-mapped Gauss-Legendre)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _gl01(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _beyond_nodes(r, density, n):
    """Nodes (last axis, r broadcast against it) and weights of the nearest
    point beyond r of a Poisson process of the given density, its CCDF
    exp(-pi density (x^2 - r^2)) mapped to the unit interval.

    r = 0 at lambda_b gives the serving distance r0, and r0 at 4 lambda_c
    the inscribed radius r_m > r0 (half the nearest-neighbour distance of
    the cluster stations)."""
    u, w = _gl01(n)
    return np.sqrt(r * r - np.log(u) / (math.pi * density)), w


def _circum_ccdf_q(q):
    """CCDF bound of the circumscribed radius in q = pi lambda_c r^2."""
    return 2.0 * q * np.exp(-q) + np.exp(-2.0 * q)


def _circum_inverse_q(y, q_lo=0.0):
    """Solve _circum_ccdf_q(q) = y for q >= q_lo elementwise (the function
    decreases 1 -> 0): a doubling bracket, capped once past 1e6, then
    bisection until no bracket can shrink."""
    y, lo = np.broadcast_arrays(np.asarray(y, dtype=float),
                                np.asarray(q_lo, dtype=float))
    hi = np.maximum(lo, 1.0) + 1.0
    grow = _circum_ccdf_q(hi) > y
    while np.any(grow):
        hi = np.where(grow, 2.0 * hi, hi)
        grow &= (_circum_ccdf_q(hi) > y) & (hi <= 1e6)
    while True:
        mid = 0.5 * (lo + hi)
        if not np.any((lo < mid) & (mid < hi)):
            return mid
        right = _circum_ccdf_q(mid) > y
        lo = np.where(right, mid, lo)
        hi = np.where(right, hi, mid)


def _rM_nodes_conditional(r0, lambda_c, n):
    """Circumscribed-radius nodes from the CCDF bound, conditioned > r0;
    r0 of shape (n_r0, 1) gives nodes (n_r0, n).

    The published bound is stated for a unit-intensity process; intensity is
    restored by the scaling r -> r sqrt(lambda_c) (q = pi lambda_c r^2) and
    the law renormalized on [r0, inf).
    """
    t, w = _gl01(n)
    q0 = math.pi * lambda_c * r0 * r0
    q = _circum_inverse_q(t * _circum_ccdf_q(q0), q_lo=q0)
    return np.sqrt(q / (math.pi * lambda_c)), w


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

# Relative error allowed for one kernel value A or J_m at g = s (1+x)^-alpha.
# Against high-precision quadrature, scipy's real 2F1 gives J_m within
# 1.3e-13 at g = 1e4, 3.4e-11 at 1e6, 5.5e-8 at 1e10 and 5.3e-4 at 1e14
# (m 1, 5, 20; alpha 3 and 4): 1e-12 max(1, g / 1e4) covers each point at
# least 3 times over.
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
    interferer uniform on the annulus [r0, r_big].  The inner-radius terms
    are evaluated at the broadcast shape of (s, r0) only."""
    r0 = np.asarray(r0, dtype=float)
    r_big = np.asarray(r_big, dtype=float)
    c0 = annulus_point_laplace(s, r0, r_big, alpha)
    c = np.empty(c0.shape + (n,))
    c[..., 0] = c0
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


def _kernel_rel_err(g):
    return _KERNEL_REL_ERR * np.maximum(1.0, np.asarray(g) / 1e4)


def _roundoff(terms, b0, n, g):
    """Round-off bound of non-negative series terms, each e^{b0} times a
    polynomial of degree < n in kernel values at g formed in about 2n + 1
    floating-point operations."""
    return terms * ((np.abs(b0) + n) * _kernel_rel_err(g) + (2 * n + 1) * _EPS)


def _gamma_gain(z, n):
    """1 - E exp(-z H) = 1 - (1+z)^-n for H ~ Gamma(n, 1)."""
    return -np.expm1(-n * np.log1p(z))


def _log_z_integral(f):
    """Int_0^inf f(z) dz / z by the trapezoid rule in ln z.

    f(z) must be O(z) at 0 and, past z = 1, bounded in modulus by a
    transform that decreases to 0.  Chunks are added until |f| has fallen
    below 1e-18 at some z >= 1.
    """
    total = 0.0
    x0 = _LOG_Z_START
    while x0 < 600.0:
        x = x0 + _LOG_Z_STEP * np.arange(_LOG_Z_CHUNK)
        v = f(np.exp(x))
        total += float(v.sum())
        if x[-1] >= 0.0 and abs(v[-1]) < 1e-18:
            break
        x0 = x[-1] + _LOG_Z_STEP
    return total * _LOG_Z_STEP


# ---------------------------------------------------------------------------
# Coverage and rate bounds for both antenna modes
# ---------------------------------------------------------------------------

def _order_law(cfg):
    """(order, single): order[j - 1] = P[nulling leaves Gamma(j) desired
    power] for j = 1..n, n the series length, and the interferer-count
    weights of the single-cell branch (N >= n_t), or None.

    FollowN(d) is a point mass at order d.  FixedNt(n_t) puts P[N] at
    order n_t - N for N < n_t; a branch whose mass is negligible is left
    out.

    P[N] is `pmf_n`, the law of a typical base station's cluster.  The
    typical user's serving cluster holds stochastically fewer stations
    (its CDF lies on or above `pmf_n`'s at every n; at ratio 3 its mean
    is 3.37 against 3.86), and a larger N only lowers this bound, so the
    mixture is conservative for the typical user.  The equal-policy
    rate-loss bounds mix the same law and rise with N."""
    mode = cfg.antenna_mode
    if isinstance(mode, geometry.FollowN):
        if mode.d_nt < 1:
            raise DomainError("d_nt must be >= 1")
        order = np.zeros(mode.d_nt)
        order[-1] = 1.0
        return order, None
    n_t = mode.n_t
    if n_t < 2:
        raise DomainError("n_t must be >= 2")
    weights = pmf_weights(cfg.ratio)
    order = np.zeros(n_t)
    nulled = weights[:n_t]
    if nulled.sum() > 1e-12:
        order[n_t - len(nulled):] = nulled[::-1]
    single = weights[n_t:]
    return order, (single if single.sum() > 1e-10 else None)


# Default radius node counts (n_r0, n_rm, n_rM) of each bound per antenna
# mode; n_rM serves only the single-cell branch.
_DEFAULT_NODES = {
    ("coverage", geometry.FollowN): (20, 14, None),
    ("coverage", geometry.FixedNt): (16, 10, 10),
    ("rate", geometry.FollowN): (16, 10, None),
    ("rate", geometry.FixedNt): (12, 8, 8),
}


def _node_counts(cfg, bound, *counts):
    """The given (n_r0, n_rm, n_rM), each None replaced by its default."""
    defaults = _DEFAULT_NODES[bound, type(cfg.antenna_mode)]
    return [d if c is None else c for c, d in zip(counts, defaults)]


def _nulling_nodes(cfg, n_r0, n_rm):
    """Serving-distance nodes r0 (n_r0,) with weights, and the conditional
    inscribed-radius nodes r_m (n_r0, n_rm) with their shared weights."""
    r0s, w0 = _beyond_nodes(0.0, cfg.lambda_b, n_r0)
    rms, wv = _beyond_nodes(r0s[:, None], 4.0 * cfg.lambda_c, n_rm)
    return r0s, w0, rms, wv


# Thresholds pass through the coverage engine in blocks: a block holds as
# many thresholds as keep its largest array, the single-cell Toeplitz stack
# (n_r0 n_rM n^2 doubles per threshold) or else the outer series
# (n_r0 n_rm n), within this many elements, and at least one threshold.
# The kernels hold a few temporaries of that size, so a block's transient
# memory stays within a few MB.
_BLOCK_ELEMENTS = 1 << 16


def _coverage_lb_err(cfg, ts, n_r0=None, n_rm=None, n_rM=None):
    """Coverage bound and its round-off bound at each linear threshold of the
    1-D `ts`, as two arrays.

    The order law and the radius nodes are computed once for the grid; the
    series run over a leading threshold axis, and each threshold's
    reductions run on its own slice, so a threshold's value and error do
    not depend on the other thresholds of the grid."""
    order, single = _order_law(cfg)
    ts = np.asarray(ts, dtype=float)
    if np.any(ts <= 0.0):
        raise DomainError("threshold must be positive")
    n = len(order)
    n_r0, n_rm, n_rM = _node_counts(cfg, "coverage", n_r0, n_rm, n_rM)
    r0s, w0, rms, wv = _nulling_nodes(cfg, n_r0, n_rm)
    big_l = (1.0 + r0s) ** cfg.alpha
    g_rm = (1.0 + rms) ** -cfg.alpha
    # nulling: P[Gamma(order) > s Y] = sum_k P[order > k] p_k
    below = np.cumsum(order[::-1])[::-1]
    size = n_r0 * n_rm * n
    if single is not None:
        rMs, ww = _rM_nodes_conditional(r0s[:, None], cfg.lambda_c, n_rM)
        size = max(size, n_r0 * n_rM * n * n)
    step = max(1, _BLOCK_ELEMENTS // size)

    values = np.empty(len(ts))
    errors = np.empty(len(ts))
    for lo in range(0, len(ts), step):
        block = ts[lo:lo + step]
        s = block[:, None] * big_l                      # (T, n_r0)
        b = _outer_log_series(s[..., None], rms, cfg, n)
        p = _exp_series(b)
        p_err = _roundoff(p, b[..., :1], n, (s[..., None] * g_rm)[..., None])
        # single-cell branch: N >= n_t, desired power Gamma(n), plus the N
        # intra-cluster interferers uniform on the annulus [r0, r_M]
        if single is not None:
            c = _annulus_series(s[..., None], r0s[:, None], rMs, cfg.alpha, n)
            mixture = _power_mixture(c, single, n)

        for i, t in enumerate(block):
            outer = np.einsum("ijk,j->ik", p[i], wv)
            outer_err = np.einsum("ijk,j->ik", p_err[i], wv)
            total = float(w0 @ (outer @ below))
            err = _EPS + float(w0 @ (outer_err @ below))
            if single is not None:
                intra = np.einsum("ijk,j->ik", mixture[i], ww)
                branch = _ccdf_of_product(outer, intra)
                total += float(w0 @ branch)
                err += float(w0 @ (_ccdf_of_product(outer_err, intra)
                                   + branch * (n + len(single)) * _kernel_rel_err(t)))
            values[lo + i] = min(max(total, 0.0), 1.0)
            errors[lo + i] = err
    return values, errors


def coverage_lb_ic(cfg, t, n_r0=None, n_rm=None, n_rM=None):
    """Coverage lower bound at linear threshold t under the coordination
    policy: per-cluster nulling (FollowN), or nulling when N < n_t and
    single-cell beamforming otherwise (FixedNt)."""
    values, _ = _coverage_lb_err(cfg, [t], n_r0, n_rm, n_rM)
    return float(values[0])


def _outer_laplace(s, rms, wv, cfg):
    """E exp(-s (I + 1/SNR)) averaged over the r_m nodes (last axis)."""
    return np.exp(_outer_log_series(s[..., None], rms, cfg, 1)[..., 0]) @ wv


def rate_lb_ic(cfg, n_r0=None, n_rm=None, n_rM=None):
    """Average-rate lower bound (bits/s/Hz) under the coordination policy.

    E ln(1 + H/Y) = Int_0^inf (1 - E e^{-zH}) E exp(-z Y) dz / z (Hamdi's
    lemma) with Y = L (I + 1/SNR), on the branches of `coverage_lb_ic`.
    """
    order, single = _order_law(cfg)
    n = len(order)
    n_r0, n_rm, n_rM = _node_counts(cfg, "rate", n_r0, n_rm, n_rM)
    r0s, w0, rms, wv = _nulling_nodes(cfg, n_r0, n_rm)
    big_l = (1.0 + r0s) ** cfg.alpha
    if single is not None:
        rMs, ww = _rM_nodes_conditional(r0s[:, None], cfg.lambda_c, n_rM)

    def integrand(z):
        s = z[:, None] * big_l
        m_out = _outer_laplace(s, rms, wv, cfg)
        gain = _gamma_gain(z[:, None], np.arange(1, n + 1)) @ order
        acc = gain[:, None] * m_out
        if single is not None:
            c0 = annulus_point_laplace(s[..., None], r0s[:, None], rMs, cfg.alpha)
            intra = (c0 ** n * np.polynomial.polynomial.polyval(c0, single)) @ ww
            acc += _gamma_gain(z, n)[:, None] * m_out * intra
        return acc @ w0

    return _LOG2E * _log_z_integral(integrand)


# ---------------------------------------------------------------------------
# Inter-cluster interference: mean and log-moment
# ---------------------------------------------------------------------------
#
# Both average over the inscribed-disk exclusion max(r_m - r0, 0) on the same
# (r0, r_m | r_m > r0) nodes.

_IOUT_NODES = 32


@lru_cache(maxsize=32)
def expected_iout(lambda_b, lambda_c, alpha):
    """Campbell mean of the inter-cluster interference."""
    if alpha <= 2.0:
        raise DomainError("alpha must exceed 2")
    r0s, w0 = _beyond_nodes(0.0, lambda_b, _IOUT_NODES)
    mean = 0.0
    for r0, wu in zip(r0s, w0):
        rms, wv = _beyond_nodes(r0, 4.0 * lambda_c, _IOUT_NODES)
        d = np.maximum(rms - r0, 0.0)
        mean += wu * float(np.dot(wv, mean_tail_interference(d, lambda_b, alpha)))
    return mean


@lru_cache(maxsize=32)
def expected_log2_iout_plus(lambda_b, lambda_c, alpha, c):
    """E{log2(I_out + c)} for c >= 0 from the interference transform
    M(z) = E exp(-z I_out) by the log-moment identity

        E ln(I_out + c) = Int_0^inf (e^{-z} - e^{-zc} M(z)) dz / z.
    """
    if alpha <= 2.0:
        raise DomainError("alpha must exceed 2")
    r0s, w0 = _beyond_nodes(0.0, lambda_b, _IOUT_NODES)
    rms, wv = _beyond_nodes(r0s[:, None], 4.0 * lambda_c, _IOUT_NODES)
    excl = np.maximum(rms - r0s[:, None], 0.0)
    scale = 2.0 * math.pi * lambda_b

    def integrand(z):
        m = np.exp(-scale * _excl_kernel(excl, z[:, None, None], alpha))
        return np.exp(-z) - np.exp(-z * c) * ((m @ wv) @ w0)

    return _LOG2E * _log_z_integral(integrand)


# ---------------------------------------------------------------------------
# Rate-loss bounds under limited feedback
# ---------------------------------------------------------------------------

def _require_follow(cfg):
    if not isinstance(cfg.antenna_mode, geometry.FollowN):
        raise DomainError("this bound needs antenna_mode = FollowN(d_nt)")
    return cfg.antenna_mode.d_nt


def expected_nearest_pathloss(lambda_b, alpha):
    """E{(1+r_{0,1})^-alpha} for the nearest interferer beyond the serving
    distance: Rayleigh nearest-point density conditioned on r > r0."""
    r0s, w0 = _beyond_nodes(0.0, lambda_b, _IOUT_NODES)
    total = 0.0
    for r0, wu in zip(r0s, w0):
        r, wt = _beyond_nodes(r0, lambda_b, _IOUT_NODES)
        total += wu * float(np.dot(wt, (1.0 + r) ** (-alpha)))
    return total


def rate_loss_ub_equal(cfg, b_tot, bias=True):
    """Mean rate-loss upper bound with (near-)equal allocation of b_tot bits.

    Term by term: RVQ loss of the desired channel, the log-interference
    term -E{log2 I_out}, and the residual-plus-floor log term with the
    nearest-interferer path-loss factor.

    Both RVQ terms decay as 2^(-b/((N+1)(N+d-1))) averaged over the
    interferer-count pmf, so the bound falls with b_tot to its floor
    -E{log2 I_out} + log2(1/SNR + E{I_out}) as b_tot -> inf.
    """
    d = _require_follow(cfg)
    weights = pmf_weights(cfg.ratio)
    e_iout = expected_iout(cfg.lambda_b, cfg.lambda_c, cfg.alpha)
    e_log = expected_log2_iout_plus(cfg.lambda_b, cfg.lambda_c, cfg.alpha, 0.0)
    e_near = expected_nearest_pathloss(cfg.lambda_b, cfg.alpha)

    term_des = 0.0
    term_res = 0.0
    for n, p in enumerate(weights):
        n_t = n + d
        b0, share = feedback.equal_split(b_tot, n, bias)
        if n_t > 1:
            g1, _ = feedback.rvq_gammas(n_t)
            term_des += p * g1 * 2.0 ** (-b0 / (n_t - 1.0))
            term_res += p * n * feedback.rvq_mean_interference_stirling(n_t, share)
    return (_LOG2E * term_des - e_log
            + math.log2(cfg.inv_snr + e_iout + term_res * e_near))


def rate_loss_adaptive_rows(rows, cfg, b_tot):
    """Per-realization rate-loss bound at the adaptive integer allocation
    of b_tot bits, for each row of `rows`: the ascending intra-cluster
    distances of realizations that share one interferer count n, shape
    (m, n).

    Returns the m losses.  The low-/high-SNR form is selected by each row's
    regime flag.  E{I_out} and E{log2(I_out + 1/SNR)} come from their
    per-config caches.  The closed form runs per row on Python floats,
    whose powers and logarithms are the C library's, so a row's loss does
    not depend on its batch.
    """
    m, n = rows.shape
    n_t = n + _require_follow(cfg)
    if n_t <= 1:
        return np.zeros(m)
    e_iout = expected_iout(cfg.lambda_b, cfg.lambda_c, cfg.alpha)
    e_log = expected_log2_iout_plus(cfg.lambda_b, cfg.lambda_c, cfg.alpha,
                                    cfg.inv_snr)
    floor = e_iout + cfg.inv_snr
    b0, size, residual = feedback.adaptive_decision(
        rows, b_tot, n_t, cfg.alpha, e_iout, cfg.inv_snr)
    g1, g2 = feedback.rvq_gammas(n_t)
    gm = np.zeros(m)                    # product term over each effective set
    for k in set(size) - {0}:
        sel = np.equal(size, k)
        gm[sel] = ((1.0 + rows[sel, :k]) ** (-cfg.alpha / k)).prod(axis=1)

    losses = []
    for b0_i, k, res, gm_i in zip(b0, size, residual, gm.tolist()):
        loss = _LOG2E * g1 * 2.0 ** (-b0_i / (n_t - 1.0)) - e_log
        if k == 0:
            loss += math.log2(floor)
        elif res:
            loss += (math.log2(g2 * k * gm_i)
                     + (b0_i - b_tot) / (k * (n_t - 1.0)))
        else:
            b_i = b_tot - b0_i
            loss += (math.log2(floor)
                     + _LOG2E * g2 / floor * k * 2.0 ** (-b_i / (k * (n_t - 1.0)))
                     * gm_i)
        losses.append(loss)
    return np.array(losses)


def rate_loss_ub_adaptive(cfg, b_tots, geometry_trials=2000):
    """Network-average adaptive rate-loss bound: Monte Carlo over deployment
    geometry with analytical channel terms.

    Returns (values, errors): at each budget of `b_tots`, the mean loss over
    the draws and its standard error.  The geometry stream
    (cfg.seed, 104729, i) does not depend on the budget, so one set of
    draws serves the grid.  `geometry.sample_typical_clusters` samples the
    streams, and draws with one interferer count are evaluated together.
    """
    _require_follow(cfg)
    budgets = [int(b) for b in b_tots]
    by_count = {}                       # n -> (draw indices, distance rows)
    streams = (np.random.default_rng((cfg.seed, 104729, i))
               for i in range(geometry_trials))
    for i, (_, cluster, _) in enumerate(geometry.sample_typical_clusters(cfg, streams)):
        draws, rows = by_count.setdefault(cluster.n_interferers, ([], []))
        draws.append(i)
        rows.append(cluster.intra_dist)
    losses = np.empty((len(budgets), geometry_trials))
    for n, (draws, rows) in by_count.items():
        stacked = np.array(rows).reshape(len(draws), n)
        for j, b_tot in enumerate(budgets):
            losses[j, draws] = rate_loss_adaptive_rows(stacked, cfg, b_tot)
    # a running sum adds in draw order (np.sum would add pairwise)
    values = losses.cumsum(axis=1)[:, -1] / geometry_trials
    errors = losses.std(axis=1, ddof=1) / math.sqrt(geometry_trials)
    return values.tolist(), errors.tolist()


# ---------------------------------------------------------------------------
# Sweep helper
# ---------------------------------------------------------------------------

def coverage_curve(cfg, t_db_grid):
    """Analytic coverage bound over a dB threshold grid, in one pass of the
    series engine.

    Returns (values, errors), one entry per threshold."""
    ts = [10.0 ** (t_db / 10.0) for t_db in np.asarray(t_db_grid, dtype=float)]
    return _coverage_lb_err(cfg, ts)
