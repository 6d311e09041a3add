"""Special-function kernel: Gauss hypergeometric 2F1, log-Gamma, Beta, digamma.

Everything here is self-contained scalar/vector numerics used by the
analytical bounds.  The 2F1 evaluator only supports the regime the bounds
need: c > b > 0 with z on the closed left half line (scalar entry point)
plus a vectorized complex-argument variant for the parameter family
2F1(1, b; b+1, z) that appears in every interference Laplace transform.
The vectorized variant maps each point into one of three series windows
and sums each window's series with a term count fixed up front from the
window's largest |z|, so one evaluation costs a few array operations
however many points it carries.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .errors import DomainError

# Stirling tail  S(x) = sum B_{2k} / (2k(2k-1) x^{2k-1}),  used for stable
# lgamma differences at large arguments.
_STIRLING_COEF = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
)

_SERIES_CAP = 10_000
_SERIES_TOL = 1e-16


@dataclass(frozen=True)
class SpecFunResult:
    value: float
    est_abs_error: float


def _gauss_series(a, b, c, z):
    """Plain Gauss series; returns (sum, est_error, converged)."""
    term = 1.0
    total = 1.0
    for n in range(_SERIES_CAP):
        term *= (a + n) * (b + n) / ((c + n) * (1.0 + n)) * z
        total += term
        if abs(term) < _SERIES_TOL * max(abs(total), 1e-300):
            ratio = abs(z) if abs(z) < 1.0 else 1.0 - 1e-12
            return total, abs(term) / max(1e-300, 1.0 - ratio) + 8e-16 * abs(total), True
    return total, abs(term), False


def _euler_integral(a, b, c, z):
    """Euler integral for 2F1 with c > b > 0, adaptive QAWS quadrature.

    The algebraic endpoint weight t^{b-1}(1-t)^{c-b-1} is handled by the
    quadrature rule itself, so only the smooth factor is sampled.
    """
    val, err = integrate.quad(
        lambda t: (1.0 - t * z) ** (-a),
        0.0,
        1.0,
        weight="alg",
        wvar=(b - 1.0, c - b - 1.0),
        limit=200,
        epsabs=0.0,
        epsrel=1e-12,
    )
    pref = math.exp(ln_gamma(c) - ln_gamma(b) - ln_gamma(c - b))
    return pref * val, pref * err


def hyp2f1(a, b, c, z):
    """2F1(a, b; c; z) for real z <= 0 in the regime c > b > 0.

    Direct series inside the unit disk; the Pfaff transformation
    w = z/(z-1) maps z < -1 into (0, 1).  If the (positive-term)
    transformed series stalls, falls back to adaptive quadrature of the
    Euler integral.
    """
    if not (c > b > 0.0):
        raise DomainError(f"hyp2f1 requires c > b > 0, got b={b}, c={c}")
    if z > 0.0:
        raise DomainError(f"hyp2f1 requires z <= 0, got z={z}")
    if z == 0.0:
        return SpecFunResult(1.0, 0.0)
    if z > -1.0:
        total, err, ok = _gauss_series(a, b, c, z)
        if ok:
            return SpecFunResult(total, err)
    # Pfaff: 2F1(a,b;c;z) = (1-z)^(-a) 2F1(a, c-b; c; z/(z-1))
    w = z / (z - 1.0)
    total, err, ok = _gauss_series(a, c - b, c, w)
    scale = (1.0 - z) ** (-a)
    if ok:
        return SpecFunResult(scale * total, scale * err + 4e-16 * abs(scale * total))
    val, qerr = _euler_integral(a, b, c, z)
    return SpecFunResult(val, qerr)


def hyp2f1_a1(b, z):
    """Vectorized 2F1(1, b; b+1; z), 0 < b < 1, complex z with Re z <= 0.

    This is the family every interference Laplace transform reduces to.
    Three windows: direct series for small |z|, Pfaff series for moderate
    |z|, and the 1/z linear transformation for large |z| (the second term
    of the connection formula collapses because one numerator parameter
    vanishes):

        2F1(1,b;b+1;z) = b/(b-1) * (-z)^{-1} 2F1(1, 1-b; 2-b; 1/z)
                         + pi*b/sin(pi*b) * (-z)^{-b}.
    """
    if not (0.0 < b < 1.0):
        raise DomainError(f"hyp2f1_a1 requires 0 < b < 1, got b={b}")
    z = np.asarray(z, dtype=complex)
    if np.any(z.real > 1e-12):
        raise DomainError("hyp2f1_a1 requires Re z <= 0")
    out = np.ones_like(z)
    az = np.abs(z)

    small = (az > 0.0) & (az <= 0.6)
    mid = (az > 0.6) & (az < 1.5)
    large = az >= 1.5

    if np.any(small):
        out[small] = _series_vec(1.0, b, b + 1.0, z[small])
    if np.any(mid):
        zm = z[mid]
        w = zm / (zm - 1.0)
        out[mid] = (1.0 - zm) ** (-1.0) * _series_vec(1.0, 1.0, b + 1.0, w)
    if np.any(large):
        zl = z[large]
        inv = 1.0 / zl
        t1 = b / (b - 1.0) * (-inv) * _series_vec(1.0, 1.0 - b, 2.0 - b, inv)
        t2 = math.pi * b / math.sin(math.pi * b) * (-zl) ** (-b)
        out[large] = t1 + t2
    return out


def _series_vec(a, b, c, z):
    """Gauss series 2F1(a, b; c; z) on a complex array with all |z| < 1.

    Only called with a = 1 and c > b, where every coefficient ratio
    (a+k)(b+k) / ((c+k)(1+k)) = (b+k)/(c+k) lies in (0, 1): (b+k)/(b+1+k),
    (1+k)/(b+1+k) and (1-b+k)/(2-b+k) in the three windows of hyp2f1_a1.
    So term k is at most |z|^k in modulus, and n = ceil(ln 1e-16 / ln m)
    terms, m = max|z|, leave every term past the last below 1e-16.  All n
    terms come from one cumulative product over the (n, points) array of
    ratio_k * z.
    """
    n = math.ceil(math.log(_SERIES_TOL) / math.log(float(np.max(np.abs(z)))))
    k = np.arange(n, dtype=float)
    ratio = (a + k) * (b + k) / ((c + k) * (1.0 + k))
    terms = np.cumprod(ratio[:, None] * z[None, :], axis=0)
    return 1.0 + terms.sum(axis=0)


def digamma(x):
    """psi(x) for x > 0: recurrence up to x >= 6, then the Stirling series."""
    if x <= 0.0:
        raise DomainError(f"digamma requires x > 0, got {x}")
    acc = 0.0
    while x < 6.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    # asymptotic tail through x^{-14}; truncation < 2e-13 at x = 6
    tail = inv2 * (1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 * (1.0 / 252.0 - inv2 * (
        1.0 / 240.0 - inv2 * (1.0 / 132.0 - inv2 * (691.0 / 32760.0 - inv2 / 12.0))))))
    return acc + math.log(x) - 0.5 / x - tail


def ln_gamma(x):
    """log Gamma(x) for x > 0."""
    if x <= 0.0:
        raise DomainError(f"ln_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def _stirling_tail(x):
    inv = 1.0 / x
    inv2 = inv * inv
    total = 0.0
    p = inv
    for coef in _STIRLING_COEF:
        total += coef * p
        p *= inv2
    return total


def _ln_gamma_ratio(a, b):
    """log Gamma(a+b) - log Gamma(a), stable for huge a (e.g. a = 2^60).

    Direct lgamma subtraction loses all precision once lgamma(a) ~ 1e19;
    the Stirling forms are subtracted analytically instead.
    """
    if a < 16.0:
        k = int(math.ceil(16.0 - a))
        lift = sum(math.log1p(b / (a + j)) for j in range(k))
        return _ln_gamma_ratio(a + k, b) - lift
    return ((a - 0.5) * math.log1p(b / a) + b * math.log(a + b) - b
            + _stirling_tail(a + b) - _stirling_tail(a))


def beta(a, b):
    """Beta(a, b) = Gamma(a)Gamma(b)/Gamma(a+b) in log space, a, b > 0."""
    if a <= 0.0 or b <= 0.0:
        raise DomainError(f"beta requires positive arguments, got ({a}, {b})")
    hi, lo = (a, b) if a >= b else (b, a)
    return math.exp(ln_gamma(lo) - _ln_gamma_ratio(hi, lo))
