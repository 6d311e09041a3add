"""Special-function kernel: Gauss hypergeometric 2F1, log-Gamma, Beta, digamma.

Everything here is self-contained scalar numerics.  The 2F1 evaluator only
supports the regime c > b > 0 with z on the closed left half line; the
analytic bounds evaluate their vectorized real 2F1 values with
scipy.special.hyp2f1, and this scalar evaluator stays as an independent
oracle for the special-function acceptance checks.
"""

import math
from dataclasses import dataclass

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
    from scipy import integrate  # only this test-oracle fallback needs it

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
