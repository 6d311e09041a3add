"""Independent real-axis oracle for the d_nt = 1 coverage and rate bounds.

With one spare antenna the desired power after nulling is Exp(1), so the
coverage bound at linear threshold t is a plain expectation over the
serving distance r0 and the inscribed cluster radius r_m:

    P_c(t) = E[ exp(-t L sigma^2) * exp(-2 pi lambda_b A(r_m, t L)) ],
    L = (1 + r0)^alpha,
    A(x, s) = Int_x^inf s (1+r)^-alpha / (1 + s (1+r)^-alpha) r dr,

and the rate bound is Int_0^inf P_c(e^x - 1) dx / ln 2.  Nothing here
calls clusternull: A comes from scipy.special.hyp2f1 on the real axis and
the radius laws are integrated in variables that make them smooth,

    r0  = rho / sqrt(pi lambda_b),                  rho   ~ 2 rho e^-rho^2,
    r_m = sqrt(r0^2 + omega^2 / (4 pi lambda_c)),   omega ~ 2 omega e^-omega^2,

so fixed Gauss-Legendre rules converge geometrically, unlike the CDF
mapping the package uses (its integrand has a square-root endpoint).
"""

import math

import numpy as np
from scipy import integrate, special

_RAYLEIGH_CUT = 6.5     # e^(-6.5^2) ~ 5e-19 of the Rayleigh mass lies beyond


def excl_kernel(x, s, alpha):
    """A(x, s) for unit density, by the two-2F1 closed form (real s >= 0)."""
    u0 = 1.0 + np.asarray(x, dtype=float)
    s = np.asarray(s, dtype=float)
    z = -s * u0 ** (-alpha)
    f1 = special.hyp2f1(1.0, 1.0 - 2.0 / alpha, 2.0 - 2.0 / alpha, z)
    f2 = special.hyp2f1(1.0, 1.0 - 1.0 / alpha, 2.0 - 1.0 / alpha, z)
    return (s * u0 ** (2.0 - alpha) / (alpha - 2.0) * f1
            - s * u0 ** (1.0 - alpha) / (alpha - 1.0) * f2)


def excl_kernel_quad(x, s, alpha):
    """A(x, s) straight from its defining integral (slow; a self-check)."""
    def f(r):
        g = s * (1.0 + r) ** (-alpha)
        return g / (1.0 + g) * r
    val, _ = integrate.quad(f, x, np.inf, epsabs=0.0, epsrel=1e-12, limit=200)
    return val


def _rayleigh_rule(n):
    """Nodes and weights for E[f(X)], X with density 2x e^-x^2 on [0, inf)."""
    x, w = special.roots_legendre(n)
    x = 0.5 * _RAYLEIGH_CUT * (x + 1.0)
    w = 0.5 * _RAYLEIGH_CUT * w * 2.0 * x * np.exp(-x * x)
    return x, w


def _radius_grid(lambda_b, lambda_c, n_r0, n_rm):
    """(1 + r0, r_m, weight) on the flattened (r0, r_m) product rule."""
    rho, w_rho = _rayleigh_rule(n_r0)
    omg, w_omg = _rayleigh_rule(n_rm)
    r0 = rho[:, None] / math.sqrt(math.pi * lambda_b)
    rm = np.sqrt(r0 * r0 + omg[None, :] ** 2 / (4.0 * math.pi * lambda_c))
    big_l = np.broadcast_to((1.0 + r0), rm.shape)
    wgt = w_rho[:, None] * w_omg[None, :]
    return big_l.ravel(), rm.ravel(), wgt.ravel()


def _conditional_coverage(v, big_l, rm, lambda_b, alpha, noise):
    """exp(-v L sigma^2 - 2 pi lambda_b A(r_m, v L)), broadcasting v."""
    s = v * big_l
    return np.exp(-s * noise
                  - 2.0 * math.pi * lambda_b * excl_kernel(rm, s, alpha))


def coverage(t, lambda_b, lambda_c, alpha, snr_db, n_r0=64, n_rm=48):
    """d_nt = 1 coverage bound at linear threshold t."""
    big_l, rm, wgt = _radius_grid(lambda_b, lambda_c, n_r0, n_rm)
    big_l = big_l ** alpha
    noise = 10.0 ** (-snr_db / 10.0)
    return float(wgt @ _conditional_coverage(t, big_l, rm, lambda_b, alpha,
                                             noise))


def rate(lambda_b, lambda_c, alpha, snr_db, n_r0=48, n_rm=32, n_x=16,
         panel=0.5, floor=1e-13):
    """d_nt = 1 rate bound, Int_0^inf P_c(e^x - 1) dx / ln 2 (bits/s/Hz).

    Composite Gauss-Legendre panels in x run until a panel's upper end has
    coverage below `floor`.
    """
    big_l, rm, wgt = _radius_grid(lambda_b, lambda_c, n_r0, n_rm)
    big_l = big_l ** alpha
    noise = 10.0 ** (-snr_db / 10.0)
    xg, wg = special.roots_legendre(n_x)
    total = 0.0
    x0 = 0.0
    for _ in range(400):
        xs = x0 + 0.5 * panel * (xg + 1.0)
        v = np.expm1(xs)[:, None]
        pc = _conditional_coverage(v, big_l[None, :], rm[None, :], lambda_b,
                                   alpha, noise) @ wgt
        total += 0.5 * panel * float(wg @ pc)
        x0 += panel
        if coverage(math.expm1(x0), lambda_b, lambda_c, alpha, snr_db,
                    n_r0, n_rm) < floor:
            break
    return total / math.log(2.0)
