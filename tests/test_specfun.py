import math

import numpy as np
import pytest
from scipy import integrate

from clusternull import specfun
from clusternull.errors import DomainError

EULER_GAMMA = 0.57721566490153286061


def euler_integral_2f1(a, b, c, z):
    """Independent oracle: adaptive quadrature of the Euler integral."""
    val, _ = integrate.quad(
        lambda t: (1.0 - t * z) ** (-a), 0.0, 1.0,
        weight="alg", wvar=(b - 1.0, c - b - 1.0), limit=300, epsrel=1e-13,
        epsabs=0.0)
    return val * math.exp(math.lgamma(c) - math.lgamma(b) - math.lgamma(c - b))


def test_hyp2f1_at_zero_is_one():
    for (a, b, c) in [(1.0, 0.5, 1.5), (2.2, 0.3, 4.0), (0.7, 1.1, 1.2)]:
        r = specfun.hyp2f1(a, b, c, 0.0)
        assert r.value == 1.0
        assert r.est_abs_error == 0.0


def test_hyp2f1_log_identity():
    # 2F1(1,1;2;z) = -ln(1-z)/z
    r = specfun.hyp2f1(1.0, 1.0, 2.0, -1.0)
    assert abs(r.value - math.log(2.0)) < 1e-12


def test_hyp2f1_arctan_identity():
    # 2F1(1, 1/2; 3/2; -x^2) = arctan(x)/x
    r = specfun.hyp2f1(1.0, 0.5, 1.5, -9.0)
    oracle = euler_integral_2f1(1.0, 0.5, 1.5, -9.0)
    assert abs(r.value - math.atan(3.0) / 3.0) < 1e-10
    assert abs(r.value - oracle) < 1e-8 * abs(oracle)


def test_hyp2f1_random_points_vs_euler_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        b = rng.uniform(0.1, 2.0)
        c = b + rng.uniform(0.1, 2.0)
        a = rng.uniform(0.2, 2.5)
        z = -(10.0 ** rng.uniform(-2.0, 4.0))
        got = specfun.hyp2f1(a, b, c, z).value
        want = euler_integral_2f1(a, b, c, z)
        assert abs(got - want) < 1e-8 * max(abs(want), 1e-30), (a, b, c, z)


def test_hyp2f1_monotone_in_abs_z():
    zs = -np.logspace(-2, 3, 40)
    vals = [specfun.hyp2f1(1.3, 0.6, 1.9, z).value for z in zs]
    assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))


def test_hyp2f1_domain_errors():
    with pytest.raises(DomainError):
        specfun.hyp2f1(1.0, 1.5, 1.2, -1.0)   # needs c > b
    with pytest.raises(DomainError):
        specfun.hyp2f1(1.0, 0.5, 1.5, 0.5)    # needs z <= 0


def test_digamma_euler_mascheroni():
    # series oracle: psi(1) = -gamma = lim sum
    assert abs(specfun.digamma(1.0) + EULER_GAMMA) < 1e-12


def test_digamma_half():
    assert abs(specfun.digamma(0.5) - (-EULER_GAMMA - 2.0 * math.log(2.0))) < 1e-12


def test_digamma_recurrence():
    for x in np.arange(0.5, 50.5, 0.5):
        resid = specfun.digamma(x + 1.0) - specfun.digamma(x) - 1.0 / x
        assert abs(resid) < 1e-12


def test_digamma_domain():
    with pytest.raises(DomainError):
        specfun.digamma(0.0)
    with pytest.raises(DomainError):
        specfun.digamma(-2.0)


def test_beta_simple_values():
    assert abs(specfun.beta(1.0, 1.0) - 1.0) < 1e-14
    assert abs(specfun.beta(2.0, 3.0) - 1.0 / 12.0) < 1e-14  # int t(1-t)^2 dt


def test_beta_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = 10.0 ** rng.uniform(-1, 3)
        b = 10.0 ** rng.uniform(-1, 3)
        x, y = specfun.beta(a, b), specfun.beta(b, a)
        assert abs(x - y) <= 1e-12 * abs(x)


def test_beta_huge_first_argument():
    # Stirling asymptote beta(a, b) ~ Gamma(b) a^-b for a >> 1
    for bits in (20, 40, 60):
        a = 2.0 ** bits
        got = specfun.beta(a, 0.25)
        asym = math.gamma(0.25) * a ** (-0.25)
        assert abs(got - asym) < 1e-6 * asym


def test_beta_domain():
    with pytest.raises(DomainError):
        specfun.beta(0.0, 1.0)
    with pytest.raises(DomainError):
        specfun.ln_gamma(-1.0)
