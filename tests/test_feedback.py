import math

import numpy as np
import pytest
from scipy import stats

from clusternull import feedback, specfun
from clusternull.channel import complex_gaussian
from clusternull.errors import DomainError
from clusternull.feedback import (
    adaptive_allocation,
    adaptive_decision,
    equal_allocation,
    rvq_mean_interference,
    rvq_mean_interference_stirling,
    rvq_mean_sin2,
    sample_rvq_sin2,
)


def decision(r, b_tot, n_t, alpha, e_iout, inv_snr):
    """`adaptive_decision` of one row: (b0, effective-set size, residual)."""
    ((b0,), (size,), (residual,)), = adaptive_decision(
        np.asarray(r, dtype=float)[None, :], [b_tot], n_t, alpha, e_iout, inv_snr)
    return b0, size, residual


def effective_set(r, b_i, n_t, alpha):
    """Largest prefix (ascending distance) receiving positive bits."""
    log2_pl = alpha * np.log2(1.0 + np.asarray(r, dtype=float)[None, :])
    return np.arange(feedback._effective_sizes(log2_pl, [b_i], n_t, {})[0])


def iso_dir(rng, n_t):
    v = complex_gaussian(rng, n_t)
    return v / np.linalg.norm(v)


def explicit_rvq(v_dir, bits, rng):
    """Explicit RVQ: the best of 2^bits isotropic unit codewords drawn from
    rng, maximizing |v_dir* c| with ties to the lowest index.  The oracle of
    the exact-law sampler."""
    book = rng.standard_normal((2 ** bits, 2 * len(v_dir))).view(np.complex128)
    book /= np.linalg.norm(book, axis=1, keepdims=True)
    return book[int(np.argmax(np.abs(book @ v_dir.conj())))]


# ---------------------------------------------------------------------------
# RVQ quantization
# ---------------------------------------------------------------------------

def test_rvq_b1_is_argmax():
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = iso_dir(rng, 3)
        probe = np.random.default_rng(7)
        c = explicit_rvq(v, 1, probe)
        again = np.random.default_rng(7)
        book = (again.standard_normal((2, 6))).view(np.complex128)
        book /= np.linalg.norm(book, axis=1, keepdims=True)
        scores = np.abs(book @ v.conj())
        assert np.allclose(c, book[int(np.argmax(scores))])


def test_rvq_mean_distortion_matches_beta_formula():
    rng = np.random.default_rng(1)
    n_t, bits, n_draws = 2, 6, 4000
    sin2 = np.empty(n_draws)
    for i in range(n_draws):
        v = iso_dir(rng, n_t)
        c = explicit_rvq(v, bits, rng)
        sin2[i] = 1.0 - abs(v.conj() @ c) ** 2
    want = rvq_mean_sin2(n_t, bits)
    se = sin2.std() / math.sqrt(n_draws)
    assert abs(sin2.mean() - want) < 3.0 * se
    # and within 10% of the (n_t-1)/n_t-normalized closed form
    assert abs(sin2.mean() - want) < 0.1 * want


def test_rvq_self_quantization():
    rng = np.random.default_rng(2)
    book_rng = np.random.default_rng(5)
    # build the same codebook the quantizer will draw, pick one codeword
    book = book_rng.standard_normal((4, 8)).view(np.complex128)
    book /= np.linalg.norm(book, axis=1, keepdims=True)
    c = explicit_rvq(book[2], 2, np.random.default_rng(5))
    assert abs(abs(book[2].conj() @ c) - 1.0) < 1e-12


def test_exact_law_sampler_matches_explicit_rvq():
    # distribution equality of the O(1) inverse-transform sampler vs the
    # explicit codebook distortion, at small codebooks
    rng = np.random.default_rng(4)
    for n_t, bits in [(2, 1), (2, 4), (4, 4), (4, 8)]:
        explicit = np.empty(1500)
        for i in range(explicit.size):
            v = iso_dir(rng, n_t)
            c = explicit_rvq(v, bits, rng)
            explicit[i] = 1.0 - abs(v.conj() @ c) ** 2
        fast = sample_rvq_sin2(n_t, bits, rng.random(20_000))
        d = stats.ks_2samp(explicit, fast).statistic
        assert d < 0.05, (n_t, bits, d)


def test_exact_law_sampler_scalar_and_array_forms_agree():
    # a trial calls the sampler on one uniform at a time, the tests on
    # arrays: one path serves both, each form giving the floats of the law
    # with u clipped to [1e-300, 1], the ends u = 0 and u = 1 included
    rng = np.random.default_rng(13)
    u = np.concatenate([[0.0, 1.0, 1e-300, 5e-324], rng.random(2000)])

    def law(n_t, bits, u):
        clipped = np.clip(np.asarray(u, dtype=float), 1e-300, 1.0)
        return (-np.expm1(np.log(clipped) * 2.0 ** (-float(bits)))) ** (1.0 / (n_t - 1))

    for n_t, bits in [(2, 1), (4, 4), (6, 25), (9, 80)]:
        batch = sample_rvq_sin2(n_t, bits, u)
        assert batch.shape == u.shape
        assert np.array_equal(batch, law(n_t, bits, u))
        for x in u.tolist() + [0, 1]:
            z = sample_rvq_sin2(n_t, bits, x)
            assert np.shape(z) == ()
            assert float(z) == float(law(n_t, bits, x))
    for x in (0, 0.5, u):
        assert np.array_equal(sample_rvq_sin2(1, 3, x), np.zeros_like(x, dtype=float))
    # the inverse transform's ends: u = 1 is no distortion, u = 0 (clipped
    # to 1e-300) nearly all of it
    assert float(sample_rvq_sin2(4, 4, 1.0)) == 0.0
    assert 0.999 < float(sample_rvq_sin2(4, 4, 0.0)) <= 1.0


def test_exact_law_sampler_mean():
    rng = np.random.default_rng(5)
    for n_t, bits in [(4, 4), (4, 12), (8, 8), (6, 25), (6, 50)]:
        z = sample_rvq_sin2(n_t, bits, rng.random(200_000))
        want = rvq_mean_sin2(n_t, bits)
        se = z.std() / math.sqrt(len(z))
        assert abs(z.mean() - want) < 3.5 * se, (n_t, bits)


def test_stirling_form_close_to_exact_mean():
    for n_t in (3, 5, 9):
        for bits in (4, 10, 16):
            exact = rvq_mean_interference(n_t, bits)
            stirl = rvq_mean_interference_stirling(n_t, bits)
            assert abs(stirl - exact) < 0.12 * exact


# ---------------------------------------------------------------------------
# Equal allocation
# ---------------------------------------------------------------------------

def test_equal_allocation_examples():
    b0, b_intra = equal_allocation(50, 3, bias=True)
    assert list(b_intra) == [12, 12, 12] and b0 == 14
    assert b0 + b_intra.sum() == 50

    b0, b_intra = equal_allocation(50, 3, bias=False)
    assert list(b_intra) == [12, 12, 12] and b0 == 12  # 2 bits discarded
    assert b0 + b_intra.sum() == 48

    b0, b_intra = equal_allocation(8, 7, bias=True)
    assert list(b_intra) == [1] * 7 and b0 == 1

    # below n + 1 bits every share is 0: the bias variant keeps the whole
    # budget on the desired channel, the no-bias variant discards it
    b0, b_intra = equal_allocation(7, 7, bias=True)
    assert list(b_intra) == [0] * 7 and b0 == 7
    assert np.count_nonzero(b_intra) == 0      # no interferer has bits
    b0, b_intra = equal_allocation(7, 7, bias=False)
    assert list(b_intra) == [0] * 7 and b0 == 0
    assert np.count_nonzero(b_intra) == 0


# ---------------------------------------------------------------------------
# Effective set
# ---------------------------------------------------------------------------

def brute_force_effective_set(r, b_i, n_t, alpha):
    """Oracle: test every prefix against the published condition directly."""
    n = len(r)
    best = np.arange(0)
    for k in range(1, n + 1):
        ok = True
        for ell in range(k):
            gm = np.prod([(1.0 + r[j]) ** (-alpha / k) for j in range(k)])
            lhs = math.log2(gm / (1.0 + r[ell]) ** (-alpha))
            if not lhs < b_i / (k * (n_t - 1.0)):
                ok = False
                break
        if ok:
            best = np.arange(k)
    return best


def test_effective_set_symmetric():
    r = np.full(5, 2.0)
    assert len(effective_set(r, 3, 4, 4.0)) == 5


def test_effective_set_large_budget():
    r = np.array([0.5, 1.0, 9.0, 40.0])
    assert len(effective_set(r, 10_000, 4, 4.0)) == 4


def test_effective_set_zero_budget():
    assert len(effective_set(np.array([1.0, 2.0]), 0, 4, 4.0)) == 0


def test_effective_set_vs_brute_force():
    rng = np.random.default_rng(6)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        r = np.sort(rng.uniform(0.1, 60.0, n))
        b_i = int(rng.integers(0, 30))
        n_t = int(rng.integers(2, 9))
        got = effective_set(r, b_i, n_t, 4.0)
        want = brute_force_effective_set(r, b_i, n_t, 4.0)
        assert np.array_equal(got, want)


def test_effective_set_spec_example():
    got = effective_set(np.array([1.0, 2.0, 50.0]), 6, 4, 4.0)
    want = brute_force_effective_set([1.0, 2.0, 50.0], 6, 4, 4.0)
    assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# Adaptive allocation
# ---------------------------------------------------------------------------

def eq22_objective(r, bits, n_t, alpha):
    g2 = math.gamma((2.0 * n_t - 1.0) / (n_t - 1.0))
    return sum((1.0 + ri) ** (-alpha) * g2 * 2.0 ** (-bi / (n_t - 1.0))
               for ri, bi in zip(r, bits))


def exhaustive_best(r, b_i, n_t, alpha):
    n = len(r)
    best = None
    def rec(i, left, cur):
        nonlocal best
        if i == n - 1:
            val = eq22_objective(r, cur + [left], n_t, alpha)
            if best is None or val < best:
                best = val
            return
        for b in range(left + 1):
            rec(i + 1, left - b, cur + [b])
    rec(0, b_i, [])
    return best


def test_adaptive_allocation_budget_and_nonnegativity():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(0, 7))
        r = np.sort(rng.uniform(0.2, 40.0, n))
        b_tot = int(rng.integers(4, 60))
        n_t = n + int(rng.integers(2, 8))
        b0, b_intra = adaptive_allocation(r, b_tot, n_t, 4.0, e_iout=0.5,
                                          inv_snr=0.1)
        assert b0 >= 0 and np.all(b_intra >= 0)
        assert b0 + b_intra.sum() == b_tot
        k = decision(r, b_tot, n_t, 4.0, 0.5, 0.1)[1] if n else 0
        assert np.all(b_intra[k:] == 0)   # no bits beyond the effective set


@pytest.mark.parametrize("n", [0, 2])
def test_adaptive_allocation_rejects_empty_budget(n):
    r = np.linspace(1.0, 2.0, n)
    with pytest.raises(DomainError):
        adaptive_allocation(r, 0, n + 4, 4.0, e_iout=0.5, inv_snr=0.1)


def test_adaptive_stronger_interferers_get_more_bits():
    rng = np.random.default_rng(8)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        r = np.sort(rng.uniform(0.2, 20.0, n))
        _, b_intra = adaptive_allocation(r, 40, n + 4, 4.0, e_iout=0.5,
                                         inv_snr=0.1)
        assert np.all(np.diff(b_intra) <= 0)


def test_adaptive_symmetric_distances_near_equal_bits():
    r = np.full(4, 3.0)
    _, bits = adaptive_allocation(r, 37, 8, 4.0, e_iout=0.4, inv_snr=0.1)
    assert bits.max() - bits.min() <= 1


def test_adaptive_matches_integer_oracle():
    # acceptance-style: returned allocation within 5% of exhaustive optimum
    rng = np.random.default_rng(9)
    for _ in range(60):
        n = int(rng.integers(1, 4))
        r = np.sort(rng.uniform(0.3, 30.0, n))
        n_t = int(rng.choice([4, 6]))
        b_tot = int(rng.integers(n + 2, 20))
        b0, b_intra = adaptive_allocation(r, b_tot, n_t, 4.0, e_iout=0.6,
                                          inv_snr=0.1)
        b_i = b_tot - b0
        if b_i == 0 or b_i > 14:
            continue
        got = eq22_objective(r, b_intra, n_t, 4.0)
        best = exhaustive_best(r, b_i, n_t, 4.0)
        assert got <= best * 1.05 + 1e-12


def test_result5_high_snr_b0_matches_scan():
    # 1-D scan oracle of the high-SNR per-realization objective over integer b0
    n_t, alpha = 6, 4.0
    r = np.array([0.8, 1.1, 1.5])
    b_tot = 30
    e_iout, inv_snr = 1e-9, 1e-9  # force the residual-dominant branch
    b0, _ = adaptive_allocation(r, b_tot, n_t, alpha, e_iout, inv_snr)
    _, k, residual = decision(r, b_tot, n_t, alpha, e_iout, inv_snr)
    assert residual
    g1 = math.gamma(n_t / (n_t - 1.0))
    g2 = math.gamma((2.0 * n_t - 1.0) / (n_t - 1.0))
    gm = np.prod((1.0 + r[:k]) ** (-alpha / k))

    def high_snr_obj(b0):
        return (math.log2(math.e) * g1 * 2.0 ** (-b0 / (n_t - 1.0))
                + math.log2(g2 * k * gm) + (b0 - b_tot) / (k * (n_t - 1.0)))

    scan_best = min(range(b_tot + 1), key=high_snr_obj)
    # ceil-integerized stationary point lands on the scan optimum or its
    # floor neighbor (equal objective to rounding)
    assert b0 in (scan_best, scan_best + 1)
    # continuous stationary point: local optimality against +-1 perturbation
    b0_real = (n_t - 1.0) * math.log2(k * g1)
    assert high_snr_obj(b0_real) <= high_snr_obj(b0_real + 1.0) + 1e-12
    assert high_snr_obj(b0_real) <= high_snr_obj(b0_real - 1.0) + 1e-12


def test_result4_continuous_b0_satisfies_am_gm_equality():
    # 2^(-b0/(n_t-1)) = C0 * 2^(b0/(k(n_t-1))) at the closed-form optimum
    rng = np.random.default_rng(10)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        r = np.sort(rng.uniform(0.3, 10.0, n))
        n_t = n + int(rng.integers(2, 6))
        alpha = 4.0
        b_tot = 200  # large budget keeps the inter-cluster branch active
        e_iout, inv_snr = 2.0, 0.1
        kset = effective_set(r, b_tot - b_tot // (n + 1), n_t, alpha)
        k = len(kset)
        if k == 0:
            continue
        gm = np.prod((1.0 + r[kset]) ** (-alpha / k))
        g1 = math.gamma(n_t / (n_t - 1.0))
        g2 = math.gamma((2.0 * n_t - 1.0) / (n_t - 1.0))
        coef = (n_t - 1.0) * k / (k + 1.0)
        b0 = (b_tot / (k + 1.0)
              - coef * math.log2(n_t * k / (n_t - 1.0) * gm)
              + coef * math.log2(e_iout + inv_snr))
        c0 = (g2 / (e_iout + inv_snr)) * k * 2.0 ** (-b_tot / (k * (n_t - 1.0))) * gm / g1
        lhs = 2.0 ** (-b0 / (n_t - 1.0))
        rhs = c0 * 2.0 ** (b0 / (k * (n_t - 1.0)))
        assert abs(lhs - rhs) < 1e-9 * max(lhs, rhs)


def test_adaptive_equal_distances_match_equal_allocation():
    r = np.full(3, 2.5)
    b0, b_intra = adaptive_allocation(r, 24, 7, 4.0, e_iout=0.5, inv_snr=0.1)
    b_i = 24 - b0
    if decision(r, 24, 7, 4.0, 0.5, 0.1)[1] == 3:
        assert b_intra.max() - b_intra.min() <= 1
        assert b_intra.sum() == b_i


@pytest.mark.parametrize("n", [3, 9])
def test_adaptive_decision_rows_are_independent(n):
    # a stacked batch decides every row as that row alone would be decided;
    # the stacks hold both regimes and empty effective sets
    rng = np.random.default_rng(12)
    rows = np.sort(rng.uniform(0.05, 30.0, (40, n)), axis=1)
    n_t, alpha, e_iout, inv_snr = n + 3, 4.0, 0.02, 0.01
    seen = set()
    for b_tot in (n, 2 * n + 1, 40):
        batch, = adaptive_decision(rows, [b_tot], n_t, alpha, e_iout, inv_snr)
        for i, row in enumerate(rows):
            b0, size, residual = decision(row, b_tot, n_t, alpha, e_iout, inv_snr)
            assert (batch[0][i], batch[1][i], batch[2][i]) == (b0, size, residual)
            seen |= {"residual" if residual else "inter-cluster"}
            seen |= {"empty set"} if size == 0 else set()
    assert seen == {"residual", "inter-cluster", "empty set"}


@pytest.mark.parametrize("regime", ["residual", "inter-cluster"])
def test_one_decision_serves_every_budget(regime):
    # the decision at every budget of one call equals the one-budget call,
    # row by row; and the allocations built on it equal the one-budget ones
    rng = np.random.default_rng((14, regime == "residual"))
    e_iout, inv_snr = (1e-4, 1e-4) if regime == "residual" else (0.5, 0.1)
    budgets = sorted(set(rng.integers(1, 81, 12).tolist()) | {1, 80})
    rows_seen, seen = 0, set()
    for n in range(1, 13):
        rows = np.sort(rng.uniform(0.05, 12.0, (420, n)), axis=1)
        n_t, alpha = n + int(rng.integers(1, 6)), float(rng.choice([3.0, 4.0]))
        shared = adaptive_decision(rows, budgets, n_t, alpha, e_iout, inv_snr)
        assert len(shared) == len(budgets)
        for b_tot, batch in zip(budgets, shared):
            (alone,) = adaptive_decision(rows, [b_tot], n_t, alpha, e_iout,
                                         inv_snr)
            assert batch == alone
            seen |= set(batch[2])
        for row in rows[:20]:
            allocations = feedback.adaptive_allocations(
                row, budgets, n_t, alpha, e_iout, inv_snr)
            for b_tot, (b0, b_intra) in zip(budgets, allocations):
                want_b0, want_intra = adaptive_allocation(
                    row, b_tot, n_t, alpha, e_iout, inv_snr)
                assert b0 == want_b0
                assert np.array_equal(b_intra, want_intra)
        rows_seen += len(rows)
    assert rows_seen >= 5000
    # both regimes appear among the rows of each setting
    assert seen == {True, False}
