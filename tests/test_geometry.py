import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from scipy import stats
from scipy.spatial import HalfspaceIntersection, Voronoi

from clusternull import analysis, geometry
from clusternull.errors import DegenerateRealizationError, DomainError
from clusternull.geometry import (
    FixedNt,
    FollowN,
    NetworkRealization,
    SimConfig,
    build_typical_cluster,
    build_typical_clusters,
    nearest_cluster,
    sample_realization,
    sample_typical_cluster,
    sample_typical_clusters,
    typical_bs_cluster_counts,
)

LAM_B = 1e-4


def cfg_ratio(ratio, **kw):
    return SimConfig(lambda_b=LAM_B, lambda_c=LAM_B / ratio, **kw)


def _accepted_realization(cfg, rng):
    """(realization, cluster) of one `sample_typical_cluster` call, the
    realization replayed from a copy of the generator."""
    replay = np.random.default_rng()
    replay.bit_generator.state = rng.bit_generator.state
    cl, rejections = sample_typical_cluster(cfg, rng)
    for _ in range(rejections + 1):
        net = sample_realization(cfg, replay)
    return net, cl


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(lambda_b=1.0, lambda_c=2.0)
    for lambda_c in (0.0, -0.5, float("nan")):
        with pytest.raises(ValueError):
            SimConfig(lambda_b=1.0, lambda_c=lambda_c)
    with pytest.raises(ValueError):
        SimConfig(alpha=2.0, lambda_c=0.5)
    with pytest.raises(ValueError):
        SimConfig(lambda_c=0.5, trials=0)
    for kw in ({"antenna_mode": FollowN(0)}, {"antenna_mode": FixedNt(0)},
               {"window_cluster_count": 0.0}, {"window_cluster_count": -3.0},
               # non-finite model values, noise power that overflows and a
               # seed default_rng refuses
               {"alpha": math.nan}, {"alpha": math.inf}, {"lambda_b": math.inf},
               {"snr_db": math.nan}, {"snr_db": -math.inf}, {"snr_db": -4000.0},
               {"seed": -1}):
        with pytest.raises(ValueError):
            SimConfig(lambda_c=0.5, **kw)
    # snr_db = +inf is the noise-free limit
    assert SimConfig(lambda_c=0.5, snr_db=math.inf).inv_snr == 0.0


def test_config_is_a_hashable_value():
    # a run groups its trial collections by the config itself
    a, b = SimConfig(lambda_c=0.5), SimConfig(lambda_c=0.5)
    assert a == b and hash(a) == hash(b)
    assert len({a, b, replace(a, seed=1)}) == 2
    with pytest.raises(FrozenInstanceError):
        a.seed = 1


def test_poisson_count_mean():
    cfg = cfg_ratio(3.0)
    rng = np.random.default_rng(0)
    counts = np.array([len(sample_realization(cfg, rng).bs_points)
                       for _ in range(3000)])
    mean_target = cfg.lambda_b * np.pi * cfg.window_radius ** 2
    se = counts.std() / np.sqrt(len(counts))
    assert abs(counts.mean() - mean_target) < 3.0 * se


def test_association_is_argmin_and_permutation_invariant():
    cfg = cfg_ratio(3.0)
    rng = np.random.default_rng(1)
    net = sample_realization(cfg, rng)
    d2 = ((net.bs_points[:, None, :] - net.cluster_points[None, :, :]) ** 2).sum(axis=2)
    assert np.array_equal(nearest_cluster(net.bs_points, net.cluster_points),
                          d2.argmin(axis=1))

    perm = np.random.default_rng(2).permutation(len(net.cluster_points))
    net2 = NetworkRealization(
        bs_points=net.bs_points,
        cluster_points=net.cluster_points[perm],
        window_radius=net.window_radius,
    )
    c1 = build_typical_cluster(net)
    c2 = build_typical_cluster(net2)
    assert c1.r0 == c2.r0
    assert np.allclose(sorted(c1.intra_dist), sorted(c2.intra_dist))
    assert np.isclose(c1.r_m, c2.r_m)
    assert np.isclose(c1.cell_reach, c2.cell_reach)


def test_two_station_toy_network():
    net = NetworkRealization(
        bs_points=np.array([[1.0, 0.0], [0.0, 2.0]]),
        cluster_points=np.array([[0.5, 0.5], [40.0, 40.0]]),
        window_radius=50.0,
    )
    cl = build_typical_cluster(net)
    assert cl.r0 == pytest.approx(1.0)
    assert cl.n_interferers == 1
    assert cl.intra_dist[0] == pytest.approx(2.0)


def test_serving_is_nearest_and_radii_ordered():
    cfg = cfg_ratio(3.0)
    rng = np.random.default_rng(3)
    for _ in range(200):
        net, cl = _accepted_realization(cfg, rng)
        bs_dist = np.hypot(*net.bs_points.T)
        assert cl.r0 == pytest.approx(bs_dist.min())
        if cl.n_interferers:
            assert cl.intra_dist.min() > cl.r0
            assert np.all(np.diff(cl.intra_dist) >= 0)
        if len(cl.out_dist):
            assert cl.out_dist.min() > cl.r0


def _block_of_one(net):
    return build_typical_clusters([net])[0]


# both extraction paths: the scalar reference and the block path
EXTRACTORS = (build_typical_cluster, _block_of_one)


def test_cell_matches_scipy_voronoi():
    # independent oracle: the serving station's region in the Voronoi
    # diagram of all cluster stations.  Where that region is bounded and
    # inside the window's square, the square cut is a no-op, so its farthest
    # vertex is the cell reach and its nearest edge sits at r_m.
    checked = 0
    for ratio in (1.0, 3.0, 6.0):
        cfg = cfg_ratio(ratio)
        rng = np.random.default_rng((4, int(ratio)))
        for _ in range(50):
            net = sample_realization(cfg, rng)
            try:
                cls = [extract(net) for extract in EXTRACTORS]
            except DegenerateRealizationError:
                continue
            c0_idx = nearest_cluster(net.bs_points, net.cluster_points)[
                np.argmin(np.hypot(*net.bs_points.T))]
            c0 = net.cluster_points[c0_idx]
            vor = Voronoi(net.cluster_points)
            region = vor.regions[vor.point_region[c0_idx]]
            if not region or -1 in region:
                continue
            poly = vor.vertices[region]
            if np.abs(poly).max() >= net.window_radius:
                continue
            angle = np.arctan2(poly[:, 1] - c0[1], poly[:, 0] - c0[0])
            poly = poly[np.argsort(angle)]
            a, b = poly, np.roll(poly, -1, axis=0)
            t = np.clip(np.einsum("ij,ij->i", c0 - a, b - a)
                        / np.einsum("ij,ij->i", b - a, b - a), 0.0, 1.0)
            edge_dist = np.hypot(*(c0 - (a + t[:, None] * (b - a))).T)
            for cl in cls:
                assert cl.cell_reach == pytest.approx(
                    np.hypot(*poly.T).max(), rel=1e-12)
                assert cl.r_m == pytest.approx(edge_dist.min(), rel=1e-12)
            checked += 1
    assert checked >= 100


def _qhull_cell(net, c0_idx):
    """Vertices of the serving cell from scipy's half-space intersection:
    the bisector half-planes of c0 and the window's bounding square."""
    c0 = net.cluster_points[c0_idx]
    delta = np.delete(net.cluster_points, c0_idx, axis=0) - c0
    square = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    halfspaces = np.vstack([
        np.column_stack([delta, -np.einsum("ij,ij->i", delta, c0 + 0.5 * delta)]),
        np.column_stack([square, np.full(4, -net.window_radius)])])
    return HalfspaceIntersection(halfspaces, c0).intersections


@pytest.mark.parametrize("ratio", [1.0, 3.0, 30.0])
@pytest.mark.parametrize("window_clusters", [6.0, 100.0])
def test_square_cut_cell_matches_qhull(window_clusters, ratio):
    # the cells `test_cell_matches_scipy_voronoi` skips: a vertex on the
    # window's square.  A 100-cluster window's serving cell almost never
    # reaches the square, so there the square is pulled in across the cell
    # (c0 stays strictly inside it).  A vertex on the square puts the reach
    # at or past the square's half-side, so the guard rejects every such
    # cell: the clip must agree.
    cfg = SimConfig(lambda_b=LAM_B, lambda_c=LAM_B / ratio,
                    window_cluster_count=window_clusters)
    rng = np.random.default_rng((21, int(ratio), int(window_clusters)))
    checked = 0
    for _ in range(100):
        net = sample_realization(cfg, rng)
        if len(net.bs_points) == 0 or len(net.cluster_points) < 2:
            continue
        c0_idx = nearest_cluster(net.bs_points, net.cluster_points)[
            np.argmin(np.hypot(*net.bs_points.T))]
        vertices = _qhull_cell(net, c0_idx)
        if np.abs(vertices).max() < net.window_radius * (1.0 - 1e-9):
            if window_clusters < 100.0:
                continue
            inner = np.abs(net.cluster_points[c0_idx]).max()
            net = NetworkRealization(
                bs_points=net.bs_points, cluster_points=net.cluster_points,
                window_radius=0.5 * (inner + np.abs(vertices).max()))
            vertices = _qhull_cell(net, c0_idx)
        reach = np.hypot(*vertices.T).max()
        guard = 0.9 * net.window_radius
        for extract in EXTRACTORS:
            cl = extract(net)
            assert cl.cell_reach == pytest.approx(reach, rel=1e-12)
            assert (cl.cell_reach > guard) == (reach > guard)
        checked += 1
    assert checked >= 50


def test_r0_distribution():
    cfg = cfg_ratio(3.0)
    rng = np.random.default_rng(5)
    r0s = np.array([sample_typical_cluster(cfg, rng)[0].r0 for _ in range(20000)])
    d, _ = stats.kstest(r0s, lambda r: 1.0 - np.exp(-np.pi * cfg.lambda_b * r ** 2))
    assert d < 0.01


def test_inscribed_radius_rayleigh_law():
    # Foss-Zuyev law for the typical cell: P[r_m > r] = exp(-4 pi lam r^2).
    # Validated on uniformly chosen cluster stations; the serving cluster is
    # area-biased and provably deviates (see test below).
    cfg = cfg_ratio(3.0)
    rng = np.random.default_rng(6)
    rms = []
    for _ in range(4000):
        net = sample_realization(cfg, rng)
        if len(net.cluster_points) < 2:
            continue
        k = int(rng.integers(len(net.cluster_points)))
        if np.hypot(*net.cluster_points[k]) > 0.6 * net.window_radius:
            continue
        others = np.delete(net.cluster_points, k, axis=0)
        rms.append(0.5 * np.hypot(*(others - net.cluster_points[k]).T).min())
    rms = np.asarray(rms)
    grid = np.quantile(rms, [0.2, 0.5, 0.8])
    for r in grid:
        emp = (rms > r).mean()
        want = np.exp(-4.0 * np.pi * cfg.lambda_c * r ** 2)
        se = np.sqrt(want * (1 - want) / len(rms))
        assert abs(emp - want) < 3.5 * se


def test_serving_cluster_inscribed_radius_is_biased_up():
    # the serving cluster contains the BS nearest the user: an area-biased
    # cell whose inscribed radius is stochastically larger than typical
    cfg = cfg_ratio(3.0)
    rng = np.random.default_rng(7)
    rms = np.array([sample_typical_cluster(cfg, rng)[0].r_m for _ in range(4000)])
    median_typical = np.sqrt(np.log(2.0) / (4.0 * np.pi * cfg.lambda_c))
    assert (rms > median_typical).mean() > 0.55


def test_interferer_count_pmf_lemma_fit():
    cfg = cfg_ratio(3.0)
    rng = np.random.default_rng(8)
    counts = []
    while len(counts) < 100_000:
        counts.extend(typical_bs_cluster_counts(sample_realization(cfg, rng)))
    counts = np.asarray(counts[:100_000])
    w = analysis.pmf_weights(3.0)
    m = max(len(w), counts.max() + 1)
    hist = np.bincount(counts, minlength=m) / len(counts)
    pmf = np.zeros(m)
    pmf[: len(w)] = w
    tv = 0.5 * np.abs(hist - pmf).sum()
    assert tv < 0.03


def test_degenerate_realizations_rejected(monkeypatch):
    net = NetworkRealization(
        bs_points=np.zeros((0, 2)),
        cluster_points=np.zeros((0, 2)),
        window_radius=10.0,
    )
    with pytest.raises(DegenerateRealizationError):
        build_typical_cluster(net)
    # guard annulus: the sampler rejects a cell stretching to the window
    # edge (the extractor reports its reach and leaves the rule to it)
    net = NetworkRealization(
        bs_points=np.array([[0.5, 0.0]]),
        cluster_points=np.array([[0.0, 0.0], [30.0, 0.0]]),
        window_radius=10.0,
    )
    assert build_typical_cluster(net).cell_reach > 0.9 * net.window_radius
    monkeypatch.setattr(geometry, "sample_realization", lambda cfg, rng: net)
    with pytest.raises(DegenerateRealizationError):
        sample_typical_cluster(cfg_ratio(3.0), np.random.default_rng(0),
                               max_attempts=3)


def test_reproducible_sampling():
    cfg = cfg_ratio(3.0, seed=42)
    a = sample_realization(cfg, np.random.default_rng((42, 0)))
    b = sample_realization(cfg, np.random.default_rng((42, 0)))
    assert np.array_equal(a.bs_points, b.bs_points)
    assert np.array_equal(a.cluster_points, b.cluster_points)


@pytest.mark.parametrize("ratio", [1.0, 3.0, 6.0])
def test_association_matches_dense_argmin(ratio):
    # the coordinate-wise distance sum gives the same squares and the same
    # single addition as the dense (n_b, n_c, 2) sum, hence the same argmin
    cfg = cfg_ratio(ratio)
    rng = np.random.default_rng((17, int(ratio)))
    for _ in range(30):
        net = sample_realization(cfg, rng)
        bs, cl = net.bs_points, net.cluster_points
        d2 = ((bs[:, None, :] - cl[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(nearest_cluster(bs, cl), d2.argmin(axis=1))


@pytest.mark.parametrize("ratio", [1.0, 3.0, 6.0])
@pytest.mark.parametrize("lambda_b", [1e-4, 1.0])
def test_candidate_association_matches_full_map(lambda_b, ratio):
    # extraction associates only the stations within the cell's farthest
    # vertex of c0; its cluster must equal the one the full map gives, in
    # the same order, on every realization the guard rule would see
    cfg = SimConfig(lambda_b=lambda_b, lambda_c=lambda_b / ratio)
    rng = np.random.default_rng((18, int(ratio), int(lambda_b)))
    checked = 0
    while checked < 100:
        net = sample_realization(cfg, rng)
        try:
            cl = build_typical_cluster(net)
        except DegenerateRealizationError:
            continue
        assoc = nearest_cluster(net.bs_points, net.cluster_points)
        bs_dist = np.hypot(net.bs_points[:, 0], net.bs_points[:, 1])
        serving = int(np.argmin(bs_dist))
        same = assoc == assoc[serving]
        same[serving] = False
        others = ~same
        others[serving] = False
        assert cl.r0 == bs_dist[serving]
        assert np.array_equal(cl.intra_dist, np.sort(bs_dist[same]))
        assert np.array_equal(cl.out_dist, bs_dist[others])
        checked += 1


def test_extraction_associates_only_candidates(monkeypatch):
    # only the candidate rows (the serving station's row is associated
    # inline): never the dense map over every station of the window
    rows = []
    real = geometry.nearest_cluster

    def counting(points, clusters):
        rows.append(len(points))
        return real(points, clusters)

    monkeypatch.setattr(geometry, "nearest_cluster", counting)
    cfg = cfg_ratio(3.0)
    rng = np.random.default_rng(19)
    for _ in range(20):
        net = sample_realization(cfg, rng)
        rows.clear()
        build_typical_cluster(net)
        assert len(rows) == 1
        assert rows[0] < len(net.bs_points) / 4


def _assert_same_draw(got, want):
    (a, rej_a), (b, rej_b) = got, want
    assert rej_a == rej_b
    assert (a.r0, a.r_m, a.cell_reach) == (b.r0, b.r_m, b.cell_reach)
    for x, y in ((a.intra_dist, b.intra_dist), (a.out_dist, b.out_dist)):
        assert x.dtype == y.dtype and x.shape == y.shape
        assert np.array_equal(x, y)


def _block_matches_scalar(cfg, count, seed):
    """Block sampler against the scalar sampler on streams (seed, i), the
    streams left where the scalar sampler leaves them; returns the
    rejections the scalar sampler made."""
    rngs = [np.random.default_rng((seed, i)) for i in range(count)]
    block = sample_typical_clusters(cfg, rngs)
    assert len(block) == count
    rejections = 0
    for i, (got, rng) in enumerate(zip(block, rngs)):
        alone = np.random.default_rng((seed, i))
        want = sample_typical_cluster(cfg, alone)
        _assert_same_draw(got, want)
        assert rng.bit_generator.state == alone.bit_generator.state
        rejections += want[1]
    return rejections


@pytest.mark.parametrize("ratio", [1.0, 3.0, 6.0, 30.0])
@pytest.mark.parametrize("lambda_b", [1e-4, 1.0])
def test_block_sampler_matches_scalar(lambda_b, ratio):
    # field for field the scalar floats, so a stream's trial reads the same
    # cluster either way
    cfg = SimConfig(lambda_b=lambda_b, lambda_c=lambda_b / ratio)
    _block_matches_scalar(cfg, 300 if ratio < 30.0 else 100, 23)


@pytest.mark.parametrize("window_clusters", [3.0, 6.0, 100.0])
def test_block_sampler_matches_scalar_through_rejections(window_clusters):
    # small windows reject often: degenerate windows (fewer than two cluster
    # stations) and cells reaching the guard annulus, so streams of a block
    # draw again a different number of times
    cfg = cfg_ratio(3.0, window_cluster_count=window_clusters)
    rejections = _block_matches_scalar(cfg, 300, 24)
    if window_clusters < 100.0:
        assert rejections > 100
    if window_clusters == 3.0:
        rng = np.random.default_rng(25)
        nets = [sample_realization(cfg, rng) for _ in range(100)]
        assert any(len(net.cluster_points) < 2 for net in nets)


def test_block_sampler_splits_blocks():
    cfg = cfg_ratio(3.0)
    block = geometry.block_size(cfg)
    assert 1 < block < 1000
    for count in (1, block, block + 1):
        _block_matches_scalar(cfg, count, 26)
    assert sample_typical_clusters(cfg, []) == []
    # block sizes shrink with the window's station count
    assert geometry.block_size(cfg_ratio(30.0)) < block
    assert geometry.block_size(cfg_ratio(1000.0)) >= 1


def test_block_sampler_refuses_before_any_draw():
    cfg = cfg_ratio(3.0, window_cluster_count=1e300)
    rng = np.random.default_rng(27)
    state = rng.bit_generator.state
    with pytest.raises(DomainError):
        sample_typical_clusters(cfg, [rng])
    assert rng.bit_generator.state == state


def test_typical_user_count_dominates_pmf_n():
    # the bounds mix pmf_n, the law of a typical base station's cluster.  The
    # typical user's serving cluster holds stochastically fewer stations: its
    # Monte Carlo CDF lies on or above pmf_n's at every n, within its CI.
    # With 8000 draws and seed 99, N averages 0.988, 3.374 and 7.020 against
    # pmf_n's 1.286, 3.857 and 7.714, so the FixedNt icin and equal-policy
    # rate-loss bounds, which both worsen with N, stay on the safe side.
    draws = 8000
    for ratio in (1.0, 3.0, 6.0):
        cfg = cfg_ratio(ratio, seed=99)
        step = geometry.block_size(cfg)
        counts = []
        for lo in range(0, draws, step):
            rngs = [np.random.default_rng((99, i))
                    for i in range(lo, min(lo + step, draws))]
            counts += [cl.n_interferers
                       for cl, _ in sample_typical_clusters(cfg, rngs)]
        cdf = np.cumsum(np.bincount(counts)) / draws
        pmf_cdf = np.cumsum([analysis.pmf_n(n, ratio) for n in range(len(cdf))])
        ci = 1.96 * np.sqrt(cdf * (1.0 - cdf) / draws)
        assert np.all(cdf + ci >= pmf_cdf)
        assert cdf[0] > pmf_cdf[0] + 0.005
