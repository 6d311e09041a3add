"""Two-tier Poisson deployment sampling and typical-cluster extraction.

Units: densities are free parameters and lengths are in the units the
path loss (1+r)^alpha is written in.  That law is not scale free: the +1
fixes a physical length, so the model and its bounds depend on the
absolute density lambda_b, not only on lambda_b/lambda_c and alpha.  The
observation window is a disk around the typical user (the origin) holding
`window_cluster_count` clusters on average.  `sample_typical_clusters`
rejects realizations whose serving cluster cell reaches the outer 10%
annulus of the window, to suppress edge effects; `build_typical_cluster`
extracts the cluster of any realization and leaves that rule to the
sampler.  The cell (the Voronoi cell of the serving cluster station c0,
cut to the window's bounding square) is the square clipped, in plain
floats and coordinates centred on c0, by the bisector half-planes
delta . y <= |delta|^2 / 2 of the other cluster stations, nearest first.
The clip stops at the first station whose distance d from c0 exceeds
twice the polygon's current reach from c0.  That stop is exact: every
vertex y then has delta . y <= d |y| < d^2 / 2, so the bisector cuts
nothing, and every later station is farther still.  The cell's reach
from the user serves the guard rule.

Association is nearest-point, but a realization carries no association
map: extraction associates only the serving cluster's candidate members,
the base stations no farther from the serving cluster station than the
cell's farthest vertex.  Every base station lies in the window disk, so
every member lies in the cut cell and the candidates contain them all.
`nearest_cluster` over all base stations gives the full map on demand.

`sample_typical_clusters` is the one sampler.  It takes the streams a
block at a time, and each stream of a block draws its realizations in one
order (`_draw`), so every stream's tape is the same whatever the block
holds.  One rejection loop serves a lone stream and a block alike: each
pass extracts its usable realizations together, through
`build_typical_cluster` when a pass holds one and through the padded
block extractor (a vectorized cell clip with `_clip`'s arithmetic, and
`math.hypot` for the reach, which `np.hypot` may round differently) when
it holds more.  Both give the same floats, field for field.
"""

import itertools
import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import DegenerateRealizationError, DomainError

_GUARD_FRACTION = 0.9
_INTERIOR_FRACTION = 0.7   # window share whose cluster stations are counted
# Most base stations a window may hold on average (window_cluster_count x
# ratio; 100 000 is ratio 1000 at the default window).  A trial's channel
# matrices grow with the square of the cluster size, which grows with the
# ratio: ratio 2e5 asks for about 900 GiB.
_MAX_WINDOW_STATIONS = 1e5
_MAX_ATTEMPTS = 1000        # realizations a stream may draw for one cluster
# `sample_typical_clusters` takes streams in blocks of at most
# _BLOCK_STREAMS whose windows hold about _BLOCK_STATIONS base stations in
# all, so each padded block array stays near 1 MB.
_BLOCK_STREAMS = 256
_BLOCK_STATIONS = 2 ** 17


@dataclass(frozen=True)
class FollowN:
    """Antennas track the interferer count: n_t = N + d_nt."""

    d_nt: int


@dataclass(frozen=True)
class FixedNt:
    """Preset antenna count; nulling applied only when N < n_t."""

    n_t: int


AntennaMode = Union[FollowN, FixedNt]


@dataclass(frozen=True)
class SimConfig:
    lambda_b: float = 1.0
    lambda_c: float = 1.0 / 3.0
    alpha: float = 4.0
    snr_db: float = 10.0
    antenna_mode: AntennaMode = field(default_factory=lambda: FollowN(4))
    trials: int = 1000
    seed: int = 0
    window_cluster_count: float = 100.0

    def __post_init__(self):
        if not 0.0 < self.lambda_c <= self.lambda_b < math.inf:
            raise ValueError("requires 0 < lambda_c <= lambda_b < inf")
        if not 2.0 < self.alpha < math.inf:
            raise ValueError("requires a finite alpha > 2 for integrable interference")
        try:
            noise = self.inv_snr
        except OverflowError:
            noise = math.inf
        if not math.isfinite(noise):
            # snr_db = +inf, the noise-free limit, has noise 0 and passes
            raise ValueError(f"requires an snr_db whose noise power "
                             f"10^(-snr_db/10) is finite, got {self.snr_db!r}")
        if self.trials < 1:
            raise ValueError("requires trials >= 1")
        if self.seed < 0:
            raise ValueError(f"requires seed >= 0, got {self.seed!r}")
        mode = self.antenna_mode
        if (mode.d_nt if isinstance(mode, FollowN) else mode.n_t) < 1:
            raise ValueError(f"requires dnt >= 1 and nt >= 1, got {mode}")
        if not 0.0 < self.window_cluster_count < math.inf:
            raise ValueError("requires a finite window_cluster_count > 0")

    @property
    def ratio(self):
        return self.lambda_b / self.lambda_c

    @property
    def inv_snr(self):
        """Noise-to-signal power 1/SNR = sigma^2 / E_s."""
        return 10.0 ** (-self.snr_db / 10.0)

    @property
    def window_radius(self):
        return math.sqrt(self.window_cluster_count / (math.pi * self.lambda_c))


@dataclass
class NetworkRealization:
    bs_points: np.ndarray       # (n_b, 2)
    cluster_points: np.ndarray  # (n_c, 2)
    window_radius: float


@dataclass
class TypicalCluster:
    r0: float                 # user -> serving BS
    intra_dist: np.ndarray    # user -> other BSs of the serving cluster, ascending
    r_m: float                # inscribed radius of the cluster cell
    out_dist: np.ndarray      # user -> every other BS in the window
    cell_reach: float         # farthest cluster-cell vertex from the user

    @property
    def n_interferers(self):
        return len(self.intra_dist)


def _window_means(cfg):
    """(radius, mean base-station count, mean cluster-station count) of the
    window; DomainError past _MAX_WINDOW_STATIONS base stations, or when
    the path loss (1 + radius)^alpha at the window's edge overflows (a
    density so low that a trial's SINR would read 0/0)."""
    radius = cfg.window_radius
    area = math.pi * radius * radius
    mean_b = cfg.lambda_b * area
    if not mean_b <= _MAX_WINDOW_STATIONS:
        raise DomainError(
            f"the window holds {mean_b:.3g} base stations on average "
            f"(window_cluster_count x ratio), over the {_MAX_WINDOW_STATIONS:g} "
            "a realization may sample")
    try:
        edge_loss = (1.0 + radius) ** cfg.alpha
    except OverflowError:
        edge_loss = math.inf
    if not edge_loss < math.inf:
        raise DomainError(
            f"lambda_b = {cfg.lambda_b:g} is too low to sample: the path loss "
            f"(1 + r)^alpha overflows at the window radius {radius:.3g}")
    return radius, mean_b, cfg.lambda_c * area


def _draw(rng, mean_b, mean_c):
    """One realization's draws, in the order every sampler makes them: the
    Poisson counts n_b and n_c, then the base stations' radius and angle
    uniforms, then the cluster stations'."""
    n_b = rng.poisson(mean_b)
    n_c = rng.poisson(mean_c)
    return [rng.random(n) for n in (n_b, n_b, n_c, n_c)]


def _disk_points(radius, u_r, u_theta):
    """(x, y) of the uniform points on the disk of `radius` that the radius
    uniforms u_r and angle uniforms u_theta give."""
    r = radius * np.sqrt(u_r)
    theta = 2.0 * math.pi * u_theta
    return r * np.cos(theta), r * np.sin(theta)


def _realization(radius, draw):
    """The deployment that one `_draw` gives on the window of `radius`."""
    bs, clusters = (np.empty((len(u_r), 2)) for u_r in draw[::2])
    bs[:, 0], bs[:, 1] = _disk_points(radius, *draw[:2])
    clusters[:, 0], clusters[:, 1] = _disk_points(radius, *draw[2:])
    return NetworkRealization(bs_points=bs, cluster_points=clusters,
                              window_radius=radius)


def sample_realization(cfg, rng):
    """One deployment: Poisson counts on the disk window, then uniform
    base-station and cluster-station positions.  DomainError, before any
    draw, as `_window_means`."""
    radius, mean_b, mean_c = _window_means(cfg)
    return _realization(radius, _draw(rng, mean_b, mean_c))


def nearest_cluster(points, clusters):
    """Index of the nearest cluster station to each row of `points`; ties
    go to the lower index.  A row's answer does not depend on the other
    rows, so associating a subset gives the full map's entries."""
    dx = points[:, 0, None] - clusters[None, :, 0]
    dy = points[:, 1, None] - clusters[None, :, 1]
    return np.argmin(dx * dx + dy * dy, axis=1)


def _clip(poly, ax, ay, b):
    """Convex polygon (vertex list) cut to the half-plane ax*x + ay*y <= b."""
    out = []
    px, py = poly[-1]
    sp = ax * px + ay * py - b
    for qx, qy in poly:
        sq = ax * qx + ay * qy - b
        if sp * sq < 0.0:
            t = sp / (sp - sq)
            out.append((px + t * (qx - px), py + t * (qy - py)))
        if sq <= 0.0:
            out.append((qx, qy))
        px, py, sp = qx, qy, sq
    return out


def build_typical_cluster(net):
    """Extract the tagged cluster around the typical user at the origin.

    Raises DegenerateRealizationError (caller resamples) when the window
    lacks base or cluster stations.  Edge effects are the sampler's
    concern: `cell_reach` reports how far the cell extends.
    """
    n_b = len(net.bs_points)
    n_c = len(net.cluster_points)
    if n_b == 0 or n_c < 2:
        raise DegenerateRealizationError("window lacks base or cluster stations")

    bs_dist = np.hypot(net.bs_points[:, 0], net.bs_points[:, 1])
    serving = int(bs_dist.argmin())
    r0 = float(bs_dist[serving])
    # the serving station's row of `nearest_cluster`
    dx = net.bs_points[serving, 0] - net.cluster_points[:, 0]
    dy = net.bs_points[serving, 1] - net.cluster_points[:, 1]
    c0_idx = int((dx * dx + dy * dy).argmin())
    c0 = net.cluster_points[c0_idx]
    c0x, c0y = c0.tolist()

    delta = net.cluster_points - c0
    dist = np.hypot(delta[:, 0], delta[:, 1])
    order = dist.argsort()[1:]
    r_m = 0.5 * float(dist[order[0]])

    # the cell centred on c0 (see the module docstring for the stop rule)
    x0, x1 = -net.window_radius - c0x, net.window_radius - c0x
    y0, y1 = -net.window_radius - c0y, net.window_radius - c0y
    poly = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    reach2 = max(x * x + y * y for x, y in poly)
    for (ax, ay), d in zip(delta[order].tolist(), dist[order].tolist()):
        if d * d > 4.0 * reach2:
            break
        cut = _clip(poly, ax, ay, 0.5 * (ax * ax + ay * ay))
        if cut != poly:  # about half the clips cut nothing
            poly = cut
            reach2 = max(x * x + y * y for x, y in poly)
    cell_reach = max(math.hypot(x + c0x, y + c0y) for x, y in poly)

    # members lie in the cut cell, so within its farthest vertex of c0; the
    # margin covers the vertices' round-off
    c0_reach = math.sqrt(reach2) * (1.0 + 1e-9)
    offset = net.bs_points - c0
    candidates = np.flatnonzero(np.hypot(offset[:, 0], offset[:, 1]) <= c0_reach)
    members = candidates[nearest_cluster(net.bs_points[candidates],
                                         net.cluster_points) == c0_idx]

    same = np.zeros(n_b, dtype=bool)
    same[members] = True
    same[serving] = False
    intra_dist = np.sort(bs_dist[same])
    others = ~same
    others[serving] = False
    out_dist = bs_dist[others]

    return TypicalCluster(
        r0=r0,
        intra_dist=intra_dist,
        r_m=r_m,
        out_dist=out_dist,
        cell_reach=cell_reach,
    )


def typical_bs_cluster_counts(net):
    """Interferer counts seen by every base station whose cluster station
    lies in the window interior.

    This is the area-biased sampling behind the interferer-count PMF: each
    cluster cell contributes one count per member station, i.e. the count
    of the cell containing a uniformly chosen base station.  (The serving
    cluster of the typical user is NOT this object: the empty disk around
    the user thins its cell, which is exactly why the PMF is validated on
    this construction.)
    """
    if len(net.bs_points) == 0 or len(net.cluster_points) == 0:
        return np.zeros(0, dtype=int)
    assoc = nearest_cluster(net.bs_points, net.cluster_points)
    members = np.bincount(assoc, minlength=len(net.cluster_points))
    station_r = np.hypot(*net.cluster_points.T)
    interior = station_r <= _INTERIOR_FRACTION * net.window_radius
    peers = members[assoc] - 1
    return peers[interior[assoc]]


def _block_size(cfg):
    """Streams per block of `sample_typical_clusters` under cfg, whose
    windows hold ratio x window_cluster_count base stations on average."""
    mean_b = max(cfg.ratio * cfg.window_cluster_count, 1.0)
    return max(1, min(_BLOCK_STREAMS, int(_BLOCK_STATIONS / mean_b)))


def sample_typical_clusters(cfg, streams):
    """Typical clusters whose cells stay clear of the window's guard
    annulus: one (rng, cluster, rejections) for each generator of the
    iterable `streams`, in order, `rejections` counting the realizations
    drawn on rng before its cluster's.

    The streams are taken lazily, one block at a time; each stream draws
    until it is accepted, so its tape does not depend on the block.
    DomainError on the call, before any stream is read, as `_window_means`;
    DegenerateRealizationError when a stream has no acceptable realization
    in _MAX_ATTEMPTS.
    """
    radius, mean_b, mean_c = _window_means(cfg)
    return _sample(iter(streams), _block_size(cfg), radius, mean_b, mean_c)


def _sample(streams, step, radius, mean_b, mean_c):
    while block := list(itertools.islice(streams, step)):
        found = [None] * len(block)
        rejections = [0] * len(block)
        pending = range(len(block))
        for _ in range(_MAX_ATTEMPTS):
            draws = {k: _draw(block[k], mean_b, mean_c) for k in pending}
            # build_typical_cluster refuses a window without base stations
            # or with fewer than two cluster stations
            usable = [k for k, d in draws.items() if len(d[0]) > 0 and len(d[2]) > 1]
            clusters = _extract(radius, [draws[k] for k in usable])
            for k, cluster in zip(usable, clusters):
                if cluster.cell_reach <= _GUARD_FRACTION * radius:
                    found[k] = cluster
            pending = [k for k in pending if found[k] is None]
            if not pending:
                break
            for k in pending:
                rejections[k] += 1
        else:
            raise DegenerateRealizationError(
                f"no acceptable realization in {_MAX_ATTEMPTS} attempts")
        yield from zip(block, found, rejections)


def _extract(radius, draws):
    """The typical clusters of one pass's usable draws: a lone realization
    through `build_typical_cluster`, more through the padded extractor."""
    if len(draws) < 2:
        return [build_typical_cluster(_realization(radius, d)) for d in draws]
    u_rb, u_tb, u_rc, u_tc = zip(*draws)

    def rows(u_r, u_theta):
        return _padded_rows(*_disk_points(radius, np.concatenate(u_r),
                                          np.concatenate(u_theta)),
                            np.array([len(u) for u in u_r]))

    return _extract_block(np.full(len(draws), radius),
                          rows(u_rb, u_tb), rows(u_rc, u_tc))


def _padded_rows(x, y, counts):
    """(x, y, counts) with row i holding the next counts[i] points of the
    flat coordinates x and y, padded with inf: padding sorts last and never
    wins an argmin."""
    used = np.arange(counts.max()) < counts[:, None]
    px = np.full(used.shape, np.inf)
    py = np.full(used.shape, np.inf)
    px[used], py[used] = x, y
    return px, py, counts


def build_typical_clusters(nets):
    """`build_typical_cluster` of every realization in `nets` at once, field
    for field equal to it; DegenerateRealizationError if any realization
    lacks base or cluster stations."""
    if any(len(net.bs_points) == 0 or len(net.cluster_points) < 2 for net in nets):
        raise DegenerateRealizationError("window lacks base or cluster stations")

    def rows(points):
        flat = np.concatenate(points)
        return _padded_rows(flat[:, 0], flat[:, 1],
                            np.array([len(p) for p in points]))

    return _extract_block(np.array([net.window_radius for net in nets]),
                          rows([net.bs_points for net in nets]),
                          rows([net.cluster_points for net in nets]))


def _extract_block(radius, bs, clusters):
    """The typical clusters of a block of realizations, row for row the
    floats of `build_typical_cluster`: window radii, and padded (x, y,
    count) rows of base stations (at least one a row) and of cluster
    stations (at least two)."""
    bx, by, n_b = bs
    cx, cy, _ = clusters
    rows = np.arange(len(radius))
    bs_dist = np.hypot(bx, by)
    serving = bs_dist.argmin(axis=1)
    dx = bx[rows, serving, None] - cx
    dy = by[rows, serving, None] - cy
    c0_idx = (dx * dx + dy * dy).argmin(axis=1)
    c0x, c0y = cx[rows, c0_idx], cy[rows, c0_idx]
    delta_x, delta_y = cx - c0x[:, None], cy - c0y[:, None]
    dist = np.hypot(delta_x, delta_y)
    order = dist.argsort(axis=1)[:, 1:]
    r_m = 0.5 * dist[rows, order[:, 0]]

    cells = _clip_cells(radius, c0x, c0y, delta_x, delta_y, dist, order)
    cell_reach = [max(math.hypot(x + x0, y + y0) for x, y in poly)
                  for (poly, _), x0, y0 in zip(cells, c0x.tolist(), c0y.tolist())]
    reach2 = np.array([r2 for _, r2 in cells])

    # members: the candidates within the cell's reach of c0 (with a margin
    # over `build_typical_cluster`'s radius for the squared distances'
    # round-off), each associated among the cluster stations within twice
    # that reach of c0, in index order.  Every station nearest to a
    # candidate, or tied with the nearest, lies there, so the argmin is
    # `nearest_cluster`'s.
    lim = np.sqrt(reach2) * (1.0 + 1e-9) * (1.0 + 1e-9)
    ox, oy = bx - c0x[:, None], by - c0y[:, None]
    cand_r, cand_j = np.nonzero(ox * ox + oy * oy <= (lim * lim)[:, None])
    near = dist <= 2.0 * lim[:, None]
    near_count = near.sum(axis=1)
    slots = np.arange(near_count.max()) < near_count[:, None]
    near_r, near_j = np.nonzero(near)
    near_x = np.full(slots.shape, np.inf)
    near_y = np.full(slots.shape, np.inf)
    near_idx = np.zeros(slots.shape, dtype=int)
    near_x[slots] = cx[near_r, near_j]
    near_y[slots] = cy[near_r, near_j]
    near_idx[slots] = near_j
    ddx = bx[cand_r, cand_j, None] - near_x[cand_r]
    ddy = by[cand_r, cand_j, None] - near_y[cand_r]
    nearest = near_idx[cand_r, (ddx * ddx + ddy * ddy).argmin(axis=1)]
    member = nearest == c0_idx[cand_r]

    same = np.zeros(bx.shape, dtype=bool)
    same[cand_r[member], cand_j[member]] = True
    same[rows, serving] = False
    others = ~same & (np.arange(bx.shape[1]) < n_b[:, None])
    others[rows, serving] = False
    same_r, same_j = np.nonzero(same)
    intra = bs_dist[same_r, same_j]
    intra = _split(intra[np.lexsort((intra, same_r))], same.sum(axis=1))
    out = _split(bs_dist[others], others.sum(axis=1))
    return [TypicalCluster(r0=r0, intra_dist=a, r_m=m, out_dist=b, cell_reach=c)
            for r0, a, m, b, c in zip(bs_dist[rows, serving].tolist(), intra,
                                      r_m.tolist(), out, cell_reach)]


def _split(flat, counts):
    """`flat` cut into consecutive pieces of `counts` entries."""
    ends = counts.cumsum().tolist()
    return [flat[lo:hi] for lo, hi in zip([0] + ends, ends)]


def _clip_cells(radius, c0x, c0y, delta_x, delta_y, dist, order):
    """The cells of `build_typical_cluster`, centred on each row's c0: one
    (vertex list, squared reach) a row, the floats of its clip loop.

    Every row still clipping cuts by its next-nearest station at once, with
    `_clip`'s arithmetic and vertex order and the same stop rule.  A row
    holds its polygon closed, its last vertex before vertex 0, and padded
    with nan, which neither crosses nor keeps."""
    x0, x1 = -radius - c0x, radius - c0x
    y0, y1 = -radius - c0y, radius - c0y
    poly = np.stack([np.stack([x0, x0, x1, x1, x0], axis=1),
                     np.stack([y1, y0, y0, y1, y1], axis=1)])
    p2 = poly * poly
    reach2 = (p2[0] + p2[1]).max(axis=1)
    n = np.full(len(c0x), 4)
    live = np.arange(len(c0x))
    finished = []           # (rows, polygons, counts, squared reaches)
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(order.shape[1]):
            j = order[live, k]
            ax, ay, d = delta_x[live, j], delta_y[live, j], dist[live, j]
            go = d * d <= 4.0 * reach2
            if not go.all():
                finished.append((live[~go], poly[:, ~go], n[~go], reach2[~go]))
                live, poly, n, reach2 = live[go], poly[:, go], n[go], reach2[go]
                if not len(live):
                    break
                ax, ay = ax[go], ay[go]
            s = (ax[:, None] * poly[0] + ay[:, None] * poly[1]
                 - (0.5 * (ax * ax + ay * ay))[:, None])
            sp, sq = s[:, :-1], s[:, 1:]
            p, q = poly[:, :, :-1], poly[:, :, 1:]
            # per vertex i: the crossing on the edge into it, then vertex i
            emit = np.stack((sp * sq < 0.0, sq <= 0.0), axis=2)
            out = np.stack((p + sp / (sp - sq) * (q - p), q), axis=3)
            n = emit.sum(axis=(1, 2))
            poly = np.full((2, len(live), n.max() + 1), np.nan)
            poly[:, :, 1:][:, np.arange(n.max()) < n[:, None]] = out[:, emit]
            poly[:, :, 0] = poly[:, np.arange(len(live)), n]
            p2 = poly * poly
            reach2 = np.fmax.reduce(p2[0] + p2[1], axis=1)
    finished.append((live, poly, n, reach2))
    cells = [None] * len(c0x)
    for rows, poly, n, reach2 in finished:
        for row, x, y, m, r2 in zip(rows.tolist(), poly[0].tolist(),
                                    poly[1].tolist(), n.tolist(), reach2.tolist()):
            cells[row] = list(zip(x[1:m + 1], y[1:m + 1])), r2
    return cells
