"""Two-tier Poisson deployment sampling and typical-cluster extraction.

Units: densities are free parameters and lengths are in the units the
path loss (1+r)^alpha is written in.  That law is not scale free: the +1
fixes a physical length, so the model and its bounds depend on the
absolute density lambda_b, not only on lambda_b/lambda_c and alpha.  The
observation window is a disk around the typical user (the origin) holding
`window_cluster_count` clusters on average.  `sample_typical_cluster`
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
"""

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


def _uniform_disk(rng, count, radius):
    r = radius * np.sqrt(rng.random(count))
    theta = 2.0 * math.pi * rng.random(count)
    points = np.empty((count, 2))
    np.multiply(r, np.cos(theta), out=points[:, 0])
    np.multiply(r, np.sin(theta), out=points[:, 1])
    return points


def sample_realization(cfg, rng):
    """One deployment: Poisson counts on the disk window, then uniform
    base-station and cluster-station positions.  DomainError, before any
    draw, if the window holds more than _MAX_WINDOW_STATIONS base stations
    on average."""
    radius = cfg.window_radius
    area = math.pi * radius * radius
    mean_b = cfg.lambda_b * area
    if not mean_b <= _MAX_WINDOW_STATIONS:
        raise DomainError(
            f"the window holds {mean_b:.3g} base stations on average "
            f"(window_cluster_count x ratio), over the {_MAX_WINDOW_STATIONS:g} "
            "a realization may sample")
    n_b = rng.poisson(mean_b)
    n_c = rng.poisson(cfg.lambda_c * area)
    bs = _uniform_disk(rng, n_b, radius)
    clusters = _uniform_disk(rng, n_c, radius)
    return NetworkRealization(
        bs_points=bs,
        cluster_points=clusters,
        window_radius=radius,
    )


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


def sample_typical_cluster(cfg, rng, max_attempts=1000):
    """Sample realizations until one yields a typical cluster whose cell
    stays clear of the window's guard annulus.

    Returns (cluster, rejections).
    """
    rejections = 0
    for _ in range(max_attempts):
        net = sample_realization(cfg, rng)
        try:
            cluster = build_typical_cluster(net)
        except DegenerateRealizationError:
            rejections += 1
            continue
        if cluster.cell_reach > _GUARD_FRACTION * net.window_radius:
            rejections += 1
            continue
        return cluster, rejections
    raise DegenerateRealizationError(
        f"no acceptable realization in {max_attempts} attempts")
